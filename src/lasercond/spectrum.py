"""Invariant-block spectra of N two-level molecules coupled to one boson mode.

With every molecule resonant with the mode (energies in units of the mode
quantum), the rotating-wave Hamiltonian

    H = R3 + a'a - kappa a R+ - kappa* a' R-

conserves both the collective pseudo-spin magnitude, with eigenvalue
r(r+1), and the total excitation number c = <R3> + <a'a>.  Each (r, c)
pair therefore labels an invariant subspace spanned by |n>|r, c-n> for
n = max(0, c-r) ... c+r, and inside it H is a real symmetric tridiagonal
matrix once the coupling phases are absorbed into the basis states
(observables never see those phases).  The ground state of a block has a
near-Gaussian photon-number distribution and, deep in the collective
regime, the 2r+1 block levels are evenly spaced -- the two facts the
condensation model downstream relies on.

Half-integers are carried as doubled integers (two_r = 2r, two_c = 2c)
so parity checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvalsh_tridiagonal

__all__ = [
    "BlockIndex",
    "BasisRange",
    "HamiltonianBlock",
    "EigenSolution",
    "PhotonStatistics",
    "block_basis",
    "build_block",
    "diagonalize",
    "block_eigenvalues",
    "photon_statistics",
    "predicted_ground_mean",
    "predicted_ground_variance",
    "ground_variance_formula",
    "effective_ground_eigenvalue",
    "predicted_spectrum_linear",
    "gaussian_profile",
    "dense_sector_spectra",
    "dense_oracle",
    "ConvergenceError",
]

# LAPACK's MRRR routine (Dhillon & Parlett, "Multiple representations to
# compute orthogonal eigenvectors of symmetric tridiagonal matrices", LAA
# 387, 2004), named explicitly so the algorithm does not follow scipy's
# lapack_driver="auto" default from one release to the next.
_DRIVER = "stemr"


class ConvergenceError(RuntimeError):
    """A numerical solve failed: LAPACK did not converge, or no root was found.

    Raised by the block eigensolve and by the steady-state solver, whose
    message names the regime (a pole the gap variable cannot resolve, a
    missing bracket, occupations that all underflow).
    """


@dataclass(frozen=True)
class BlockIndex:
    """Labels one invariant subspace: spin magnitude r, excitation c, |kappa|.

    two_r and two_c are the doubled (exact) values; they must share parity
    because c = n + m with integer photon number n and m on the -r..r ladder.
    """

    two_r: int
    two_c: int
    kappa: float = 1.0

    def __post_init__(self):
        if self.two_r < 1:
            raise ValueError(f"two_r must be a positive integer, got {self.two_r}")
        if (self.two_r - self.two_c) % 2 != 0:
            raise ValueError(
                f"2r={self.two_r} and 2c={self.two_c} must have equal parity"
            )
        if self.two_c < -self.two_r:
            raise ValueError(
                f"empty block: c={self.two_c / 2} is below -r={-self.two_r / 2}"
            )
        if not self.kappa > 0.0:
            raise ValueError(f"coupling magnitude must be positive, got {self.kappa}")

    @property
    def r(self) -> float:
        return self.two_r / 2.0

    @property
    def c(self) -> float:
        return self.two_c / 2.0


@dataclass(frozen=True)
class BasisRange:
    """Photon-number span n_min..n_max of a block."""

    n_min: int
    n_max: int

    @property
    def dim(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)


@dataclass(frozen=True)
class HamiltonianBlock:
    """Real symmetric tridiagonal restriction of H to one (r, c) block."""

    index: BlockIndex
    basis: BasisRange
    diagonal: np.ndarray
    offdiagonal: np.ndarray


@dataclass(frozen=True)
class EigenSolution:
    """Ascending spectrum and photon-basis amplitudes of one block.

    Column k of ``amplitudes`` holds the coefficients A_n of eigenstate k
    on |n>|r, c-n>, n = n_min..n_max.  When the block is complete
    (dim == 2r+1) the levels carry the conventional labels j = k - r.
    """

    index: BlockIndex
    basis: BasisRange
    eigenvalues: np.ndarray
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.dim

    def j_labels(self):
        """j = k - r for complete blocks; None when dim < 2r+1."""
        if self.dim != self.index.two_r + 1:
            return None
        return (np.arange(-self.index.two_r, self.index.two_r + 1, 2)) / 2.0


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number distribution and moments of a single eigenstate."""

    n_values: np.ndarray
    distribution: np.ndarray
    n0: float
    sigma2: float
    m_mean: float  # molecular energy <m> = c - n0, conserved partner of n0


def block_basis(index: BlockIndex) -> BasisRange:
    """Photon-number range of a block: n = max(0, c-r) .. c+r."""
    two_nmin = max(0, index.two_c - index.two_r)
    n_min = two_nmin // 2
    n_max = (index.two_c + index.two_r) // 2
    return BasisRange(n_min=n_min, n_max=n_max)


def _coupling_elements(index: BlockIndex, basis: BasisRange) -> np.ndarray:
    """t_n = |kappa| sqrt(n) sqrt(r(r+1) - m(m+1)), m = c - n, n > n_min.

    The radicand is assembled from doubled integers, so it is exact; a
    negative value can only mean the basis bookkeeping is broken.
    """
    n = np.arange(basis.n_min + 1, basis.n_max + 1)
    two_m = index.two_c - 2 * n
    radicand4 = index.two_r * (index.two_r + 2) - two_m * (two_m + 2)
    if np.any(radicand4 < 0):
        raise RuntimeError(
            f"negative coupling radicand in block (2r={index.two_r}, "
            f"2c={index.two_c}): basis indexing bug"
        )
    return index.kappa * np.sqrt(n) * np.sqrt(radicand4 / 4.0)


def build_block(index: BlockIndex) -> HamiltonianBlock:
    """Assemble the tridiagonal matrix of H restricted to (r, c).

    The diagonal is identically c (total excitation is conserved); the
    off-diagonal couples n-1 <-> n with the gauge-fixed positive t_n.
    """
    basis = block_basis(index)
    diagonal = np.full(basis.dim, index.c)
    offdiagonal = _coupling_elements(index, basis)
    return HamiltonianBlock(
        index=index, basis=basis, diagonal=diagonal, offdiagonal=offdiagonal
    )


def _solve_block(solver, block: HamiltonianBlock):
    """Run a LAPACK tridiagonal ``solver`` on a block; failures name the block."""
    try:
        return solver(block.diagonal, block.offdiagonal, lapack_driver=_DRIVER)
    except LinAlgError as exc:
        raise ConvergenceError(
            f"block (r={block.index.r}, c={block.index.c}, "
            f"dim={block.basis.dim}): {exc}"
        ) from exc


def _fix_signs(vectors) -> None:
    """Make the first component above 1e-12 of each column's maximum positive.

    Fixes the sign convention in place so repeated runs are bit-reproducible.
    """
    magnitude = np.abs(vectors)
    lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)


def diagonalize(block: HamiltonianBlock) -> EigenSolution:
    """Full ascending eigensystem of a block, eigenvector signs fixed."""
    values, vectors = _solve_block(eigh_tridiagonal, block)
    _fix_signs(vectors)
    return EigenSolution(
        index=block.index,
        basis=block.basis,
        eigenvalues=values,
        amplitudes=vectors,
    )


def block_eigenvalues(block: HamiltonianBlock) -> np.ndarray:
    """Ascending spectrum of a block without its eigenvectors."""
    return _solve_block(eigvalsh_tridiagonal, block)


def photon_statistics(solution: EigenSolution, k: int) -> PhotonStatistics:
    """Photon-number distribution p_n = |A_n|^2 and its mean/variance."""
    if not 0 <= k < solution.dim:
        raise IndexError(f"eigenstate index {k} outside 0..{solution.dim - 1}")
    p = solution.amplitudes[:, k] ** 2
    p = p / p.sum()
    n = solution.basis.n_values.astype(float)
    n0 = float(p @ n)
    sigma2 = float(p @ (n - n0) ** 2)
    return PhotonStatistics(
        n_values=solution.basis.n_values,
        distribution=p,
        n0=n0,
        sigma2=sigma2,
        m_mean=solution.index.c - n0,
    )


def predicted_ground_mean(index: BlockIndex) -> tuple[float, float]:
    """Closed-form ground-state mean photon number (full, asymptotic).

    full       = (2/3)(c + 1/2) + (1/3) sqrt(3r^2 + 3r + 3/4 + c^2 + c + 1/4)
    asymptotic = (2/3) c + (1/3) sqrt(3r^2 + c^2)        (r, c >> 1)
    """
    r = index.r
    c = index.c
    full = (2.0 / 3.0) * (c + 0.5) + np.sqrt(
        3.0 * r * r + 3.0 * r + 0.75 + c * c + c + 0.25
    ) / 3.0
    asymptotic = (2.0 / 3.0) * c + np.sqrt(3.0 * r * r + c * c) / 3.0
    return float(full), float(asymptotic)


def ground_variance_formula(r: float, c: float, n0: float) -> float:
    """Continuous-argument core of the ground-state variance closed form.

    sigma^2 = (1/2) sqrt( n0 [r^2 - (n0 - c)^2] / (3 n0 - 2 c) ),
    derived for c > r > 1.  Special points: sigma^2 = n0/sqrt(12) at
    r = c, and sigma^2 ~ n0/sqrt(6) for r >> c.
    """
    denominator = 3.0 * n0 - 2.0 * c
    if denominator <= 0.0:
        raise ValueError(
            f"variance formula needs 3*n0 > 2*c; got n0={n0}, c={c} "
            f"(outside its c > r > 1 regime)"
        )
    numerator = n0 * (r * r - (n0 - c) ** 2)
    if numerator < 0.0:
        raise ValueError(
            f"variance radicand negative: n0={n0} is farther than r={r} "
            f"from c={c} (outside its c > r > 1 regime)"
        )
    return float(0.5 * np.sqrt(numerator / denominator))


def predicted_ground_variance(index: BlockIndex, n0: float) -> float:
    """Closed-form ground-state photon-number variance of a block."""
    return ground_variance_formula(index.r, index.c, n0)


def effective_ground_eigenvalue(solution: EigenSolution) -> float:
    """Coupling-normalized depth of the ground level: q0 = (c - lambda_min)/|kappa|."""
    return float((solution.index.c - solution.eigenvalues[0]) / solution.index.kappa)


def predicted_spectrum_linear(index: BlockIndex, n0: float) -> np.ndarray:
    """Evenly spaced level ladder lambda_j = c + 2 j |kappa| sqrt(n0), j = -r..r."""
    j = np.arange(-index.two_r, index.two_r + 1, 2) / 2.0
    return index.c + 2.0 * j * index.kappa * np.sqrt(n0)


def gaussian_profile(n0: float, sigma2: float, basis: BasisRange) -> np.ndarray:
    """Discrete Gaussian exp(-(n-n0)^2 / 2 sigma^2) normalized on the basis range."""
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    n = basis.n_values.astype(float)
    w = np.exp(-((n - n0) ** 2) / (2.0 * sigma2))
    return w / w.sum()


# ---------------------------------------------------------------------------
# Dense oracle: brute-force diagonalization in the full product space.
# ---------------------------------------------------------------------------

_MAX_DENSE_DIM = 4096


def _collective_spin(n_molecules: int):
    """Collective R3, R+, R- as dense matrices on the 2^N product space."""
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    r3 = np.zeros((2**n_molecules,) * 2)
    rp = np.zeros_like(r3)
    for site in range(n_molecules):
        ops_z = [sz if k == site else np.eye(2) for k in range(n_molecules)]
        ops_p = [sp if k == site else np.eye(2) for k in range(n_molecules)]
        term_z = ops_z[0]
        term_p = ops_p[0]
        for op_z, op_p in zip(ops_z[1:], ops_p[1:]):
            term_z = np.kron(term_z, op_z)
            term_p = np.kron(term_p, op_p)
        r3 += term_z
        rp += term_p
    return r3, rp, rp.T


def dense_sector_spectra(
    n_molecules: int, cutoff: int, kappa: float = 1.0
) -> dict[tuple[int, int], np.ndarray]:
    """Brute-force spectra of H on (2-level)^N x Fock(<= cutoff), by sector.

    Independent verification route: the Hamiltonian is built from explicit
    R3, R+-, a, a' matrices in the uncoupled product basis and split into
    (r, c) sectors by simultaneous diagonalization of the conserved
    operators, never via the tridiagonal construction.  Only sectors whose
    photon range fits under the cutoff (c + r <= cutoff) are returned;
    keys are (2r, 2c), values ascending eigenvalues including the
    degeneracy-multiplet multiplicity.
    """
    if n_molecules < 1 or n_molecules > 3:
        raise ValueError("dense oracle supports 1..3 molecules")
    spin_dim = 2**n_molecules
    fock_dim = cutoff + 1
    total = spin_dim * fock_dim
    if total > _MAX_DENSE_DIM:
        raise ValueError(
            f"full product dimension {total} exceeds the oracle cap {_MAX_DENSE_DIM}"
        )

    r3_s, rp_s, rm_s = _collective_spin(n_molecules)
    r2_s = r3_s @ r3_s + 0.5 * (rp_s @ rm_s + rm_s @ rp_s)

    a = np.diag(np.sqrt(np.arange(1, fock_dim)), k=1)
    number = np.diag(np.arange(fock_dim, dtype=float))
    eye_s = np.eye(spin_dim)
    eye_f = np.eye(fock_dim)

    h = (
        np.kron(r3_s, eye_f)
        + np.kron(eye_s, number)
        - kappa * np.kron(rp_s, a)
        - kappa * np.kron(rm_s, a.T)
    )
    r2_full = np.kron(r2_s, eye_f)

    # c is diagonal in the product basis: group indices by 2c = 2<R3> + 2n.
    two_c_diag = np.rint(
        2.0 * (np.kron(np.diag(r3_s), np.ones(fock_dim)) + np.kron(np.ones(spin_dim), np.arange(fock_dim)))
    ).astype(int)

    sectors: dict[tuple[int, int], np.ndarray] = {}
    for two_c in np.unique(two_c_diag):
        ix = np.flatnonzero(two_c_diag == two_c)
        r2_sub = r2_full[np.ix_(ix, ix)]
        h_sub = h[np.ix_(ix, ix)]
        vals, vecs = np.linalg.eigh(0.5 * (r2_sub + r2_sub.T))
        two_r_per = np.rint(np.sqrt(4.0 * vals + 1.0) - 1.0).astype(int)
        if np.max(np.abs(two_r_per * (two_r_per + 2) / 4.0 - vals)) > 1e-8:
            raise RuntimeError("spin-magnitude eigenvalues failed to quantize")
        for two_r in np.unique(two_r_per):
            if int(two_c) + int(two_r) > 2 * cutoff:
                continue  # photon range truncated by the Fock cutoff
            cols = vecs[:, two_r_per == two_r]
            h_rc = cols.T @ h_sub @ cols
            eigenvalues = np.linalg.eigvalsh(0.5 * (h_rc + h_rc.T))
            sectors[(int(two_r), int(two_c))] = np.sort(eigenvalues)
    return sectors


def dense_oracle(index: BlockIndex, n_molecules: int, cutoff: int) -> np.ndarray:
    """Sector eigenvalues for ``index`` from the full product-space build."""
    sectors = dense_sector_spectra(n_molecules, cutoff, kappa=index.kappa)
    key = (index.two_r, index.two_c)
    if key not in sectors:
        raise ValueError(
            f"sector (2r={index.two_r}, 2c={index.two_c}) absent or truncated "
            f"for N={n_molecules}, cutoff={cutoff}"
        )
    return sectors[key]
