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

Every block is c I + T, with T zero on its diagonal.  Ordering the basis
by even and odd photon-number offset makes T = [[0, B], [B^T, 0]], with B
the lower-bidiagonal ceil(d/2) x floor(d/2) "chiral half" of the block.
Its singular values sigma give the spectrum c -+ sigma (plus c itself
when d is odd), and its singular vectors give the eigenvectors
(u, -+v)/sqrt(2) (the odd-d level c is B's left null vector).  One
``np.linalg.svd`` of B -- numpy's own LAPACK ``gesdd`` -- is therefore
the only eigensolve: the spectrum is symmetric about c by construction,
and numpy alone computes it.

The two levels c -+ sigma_k differ only in the sign of their odd rows, so
they share one photon distribution.  ``diagonalize`` therefore keeps the
eigensystem in its chiral half: one column (u_k, v_k)/sqrt(2) per level
pair, d x ceil(d/2) entries, is the only eigenvector record.  Level k <
d//2 is column k with its odd rows negated; no sign convention is applied.

``photon_moments`` gives every eigenstate's photon-number mean and
variance in one array pass over the pair columns, each pair's values
written to both of its levels; ``photon_statistics`` is its one-state
case, which also returns the distribution.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import ConvergenceError, undouble

__all__ = [
    "undouble",
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
    "photon_moments",
    "predicted_ground_mean",
    "predicted_ground_variance",
    "effective_ground_eigenvalue",
    "gaussian_profile",
    "dense_sector_spectra",
    "dense_oracle",
    "ConvergenceError",
]


class BlockIndex(namedtuple("BlockIndex", "two_r two_c kappa")):
    """Labels one invariant subspace: spin magnitude r, excitation c, |kappa|.

    two_r and two_c are the doubled (exact) values; they must share parity
    because c = n + m with integer photon number n and m on the -r..r ladder.
    """

    __slots__ = ()

    def __new__(cls, two_r: int, two_c: int, kappa: float):
        if two_r < 1:
            raise ValueError(
                f"r must be a positive integer or half-integer, got r = {undouble(two_r)}"
            )
        if (two_r - two_c) % 2 != 0:
            raise ValueError(
                f"r = {undouble(two_r)} and c = {undouble(two_c)} must have "
                f"equal parity (both integers or both half-integers)"
            )
        if two_c < -two_r:
            raise ValueError(
                f"empty block: c = {undouble(two_c)} is below -r = {undouble(-two_r)}"
            )
        if not kappa > 0.0:
            raise ValueError(f"coupling magnitude must be positive, got {kappa}")
        return super().__new__(cls, two_r, two_c, kappa)

    @property
    def r(self) -> float:
        return self.two_r / 2.0

    @property
    def c(self) -> float:
        return self.two_c / 2.0


class BasisRange(namedtuple("BasisRange", "n_min n_max")):
    """Photon-number span n_min..n_max of a block."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)


class HamiltonianBlock(namedtuple("HamiltonianBlock", "index basis diagonal offdiagonal")):
    """Real symmetric tridiagonal restriction of H to one (r, c) block.

    ``index`` and ``basis`` label it; ``diagonal`` and ``offdiagonal`` are
    arrays.  The diagonal is constant (c, or 0 for H - c I), which the
    chiral eigensolve relies on.
    """

    __slots__ = ()


class EigenSolution(namedtuple("EigenSolution", "index basis eigenvalues pairs")):
    """Ascending spectrum and photon-basis eigenvectors of one block.

    ``pairs``, the only eigenvector record, holds one Fortran-ordered
    column per level pair, on |n>|r, c-n>, n = n_min..n_max: column
    k < dim//2 is (u_k, v_k)/sqrt(2) on the even and odd photon-number
    offsets, the eigenvector of level dim-1-k (c + sigma_k) and, with the
    odd rows negated, of level k (c - sigma_k).  For an odd dim, column
    dim//2 is the middle level (u, 0).  No sign convention is applied.
    When the block is complete (dim == 2r+1) the levels carry the
    conventional labels j = k - r.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.basis.dim

    def j_labels(self):
        """j = k - r for complete blocks; None when dim < 2r+1."""
        if self.dim != self.index.two_r + 1:
            return None
        return (np.arange(-self.index.two_r, self.index.two_r + 1, 2)) / 2.0


class PhotonStatistics(namedtuple("PhotonStatistics", "n_values distribution n0 sigma2")):
    """Photon-number distribution p_n over n_values, its mean n0 and variance sigma2."""

    __slots__ = ()


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


def _chiral_svd(block: HamiltonianBlock, compute_uv: bool):
    """``np.linalg.svd`` of the block's chiral half B; failures name the block.

    B[i, i] = t[2i] and B[i+1, i] = t[2i+1] couple even offset 2i to odd
    offsets 2i+1 and 2i-1.  The diagonal must be constant.
    """
    if np.any(block.diagonal != block.diagonal[0]):
        raise ValueError("the chiral solve needs a constant block diagonal")
    t = block.offdiagonal
    half = np.zeros(((block.basis.dim + 1) // 2, block.basis.dim // 2))
    i = np.arange(half.shape[1])
    half[i, i] = t[0::2]
    j = i[: t.size // 2]
    half[j + 1, j] = t[1::2]
    try:
        return np.linalg.svd(half, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"block (r={block.index.r}, c={block.index.c}, "
            f"dim={block.basis.dim}): {exc}"
        ) from exc


def _symmetric_levels(block: HamiltonianBlock, sigma: np.ndarray) -> np.ndarray:
    """Ascending levels c -+ sigma (and c itself when the dim is odd).

    The level of each pair farther from zero is rounded once and its mirror
    is 2c minus it.  For a half-integer c that subtraction is exact, so
    lambda + lambda[::-1] == 2c holds bit for bit.
    """
    c = block.diagonal[0]
    outer = c + np.copysign(sigma, c)
    inner = 2.0 * c - outer
    low, high = (inner, outer) if c >= 0.0 else (outer, inner)
    return np.concatenate((low, block.diagonal[: block.basis.dim % 2], high[::-1]))


def diagonalize(block: HamiltonianBlock) -> EigenSolution:
    """Ascending eigensystem of a block, one amplitude column per level pair.

    Column k of the pair record is (u_k, v_k)/sqrt(2) on the even and odd
    rows, straight from the SVD factors of the chiral half; an odd dim adds
    the null vector (u, 0) as the middle column.  Level k < dim//2 is
    column k with its odd rows negated; no sign convention is applied.
    """
    u, sigma, vt = _chiral_svd(block, compute_uv=True)
    dim = block.basis.dim
    m = sigma.size
    pairs = np.empty((dim, (dim + 1) // 2), order="F")
    np.multiply(u[:, :m], np.sqrt(0.5), out=pairs[0::2, :m])
    np.multiply(vt.T, np.sqrt(0.5), out=pairs[1::2, :m])
    if dim % 2:
        pairs[0::2, m] = u[:, m]
        pairs[1::2, m] = 0.0
    return EigenSolution(
        index=block.index,
        basis=block.basis,
        eigenvalues=_symmetric_levels(block, sigma),
        pairs=pairs,
    )


def block_eigenvalues(block: HamiltonianBlock) -> np.ndarray:
    """Ascending spectrum of a block without its eigenvectors."""
    return _symmetric_levels(block, _chiral_svd(block, compute_uv=False))


# Eigenstates per photon-statistics pass are capped at _BLOCK (states x dim)
# entries, the bound condensation.solve_supply_grid uses for its grid blocks.
_BLOCK = 2**15


def _block_moments(columns: np.ndarray, n: np.ndarray):
    """Distributions, means and centred variances of eigenvector ``columns``.

    Rows of the squared, transposed columns are normalized in place, and
    each moment is a stacked (1 x dim) @ (dim x 1) matmul, which reproduces
    the 1-d dot ``p @ n`` bit for bit (a (states x dim) @ (dim,) gemv does not).
    """
    p = np.square(columns.T, order="C")
    p /= p.sum(axis=1, keepdims=True)
    n0 = (p[:, None, :] @ n[:, None])[:, 0, 0]
    deviation = n - n0[:, None]
    np.square(deviation, out=deviation)
    sigma2 = (p[:, None, :] @ deviation[:, :, None])[:, 0, 0]
    return p, n0, sigma2


def photon_moments(solution: EigenSolution) -> tuple[np.ndarray, np.ndarray]:
    """Photon-number mean n0 and variance sigma^2 of every eigenstate, in order.

    One array pass per block of at most _BLOCK (pairs x dim) entries over
    the pair columns; levels k and dim-1-k share column k's values.  Each
    value equals ``photon_statistics(solution, k)``'s bit for bit.
    """
    n = solution.basis.n_values.astype(float)
    columns = solution.pairs.shape[1]
    n0 = np.empty(columns)
    sigma2 = np.empty(columns)
    step = max(1, _BLOCK // solution.dim)
    for lo in range(0, columns, step):
        _, n0[lo:lo + step], sigma2[lo:lo + step] = _block_moments(
            solution.pairs[:, lo:lo + step], n
        )
    mirror = solution.dim // 2
    return (
        np.concatenate((n0, n0[:mirror][::-1])),
        np.concatenate((sigma2, sigma2[:mirror][::-1])),
    )


def photon_statistics(solution: EigenSolution, k: int) -> PhotonStatistics:
    """Photon-number distribution p_n = |A_n|^2 and its mean/variance.

    The one-column case of the ``photon_moments`` kernel, on pair column
    min(k, dim-1-k).
    """
    if not 0 <= k < solution.dim:
        raise IndexError(f"eigenstate index {k} outside 0..{solution.dim - 1}")
    column = min(k, solution.dim - 1 - k)
    p, n0, sigma2 = _block_moments(
        solution.pairs[:, column:column + 1], solution.basis.n_values.astype(float)
    )
    return PhotonStatistics(
        n_values=solution.basis.n_values,
        distribution=p[0],
        n0=float(n0[0]),
        sigma2=float(sigma2[0]),
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


def predicted_ground_variance(index: BlockIndex, n0: float) -> float:
    """Closed-form ground-state photon-number variance of a block.

    sigma^2 = (1/2) sqrt( n0 [r^2 - (n0 - c)^2] / (3 n0 - 2 c) ),
    derived for c > r > 1.  Special points: sigma^2 = n0/sqrt(12) at
    r = c, and sigma^2 ~ n0/sqrt(6) for r >> c.
    """
    r = index.r
    c = index.c
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


def effective_ground_eigenvalue(solution: EigenSolution) -> float:
    """Coupling-normalized depth of the ground level: q0 = (c - lambda_min)/|kappa|."""
    return float((solution.index.c - solution.eigenvalues[0]) / solution.index.kappa)


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
    n_molecules: int, cutoff: int, kappa: float
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
