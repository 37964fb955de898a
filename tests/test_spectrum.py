"""Block construction, diagonalization and closed-form spectral statistics."""

import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasercond import spectrum as sp

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# basis range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "two_r,two_c,n_min,n_max,dim",
    [
        (1, 1, 0, 1, 2),     # single-excitation doublet
        (4, 2, 0, 3, 4),     # c < r branch: dim = r + c + 1
        (6, 20, 7, 13, 7),   # c > r branch: dim = 2r + 1
    ],
)
def test_block_basis_ranges(two_r, two_c, n_min, n_max, dim):
    basis = sp.block_basis(sp.BlockIndex(two_r, two_c, 1.0))
    assert (basis.n_min, basis.n_max, basis.dim) == (n_min, n_max, dim)


def test_block_basis_rejects_empty_block():
    with pytest.raises(ValueError, match="empty block"):
        sp.BlockIndex(two_r=1, two_c=-9, kappa=1.0)


def test_block_basis_rejects_parity_mismatch():
    with pytest.raises(ValueError, match="parity"):
        sp.BlockIndex(two_r=2, two_c=1, kappa=1.0)


def test_block_index_rejects_bad_kappa():
    with pytest.raises(ValueError, match="positive"):
        sp.BlockIndex(two_r=2, two_c=2, kappa=0.0)


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------

def test_build_block_doublet():
    block = sp.build_block(sp.BlockIndex(1, 1, 1.0))
    assert np.array_equal(block.diagonal, [0.5, 0.5])
    assert np.allclose(block.offdiagonal, [1.0])
    solution = sp.diagonalize(block)
    assert np.allclose(solution.eigenvalues, [-0.5, 1.5])


def test_build_block_doublet_c_three_halves():
    # hand value: t_2 = sqrt(2) * sqrt(3/4 - (-1/2)(1/2)) = sqrt(2)
    block = sp.build_block(sp.BlockIndex(1, 3, 1.0))
    assert np.allclose(block.offdiagonal, [SQRT2])
    solution = sp.diagonalize(block)
    assert np.allclose(solution.eigenvalues, [1.5 - SQRT2, 1.5 + SQRT2])


def test_build_block_r1_c1_matches_dense_oracle():
    # t_1 = sqrt(2), t_2 = sqrt(2)*sqrt(2) = 2; eigenvalues 1, 1 -+ sqrt(6)
    block = sp.build_block(sp.BlockIndex(2, 2, 1.0))
    assert np.allclose(block.offdiagonal, [SQRT2, 2.0])
    solution = sp.diagonalize(block)
    assert np.allclose(solution.eigenvalues, [1.0 - SQRT6, 1.0, 1.0 + SQRT6])
    oracle = sp.dense_oracle(sp.BlockIndex(2, 2, 1.0), n_molecules=2, cutoff=6)
    assert np.allclose(solution.eigenvalues, oracle, atol=1e-12)


def test_offdiagonal_positive():
    block = sp.build_block(sp.BlockIndex(9, 31, 0.7))
    assert np.all(block.offdiagonal > 0.0)
    assert np.all(block.diagonal == 15.5)


def test_coupling_spin_factor_reflection_symmetric():
    # the collective-ladder part of t_n, r(r+1) - m(m+1) with m = c - n,
    # is invariant under reflecting the m-ladder (m -> -m-1); the photon
    # factor sqrt(n) is what skews the full coupling
    index = sp.BlockIndex(10, 14, 1.0)  # complete block, m spans -5..5
    block = sp.build_block(index)
    n = np.arange(block.basis.n_min + 1, block.basis.n_max + 1)
    spin_factor = block.offdiagonal**2 / (index.kappa**2 * n)
    assert np.allclose(spin_factor, spin_factor[::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def test_diagonalize_vacuum_block():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(1, -1, 1.0)))
    assert solution.dim == 1
    assert np.array_equal(solution.eigenvalues, [-0.5])
    assert np.array_equal(solution.pairs, [[1.0]])


def test_spectrum_symmetric_about_c():
    rng = np.random.default_rng(3)
    for _ in range(40):
        two_r = int(rng.integers(1, 60))
        two_c = int(rng.integers(-two_r, 400))
        two_c -= (two_c - two_r) % 2
        index = sp.BlockIndex(two_r, two_c, float(rng.uniform(0.2, 2.0)))
        lam = sp.diagonalize(sp.build_block(index)).eigenvalues
        assert np.max(np.abs(lam + lam[::-1] - 2.0 * index.c)) < 1e-9 * max(
            1.0, abs(index.c)
        )


def test_eigenvectors_orthonormal_large_block():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(600, 600, 1.0)))
    pairs = solution.pairs
    gram = pairs.T @ pairs
    assert np.max(np.abs(gram - np.eye(pairs.shape[1]))) < 1e-10
    # each level pair splits its weight evenly between even and odd offsets
    half = np.sum(np.square(pairs[0::2, : solution.dim // 2]), axis=0)
    assert np.max(np.abs(half - 0.5)) < 1e-10


def test_kappa_covariance():
    base = sp.diagonalize(sp.build_block(sp.BlockIndex(80, 400, 1.0)))
    scaled = sp.diagonalize(sp.build_block(sp.BlockIndex(80, 400, 2.0)))
    expected = 200.0 + 2.0 * (base.eigenvalues - 200.0)
    assert np.max(np.abs(scaled.eigenvalues - expected)) < 1e-9
    # the SVD's column signs may differ between the two solves
    assert np.max(np.abs(np.abs(scaled.pairs) - np.abs(base.pairs))) < 1e-10


def test_j_labels_only_for_complete_blocks():
    complete = sp.diagonalize(sp.build_block(sp.BlockIndex(4, 8, 1.0)))
    assert np.array_equal(complete.j_labels(), [-2, -1, 0, 1, 2])
    truncated = sp.diagonalize(sp.build_block(sp.BlockIndex(4, 2, 1.0)))
    assert truncated.j_labels() is None


def _dense(block):
    return (
        np.diag(block.diagonal)
        + np.diag(block.offdiagonal, 1)
        + np.diag(block.offdiagonal, -1)
    )


def test_diagonalize_matches_dense_eigh():
    block = sp.build_block(sp.BlockIndex(41, 121, 0.9))
    solution = sp.diagonalize(block)
    values, pairs = solution.eigenvalues, solution.pairs
    assert pairs.flags.f_contiguous
    dense = _dense(block)
    dense_values, dense_vectors = np.linalg.eigh(dense)
    assert np.max(np.abs(values - dense_values)) < 1e-12
    # column k is the eigenvector of level dim-1-k
    upper = values[::-1][: pairs.shape[1]]
    assert np.max(np.abs(dense @ pairs - pairs * upper)) < 1e-12
    assert np.max(np.abs(pairs.T @ pairs - np.eye(pairs.shape[1]))) < 1e-12
    upper_vectors = dense_vectors[:, ::-1][:, : pairs.shape[1]]
    assert np.max(np.abs(np.abs(pairs) - np.abs(upper_vectors))) < 1e-12


def test_block_eigenvalues_match_full_solve():
    block = sp.build_block(sp.BlockIndex(200, 300, 1.0))
    values = sp.block_eigenvalues(block)
    assert np.max(np.abs(values - sp.diagonalize(block).eigenvalues)) < 1e-10


@pytest.mark.parametrize("solve", [sp.diagonalize, sp.block_eigenvalues])
def test_lapack_failure_raises_convergence_error(monkeypatch, solve):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    block = sp.build_block(sp.BlockIndex(41, 121, 0.9))
    with pytest.raises(sp.ConvergenceError, match=r"r=20\.5, c=60\.5, dim=42\): SVD did"):
        solve(block)


@pytest.mark.parametrize("solve", [sp.diagonalize, sp.block_eigenvalues])
def test_chiral_solve_rejects_a_varying_diagonal(solve):
    block = sp.build_block(sp.BlockIndex(4, 8, 1.0))
    diagonal = block.diagonal.copy()
    diagonal[2] += 1.0
    with pytest.raises(ValueError, match="constant block diagonal"):
        solve(block._replace(diagonal=diagonal))


@st.composite
def _chiral_blocks(draw):
    """2r in 1..120, 2c from -2r to 400 with the parity of 2r, kappa log-uniform in [0.05, 3]."""
    two_r = draw(st.integers(1, 120))
    two_c = -two_r + 2 * draw(st.integers(0, (400 + two_r) // 2))
    kappa = math.exp(draw(st.floats(math.log(0.05), math.log(3.0))))
    return sp.BlockIndex(two_r, two_c, min(max(kappa, 0.05), 3.0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(index=_chiral_blocks())
@example(index=sp.BlockIndex(1, -1, 1.0))  # dim 1
@example(index=sp.BlockIndex(6, -6, 0.05))  # dim 1, truncated
@example(index=sp.BlockIndex(1, 1, 3.0))  # dim 2, complete
@example(index=sp.BlockIndex(8, -6, 0.7))  # dim 2, truncated
@example(index=sp.BlockIndex(120, 400, 3.0))  # dim 121, complete, largest norm
@example(index=sp.BlockIndex(119, 1, 0.05))  # dim 60, truncated
def test_chiral_solve_matches_dense_eigh(index):
    # error scale eps * ||H|| with ||H|| = |c| + max|lambda - c|; measured
    # over 3000 draws of this domain: values 12, pair-column residuals 11.6,
    # |vectors| (times the smallest level gap) 4.2, orthonormality 0.75 and
    # even-row half norms 0.5 eps * dim
    eps = np.finfo(float).eps
    block = sp.build_block(index)
    solution = sp.diagonalize(block)
    values, pairs = solution.eigenvalues, solution.pairs
    dim, cols = pairs.shape
    dense = _dense(block)
    dense_values, dense_vectors = np.linalg.eigh(dense)
    norm = abs(index.c) + np.max(np.abs(dense_values - index.c))
    assert np.max(np.abs(values - dense_values)) <= 50 * eps * norm
    assert np.max(np.abs(sp.block_eigenvalues(block) - dense_values)) <= 50 * eps * norm
    # column k is the eigenvector of level dim-1-k and, with its odd rows
    # negated, of level k (the middle column of an odd dim is both)
    residual = dense @ pairs - pairs * values[::-1][:cols]
    assert np.max(np.abs(residual)) <= 50 * eps * norm
    flipped = pairs.copy()
    flipped[1::2] *= -1.0
    residual = dense @ flipped - flipped * values[:cols]
    assert np.max(np.abs(residual)) <= 50 * eps * norm
    gram = pairs.T @ pairs - np.eye(cols)
    assert np.max(np.abs(gram)) <= 10 * eps * dim
    half = np.sum(np.square(pairs[0::2, : dim // 2]), axis=0)
    assert np.max(np.abs(half - 0.5), initial=0.0) <= 10 * eps * dim
    if dim > 1:
        gap = np.min(np.diff(dense_values))
        upper = np.abs(dense_vectors[:, ::-1][:, :cols])
        assert np.max(np.abs(np.abs(pairs) - upper)) <= 50 * eps * norm / gap
    assert pairs.flags.f_contiguous
    # the levels pair up about c exactly, in both solves
    two_c = np.full(solution.dim, 2.0 * index.c)
    assert _bits(values + values[::-1]) == _bits(two_c)
    eigenvalues = sp.block_eigenvalues(block)
    assert _bits(eigenvalues + eigenvalues[::-1]) == _bits(two_c)


# ---------------------------------------------------------------------------
# photon statistics
# ---------------------------------------------------------------------------

def test_photon_statistics_deterministic_block():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(1, -1, 1.0)))
    stats = sp.photon_statistics(solution, 0)
    assert stats.n0 == 0.0
    assert stats.sigma2 == 0.0


def test_photon_statistics_doublet_ground():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(1, 1, 1.0)))
    stats = sp.photon_statistics(solution, 0)
    assert np.allclose(stats.distribution, [0.5, 0.5])
    assert stats.n0 == pytest.approx(0.5)
    assert stats.sigma2 == pytest.approx(0.25)


def test_photon_statistics_conservation():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(17, 61, 0.8)))
    for k in range(solution.dim):
        stats = sp.photon_statistics(solution, k)
        assert abs(stats.distribution.sum() - 1.0) < 1e-12


def test_photon_statistics_index_range():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(1, 1, 1.0)))
    with pytest.raises(IndexError):
        sp.photon_statistics(solution, 2)


@st.composite
def _blocks(draw):
    """2r in 1..400, 2c from -2r (truncated blocks below c = r) to 1000, kappa in [0.1, 2]."""
    two_r = draw(st.integers(1, 400))
    two_c = -two_r + 2 * draw(st.integers(0, (1000 + two_r) // 2))
    return sp.BlockIndex(two_r, two_c, draw(st.floats(0.1, 2.0)))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(index=_blocks())
@example(index=sp.BlockIndex(1, -1, 1.0))  # dim 1: n0 = sigma2 = 0
def test_photon_moments_are_the_per_state_statistics_bit_for_bit(index):
    solution = sp.diagonalize(sp.build_block(index))
    n0, sigma2 = sp.photon_moments(solution)
    stats = [sp.photon_statistics(solution, k) for k in range(solution.dim)]
    assert _bits(n0) == _bits([one.n0 for one in stats])
    assert _bits(sigma2) == _bits([one.sigma2 for one in stats])
    if solution.dim == 1:
        assert _bits([n0[0], sigma2[0]]) == _bits([0.0, 0.0])
    # blocks of one state, of seven entries and of one row of amplitudes
    # reproduce a single pass over every state
    with mock.patch.object(sp, "_BLOCK", solution.dim * solution.dim):
        single = sp.photon_moments(solution)
    for block in (1, 7, solution.dim):
        with mock.patch.object(sp, "_BLOCK", block):
            blocked = sp.photon_moments(solution)
        assert _bits(blocked[0]) == _bits(single[0]) == _bits(n0)
        assert _bits(blocked[1]) == _bits(single[1]) == _bits(sigma2)


# Frozen reference: the signed dim x dim eigenvector matrix diagonalize built
# before it kept one column per level pair, and the moments of its columns.

_FullSolution = namedtuple("_FullSolution", "index basis eigenvalues amplitudes dim")


def _full_matrix_diagonalize(block):
    u, sigma, vt = sp._chiral_svd(block, compute_uv=True)
    dim = block.basis.dim
    m = sigma.size
    vectors = np.empty((dim, dim), order="F")
    even, odd = vectors[0::2], vectors[1::2]
    u_half = u[:, :m] * np.sqrt(0.5)
    v_half = vt.T * np.sqrt(0.5)
    even[:, :m] = u_half
    even[:, dim - m:] = u_half[:, ::-1]
    odd[:, :m] = -v_half
    odd[:, dim - m:] = v_half[:, ::-1]
    if dim % 2:
        even[:, m] = u[:, m]
        odd[:, m] = 0.0
    magnitude = np.abs(vectors)
    lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
    vectors *= np.where(vectors[lead, np.arange(dim)] < 0.0, -1.0, 1.0)
    levels = sp._symmetric_levels(block, sigma)
    return _FullSolution(block.index, block.basis, levels, vectors, dim)


def _full_matrix_moments(solution):
    """Distributions, means and variances of every column, in one pass."""
    n = solution.basis.n_values.astype(float)
    p = np.square(solution.amplitudes.T, order="C")
    p /= p.sum(axis=1, keepdims=True)
    n0 = (p[:, None, :] @ n[:, None])[:, 0, 0]
    deviation = np.square(n - n0[:, None])
    sigma2 = (p[:, None, :] @ deviation[:, :, None])[:, 0, 0]
    return p, n0, sigma2


def _full_matrix_statistics(solution, k):
    p, n0, sigma2 = _full_matrix_moments(solution)
    return sp.PhotonStatistics(solution.basis.n_values, p[k], float(n0[k]), float(sigma2[k]))


@st.composite
def _pair_blocks(draw):
    """2r in 1..400, 2c from -2r to 2r + 400: truncated (c < r) and complete blocks."""
    two_r = draw(st.integers(1, 400))
    two_c = -two_r + 2 * draw(st.integers(0, two_r + 200))
    return sp.BlockIndex(two_r, two_c, draw(st.floats(0.1, 2.0)))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(index=_pair_blocks())
@example(index=sp.BlockIndex(1, -1, 1.0))  # dim 1
@example(index=sp.BlockIndex(5, -5, 0.3))  # dim 1, c < 0
@example(index=sp.BlockIndex(1, 1, 1.0))  # dim 2, complete
@example(index=sp.BlockIndex(7, -3, 1.7))  # dim 3, truncated, c < 0
@example(index=sp.BlockIndex(400, 0, 1.0))  # dim 201, c = 0
@example(index=sp.BlockIndex(400, -2, 0.5))  # dim 200, c < 0
@example(index=sp.BlockIndex(399, 399, 1.0))  # dim 400, complete
@example(index=sp.BlockIndex(400, 400, 1.0))  # dim 401, complete
def test_pair_columns_reproduce_the_full_matrix_bit_for_bit(index):
    block = sp.build_block(index)
    solution = sp.diagonalize(block)
    reference = _full_matrix_diagonalize(block)
    assert solution.pairs.shape == (solution.dim, (solution.dim + 1) // 2)
    assert solution.pairs.flags.f_contiguous
    assert _bits(solution.eigenvalues) == _bits(reference.eigenvalues)
    p, n0, sigma2 = _full_matrix_moments(reference)
    moments = sp.photon_moments(solution)
    assert _bits(moments[0]) == _bits(n0)
    assert _bits(moments[1]) == _bits(sigma2)
    for k in range(solution.dim):
        stats = sp.photon_statistics(solution, k)
        assert stats.distribution.tobytes() == p[k].tobytes()
        assert _bits([stats.n0, stats.sigma2]) == _bits([n0[k], sigma2[k]])


@pytest.mark.parametrize(
    "r,c",
    [(3, 3), (3.5, 3.5), (20, 8), (30.5, -10.5), (200, 200)],
    ids=["dim7", "dim8", "truncated", "c-negative", "dim401"],
)
def test_cli_spectrum_never_builds_the_full_matrix(tmp_path, monkeypatch, r, c):
    # the outputs of the frozen full-matrix path, then the same bytes from
    # the program's pair columns
    from lasercond import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"spectrum.r = {r}\nspectrum.c = {c}\nspectrum.kappa = 0.8\n")
    names = ("spectrum.csv", "ground_distribution.csv", "spectrum_summary.txt")
    with monkeypatch.context() as patch:
        patch.setattr(sp, "diagonalize", _full_matrix_diagonalize)
        patch.setattr(sp, "photon_moments", lambda s: _full_matrix_moments(s)[1:])
        patch.setattr(sp, "photon_statistics", _full_matrix_statistics)
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "pairs")]) == 0
    for name in names:
        assert (tmp_path / "pairs" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_ground_state_near_gaussian_r_equals_c_60():
    index = sp.BlockIndex(120, 120, 1.0)
    solution = sp.diagonalize(sp.build_block(index))
    stats = sp.photon_statistics(solution, 0)
    assert abs(stats.sigma2 - stats.n0 / math.sqrt(12.0)) < 0.1 * stats.n0 / math.sqrt(12.0)
    assert abs(stats.n0 - 80.0) < 0.05 * 80.0


# ---------------------------------------------------------------------------
# closed-form predictions
# ---------------------------------------------------------------------------

def test_predicted_ground_mean_special_cases():
    full, asym = sp.predicted_ground_mean(sp.BlockIndex(120, 120, 1.0))
    assert asym == pytest.approx(80.0)  # r = c: (4/3) c
    # vanishing spin share: all excitation photonic
    _, asym_small_r = sp.predicted_ground_mean(sp.BlockIndex(1, 9999, 1.0))
    assert asym_small_r == pytest.approx(9999.0 / 2.0, rel=1e-4)


def test_predicted_ground_mean_tracks_diagonalization():
    index = sp.BlockIndex(120, 120, 1.0)
    stats = sp.photon_statistics(sp.diagonalize(sp.build_block(index)), 0)
    _, asym = sp.predicted_ground_mean(index)
    assert abs(stats.n0 - asym) < 0.05 * asym


def test_predicted_ground_variance_special_points():
    c = 60.0
    sigma2 = sp.predicted_ground_variance(sp.BlockIndex(120, 120, 1.0), 4.0 * c / 3.0)
    assert sigma2 == pytest.approx((4.0 * c / 3.0) / math.sqrt(12.0))
    # r >> c limit: sigma^2 -> n0 / sqrt(6) with n0 = r / sqrt(3)
    r = 5000.0
    n0 = r / math.sqrt(3.0)
    sigma2 = sp.predicted_ground_variance(sp.BlockIndex(10000, 2, 1.0), n0)
    assert sigma2 == pytest.approx(n0 / math.sqrt(6.0), rel=1e-3)


def test_predicted_ground_variance_matches_diagonalization():
    index = sp.BlockIndex(80, 400, 1.0)  # c = 5r, inside the c > r regime
    stats = sp.photon_statistics(sp.diagonalize(sp.build_block(index)), 0)
    sigma2 = sp.predicted_ground_variance(index, stats.n0)
    assert abs(sigma2 - stats.sigma2) < 0.05 * stats.sigma2


def test_predicted_ground_variance_domain_errors():
    with pytest.raises(ValueError, match="3\\*n0 > 2\\*c"):
        sp.predicted_ground_variance(sp.BlockIndex(4, 20, 1.0), 1.0)
    with pytest.raises(ValueError, match="radicand"):
        sp.predicted_ground_variance(sp.BlockIndex(4, 20, 1.0), 50.0)


def test_effective_ground_eigenvalue():
    doublet = sp.diagonalize(sp.build_block(sp.BlockIndex(1, 1, 1.0)))
    assert sp.effective_ground_eigenvalue(doublet) == pytest.approx(1.0)
    triplet = sp.diagonalize(sp.build_block(sp.BlockIndex(2, 2, 1.0)))
    assert sp.effective_ground_eigenvalue(triplet) == pytest.approx(SQRT6)
    # q0 is invariant under coupling rescaling
    strong = sp.diagonalize(sp.build_block(sp.BlockIndex(2, 2, 2.0)))
    assert sp.effective_ground_eigenvalue(strong) == pytest.approx(SQRT6, rel=1e-12)


def test_linear_ladder_matches_diagonalization():
    index = sp.BlockIndex(80, 400, 1.0)  # r=40, c=200
    solution = sp.diagonalize(sp.build_block(index))
    slope = np.polyfit(solution.j_labels(), solution.eigenvalues, 1)[0]
    full, _ = sp.predicted_ground_mean(index)
    assert abs(slope - 2.0 * math.sqrt(full)) < 0.03 * 2.0 * math.sqrt(full)


@pytest.mark.parametrize(
    "two_r,two_c",
    [(100, 100), (100, 200), (120, 360), (160, 160), (200, 400), (80, 480)],
)
def test_closed_forms_inside_their_regimes(two_r, two_c):
    # mean within 5% for r, c >= 50 with c >= r; variance within 5% once
    # c >= 2r >= 80; slope within 3% once c >= 5r, r >= 40
    index = sp.BlockIndex(two_r, two_c, 1.0)
    solution = sp.diagonalize(sp.build_block(index))
    stats = sp.photon_statistics(solution, 0)
    full, _ = sp.predicted_ground_mean(index)
    assert abs(full - stats.n0) < 0.05 * stats.n0
    if two_c >= 2 * two_r >= 160:
        sigma2 = sp.predicted_ground_variance(index, stats.n0)
        assert abs(sigma2 - stats.sigma2) < 0.05 * stats.sigma2
    if two_c >= 5 * two_r and two_r >= 80:
        slope = np.polyfit(solution.j_labels(), solution.eigenvalues, 1)[0]
        target = 2.0 * math.sqrt(full)
        assert abs(slope - target) < 0.03 * target


def test_closed_forms_deep_in_regime():
    # r = c >> 1: the asymptotic mean and sigma^2 = n0/sqrt(12) both
    # approach the exact ground state like 1/r (measured 0.092/r and
    # 0.255/r); only the ground level is solved, so dim 10001 stays cheap
    errors = []
    for r in (1000, 5000):
        index = sp.BlockIndex(2 * r, 2 * r, 1.0)
        block = sp.build_block(index)
        values, vectors = scipy.linalg.eigh_tridiagonal(
            block.diagonal, block.offdiagonal, select="i", select_range=(0, 0)
        )
        stats = sp.photon_statistics(sp.EigenSolution(index, block.basis, values, vectors), 0)
        _, asymptotic = sp.predicted_ground_mean(index)
        mean_error = abs(asymptotic - stats.n0) / stats.n0
        variance_error = abs(stats.sigma2 / (stats.n0 / math.sqrt(12.0)) - 1.0)
        assert mean_error < 0.2 / r
        assert variance_error < 0.5 / r
        errors.append((mean_error, variance_error))
    assert errors[1][0] < errors[0][0]
    assert errors[1][1] < errors[0][1]


# ---------------------------------------------------------------------------
# gaussian profile
# ---------------------------------------------------------------------------

def test_gaussian_profile_symmetric_and_normalized():
    basis = sp.BasisRange(0, 10)
    profile = sp.gaussian_profile(5.0, 2.0, basis)
    assert profile.sum() == pytest.approx(1.0)
    assert np.allclose(profile, profile[::-1])


def test_gaussian_profile_rejects_bad_variance():
    with pytest.raises(ValueError):
        sp.gaussian_profile(5.0, 0.0, sp.BasisRange(0, 10))


def test_gaussian_profile_matches_ground_state():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(120, 120, 1.0)))
    stats = sp.photon_statistics(solution, 0)
    profile = sp.gaussian_profile(stats.n0, stats.sigma2, solution.basis)
    deviation = np.max(np.abs(profile - stats.distribution))
    assert deviation < 0.05 * np.max(stats.distribution)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def test_dense_oracle_single_molecule():
    oracle = sp.dense_oracle(sp.BlockIndex(1, 3, 1.0), n_molecules=1, cutoff=8)
    assert np.max(np.abs(oracle - np.array([1.5 - SQRT2, 1.5 + SQRT2]))) < 1e-10


def test_dense_oracle_singlet_sectors_uncoupled():
    sectors = sp.dense_sector_spectra(2, 8, 1.0)
    for (two_r, two_c), values in sectors.items():
        if two_r == 0:
            assert np.max(np.abs(values - two_c / 2.0)) < 1e-12


def test_dense_oracle_matches_blocks_two_molecules():
    sectors = sp.dense_sector_spectra(2, 10, 1.0)
    assert sectors
    for (two_r, two_c), values in sectors.items():
        if two_r == 0:
            continue
        block = sp.diagonalize(sp.build_block(sp.BlockIndex(two_r, two_c, 1.0)))
        assert values.shape == block.eigenvalues.shape
        assert np.max(np.abs(values - block.eigenvalues)) < 1e-9


def test_dense_oracle_multiplicity_three_molecules():
    # the r = 1/2 multiplet occurs twice for N = 3
    sectors = sp.dense_sector_spectra(3, 7, 1.0)
    block = sp.diagonalize(sp.build_block(sp.BlockIndex(1, 3, 1.0)))
    expected = np.sort(np.repeat(block.eigenvalues, 2))
    assert np.max(np.abs(sectors[(1, 3)] - expected)) < 1e-9


def test_dense_oracle_dimension_cap():
    with pytest.raises(ValueError, match="exceeds"):
        sp.dense_sector_spectra(3, 600, 1.0)
    with pytest.raises(ValueError, match="1..3"):
        sp.dense_sector_spectra(4, 4, 1.0)
