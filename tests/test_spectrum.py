"""Block construction, diagonalization and closed-form spectral statistics."""

import math

import numpy as np
import pytest
import scipy.linalg

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
    basis = sp.block_basis(sp.BlockIndex(two_r, two_c))
    assert (basis.n_min, basis.n_max, basis.dim) == (n_min, n_max, dim)


def test_block_basis_rejects_empty_block():
    with pytest.raises(ValueError, match="empty block"):
        sp.BlockIndex(two_r=1, two_c=-9)


def test_block_basis_rejects_parity_mismatch():
    with pytest.raises(ValueError, match="parity"):
        sp.BlockIndex(two_r=2, two_c=1)


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
    assert np.array_equal(solution.amplitudes, [[1.0]])


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
    gram = solution.amplitudes.T @ solution.amplitudes
    assert np.max(np.abs(gram - np.eye(solution.dim))) < 1e-10


def test_eigenvector_sign_convention():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(8, 12, 1.3)))
    for k in range(solution.dim):
        column = solution.amplitudes[:, k]
        lead = np.flatnonzero(np.abs(column) > 1e-12 * np.max(np.abs(column)))[0]
        assert column[lead] > 0.0


def test_kappa_covariance():
    base = sp.diagonalize(sp.build_block(sp.BlockIndex(80, 400, 1.0)))
    scaled = sp.diagonalize(sp.build_block(sp.BlockIndex(80, 400, 2.0)))
    expected = 200.0 + 2.0 * (base.eigenvalues - 200.0)
    assert np.max(np.abs(scaled.eigenvalues - expected)) < 1e-9
    assert np.max(np.abs(scaled.amplitudes - base.amplitudes)) < 1e-10


def test_j_labels_only_for_complete_blocks():
    complete = sp.diagonalize(sp.build_block(sp.BlockIndex(4, 8, 1.0)))
    assert np.array_equal(complete.j_labels(), [-2, -1, 0, 1, 2])
    truncated = sp.diagonalize(sp.build_block(sp.BlockIndex(4, 2, 1.0)))
    assert truncated.j_labels() is None


def test_diagonalize_matches_dense_eigh():
    block = sp.build_block(sp.BlockIndex(41, 121, 0.9))
    solution = sp.diagonalize(block)
    values, vectors = solution.eigenvalues, solution.amplitudes
    dense = (
        np.diag(block.diagonal)
        + np.diag(block.offdiagonal, 1)
        + np.diag(block.offdiagonal, -1)
    )
    dense_values, dense_vectors = np.linalg.eigh(dense)
    dense_vectors *= np.sign(np.sum(dense_vectors * vectors, axis=0))
    assert np.max(np.abs(values - dense_values)) < 1e-12
    assert np.max(np.abs(vectors - dense_vectors)) < 1e-12


def test_fix_signs_matches_loop_reference():
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((30, 40)) * (rng.random((30, 40)) < 0.3)
    vectors[0, :] = -1e-14  # below 1e-12 of the column maximum: not the lead
    vectors[29, :] += 1.0  # no all-zero column
    expected = vectors.copy()
    scale = np.max(np.abs(expected), axis=0)
    for k in range(expected.shape[1]):
        lead = int(np.argmax(np.abs(expected[:, k]) > 1e-12 * scale[k]))
        if expected[lead, k] < 0.0:
            expected[:, k] *= -1.0
    sp._fix_signs(vectors)
    assert vectors.tobytes() == expected.tobytes()


def test_block_eigenvalues_match_full_solve():
    block = sp.build_block(sp.BlockIndex(200, 300, 1.0))
    values = sp.block_eigenvalues(block)
    assert np.max(np.abs(values - sp.diagonalize(block).eigenvalues)) < 1e-10


@pytest.mark.parametrize(
    "lapack_name,solve",
    [("eigh_tridiagonal", sp.diagonalize), ("eigvalsh_tridiagonal", sp.block_eigenvalues)],
)
def test_lapack_failure_raises_convergence_error(monkeypatch, lapack_name, solve):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("stemr did not converge (LAPACK info=3)")

    monkeypatch.setattr(sp, lapack_name, fail)
    block = sp.build_block(sp.BlockIndex(41, 121, 0.9))
    with pytest.raises(sp.ConvergenceError, match=r"r=20\.5, c=60\.5, dim=42\): stemr did"):
        solve(block)


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
        assert abs(stats.m_mean + stats.n0 - solution.index.c) < 1e-12
        assert abs(stats.distribution.sum() - 1.0) < 1e-12


def test_photon_statistics_index_range():
    solution = sp.diagonalize(sp.build_block(sp.BlockIndex(1, 1, 1.0)))
    with pytest.raises(IndexError):
        sp.photon_statistics(solution, 2)


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
    sigma2 = sp.predicted_ground_variance(sp.BlockIndex(120, 120), 4.0 * c / 3.0)
    assert sigma2 == pytest.approx((4.0 * c / 3.0) / math.sqrt(12.0))
    # r >> c limit: sigma^2 -> n0 / sqrt(6) with n0 = r / sqrt(3)
    r = 5000.0
    n0 = r / math.sqrt(3.0)
    sigma2 = sp.ground_variance_formula(r, 1.0, n0)
    assert sigma2 == pytest.approx(n0 / math.sqrt(6.0), rel=1e-3)


def test_predicted_ground_variance_matches_diagonalization():
    index = sp.BlockIndex(80, 400, 1.0)  # c = 5r, inside the c > r regime
    stats = sp.photon_statistics(sp.diagonalize(sp.build_block(index)), 0)
    sigma2 = sp.predicted_ground_variance(index, stats.n0)
    assert abs(sigma2 - stats.sigma2) < 0.05 * stats.sigma2


def test_predicted_ground_variance_domain_errors():
    with pytest.raises(ValueError, match="3\\*n0 > 2\\*c"):
        sp.predicted_ground_variance(sp.BlockIndex(4, 20), 1.0)
    with pytest.raises(ValueError, match="radicand"):
        sp.predicted_ground_variance(sp.BlockIndex(4, 20), 50.0)


def test_effective_ground_eigenvalue():
    doublet = sp.diagonalize(sp.build_block(sp.BlockIndex(1, 1, 1.0)))
    assert sp.effective_ground_eigenvalue(doublet) == pytest.approx(1.0)
    triplet = sp.diagonalize(sp.build_block(sp.BlockIndex(2, 2, 1.0)))
    assert sp.effective_ground_eigenvalue(triplet) == pytest.approx(SQRT6)
    # q0 is invariant under coupling rescaling
    strong = sp.diagonalize(sp.build_block(sp.BlockIndex(2, 2, 2.0)))
    assert sp.effective_ground_eigenvalue(strong) == pytest.approx(SQRT6, rel=1e-12)


def test_predicted_spectrum_linear():
    index = sp.BlockIndex(6, 12, 1.2)
    n0 = 5.0
    ladder = sp.predicted_spectrum_linear(index, n0)
    assert ladder[3] == pytest.approx(index.c)  # j = 0 sits at c
    spacing = np.diff(ladder)
    assert np.allclose(spacing, 2.0 * index.kappa * math.sqrt(n0))


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
