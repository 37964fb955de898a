"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest -s tests/test_acceptance.py

Everything here is property- or oracle-based at desk scale; the full
module runs in well under ten minutes on an ordinary machine.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from lasercond import cli, condensation as cd, spectrum as sp, thermal as th


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {number:02d} {label}: PASS")


# ---------------------------------------------------------------------------
# 1. oracle equivalence of the block solver
# ---------------------------------------------------------------------------

def test_01_oracle_equivalence():
    with criterion(1, "dense-oracle equivalence"):
        for n_molecules in (1, 2):
            for kappa in (0.5, 1.0):
                sectors = sp.dense_sector_spectra(n_molecules, 10, kappa)
                assert sectors
                for (two_r, two_c), values in sectors.items():
                    if two_r == 0:
                        assert np.max(np.abs(values - two_c / 2.0)) < 1e-9
                        continue
                    block = sp.diagonalize(
                        sp.build_block(sp.BlockIndex(two_r, two_c, kappa))
                    )
                    assert values.shape == block.eigenvalues.shape
                    assert np.max(np.abs(values - block.eigenvalues)) < 1e-9


# ---------------------------------------------------------------------------
# 2. spectrum symmetry on random blocks
# ---------------------------------------------------------------------------

def test_02_spectrum_symmetry():
    with criterion(2, "spectrum symmetric about c"):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            two_r = int(rng.integers(1, 101))          # r <= 50
            two_c = int(rng.integers(-two_r, 1001))    # c <= 500
            two_c -= (two_c - two_r) % 2
            index = sp.BlockIndex(two_r, max(two_c, -two_r), float(rng.uniform(0.1, 2.0)))
            lam = sp.diagonalize(sp.build_block(index)).eigenvalues
            deviation = np.max(np.abs(lam + lam[::-1] - 2.0 * index.c))
            assert deviation < 1e-9 * max(1.0, abs(index.c))


# ---------------------------------------------------------------------------
# 3. gaussian ground state at r = c = 60
# ---------------------------------------------------------------------------

def test_03_gaussian_ground_state():
    with criterion(3, "gaussian ground state r=c=60"):
        index = sp.BlockIndex(120, 120, 1.0)
        solution = sp.diagonalize(sp.build_block(index))
        stats = sp.photon_statistics(solution, 0)
        profile = sp.gaussian_profile(stats.n0, stats.sigma2, solution.basis)
        peak = float(np.max(stats.distribution))
        assert np.max(np.abs(profile - stats.distribution)) < 0.05 * peak
        reference = stats.n0 / math.sqrt(12.0)
        assert abs(stats.sigma2 - reference) < 0.10 * reference
        assert abs(stats.n0 - (4.0 / 3.0) * 60.0) < 0.05 * (4.0 / 3.0) * 60.0


# ---------------------------------------------------------------------------
# 4. linear level ladder at r = 40, c = 200
# ---------------------------------------------------------------------------

def test_04_linear_ladder():
    with criterion(4, "linear ladder r=40 c=200"):
        index = sp.BlockIndex(80, 400, 1.0)
        solution = sp.diagonalize(sp.build_block(index))
        j = solution.j_labels()
        lam = solution.eigenvalues
        slope, intercept = np.polyfit(j, lam, 1)
        n0_full, _ = sp.predicted_ground_mean(index)
        target = 2.0 * index.kappa * math.sqrt(n0_full)
        assert abs(slope - target) < 0.03 * target
        fitted = slope * j + intercept
        r_squared = 1.0 - np.sum((lam - fitted) ** 2) / np.sum((lam - lam.mean()) ** 2)
        assert r_squared > 0.999


# ---------------------------------------------------------------------------
# 5. thermal identities
# ---------------------------------------------------------------------------

def test_05_thermal_identities():
    with criterion(5, "thermal identities"):
        for n in range(1, 31):
            total = sum(
                th.degeneracy(n, two_r) * (two_r + 1)
                for two_r in range(n % 2, n + 1, 2)
            )
            assert total == 2**n
        for n in range(1, 15):
            for two_m in range(-n, n + 1, 2):
                mean, _ = th.fixed_m_enumeration(n, two_m)
                assert mean == Fraction(th.r2_mean_given_m(n, two_m))
        for n in (2, 7, 11, 14):
            for beta in (0.0, 0.3, 1.0, 2.2):
                params = th.EnsembleParams(n, beta)
                oracle = th.enumeration_moments(params)
                assert abs(th.thermal_m_mean(params) - oracle.m_mean) < 1e-12 * max(
                    1.0, abs(oracle.m_mean)
                )
                assert abs(th.thermal_m_variance(params) - oracle.m_variance) < 1e-12
        for n in (1, 5, 12, 30):
            assert th.thermal_r2_variance(th.EnsembleParams(n, 0.0)) == n * (n - 1) / 8.0


# ---------------------------------------------------------------------------
# 6. equilibrium recovery at zero net supply
# ---------------------------------------------------------------------------

def test_06_equilibrium_recovery():
    with criterion(6, "equilibrium recovery at s=0"):
        rng = np.random.default_rng(99)
        for _ in range(20):
            two_r = int(rng.integers(1, 13))
            omega = float(rng.uniform(0.5, 2.0))
            # keep the bottom level positive: r * kappa < 1 at c_ref = 1
            kappa = float(rng.uniform(0.001, 1.5 / two_r))
            ladder = cd.ladder_analytic(two_r, omega, kappa, 1.0)
            bath = cd.BathParams(
                beta=float(rng.uniform(0.4, 2.5)),
                phi=float(rng.uniform(0.2, 3.0)),
                chi=float(rng.uniform(0.0, 0.5)),
            )
            q = float(rng.uniform(0.0, 2.0))
            solution = cd.solve_steady_state(ladder, bath, cd.PumpParams(p=q, q=q))
            planck = cd.planck_occupation(ladder.omegas, bath.beta)
            assert np.max(np.abs(solution.occupations - planck)) < 1e-12
            assert solution.amplification == 1.0
            assert solution.mu == 0.0
            assert solution.max_residual < 1e-12


# ---------------------------------------------------------------------------
# shared condensation setup for criteria 7-9
# ---------------------------------------------------------------------------

LADDER = cd.ladder_analytic(10, 1.0, 0.1, 100.0)  # r=5, spacing 0.01
BATH = cd.BathParams(beta=1.0, phi=1.0, chi=0.1)


def _transition_sweep():
    eta_t = cd.eta_thermal(LADDER, BATH)
    bound = cd.noncondensate_bound(0.0, LADDER, BATH)
    estimate = cd.threshold_supply(eta_t, bound.b_sum, BATH)
    s_grid = np.concatenate(
        [[0.0], np.geomspace(100.0 * estimate.s0 / 1e4, 100.0 * estimate.s0, 59)]
    )
    grid = cd.solve_supply_grid(LADDER, BATH, s_grid)
    return estimate, s_grid, [grid.solution(i) for i in range(s_grid.size)]


def test_07_stationarity_along_sweep():
    with criterion(7, "per-level stationarity along sweep"):
        _, s_grid, solutions = _transition_sweep()
        for s, solution in zip(s_grid, solutions):
            assert solution.converged()
            assert solution.max_residual < 1e-8 * max(float(s), BATH.phi)


def test_08_condensation_transition():
    with criterion(8, "condensation transition and threshold knee"):
        estimate, s_grid, solutions = _transition_sweep()
        fractions = np.array([sol.condensate_fraction for sol in solutions])
        mu = np.array([sol.mu for sol in solutions])
        assert fractions[0] < 0.2  # equilibrium sharing across 11 levels
        assert fractions[-1] > 0.9
        assert np.all(np.diff(fractions) >= -1e-12)
        assert np.all(np.diff(mu) >= -1e-12)
        assert np.all(mu < LADDER.bottom)
        knee = cd.detect_condensation_knee(s_grid, fractions)
        assert estimate.s0 / 3.0 < knee < 3.0 * estimate.s0


def test_09_sqrt_s_asymptote():
    with criterion(9, "sqrt(s) growth of the excited-level bound"):
        s_values = np.geomspace(1e3 * BATH.phi, 1e6 * BATH.phi, 13)
        bounds = np.array(
            [cd.noncondensate_bound(float(s), LADDER, BATH).bound for s in s_values]
        )
        slope = np.polyfit(np.log(s_values), np.log(bounds), 1)[0]
        assert abs(slope - 0.5) < 0.05
        for s in s_values[::3]:
            solution = cd.solve_steady_state(
                LADDER, BATH, cd.PumpParams.from_supply(float(s))
            )
            cap = cd.noncondensate_bound(float(s), LADDER, BATH).bound
            assert solution.converged()
            assert solution.n_n <= cap
        _, s_grid, solutions = _transition_sweep()
        for s, solution in zip(s_grid, solutions):
            cap = cd.noncondensate_bound(float(s), LADDER, BATH).bound
            assert solution.n_n <= cap * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# 10. chi = 0 closed form
# ---------------------------------------------------------------------------

def test_10_chi_zero_closed_form():
    with criterion(10, "chi=0 displaced-Planck closed form"):
        bath = cd.BathParams(beta=1.0, phi=1.0, chi=0.0)
        for s in np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 17)]):
            solution = cd.solve_steady_state(
                LADDER, bath, cd.PumpParams.from_supply(float(s))
            )
            expected = (1.0 + float(s) / bath.phi) / np.expm1(LADDER.omegas * bath.beta)
            assert np.max(np.abs(solution.occupations - expected) / expected) < 1e-10
            assert solution.amplification == 1.0


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------

def test_11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI reruns"):
        sweep_cfg = tmp_path / "sweep.cfg"
        sweep_cfg.write_text(
            "ladder.r = 5\nladder.omega = 1.0\nladder.kappa = 0.1\n"
            "ladder.c_ref = 100.0\nbath.beta = 1.0\nbath.phi = 1.0\nbath.chi = 0.1\n"
            "pump.s_min = 0.0\npump.s_max = 2000.0\npump.points = 25\npump.grid = log\n"
        )
        spectrum_cfg = tmp_path / "spectrum.cfg"
        spectrum_cfg.write_text("spectrum.r = 12\nspectrum.c = 30\nspectrum.kappa = 0.7\n")
        payload = {}
        for tag in ("first", "second"):
            sweep_out = tmp_path / f"sweep_{tag}"
            spectrum_out = tmp_path / f"spectrum_{tag}"
            assert cli.main(["sweep", "--config", str(sweep_cfg), "--out", str(sweep_out)]) == 0
            assert (
                cli.main(
                    ["spectrum", "--config", str(spectrum_cfg), "--out", str(spectrum_out)]
                )
                == 0
            )
            payload[tag] = (
                (sweep_out / "sweep.csv").read_bytes(),
                (spectrum_out / "spectrum.csv").read_bytes(),
                (spectrum_out / "ground_distribution.csv").read_bytes(),
            )
        assert payload["first"] == payload["second"]
