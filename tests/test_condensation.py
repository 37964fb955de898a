"""Ladders, bath losses, steady-state solver, bounds and threshold."""

import functools
import math
import random
import re
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasercond import condensation as cd

# the split-ladder workhorse used throughout: r = 5, spacing 0.01 around
# omega = 1, moderately coupled bath
LADDER = cd.ladder_analytic(10, 1.0, 0.1, 100.0)
BATH = cd.BathParams(beta=1.0, phi=1.0, chi=0.1)


def solve(s, ladder=LADDER, bath=BATH):
    return cd.solve_steady_state(ladder, bath, cd.PumpParams.from_supply(s))


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

def test_ladder_analytic_values():
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    assert np.allclose(ladder.omegas, [0.99, 1.0, 1.01])
    spacings = np.diff(LADDER.omegas)
    assert np.allclose(spacings, 0.01)


def test_ladder_analytic_degenerate_at_zero_coupling():
    flat = cd.ladder_analytic(6, 1.0, 0.0, 100.0)
    assert np.all(flat.omegas == 1.0)
    assert flat.is_degenerate


def test_ladder_analytic_rejects_nonpositive_bottom():
    with pytest.raises(ValueError, match="bottom level"):
        cd.ladder_analytic(40, 1.0, 0.5, 25.0)  # r kappa / sqrt(c_ref) = 2


def test_ladder_analytic_rejects_bad_arguments():
    with pytest.raises(ValueError, match="r must be >= 0, got r = -1$"):
        cd.ladder_analytic(-2, 1.0, 0.1, 100.0)
    with pytest.raises(ValueError, match="mode frequency"):
        cd.ladder_analytic(4, 0.0, 0.1, 100.0)
    with pytest.raises(ValueError, match="coupling magnitude"):
        cd.ladder_analytic(4, 1.0, -0.1, 100.0)
    with pytest.raises(ValueError, match="c_ref"):
        cd.ladder_analytic(4, 1.0, 0.1, 0.0)


def test_ladder_validation():
    with pytest.raises(ValueError, match="ascending"):
        cd.LevelLadder(np.array([1.0, 0.9, 1.1]))
    with pytest.raises(ValueError, match="positive"):
        cd.LevelLadder(np.array([-0.1, 0.5, 1.0]))


def test_ladder_from_spectrum_matches_analytic_spacing():
    spectral = cd.ladder_from_spectrum(80, 4000, 0.05, 1.0)
    analytic = cd.ladder_analytic(80, 1.0, 0.05, 2000.0)
    ratio = np.diff(spectral.omegas).mean() / np.diff(analytic.omegas).mean()
    assert abs(ratio - 1.0) < 0.03
    assert np.all(np.diff(spectral.omegas) > 0.0)


def test_ladder_from_spectrum_flat_at_zero_coupling():
    spectral = cd.ladder_from_spectrum(6, 12, 1e-9, 1.0)
    assert np.max(np.abs(spectral.omegas - 1.0)) < 1e-8


def test_ladder_from_spectrum_needs_complete_block():
    with pytest.raises(ValueError, match="complete block"):
        cd.ladder_from_spectrum(10, 6, 0.1, 1.0)


def _mpmath_block_levels(two_r, two_c, kappa):
    """Ascending spectrum of H - c I on one block, from 40-digit mpmath."""
    with mpmath.workdps(40):
        n_min = max(0, two_c - two_r) // 2
        dim = (two_c + two_r) // 2 - n_min + 1
        h = mpmath.zeros(dim, dim)
        for i in range(1, dim):
            n = n_min + i
            two_m = two_c - 2 * n
            t = kappa * mpmath.sqrt(n) * mpmath.sqrt(
                mpmath.mpf(two_r * (two_r + 2) - two_m * (two_m + 2)) / 4
            )
            h[i - 1, i] = h[i, i - 1] = t
        return sorted(mpmath.eigsy(h, eigvals_only=True))


@pytest.mark.parametrize("two_r,two_c", [(10, 2 * 10**6), (20, 2 * 10**8)])
def test_ladder_from_spectrum_matches_mpmath_to_the_level_spacing(two_r, two_c):
    # the SVD's error on the shifted levels is a few eps * ||H - c I||, with
    # ||H - c I|| ~ 2 r sqrt(c) and a spacing ~ 1/sqrt(c) (kappa = 1): the
    # bound below is 10x that scale.  Differencing the unshifted spectra,
    # whose scale is c, misses it (1.0e-7 and 8.5e-5 of the spacing here).
    with mpmath.workdps(40):
        lower = _mpmath_block_levels(two_r, two_c, 1)
        upper = _mpmath_block_levels(two_r, two_c + 2, 1)
        exact = sorted(1 + u - l for u, l in zip(upper, lower))
        spacing = float(exact[1] - exact[0])
        ladder = cd.ladder_from_spectrum(two_r, two_c, 1.0, 1.0)
        error = max(abs(float(mpmath.mpf(w) - e)) for w, e in zip(ladder.omegas, exact))
    assert error / spacing < 20 * np.finfo(float).eps * (two_c / 2) * (two_r / 2)


# ---------------------------------------------------------------------------
# bath exchange rates
# ---------------------------------------------------------------------------

def test_planck_values():
    assert cd.planck_occupation(1.0, math.log(2.0)) == pytest.approx(1.0)
    assert cd.planck_occupation(1.0, 50.0) == pytest.approx(0.0, abs=1e-21)
    series = 1.0 / 0.01 - 0.5 + 0.01 / 12.0  # small-argument expansion
    assert cd.planck_occupation(1.0, 0.01) == pytest.approx(series, abs=1e-4)
    with pytest.raises(ValueError):
        cd.planck_occupation(-1.0, 1.0)


def test_first_order_loss_zero_at_planck():
    bath = cd.BathParams(beta=0.7, phi=1.3, chi=0.0)
    n = cd.planck_occupation(1.3, 0.7)
    assert abs(cd.first_order_loss(n, 1.3, bath)) < 1e-14


def test_first_order_loss_empty_level_gains():
    assert cd.first_order_loss(0.0, 1.0, cd.BathParams(1.0, 1.0, 0.0)) == pytest.approx(-1.0)


def test_first_order_loss_linear_in_occupation():
    bath = cd.BathParams(beta=1.0, phi=2.0, chi=0.0)
    slope = cd.first_order_loss(3.0, 1.5, bath) - cd.first_order_loss(2.0, 1.5, bath)
    assert slope == pytest.approx(bath.phi * (math.exp(1.5) - 1.0))
    assert slope > 0.0


def test_second_order_loss_detailed_balance():
    bath = cd.BathParams(beta=1.3, phi=1.0, chi=0.7)
    ladder = cd.ladder_analytic(6, 1.0, 0.05, 50.0)
    planck = cd.planck_occupation(ladder.omegas, bath.beta)
    assert np.max(np.abs(cd.second_order_loss(planck, ladder, bath))) < 1e-12


def test_second_order_loss_degenerate_example():
    flat = cd.LevelLadder(np.array([1.0, 1.0]))
    rates = cd.second_order_loss(np.array([2.0, 0.0]), flat, cd.BathParams(1.0, 1.0, 1.0))
    assert np.allclose(rates, [2.0, -2.0])


def test_second_order_loss_vanishes_without_chi():
    ladder = cd.ladder_analytic(4, 1.0, 0.1, 100.0)
    rates = cd.second_order_loss(np.array([3.0, 0.1, 2.0, 0.0, 1.0]), ladder, cd.BathParams(1.0, 1.0, 0.0))
    assert np.all(rates == 0.0)


@pytest.mark.parametrize("n", [1e154, 1e200, 1e300])
def test_second_order_loss_is_exactly_zero_without_chi_at_huge_occupations(n):
    # n_l e^(omega_l beta) sum_j (1+n_j) e^(-omega_j beta) overflows past about
    # 1e154; chi = 0 times it would read 0 * inf = NaN (or warn)
    ladder = cd.ladder_analytic(6, 1.0, 0.1, 100.0)
    bath = cd.BathParams(1.0, 1e-3, 0.0)
    for occupations in (np.full(7, n), np.full((3, 7), n)):
        rates = cd.second_order_loss(occupations, ladder, bath)
        assert rates.shape == occupations.shape and np.all(rates == 0.0)


# ---------------------------------------------------------------------------
# amplification, transfer
# ---------------------------------------------------------------------------

def test_amplification_factor_identities():
    planck = cd.planck_occupation(LADDER.omegas, BATH.beta)
    assert cd.amplification_factor(planck, LADDER, BATH) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(5)
    occupations = rng.uniform(0.0, 3.0, LADDER.n_levels)
    chi_free = cd.BathParams(beta=BATH.beta, phi=BATH.phi, chi=0.0)
    assert cd.amplification_factor(occupations, LADDER, chi_free) == 1.0
    # quotient form equals 1 - chi S_balance / (phi (phi + chi eta))
    solution = solve(0.5)
    identity = 1.0 - BATH.chi * solution.s_balance / (
        BATH.phi * (BATH.phi + BATH.chi * solution.eta)
    )
    quotient = cd.amplification_factor(solution.occupations, LADDER, BATH)
    assert abs(identity - quotient) < 1e-12
    assert abs(solution.amplification - quotient) < 1e-12


def test_excitation_transfer_forms():
    assert cd.excitation_transfer_supply(0.0, LADDER, BATH) == 0.0
    planck = cd.planck_occupation(LADDER.omegas, BATH.beta)
    assert abs(cd.excitation_transfer_balance(planck, LADDER, BATH)) < 1e-12
    flat = cd.LevelLadder(np.full(7, 2.0))
    expected = 0.5 * 7 * math.exp(-2.0 * BATH.beta)
    assert cd.excitation_transfer_supply(0.5, flat, BATH) == pytest.approx(expected)
    solution = solve(0.5)
    assert abs(solution.s_supply - solution.s_balance) < 1e-8 * solution.s_supply


@pytest.mark.parametrize("chi", [0.0, 1e-3])
def test_overflowing_transfer_is_refused_by_name(chi):
    # S = s sum_j e^(-omega_j beta) overflows at s = 1.7e308: the point is
    # refused by name and numpy warns of nothing (pytest makes a warning an
    # error), at chi = 0, where the point is closed-form, as at chi > 0
    bath = cd.BathParams(beta=1.0, phi=1e-3, chi=chi)
    grid = cd.solve_supply_grid(cd.ladder_analytic(6, 1.0, 0.1, 100.0), bath, [1.7e308])
    (error,) = grid.errors
    assert isinstance(error, cd.ConvergenceError)
    assert "transfer S" in str(error) and "overflows at s = 1.7e+308" in str(error)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    two_r=st.integers(0, 78),
    beta=st.floats(0.1, 2000.0),
    phi=st.floats(1e-3, 1e3),
    s=st.floats(0.0, 1.7e308),
)
@example(two_r=6, beta=1.0, phi=1e-3, s=8.6749973905573388e304)
def test_chi_zero_point_is_refused_by_name_or_finite(two_r, beta, phi, s):
    # at chi = 0 the closed form (1 + s/phi) / (e^(omega beta) - 1) overflows
    # before S does at a small phi; such a point is refused by name, and
    # numpy warns of nothing (pytest makes a warning an error)
    bath = cd.BathParams(beta=beta, phi=phi, chi=0.0)
    grid = cd.solve_supply_grid(cd.ladder_analytic(two_r, 1.0, 0.1, 100.0), bath, [s])
    (error,) = grid.errors
    if error is None:
        assert np.isfinite(grid.eta[0]) and np.all(np.isfinite(grid.occupations))
    else:
        assert isinstance(error, cd.ConvergenceError)
        assert "beyond the double range" in str(error) or "underflows to 0" in str(error)


# ---------------------------------------------------------------------------
# steady-state solver
# ---------------------------------------------------------------------------

def test_equilibrium_fixed_point():
    solution = solve(0.0)
    planck = cd.planck_occupation(LADDER.omegas, BATH.beta)
    assert np.max(np.abs(solution.occupations - planck)) < 1e-12
    assert solution.amplification == 1.0
    assert solution.mu == 0.0
    assert solution.max_residual < 1e-12
    assert solution.converged()


def test_pump_and_loss_enter_through_net_supply():
    via_supply = solve(2.0)
    via_rates = cd.solve_steady_state(LADDER, BATH, cd.PumpParams(p=5.0, q=3.0))
    assert np.allclose(via_supply.occupations, via_rates.occupations, rtol=1e-12)


def test_chi_zero_closed_form():
    bath = cd.BathParams(beta=1.0, phi=2.0, chi=0.0)
    for s in (0.3, 4.0, 250.0):
        solution = solve(s, bath=bath)
        expected = (1.0 + s / bath.phi) / np.expm1(LADDER.omegas * bath.beta)
        assert np.max(np.abs(solution.occupations - expected) / expected) < 1e-10
        assert solution.amplification == 1.0
        assert solution.converged()


@pytest.mark.parametrize("s", [1e160, 1e200, 1e300])
def test_chi_zero_closed_form_converges_at_huge_supplies(s):
    # the closed form is exact at chi = 0, so its residual gate passes even
    # where the occupations (up to 4e303) square past the double range
    bath = cd.BathParams(beta=1.0, phi=1e-3, chi=0.0)
    grid = cd.solve_supply_grid(cd.ladder_analytic(6, 1.0, 0.1, 100.0), bath, [s])
    assert grid.errors == (None,)
    assert np.isfinite(grid.max_residual[0]) and grid.converged()[0]


def test_solver_occupations_follow_displaced_planck_form():
    # every level shares one A: <n_l> = (1 + s/(phi + chi eta)) / (A e^(omega_l beta) - 1)
    eta_t = cd.eta_thermal(LADDER, BATH)
    s0 = cd.threshold_supply(eta_t, cd.noncondensate_bound(0.0, LADDER, BATH).b_sum, BATH).s0
    for s in (0.1 * s0, s0, 10.0 * s0):
        solution = solve(s)
        k = 1.0 + s / (BATH.phi + BATH.chi * solution.eta)
        form = k / (solution.amplification * np.exp(LADDER.omegas * BATH.beta) - 1.0)
        assert np.max(np.abs(form - solution.occupations) / solution.occupations) < 1e-10


def test_solver_mu_rises_toward_bottom_level():
    eta_t = cd.eta_thermal(LADDER, BATH)
    s0 = cd.threshold_supply(eta_t, cd.noncondensate_bound(0.0, LADDER, BATH).b_sum, BATH).s0
    mus = []
    for mult in (0.01, 0.1, 1.0, 10.0, 1e3):
        solution = solve(mult * s0)
        assert solution.mu == pytest.approx(
            -math.log(solution.amplification) / BATH.beta, rel=1e-12
        )
        mus.append(solution.mu)
    assert all(a < b for a, b in zip(mus, mus[1:]))
    assert 0.0 < mus[0] and mus[-1] < LADDER.bottom


def test_solver_monotone_in_supply():
    solutions = [solve(s) for s in (0.1, 1.0, 10.0)]
    etas = [sol.eta for sol in solutions]
    fractions = [sol.condensate_fraction for sol in solutions]
    assert etas[0] < etas[1] < etas[2]
    assert fractions[0] < fractions[1] < fractions[2]


def test_solver_rejects_negative_supply():
    with pytest.raises(ValueError, match=">= 0"):
        cd.PumpParams(p=-1.0, q=0.0)
    with pytest.raises(ValueError, match="s = p - Q"):
        cd.solve_steady_state(LADDER, BATH, cd.PumpParams(p=1.0, q=1.5))


def test_solver_rejects_degenerate_ladder_with_chi():
    flat = cd.ladder_analytic(4, 1.0, 0.0, 100.0)
    with pytest.raises(ValueError, match="degenerate"):
        cd.solve_steady_state(flat, BATH, cd.PumpParams.from_supply(1.0))


@pytest.mark.parametrize("beta", [36.5, 50.0, 100.0, 400.0, 1000.0])
def test_solver_names_unresolvable_pole(beta):
    # chi S / phi^2 < eps here (S underflows to 0 past omega_-r beta ~ 745):
    # phi + chi eta cancels to 0, which used to raise ZeroDivisionError
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    bath = cd.BathParams(beta=beta, phi=1.0, chi=0.1)
    with pytest.raises(cd.ConvergenceError, match="below machine epsilon"):
        cd.solve_steady_state(ladder, bath, cd.PumpParams.from_supply(1.0))


@pytest.mark.parametrize("beta", [720.0, 1000.0, 2000.0])
def test_solver_names_underflowing_occupations(beta):
    # omega_-r beta > ln(DBL_MAX) ~ 709.78: the closed form's e^(omega beta)
    # overflows, every occupation is 0 and so was eta (ZeroDivisionError)
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    for chi, s in ((0.1, 0.0), (0.0, 1.0)):
        bath = cd.BathParams(beta=beta, phi=1.0, chi=chi)
        with pytest.raises(cd.ConvergenceError, match="every occupation underflows"):
            cd.solve_steady_state(ladder, bath, cd.PumpParams.from_supply(s))


def test_solve_supply_grid_keeps_failures_in_place():
    # beta = 100: s = 0 has a closed form, s > 0 hits the unresolvable pole
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    bath = cd.BathParams(beta=100.0, phi=1.0, chi=0.1)
    grid = cd.solve_supply_grid(ladder, bath, [0.0, 1.0, 10.0])
    assert len(grid.errors) == 3
    assert isinstance(grid.solution(0), cd.SteadyStateGrid)
    at_zero = cd.solve_steady_state(ladder, bath, cd.PumpParams.from_supply(0.0))
    assert grid.solution(0).occupations.tobytes() == at_zero.occupations.tobytes()
    for failure in grid.errors[1:]:
        assert isinstance(failure, cd.ConvergenceError)
        assert "below machine epsilon" in str(failure)


def test_grid_refusals_match_the_one_point_refusals():
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    flat = cd.ladder_analytic(2, 1.0, 0.0, 100.0)
    cases = [
        # beta past 709.78: s = 0 underflows, s > 0 meets the pole
        (ladder, cd.BathParams(beta=800.0, phi=1.0, chi=0.1), [0.0, 2.5, -1.0]),
        # chi S / phi^2 < eps at s = 1e-3; s = 0, 1 and 10 solve
        (ladder, cd.BathParams(beta=25.0, phi=1.0, chi=1e-3), [1e-3, 1.0, 0.0, -0.5, 10.0]),
        # degenerate ladder with chi > 0: s > 0 refused, s = 0 closed form
        (flat, cd.BathParams(beta=1.0, phi=1.0, chi=0.1), [0.0, 1.0, -2.0, 3.0]),
    ]
    refusals = ("must be >= 0", "degenerate", "underflows", "below machine epsilon")
    seen = set()
    for ladder_i, bath, supplies in cases:
        grid = cd.solve_supply_grid(ladder_i, bath, supplies)
        for s, error in zip(supplies, grid.errors):
            pump = cd.PumpParams(p=max(s, 0.0), q=max(-s, 0.0))
            try:
                cd.solve_steady_state(ladder_i, bath, pump)
            except (ValueError, cd.ConvergenceError) as exc:
                assert type(error) is type(exc) and str(error) == str(exc)
                seen.update(name for name in refusals if name in str(exc))
            else:
                assert error is None
    assert seen == set(refusals)


# ---------------------------------------------------------------------------
# batched root find: one kernel for a grid and for one point
# ---------------------------------------------------------------------------

def _log_floats(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _domain_ladder(two_r, omega, c_ref, share):
    """A ladder of the sweep_analytic domain: bottom level kept positive."""
    kappa = share * min(1.0, 0.8 * math.sqrt(c_ref) / max(two_r / 2.0, 0.5))
    return cd.ladder_analytic(two_r, omega, kappa, c_ref)


SOLUTION_FIELDS = (
    "amplification", "mu", "eta", "s_supply", "s_balance", "max_residual", "eta_closure"
)


# the sweep_analytic domain (2r <= 78, beta 0.1-10, chi 0.01-1) on grids that
# reach from s = 0 and the chi S / phi^2 < eps refusal up to s = 1e4
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    two_r=st.integers(0, 78),
    omega=st.floats(0.5, 2.0),
    c_ref=_log_floats(1e2, 1e4),
    share=_log_floats(1e-3, 1.0),
    beta=_log_floats(0.1, 10.0),
    chi=_log_floats(0.01, 1.0),
    s_min=_log_floats(1e-14, 1e2),
    decades=st.floats(1.0, 8.0),
    points=st.integers(2, 12),
    from_zero=st.booleans(),
)
def test_solve_supply_grid_is_the_one_point_solve_at_every_grid_point(
    two_r, omega, c_ref, share, beta, chi, s_min, decades, points, from_zero
):
    ladder = _domain_ladder(two_r, omega, c_ref, share)
    bath = cd.BathParams(beta=beta, phi=1.0, chi=chi)
    grid = np.geomspace(s_min, s_min * 10.0**decades, points)
    if from_zero:
        grid = np.concatenate([[0.0], grid])
    solved = cd.solve_supply_grid(ladder, bath, grid)
    assert len(solved.errors) == grid.size
    for i, s in enumerate(grid):
        pump = cd.PumpParams.from_supply(float(s))
        if solved.errors[i] is not None:
            with pytest.raises(type(solved.errors[i])) as raised:
                cd.solve_steady_state(ladder, bath, pump)
            assert str(raised.value) == str(solved.errors[i])
            continue
        solution = solved.solution(i)
        alone = cd.solve_steady_state(ladder, bath, pump)
        assert alone.occupations.tobytes() == solution.occupations.tobytes()
        for name in SOLUTION_FIELDS:
            assert getattr(alone, name) == getattr(solution, name), name
        assert alone.converged() == solution.converged()
    # the gap (omega_-r - mu) beta falls as the supply rises
    gaps = solved.gap[np.isfinite(solved.gap)]
    assert np.all(np.diff(gaps) <= 0.0)


def test_solve_supply_grid_columns_match_the_solutions():
    grid = cd.solve_supply_grid(LADDER, BATH, [0.0, 0.5, 500.0], scale=[1.0, 2.0, 600.0])
    for i, p in enumerate((1.0, 2.0, 600.0)):
        solution = grid.solution(i)
        assert solution.n_c == grid.n_c[i] and solution.n_n == grid.n_n[i]
        assert solution.condensate_fraction == grid.condensate_fraction[i]
        assert solution.converged() == grid.converged()[i]
        # a row holds entry i of every per-point column, bit for bit; its
        # scale is the p its gate runs at
        for name in cd._COLUMNS:
            expected = np.asarray(getattr(grid, name)[i]).tobytes()
            assert np.asarray(getattr(solution, name)).tobytes() == expected, name
        assert solution.scale == p and solution.errors is None
    assert grid.converged().tolist() == [True, True, True]
    refused = cd.solve_supply_grid(LADDER, BATH, [0.5, -1.0])
    with pytest.raises(ValueError, match="must be >= 0") as raised:
        refused.solution(1)
    assert raised.value is refused.errors[1]


def test_blocks_of_a_long_grid_match_one_pass():
    # beta = 100 refuses every s > 0 (see test_solve_supply_grid_keeps_failures_in_place)
    hot = cd.BathParams(beta=100.0, phi=1.0, chi=0.1)
    for bath, ladder in ((BATH, LADDER), (hot, cd.ladder_analytic(2, 1.0, 0.1, 100.0))):
        supplies = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 40)])
        whole = cd.solve_supply_grid(ladder, bath, supplies)
        with mock.patch.object(cd, "_BLOCK", 3 * ladder.n_levels):
            blocked = cd.solve_supply_grid(ladder, bath, supplies)
        for name in ("occupations", "gap", "eta", "mu", "max_residual", "eta_closure"):
            assert np.array_equal(getattr(whole, name), getattr(blocked, name), equal_nan=True)
        assert [str(e) for e in whole.errors] == [str(e) for e in blocked.errors]


def test_blocks_of_one_point_match_one_pass():
    # _BLOCK = levels puts every point in a block of its own, so each takes
    # numpy scalar Newton steps from its first step; one pass steps arrays
    rng = random.Random(16)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    # s = 1e19 at r = 1 lowers the bracket's low end (SHRINK_POINTS)
    cases = [(cd.ladder_analytic(2, 1.0, 0.1, 100.0), BATH, [1e19, 1.0, 0.0, -3.0])]
    while len(cases) < 40:
        ladder = _domain_ladder(
            rng.randint(0, 78), rng.uniform(0.5, 2.0), log_uniform(1e2, 1e4),
            log_uniform(1e-3, 1.0),
        )
        bath = cd.BathParams(
            beta=log_uniform(0.1, 10.0), phi=log_uniform(0.1, 10.0), chi=log_uniform(0.01, 1.0)
        )
        # s = 1e-300 is refused by the chi S / phi^2 < eps rule
        supplies = [0.0, -rng.uniform(0.1, 10.0), 1e-300]
        supplies += sorted(log_uniform(1e-14, 1e4) for _ in range(5))
        cases.append((ladder, bath, supplies))
    for ladder, bath, supplies in cases:
        whole = cd.solve_supply_grid(ladder, bath, supplies)
        with mock.patch.object(cd, "_BLOCK", ladder.n_levels):
            single = cd.solve_supply_grid(ladder, bath, supplies)
        for name in cd._COLUMNS:
            assert getattr(whole, name).tobytes() == getattr(single, name).tobytes(), name
        assert [(type(e), str(e)) for e in whole.errors] == [
            (type(e), str(e)) for e in single.errors
        ]


def test_root_find_names_a_nan_closure():
    real = cd._gap_state

    def nan_state(g, *args):
        eta, occupations = real(g, *args)
        return eta, occupations * math.nan

    with mock.patch.object(cd, "_gap_state", nan_state):
        with pytest.raises(cd.ConvergenceError, match=r"NaN at the ends of the gap bracket \["):
            solve(0.5)


def test_root_find_names_exhausted_iterations():
    with mock.patch.object(cd, "_MAX_ITERATIONS", 2):
        grid = cd.solve_supply_grid(LADDER, BATH, [0.5, 5.0])
        with pytest.raises(cd.ConvergenceError, match=r"in 2 iterations: gap bracket \["):
            solve(0.5)
    for error in grid.errors:
        assert isinstance(error, cd.ConvergenceError)
        assert re.search(r"in 2 iterations: gap bracket \[", str(error))
    assert np.all(np.isnan(grid.occupations))
    # s = 1e-3 converges in its 4th step and s = 5 in its 6th: allowed 5,
    # s = 5 takes its 5th step alone, still as a 1-element array (only a
    # grid that enters the loop with one point steps on numpy scalars), and
    # runs out there
    lone = []
    step = cd._newton_step

    def spy(*args):
        lone.append(args[-1] is cd._pick)
        return step(*args)

    with mock.patch.object(cd, "_MAX_ITERATIONS", 5), mock.patch.object(cd, "_newton_step", spy):
        straggler = cd.solve_supply_grid(LADDER, BATH, [1e-3, 5.0])
    assert lone == [False] * 5
    assert straggler.errors[0] is None and np.all(np.isfinite(straggler.occupations[0]))
    named = re.fullmatch(
        r"Newton iteration did not converge in 5 iterations: gap bracket \[(.+), (.+)\]",
        str(straggler.errors[1]),
    )
    assert named and float(named[1]) < solve(5.0).gap < float(named[2])


def _domain_points(count, seed):
    """Seeded (ladder, bath, s) draws of the sweep_analytic domain past the refusal."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points = []
    while len(points) < count:
        two_r, omega = rng.randint(2, 78), rng.uniform(0.5, 2.0)
        c_ref, share = log_uniform(1e2, 1e4), log_uniform(1e-3, 1.0)
        beta, chi, s = log_uniform(0.1, 10.0), log_uniform(0.01, 1.0), log_uniform(1e-2, 1e4)
        ladder = _domain_ladder(two_r, omega, c_ref, share)
        bath = cd.BathParams(beta=beta, phi=1.0, chi=chi)
        if chi * cd.excitation_transfer_supply(s, ladder, bath) >= np.finfo(float).eps:
            points.append((ladder, bath, s))
    return points


def _closure_root(ladder, bath, s, near):
    """50-digit bisection root of the solver's closure, from its float inputs."""
    with mpmath.workdps(50):
        gap_top = mpmath.mpf(float(ladder.omegas[0] * bath.beta))
        level_gaps = [
            mpmath.mpf(float(v)) for v in (ladder.omegas - ladder.omegas[0]) * bath.beta
        ]
        transfer = mpmath.mpf(cd.excitation_transfer_supply(s, ladder, bath))
        phi, chi, s = mpmath.mpf(bath.phi), mpmath.mpf(bath.chi), mpmath.mpf(s)

        def closure(g):
            eta = (chi * transfer / (phi * -mpmath.expm1(g - gap_top)) - phi) / chi
            k = 1 + s / (phi + chi * eta)
            return mpmath.fsum(k / mpmath.expm1(gap + g) for gap in level_gaps) - eta

        near = mpmath.mpf(near)
        lo, hi = near * (1 - mpmath.mpf("1e-12")), near * (1 + mpmath.mpf("1e-12"))
        assert closure(lo) > 0 > closure(hi)
        while hi - lo > near * mpmath.mpf("1e-25"):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if closure(mid) > 0 else (lo, mid)
        return (lo + hi) / 2


ORACLE_POINTS = _domain_points(40, seed=12)
# relative distance of the scipy-identical Brent root, which the kernel
# replaced, from the 50-digit root at ORACLE_POINTS
BRENT_DISTANCE_MEDIAN = 5.861874242896193e-17
BRENT_DISTANCE_MAX = 8.773801407357959e-16


@functools.cache
def _kernel_distance(index):
    ladder, bath, s = ORACLE_POINTS[index]
    gap = float(cd.solve_supply_grid(ladder, bath, [s]).gap[0])
    root = _closure_root(ladder, bath, s, gap)
    return float(abs(gap - root) / root)


@pytest.mark.parametrize("index", range(len(ORACLE_POINTS)))
def test_kernel_gap_is_within_brent_tolerance_of_the_closure_root(index):
    # Brent stopped on a bracket narrower than 8.9e-16 g
    assert _kernel_distance(index) <= 8.9e-16


def test_kernel_gap_is_no_farther_from_the_closure_root_than_brent():
    distances = [_kernel_distance(index) for index in range(len(ORACLE_POINTS))]
    assert np.median(distances) <= BRENT_DISTANCE_MEDIAN
    assert max(distances) <= BRENT_DISTANCE_MAX


# (2r, beta, chi, s) whose closure root lies below _GAP_BRACKET[0] of the gap
# range, so _find_gaps lowers the bracket's low end until the closure changes sign
SHRINK_POINTS = [(2, 1.0, 0.1, 1e19), (4, 2.0, 0.05, 1e20), (6, 0.5, 0.3, 1e22)]


@pytest.mark.parametrize(("two_r", "beta", "chi", "s"), SHRINK_POINTS)
def test_bracket_search_below_the_low_end_finds_the_closure_root(two_r, beta, chi, s):
    ladder = cd.ladder_analytic(two_r, 1.0, 0.1, 100.0)
    bath = cd.BathParams(beta=beta, phi=1.0, chi=chi)
    grid = cd.solve_supply_grid(ladder, bath, [s])
    gap = float(grid.gap[0])
    assert gap < cd._GAP_BRACKET[0] * ladder.omegas[0] * beta
    root = _closure_root(ladder, bath, s, gap)
    assert float(abs(gap - root) / root) <= 8.9e-16
    assert grid.eta_closure[0] < 1e-10 * grid.eta[0]
    # convergence is not asserted: the float residual cancels at such supplies


@pytest.mark.parametrize("s", [1e300, 1e308])
def test_bracket_search_names_a_supply_it_cannot_bracket(s):
    # chi S / (phi x) overflows: eta = inf and the closure is -inf at every gap
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    with pytest.raises(cd.ConvergenceError, match="no admissible bracket below the pole"):
        solve(s, ladder=ladder)


@pytest.mark.parametrize("chi", [0.1, 0.0], ids=["chi", "no-chi"])
def test_max_residual_is_the_per_level_stationarity_residual(chi):
    bath = cd.BathParams(beta=BATH.beta, phi=BATH.phi, chi=chi)
    for s in (0.0, 0.5, 500.0):
        solution = solve(s, bath=bath)
        n = solution.occupations
        residuals = (
            s
            - cd.first_order_loss(n, LADDER.omegas, bath)
            - cd.second_order_loss(n, LADDER, bath)
        )
        assert solution.max_residual == float(np.abs(residuals).max())
    assert cd.ladder_analytic(0, 1.0, 0.1, 100.0).is_degenerate is False


def test_solution_bounds_and_stationarity():
    for s in (0.2, 5.0, 500.0):
        solution = solve(s)
        assert 0.0 < solution.amplification <= 1.0
        assert 0.0 <= solution.mu < LADDER.bottom
        assert solution.max_residual < 1e-8 * max(s, BATH.phi)
        assert solution.eta_closure < 1e-10 * solution.eta
        assert np.all(solution.occupations >= 0.0)


def test_condensate_split():
    solution = solve(0.0)
    n_c, n_n = solution.n_c, solution.n_n
    assert n_c == pytest.approx(cd.planck_occupation(LADDER.bottom, BATH.beta), rel=1e-12)
    assert abs(n_c + n_n - solution.eta) < 1e-12 * solution.eta
    far = solve(50000.0)
    assert far.condensate_fraction > 0.9


# ---------------------------------------------------------------------------
# bound, effective frequency, predictions, threshold
# ---------------------------------------------------------------------------

def test_noncondensate_bound_zero_supply():
    bound = cd.noncondensate_bound(0.0, LADDER, BATH)
    assert bound.bound == pytest.approx(bound.b_sum, rel=1e-12)


def test_noncondensate_bound_sqrt_asymptote():
    at = cd.noncondensate_bound(1e6 * BATH.phi, LADDER, BATH)
    assert abs(at.bound / at.asymptote - 1.0) < 0.02


def test_noncondensate_bound_caps_solver():
    for s in (0.5, 20.0, 1e3, 1e5):
        solution = solve(s)
        bound = cd.noncondensate_bound(s, LADDER, BATH)
        assert solution.n_n <= bound.bound * (1.0 + 1e-12)


def test_noncondensate_bound_without_chi_caps_the_closed_form():
    # at chi = 0 the bound is B (1 + s/phi), with no sqrt asymptote
    bath = cd.BathParams(beta=BATH.beta, phi=BATH.phi, chi=0.0)
    supplies = [0.0, *np.geomspace(1e-3, 1e5, 17)]
    grid = cd.solve_supply_grid(LADDER, bath, supplies)
    for s, n_n in zip(supplies, grid.n_n):
        bound = cd.noncondensate_bound(s, LADDER, bath)
        assert bound.bound == bound.b_sum * (1.0 + s / bath.phi)
        assert bound.asymptote == math.inf
        assert n_n < bound.bound


def test_noncondensate_bound_rejects_bad_arguments():
    with pytest.raises(ValueError, match="supply must be >= 0"):
        cd.noncondensate_bound(-1.0, LADDER, BATH)
    with pytest.raises(ValueError, match="at least one excited level"):
        cd.noncondensate_bound(1.0, cd.LevelLadder(np.array([1.0])), BATH)


def test_noncondensate_bound_rejects_degenerate():
    flat = cd.LevelLadder(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="degenerate"):
        cd.noncondensate_bound(1.0, flat, BATH)


def test_fitted_frequency_inside_ladder():
    solution = solve(5.0)
    omega_bar = cd.fit_mean_frequency(
        5.0, solution.eta, cd.eta_thermal(LADDER, BATH), LADDER, BATH
    )
    assert LADDER.omegas[0] <= omega_bar <= LADDER.omegas[-1]


def test_fit_mean_frequency_rejects_points_without_excess():
    eta_t = cd.eta_thermal(LADDER, BATH)
    with pytest.raises(ValueError, match="reference supply"):
        cd.fit_mean_frequency(0.0, eta_t + 1.0, eta_t, LADDER, BATH)
    with pytest.raises(ValueError, match="no occupation above equilibrium"):
        cd.fit_mean_frequency(1.0, eta_t, eta_t, LADDER, BATH)


def test_total_occupancy_prediction():
    eta_t = cd.eta_thermal(LADDER, BATH)
    assert cd.total_occupancy_prediction(0.0, LADDER, BATH, 1.0) == pytest.approx(eta_t)
    # flat ladder at zero chi: prediction with omega_bar = omega is exact
    flat = cd.LevelLadder(np.full(9, 1.3))
    bath = cd.BathParams(beta=0.8, phi=1.7, chi=0.0)
    for s in (0.5, 3.0):
        solution = cd.solve_steady_state(flat, bath, cd.PumpParams.from_supply(s))
        predicted = cd.total_occupancy_prediction(s, flat, bath, 1.3)
        assert predicted == pytest.approx(solution.eta, rel=1e-12)


def test_total_occupancy_prediction_below_threshold():
    eta_t = cd.eta_thermal(LADDER, BATH)
    s0 = cd.threshold_supply(eta_t, cd.noncondensate_bound(0.0, LADDER, BATH).b_sum, BATH).s0
    reference = solve(s0 / 20.0)
    omega_bar = cd.fit_mean_frequency(
        reference.s, reference.eta, eta_t, LADDER, BATH
    )
    for s in np.linspace(s0 / 50.0, s0 / 2.0, 7):
        solution = solve(float(s))
        predicted = cd.total_occupancy_prediction(float(s), LADDER, BATH, omega_bar)
        assert abs(predicted - solution.eta) / solution.eta < 0.05


def test_condensate_prediction():
    eta_t = cd.eta_thermal(LADDER, BATH)
    planck_bottom = cd.planck_occupation(LADDER.bottom, BATH.beta)
    at_zero = cd.condensate_prediction(0.0, eta_t, eta_t - planck_bottom, BATH, LADDER, 1.0)
    assert at_zero == pytest.approx(planck_bottom, rel=1e-12)
    # far above threshold, with omega_bar fitted at a separate reference point
    s0 = cd.threshold_supply(eta_t, cd.noncondensate_bound(0.0, LADDER, BATH).b_sum, BATH).s0
    reference = solve(10.0 * s0)
    omega_bar = cd.fit_mean_frequency(
        reference.s, reference.eta, eta_t, LADDER, BATH
    )
    for mult in (30.0, 100.0):
        solution = solve(mult * s0)
        predicted = cd.condensate_prediction(
            mult * s0, eta_t, solution.n_n, BATH, LADDER, omega_bar
        )
        assert abs(predicted - solution.n_c) / solution.n_c < 0.10
    # linear growth with the stated slope
    slope = LADDER.n_levels / (BATH.phi * math.expm1(omega_bar * BATH.beta))
    p1 = cd.condensate_prediction(100.0, eta_t, 5.0, BATH, LADDER, omega_bar)
    p2 = cd.condensate_prediction(200.0, eta_t, 5.0, BATH, LADDER, omega_bar)
    assert p2 - p1 == pytest.approx(100.0 * slope, rel=1e-12)


def test_planck_factors_read_zero_past_overflow():
    # omega beta > 709.78: e^(omega beta) overflows a double, the factor is 0
    assert cd.eta_thermal_effective(11, 1.0, 800.0) == 0.0
    eta_t = cd.eta_thermal(LADDER, BATH)
    assert cd.total_occupancy_prediction(1.0, LADDER, BATH, 800.0) == eta_t
    hot = cd.ladder_analytic(10, 1.0, 0.17, 1.0)  # gaps 0.17..1.7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = cd.noncondensate_bound(0.0, hot, cd.BathParams(beta=800.0, phi=1.0, chi=0.1))
    assert 0.0 < bound.b_sum < math.inf


def test_threshold_edge_cases():
    bath = cd.BathParams(beta=1.0, phi=1.0, chi=0.1)
    vanishing = cd.threshold_supply(2.0, 1.0, bath)  # 2B = eta_T
    assert vanishing.s0 == 0.0
    assert vanishing.immediate
    strong_chi = cd.threshold_supply(2.0, 4.0, cd.BathParams(1.0, 1.0, 1e12))
    assert strong_chi.s0 == pytest.approx((1.0 / 2.0) * (8.0 - 2.0), rel=1e-10)
    with pytest.raises(ValueError, match="chi > 0"):
        cd.threshold_supply(2.0, 4.0, cd.BathParams(1.0, 1.0, 0.0))


def test_detect_condensation_knee_on_synthetic_sigmoid():
    s = np.geomspace(1.0, 1e4, 60)
    fractions = 0.1 + 0.85 / (1.0 + (100.0 / s) ** 2)  # centered at s = 100
    knee = cd.detect_condensation_knee(s, fractions)
    assert 50.0 < knee < 200.0
    with pytest.raises(ValueError):
        cd.detect_condensation_knee([1.0, 2.0, 3.0], [0.9, 0.5, 0.1])


def test_detect_condensation_knee_log_interpolates_and_validates():
    # midpoint 0.5 falls halfway between f(10) = 0 and f(100) = 1
    knee = cd.detect_condensation_knee([1.0, 10.0, 100.0], [0.0, 0.0, 1.0])
    assert knee == pytest.approx(math.sqrt(1000.0), rel=1e-12)
    with pytest.raises(ValueError, match="need matching"):
        cd.detect_condensation_knee([1.0, 10.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="need matching"):
        cd.detect_condensation_knee([1.0, 10.0, 100.0], [0.0, 1.0])
