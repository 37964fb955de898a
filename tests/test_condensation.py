"""Ladders, bath losses, steady-state solver, bounds and threshold."""

import math
import warnings

import numpy as np
import pytest

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
    assert spectral.source == "spectral"


def test_ladder_from_spectrum_flat_at_zero_coupling():
    spectral = cd.ladder_from_spectrum(6, 12, 1e-9, 1.0)
    assert np.max(np.abs(spectral.omegas - 1.0)) < 1e-8


def test_ladder_from_spectrum_needs_complete_block():
    with pytest.raises(ValueError, match="complete block"):
        cd.ladder_from_spectrum(10, 6, 0.1, 1.0)


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
    bath = cd.BathParams(beta=0.7, phi=1.3)
    n = cd.planck_occupation(1.3, 0.7)
    assert abs(cd.first_order_loss(n, 1.3, bath)) < 1e-14


def test_first_order_loss_empty_level_gains():
    assert cd.first_order_loss(0.0, 1.0, cd.BathParams(1.0, 1.0)) == pytest.approx(-1.0)


def test_first_order_loss_linear_in_occupation():
    bath = cd.BathParams(beta=1.0, phi=2.0)
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


# ---------------------------------------------------------------------------
# occupation form, amplification, transfer, chemical potential
# ---------------------------------------------------------------------------

def test_pumped_occupation_equilibrium_limit():
    bath = cd.BathParams(beta=1.0, phi=1.0, chi=0.0)
    assert cd.pumped_occupation(1.0, 0.0, bath, 0.0, 1.0) == pytest.approx(
        cd.planck_occupation(1.0, 1.0), rel=1e-14
    )


def test_pumped_occupation_uniform_amplification():
    bath = cd.BathParams(beta=1.0, phi=1.0, chi=0.0)
    doubled = cd.pumped_occupation(1.0, 1.0, bath, 5.0, 1.0)
    assert doubled == pytest.approx(2.0 * cd.planck_occupation(1.0, 1.0), rel=1e-14)


def test_pumped_occupation_pole_guarded():
    bath = cd.BathParams(beta=1.0, phi=1.0, chi=0.0)
    with pytest.raises(ValueError, match="diverges"):
        cd.pumped_occupation(1.0, 1.0, bath, 0.0, math.exp(-1.0))


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


def test_chemical_potential():
    assert cd.chemical_potential(1.0, 2.0) == 0.0
    assert cd.chemical_potential(math.exp(-0.3), 1.0) == pytest.approx(0.3)
    with pytest.raises(ValueError, match="> 1"):
        cd.chemical_potential(1.01, 1.0)


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


def test_solver_monotone_in_supply():
    solutions = [solve(s) for s in (0.1, 1.0, 10.0)]
    etas = [sol.eta for sol in solutions]
    fractions = [sol.condensate_fraction for sol in solutions]
    assert etas[0] < etas[1] < etas[2]
    assert fractions[0] < fractions[1] < fractions[2]


def test_solver_rejects_negative_supply():
    with pytest.raises(ValueError, match=">= 0"):
        cd.PumpParams(p=-1.0)
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


def test_sweep_supply_keeps_failures_in_place():
    # beta = 100: s = 0 has a closed form, s > 0 hits the unresolvable pole
    ladder = cd.ladder_analytic(2, 1.0, 0.1, 100.0)
    bath = cd.BathParams(beta=100.0, phi=1.0, chi=0.1)
    solutions = cd.sweep_supply(ladder, bath, [0.0, 1.0, 10.0])
    assert len(solutions) == 3
    assert isinstance(solutions[0], cd.SteadyStateSolution)
    at_zero = cd.solve_steady_state(ladder, bath, cd.PumpParams.from_supply(0.0))
    assert solutions[0].occupations.tobytes() == at_zero.occupations.tobytes()
    for failure in solutions[1:]:
        assert isinstance(failure, cd.ConvergenceError)
        assert "below machine epsilon" in str(failure)


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


def test_noncondensate_bound_rejects_degenerate():
    flat = cd.LevelLadder(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="degenerate"):
        cd.noncondensate_bound(1.0, flat, BATH)


def test_fitted_frequency_inside_ladder():
    solution = solve(5.0)
    omega_bar = cd.fit_mean_frequency(5.0, solution.eta, LADDER, BATH)
    assert LADDER.omegas[0] <= omega_bar <= LADDER.omegas[-1]


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
    omega_bar = cd.fit_mean_frequency(reference.pump.s, reference.eta, LADDER, BATH)
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
    omega_bar = cd.fit_mean_frequency(reference.pump.s, reference.eta, LADDER, BATH)
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


def test_above_threshold_dispersion():
    sigma2, n_o = cd.above_threshold_dispersion(1.0, 1.0, 1e4)
    assert n_o == 1e4
    assert sigma2 == pytest.approx(1e4 / math.sqrt(12.0), rel=1e-12)
    _, doubled = cd.above_threshold_dispersion(2.0, 1.0, 1e4)
    assert doubled == 2.0 * n_o


def test_detect_condensation_knee_on_synthetic_sigmoid():
    s = np.geomspace(1.0, 1e4, 60)
    fractions = 0.1 + 0.85 / (1.0 + (100.0 / s) ** 2)  # centered at s = 100
    knee = cd.detect_condensation_knee(s, fractions)
    assert 50.0 < knee < 200.0
    with pytest.raises(ValueError):
        cd.detect_condensation_knee([1.0, 2.0, 3.0], [0.9, 0.5, 0.1])
