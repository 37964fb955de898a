"""Multiplet counting and thermal averages against exact enumeration."""

import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lasercond import thermal as th


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------

def test_degeneracy_small_systems():
    assert [th.degeneracy(2, two_r) for two_r in (2, 0)] == [1, 1]
    assert [th.degeneracy(4, two_r) for two_r in (4, 2, 0)] == [1, 3, 2]


def test_degeneracy_maximal_multiplet_unique():
    for n in range(1, 20):
        assert th.degeneracy(n, n) == 1


def test_degeneracy_dimension_sum_rule():
    for n in range(1, 31):
        total = sum(
            th.degeneracy(n, two_r) * (two_r + 1) for two_r in range(n % 2, n + 1, 2)
        )
        assert total == 2**n


def test_degeneracy_fixed_m_counting():
    for n in range(1, 15):
        for two_m in range(-n, n + 1, 2):
            count = sum(th.degeneracy(n, two_r) for two_r in range(abs(two_m), n + 1, 2))
            assert count == math.comb(n, (n + two_m) // 2)


def test_degeneracy_matches_lgamma_form():
    # log P(r) = ln N! + ln(2r+1) - ln (N/2+r+1)! - ln (N/2-r)!, up to N = 1000
    for n in (10, 30, 200, 1000):
        for two_r in range(n % 2, n + 1, max(2, 2 * (n // 10))):
            upper = (n + two_r) // 2 + 1
            lower = (n - two_r) // 2
            reference = (
                math.lgamma(n + 1)
                + math.log(two_r + 1)
                - math.lgamma(upper + 1)
                - math.lgamma(lower + 1)
            )
            assert math.log(th.degeneracy(n, two_r)) == pytest.approx(reference, rel=1e-12)


def test_degeneracy_rejects_bad_arguments():
    with pytest.raises(ValueError, match="parity"):
        th.degeneracy(4, 1)
    with pytest.raises(ValueError, match="outside"):
        th.degeneracy(4, 6)


# ---------------------------------------------------------------------------
# molecular energy moments
# ---------------------------------------------------------------------------

def test_m_mean_limits():
    assert th.thermal_m_mean(th.EnsembleParams(10, 0.0)) == 0.0
    assert th.thermal_m_mean(th.EnsembleParams(10, math.inf)) == -5.0


def test_m_mean_value_and_small_beta():
    params = th.EnsembleParams(10, 0.2)
    assert th.thermal_m_mean(params) == pytest.approx(-5.0 * math.tanh(0.1), abs=1e-15)


def test_m_variance_limits_and_identity():
    assert th.thermal_m_variance(th.EnsembleParams(8, 0.0)) == pytest.approx(2.0)
    assert th.thermal_m_variance(th.EnsembleParams(8, math.inf)) == 0.0
    params = th.EnsembleParams(10, 0.2)
    sech_form = (10 / 4.0) / math.cosh(0.1) ** 2
    assert th.thermal_m_variance(params) == pytest.approx(sech_form, rel=1e-14)


@pytest.mark.parametrize("n", [2, 5, 9, 14])
@pytest.mark.parametrize("beta", [0.0, 0.2, 0.7, 1.5, 3.0])
def test_m_moments_match_enumeration(n, beta):
    params = th.EnsembleParams(n, beta)
    oracle = th.enumeration_moments(params)
    assert abs(th.thermal_m_mean(params) - oracle.m_mean) < 1e-12 * max(1.0, abs(oracle.m_mean))
    assert abs(th.thermal_m_variance(params) - oracle.m_variance) < 1e-12


# ---------------------------------------------------------------------------
# fixed-m averages of r(r+1)
# ---------------------------------------------------------------------------

def test_r2_mean_given_m_examples():
    assert th.r2_mean_given_m(4, 0) == 2.0
    assert th.r2_mean_given_m(6, 2) == 4.0
    # extremal m reaches only the maximal multiplet
    assert th.r2_mean_given_m(8, 8) == (8 / 2) * (8 / 2 + 1)


def test_r2_given_m_exact_against_enumeration():
    for n in range(1, 15):
        for two_m in range(-n, n + 1, 2):
            mean, spread = th.fixed_m_enumeration(n, two_m)
            assert mean == Fraction(th.r2_mean_given_m(n, two_m))
            # the printed spread formula turns out to be exact as well
            assert spread == Fraction(th.r2_spread_given_m(n, two_m))


def test_fixed_m_enumeration_returns_exact_fractions():
    # fractions is imported inside the function, off the CLI's import path
    mean, spread = th.fixed_m_enumeration(5, 1)
    assert type(mean) is Fraction and type(spread) is Fraction
    assert (mean, spread) == (Fraction(11, 4), Fraction(6))


def test_r2_spread_given_m_extremal():
    assert th.r2_spread_given_m(6, 6) == 0.0
    assert th.r2_spread_given_m(4, 0) == 4.0
    assert th.r2_spread_given_m(6, 0) == 9.0


def test_given_m_rejects_out_of_range():
    with pytest.raises(ValueError):
        th.r2_mean_given_m(4, 6)
    with pytest.raises(ValueError):
        th.r2_spread_given_m(4, 1)


# ---------------------------------------------------------------------------
# thermal averages of r(r+1)
# ---------------------------------------------------------------------------

def test_thermal_r2_mean_limits_and_enumeration():
    assert th.thermal_r2_mean(th.EnsembleParams(8, 0.0)) == pytest.approx(6.0)  # 3N/4
    for n in (4, 9, 14):
        for beta in (0.3, 1.0, 2.5):
            params = th.EnsembleParams(n, beta)
            oracle = th.enumeration_moments(params)
            assert th.thermal_r2_mean(params) == pytest.approx(oracle.r2_mean, rel=1e-12)


def test_thermal_r2_mean_large_n_asymptote():
    # once <m>^2 >> N the naive substitution N/2 + <m>^2 is equivalent
    params = th.EnsembleParams(10**6, 0.5)
    naive = params.n_molecules / 2.0 + th.thermal_m_mean(params) ** 2
    assert th.thermal_r2_mean(params) == pytest.approx(naive, rel=1e-4)


def test_thermal_r2_variance_infinite_temperature():
    for n in (1, 4, 8, 20):
        assert th.thermal_r2_variance(th.EnsembleParams(n, 0.0)) == n * (n - 1) / 8.0
    # independent-spin check of the same quantity: Var(m^2) at beta = 0
    n = 8
    oracle = th.enumeration_moments(th.EnsembleParams(n, 0.0))
    var_m2 = oracle.m_moments[4] - oracle.m_moments[2] ** 2
    assert var_m2 == pytest.approx(n * (n - 1) / 8.0, rel=1e-12)


def test_thermal_r2_variance_single_molecule_vanishes():
    for beta in (0.0, 0.7, 3.0):
        assert th.thermal_r2_variance(th.EnsembleParams(1, beta)) == 0.0


def test_exact_r2_variance_oracle_matches_enumeration():
    # every N the enumeration reaches; at beta = 30 and 50, 1 - tanh^2(beta/2)
    # in doubles has lost about 13 and all 16 digits, and the enumeration's
    # centred sums are within 1e-13 of 60-digit mpmath
    for n in range(1, th.ENUMERATION_LIMIT + 1):
        for beta in (0.0, 0.4, 1.1, 2.0, 30.0, 50.0, 300.0, math.inf):
            params = th.EnsembleParams(n, beta)
            exact = th.thermal_r2_variance_exact(params)
            oracle = th.enumeration_moments(params).r2_variance
            if n == 1:  # r = 1/2 only: the enumeration's mean rounds, so it reads ~1e-32
                assert exact == 0.0 and oracle < 1e-30
            else:
                assert exact == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_thermal_r2_variance_is_asymptotic_only():
    # small N: the printed form misses the fixed-m spread term; record it
    params = th.EnsembleParams(8, 0.5)
    printed = th.thermal_r2_variance(params)
    true = th.enumeration_moments(params).r2_variance
    deviation = abs(printed - true) / true
    print(f"printed r(r+1) variance at N=8, beta=0.5: rel deviation {deviation:.3f}")
    assert 0.1 < deviation < 1.0  # approximate there, by design
    # large N with <m>^2 >> N: the printed form converges to the exact one
    big = th.EnsembleParams(10**6, 0.5)
    assert th.thermal_r2_variance(big) == pytest.approx(
        th.thermal_r2_variance_exact(big), rel=1e-3
    )


def test_thermal_sigma_r2_limits_and_enumeration():
    assert th.thermal_sigma_r2(th.EnsembleParams(9, 0.0)) == pytest.approx(18.0)
    assert th.thermal_sigma_r2(th.EnsembleParams(9, math.inf)) == pytest.approx(0.0)
    for n in (5, 10, 14):
        params = th.EnsembleParams(n, 0.2)
        oracle = th.enumeration_moments(params)
        assert th.thermal_sigma_r2(params) == pytest.approx(oracle.sigma_r2_mean, rel=1e-12)


def _mpmath_closed_forms(n, beta):
    """Var(m), <N^2/4 - m^2> and the printed r(r+1) variance to 50 digits.

    Each is evaluated as first written, from <m> = -(N/2) tanh(beta/2):
    N/4 - <m>^2/N, (N(N-1)/4)(1 - 4<m>^2/N^2) and N(N-1)/8 + ((N-1)(N-2)/N)
    <m>^2 - (2(2N-3)(N-1)/N^3) <m>^4.  Those forms lose about beta/ln 10
    digits to cancellation, so the working precision grows by as many;
    beta is the double itself.
    """
    with mpmath.workdps(50 + int(beta / math.log(10.0))):
        n_mp = mpmath.mpf(n)
        m = -n_mp / 2 * mpmath.tanh(mpmath.mpf(beta) / 2)
        return (
            n_mp / 4 - m**2 / n_mp,
            n_mp * (n - 1) / 4 * (1 - 4 * m**2 / n_mp**2),
            n_mp * (n - 1) / 8
            + mpmath.mpf((n - 1) * (n - 2)) / n_mp * m**2
            - mpmath.mpf(2 * (2 * n - 3) * (n - 1)) / n_mp**3 * m**4,
        )


def _closed_forms(n, beta):
    params = th.EnsembleParams(n, beta)
    return (
        th.thermal_m_variance(params),
        th.thermal_sigma_r2(params),
        th.thermal_r2_variance(params),
    )


@pytest.mark.parametrize(("n", "beta"), [(10, 30.0), (10, 50.0), (400, 40.0)])
def test_closed_form_variances_match_mpmath_at_large_beta(n, beta):
    # tanh(beta/2) is within 2e-13 of 1 at these points, so a form built on
    # 1 - tanh^2 in doubles keeps at most three of the digits compared here
    exact = [float(value) for value in _mpmath_closed_forms(n, beta)]
    assert all(value > 0.0 for value in exact)
    np.testing.assert_allclose(_closed_forms(n, beta), exact, rtol=1e-14, atol=0.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(1, 400), beta=st.floats(0.0, 1e3))
@example(n=400, beta=720.0)  # e^(-beta) is subnormal, every column still normal
@example(n=2, beta=1e3)  # every column below the normal range
def test_closed_form_variances_keep_their_digits(n, beta):
    # relative error within 1e-13 wherever the exact value is a normal
    # double; below that, the absolute error is what a double can carry
    got = _closed_forms(n, beta)
    for value, exact in zip(got, _mpmath_closed_forms(n, beta)):
        if exact >= sys.float_info.min:
            assert abs(value - exact) <= 1e-13 * exact
        else:
            assert abs(value - exact) <= 1e-300


def _mpmath_exact_r2_variance(n, beta):
    """Var(r(r+1)) = E[N^2/4 - m^2] + Var(m^2) to 50 digits, as first written.

    r(r+1) averages to m^2 + N/2 at fixed m with spread N^2/4 - m^2; with
    mean mu and central moments c2, c3, c4 of m, a sum of N independent
    +-1/2 spins, Var(m^2) = 4 mu^2 c2 + 4 mu c3 + c4 - c2^2.  sech^2 is
    taken as 1 - tanh^2, which loses about beta/ln 10 digits, so the
    working precision grows by as many; beta is the double itself.
    """
    with mpmath.workdps(50 + int(beta / math.log(10.0))):
        t = mpmath.tanh(mpmath.mpf(beta) / 2)
        sech2 = 1 - t**2
        mu = -n * t / 2
        c2 = n * sech2 / 4
        c3 = n * t * sech2 / 4
        c4 = n * sech2 * (1 + 3 * t**2) / 16 + 3 * n * (n - 1) * (sech2 / 4) ** 2
        spread = mpmath.mpf(n * (n - 1)) / 4 * sech2
        return spread + 4 * mu**2 * c2 + 4 * mu * c3 + c4 - c2**2


@pytest.mark.parametrize(("n", "beta"), [(10, 30.0), (10, 50.0), (400, 40.0), (400, 720.0)])
def test_exact_r2_variance_matches_mpmath_at_large_beta(n, beta):
    # at beta = 720, e^(-beta) is subnormal but the variance, 1.3e-305, is not
    exact = float(_mpmath_exact_r2_variance(n, beta))
    assert exact > sys.float_info.min
    got = th.thermal_r2_variance_exact(th.EnsembleParams(n, beta))
    assert got == pytest.approx(exact, rel=1e-14, abs=0.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(1, 400), beta=st.floats(0.0, 1e3))
@example(n=400, beta=720.0)
@example(n=2, beta=1e3)
def test_exact_r2_variance_keeps_its_digits(n, beta):
    # relative error within 1e-13 wherever the exact value is a normal
    # double; below that, the absolute error is what a double can carry
    got = th.thermal_r2_variance_exact(th.EnsembleParams(n, beta))
    if n == 1:  # one molecule: r = 1/2 only, and the closed form has a factor N - 1
        assert got == 0.0
        return
    exact = _mpmath_exact_r2_variance(n, beta)
    if exact >= sys.float_info.min:
        assert abs(got - exact) <= 1e-13 * exact
    else:
        assert abs(got - exact) <= 1e-300


def test_monotonicity_in_beta():
    betas = np.linspace(0.0, 4.0, 41)
    for n in (3, 10):
        m_means = [th.thermal_m_mean(th.EnsembleParams(n, b)) for b in betas]
        spreads = [th.thermal_sigma_r2(th.EnsembleParams(n, b)) for b in betas]
        assert np.all(np.diff(m_means) <= 1e-15)
        assert np.all(np.diff(spreads) <= 1e-15)


def test_r_mean_tracks_m_mean_deep_in_collective_regime():
    # sqrt(<r(r+1)>)/|<m>| -> 1 as <m>^2/N grows; the closed forms make the
    # ratio deterministic: 5.835% at (N=1e4, beta=0.1), well under 1% once
    # beta or N climbs.
    def ratio(n, beta):
        params = th.EnsembleParams(n, beta)
        return math.sqrt(th.thermal_r2_mean(params)) / abs(th.thermal_m_mean(params))

    assert ratio(10**4, 0.1) == pytest.approx(1.0583, abs=2e-3)
    assert ratio(10**4, 0.3) - 1.0 < 0.01
    assert ratio(10**6, 0.1) - 1.0 < 1e-3
    assert ratio(10**4, 0.3) < ratio(10**4, 0.1)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def test_partition_function_product_identity():
    assert th.enumeration_moments(th.EnsembleParams(2, 0.0)).z == pytest.approx(4.0)
    for n in (2, 4, 9, 14):
        for beta in (0.0, 0.5, 1.0, 2.0):
            z = th.enumeration_moments(th.EnsembleParams(n, beta)).z
            product = (2.0 * math.cosh(beta / 2.0)) ** n
            assert z == pytest.approx(product, rel=1e-12)


def test_enumeration_frozen_limit():
    oracle = th.enumeration_moments(th.EnsembleParams(6, math.inf))
    assert oracle.m_mean == -3.0
    assert oracle.m_variance == 0.0
    assert oracle.r2_mean == 12.0  # unique maximal multiplet value


@pytest.mark.parametrize("n", [*range(1, th.ENUMERATION_LIMIT + 1), 15, 64, 137, 400])
def test_frozen_limit_is_the_general_path_at_large_beta(n):
    # at beta = 1500, e^(-beta/2) and e^(-beta) underflow to 0 and tanh(beta/2)
    # rounds to 1, so beta = inf must give the same bits down the same formulas
    def records(beta):
        params = th.EnsembleParams(n, beta)
        found = [th.thermal_moments(params)]
        if n <= th.ENUMERATION_LIMIT:
            found.append(th.enumeration_moments(params))
        return repr(found)

    assert records(math.inf) == records(1500.0)


def _fraction_enumeration(n, beta):
    """<m^k> and <[r(r+1)]^k>, k <= 4, as exact Fraction sums.

    Term (r, m) weighs P(r) q^(m + N/2) with q = e^(-beta) rounded once to
    a double, so the only rounding is in q.
    """
    q = Fraction(math.exp(-beta))
    total = Fraction(0)
    m_sums = [Fraction(0)] * 5
    x_sums = [Fraction(0)] * 5
    for two_r in range(n % 2, n + 1, 2):
        x = Fraction(two_r * (two_r + 2), 4)
        for two_m in range(-two_r, two_r + 1, 2):
            weight = th.degeneracy(n, two_r) * q ** ((two_m + n) // 2)
            total += weight
            for k in range(5):
                m_sums[k] += weight * Fraction(two_m, 2) ** k
                x_sums[k] += weight * x**k
    return [float(s / total) for s in m_sums], [float(s / total) for s in x_sums]


@pytest.mark.parametrize(
    ("n", "beta"),
    [(14, 102.0), (2, 711.0), (10, 140.0), (9, 0.7), (14, 3.0), (13, 36.0)],
)
def test_enumeration_matches_fraction_sums_past_the_exponent_range(n, beta):
    # beta N/2 passes ln(DBL_MAX) = 709.78 at the first two points, and
    # e^(-beta m) alone overflows a moment sum at the third; the weights
    # relative to m = -N/2 keep every sum finite, and Z reads inf past it
    oracle = th.enumeration_moments(th.EnsembleParams(n, beta))
    m_exact, x_exact = _fraction_enumeration(n, beta)
    np.testing.assert_allclose(oracle.m_moments, m_exact, rtol=1e-14)
    np.testing.assert_allclose(oracle.r2_moments, x_exact, rtol=1e-14)
    assert (oracle.z == math.inf) == (beta * n / 2.0 > 709.78)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(1, th.ENUMERATION_LIMIT), beta=st.floats(0.0, 1e300))
def test_enumeration_m_moments_match_the_exact_closed_forms(n, beta):
    # <m> = -(N/2) tanh(beta/2) and Var(m) = (N/4) sech^2(beta/2) hold
    # exactly; over the whole beta range the oracle agrees to rounding
    params = th.EnsembleParams(n, beta)
    oracle = th.enumeration_moments(params)
    assert np.all(np.isfinite(oracle.m_moments)) and np.all(np.isfinite(oracle.r2_moments))
    assert oracle.m_mean == pytest.approx(th.thermal_m_mean(params), rel=1e-12, abs=1e-12 * n)
    assert oracle.m_variance == pytest.approx(
        th.thermal_m_variance(params), rel=1e-12, abs=1e-12 * n * n
    )


@pytest.mark.parametrize("n", range(1, 15))
def test_enumeration_reaches_the_frozen_limit_as_beta_grows(n):
    frozen = th.enumeration_moments(th.EnsembleParams(n, math.inf))
    gaps = []
    for beta in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 1e300):
        oracle = th.enumeration_moments(th.EnsembleParams(n, beta))
        gaps.append(max(
            np.max(np.abs(np.asarray(oracle.m_moments) / np.asarray(frozen.m_moments) - 1.0)),
            np.max(np.abs(np.asarray(oracle.r2_moments) / np.asarray(frozen.r2_moments) - 1.0)),
        ))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-2:] == [0.0, 0.0]  # e^(-beta) underflows: the frozen values exactly
    assert oracle.z == math.inf


def _mpmath_centred_moments(n, beta):
    """Var(m), Var(r(r+1)) and <N^2/4 - m^2> as 60-digit centred sums.

    Term (r, m) weighs P(r) e^(-beta (m + N/2)) with beta the double itself.
    """
    with mpmath.workdps(60):
        terms = []
        for two_r in range(n % 2, n + 1, 2):
            x = mpmath.mpf(two_r * (two_r + 2)) / 4
            for two_m in range(-two_r, two_r + 1, 2):
                weight = th.degeneracy(n, two_r) * mpmath.exp(-mpmath.mpf(beta) * ((two_m + n) // 2))
                terms.append((weight, mpmath.mpf(two_m) / 2, x))
        total = sum(w for w, _, _ in terms)
        m_mean = sum(w * m for w, m, _ in terms) / total
        x_mean = sum(w * x for w, _, x in terms) / total
        return (
            float(sum(w * (m - m_mean) ** 2 for w, m, _ in terms) / total),
            float(sum(w * (x - x_mean) ** 2 for w, _, x in terms) / total),
            float(sum(w * (mpmath.mpf(n * n) / 4 - m * m) for w, m, _ in terms) / total),
        )


@pytest.mark.parametrize(
    ("n", "beta"),
    [(13, 36.18)]
    + [(n, beta) for n in (2, 5, 8, 11, 14) for beta in (0.0, 0.3, 2.0, 20.0, 60.0, 300.0)],
)
def test_enumeration_variances_match_mpmath_centred_sums(n, beta):
    # <x^2> - <x>^2 cancels to noise once the spread is below eps <x>^2: at
    # N = 13, beta = 36.18 it read Var(r(r+1)) 4.5e-13 for 3.93e-13 and
    # Var(m) 7.1e-15 for 2.52e-15, and both read 0.0 at N = 14, beta = 50;
    # the centred sums keep every digit
    oracle = th.enumeration_moments(th.EnsembleParams(n, beta))
    exact = _mpmath_centred_moments(n, beta)
    got = (oracle.m_variance, oracle.r2_variance, oracle.sigma_r2_mean)
    assert all(value > 0.0 for value in exact)
    np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)


def test_enumeration_size_limit():
    with pytest.raises(ValueError, match="N <= 14"):
        th.enumeration_moments(th.EnsembleParams(15, 1.0))


def test_ensemble_params_validation():
    with pytest.raises(ValueError):
        th.EnsembleParams(0, 1.0)
    with pytest.raises(ValueError):
        th.EnsembleParams(5, -0.1)
