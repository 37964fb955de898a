"""Dicke multiplet counting and thermal averages for N two-level molecules.

At coupling zero the molecules are an ideal paramagnet: states |r, m> with
energy m (level splitting = 1) and multiplicity P(r) per cooperation
number r.  This module provides P(r) in exact integer arithmetic, the
closed-form thermal moments of m and of r(r+1), and two brute-force
oracles -- one summing over the (r, m) ensemble, one averaging over the
degeneracy at fixed m -- used to pin down which of the closed forms are
exact and which are large-N approximations.

beta = E/kT is dimensionless; ``math.inf`` is accepted as the frozen
(zero-temperature) limit, which every formula reaches on its general
path: the closed forms through tanh(inf) = 1 and e^(-inf/2) = 0, the
enumeration through a weight e^(-inf) = 0 on every level above the
lowest.  The variances are written from sech^2(beta/2), not from
1 - tanh^2, so they keep every digit as tanh(beta/2) -> 1.  Besides the
printed large-N variance of r(r+1), the exact one (every N) is a closed
form too: ``thermal_r2_variance_exact``.

The module uses the standard library alone (``math``; the enumeration
sums its at most 64 terms with ``math.fsum``), so the ``thermal`` command
never loads numpy.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

__all__ = [
    "EnsembleParams",
    "ThermalMoments",
    "ThermalEnumeration",
    "degeneracy",
    "thermal_m_mean",
    "thermal_m_variance",
    "r2_mean_given_m",
    "r2_spread_given_m",
    "fixed_m_enumeration",
    "thermal_r2_mean",
    "thermal_r2_variance",
    "thermal_r2_variance_exact",
    "thermal_sigma_r2",
    "thermal_moments",
    "enumeration_moments",
]

ENUMERATION_LIMIT = 14


class EnsembleParams(namedtuple("EnsembleParams", "n_molecules beta")):
    """N molecules at inverse temperature beta = E/kT (beta=inf allowed)."""

    __slots__ = ()

    def __new__(cls, n_molecules: int, beta: float):
        if n_molecules < 1:
            raise ValueError(f"need at least one molecule, got {n_molecules}")
        if math.isnan(beta) or beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        return super().__new__(cls, n_molecules, beta)


class ThermalMoments(
    namedtuple(
        "ThermalMoments",
        "m_mean m_variance r2_mean r2_variance sigma_r2_mean r2_variance_exact",
    )
):
    """Closed-form thermal averages (r2_variance is the printed large-N
    form; r2_variance_exact is the variance of r(r+1) at every N)."""

    __slots__ = ()


class ThermalEnumeration(
    namedtuple(
        "ThermalEnumeration",
        "z m_moments r2_moments m_variance r2_variance sigma_r2_mean",
    )
):
    """Exact (r, m)-ensemble sums for small N (N and beta are the caller's).

    z is the partition function; m_moments[k] = <m^k>, r2_moments[k] =
    <[r(r+1)]^k> for k = 0..4 (5-tuples).  m_variance and r2_variance are
    centred sums <(x - <x>)^2>, and sigma_r2_mean is the thermal average
    of the fixed-m spread N^2/4 - m^2 summed term by term, so none of the
    three cancels to rounding noise when the spread is far below <x>^2.
    """

    __slots__ = ()

    @property
    def m_mean(self) -> float:
        return self.m_moments[1]

    @property
    def r2_mean(self) -> float:
        return self.r2_moments[1]


def _check_two_r(n_molecules: int, two_r: int) -> None:
    if two_r < 0 or two_r > n_molecules:
        raise ValueError(f"2r={two_r} outside 0..N={n_molecules}")
    if (n_molecules - two_r) % 2 != 0:
        raise ValueError(f"2r={two_r} must have the parity of N={n_molecules}")


def degeneracy(n_molecules: int, two_r: int) -> int:
    """Multiplicity P(r) = N!(2r+1) / ((N/2+r+1)!(N/2-r)!), exactly.

    Python integers keep this exact for any N.
    """
    _check_two_r(n_molecules, two_r)
    upper = (n_molecules + two_r) // 2 + 1
    lower = (n_molecules - two_r) // 2
    numerator = math.factorial(n_molecules) * (two_r + 1)
    denominator = math.factorial(upper) * math.factorial(lower)
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise RuntimeError("multiplicity formula produced a non-integer")
    return quotient


def thermal_m_mean(params: EnsembleParams) -> float:
    """<m> = -(N/2) tanh(beta/2); exact for independent molecules."""
    # + 0.0 keeps beta = 0 from returning a negative zero
    return -(params.n_molecules / 2.0) * math.tanh(params.beta / 2.0) + 0.0


def _sech_half(beta: float) -> float:
    """sech(beta/2) = 2h/(1 + h^2) with h = e^(-beta/2): 0 at beta = inf.

    Its square is sech^2(beta/2) = 4e^(-beta)/(1 + e^(-beta))^2, but
    e^(-beta) goes subnormal past beta = 708 while h stays normal to 1416,
    so callers multiply their coefficient by this factor twice.
    """
    h = math.exp(-beta / 2.0)
    return 2.0 * h / (1.0 + h * h)


def thermal_m_variance(params: EnsembleParams) -> float:
    """Var(m) = (N/4) sech^2(beta/2) (= N/4 - <m>^2/N); exact."""
    sech = _sech_half(params.beta)
    return params.n_molecules / 4.0 * sech * sech


def r2_mean_given_m(n_molecules: int, two_m: int) -> float:
    """Degeneracy average of r(r+1) at fixed m: N/2 + m^2 (exact identity)."""
    _check_two_m(n_molecules, two_m)
    return n_molecules / 2.0 + (two_m / 2.0) ** 2


def r2_spread_given_m(n_molecules: int, two_m: int) -> float:
    """Degeneracy variance of r(r+1) at fixed m, as printed: N^2/4 - m^2."""
    _check_two_m(n_molecules, two_m)
    return n_molecules**2 / 4.0 - (two_m / 2.0) ** 2


def _check_two_m(n_molecules: int, two_m: int) -> None:
    if abs(two_m) > n_molecules:
        raise ValueError(f"|2m|={abs(two_m)} exceeds N={n_molecules}")
    if (n_molecules - two_m) % 2 != 0:
        raise ValueError(f"2m={two_m} must have the parity of N={n_molecules}")


def fixed_m_enumeration(n_molecules: int, two_m: int) -> tuple:
    """Exact degeneracy-weighted mean and variance of r(r+1) at fixed m.

    Sums P(r) over r >= |m| with Fraction arithmetic, so comparisons with
    the closed forms are integer identities, not float checks.  No command
    calls this test reference, so ``fractions`` is imported here, off the
    CLI's start-up path.
    """
    from fractions import Fraction

    _check_two_m(n_molecules, two_m)
    total = 0
    first = Fraction(0)
    second = Fraction(0)
    for two_r in range(abs(two_m), n_molecules + 1, 2):
        weight = degeneracy(n_molecules, two_r)
        x = Fraction(two_r * (two_r + 2), 4)
        total += weight
        first += weight * x
        second += weight * x * x
    mean = first / total
    return mean, second / total - mean * mean


def thermal_r2_mean(params: EnsembleParams) -> float:
    """Thermal mean of r(r+1): 3N/4 + <m>^2 (1 - 1/N); exact."""
    n = params.n_molecules
    m = thermal_m_mean(params)
    return 0.75 * n + m * m * (1.0 - 1.0 / n)


def thermal_r2_variance(params: EnsembleParams) -> float:
    """Printed large-N form of the thermal variance of r(r+1).

    N(N-1)/8 + ((N-1)(N-2)/N) <m>^2 - (2(2N-3)(N-1)/N^3) <m>^4, evaluated
    factored as (N(N-1)/8) sech^2(beta/2) (1 + (2N-3) tanh^2(beta/2)).
    This tracks the variance of the conditional mean m^2 + N/2 only; the
    fixed-m spread it omits is O(N^2), so trust it when <m>^2 >> N.
    """
    n = params.n_molecules
    sech = _sech_half(params.beta)
    t = math.tanh(params.beta / 2.0)
    return n * (n - 1) / 8.0 * (1.0 + (2 * n - 3) * t * t) * sech * sech


def thermal_r2_variance_exact(params: EnsembleParams) -> float:
    """Exact thermal variance of r(r+1), every N: (N(N-1)/8) sech^2 (3 sech^2 + 2N tanh^2).

    r(r+1) averages to m^2 + N/2 at fixed m with spread N^2/4 - m^2, so
    Var = E[N^2/4 - m^2] + Var(m^2), and Var(m^2) = 4 mu^2 c2 + 4 mu c3 +
    c4 - c2^2 from the mean mu and central moments c2, c3, c4 of m, a sum
    of N independent +-1/2 spins.  Collected over sech^2 and tanh^2 (with
    1 = sech^2 + tanh^2), every term is positive, so nothing cancels at
    any beta, and N = 1 gives exactly 0.  It exceeds the printed
    ``thermal_r2_variance`` by the mean fixed-m spread ``thermal_sigma_r2``.
    """
    n = params.n_molecules
    sech = _sech_half(params.beta)
    t = math.tanh(params.beta / 2.0)
    return n * (n - 1) / 8.0 * (3.0 * sech * sech + 2 * n * t * t) * sech * sech


def thermal_sigma_r2(params: EnsembleParams) -> float:
    """Thermal average of the fixed-m spread: (N(N-1)/4) sech^2(beta/2)."""
    n = params.n_molecules
    sech = _sech_half(params.beta)
    return n * (n - 1) / 4.0 * sech * sech


def thermal_moments(params: EnsembleParams) -> ThermalMoments:
    """Bundle of all closed-form thermal averages."""
    return ThermalMoments(
        m_mean=thermal_m_mean(params),
        m_variance=thermal_m_variance(params),
        r2_mean=thermal_r2_mean(params),
        r2_variance=thermal_r2_variance(params),
        sigma_r2_mean=thermal_sigma_r2(params),
        r2_variance_exact=thermal_r2_variance_exact(params),
    )


def enumeration_moments(params: EnsembleParams) -> ThermalEnumeration:
    """Direct partition sum Z = sum_r P(r) sum_m e^(-beta m), N <= 14.

    Returns <m^k> and <[r(r+1)]^k> for k <= 4 and the centred variances,
    each one ``math.fsum`` over the (at most 64) (r, m) terms.  Each term is
    weighted by e^(-beta (m + N/2)) <= 1, relative to the lowest level
    m = -N/2, and the sums are divided through by their own total, so no
    moment overflows at any beta; Z itself is e^(beta N/2) times that
    total, inf once it passes the double range.  At beta = inf only the
    unique maximal multiplet's m = -N/2 state keeps a nonzero weight, so
    the moments are its own and the variances 0.
    """
    n = params.n_molecules
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle limited to N <= {ENUMERATION_LIMIT}")
    # e^(-beta (m + N/2)) for m + N/2 = 0..N; the lowest level's weight is
    # the literal 1, since at beta = inf e^(-beta 0) would be e^NaN
    factors = [1.0] + [math.exp(-params.beta * k) for k in range(1, n + 1)]
    boltzmann, m, x, spread = [], [], [], []
    for two_r in range(n % 2, n + 1, 2):
        weight = float(degeneracy(n, two_r))
        levels = range(-two_r, two_r + 1, 2)
        boltzmann += [weight * factors[(two_m + n) // 2] for two_m in levels]
        m += [two_m / 2.0 for two_m in levels]
        x += [two_r * (two_r + 2) / 4.0] * len(levels)
        spread += [(n - two_m) * (n + two_m) / 4.0 for two_m in levels]
    total = math.fsum(boltzmann)

    def average(terms) -> float:
        return math.fsum(terms) / total

    def moments(values) -> tuple:
        """(<v^k> for k = 0..4, centred <(v - <v>)^2>), from running products w v^k."""
        terms = boltzmann
        raw = [average(terms)]
        for _ in range(4):
            terms = list(map(operator.mul, terms, values))
            raw.append(average(terms))
        centred = [v - raw[1] for v in values]
        return tuple(raw), average(map(operator.mul, map(operator.mul, boltzmann, centred), centred))

    m_moments, m_variance = moments(m)
    r2_moments, r2_variance = moments(x)
    try:
        z = total * math.exp(params.beta * n / 2.0)
    except OverflowError:  # beta N/2 > ln(DBL_MAX) = 709.78
        z = math.inf
    return ThermalEnumeration(
        z=z,
        m_moments=m_moments,
        r2_moments=r2_moments,
        m_variance=m_variance,
        r2_variance=r2_variance,
        sigma_r2_mean=average(map(operator.mul, boltzmann, spread)),
    )
