"""The tests' high-precision references, worked in mpmath from the program's doubles, and
their seeded draws; ``CENSUS`` is ``scripts/solver_census.py``, whose ``draws`` they share."""

import importlib.util
import math
import random
from collections import namedtuple
from pathlib import Path

import mpmath
import numpy as np

from lasercond import condensation as cd
from lasercond import thermal as th


_SPEC = importlib.util.spec_from_file_location(
    "solver_census", Path(__file__).resolve().parents[1] / "scripts" / "solver_census.py"
)
CENSUS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(CENSUS)

Root = namedtuple("Root", "g mu_beta eta occupations")


def closed_quadratic(p_sum, phi, chi, s=0):
    """Positive root n of chi n^2 + (phi - chi P) n - (phi + s) P = 0, P = ``p_sum``, in mpf at
    the working precision: the branch that does not cancel, P (1 + s/phi) at chi = 0."""
    b = phi - chi * p_sum
    h = mpmath.sqrt(b * b + 4 * chi * (phi + s) * p_sum)
    return 2 * (phi + s) * p_sum / (b + h) if b > 0 else (h - b) / (2 * chi)


def _inputs(ladder, bath, s, solver_inputs):
    """G = omega_-r beta, the level gaps d_l = (omega_l - omega_-r) beta and S = s sum_l
    e^(-omega_l beta), as the solver rounds them or exact in the doubles omega_l and beta."""
    if solver_inputs:
        gaps = [mpmath.mpf(float(v)) for v in (ladder.omegas - ladder.omegas[0]) * bath.beta]
        transfer = cd.excitation_transfer_supply(s, ladder, bath)
        return mpmath.mpf(float(ladder.omegas[0] * bath.beta)), gaps, mpmath.mpf(float(transfer))
    beta, omegas = mpmath.mpf(bath.beta), [mpmath.mpf(float(w)) for w in ladder.omegas]
    transfer = mpmath.mpf(s) * mpmath.fsum(mpmath.exp(-w * beta) for w in omegas)
    return omegas[0] * beta, [(w - omegas[0]) * beta for w in omegas], transfer


def _planck(x):
    """1 / (e^x - 1); mpmath's expm1, which raises its precision until the result holds it,
    only below x = 1, where e^x - 1 cancels."""
    return 1 / (mpmath.expm1(x) if x < 1 else mpmath.exp(x) - 1)


def _closed(top, gaps, phi, chi, s):
    """eta and occupations k / expm1(omega_l beta) of the closed state (A = 1)."""
    planck = [_planck(top + d) for d in gaps]
    eta = closed_quadratic(mpmath.fsum(planck), phi, chi, s)
    return eta, [(1 + s / (phi + chi * eta)) * p for p in planck]


def closed_state(ladder, bath, s):
    """60-digit eta and occupations of the closed state (A = 1), from the exact omega_l beta."""
    with mpmath.workdps(60):
        top, gaps, _ = _inputs(ladder, bath, s, solver_inputs=False)
        return _closed(top, gaps, *(mpmath.mpf(v) for v in (bath.phi, bath.chi, s)))


def closure_root(ladder, bath, s, near, solver_inputs=False):
    """50-digit root of the steady-state closure at supply s: mpf g, mu beta, eta, occupations.

    It roots log(T / S) = log(sum(occupations) + phi/chi) - log(S / (phi x)), with x = 1 - A
    = -expm1(-mu beta), occupations k / expm1(d_l + g) at the level gaps d_l and k = 1 + s phi
    x / (chi S), in t = log(g / mu beta): g = G / (1 + e^-t) and mu beta = G / (1 + e^t) are
    each formed from t.  The bracket is t +- 1e-9 (1 + |t|) around the solver's t (``near``,
    its ``SteadyStateGrid`` row) or, at a closed row (mu = 0), the closed quadratic's; one
    that does not change sign raises AssertionError.  At chi S = 0, A = 1 and the closed
    state is the root.  ``solver_inputs`` takes the inputs as the solver rounds them, which
    its g is within rounding of."""
    with mpmath.workdps(50):
        top, gaps, transfer = _inputs(ladder, bath, s, solver_inputs)
        phi, chi, s = (mpmath.mpf(v) for v in (bath.phi, bath.chi, s))
        if transfer == 0 or chi == 0:
            return Root(top, mpmath.mpf(0), *_closed(top, gaps, phi, chi, s))

        def state(t):
            g, mu_beta = top / (1 + mpmath.exp(-t)), top / (1 + mpmath.exp(t))
            u = transfer / (phi * -mpmath.expm1(-mu_beta))  # eta + phi/chi
            k = 1 + s / (chi * u)
            return g, mu_beta, u, [k * _planck(d + g) for d in gaps]

        def log_ratio(t):
            u, occupations = state(t)[2:]
            return mpmath.log(mpmath.fsum(occupations) + phi / chi) - mpmath.log(u)

        if near.mu > 0.0:
            t = mpmath.log(mpmath.mpf(float(near.gap)) / (mpmath.mpf(float(near.mu)) * bath.beta))
        else:
            eta = _closed(top, gaps, phi, chi, s)[0]
            mu_beta = -mpmath.log1p(-chi * transfer / (phi * (phi + chi * eta)))
            t = mpmath.log((top - mu_beta) / mu_beta)
        half = mpmath.mpf("1e-9") * (1 + abs(t))
        g, mu_beta, _, occupations = state(_bracketed_root(log_ratio, t - half, t + half))
        return Root(g, mu_beta, mpmath.fsum(occupations), occupations)


def _bracketed_root(f, a, b):
    """Root of f between a and b, where it changes sign, to a bracket of 1e-30 (1 + |root|):
    Anderson-Bjorck steps keep a bracket, and scale down f at an end that a step keeps."""
    f_a, f_b = f(a), f(b)
    assert f_a * f_b < 0, f"the bracket [{a}, {b}] does not change sign: f = {f_a}, {f_b}"
    for _ in range(100):
        c = b - f_b * (b - a) / (f_b - f_a)
        f_c = f(c)
        if f_c == 0:
            return c
        if (f_c > 0) == (f_b > 0):
            m = 1 - f_c / f_b
            f_a *= m if m > 0 else 0.5
        else:
            a, f_a = b, f_b
        b, f_b = c, f_c
        if abs(b - a) <= mpmath.mpf("1e-30") * (1 + abs(b)):
            return b
    raise AssertionError(f"no root in 100 steps: bracket [{a}, {b}]")


def block_levels(two_r, two_c, kappa):
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


def thermal_closed_forms(n, beta):
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


def exact_r2_variance(n, beta):
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


Enumeration = namedtuple("Enumeration", "m_moments r2_moments m_variance r2_variance sigma_r2_mean")


def enumeration(n, beta):
    """<m^k> and <[r(r+1)]^k> for k <= 4, Var(m), Var(r(r+1)) and <N^2/4 - m^2>, as floats of
    60-digit sums over every (r, m), the variances centred.  Term (r, m) weighs
    P(r) e^(-beta (m + N/2)), with beta the double itself; r2 and m2 are 2r and 2m."""
    with mpmath.workdps(60):
        beta = mpmath.mpf(beta)
        states = [(r2, m2) for r2 in range(n % 2, n + 1, 2) for m2 in range(-r2, r2 + 1, 2)]
        weights = [th.degeneracy(n, r2) * mpmath.exp(-beta * ((m2 + n) // 2)) for r2, m2 in states]
        m = [mpmath.mpf(m2) / 2 for _, m2 in states]
        x = [mpmath.mpf(r2 * (r2 + 2)) / 4 for r2, _ in states]

        def average(values):
            return mpmath.fsum(map(mpmath.fmul, weights, values)) / mpmath.fsum(weights)

        m_mean, x_mean = average(m), average(x)
        return Enumeration(
            [float(average(v**k for v in m)) for k in range(5)],
            [float(average(v**k for v in x)) for k in range(5)],
            float(average((v - m_mean) ** 2 for v in m)),
            float(average((v - x_mean) ** 2 for v in x)),
            float(average(mpmath.mpf(n * n) / 4 - v * v for v in m)),
        )


def domain_ladder(two_r, omega, c_ref, share):
    """A ladder of the sweep_analytic domain: bottom level kept positive."""
    kappa = share * min(1.0, 0.8 * math.sqrt(c_ref) / max(two_r / 2.0, 0.5))
    return cd.ladder_analytic(two_r, omega, kappa, c_ref)


def domain_points(count, seed):
    """Seeded (ladder, bath, s) draws of the sweep_analytic domain past the refusal."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points = []
    while len(points) < count:
        two_r, omega = rng.randint(2, 78), rng.uniform(0.5, 2.0)
        c_ref, share = log_uniform(1e2, 1e4), log_uniform(1e-3, 1.0)
        beta, chi, s = log_uniform(0.1, 10.0), log_uniform(0.01, 1.0), log_uniform(1e-2, 1e4)
        ladder = domain_ladder(two_r, omega, c_ref, share)
        bath = cd.BathParams(beta=beta, phi=1.0, chi=chi)
        if chi * cd.excitation_transfer_supply(s, ladder, bath) >= np.finfo(float).eps:
            points.append((ladder, bath, s))
    return points


def near_pole_draws(count, seed):
    """Seeded (ladder, bath, s): ROADMAP item 1's domain at s in 1e15-1e307, log-uniform."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(count):
        ladder = cd.ladder_analytic(rng.randint(0, 78), 1.0, 0.1, 100.0)
        bath = cd.BathParams(
            beta=log_uniform(0.1, 2000.0), phi=log_uniform(1e-3, 1e3), chi=log_uniform(1e-4, 1e2)
        )
        yield ladder, bath, log_uniform(1e15, 1e307)
    # near-flat ladders, where the excited levels' Planck terms move with g
    for kappa in (1e-12, 1e-14):
        yield cd.ladder_analytic(10, 1.0, kappa, 100.0), cd.BathParams(1.0, 1.0, 0.1), 1e19


def huge_supply_points(seed, count):
    """(ladder, bath, s) of the huge-supply point of each of ``scripts/deck_identity.py``'s
    seeded solver calls: a census draw's ladder and bath, s log-uniform in 1e15-1e307."""
    rng = random.Random(seed)
    for two_r, beta, phi, chi, _ in CENSUS.draws(seed, count):
        s = math.exp(rng.uniform(math.log(1e15), math.log(1e307)))
        yield cd.ladder_analytic(two_r, 1.0, 0.1, 100.0), cd.BathParams(beta, phi, chi), s
