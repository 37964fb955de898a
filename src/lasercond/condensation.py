"""Pumped, bath-coupled steady state of a 2r+1 level ladder.

Each collective level j = -r..r of the molecule-field block behaves as a
bosonic mode at frequency omega_j.  A thermal bath exchanges single
quanta with each level (first-order loss rate phi) and shuttles quanta
between level pairs (second-order rate chi); every level is pumped at p
and leaks from the cavity at Q, so only the net supply s = p - Q enters.

Stationarity pins the occupations to a displaced Planck form

    <n_l> = (1 + s/(phi + chi eta)) / (A e^(omega_l beta) - 1),

with a single amplification factor A = e^(-mu beta) shared by all
levels.  Increasing s drives the effective chemical potential mu up
toward the bottom level omega_{-r}; past a threshold supply the excess
quanta pile into that level -- photon condensation, alias lasing.

The self-consistency collapses to one scalar equation.  It is solved
here in the gap variable g = (omega_{-r} - mu) beta rather than in eta:
the map g -> eta is monotone, the admissible bracket is simply
0 < g < omega_{-r} beta, and occupations evaluated through expm1 of
(omega_l - omega_{-r}) beta + g stay accurate arbitrarily close to the
condensation pole, where an eta-space iteration loses digits.  The root
is found by an in-module Brent solve (``_brentq``), a step-for-step port
of scipy's ``brentq`` that returns the same bits without importing
``scipy.optimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectrum import ConvergenceError
from . import spectrum

__all__ = [
    "LevelLadder",
    "BathParams",
    "PumpParams",
    "SteadyStateSolution",
    "NoncondensateBound",
    "ThresholdEstimate",
    "ladder_analytic",
    "ladder_from_spectrum",
    "planck_occupation",
    "first_order_loss",
    "second_order_loss",
    "amplification_factor",
    "excitation_transfer_supply",
    "excitation_transfer_balance",
    "solve_steady_state",
    "eta_thermal",
    "eta_thermal_effective",
    "noncondensate_bound",
    "fit_mean_frequency",
    "total_occupancy_prediction",
    "condensate_prediction",
    "threshold_supply",
    "sweep_supply",
    "detect_condensation_knee",
]


@dataclass(frozen=True)
class LevelLadder:
    """Ascending level energies omega_j, j = -r..r (2r+1 of them).

    A degenerate (flat) ladder is a legal zero-coupling limit; operations
    that would divide by the level splitting reject it explicitly.
    """

    omegas: np.ndarray
    source: str = "analytic"
    is_degenerate: bool = field(init=False)

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        object.__setattr__(self, "omegas", om)
        if om.ndim != 1 or om.size < 1:
            raise ValueError(f"need a 1-d non-empty level array, got shape {om.shape}")
        if np.any(om <= 0.0):
            raise ValueError("all level energies must be positive")
        steps = np.diff(om)
        if np.any(steps < 0.0):
            raise ValueError("level energies must be ascending")
        object.__setattr__(self, "is_degenerate", bool(np.any(steps == 0.0)))

    @property
    def n_levels(self) -> int:
        return self.omegas.size

    @property
    def two_r(self) -> int:
        return self.omegas.size - 1

    @property
    def bottom(self) -> float:
        return float(self.omegas[0])


@dataclass(frozen=True)
class BathParams:
    """Bath inverse temperature and its one- and two-quantum couplings."""

    beta: float
    phi: float
    chi: float = 0.0

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"bath beta must be positive, got {self.beta}")
        if not self.phi > 0.0:
            raise ValueError(f"first-order coupling phi must be positive, got {self.phi}")
        if self.chi < 0.0:
            raise ValueError(f"second-order coupling chi must be >= 0, got {self.chi}")


@dataclass(frozen=True)
class PumpParams:
    """Per-level pump p and cavity loss Q; only s = p - Q drives the state."""

    p: float
    q: float = 0.0

    def __post_init__(self):
        if self.p < 0.0 or self.q < 0.0:
            raise ValueError("pump and loss rates must be >= 0")

    @property
    def s(self) -> float:
        return self.p - self.q

    @classmethod
    def from_supply(cls, s: float) -> "PumpParams":
        return cls(p=s, q=0.0)


@dataclass(frozen=True)
class SteadyStateSolution:
    """Converged stationary state of one (ladder, bath, pump) triple."""

    ladder: LevelLadder
    bath: BathParams
    pump: PumpParams
    occupations: np.ndarray
    amplification: float
    mu: float
    eta: float
    s_supply: float  # excitation transfer from the supply side
    s_balance: float  # same quantity from the occupation balance side
    max_residual: float  # max over levels of |s - L1 - L2|
    eta_closure: float  # |eta - sum(occupations)| of the scalar reduction

    @property
    def n_c(self) -> float:
        return float(self.occupations[0])

    @property
    def n_n(self) -> float:
        return float(self.occupations[1:].sum())

    @property
    def condensate_fraction(self) -> float:
        return self.n_c / self.eta

    def converged(self) -> bool:
        tol = 1e-8 * max(self.pump.p, self.bath.phi)
        return self.max_residual < tol and self.eta_closure < 1e-10 * self.eta


@dataclass(frozen=True)
class NoncondensateBound:
    """Cap on the excited-level total n_n implied by mu < omega_{-r}."""

    bound: float
    b_sum: float  # sum over excited levels of Planck at the gap to the bottom level
    asymptote: float  # sqrt(B s / chi) large-s growth (inf when chi == 0)


@dataclass(frozen=True)
class ThresholdEstimate:
    """Closed-form threshold supply; flagged when the bracket is negative."""

    s0: float
    b_sum: float
    immediate: bool  # 2B <= eta_T: no sub-threshold window, formula goes <= 0


def ladder_analytic(two_r: int, omega: float, kappa: float, c_ref: float) -> LevelLadder:
    """Evenly split ladder omega_j = omega (1 + j |kappa| / sqrt(c_ref))."""
    if two_r < 0:
        raise ValueError("two_r must be >= 0")
    if not omega > 0.0:
        raise ValueError("mode frequency must be positive")
    if kappa < 0.0:
        raise ValueError("coupling magnitude must be >= 0")
    if not c_ref > 0.0:
        raise ValueError("reference excitation c_ref must be positive")
    j = np.arange(-two_r, two_r + 1, 2) / 2.0
    omegas = omega * (1.0 + j * kappa / math.sqrt(c_ref))
    if omegas[0] <= 0.0:
        raise ValueError(
            f"bottom level is non-positive: r |kappa| / sqrt(c_ref) = "
            f"{two_r / 2 * kappa / math.sqrt(c_ref):.3g} >= 1"
        )
    return LevelLadder(omegas=omegas, source="analytic")


def ladder_from_spectrum(
    two_r: int, two_c: int, kappa: float, omega: float
) -> LevelLadder:
    """Level frequencies from exact block spectra.

    The frequency of level j is the energy a block gains when one more
    quantum enters it, i.e. the difference of lambda_j between the blocks
    at c+1 and c (in mode-quantum units, scaled by omega).  Deep in the
    collective regime this reproduces omega (1 + j |kappa| / sqrt(c)).
    Requires complete blocks (c >= r) so the 2r+1 levels line up.
    """
    if not omega > 0.0:
        raise ValueError("mode frequency must be positive")
    if two_c < two_r:
        raise ValueError(
            f"spectral ladder needs a complete block (c >= r), got "
            f"c={two_c / 2}, r={two_r / 2}"
        )
    lower = spectrum.block_eigenvalues(
        spectrum.build_block(spectrum.BlockIndex(two_r, two_c, kappa))
    )
    upper = spectrum.block_eigenvalues(
        spectrum.build_block(spectrum.BlockIndex(two_r, two_c + 2, kappa))
    )
    omegas = omega * (upper - lower)
    if np.any(omegas <= 0.0):
        raise ValueError("spectral ladder produced a non-positive level energy")
    return LevelLadder(omegas=np.sort(omegas), source="spectral")


def planck_occupation(omega, beta: float):
    """Equilibrium occupation 1 / (e^(omega beta) - 1)."""
    x = np.asarray(omega, dtype=float) * beta
    if np.any(x <= 0.0):
        raise ValueError("omega * beta must be positive")
    with np.errstate(over="ignore"):  # e^x overflows only where 0 is right
        out = 1.0 / np.expm1(x)
    return float(out) if np.isscalar(omega) else out


def first_order_loss(occupation, omega, bath: BathParams):
    """Net one-quantum loss to the bath: phi (n e^(omega beta) - (1 + n))."""
    n = np.asarray(occupation, dtype=float)
    rate = bath.phi * (n * np.exp(np.asarray(omega) * bath.beta) - (1.0 + n))
    return float(rate) if rate.ndim == 0 else rate


def second_order_loss(occupations, ladder: LevelLadder, bath: BathParams) -> np.ndarray:
    """Net two-quantum exchange loss per level.

    chi sum_j [ n_l (1+n_j) e^((omega_l - omega_j) beta) - n_j (1+n_l) ];
    the exponential factorizes, so the pair sum collapses to two totals.
    """
    n = np.asarray(occupations, dtype=float)
    if n.shape != (ladder.n_levels,):
        raise ValueError("occupations must match the ladder size")
    up = np.exp(ladder.omegas * bath.beta)
    down = np.exp(-ladder.omegas * bath.beta)
    absorb = float((1.0 + n) @ down)  # sum_j (1+n_j) e^(-omega_j beta)
    total = float(n.sum())
    return bath.chi * (n * up * absorb - (1.0 + n) * total)


def amplification_factor(
    occupations, ladder: LevelLadder, bath: BathParams, eta: float | None = None
) -> float:
    """A = (phi + chi sum_j (1+n_j) e^(-omega_j beta)) / (phi + chi eta)."""
    n = np.asarray(occupations, dtype=float)
    if eta is None:
        eta = float(n.sum())
    absorb = float((1.0 + n) @ np.exp(-ladder.omegas * bath.beta))
    return (bath.phi + bath.chi * absorb) / (bath.phi + bath.chi * eta)


def excitation_transfer_supply(s: float, ladder: LevelLadder, bath: BathParams) -> float:
    """Supply-side transfer quantity S = s sum_j e^(-omega_j beta)."""
    return s * float(np.exp(-ladder.omegas * bath.beta).sum())


def excitation_transfer_balance(
    occupations, ladder: LevelLadder, bath: BathParams
) -> float:
    """Balance-side transfer S = phi sum_j [n_j - (1+n_j) e^(-omega_j beta)].

    Independent of chi; agrees with the supply form at any stationary
    point, which is a sharp convergence check.
    """
    n = np.asarray(occupations, dtype=float)
    down = np.exp(-ladder.omegas * bath.beta)
    return bath.phi * float((n - (1.0 + n) * down).sum())


def solve_steady_state(
    ladder: LevelLadder, bath: BathParams, pump: PumpParams
) -> SteadyStateSolution:
    """Stationary occupations for net supply s >= 0.

    The closed-form identity A = 1 - chi S / (phi (phi + chi eta)) with
    the supply-side S reduces the level system to one scalar equation,
    solved by bracketed root finding in the gap g = (omega_{-r} - mu)
    beta (see module docstring).  s = 0 or chi = 0 short-circuits to the
    exact displaced-Planck closed form with A = 1.
    """
    s = pump.s
    if s < 0.0:
        raise ValueError(f"net supply s = p - Q must be >= 0, got {s}")
    if ladder.is_degenerate and bath.chi > 0.0 and s > 0.0:
        raise ValueError(
            "degenerate ladder with chi > 0: level exchange has no energy "
            "scale and the excited-level bound diverges"
        )
    omegas = ladder.omegas
    beta = bath.beta
    transfer = excitation_transfer_supply(s, ladder, bath)
    gap_top = omegas[0] * beta

    if s == 0.0 or bath.chi == 0.0:
        with np.errstate(over="ignore"):
            occupations = (1.0 + s / bath.phi) / np.expm1(omegas * beta)
        if occupations[0] == 0.0:
            raise ConvergenceError(
                f"omega_-r beta = {gap_top:.6g} exceeds ln(DBL_MAX): "
                "e^(omega beta) overflows and every occupation underflows to 0"
            )
        eta = float(occupations.sum())
        log_a = 0.0
    else:
        if bath.chi * transfer < bath.phi**2 * np.finfo(float).eps:
            # state() recovers phi + chi eta by subtracting phi, which
            # then cancels to exactly 0 for every gap
            raise ConvergenceError(
                f"omega_-r beta = {gap_top:.6g}, chi S / phi^2 = "
                f"{bath.chi * transfer / bath.phi**2:.3g} is below machine "
                "epsilon: the root lies closer to the pole than the gap "
                "variable can resolve"
            )
        level_gaps = (omegas - omegas[0]) * beta

        def state(g: float) -> tuple[float, np.ndarray]:
            # x = chi S / (phi (phi + chi eta)) = 1 - e^(g - gap_top)
            x = -math.expm1(g - gap_top)
            eta = (bath.chi * transfer / (bath.phi * x) - bath.phi) / bath.chi
            k = 1.0 + s / (bath.phi + bath.chi * eta)
            return eta, k / np.expm1(level_gaps + g)

        def closure(g: float) -> float:
            eta, occupations = state(g)
            return float(occupations.sum()) - eta

        lo = gap_top * 1e-18
        f_lo = closure(lo)
        while f_lo <= 0.0:  # pragma: no cover - pathological scales
            lo *= 1e-3
            if lo < 1e-280:
                raise ConvergenceError("no admissible bracket below the pole")
            f_lo = closure(lo)
        hi = gap_top * (1.0 - 1e-15)
        f_hi = closure(hi)
        if f_hi >= 0.0:
            raise ConvergenceError(
                "no root: total occupation cannot match the supply inside "
                f"the admissible gap (0, {gap_top})"
            )
        gap = _brentq(
            closure, lo, hi, f_lo, f_hi, xtol=1e-30, rtol=8.9e-16, maxiter=200
        )
        eta, occupations = state(gap)
        log_a = gap - gap_top

    eta_sum = float(occupations.sum())
    l1 = first_order_loss(occupations, omegas, bath)
    l2 = second_order_loss(occupations, ladder, bath)
    return SteadyStateSolution(
        ladder=ladder,
        bath=bath,
        pump=pump,
        occupations=occupations,
        amplification=math.exp(log_a),
        mu=0.0 - log_a / beta,
        eta=eta_sum,
        s_supply=transfer,
        s_balance=excitation_transfer_balance(occupations, ladder, bath),
        max_residual=float(np.abs(s - l1 - l2).max()),
        eta_closure=abs(eta - eta_sum),
    )


def _brentq(f, xa, xb, fa, fb, xtol, rtol, maxiter):
    """Root of f in [xa, xb], given fa = f(xa) and fb = f(xb) of opposite signs.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) as scipy implements it in scipy/optimize/Zeros/brentq.c: the
    same secant / inverse-quadratic / bisection choice and the same float
    operations in the same order, so the root is bit-identical to
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol,
    maxiter=maxiter)``.  A NaN value of f or running out of iterations
    raises ConvergenceError naming the gap bracket.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = fa, fb
    if math.isnan(fpre) or math.isnan(fcur):
        raise ConvergenceError(
            f"closure is NaN at the ends of the gap bracket [{xpre!r}, {xcur!r}]"
        )
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for i in range(1, maxiter + 1):
        if (
            fpre != 0.0
            and fcur != 0.0
            and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (
                        dblk * dpre * (fblk - fpre)
                    )
            except ZeroDivisionError:
                # C's x/0 is inf or NaN, and either fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ConvergenceError(
                f"closure is NaN at gap {xcur!r} after {i} Brent iterations "
                f"inside the gap bracket [{min(xpre, xblk)!r}, {max(xpre, xblk)!r}]"
            )
    raise ConvergenceError(
        f"Brent iteration did not converge in {maxiter} iterations: gap "
        f"bracket [{min(xcur, xblk)!r}, {max(xcur, xblk)!r}]"
    )


def eta_thermal(ladder: LevelLadder, bath: BathParams) -> float:
    """Equilibrium total occupancy: sum of Planck occupations."""
    return float(planck_occupation(ladder.omegas, bath.beta).sum())


def eta_thermal_effective(n_levels: int, omega_bar: float, beta: float) -> float:
    """Single-frequency estimate (2r+1) / (e^(omega_bar beta) - 1)."""
    return n_levels * planck_occupation(omega_bar, beta)


def noncondensate_bound(
    s: float, ladder: LevelLadder, bath: BathParams
) -> NoncondensateBound:
    """Largest excited-level total compatible with mu < omega_{-r}.

    Solves n (phi + chi n) / (phi + chi n + s) = B for n, where B sums
    the Planck occupations of the excited levels at their gap to the
    bottom level; grows like sqrt(B s / chi) at large s.
    """
    if s < 0.0:
        raise ValueError("supply must be >= 0")
    if ladder.n_levels < 2:
        raise ValueError("bound needs at least one excited level")
    gaps = ladder.omegas[1:] - ladder.omegas[0]
    if np.any(gaps * bath.beta <= 0.0):
        raise ValueError(
            "degenerate ladder: an excited level sits at the bottom energy, "
            "the bound diverges"
        )
    b_sum = float(planck_occupation(gaps, bath.beta).sum())
    if bath.chi == 0.0:
        bound = b_sum * (1.0 + s / bath.phi)
        asymptote = math.inf
    else:
        # chi n^2 + (phi - B chi) n - B (phi + s) = 0, positive root
        half_b = 0.5 * (bath.phi - b_sum * bath.chi)
        bound = (
            -half_b + math.sqrt(half_b * half_b + bath.chi * b_sum * (bath.phi + s))
        ) / bath.chi
        asymptote = math.sqrt(b_sum * s / bath.chi)
    return NoncondensateBound(bound=bound, b_sum=b_sum, asymptote=asymptote)


def fit_mean_frequency(
    s_ref: float, eta_ref: float, eta_t: float, ladder: LevelLadder, bath: BathParams
) -> float:
    """Effective level frequency reproducing one solver point.

    Inverts eta = eta_T + (2r+1) s / (phi (e^(omega_bar beta) - 1)) for
    omega_bar, given eta_T = eta_thermal(ladder, bath); a physically
    consistent fit lands inside [omega_{-r}, omega_r] (callers flag it
    otherwise).
    """
    if s_ref <= 0.0:
        raise ValueError("reference supply must be positive")
    excess = eta_ref - eta_t
    if excess <= 0.0:
        raise ValueError("reference point shows no occupation above equilibrium")
    return (
        math.log1p(ladder.n_levels * s_ref / (bath.phi * excess)) / bath.beta
    )


def total_occupancy_prediction(
    s: float, ladder: LevelLadder, bath: BathParams, omega_bar: float
) -> float:
    """Linear-growth estimate eta_T + (2r+1) s / (phi (e^(omega_bar beta) - 1))."""
    return eta_thermal(ladder, bath) + s / bath.phi * eta_thermal_effective(
        ladder.n_levels, omega_bar, bath.beta
    )


def condensate_prediction(
    s: float,
    eta_t: float,
    eta_n: float,
    bath: BathParams,
    ladder: LevelLadder,
    omega_bar: float,
) -> float:
    """Ground-level estimate eta_T - eta_n + (2r+1) s / (phi (e^(omega_bar beta) - 1))."""
    return eta_t - eta_n + s / bath.phi * eta_thermal_effective(
        ladder.n_levels, omega_bar, bath.beta
    )


def threshold_supply(eta_t: float, b_sum: float, bath: BathParams) -> ThresholdEstimate:
    """Closed-form threshold s0 = (phi/eta_T^2) (eta_T + 2 phi/chi)(2B - eta_T).

    A non-positive bracket (2B <= eta_T) means the excited levels cannot
    even hold the equilibrium population: condensation is immediate and
    the estimate is flagged, never clamped.
    """
    if not eta_t > 0.0:
        raise ValueError("equilibrium occupancy must be positive")
    if not bath.chi > 0.0:
        raise ValueError("threshold needs chi > 0 (no condensation otherwise)")
    s0 = (bath.phi / eta_t**2) * (eta_t + 2.0 * bath.phi / bath.chi) * (
        2.0 * b_sum - eta_t
    )
    return ThresholdEstimate(s0=s0, b_sum=b_sum, immediate=not s0 > 0.0)


def sweep_supply(
    ladder: LevelLadder, bath: BathParams, supplies
) -> list[SteadyStateSolution | Exception]:
    """Solve the steady state at each supply value (independent solves).

    A point whose solve raises does not stop the sweep: its exception
    takes the place of its solution in the returned list.
    """
    solutions: list[SteadyStateSolution | Exception] = []
    for s in supplies:
        try:
            solutions.append(
                solve_steady_state(ladder, bath, PumpParams.from_supply(float(s)))
            )
        except Exception as exc:  # noqa: BLE001 - isolate the point
            solutions.append(exc)
    return solutions


def detect_condensation_knee(s_values, condensate_fractions) -> float:
    """Supply at which the condensate fraction crosses half of its rise.

    The fraction climbs monotonically from its equilibrium value to near
    one; the knee is read off by log-interpolating the crossing of the
    midpoint between the first and last sweep values.  Deterministic, but
    not grid-independent: the midpoint moves with the fractions at the
    grid's two ends.  At r = 5, omega = 1, kappa = 0.1, c_ref = 100,
    beta = phi = 1, chi = 0.1, knee/s0 reads 0.574 on the default
    threshold grid, 0.552 with its top end one decade lower, and 0.614
    on 20 points from s0/10 to 100 s0.
    """
    s = np.asarray(s_values, dtype=float)
    f = np.asarray(condensate_fractions, dtype=float)
    if s.shape != f.shape or s.size < 3:
        raise ValueError("need matching s and fraction arrays with >= 3 points")
    mask = s > 0.0
    s = s[mask]
    f = f[mask]
    target = 0.5 * (f[0] + f[-1])
    above = np.flatnonzero(f >= target)
    if above.size == 0 or above[0] == 0:
        raise ValueError("no midpoint crossing inside the sweep")
    hi = above[0]
    lo = hi - 1
    x_lo, x_hi = math.log(s[lo]), math.log(s[hi])
    w = (target - f[lo]) / (f[hi] - f[lo])
    return math.exp(x_lo + w * (x_hi - x_lo))
