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

The self-consistency collapses to one scalar equation in the gap g =
(omega_{-r} - mu) beta, 0 < g < omega_{-r} beta.  Where 1 - A = chi S /
(phi (phi + chi eta)) is below eps (chi S < phi^2 eps, s = 0 and chi = 0
among them) or the root lies past the gap bracket's top end (1 - A below
about 1e-15 omega_{-r} beta), it is a quadratic in eta with a closed root,
off by about 1 - A; below the low end (g < 1e-18 omega_{-r} beta, huge
supplies) 1/expm1(g) = 1/g - 1/2 + O(g) gives g in closed form.  In between,
g -> eta is monotone, and occupations through expm1 of (omega_l - omega_{-r})
beta + g stay accurate near the condensation pole, where eta-space iteration
loses digits.  The solve carries the pair (g, mu beta), which sums to
omega_{-r} beta, and takes neither half as the other's difference: each
Newton iterate forms both from t = log(g / mu beta), and a root's larger half
is re-formed from its smaller, which holds the digits.  ``solve_supply_grid``
solves a whole grid in one array kernel: from the sign of log(T / S), the closure's
cancellation-free form, at the bracket ends it answers each point past either end in
closed form, takes safeguarded Newton steps on log(T / S) = 0 for the rest at once,
and returns one ``SteadyStateGrid``; ``solve_steady_state`` is its one-point call.

Only ``ladder_from_spectrum`` needs block spectra, so ``spectrum`` is
imported there and not at module load: a run on an analytic ladder
never loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np

from . import ConvergenceError, undouble

if TYPE_CHECKING:  # annotations only; the spectral-ladder builders import it themselves
    from . import spectrum

__all__ = [
    "LevelLadder",
    "BathParams",
    "PumpParams",
    "SteadyStateGrid",
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
    "solve_supply_grid",
    "eta_thermal",
    "eta_thermal_effective",
    "noncondensate_bound",
    "fit_mean_frequency",
    "total_occupancy_prediction",
    "condensate_prediction",
    "threshold_supply",
    "detect_condensation_knee",
]


class LevelLadder(namedtuple("LevelLadder", "omegas")):
    """Ascending level energies omega_j, j = -r..r (2r+1 of them).

    A degenerate (flat) ladder is a legal zero-coupling limit; operations
    that would divide by the level splitting reject it explicitly.  The
    ladder keeps a read-only copy of the levels, so they stay as checked.
    """

    __slots__ = ()

    def __new__(cls, omegas):
        om = np.array(omegas, dtype=float)
        if om.ndim != 1 or om.size < 1:
            raise ValueError(f"need a 1-d non-empty level array, got shape {om.shape}")
        if np.any(om <= 0.0):
            raise ValueError("all level energies must be positive")
        if np.any(np.diff(om) < 0.0):
            raise ValueError("level energies must be ascending")
        om.setflags(write=False)
        return super().__new__(cls, om)

    @property
    def is_degenerate(self) -> bool:
        return bool(np.any(np.diff(self.omegas) == 0.0))

    @property
    def n_levels(self) -> int:
        return self.omegas.size

    @property
    def two_r(self) -> int:
        return self.omegas.size - 1

    @property
    def bottom(self) -> float:
        return float(self.omegas[0])


class BathParams(namedtuple("BathParams", "beta phi chi")):
    """Bath inverse temperature and its one- and two-quantum couplings."""

    __slots__ = ()

    def __new__(cls, beta: float, phi: float, chi: float):
        if not beta > 0.0:
            raise ValueError(f"bath beta must be positive, got {beta}")
        if not phi > 0.0:
            raise ValueError(f"first-order coupling phi must be positive, got {phi}")
        if chi < 0.0:
            raise ValueError(f"second-order coupling chi must be >= 0, got {chi}")
        return super().__new__(cls, beta, phi, chi)


class PumpParams(namedtuple("PumpParams", "p q")):
    """Per-level pump p and cavity loss Q; only s = p - Q drives the state."""

    __slots__ = ()

    def __new__(cls, p: float, q: float):
        if p < 0.0 or q < 0.0:
            raise ValueError("pump and loss rates must be >= 0")
        return super().__new__(cls, p, q)

    @property
    def s(self) -> float:
        return self.p - self.q

    @classmethod
    def from_supply(cls, s: float) -> "PumpParams":
        return cls(p=s, q=0.0)


# the fields of SteadyStateGrid that hold one entry per point
_COLUMNS = (
    "s", "scale", "occupations", "gap", "amplification", "mu", "eta",
    "s_supply", "s_balance", "max_residual", "eta_closure",
)


class SteadyStateGrid(namedtuple("SteadyStateGrid", ("ladder", "bath", *_COLUMNS, "errors"))):
    """Stationary states at every supply of a grid, one row per supply.

    Row i belongs to ``s[i]``.  A point whose solve was refused or failed
    keeps its exception in ``errors[i]`` and NaN in every column but ``s``
    and ``scale``.  ``solution(i)`` is row i as a grid of its own: each
    field in _COLUMNS holds entry i (a scalar, and one level vector of
    occupations), ``errors`` is None, and the derived quantities and the
    converged gate read the same on a row as on the grid.

    The columns besides ``s`` and the (points, levels) ``occupations``:
    ``scale``, the p of the residual gate (the pump rate, s at a sweep
    point); ``gap`` = (omega_{-r} - mu) beta; ``amplification``, ``mu``
    and ``eta``; the excitation transfer ``s_supply`` from the supply side
    and ``s_balance`` from the occupation balance; ``max_residual``, the
    max over levels of |s - L1 - L2|; and ``eta_closure``, |eta -
    sum(occupations)| of the scalar reduction.
    """

    __slots__ = ()

    @property
    def n_c(self):
        return self.occupations[..., 0]

    @property
    def n_n(self):
        return self.occupations[..., 1:].sum(axis=-1)

    @property
    def condensate_fraction(self):
        return self.n_c / self.eta

    def converged(self):
        """Residual < 1e-8 max(p, phi) and closure < 1e-10 eta, per point."""
        tol = 1e-8 * np.maximum(self.scale, self.bath.phi)
        return (self.max_residual < tol) & (self.eta_closure < 1e-10 * self.eta)

    def solution(self, i: int) -> SteadyStateGrid:
        """Row i; raises the point's error if it has one."""
        if self.errors[i] is not None:
            raise self.errors[i]
        row = {name: getattr(self, name)[i] for name in _COLUMNS}
        return SteadyStateGrid(ladder=self.ladder, bath=self.bath, errors=None, **row)


class NoncondensateBound(namedtuple("NoncondensateBound", "bound b_sum asymptote")):
    """Cap ``bound`` on the excited-level total n_n implied by mu < omega_{-r}.

    ``b_sum`` is B, the sum over excited levels of Planck at the gap to the
    bottom level; ``asymptote`` the large-s growth sqrt(B s / chi) (inf when
    chi == 0).
    """

    __slots__ = ()


class ThresholdEstimate(namedtuple("ThresholdEstimate", "s0 immediate")):
    """Closed-form threshold supply s0; flagged when the bracket is negative.

    ``immediate`` means 2B <= eta_T: no sub-threshold window, the formula
    goes <= 0.
    """

    __slots__ = ()


def ladder_analytic(two_r: int, omega: float, kappa: float, c_ref: float) -> LevelLadder:
    """Evenly split ladder omega_j = omega (1 + j |kappa| / sqrt(c_ref))."""
    if two_r < 0:
        raise ValueError(f"r must be >= 0, got r = {undouble(two_r)}")
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
    return LevelLadder(omegas)


def ladder_from_spectrum(
    two_r: int, two_c: int, kappa: float, omega: float
) -> LevelLadder:
    """Level frequencies from exact block spectra.

    The frequency of level j is the energy a block gains when one more
    quantum enters it, i.e. the difference of lambda_j between the blocks
    at c+1 and c (in mode-quantum units, scaled by omega).  Every block's
    diagonal is exactly c, so lambda_j = c + mu_j with mu the spectrum of
    the zero-diagonal block H - c I, and omega_j = omega (1 + mu_j(c+1) -
    mu_j(c)): the difference never cancels two eigenvalues of size c, and
    the eigensolver's relative accuracy applies to mu, whose scale is the
    coupling.  Deep in the collective regime this reproduces
    omega (1 + j |kappa| / sqrt(c)).  Requires complete blocks (c >= r) so
    the 2r+1 levels line up.
    """
    if not omega > 0.0:
        raise ValueError("mode frequency must be positive")
    if two_c < two_r:
        raise ValueError(
            f"spectral ladder needs a complete block (c >= r), got "
            f"c = {undouble(two_c)}, r = {undouble(two_r)}"
        )
    from . import spectrum

    lower = _shifted_eigenvalues(spectrum.BlockIndex(two_r, two_c, kappa))
    upper = _shifted_eigenvalues(spectrum.BlockIndex(two_r, two_c + 2, kappa))
    omegas = omega * (1.0 + (upper - lower))
    if np.any(omegas <= 0.0):
        raise ValueError("spectral ladder produced a non-positive level energy")
    return LevelLadder(np.sort(omegas))


def _shifted_eigenvalues(index: spectrum.BlockIndex) -> np.ndarray:
    """Ascending spectrum mu of H - c I on one block (the diagonal is exactly c)."""
    from . import spectrum

    block = spectrum.build_block(index)
    return spectrum.block_eigenvalues(
        block._replace(diagonal=np.zeros(block.basis.dim))
    )


def planck_occupation(omega, beta: float):
    """Equilibrium occupation 1 / (e^(omega beta) - 1), shaped like omega.

    Past omega beta = 709.78 it is e^(-omega beta): a subnormal double up to
    744.4, and 0 only beyond.
    """
    x = np.asarray(omega, dtype=float) * beta
    if np.any(x <= 0.0):
        raise ValueError("omega * beta must be positive")
    return _planck(x)


# ln(DBL_MAX) = 709.7827, rounded down: below it, e^x is a double
_PLANCK_CUT = 709.78


def _planck(x, k=1.0):
    """k / (e^x - 1), broadcast over x and k: k / expm1(x) up to x = 709.78, k e^(-x) past it.

    Past the cut the two agree to a factor 1 + e^(-709), and e^(-x) is still a
    double up to x = 744.4.  k e^(-x) is formed as (k e^(-x/2)) e^(-x/2): below
    x = 1416 each factor is normal wherever the term is, where e^(-x) alone
    would be a subnormal that loses k's digits.
    """
    if x.max(initial=0.0) <= _PLANCK_CUT:
        return k / np.expm1(x)
    half = np.exp(-0.5 * x)
    return np.where(x > _PLANCK_CUT, k * half * half, k / np.expm1(np.minimum(x, _PLANCK_CUT)))


def first_order_loss(occupation, omega, bath: BathParams):
    """Net one-quantum loss to the bath: phi (n e^(omega beta) - (1 + n)).

    Shaped like the broadcast of occupation and omega.
    """
    n = np.asarray(occupation, dtype=float)
    return bath.phi * (n * np.exp(np.asarray(omega) * bath.beta) - (1.0 + n))


def second_order_loss(occupations, ladder: LevelLadder, bath: BathParams) -> np.ndarray:
    """Net two-quantum exchange loss per level, of one or stacked occupations.

    chi sum_j [ n_l (1+n_j) e^((omega_l - omega_j) beta) - n_j (1+n_l) ];
    the exponential factorizes, so the pair sum collapses to two totals
    along the last (level) axis.  At chi = 0 every term vanishes, and the
    zeros are returned exactly: chi times a product that overflows at
    occupations past about 1e154 would read 0 * inf = NaN.
    """
    n = np.asarray(occupations, dtype=float)
    if n.ndim not in (1, 2) or n.shape[-1] != ladder.n_levels:
        raise ValueError("occupations must match the ladder size")
    if bath.chi == 0.0:
        return np.zeros_like(n)
    up = np.exp(ladder.omegas * bath.beta)
    down = np.exp(-ladder.omegas * bath.beta)
    # sum_j (1+n_j) e^(-omega_j beta), one dot per row, each as 1-d @ takes it
    absorb = (1.0 + n)[..., None, :] @ down
    total = n.sum(axis=-1)[..., None]
    return bath.chi * (n * up * absorb - (1.0 + n) * total)


def amplification_factor(occupations, ladder: LevelLadder, bath: BathParams) -> float:
    """A = (phi + chi sum_j (1+n_j) e^(-omega_j beta)) / (phi + chi eta)."""
    n = np.asarray(occupations, dtype=float)
    absorb = float((1.0 + n) @ np.exp(-ladder.omegas * bath.beta))
    return (bath.phi + bath.chi * absorb) / (bath.phi + bath.chi * float(n.sum()))


def excitation_transfer_supply(s, ladder: LevelLadder, bath: BathParams):
    """Supply-side transfer quantity S = s sum_j e^(-omega_j beta), shaped like s."""
    return s * np.exp(-ladder.omegas * bath.beta).sum()


def excitation_transfer_balance(occupations, ladder: LevelLadder, bath: BathParams):
    """Balance-side transfer S = phi sum_j [n_j - (1+n_j) e^(-omega_j beta)].

    One value per row of occupations (the last axis is the level axis).
    Independent of chi; agrees with the supply form at any stationary
    point, which is a sharp convergence check.
    """
    n = np.asarray(occupations, dtype=float)
    down = np.exp(-ladder.omegas * bath.beta)
    return bath.phi * (n - (1.0 + n) * down).sum(axis=-1)


def solve_steady_state(
    ladder: LevelLadder, bath: BathParams, pump: PumpParams
) -> SteadyStateGrid:
    """Stationary state for net supply s = p - Q >= 0, as one grid row.

    The one-point call of ``solve_supply_grid``, gated at the pump rate p
    (the row's ``scale``); a refused or failed solve raises its error.
    """
    return solve_supply_grid(ladder, bath, [pump.s], scale=[pump.p]).solution(0)


# ends of the admissible gap bracket, as fractions of omega_{-r} beta
_GAP_BRACKET = (1e-18, 1.0 - 1e-15)
_MAX_ITERATIONS = 200
_EPS = float(np.finfo(float).eps)
_DBL_MIN = float(np.finfo(float).tiny)  # the least normal double, 2.2e-308
# (points x levels) entries per array pass: bounds the kernel's temporaries
_BLOCK = 2**15


def solve_supply_grid(
    ladder: LevelLadder, bath: BathParams, supplies, scale=None
) -> SteadyStateGrid:
    """Stationary occupations at every net supply s >= 0 of a grid, at once.

    The closed-form identity A = 1 - chi S / (phi (phi + chi eta)) with
    the supply-side S reduces the level system to one scalar closure per
    point, sum(occupations) - eta (see module docstring).  Unless chi S <
    phi^2 eps, its sign is taken at the ends of _GAP_BRACKET in the gap g =
    (omega_{-r} - mu) beta, from log(T / S).  Where A rounds to 1 or the root lies past
    the top end, ``_closed_state`` answers, below the low end ``_pole_gap``;
    the bracket's roots are found at once by safeguarded Newton steps
    (``_newton_step``).  ``scale`` is each point's residual-gate pump p (default s).
    A point that is refused or fails keeps its exception in ``errors``.

    A grid of one point takes the same path, and a long grid goes in blocks
    of at most _BLOCK (points x levels) entries, with the same bits.
    """
    s = np.array(supplies, dtype=float).reshape(-1)
    scale = s if scale is None else np.array(scale, dtype=float).reshape(-1)
    points = max(1, _BLOCK // ladder.n_levels)
    if s.size <= points:
        return _solve_points(ladder, bath, s, scale)
    blocks = [
        _solve_points(ladder, bath, s[i : i + points], scale[i : i + points])
        for i in range(0, s.size, points)
    ]
    columns = {
        name: np.concatenate([getattr(block, name) for block in blocks])
        for name in _COLUMNS
    }
    errors = sum((block.errors for block in blocks), ())
    return SteadyStateGrid(ladder=ladder, bath=bath, errors=errors, **columns)


def _solve_points(ladder, bath, s, scale) -> SteadyStateGrid:
    """One pass of ``solve_supply_grid``: refuse, close or root-find each point."""
    omegas = ladder.omegas
    eta_root = np.full_like(s, math.nan)  # eta of the scalar reduction
    occupations = np.full((s.size, omegas.size), math.nan)
    gap_top = omegas[0] * bath.beta
    level_gaps = (omegas - omegas[0]) * bath.beta
    degenerate = ladder.is_degenerate and bath.chi > 0.0  # every s > 0 is refused
    with np.errstate(over="ignore", invalid="ignore"):  # _refusals names an S that overflows
        transfer = excitation_transfer_supply(s, ladder, bath)
        closed = bath.chi * transfer <= bath.phi**2 * _EPS  # 1 - A < eps; False at 0 * inf
    ends = np.full((2, s.size), math.nan)  # log(T / S) at the ends of _GAP_BRACKET
    bracket = (~closed & np.isfinite(transfer)).nonzero()[0]
    if bracket.size and not degenerate:
        g = gap_top * np.array(_GAP_BRACKET)[:, None]
        # sign tests, derivative unused: an overflowing k or Planck term gives T = inf,
        # and phi / S that underflows gives log(0) = -inf, each of the closure's sign
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ends[:, bracket] = _log_ratio(
                g, gap_top - g, s[bracket], transfer[bracket], level_gaps, bath
            )[0]
        closed[bracket] = ends[1, bracket] >= 0.0  # past the top end, 1 - A < 1e-15 omega_-r beta
    with np.errstate(over="ignore", invalid="ignore"):  # and closed occupations that do
        if closed.any():
            eta_root[closed], occupations[closed] = _closed_state(s[closed], omegas, bath)
    eta = occupations.sum(axis=-1)  # of the closed rows
    errors, refused = _refusals(s, transfer, closed, eta, degenerate, ladder, bath)
    gap = np.full_like(s, gap_top)
    mu_beta = np.zeros_like(s)  # a closed row has A = 1
    solve = (~refused & ~closed).nonzero()[0]
    if solve.size:
        s_j, transfer_j = s[solve], transfer[solve]
        pair, failures = _find_gaps(s_j, transfer_j, *ends[:, solve], level_gaps, gap_top, bath)
        gap[solve], mu_beta[solve] = pair
        eta_root[solve], occupations[solve] = _gap_state(*pair, s_j, transfer_j, level_gaps, bath)
        for j, error in failures.items():
            errors[solve[j]] = error
    failed = [i for i, error in enumerate(errors) if error is not None]
    occupations[failed] = np.nan
    gap[failed] = mu_beta[failed] = np.nan
    transfer[failed] = np.nan
    return _grid(ladder, bath, s, scale, transfer, occupations, gap, mu_beta, eta_root, errors)


def _positive_root(p_sum, s, bath: BathParams):
    """Positive root n of chi n^2 + (phi - chi P) n - (phi + s) P = 0, P = ``p_sum``.

    Neither branch cancels and no square overflows.  At chi = 0, b = phi - chi P
    and h = hypot(b, ...) both equal phi, so the root is exactly P (1 + s/phi).
    """
    b = bath.phi - bath.chi * p_sum
    h = np.hypot(b, 2.0 * math.sqrt(bath.chi * p_sum) * np.sqrt(bath.phi + s))
    if b >= 0.0:
        return p_sum * (1.0 + s / bath.phi) * (2.0 * bath.phi / (b + h))
    return (h - b) / (2.0 * bath.chi)


def _closed_state(s, omegas, bath: BathParams):
    """eta, ``_positive_root`` at P = sum_l 1/expm1(omega_l beta), and occupations
    k / expm1(omega_l beta), k = 1 + s/(phi + chi eta), at A = 1."""
    x = omegas * bath.beta
    eta = _positive_root(float(_planck(x).sum()), s, bath)
    return eta, _planck(x, (1.0 + s / (bath.phi + bath.chi * eta))[:, None])


def _grid(ladder, bath, s, scale, transfer, occupations, gap, mu_beta, eta_root, errors):
    """The grid's columns from each point's occupations, gap g and mu beta."""
    omegas = ladder.omegas
    eta = occupations.sum(axis=-1)
    log_a = -mu_beta
    amplification = np.exp(log_a)
    # past omega beta = 709.78 the losses take e^(omega beta) = inf times the
    # occupation: an inf residual, or NaN (0 * inf) where the occupation
    # underflowed to 0, and no warning
    with np.errstate(over="ignore", invalid="ignore"):
        l1 = first_order_loss(occupations, omegas, bath)
        l2 = second_order_loss(occupations, ladder, bath)
        residual = np.abs(s[:, None] - l1 - l2).max(axis=-1)
        redo = (~np.isfinite(residual) & ~np.isnan(gap)).nonzero()[0]
        if redo.size:
            # there n_l e^(omega_l beta) = k / (A (1 - e^(-x_l))) is finite,
            # with x_l = (omega_l - omega_-r) beta + g
            n = occupations[redo]
            k = 1.0 + s[redo] / (bath.phi + bath.chi * eta_root[redo])
            x = np.add.outer(gap[redo], (omegas - omegas[0]) * bath.beta)
            n_up = k[:, None] / (amplification[redo, None] * -np.expm1(-x))
            absorb = (1.0 + n) @ np.exp(-omegas * bath.beta)
            l1 = bath.phi * (n_up - (1.0 + n))
            l2 = bath.chi * (n_up * absorb[:, None] - (1.0 + n) * eta[redo, None])
            residual[redo] = np.abs(s[redo, None] - l1 - l2).max(axis=-1)
    return SteadyStateGrid(
        ladder=ladder,
        bath=bath,
        s=s,
        scale=scale,
        occupations=occupations,
        gap=gap,
        amplification=amplification,
        mu=0.0 - log_a / bath.beta,
        eta=eta,
        s_supply=transfer,
        s_balance=excitation_transfer_balance(occupations, ladder, bath),
        max_residual=residual,
        eta_closure=np.abs(eta_root - eta),
        errors=tuple(errors),
    )


def _refusals(s, transfer, closed, eta, degenerate, ladder: LevelLadder, bath: BathParams):
    """The error each point is refused with before any root find, or None.

    Returns the errors and the refused mask.  ``eta`` sums each ``closed``
    point's closed-form occupations; ``degenerate``, a degenerate ladder at chi > 0.
    The rules are checked in order, and the first that holds words the error.
    """
    rules = (
        (s < 0.0, lambda i: ValueError(
            f"net supply s = p - Q must be >= 0, got {float(s[i])}"
        )),
        (degenerate & (s > 0.0), lambda i: ValueError(
            "degenerate ladder with chi > 0: level exchange has no energy "
            "scale and the excited-level bound diverges"
        )),
        (~np.isfinite(transfer), lambda i: ConvergenceError(
            f"the supply-side transfer S = s sum_j e^(-omega_j beta) overflows "
            f"at s = {float(s[i])}: the supply is beyond the double range"
        )),
        (closed & (eta < _DBL_MIN), lambda i: ConvergenceError(
            f"every occupation underflows: eta = {float(eta[i]):.6g} is below DBL_MIN = "
            f"{_DBL_MIN:.6g} at omega_-r beta = {ladder.omegas[0] * bath.beta:.6g}"
        )),
        (closed & ~np.isfinite(eta), lambda i: ConvergenceError(
            f"the closed-form occupations (1 + s/phi) / (e^(omega beta) - 1) "
            f"overflow at s = {float(s[i])}: the supply is beyond the double range"
        )),
    )
    refused = np.logical_or.reduce([mask for mask, _ in rules])
    errors = [None] * s.size
    for i in refused.nonzero()[0].tolist():
        errors[i] = next(error(i) for mask, error in rules if mask[i])
    return errors, refused


def _reduction(x, s, transfer, bath: BathParams):
    """eta and k = 1 + s/(phi + chi eta) of the scalar reduction at x = 1 - A > 0.

    Both take phi + chi eta as chi S / (phi x), from x = chi S / (phi (phi + chi eta)),
    never from eta, which cancels.  ``_closed_state`` and ``_grid`` take k from their
    eta instead: at A = 1, x = 0.
    """
    total = bath.chi * transfer / (bath.phi * x)  # phi + chi eta
    return (total - bath.phi) / bath.chi, 1.0 + s / total


def _gap_state(g, mu_beta, s, transfer, level_gaps, bath: BathParams):
    """eta and occupations of the scalar reduction at the gap pair (g, mu beta)."""
    eta, k = _reduction(-np.expm1(-mu_beta), s, transfer, bath)
    return eta, _planck(np.add.outer(g, level_gaps), k[..., None])


def _log_ratio(g, mu_beta, s, transfer, level_gaps, bath: BathParams):
    """log(T / S) and its derivative in g at the gap pair (g, mu beta) of each point.

    The closure's root solves T = S with T = phi x (k Phi(g) + phi/chi),
    x = 1 - e^(-mu beta), k from ``_reduction`` and Phi(g) =
    sum_l 1/expm1(level_gap_l + g).  T - S = phi x (sum(occupations) - eta),
    so log(T / S) has the closure's sign.  Every term is positive, so nothing
    cancels, and log T is close to linear in t = log(g / mu beta) at both
    ends of the gap range.
    """
    x = -np.expm1(-mu_beta)
    planck = _planck(np.add.outer(g, level_gaps))
    phi_sum = planck.sum(axis=-1)
    k = _reduction(x, s, transfer, bath)[1]
    w = k * phi_sum + bath.phi / bath.chi
    squares = (planck[..., None, :] @ planck[..., :, None])[..., 0, 0]
    dh_dg = (x - 1.0) / x * (1.0 + (k - 1.0) * phi_sum / w) - k * (
        phi_sum + squares
    ) / w
    return np.log(x * w * (bath.phi / transfer)), dh_dg


def _newton_step(t, t_lo, t_hi, g, mu_beta, h, dh_dg, gap_top, where):
    """Newton step on log(T / S) = 0 in t, kept inside the bracket [t_lo, t_hi].

    The sign of log(T / S) at t moves one end of the bracket; a step that
    would leave it bisects it.  Returns the next t, the bracket, the root
    pair (g + step, mu beta - step) and whether the step was below 1e-12 in
    t or one float in the smaller half, where Newton has nothing to gain.
    """
    t_lo = where(h > 0.0, t, t_lo)
    t_hi = where(h < 0.0, t, t_hi)
    g_step = -h / dh_dg
    t_step = g_step * gap_top / (g * mu_beta)  # dt/dg = gap_top / (g mu beta)
    t_next = t + t_step
    t = where((t_next > t_lo) & (t_next < t_hi), t_next, 0.5 * (t_lo + t_hi))
    done = (abs(t_step) <= 1e-12) | (abs(g_step) <= np.spacing(np.minimum(g, mu_beta)))
    return t, t_lo, t_hi, (g + g_step, mu_beta - g_step), done


def _pick(condition, if_true, if_false):
    """np.where for one point."""
    return if_true if condition else if_false


def _pole_gap(s, transfer, level_gaps, gap_top, bath: BathParams):
    """Root g below _GAP_BRACKET's low end, from 1/expm1(g) = 1/g - 1/2 + O(g):
    g = k / (eta - k (P - 1/2)), with eta and k from ``_reduction`` at g = 0 and P the
    excited levels' sum of 1/expm1(level_gap_l + g), taken at g = 0 and again at that first g."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses those points
        eta, k = _reduction(-np.expm1(-gap_top), s, transfer, bath)
        g = 0.0
        for _ in range(2):
            g = k / (eta - k * (_planck(np.add.outer(g, level_gaps[1:])).sum(-1) - 0.5))
    return np.where(g > 0.0, g, np.nan)  # NaN where eta or k overflowed


def _find_gaps(s, transfer, f_lo, f_hi, level_gaps, gap_top, bath: BathParams):
    """Root pair (g, mu beta) of each point's closure, NaN where it fails, and {point: error}.

    ``f_lo`` and ``f_hi`` are log(T / S) at the ends of _GAP_BRACKET, f_hi < 0 or NaN;
    ``_pole_gap`` answers f_lo <= 0.  Each Newton iterate forms both halves from t;
    once it stops, a root's larger half is re-formed as gap_top minus the smaller,
    which holds the digits.  Only active points are evaluated.  A single point
    entering the loop steps on numpy scalars, with ``_pick`` for np.where: the same
    bits at a fraction of the cost.  A grid's last active point stays a 1-element array.
    """
    failures: dict[int, ConvergenceError] = {}

    def fail(mask, message):
        for i in mask.nonzero()[0].tolist():
            failures[i] = ConvergenceError(message(i))

    lo, hi = (gap_top * end for end in _GAP_BRACKET)
    top = gap_top - hi  # mu beta at hi, exact: hi is within a factor 2 of gap_top
    roots = np.full((2, s.size), np.nan)  # the rows g and mu beta
    pole = f_lo <= 0.0  # the root lies below the low end
    if pole.any():
        g = _pole_gap(s[pole], transfer[pole], level_gaps, gap_top, bath)
        roots[:, pole] = g, gap_top - g
        fail(pole & np.isnan(roots[0]), lambda i: (
            f"the near-pole occupations overflow at s = {float(s[i])}: beyond the double range"
        ))
    newton = (f_lo > 0.0) & (f_hi < 0.0)
    fail(~(pole | newton), lambda i: (
        f"closure is NaN at the ends of the gap bracket [{float(lo)!r}, {hi!r}]"
    ))
    j = newton.nonzero()[0]
    lone = j.size == 1
    at = j[0] if lone else j
    # Newton runs in t = log(g / mu beta), inside the bracket [t_lo, t_hi]
    t_lo = np.log(np.full_like(s[at], lo) / (gap_top - lo))
    t_hi = math.log(hi / top)
    t = 0.5 * (t_lo + t_hi)
    state = (t, t_lo, t_hi if lone else np.full_like(t, t_hi), s[at], transfer[at])
    for _ in range(_MAX_ITERATIONS):
        if not j.size:
            break
        t, t_lo, t_hi, s_j, transfer_j = state
        g = gap_top / (1.0 + np.exp(-t))
        mu_beta = gap_top / (1.0 + np.exp(t))
        h, dh_dg = _log_ratio(g, mu_beta, s_j, transfer_j, level_gaps, bath)
        t, t_lo, t_hi, root, done = _newton_step(
            t, t_lo, t_hi, g, mu_beta, h, dh_dg, gap_top, _pick if lone else np.where
        )
        state = (t, t_lo, t_hi, s_j, transfer_j)
        if lone and done:
            roots[:, at] = root
            j = j[:0]
        elif not lone and done.any():
            roots[:, j[done]] = [half[done] for half in root]
            j, *state = (v[~done] for v in (j, *state))
    if j.size:
        g_lo, g_hi = (np.reshape(gap_top / (1.0 + np.exp(-end)), -1) for end in state[1:3])
        for k, i in enumerate(j.tolist()):
            failures[i] = ConvergenceError(
                f"Newton iteration did not converge in {_MAX_ITERATIONS} iterations: "
                f"gap bracket [{float(g_lo[k])!r}, {float(g_hi[k])!r}]"
            )
    g, mu_beta = roots
    return np.where(g <= mu_beta, (g, gap_top - g), (gap_top - mu_beta, mu_beta)), failures


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
    bottom level; grows like sqrt(B s / chi) at large s.  n is
    ``_positive_root`` at P = B, exactly B (1 + s/phi) at chi = 0.
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
    bound = float(_positive_root(b_sum, s, bath))
    asymptote = math.sqrt(b_sum * s / bath.chi) if bath.chi > 0.0 else math.inf
    return NoncondensateBound(bound=bound, b_sum=b_sum, asymptote=asymptote)


def fit_mean_frequency(
    s_ref: float, eta_ref: float, eta_t: float, ladder: LevelLadder, bath: BathParams
) -> float:
    """Effective level frequency reproducing one solver point.

    Inverts eta = eta_T + (2r+1) s / (phi (e^(omega_bar beta) - 1)) for
    omega_bar, given eta_T = eta_thermal(ladder, bath); a physically
    consistent fit lands inside [omega_{-r}, omega_r] (callers flag it
    otherwise).  ``cli`` evaluates the same expression inline for every
    point of a sweep; a test holds the two to the same bits.
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
    the estimate is flagged, never clamped.  s0 is taken divided through
    by eta_T, (phi/eta_T)(1 + 2 phi/(chi eta_T))(2B - eta_T), which squares
    nothing.  An s0 that overflows is refused, and so is an eta_T below
    DBL_MIN, a subnormal of a few digits or 0 (from omega_-r beta of about
    708.4 up).
    """
    if not eta_t >= _DBL_MIN:
        raise ValueError(
            f"threshold needs an equilibrium occupancy in the normal double range, but "
            f"eta_T = {eta_t:.6g} is below DBL_MIN = {_DBL_MIN:.6g} at bath.beta = {bath.beta:.6g}"
        )
    if not bath.chi > 0.0:
        raise ValueError("threshold needs chi > 0 (no condensation otherwise)")
    s0 = bath.phi / eta_t * (1.0 + 2.0 * bath.phi / (bath.chi * eta_t)) * (2.0 * b_sum - eta_t)
    if not math.isfinite(s0):
        # eta_T > e^(-omega_-r beta) bounds the bottom level's omega beta
        raise ValueError(
            "threshold supply s0 = (phi/eta_T^2)(eta_T + 2 phi/chi)(2B - eta_T) "
            f"overflows the double range: eta_T = {eta_t:.6g} (omega_-r beta > "
            f"-ln eta_T = {-math.log(eta_t):.6g}), phi/chi = {bath.phi / bath.chi:.6g}"
        )
    return ThresholdEstimate(s0=s0, immediate=not s0 > 0.0)


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
