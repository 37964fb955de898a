"""Command-line surface: spectrum, thermal, steady-state, sweep, threshold.

    lasercond <command> --config run.cfg [--out DIR] [--workers K]

Every run writes its data as CSV (floats at 17 significant digits, so
a rerun of a config at the same BLAS thread count reproduces
byte-identical payloads) plus a ``manifest.json`` echoing the config,
carrying a sha256 checksum for each emitted file, taken from the bytes
as they are written, and ``versions``: the libraries the command
executes, python for ``thermal`` and python and numpy for the other four
(decided by the command, not by what the process has imported).  Every
CSV is written by ``Run.write_csv`` from equal-length columns, each of one
cell type: the cells are interleaved into one flat list and the whole body
is formatted in one pass, by one ``%`` with a line format built once from
the cell types by the ``_fmt`` rule that also formats the ``*.txt``
reports.  ``spectrum`` takes every eigenstate's photon-number
mean and variance from one batched ``spectrum.photon_moments`` pass and
the ground-state distribution from ``spectrum.photon_statistics``.  The
argument parser is built once per process.
Exit status: 0 all solves converged and no flags,
2 computed but flagged (non-converged points, out-of-range fits, ...),
1 errors.

All grid points of a sweep are solved together, in one batched array
solve in this process, by ``condensation.solve_supply_grid``, and the
CSV columns are its arrays as returned, with ``omega_bar_fit`` evaluated
by ``fit_mean_frequency``'s expression per point: a failed point's row
is NaN from ``eta`` to ``resid_max``, as the solver blanks it.  A point's
status is ``failed`` (its solve raised), else ``not-converged`` (it
fails ``converged()``), else ``ok``; ``steady-state`` is its one-point call.
``--workers`` is still accepted and validated (>= 1) but changes nothing:
a process pool measured slower than the in-process solve.  A config that
sets ``workers`` is rejected as an unknown key.

A process ends through ``entry()``, which the ``lasercond`` console script
and ``python -m lasercond.cli`` both call: it runs ``main()``, flushes
stdout and stderr, and leaves by ``os._exit`` with ``main()``'s status,
skipping the interpreter's teardown (mostly its final garbage-collection
pass, 11-40 ms of a child); the cyclic collector is off while ``main()``
runs.  Every output file is written and closed inside ``main()``, which
tests and in-process callers call directly.

At import this module loads the standard library and ``config`` only; it
loads no ``platform`` or ``datetime``, since the manifest takes the python
version from ``sys.version`` and its UTC timestamp from ``time``.  Each
runner imports what it uses: ``thermal`` imports ``lasercond.thermal``
alone, so it never loads numpy; ``spectrum`` imports numpy and
``lasercond.spectrum``; ``steady-state``, ``sweep`` and ``threshold``
import numpy and ``lasercond.condensation``, which loads ``spectrum``
only for a spectral ladder.
``ConvergenceError`` is defined in the package ``__init__``, so ``main``
catches it without loading a numerical layer.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import ConvergenceError, __version__
from .config import COMMANDS, ConfigError, RunConfig, parse_config

if TYPE_CHECKING:  # annotations only; the numeric runners import it themselves
    from . import condensation

SWEEP_HEADER = (
    "s,eta,A,mu,n_c,n_n,cond_frac,S_supply,S_balance,resid_max,omega_bar_fit,status"
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


def _fmt(value) -> str:
    """17-significant-digit float formatting (ints pass through)."""
    if isinstance(value, int):
        return str(int(value))
    return format(float(value), ".17g")


@functools.cache
def _row_format(types: tuple) -> str:
    """One ``%`` format for a CSV line of these cell types, by the ``_fmt`` rule.

    ``'%.17g' % x`` and ``format(x, '.17g')`` share one float-to-string
    path, so nan, inf and -0 read the same either way.
    """
    return ",".join(
        "%s" if issubclass(t, str) else "%d" if issubclass(t, int) else "%.17g"
        for t in types
    ) + "\n"


def _utc_timestamp() -> str:
    """The current UTC time in ISO 8601, to the microsecond, ending ``+00:00``."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + f".{micros:06d}+00:00"


class Run:
    """Collects output files, flags and residuals for one CLI invocation."""

    def __init__(self, config: RunConfig, out_dir: Path):
        self.config = config
        self.out_dir = out_dir
        self.files: list[dict] = []  # manifest entries: name and sha256
        self.flags: list[str] = []
        self.residuals: list[float] = []

    def write_csv(self, name: str, header: str, columns) -> Path:
        """A CSV file from equal-length columns, each of one cell type.

        A column is a sequence, or a numpy array (read through
        ``tolist``).  The cells are interleaved row by row into one flat
        list, and the whole body is formatted by one ``%`` with a line
        format built once from the first row's cell types; zero rows
        write the header alone.
        """
        columns = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
        width, rows = len(columns), len(columns[0])
        flat = [None] * (rows * width)
        for k, column in enumerate(columns):
            flat[k::width] = column
        line = _row_format(tuple(map(type, flat[:width])))
        return self.write_text(name, header + "\n" + (line * rows) % tuple(flat))

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.files.append({"name": name, "sha256": hashlib.sha256(data).hexdigest()})
        return path

    def finish(self) -> int:
        # a NaN anywhere makes both min and max NaN; strict JSON has no NaN
        # or Infinity, so a non-finite summary value is written as null
        summary = None
        if self.residuals:
            nan = any(map(math.isnan, self.residuals))
            summary = {"min": min(self.residuals), "max": max(self.residuals)}
            summary = {k: v if not nan and math.isfinite(v) else None for k, v in summary.items()}
        # sys.version's first word is the string platform.python_version() parses
        versions = {"python": sys.version.split(maxsplit=1)[0]}
        if self.config.command != "thermal":  # thermal runs on the standard library
            import numpy

            versions["numpy"] = numpy.__version__
        manifest = {
            "artifact_version": __version__,
            "command": self.config.command,
            "config": self.config.echo(),
            "timestamp": _utc_timestamp(),
            "versions": versions,
            "files": self.files,
            "flags": self.flags,
            "residuals": summary,
        }
        status = EXIT_FLAGGED if self.flags else EXIT_OK
        manifest["exit_status"] = status
        path = self.out_dir / "manifest.json"
        path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        return status


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _run_spectrum(run: Run) -> None:
    import numpy as np

    from . import spectrum

    index = run.config.block_index
    solution = spectrum.diagonalize(spectrum.build_block(index))
    n0, sigma2 = spectrum.photon_moments(solution)
    block = ",".join(map(_fmt, (index.r, index.c, index.kappa)))  # same on every row
    run.write_csv(
        "spectrum.csv",
        "r,c,kappa,k,lambda,n0,sigma2",
        [[block] * solution.dim, range(solution.dim), solution.eigenvalues, n0, sigma2],
    )

    ground = spectrum.photon_statistics(solution, 0)
    run.write_csv("ground_distribution.csv", "n,p_n", [ground.n_values, ground.distribution])

    lines = [
        f"r = {_fmt(index.r)}",
        f"c = {_fmt(index.c)}",
        f"kappa = {_fmt(index.kappa)}",
        f"dim = {solution.dim}",
        f"ground_n0 = {_fmt(ground.n0)}",
        f"ground_sigma2 = {_fmt(ground.sigma2)}",
        f"ground_q0 = {_fmt(spectrum.effective_ground_eigenvalue(solution))}",
    ]
    full, asymptotic = spectrum.predicted_ground_mean(index)
    lines.append(f"predicted_n0_full = {_fmt(full)}")
    lines.append(f"predicted_n0_asymptotic = {_fmt(asymptotic)}")
    try:
        lines.append(
            f"predicted_sigma2 = {_fmt(spectrum.predicted_ground_variance(index, ground.n0))}"
        )
    except ValueError as exc:
        lines.append(f"predicted_sigma2 = unavailable ({exc})")
        run.flags.append(f"spectrum: variance formula out of regime: {exc}")
    if ground.sigma2 > 0.0:
        gauss = spectrum.gaussian_profile(ground.n0, ground.sigma2, solution.basis)
        deviation = float(
            np.max(np.abs(gauss - ground.distribution)) / np.max(ground.distribution)
        )
        lines.append(f"gaussian_max_deviation_over_peak = {_fmt(deviation)}")
    run.write_text("spectrum_summary.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# thermal
# ---------------------------------------------------------------------------

THERMAL_HEADER = (
    "N,beta,m_mean,m_var,r2_mean,r2_var,sigma_r2,"
    "oracle_m_mean,oracle_m_var,oracle_r2_mean,oracle_r2_var,oracle_sigma_r2,"
    "r2_var_exact"
)

# moment attributes in THERMAL_HEADER order, for the closed forms and the oracle
THERMAL_MOMENTS = ("m_mean", "m_variance", "r2_mean", "r2_variance", "sigma_r2_mean")


def _run_thermal(run: Run) -> None:
    from . import thermal

    ensemble = run.config.ensemble
    moments = [thermal.thermal_moments(params) for params in ensemble]
    # the oracle's cells are empty above ENUMERATION_LIMIT, so its columns
    # hold strings, each value rendered by _fmt
    oracles = [
        thermal.enumeration_moments(params)
        if params.n_molecules <= thermal.ENUMERATION_LIMIT else None
        for params in ensemble
    ]
    columns = [[params.n_molecules for params in ensemble], [params.beta for params in ensemble]]
    columns += [[getattr(m, name) for m in moments] for name in THERMAL_MOMENTS]
    columns += [
        ["" if oracle is None else _fmt(getattr(oracle, name)) for oracle in oracles]
        for name in THERMAL_MOMENTS
    ]
    columns.append([m.r2_variance_exact for m in moments])
    run.write_csv("thermal.csv", THERMAL_HEADER, columns)


# ---------------------------------------------------------------------------
# steady state / sweep / threshold
# ---------------------------------------------------------------------------


def _emit_sweep(run: Run, name: str, grid: condensation.SteadyStateGrid) -> None:
    from . import condensation

    s, etas = grid.s.tolist(), grid.eta.tolist()
    # fit_mean_frequency's expression at every point it accepts (s > 0,
    # eta > eta_T), NaN elsewhere; on Python floats it keeps that function's
    # bits (np.log1p does not always) and warns of no overflow
    eta_t = condensation.eta_thermal(grid.ladder, grid.bath)
    n_levels, phi, beta = grid.ladder.n_levels, grid.bath.phi, grid.bath.beta
    omega_bar = [
        math.log1p(n_levels * x / (phi * (eta - eta_t))) / beta
        if x > 0.0 and eta > eta_t else math.nan
        for x, eta in zip(s, etas)
    ]
    status = []
    for x, error, point_ok in zip(s, grid.errors, grid.converged().tolist()):
        if error is not None:
            run.flags.append(f"point s={_fmt(x)} failed: {error}")
            status.append("failed")
        elif not point_ok:
            run.flags.append(f"point s={_fmt(x)} did not converge")
            status.append("not-converged")
        else:
            status.append("ok")
    residuals = grid.max_residual.tolist()  # a failed point has none
    run.residuals += [r for r, error in zip(residuals, grid.errors) if error is None]
    run.write_csv(name, SWEEP_HEADER, [
        s, etas, grid.amplification, grid.mu, grid.n_c, grid.n_n, grid.condensate_fraction,
        grid.s_supply, grid.s_balance, residuals, omega_bar, status,
    ])


def _run_steady_state(run: Run) -> None:
    import numpy as np

    from . import condensation

    config = run.config
    pump = config.pump
    grid = condensation.solve_supply_grid(config.ladder, config.bath, [pump.s], scale=[pump.p])
    if grid.errors[0] is not None:
        raise grid.errors[0]
    _emit_sweep(run, "steady_state.csv", grid)
    two_r = config.ladder.two_r
    j_values = (np.arange(config.ladder.n_levels) * 2 - two_r) / 2.0
    run.write_csv(
        "occupations.csv",
        "j,omega,occupation",
        [j_values, config.ladder.omegas, grid.occupations[0]],
    )


def _run_sweep(run: Run) -> None:
    from . import condensation

    config = run.config
    grid = condensation.solve_supply_grid(config.ladder, config.bath, config.s_grid)
    _emit_sweep(run, "sweep.csv", grid)


def _run_threshold(run: Run) -> None:
    import numpy as np

    from . import condensation

    ladder = run.config.ladder
    bath = run.config.bath
    eta_t = condensation.eta_thermal(ladder, bath)
    bound = condensation.noncondensate_bound(0.0, ladder, bath)
    estimate = condensation.threshold_supply(eta_t, bound.b_sum, bath)
    if estimate.immediate:
        run.flags.append(
            "threshold: 2B <= eta_T, the formula gives a non-positive supply "
            "(condensation immediate); reported unclamped"
        )

    s_grid = run.config.s_grid
    if s_grid is None:  # s = 0 and four decades around s0 (around 1 if s0 <= 0)
        scale = estimate.s0 if estimate.s0 > 0.0 else 1.0
        if not math.isfinite(scale * 1e2):
            raise ValueError(
                f"threshold: the default grid's top end 1e2 s0 overflows (s0 = "
                f"{_fmt(scale)}); give pump.s_min, pump.s_max and pump.points"
            )
        s_grid = np.concatenate([[0.0], np.geomspace(scale * 1e-2, scale * 1e2, 59)])
    grid = condensation.solve_supply_grid(ladder, bath, s_grid)
    _emit_sweep(run, "sweep.csv", grid)

    knee = math.nan
    solved = np.array([error is None for error in grid.errors], dtype=bool)
    try:
        knee = condensation.detect_condensation_knee(
            grid.s[solved], grid.condensate_fraction[solved]
        )
    except ValueError as exc:
        run.flags.append(f"threshold: knee detection failed: {exc}")
    knee_over_s0 = knee / estimate.s0 if estimate.s0 > 0 else math.nan
    # a NaN ratio is flagged above (no knee, or no positive s0)
    if not math.isnan(knee_over_s0) and not 1.0 / 3.0 < knee_over_s0 < 3.0:
        run.flags.append(
            f"threshold: knee/s0 = {_fmt(knee_over_s0)} is outside (1/3, 3): the "
            "sweep's condensation knee and the closed-form s0 disagree"
        )

    lines = [
        f"s0 = {_fmt(estimate.s0)}",
        f"B = {_fmt(bound.b_sum)}",
        f"eta_T = {_fmt(eta_t)}",
        f"eta_T_effective = {_fmt(condensation.eta_thermal_effective(ladder.n_levels, float(np.mean(ladder.omegas)), bath.beta))}",
        f"knee = {_fmt(knee)}",
        f"knee_over_s0 = {_fmt(knee_over_s0)}",
        f"immediate_condensation = {str(estimate.immediate).lower()}",
    ]
    run.write_text("threshold_report.txt", "\n".join(lines) + "\n")


_RUNNERS = {
    "spectrum": _run_spectrum,
    "thermal": _run_thermal,
    "steady-state": _run_steady_state,
    "sweep": _run_sweep,
    "threshold": _run_threshold,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lasercond",
        description=(
            "Collective molecule-field spectra, thermal statistics and "
            "pumped-bath photon condensation."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="key=value parameter file")
    parser.add_argument("--out", default=None, help="output directory (default: cwd)")
    parser.add_argument(
        "--workers", type=int, default=None, help="ignored; grid points solve in-process"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = parse_config(args.config, args.command)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.workers is not None and args.workers < 1:
        print("config error: workers must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_ERROR

    run = Run(config, out_dir)
    try:
        _RUNNERS[config.command](run)
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return run.finish()


def entry() -> None:
    """The process entry point: ``main()``, then an exit without interpreter teardown.

    Every output file is written and closed inside ``main()``, and neither
    lasercond nor numpy registers an ``atexit`` callback, so after the two
    standard streams are flushed nothing is left for the teardown (mostly
    its final garbage-collection pass) to do but take time.  ``SystemExit``
    from argparse (``--help``, a bad argument) and any uncaught exception
    propagate and end the process the ordinary way.

    The process runs one command and makes few reference cycles, so the
    cyclic collector is off for it: that saved about 1 ms of a thermal
    child and 7-10 ms of one that imports numpy, and added at most 0.2 MB
    to its peak RSS.
    """
    gc.disable()
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    entry()
