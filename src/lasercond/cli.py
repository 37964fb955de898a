"""Command-line surface: spectrum, thermal, steady-state, sweep, threshold.

    lasercond <command> --config run.cfg [--out DIR] [--workers K]

Every run writes its data as CSV (floats at 17 significant digits, so
identical configs reproduce byte-identical payloads) plus a
``manifest.json`` echoing the config and carrying a sha256 checksum for
each emitted file.  Exit status: 0 all solves converged and no flags,
2 computed but flagged (non-converged points, out-of-range fits, ...),
1 errors.

Sweep grid points are solved one after another in this process, by
``condensation.sweep_supply``.  ``--workers`` is still accepted and
validated (>= 1) but changes nothing: a process pool measured slower than
the in-process loop.  A config that sets ``workers`` is rejected as an
unknown key.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, condensation, spectrum, thermal
from .config import COMMANDS, ConfigError, RunConfig, parse_config

SWEEP_HEADER = (
    "s,eta,A,mu,n_c,n_n,cond_frac,S_supply,S_balance,resid_max,omega_bar_fit,status"
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2


def _fmt(value) -> str:
    """17-significant-digit float formatting (ints pass through)."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


class Run:
    """Collects output files, flags and residuals for one CLI invocation."""

    def __init__(self, config: RunConfig, out_dir: Path):
        self.config = config
        self.out_dir = out_dir
        self.files: list[Path] = []
        self.flags: list[str] = []
        self.residuals: list[float] = []

    def write_csv(self, name: str, header: str, rows) -> Path:
        lines = [header]
        for row in rows:
            lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        self.files.append(path)
        return path

    def finish(self) -> int:
        # numpy's min/max propagate a NaN wherever it sits; strict JSON has
        # no NaN or Infinity, so a non-finite summary value is written as null
        residuals = np.array(self.residuals)
        summary = None
        if residuals.size:
            summary = {"min": residuals.min(), "max": residuals.max()}
            summary = {k: float(v) if np.isfinite(v) else None for k, v in summary.items()}
        manifest = {
            "artifact_version": __version__,
            "command": self.config.command,
            "config": self.config.echo(),
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "files": [
                {"name": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                for p in self.files
            ],
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
    index = run.config.block_index
    solution = spectrum.diagonalize(spectrum.build_block(index))
    stats = [spectrum.photon_statistics(solution, k) for k in range(solution.dim)]
    rows = [
        (index.r, index.c, index.kappa, k, solution.eigenvalues[k], st.n0, st.sigma2)
        for k, st in enumerate(stats)
    ]
    run.write_csv("spectrum.csv", "r,c,kappa,k,lambda,n0,sigma2", rows)

    ground = stats[0]
    run.write_csv(
        "ground_distribution.csv",
        "n,p_n",
        list(zip(ground.n_values, ground.distribution)),
    )

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
    "oracle_m_mean,oracle_m_var,oracle_r2_mean,oracle_r2_var,oracle_sigma_r2"
)

# moment attributes in THERMAL_HEADER order, for the closed forms and the oracle
THERMAL_MOMENTS = ("m_mean", "m_variance", "r2_mean", "r2_variance", "sigma_r2_mean")


def _run_thermal(run: Run) -> None:
    rows = []
    for params in run.config.ensemble:
        moments = thermal.thermal_moments(params)
        row = [params.n_molecules, params.beta]
        row += [getattr(moments, name) for name in THERMAL_MOMENTS]
        if params.n_molecules <= thermal.ENUMERATION_LIMIT:
            oracle = thermal.enumeration_moments(params)
            row += [getattr(oracle, name) for name in THERMAL_MOMENTS]
        else:
            row += [""] * len(THERMAL_MOMENTS)
        rows.append(row)
    run.write_csv("thermal.csv", THERMAL_HEADER, rows)


# ---------------------------------------------------------------------------
# steady state / sweep / threshold
# ---------------------------------------------------------------------------


def _point_row(solution: condensation.SteadyStateSolution, eta_t: float):
    s = solution.pump.s
    if s > 0.0 and solution.eta > eta_t:
        omega_bar = condensation.fit_mean_frequency(
            s, solution.eta, solution.ladder, solution.bath
        )
    else:
        omega_bar = math.nan
    return (
        s,
        solution.eta,
        solution.amplification,
        solution.mu,
        solution.n_c,
        solution.n_n,
        solution.condensate_fraction,
        solution.s_supply,
        solution.s_balance,
        solution.max_residual,
        omega_bar,
        "ok" if solution.converged() else "not-converged",
    )


def _emit_sweep(run: Run, name: str, s_grid, solutions: list) -> None:
    eta_t = condensation.eta_thermal(run.config.ladder, run.config.bath)
    rows = []
    for s, solution in zip(s_grid, solutions):
        if isinstance(solution, Exception):
            run.flags.append(f"point s={_fmt(float(s))} failed: {solution}")
            rows.append((float(s), *[math.nan] * 10, "failed"))
            continue
        row = _point_row(solution, eta_t)
        if row[-1] == "not-converged":
            run.flags.append(f"point s={_fmt(float(s))} did not converge")
        run.residuals.append(solution.max_residual)
        rows.append(row)
    run.write_csv(name, SWEEP_HEADER, rows)


def _run_steady_state(run: Run) -> None:
    pump = run.config.pump
    solution = condensation.solve_steady_state(run.config.ladder, run.config.bath, pump)
    _emit_sweep(run, "steady_state.csv", [pump.s], [solution])
    two_r = run.config.ladder.two_r
    j_values = (np.arange(run.config.ladder.n_levels) * 2 - two_r) / 2.0
    run.write_csv(
        "occupations.csv",
        "j,omega,occupation",
        list(zip(j_values, run.config.ladder.omegas, solution.occupations)),
    )


def _run_sweep(run: Run) -> None:
    config = run.config
    solutions = condensation.sweep_supply(config.ladder, config.bath, config.s_grid)
    _emit_sweep(run, "sweep.csv", config.s_grid, solutions)


def _run_threshold(run: Run) -> None:
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
        s_grid = np.concatenate([[0.0], np.geomspace(scale * 1e-2, scale * 1e2, 59)])
    solutions = condensation.sweep_supply(ladder, bath, s_grid)
    _emit_sweep(run, "sweep.csv", s_grid, solutions)

    knee = math.nan
    good = [
        (float(s), sol)
        for s, sol in zip(s_grid, solutions)
        if not isinstance(sol, Exception)
    ]
    try:
        knee = condensation.detect_condensation_knee(
            [s for s, _ in good], [sol.condensate_fraction for _, sol in good]
        )
    except ValueError as exc:
        run.flags.append(f"threshold: knee detection failed: {exc}")

    lines = [
        f"s0 = {_fmt(estimate.s0)}",
        f"B = {_fmt(estimate.b_sum)}",
        f"eta_T = {_fmt(eta_t)}",
        f"eta_T_effective = {_fmt(condensation.eta_thermal_effective(ladder.n_levels, float(np.mean(ladder.omegas)), bath.beta))}",
        f"knee = {_fmt(knee)}",
        f"knee_over_s0 = {_fmt(knee / estimate.s0 if estimate.s0 > 0 else math.nan)}",
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lasercond",
        description=(
            "Collective molecule-field spectra, thermal statistics and "
            "pumped-bath photon condensation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value parameter file")
        p.add_argument("--out", default=None, help="output directory (default: cwd)")
        p.add_argument(
            "--workers", type=int, default=None, help="ignored; grid points solve in-process"
        )
    args = parser.parse_args(argv)

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
    except (ValueError, condensation.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return run.finish()


if __name__ == "__main__":
    sys.exit(main())
