"""Output checks that do not trust the code under test.

Each check re-derives what it compares against from the job's config:
block eigenvalues from a dense ``numpy.linalg.eigvalsh`` of a tridiagonal
built here, thermal moments from a direct partition sum computed here,
sweep grids from ``numpy.geomspace``.  Comparisons use stated tolerances,
never golden hashes, so a change that moves only the last bits passes.

Tolerances:

* eigenvalues: |lambda - lambda_ref| <= 1e-10 * max|lambda_ref|;
* thermal m_mean, m_var, r2_mean: |x - ref| <= 1e-9 * max(1, |ref|),
  against the CSV's oracle columns where present and against the
  partition sum here for every row;
* sweep rows: |eta - (n_c + n_n)| <= 1e-12 * eta, s on the expected grid
  within 1e-12 relative, and a row with status ``ok`` must pass the
  residual gate resid_max < 1e-8 * max(p, phi) and show
  |S_supply - S_balance| <= 1e-8 * max(p, phi);
* manifests: every listed sha256 equals the sha256 of the file's bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EIGEN_RTOL = 1e-10
THERMAL_RTOL = 1e-9
ETA_RTOL = 1e-12
GRID_RTOL = 1e-12
GATE_RTOL = 1e-8

SWEEP_STATUSES = ("ok", "not-converged", "failed")

EXPECTED_FILES = {
    "spectrum": {"spectrum.csv", "ground_distribution.csv", "spectrum_summary.txt"},
    "thermal": {"thermal.csv"},
    "steady-state": {"steady_state.csv", "occupations.csv"},
    "sweep": {"sweep.csv"},
    "threshold": {"sweep.csv", "threshold_report.txt"},
}


@dataclass
class Outcome:
    """What the checks found in the outputs of one invocation."""

    problems: list[str] = field(default_factory=list)
    points: int = 0  # steady-state grid points attempted
    flagged: int = 0  # of those, rows with status not-converged or failed
    eigenpairs: int = 0  # block eigenpairs computed


def check_run(job, out_dir: Path, exit_code: int) -> Outcome:
    outcome = Outcome()
    if exit_code not in (0, 2):
        outcome.problems.append(f"exit status {exit_code}")
        return outcome
    try:
        _check_manifest(out_dir, exit_code, EXPECTED_FILES[job.command], outcome)
        _CHECKS[job.command](job.config, out_dir, outcome)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        outcome.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return outcome


def same_payloads(first: Path, second: Path) -> list[str]:
    """CSV payloads of two runs of one config must be byte-identical."""
    problems = []
    names = sorted(p.name for p in first.glob("*.csv"))
    if names != sorted(p.name for p in second.glob("*.csv")):
        return [f"CSV sets differ: {names}"]
    for name in names:
        if (first / name).read_bytes() != (second / name).read_bytes():
            problems.append(f"{name} differs between two runs of one config")
    return problems


def _check_manifest(out_dir: Path, exit_code: int, expected: set, outcome: Outcome) -> None:
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    names = {entry["name"] for entry in manifest["files"]}
    if names != expected:
        outcome.problems.append(f"manifest lists {sorted(names)}, expected {sorted(expected)}")
    for entry in manifest["files"]:
        digest = hashlib.sha256((out_dir / entry["name"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            outcome.problems.append(f"manifest sha256 of {entry['name']} does not match its bytes")
    if manifest.get("exit_status") != exit_code:
        outcome.problems.append(
            f"manifest exit_status {manifest.get('exit_status')} but the run exited {exit_code}"
        )


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(value: float, ref: float, rtol: float, scale: float) -> bool:
    return abs(value - ref) <= rtol * scale


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def block_tridiagonal(two_r: int, two_c: int, kappa: float):
    """Diagonal, off-diagonal and first photon number of the (r, c) block.

    Basis |n>|r, c-n> for n = max(0, c-r) .. c+r; the diagonal is c and
    n-1 <-> n couple with kappa sqrt(n) sqrt(r(r+1) - m(m+1)), m = c - n.
    """
    n_min = max(0, two_c - two_r) // 2
    n_max = (two_c + two_r) // 2
    r = two_r / 2.0
    n = np.arange(n_min + 1, n_max + 1, dtype=float)
    m = two_c / 2.0 - n
    off = kappa * np.sqrt(n) * np.sqrt(np.maximum(r * (r + 1.0) - m * (m + 1.0), 0.0))
    return np.full(n_max - n_min + 1, two_c / 2.0), off, n_min


def block_dim(two_r: int, two_c: int) -> int:
    return (two_c + two_r) // 2 - max(0, two_c - two_r) // 2 + 1


def _check_spectrum(config: dict, out_dir: Path, outcome: Outcome) -> None:
    two_r = round(2 * float(config["spectrum.r"]))
    two_c = round(2 * float(config["spectrum.c"]))
    diag, off, n_min = block_tridiagonal(two_r, two_c, float(config["spectrum.kappa"]))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    reference = np.linalg.eigvalsh(dense)
    rows = _rows(out_dir / "spectrum.csv")
    outcome.eigenpairs = len(rows)
    if len(rows) != reference.size:
        outcome.problems.append(f"spectrum.csv has {len(rows)} rows, block dim is {reference.size}")
        return
    values = np.array([float(row["lambda"]) for row in rows])
    worst = float(np.max(np.abs(values - reference)))
    if worst > EIGEN_RTOL * float(np.max(np.abs(reference))):
        outcome.problems.append(f"eigenvalues off dense eigvalsh by {worst:.3g}")
    if [int(row["k"]) for row in rows] != list(range(reference.size)):
        outcome.problems.append("spectrum.csv eigenstate indices are not 0..dim-1")

    ground = _rows(out_dir / "ground_distribution.csv")
    n_values = [int(row["n"]) for row in ground]
    if n_values != list(range(n_min, n_min + reference.size)):
        outcome.problems.append("ground_distribution.csv does not span the block basis")
    total = sum(float(row["p_n"]) for row in ground)
    if not _close(total, 1.0, 1e-12 * reference.size, 1.0):
        outcome.problems.append(f"ground distribution sums to {total!r}")


# ---------------------------------------------------------------------------
# thermal
# ---------------------------------------------------------------------------


def partition_moments(n_molecules: int, beta: float) -> tuple[float, float, float]:
    """<m>, Var(m) and <r(r+1)> from the direct (r, m) partition sum.

    Multiplicities P(r) = N! (2r+1) / ((N/2+r+1)! (N/2-r)!) enter as
    logarithms and the Boltzmann weights are normalised by their largest
    term, so any N and beta stay finite.
    """
    log_w, m_col, x_col = [], [], []
    for two_r in range(n_molecules % 2, n_molecules + 1, 2):
        upper = (n_molecules + two_r) // 2 + 1
        lower = (n_molecules - two_r) // 2
        log_p = (
            math.lgamma(n_molecules + 1)
            + math.log(two_r + 1)
            - math.lgamma(upper + 1)
            - math.lgamma(lower + 1)
        )
        m = np.arange(-two_r, two_r + 1, 2) / 2.0
        log_w.append(log_p - beta * m)
        m_col.append(m)
        x_col.append(np.full(m.size, two_r * (two_r + 2) / 4.0))
    log_w = np.concatenate(log_w)
    m = np.concatenate(m_col)
    x = np.concatenate(x_col)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    m_mean = float(w @ m)
    return m_mean, float(w @ (m - m_mean) ** 2), float(w @ x)


def _check_thermal(config: dict, out_dir: Path, outcome: Outcome) -> None:
    n_molecules = int(config["thermal.n"])
    betas = [float(b) for b in str(config["thermal.beta"]).split(",")]
    rows = _rows(out_dir / "thermal.csv")
    if len(rows) != len(betas):
        outcome.problems.append(f"thermal.csv has {len(rows)} rows for {len(betas)} betas")
        return
    for row, beta in zip(rows, betas):
        if int(row["N"]) != n_molecules or float(row["beta"]) != beta:
            outcome.problems.append(f"thermal row labelled N={row['N']} beta={row['beta']}")
            continue
        reference = dict(zip(("m_mean", "m_var", "r2_mean"), partition_moments(n_molecules, beta)))
        for column, ref in reference.items():
            value = float(row[column])
            refs = [("partition sum", ref)]
            if row[f"oracle_{column}"] != "":
                refs.append(("oracle column", float(row[f"oracle_{column}"])))
            for label, expect in refs:
                if not _close(value, expect, THERMAL_RTOL, max(1.0, abs(expect))):
                    outcome.problems.append(
                        f"thermal N={n_molecules} beta={beta!r}: {column}={value!r}, "
                        f"{label} gives {expect!r}"
                    )


# ---------------------------------------------------------------------------
# steady state, sweep, threshold
# ---------------------------------------------------------------------------


def _pump_scale(config: dict, s: float) -> float:
    """max(p, phi) of the residual gate; a grid point has p = s."""
    p = float(config.get("pump.p", s))
    return max(p, float(config["bath.phi"]))


def _check_sweep_rows(config: dict, rows: list[dict], outcome: Outcome, expect_s=None) -> None:
    outcome.points += len(rows)
    if expect_s is not None:
        if len(rows) != len(expect_s):
            outcome.problems.append(f"{len(rows)} sweep rows, expected {len(expect_s)}")
            return
        for row, s in zip(rows, expect_s):
            if not _close(float(row["s"]), s, GRID_RTOL, max(abs(s), 1e-300)):
                outcome.problems.append(f"sweep row s={row['s']} is off the grid point {s!r}")
                return
    for row in rows:
        status = row["status"]
        if status not in SWEEP_STATUSES:
            outcome.problems.append(f"unknown status {status!r}")
            continue
        if status != "ok":
            outcome.flagged += 1
        if status == "failed":
            continue
        eta, n_c, n_n = float(row["eta"]), float(row["n_c"]), float(row["n_n"])
        if not _close(eta, n_c + n_n, ETA_RTOL, eta):
            outcome.problems.append(f"s={row['s']}: eta={eta!r} but n_c + n_n = {n_c + n_n!r}")
        if status == "ok":
            gate = GATE_RTOL * _pump_scale(config, float(row["s"]))
            if not float(row["resid_max"]) < gate:
                outcome.problems.append(
                    f"s={row['s']}: status ok but resid_max={row['resid_max']} fails the gate {gate:.3g}"
                )
            supply, balance = float(row["S_supply"]), float(row["S_balance"])
            if not _close(supply, balance, 1.0, gate):
                outcome.problems.append(
                    f"s={row['s']}: S_supply={supply!r} and S_balance={balance!r} disagree"
                )


def expected_grid(config: dict) -> np.ndarray:
    """The log grid s_min .. s_max (the workloads draw s_min > 0)."""
    return np.geomspace(
        float(config["pump.s_min"]), float(config["pump.s_max"]), int(config["pump.points"])
    )


def _check_sweep(config: dict, out_dir: Path, outcome: Outcome) -> None:
    if config.get("ladder.source") == "spectral":
        two_r = round(2 * float(config["ladder.r"]))
        two_c = round(2 * float(config["ladder.c"]))
        # the ladder comes from the full eigensystems of blocks c and c + 1
        outcome.eigenpairs = block_dim(two_r, two_c) + block_dim(two_r, two_c + 2)
    _check_sweep_rows(config, _rows(out_dir / "sweep.csv"), outcome, expected_grid(config))


def _check_steady_state(config: dict, out_dir: Path, outcome: Outcome) -> None:
    rows = _rows(out_dir / "steady_state.csv")
    _check_sweep_rows(config, rows, outcome)
    levels = _rows(out_dir / "occupations.csv")
    if len(levels) != round(2 * float(config["ladder.r"])) + 1:
        outcome.problems.append(f"occupations.csv has {len(levels)} levels")
    elif len(rows) == 1 and rows[0]["status"] != "failed":
        total = math.fsum(float(level["occupation"]) for level in levels)
        eta = float(rows[0]["eta"])
        if not _close(total, eta, ETA_RTOL * len(levels), eta):
            outcome.problems.append(f"occupations sum to {total!r}, eta is {eta!r}")


def _check_threshold(config: dict, out_dir: Path, outcome: Outcome) -> None:
    # the workloads give threshold no grid, so it derives 60 points around s0
    rows = _rows(out_dir / "sweep.csv")
    if len(rows) != 60:
        outcome.problems.append(f"derived threshold grid has {len(rows)} points, expected 60")
    _check_sweep_rows(config, rows, outcome)
    report = (out_dir / "threshold_report.txt").read_text(encoding="utf-8")
    keys = {line.split(" = ", 1)[0] for line in report.splitlines()}
    for key in ("s0", "B", "eta_T", "knee"):
        if key not in keys:
            outcome.problems.append(f"threshold_report.txt lacks {key}")


_CHECKS = {
    "spectrum": _check_spectrum,
    "thermal": _check_thermal,
    "steady-state": _check_steady_state,
    "sweep": _check_sweep,
    "threshold": _check_threshold,
}
