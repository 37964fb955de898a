"""Byte identity of the perfbench decks' outputs between two checkouts.

    python scripts/deck_identity.py --parent DIR --change DIR \\
        [--seeds 1,3,11] [--seconds 20] [--workloads W,...] [--solver-calls N]

Each workload's deck is built by ``perfbench/workloads.py`` of the
checkout that holds this script, for every seed at ``--seconds``.  Both
checkouts' ``src/lasercond`` packages are loaded in this one interpreter,
under the names ``lasercond_parent`` and ``lasercond_change`` (the
package imports itself only relatively, so it needs no change for this),
and every job runs through each side's ``cli.main`` in turn, with the
same config file and output directory, at one BLAS thread.

For each job the script compares the exit codes, stderr and every output
file's bytes; ``manifest.json`` is compared without its ``timestamp``.
A warning's ``path:line:`` prefix is dropped from stderr, so two trees
at different paths, or with the warning's line moved, compare equal; the
warning's text and its source line still count.  Each job runs under
fresh warning filters, so a warning shows once per job, as it would in a
fresh process.

With ``--solver-calls N`` it also makes N seeded ``solve_supply_grid``
calls per seed on each side.  Call i takes draw i of
``solver_census.draws`` (ROADMAP item 1's domain: the ladder, the bath
and one supply) and one supply of the huge slice, log-uniform in HUGE,
as a two-point grid.  Every ``_COLUMNS`` field of every point is compared
bit for bit, and so are each point's error type and text and the
warnings each call raises.  ``--workloads ''`` runs the solver calls alone.

The script prints one JSON object: the jobs and files compared per
workload, the exit codes seen, and one entry per difference (workload,
seed, job index, command and what differs).  The solver calls add their
counts under ``solver`` and one entry per differing point under
``solver_differences``: the draw, each differing column with its largest
relative change (null where an entry is NaN, inf or 0 on the parent side),
the largest of those, and both sides' errors.  The exit status is 1 when
anything differs, else 0.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

# pinned before numpy is first imported
for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

import numpy as np  # noqa: E402
import solver_census  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
HUGE = (1e15, 1e307)  # the huge-supply slice of the solver calls
WARNING_PREFIX = re.compile(r"^\S+\.py:\d+: (?=\w+Warning: )", re.MULTILINE)


def load_cli(checkout: Path, side: str):
    """``cli`` of the lasercond package in ``checkout/src``, as ``lasercond_<side>.cli``."""
    package = checkout.resolve() / "src" / "lasercond"
    name = f"lasercond_{side}"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _manifest(data: bytes) -> bytes:
    manifest = json.loads(data)
    manifest.pop("timestamp", None)
    return json.dumps(manifest, sort_keys=True).encode()


def run_job(cli, job, work: Path) -> dict:
    """Exit code, stderr and output files of one job through ``cli.main``."""
    config, out = work / "job.cfg", work / "out"
    config.write_text(job.config_text(), encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")
        try:
            code = cli.main(job.argv(str(config), str(out)))
        except Exception as exc:  # noqa: BLE001 - a crash is compared like an exit code
            code = f"crash: {type(exc).__name__}: {exc}"
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            files[path.name] = _manifest(data) if path.name == "manifest.json" else data
        shutil.rmtree(out)
    return {"exit": code, "stderr": WARNING_PREFIX.sub("", stderr.getvalue()), "files": files}


def differences(parent: dict, change: dict) -> list:
    """What differs between two runs of one job, as short labels."""
    found = [key for key in ("exit", "stderr") if parent[key] != change[key]]
    if parent["files"].keys() != change["files"].keys():
        found.append("file names")
    found += [
        f"file {name}" for name in parent["files"]
        if name in change["files"] and parent["files"][name] != change["files"][name]
    ]
    return found


def solver_calls(seed: int, count: int):
    """(two_r, beta, phi, chi, supplies) of each seeded call: a census draw and a huge supply."""
    rng = random.Random(seed)
    for two_r, beta, phi, chi, s in solver_census.draws(seed, count):
        yield two_r, beta, phi, chi, [s, math.exp(rng.uniform(*map(math.log, HUGE)))]


def solve_call(cd, call) -> tuple:
    """Each point's ``_COLUMNS`` entries and error text, and the warnings, of one call."""
    two_r, beta, phi, chi, supplies = call
    ladder = cd.ladder_analytic(two_r, 1.0, 0.1, 100.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = cd.solve_supply_grid(ladder, cd.BathParams(beta, phi, chi), supplies)
    points = [
        ({name: np.asarray(getattr(grid, name)[i]) for name in cd._COLUMNS},
         None if error is None else f"{type(error).__name__}: {error}")
        for i, error in enumerate(grid.errors)
    ]
    return points, sorted({f"{w.category.__name__}: {w.message}" for w in caught})


def changed_columns(parent: dict, change: dict) -> dict:
    """Each column whose bits differ, with its largest relative change (None if not finite)."""
    changed = {}
    for name, old in parent.items():
        new = change[name]
        if old.tobytes() != new.tobytes():
            with np.errstate(all="ignore"):
                largest = float(np.max(np.abs(new - old) / np.abs(old)))
            changed[name] = largest if math.isfinite(largest) else None
    return changed


def compare_solver_calls(cds: dict, seeds: list, count: int, report: dict) -> None:
    """Run the seeded solver calls on both sides and add their counts and differences."""
    counts = report["solver"] = {"calls": 0, "points": 0, "warned": dict.fromkeys(SIDES, 0)}
    found = report["solver_differences"] = []
    for seed in seeds:
        for index, call in enumerate(solver_calls(seed, count)):
            runs = {side: solve_call(cds[side], call) for side in SIDES}
            counts["calls"] += 1
            counts["points"] += len(call[-1])
            for side in SIDES:
                counts["warned"][side] += bool(runs[side][1])
            if runs["parent"][1] != runs["change"][1]:
                found.append({"seed": seed, "call": index, "warnings": [runs[s][1] for s in SIDES]})
            for point, (old, new) in enumerate(zip(runs["parent"][0], runs["change"][0])):
                columns = changed_columns(old[0], new[0])
                if columns or old[1] != new[1]:
                    finite = [v for v in columns.values() if v is not None]
                    found.append({
                        "seed": seed, "call": index, "point": point,
                        "draw": [*call[:4], call[-1][point]], "columns": columns,
                        "largest": max(finite, default=None), "errors": [old[1], new[1]],
                    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for side in SIDES:
        parser.add_argument(f"--{side}", required=True, type=Path, help="checkout with src/lasercond")
    parser.add_argument("--seeds", default="1,3,11", help="comma-separated deck seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="deck length, as perfbench's")
    parser.add_argument(
        "--workloads", default=",".join(workloads.WORKLOADS),
        help="comma-separated (default: all; '' for none)",
    )
    parser.add_argument(
        "--solver-calls", type=int, default=0, metavar="N",
        help="seeded solve_supply_grid calls per seed, compared per column (default: 0)",
    )
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    names = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(workloads.WORKLOADS)}")
    clis = {side: load_cli(getattr(args, side), side) for side in SIDES}

    report = {
        "parent": str(args.parent), "change": str(args.change), "seeds": seeds,
        "seconds": args.seconds, "workloads": {}, "exit_codes": {}, "differences": [],
    }
    with tempfile.TemporaryDirectory(prefix="deck_identity_") as tmp:
        work = Path(tmp)
        for workload in names:
            counts = report["workloads"][workload] = {"jobs": 0, "files": 0}
            for seed in seeds:
                for index, job in enumerate(workloads.build_deck(workload, seed, args.seconds)):
                    runs = {side: run_job(clis[side], job, work) for side in SIDES}
                    counts["jobs"] += 1
                    counts["files"] += len(runs["parent"]["files"])
                    code = str(runs["parent"]["exit"])
                    report["exit_codes"][code] = report["exit_codes"].get(code, 0) + 1
                    report["differences"] += [
                        {"workload": workload, "seed": seed, "job": index,
                         "command": job.command, "differs": what}
                        for what in differences(runs["parent"], runs["change"])
                    ]
    report["jobs"] = sum(c["jobs"] for c in report["workloads"].values())
    report["files"] = sum(c["files"] for c in report["workloads"].values())
    if args.solver_calls:
        cds = {side: importlib.import_module(f"lasercond_{side}.condensation") for side in SIDES}
        compare_solver_calls(cds, seeds, args.solver_calls, report)
    print(json.dumps(report))
    return 1 if report["differences"] or report.get("solver_differences") else 0


if __name__ == "__main__":
    sys.exit(main())
