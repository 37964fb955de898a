"""Byte identity of the perfbench decks' outputs between two checkouts.

    python scripts/deck_identity.py --parent DIR --change DIR \\
        [--seeds 1,3,11] [--seconds 20] [--workloads W,...]

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

The script prints one JSON object: the jobs and files compared per
workload, the exit codes seen, and one entry per difference (workload,
seed, job index, command and what differs).  The exit status is 1 when
anything differs, else 0.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

# pinned before numpy is first imported, by the first job that needs it
for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SIDES = ("parent", "change")
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for side in SIDES:
        parser.add_argument(f"--{side}", required=True, type=Path, help="checkout with src/lasercond")
    parser.add_argument("--seeds", default="1,3,11", help="comma-separated deck seeds")
    parser.add_argument("--seconds", type=float, default=20.0, help="deck length, as perfbench's")
    parser.add_argument(
        "--workloads", default=",".join(workloads.WORKLOADS), help="comma-separated (default: all)"
    )
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    names = args.workloads.split(",")
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
    print(json.dumps(report))
    return 1 if report["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
