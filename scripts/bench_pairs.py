"""Alternating parent/change pairs of perfbench runs from two checkouts.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seed S [--pairs N] [--seconds T] [--out FILE]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; the side that
runs first alternates from pair to pair, so drift of the host does not
favour one side.  Each run uses the perfbench files of its own checkout,
with ``PYTHONDONTWRITEBYTECODE=1`` so a run writes no bytecode that the
next one would read.  After each pair the script prints both sides'
end-to-end metrics; at the end, for each metric, each side's median and
quartiles and "change lower in k of N" (ties count for neither side).

``--out`` adds this set to a JSON file: ``environment`` (kept from the
file when it already has one) and one entry in ``sets`` holding each
run's final JSON line, its exit status and the host's load average when
it started, and the summary above.  Running the script once per
workload and seed into one file builds a ``BENCH_<pr>.json``.  The exit
status is 1 when any run failed or printed no final line, else 0.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout: Path, args) -> dict:
    """One perfbench run in ``checkout``: its final JSON line and exit status."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    load = os.getloadavg()
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        final = None
    return {
        "exit": proc.returncode,
        "elapsed_s": time.monotonic() - start,
        "loadavg": load,
        "final": final,
        "stderr": proc.stderr[-2000:] if final is None else "",
    }


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def _summary(pairs: list) -> dict:
    """Median, quartiles and pairs won of each metric both sides reported."""
    complete = [p for p in pairs if all(p[side]["final"] for side in SIDES)]
    if not complete:
        return {}
    summary = {}
    for name in complete[0]["parent"]["final"]["metrics"]:
        values = {
            side: [p[side]["final"]["metrics"][name]["value"] for p in complete] for side in SIDES
        }
        medians = {side: statistics.median(values[side]) for side in SIDES}
        summary[name] = {
            "parent_median": medians["parent"],
            "parent_iqr": _quartiles(values["parent"]),
            "change_median": medians["change"],
            "change_iqr": _quartiles(values["change"]),
            "median_ratio": medians["change"] / medians["parent"] if medians["parent"] else None,
            "change_lower_in": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(complete),
        }
    return summary


def _environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _commit(checkout: Path):
    """``git describe --always --dirty`` of a checkout, or None outside git."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _metric_line(final) -> str:
    if final is None:
        return "no result"
    return "  ".join(f"{name} {entry['value']:.6g}" for name, entry in final["metrics"].items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=None, help="JSON file to add this set to")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no perfbench/run.py")

    pairs = []
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"pair": index, "first": order[0]}
        for side in order:
            pair[side] = _run(checkouts[side], args)
        pairs.append(pair)
        print(f"pair {index + 1}/{args.pairs} ({order[0]} first)", flush=True)
        for side in SIDES:
            result = pair[side]
            correct = result["final"] and result["final"]["correct"]
            print(f"  {side:6s} exit {result['exit']} correct {bool(correct)}: "
                  f"{_metric_line(result['final'])}", flush=True)

    summary = _summary(pairs)
    print(f"# {args.workload} seed {args.seed}: {len(pairs)} pairs, --seconds {args.seconds:g}")
    for name, entry in summary.items():
        print(f"{name:16s} parent {entry['parent_median']:.6g} "
              f"[{entry['parent_iqr'][0]:.6g}, {entry['parent_iqr'][1]:.6g}]  "
              f"change {entry['change_median']:.6g} "
              f"[{entry['change_iqr'][0]:.6g}, {entry['change_iqr'][1]:.6g}]  "
              f"change lower in {entry['change_lower_in']} of {entry['pairs']}")

    if args.out is not None:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
        record.setdefault("environment", _environment())
        record.setdefault("sets", []).append({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "commits": {side: _commit(checkout) for side, checkout in checkouts.items()},
            "summary": summary,
            "pairs": pairs,
        })
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    ok = all(p[side]["exit"] == 0 and p[side]["final"] for p in pairs for side in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
