#!/usr/bin/env python3
"""Benchmark of the lasercond CLI: seeded workloads, end-to-end and per-layer figures.

    python3 perfbench/run.py --workload sweep_analytic --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The package is loaded from ``src`` (it
need not be installed).  Load shape: a closed loop with one client; each
CLI invocation is launched only after the previous one has exited.  The
only other processes are the two pool workers of a ``--workers 2`` sweep.

``--trace 0`` measures what a user sees.  Set-up is timed as fresh
interpreters importing ``lasercond.cli``.  Every job of the seeded deck
runs as a child process ``python -m lasercond.cli`` (wall time, CPU time
and peak RSS from ``os.wait4``) and as one or more in-process
``lasercond.cli.main(argv)`` calls with imports warm (compute time).

``--trace 1`` gives the per-layer figures.  It reads import times from
``python -X importtime``, then runs each job in-process once untraced and
once with spans around the package's public functions (see tracing.py).

Every output is checked (see checks.py), and every run of a job
must write byte-identical CSVs.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count CLI
invocations, and ``metrics`` holds the figures named in BENCHMARK.json.
The exit status is 1 when any check fails and 2 when the checkout has no
``src/lasercond``.  Generated configs, per-invocation samples, the
environment and (traced) every span go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

# BLAS/OpenMP pools of this process and of every child are pinned to one
# thread, so the only parallelism is the one a --workers pool asks for.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 120.0
# stop starting jobs once a run has used this many times --seconds, so a
# run on a slowed-down machine still ends close to its planned length
RUN_BUDGET_FACTOR = 1.6
TAIL_BEYOND = 10


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], cwd: Path, stderr_path: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from os.wait4.

    The rusage of a reaped child includes the descendants it reaped, so
    a --workers pool is inside the CPU time and the RSS peak.
    """
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _import_samples(cwd: Path, count: int, extra_flags=()) -> list[dict]:
    argv = [sys.executable, *extra_flags, "-c", "import lasercond.cli"]
    return [_spawn(argv, cwd, cwd / "import.stderr") | {"stderr": (cwd / "import.stderr").read_text()}
            for _ in range(count)]


def _environment(backend) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "manifest_backend": backend,
        "platform": platform.platform(),
    }


class Runner:
    """Executes jobs of one deck and checks their outputs."""

    def __init__(self, work: Path):
        self.work = work
        self.records: list[dict] = []
        self.backend = None
        import lasercond.cli

        self.cli = lasercond.cli

    def _dirs(self, index: int, label: str) -> tuple[Path, Path]:
        base = self.work / f"job{index:03d}"
        base.mkdir(parents=True, exist_ok=True)
        return base / "run.cfg", base / label

    def _finish(self, job, index: int, mode: str, out: Path, sample: dict) -> dict:
        outcome = checks.check_run(job, out, sample["exit"])
        if self.backend is None and (out / "manifest.json").is_file():
            self.backend = json.loads((out / "manifest.json").read_text()).get("backend")
        record = {
            "job": index,
            "mode": mode,
            "dir": out.name,
            **sample,
            "points": outcome.points,
            "flagged": outcome.flagged,
            "eigenpairs": outcome.eigenpairs,
            "problems": outcome.problems,
        }
        self.records.append(record)
        return record

    def child(self, job, index: int) -> dict:
        config, out = self._dirs(index, "child")
        config.write_text(job.config_text(), encoding="utf-8")
        argv = [sys.executable, "-m", "lasercond.cli", *job.argv(str(config), str(out))]
        sample = _spawn(argv, config.parent, config.parent / "child.stderr")
        if sample["exit"] != 0:
            sample["stderr"] = (config.parent / "child.stderr").read_text()[-2000:]
        return self._finish(job, index, "child", out, sample)

    def in_process(self, job, index: int, label: str = "in_process", tracer=None) -> dict:
        config, out = self._dirs(index, label)
        config.write_text(job.config_text(), encoding="utf-8")
        argv = job.argv(str(config), str(out))
        sample = {}
        if tracer is not None:
            tracer.install(index)
            root = tracer.open("cli.main")
        start = time.perf_counter()
        try:
            sample["exit"] = self.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed invocation
            sample["exit"] = f"crash: {type(exc).__name__}: {exc}"
        sample["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
        return self._finish(job, index, "traced" if tracer else "in_process", out, sample)

    def compare(self, index: int, first: dict, second: dict) -> None:
        """Byte-identical CSVs from two runs of one job, or a failed second run."""
        if first["problems"] or second["problems"]:
            return
        base = self.work / f"job{index:03d}"
        second["problems"] += checks.same_payloads(base / first["dir"], base / second["dir"])

    def clear(self, index: int) -> None:
        shutil.rmtree(self.work / f"job{index:03d}", ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _throughput(records, key):
    timed = [r for r in records if r[key] > 0]
    seconds = sum(r["wall_s"] for r in timed)
    return _ratio(sum(r[key] for r in timed), seconds), len(timed)


def _summary(records) -> dict:
    """fail_ratio, point_flag_ratio, points_per_s and eigenpairs_per_s."""
    inproc = [r for r in records if r["mode"] == "in_process"]
    failed = sum(1 for r in records if r["problems"])
    points = sum(r["points"] for r in records)
    flagged = sum(r["flagged"] for r in records)
    points_per_s, n_points = _throughput(inproc, "points")
    eigen_per_s, n_eigen = _throughput(inproc, "eigenpairs")
    return {
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": _ratio(failed, len(records)),
        "points": points,
        "flagged": flagged,
        "point_flag_ratio": _ratio(flagged, points),
        "points_per_s": points_per_s if n_points else None,
        "eigenpairs_per_s": eigen_per_s if n_eigen else None,
    }


def _iqm(values):
    """Interquartile mean: the mean of the middle half of the sorted samples."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut]) if values else 0.0


def _timed_run(deck, workload: str, work: Path, deadline: float) -> tuple[dict, list[str], Runner]:
    # set-up is sampled at points spread over the run, so its median sees
    # the same machine as the jobs rather than only the first seconds
    setup_before = collections.Counter(k * len(deck) // SETUP_SAMPLES for k in range(SETUP_SAMPLES))
    setup: list[float] = []
    repeats = workloads.IN_PROCESS_REPEATS[workload]
    runner = Runner(work)
    for index, job in enumerate(deck):
        if index and time.monotonic() > deadline:
            break
        setup += [s["wall_s"] for s in _import_samples(work, setup_before[index])]
        # alternate which run goes first, so drift does not favour one
        steps = ["child"] + [f"in_process{k}" for k in range(repeats)]
        for label in steps if index % 2 == 0 else steps[::-1]:
            if label == "child":
                child = runner.child(job, index)
            else:
                runner.in_process(job, index, label)
        for record in runner.records[-len(steps):]:
            if record is not child:
                runner.compare(index, child, record)
        runner.clear(index)
    setup += [s["wall_s"] for s in _import_samples(work, SETUP_SAMPLES - len(setup))]

    children = [r for r in runner.records if r["mode"] == "child"]
    inproc = [r for r in runner.records if r["mode"] == "in_process"]
    walls = sorted(r["wall_s"] for r in children)
    cpus = [r["cpu_s"] for r in children]
    computes = [r["wall_s"] for r in inproc]
    summary = _summary(runner.records)
    metrics = {
        "setup_s": _median(setup),
        "wall_iqm_s": _iqm(walls),
        "cpu_iqm_s": _iqm(cpus),
        "compute_iqm_s": _iqm(computes),
        "peak_rss_mb": max((r["rss_mb"] for r in children), default=0.0),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters importing lasercond.cli, "
        "spread over the run",
        f"wall_*, cpu_*, peak_rss_mb: {len(children)} CLI child processes; "
        f"compute_*: {len(computes)} in-process lasercond.cli.main calls, imports warm",
        "*_iqm_s is the mean of the middle half of the samples",
        f"wall_p50_s = {_median(walls)!r} s, cpu_p50_s = {_median(cpus)!r} s, "
        f"compute_p50_s = {_median(computes)!r} s (medians)",
    ]
    if len(walls) > TAIL_BEYOND:
        share = (len(walls) - TAIL_BEYOND) / len(walls)
        notes.append(
            f"wall_tail_s = {walls[-TAIL_BEYOND - 1]!r} s: p{100 * share:.1f} of {len(walls)} "
            f"invocations, the highest percentile with {TAIL_BEYOND} samples beyond it"
        )
    else:
        notes.append(f"wall_tail_s: n/a, {len(walls)} invocations leave no percentile "
                     f"with {TAIL_BEYOND} samples beyond it")
    notes += _summary_notes(summary)
    return {"metrics": metrics, "summary": summary, "setup_samples": setup}, notes, runner


def _summary_notes(summary) -> list[str]:
    notes = [
        f"fail_ratio = {summary['fail_ratio']!r} ({summary['failed']} of {summary['attempted']} invocations)",
        f"point_flag_ratio = {summary['point_flag_ratio']!r} "
        f"({summary['flagged']} of {summary['points']} grid points not-converged or failed)",
    ]
    for key, unit in (("points_per_s", "grid points"), ("eigenpairs_per_s", "block eigenpairs")):
        value = summary[key]
        notes.append(f"{key} = {value!r} 1/s ({unit} per in-process second)" if value is not None
                     else f"{key}: n/a, no {unit} on this workload")
    return notes


def _traced_run(deck, workload: str, work: Path, deadline: float) -> tuple[dict, list[str], Runner]:
    imports = [tracing.parse_importtime(s["stderr"])
               for s in _import_samples(work, IMPORTTIME_SAMPLES, ("-X", "importtime"))]
    runner = Runner(work)
    import lasercond.condensation
    import lasercond.spectrum
    import lasercond.thermal

    package = types.SimpleNamespace(
        cli=runner.cli,
        spectrum=lasercond.spectrum,
        condensation=lasercond.condensation,
        thermal=lasercond.thermal,
    )
    tracer = tracing.Tracer(tracing.bindings(package))
    for index, job in enumerate(deck):
        if index and time.monotonic() > deadline:
            break
        if index % 2 == 0:
            plain = runner.in_process(job, index)
            traced = runner.in_process(job, index, "traced", tracer)
        else:
            traced = runner.in_process(job, index, "traced", tracer)
            plain = runner.in_process(job, index)
        runner.compare(index, plain, traced)
        runner.clear(index)

    plain_s = sum(r["wall_s"] for r in runner.records if r["mode"] == "in_process")
    traced_s = sum(r["wall_s"] for r in runner.records if r["mode"] == "traced")
    summary = _summary(runner.records)
    layers = tracing.layer_metrics(tracing.layer_stats(tracer.spans))
    metrics = {
        "import.total_s": _median([m.get("lasercond.cli", 0.0) for m in imports]),
        "import.scipy_optimize_s": _median([m.get("scipy.optimize", 0.0) for m in imports]),
        **layers,
        "trace.overhead_s": traced_s - plain_s,
        "points_per_s": summary["points_per_s"] or 0.0,
        "eigenpairs_per_s": summary["eigenpairs_per_s"] or 0.0,
        "point_flag_ratio": summary["point_flag_ratio"],
    }
    notes = [
        f"import.*: median of {len(imports)} 'python -X importtime -c \"import lasercond.cli\"' runs",
        f"spans: {len(tracer.spans)} over {sum(1 for r in runner.records if r['mode'] == 'traced')}"
        " traced in-process invocations; throughput from the untraced ones",
        "spectrum.diagonalize.eigvec_mb is computed as 8 * dim^2 bytes per call, not measured",
        "cli.process_pool.s: the --workers pool is one opaque span; solves in pool "
        "children are not seen by the parent",
    ]
    if tracer.unbound:
        notes.append(f"unbound names (no longer in the package): {', '.join(tracer.unbound)}")
    notes += _summary_notes(summary)
    spans = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "invocation": s.invocation, **s.extra}
        for s in tracer.spans
    ]
    result = {
        "metrics": metrics,
        "summary": summary,
        "targets": tracing.TARGETS,
        "unbound": tracer.unbound,
        "spans": spans,
    }
    return result, notes, runner


def _declared(trace_on: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lasercond" / "cli.py").is_file():
        print(f"no lasercond package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    deck = workloads.build_deck(args.workload, args.seed, args.seconds)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = _traced_run if args.trace else _timed_run
        result, notes, runner = run(deck, args.workload, work, started + RUN_BUDGET_FACTOR * args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs_run = len({r["job"] for r in runner.records})
    if jobs_run < len(deck):
        notes.append(f"stopped after {jobs_run} of {len(deck)} jobs: the run reached "
                     f"{RUN_BUDGET_FACTOR} x --seconds")
    env = _environment(runner.backend)
    notes.append(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, BLAS/OpenMP threads {THREAD_ENV['OMP_NUM_THREADS']}, "
        f"manifest backend {env['manifest_backend']}"
    )
    units = _declared(args.trace)
    if set(units) != set(result["metrics"]):
        raise RuntimeError(
            f"benchmark computes {sorted(result['metrics'])}, BENCHMARK.json declares {sorted(units)}"
        )
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    summary = result["summary"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.monotonic() - started,
        "jobs_planned": len(deck),
        "jobs_run": jobs_run,
        "environment": env,
        "configs": [{"command": j.command, "workers": j.workers, "config": j.config} for j in deck],
        "invocations": runner.records,
        "notes": notes,
        **result,
        "metrics": metrics,
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runner.records)} invocations of {len(deck)} jobs in {record['elapsed_s']:.1f} s")
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']!r} {entry['unit']}")
    for note in notes:
        print(f"# {note}")
    for r in runner.records:
        if r["problems"]:
            print(f"# FAILED job {r['job']} ({r['mode']}): {'; '.join(map(str, r['problems']))[:500]}")
    print(f"# details: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
