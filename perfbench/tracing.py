"""Spans around lasercond's public functions, recorded from outside the package.

The tracer replaces a public name where its caller looks it up -- for
example ``lasercond.cli.parse_config`` (cli binds ``parse_config``) and
``lasercond.spectrum.tridiag_eigh`` (spectrum binds ``tridiag_eigh``) --
with a wrapper that records a span, and puts the original back when
tracing stops.  Each span holds its name, start, end, the index of the
span that was open when it started, and the invocation it belongs to.
Spans stay in memory and are written out when the run ends; self times
are derived from them afterwards.

Grid points solved inside ``--workers`` pool children run in other
processes, so their spans never reach this one: the pool shows as one
opaque ``cli.process_pool`` span, from entering the executor to leaving it.

A name the package no longer has is skipped and reported as unbound, so
a change that removes a function does not break the benchmark.
"""

from __future__ import annotations

import concurrent.futures
import functools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    invocation: int
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _block_dim(args, result, ok):
    try:
        return {"dim": len(args[0].diagonal)}
    except (AttributeError, IndexError, TypeError):
        return {}


def _file_bytes(args, result, ok):
    try:
        return {"bytes": Path(result).stat().st_size} if ok else {}
    except (OSError, TypeError):
        return {}


def _converged(args, result, ok):
    try:
        return {"converged": bool(ok and result.converged())}
    except AttributeError:
        return {"converged": False}


def bindings(lasercond) -> list[tuple]:
    """(owner, attribute, span name, annotator) for every traced boundary.

    ``lasercond`` is a namespace holding the package's modules.  Each
    owner is the module or class through which the caller finds the name.
    """
    cli, spectrum, condensation, thermal = (
        lasercond.cli,
        lasercond.spectrum,
        lasercond.condensation,
        lasercond.thermal,
    )
    run_class = getattr(cli, "Run", None)
    return [
        (cli, "parse_config", "config.parse_config", None),
        (run_class, "write_csv", "cli.write_csv", _file_bytes),
        (run_class, "finish", "cli.finish", None),
        (condensation, "ladder_from_spectrum", "condensation.ladder_from_spectrum", None),
        (condensation, "solve_steady_state", "condensation.solve_steady_state", _converged),
        (condensation, "fit_mean_frequency", "condensation.fit_mean_frequency", None),
        (condensation, "detect_condensation_knee", "condensation.detect_condensation_knee", None),
        (spectrum, "build_block", "spectrum.build_block", None),
        (spectrum, "diagonalize", "spectrum.diagonalize", _block_dim),
        (spectrum, "photon_statistics", "spectrum.photon_statistics", None),
        (spectrum, "tridiag_eigh", "accel.tridiag_eigh", None),
        (thermal, "thermal_moments", "thermal.thermal_moments", None),
        (thermal, "enumeration_moments", "thermal.enumeration_moments", None),
    ]


class Tracer:
    """Records spans while installed; holds every span of the run."""

    def __init__(self, targets: list[tuple]):
        self.targets = targets
        self.spans: list[Span] = []
        self.unbound = sorted(
            name for owner, attr, name, _ in targets if getattr(owner, attr, None) is None
        )
        self.invocation = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.invocation))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.close(index)
                if annotate is not None:
                    tracer.spans[index].extra.update(annotate(args, result, ok))

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._bench_span = tracer.open("cli.process_pool")
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    tracer.close(self._bench_span)

        return TracedPool

    def install(self, invocation: int) -> None:
        self.invocation = invocation
        for owner, attr, name, annotate in self.targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))
        pool = concurrent.futures.ProcessPoolExecutor
        self._saved.append((concurrent.futures, "ProcessPoolExecutor", pool))
        concurrent.futures.ProcessPoolExecutor = self._pool_class(pool)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)
    extras: list = field(default_factory=list)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    stats: dict[str, LayerStats] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += own
        entry.durations.append(span.duration)
        entry.extras.append(span.extra)
    return stats


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return cumulative


def layer_metrics(stats: dict[str, LayerStats]) -> dict[str, float]:
    """The per-layer figures derived from the spans of a traced run."""

    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    diag = get("spectrum.diagonalize")
    dims = [extra.get("dim", 0) for extra in diag.extras]
    solve = get("condensation.solve_steady_state")
    converged = sum(1 for extra in solve.extras if extra.get("converged"))
    csv = get("cli.write_csv")
    return {
        "config.parse_config.self_s": get("config.parse_config").self_s,
        "config.parse_config.calls": get("config.parse_config").calls,
        "condensation.ladder_from_spectrum.s": get("condensation.ladder_from_spectrum").total_s,
        "condensation.ladder_from_spectrum.calls": get("condensation.ladder_from_spectrum").calls,
        "spectrum.build_block.s": get("spectrum.build_block").total_s,
        "spectrum.diagonalize.s": diag.total_s,
        "spectrum.diagonalize.calls": diag.calls,
        "spectrum.diagonalize.dim_sum": sum(dims),
        # computed, not measured: the dense eigenvector matrix, 8 dim^2 bytes
        "spectrum.diagonalize.eigvec_mb": sum(8.0 * d * d for d in dims) / 2**20,
        "accel.tridiag_eigh.self_s": get("accel.tridiag_eigh").self_s,
        "spectrum.photon_statistics.s": get("spectrum.photon_statistics").total_s,
        "spectrum.photon_statistics.calls": get("spectrum.photon_statistics").calls,
        "condensation.solve_steady_state.s": solve.total_s,
        "condensation.solve_steady_state.calls": solve.calls,
        "condensation.solve_steady_state.p50_us": (
            statistics.median(solve.durations) * 1e6 if solve.durations else 0.0
        ),
        "condensation.converged_ratio": converged / solve.calls if solve.calls else 0.0,
        "condensation.fit_mean_frequency.s": get("condensation.fit_mean_frequency").total_s,
        "condensation.detect_condensation_knee.s": get(
            "condensation.detect_condensation_knee"
        ).total_s,
        "thermal.thermal_moments.s": get("thermal.thermal_moments").total_s,
        "thermal.enumeration_moments.s": get("thermal.enumeration_moments").total_s,
        "cli.write_csv.s": csv.total_s,
        "cli.write_csv.bytes": sum(extra.get("bytes", 0) for extra in csv.extras),
        "cli.finish.s": get("cli.finish").total_s,
        "cli.process_pool.s": get("cli.process_pool").total_s,
    }


# Which end-to-end figure each per-layer metric should move, and where.
# BENCHMARK.json holds only name, unit and direction, so the map lives here
# and is written into every traced result.
TARGETS = {
    "import.total_s": ("setup_s, wall_iqm_s", "small_runs most, every workload"),
    "import.scipy_optimize_s": ("setup_s, wall_iqm_s", "small_runs most, every workload"),
    "config.parse_config.self_s": ("wall_iqm_s", "small_runs"),
    "config.parse_config.calls": ("wall_iqm_s", "small_runs"),
    "condensation.ladder_from_spectrum.s": ("compute_iqm_s", "spectral_sweep"),
    "condensation.ladder_from_spectrum.calls": ("compute_iqm_s", "spectral_sweep"),
    "spectrum.build_block.s": ("compute_iqm_s", "spectrum_large"),
    "spectrum.diagonalize.s": (
        "eigenpairs_per_s, compute_iqm_s",
        "spectrum_large (eigenpairs), spectral_sweep (compute)",
    ),
    "spectrum.diagonalize.calls": ("eigenpairs_per_s, compute_iqm_s", "spectrum_large, spectral_sweep"),
    "spectrum.diagonalize.dim_sum": ("eigenpairs_per_s, compute_iqm_s", "spectrum_large, spectral_sweep"),
    "spectrum.diagonalize.eigvec_mb": ("eigenpairs_per_s, compute_iqm_s", "spectrum_large, spectral_sweep"),
    "accel.tridiag_eigh.self_s": ("eigenpairs_per_s, compute_iqm_s", "spectrum_large, spectral_sweep"),
    "spectrum.photon_statistics.s": ("compute_iqm_s", "spectrum_large"),
    "spectrum.photon_statistics.calls": ("compute_iqm_s", "spectrum_large"),
    "condensation.solve_steady_state.s": ("points_per_s", "sweep_analytic, spectral_sweep"),
    "condensation.solve_steady_state.calls": ("points_per_s", "sweep_analytic, spectral_sweep"),
    "condensation.solve_steady_state.p50_us": ("points_per_s", "sweep_analytic, spectral_sweep"),
    "condensation.converged_ratio": ("point_flag_ratio", "sweep_analytic"),
    # threshold runs are the slowest fifth of small_runs' in-process samples,
    # which the interquartile mean trims; the median note shows them no better
    "condensation.fit_mean_frequency.s": ("compute_iqm_s (large changes only)", "small_runs (threshold)"),
    "condensation.detect_condensation_knee.s": ("compute_iqm_s (large changes only)", "small_runs (threshold)"),
    "thermal.thermal_moments.s": ("wall_iqm_s", "small_runs"),
    "thermal.enumeration_moments.s": ("wall_iqm_s", "small_runs"),
    "cli.write_csv.s": ("compute_iqm_s", "sweep_analytic, spectrum_large"),
    "cli.write_csv.bytes": ("compute_iqm_s", "sweep_analytic, spectrum_large"),
    "cli.finish.s": ("compute_iqm_s", "sweep_analytic, spectrum_large"),
    "cli.process_pool.s": ("compute_iqm_s, wall_iqm_s", "spectral_sweep"),
    "trace.overhead_s": ("none: traced minus untraced in-process time", "every workload"),
    "points_per_s": ("compute_iqm_s", "sweep_analytic, spectral_sweep"),
    "eigenpairs_per_s": ("compute_iqm_s", "spectrum_large, spectral_sweep"),
    "point_flag_ratio": ("fail-free runs; the solver's flagged points", "sweep_analytic, spectral_sweep"),
}
