"""Seeded inputs for the benchmark workloads.

Every workload is a deck of jobs: one CLI command with its flat
``key = value`` config.  The deck is drawn from ``random.Random(seed)``
alone, so the same seed always gives the same configs.  Parameters that
set the cost of a job (block size, ladder width, grid length) sit on
fixed strata that span the stated range, and the seed moves each value
inside its stratum; the remaining physics parameters are drawn over their
whole range.  That keeps the mix of job sizes the same from seed to seed,
so run medians compare across seeds, while the seed still changes every
input the program sees.

Nothing here imports lasercond: the deck is built from the stated
parameter domains only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Jobs per second of --seconds.  At the seed commit a run with --seconds 20
# took 20 to 30 s, set-up included, on a shared 2-vCPU x86-64 container.
# The deck length is fixed by --seconds, never by how fast the program is,
# so a faster program does the same work in less time.
JOBS_PER_SECOND = {
    "sweep_analytic": 0.5,
    "spectrum_large": 0.4,
    "spectral_sweep": 0.4,
    "small_runs": 0.85,
}
MIN_JOBS = 4
# In-process runs per job.  Where a run costs milliseconds to a few tenths
# of a second, repeating it adds samples at little cost; the large
# eigensystems and the pool sweeps run once.
IN_PROCESS_REPEATS = {
    "sweep_analytic": 2,
    "spectrum_large": 1,
    "spectral_sweep": 1,
    "small_runs": 3,
}
WORKLOADS = tuple(JOBS_PER_SECOND)

SWEEP_POINTS = 1000


@dataclass(frozen=True)
class Job:
    """One CLI invocation: the command, its config and the --workers flag."""

    command: str
    config: dict
    workers: int | None = None

    def config_text(self) -> str:
        return "".join(f"{key} = {_fmt(value)}\n" for key, value in self.config.items())

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out_dir]
        if self.workers is not None:
            args += ["--workers", str(self.workers)]
        return args


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _half(two_x: int):
    """Config value of a half-integer carried as its doubled integer."""
    return two_x // 2 if two_x % 2 == 0 else two_x / 2.0


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng: random.Random, n: int, lo: float, hi: float, *, log: bool, spread: float):
    """n values, the k-th inside the k-th of n equal strata of [lo, hi].

    ``spread`` is the share of its stratum, centred, that a value may
    take.  The strata are returned in order; callers shuffle the jobs.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = []
    for k in range(n):
        u = 0.5 + spread * (rng.random() - 0.5)
        x = a + (b - a) * (k + u) / n
        values.append(math.exp(x) if log else x)
    return values


def _lhs(rng: random.Random, n: int, lo: float, hi: float, *, log: bool = True) -> list:
    """Latin-hypercube draw: one value from each of n strata, in random order."""
    values = _strata(rng, n, lo, hi, log=log, spread=1.0)
    rng.shuffle(values)
    return values


def _baths(rng: random.Random, n: int) -> list[dict]:
    # the moderate solver domain: beta in [0.1, 10], chi in [0.01, 1]
    betas = _lhs(rng, n, 0.1, 10.0)
    chis = _lhs(rng, n, 0.01, 1.0)
    return [{"bath.beta": b, "bath.phi": 1.0, "bath.chi": c} for b, c in zip(betas, chis)]


def _analytic_ladders(rng: random.Random, two_rs: list[int]) -> list[dict]:
    n = len(two_rs)
    c_refs = _lhs(rng, n, 1e2, 1e4)
    omegas = _lhs(rng, n, 0.5, 2.0, log=False)
    shares = _lhs(rng, n, 1e-3, 1.0)
    ladders = []
    for two_r, c_ref, omega, share in zip(two_rs, c_refs, omegas, shares):
        # keep the bottom level positive: r kappa / sqrt(c_ref) <= 0.8
        kappa_max = min(1.0, 0.8 * math.sqrt(c_ref) / max(two_r / 2.0, 0.5))
        ladders.append({
            "ladder.source": "analytic",
            "ladder.r": _half(two_r),
            "ladder.omega": omega,
            "ladder.kappa": kappa_max * share,
            "ladder.c_ref": c_ref,
        })
    return ladders


def _log_grids(rng: random.Random, points: list[int]) -> list[dict]:
    n = len(points)
    s_mins = _lhs(rng, n, 1e-2, 1e-1)
    s_maxs = _lhs(rng, n, 1e3, 1e4)
    return [
        {"pump.s_min": lo, "pump.s_max": hi, "pump.points": count, "pump.grid": "log"}
        for lo, hi, count in zip(s_mins, s_maxs, points)
    ]


def sweep_analytic(rng: random.Random, n: int) -> list[Job]:
    """Serial 1000-point log sweeps on analytic ladders with 2r+1 <= 79."""
    two_rs = [min(78, int(x)) for x in _strata(rng, n, 2, 79, log=False, spread=1.0)]
    parts = zip(_analytic_ladders(rng, two_rs), _baths(rng, n), _log_grids(rng, [SWEEP_POINTS] * n))
    return [Job("sweep", {**ladder, **bath, **grid}) for ladder, bath, grid in parts]


def spectrum_large(rng: random.Random, n: int) -> list[Job]:
    """Full (r, c) block eigensystems with dimensions 101..401."""
    dims = _strata(rng, n, 101, 401, log=True, spread=0.1)
    jobs = []
    for dim in dims:
        dim = int(round(dim))
        if rng.random() < 0.5:
            # complete block, c >= r: dim = 2r + 1
            two_r = dim - 1
            two_c = two_r + 2 * rng.randint(0, two_r)
        else:
            # truncated block, c < r: n runs 0 .. c + r, dim = c + r + 1
            two_r = rng.randint(dim, 2 * (dim - 1))
            two_c = 2 * (dim - 1) - two_r
        config = {
            "spectrum.r": _half(two_r),
            "spectrum.c": _half(two_c),
            "spectrum.kappa": _loguniform(rng, 0.1, 3.0),
        }
        jobs.append(Job("spectrum", config))
    return jobs


def spectral_sweep(rng: random.Random, n: int) -> list[Job]:
    """--workers 2 sweeps on exact-spectrum ladders with 2r in [100, 200]."""
    two_rs = [int(round(x)) for x in _strata(rng, n, 100, 200, log=False, spread=0.2)]
    points = [int(round(x)) for x in _strata(rng, n, 60, 200, log=False, spread=0.2)]
    omegas = _lhs(rng, n, 0.5, 2.0, log=False)
    shares = _lhs(rng, n, 0.05, 0.5)
    jobs = []
    for two_r, omega, share, bath, grid in zip(two_rs, omegas, shares, _baths(rng, n), _log_grids(rng, points)):
        two_c = two_r + 2 * rng.randint(0, two_r // 2)
        # the linear ladder's bottom level is 1 - r kappa / sqrt(c) > 0
        config = {
            "ladder.source": "spectral",
            "ladder.r": _half(two_r),
            "ladder.c": _half(two_c),
            "ladder.omega": omega,
            "ladder.kappa": share * math.sqrt(two_c / 2.0) / (two_r / 2.0),
            **bath,
            **grid,
        }
        jobs.append(Job("sweep", config, workers=2))
    return jobs


def small_runs(rng: random.Random, n: int) -> list[Job]:
    """Short thermal, steady-state and threshold runs, about 50/30/20 per cent.

    Thermal and steady-state runs take a few milliseconds in-process and a
    threshold run about ten times that.  Keeping threshold runs below a
    quarter of the deck keeps that jump out of the middle half of the
    in-process samples, where it would make their interquartile mean
    depend on noise at the edge.
    """
    n_thermal = max(2, n // 2)
    n_threshold = max(1, n // 5)
    n_steady = max(1, n - n_thermal - n_threshold)
    jobs = []
    for k in range(n_thermal):
        # alternate small N (checked against the enumeration oracle) and large N
        n_mol = rng.randint(1, 14) if k % 2 == 0 else rng.randint(15, 400)
        betas = sorted(_loguniform(rng, 0.05, 5.0) for _ in range(4))
        config = {"thermal.n": n_mol, "thermal.beta": ", ".join(format(b, ".17g") for b in betas)}
        jobs.append(Job("thermal", config))
    steady = zip(
        _analytic_ladders(rng, [rng.randint(1, 78) for _ in range(n_steady)]),
        _baths(rng, n_steady),
        _lhs(rng, n_steady, 1e-2, 1e4),
    )
    for k, (ladder, bath, s) in enumerate(steady):
        config = {**ladder, **bath}
        if k % 2 == 0:
            config["pump.s"] = s
        else:
            q = _loguniform(rng, 1e-2, 10.0)
            config["pump.p"] = s + q
            config["pump.q"] = q
        jobs.append(Job("steady-state", config))
    threshold = zip(
        _analytic_ladders(rng, [rng.randint(1, 78) for _ in range(n_threshold)]),
        _baths(rng, n_threshold),
    )
    for ladder, bath in threshold:
        jobs.append(Job("threshold", {**ladder, **bath}))
    return jobs


_BUILDERS = {
    "sweep_analytic": sweep_analytic,
    "spectrum_large": spectrum_large,
    "spectral_sweep": spectral_sweep,
    "small_runs": small_runs,
}


def deck_size(workload: str, seconds: float) -> int:
    return max(MIN_JOBS, round(seconds * JOBS_PER_SECOND[workload]))


def build_deck(workload: str, seed: int, seconds: float) -> list[Job]:
    """The seeded job list of one run, in the order it is executed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, deck_size(workload, seconds))
    rng.shuffle(jobs)
    return jobs
