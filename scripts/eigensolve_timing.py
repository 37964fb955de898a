"""Time the block eigensolve of one checkout over block dimensions 101 to 2001.

    python scripts/eigensolve_timing.py --src path/to/src [--repeats 7]

BLAS/OpenMP thread pools are pinned to one thread.  For each complete
block r = c (dim = 2r + 1, kappa = 1) the script times, on an already
built block,

- ``spectrum.diagonalize`` (eigensystem),
- ``spectrum.block_eigenvalues`` (eigenvalues only),
- ``spectrum.photon_moments(spectrum.diagonalize(block))``, the numeric
  path of the ``spectrum`` command,

and prints the minimum over ``--repeats`` calls of each, in seconds, as
one JSON object.  Each dim also gets ``cli_path_rss_rise_mb``: the rise
of ``ru_maxrss`` over one call of the command's path, read in a fresh
child process per dim that has already built the block and run the path
once on a dim-11 block.  The children run before this process imports
numpy, so its own high-water mark, which a child inherits, stays below
theirs.  Pointing ``--src`` at two checkouts gives a before/after pair
from the same script.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

DIMS = (101, 201, 401, 801, 1001, 2001)


def _best(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def _cli_path(spectrum, block):
    return spectrum.photon_moments(spectrum.diagonalize(block))


def _complete_block(spectrum, dim: int):
    return spectrum.build_block(spectrum.BlockIndex(dim - 1, dim - 1, 1.0))


def _rss_rise_mb(spectrum, dim: int) -> float:
    """ru_maxrss rise, in MB, over one call of the command's path."""
    _cli_path(spectrum, _complete_block(spectrum, 11))
    block = _complete_block(spectrum, dim)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _cli_path(spectrum, block)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (after - before) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds lasercond/")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--rss-dim", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy loads its BLAS
    if args.rss_dim is None:
        rises = {
            dim: float(subprocess.run(
                [sys.executable, __file__, "--src", args.src, "--rss-dim", str(dim)],
                check=True, capture_output=True, text=True,
            ).stdout)
            for dim in DIMS
        }
    sys.path.insert(0, os.path.abspath(args.src))
    from lasercond import spectrum

    if args.rss_dim is not None:
        print(_rss_rise_mb(spectrum, args.rss_dim))
        return
    rows = {}
    for dim in DIMS:
        block = _complete_block(spectrum, dim)
        rows[str(dim)] = {
            "full_s": _best(lambda: spectrum.diagonalize(block), args.repeats),
            "eigenvalues_only_s": _best(lambda: spectrum.block_eigenvalues(block), args.repeats),
            "cli_path_s": _best(lambda: _cli_path(spectrum, block), args.repeats),
            "cli_path_rss_rise_mb": rises[dim],
        }
    print(json.dumps({"src": args.src, "repeats": args.repeats, "threads": 1, "dims": rows}))


if __name__ == "__main__":
    main()
