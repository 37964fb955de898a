"""Time the block eigensolve of one checkout over block dimensions 101 to 2001.

    python scripts/eigensolve_timing.py --src path/to/src [--repeats 7]

BLAS/OpenMP thread pools are pinned to one thread.  For each complete
block r = c (dim = 2r + 1, kappa = 1) the script times
``spectrum.diagonalize`` (full eigensystem) and
``spectrum.block_eigenvalues`` (eigenvalues only) on an already built
block, and prints the minimum over ``--repeats`` calls of each, in
seconds, as one JSON object.  Pointing ``--src`` at two checkouts gives a
before/after pair from the same script.
"""

import argparse
import json
import os
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds lasercond/")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, os.path.abspath(args.src))
    from lasercond import spectrum

    rows = {}
    for dim in DIMS:
        block = spectrum.build_block(spectrum.BlockIndex(dim - 1, dim - 1, 1.0))
        rows[str(dim)] = {
            "full_s": _best(lambda: spectrum.diagonalize(block), args.repeats),
            "eigenvalues_only_s": _best(lambda: spectrum.block_eigenvalues(block), args.repeats),
        }
    print(json.dumps({"src": args.src, "repeats": args.repeats, "threads": 1, "dims": rows}))


if __name__ == "__main__":
    main()
