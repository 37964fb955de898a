"""Outcome counts of the steady-state solver over its fuzz domain.

    python scripts/solver_census.py --src path/to/src [--seed 0] [--draws 4000]

The domain is ROADMAP item 1's: analytic ladders with omega = 1,
kappa = 0.1, c_ref = 100 and 2r uniform in 0..78; beta in 0.1-2000, phi
in 1e-3-1e3, chi in 1e-4-1e2 and s in 1e-3-1e5, all log-uniform.  Each
draw takes 2r, beta, phi, chi and s, in that order, from
``random.Random(seed)``, and is solved with ``solve_steady_state``.

The script prints one JSON object of counts: converged points, points
flagged by gate (``closure`` only, ``residual`` only, ``both``), points
refused or failed by reason (matched on the fixed words of each error
message; an unmatched message counts under its exception type), and
draws that raised a warning.  Nothing is timed, so a seed gives the same
bytes on every run.  Pointing ``--src`` at two checkouts gives a
before/after pair from the same draws.
"""

import argparse
import json
import math
import os
import random
import sys
import warnings

DOMAIN = {
    "two_r": [0, 78],
    "beta": [0.1, 2000.0],
    "phi": [1e-3, 1e3],
    "chi": [1e-4, 1e2],
    "s": [1e-3, 1e5],
}

# fixed words of each refusal and failure message, and the name counted;
# pole_below_epsilon, no_bracket and no_root are raised only by older trees
REASONS = (
    ("must be >= 0", "negative_supply"),
    ("degenerate ladder", "degenerate_ladder"),
    ("transfer S", "transfer_overflow"),
    ("every occupation underflows", "occupations_underflow"),
    ("closed-form occupations", "closed_form_overflow"),
    ("near-pole occupations", "pole_overflow"),
    ("below machine epsilon", "pole_below_epsilon"),
    ("no admissible bracket", "no_bracket"),
    ("no root", "no_root"),
    ("closure is NaN", "closure_nan"),
    ("did not converge", "newton_not_converged"),
)


def draws(seed: int, count: int):
    """(two_r, beta, phi, chi, s) of each draw, in the census's order."""
    rng = random.Random(seed)

    def log_uniform(name):
        lo, hi = DOMAIN[name]
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(count):
        two_r = rng.randint(*DOMAIN["two_r"])
        yield (two_r, *(log_uniform(name) for name in ("beta", "phi", "chi", "s")))


def outcome(cd, draw) -> str:
    """``converged``, the gate a flagged point fails, or the reason it raised."""
    two_r, beta, phi, chi, s = draw
    ladder = cd.ladder_analytic(two_r, 1.0, 0.1, 100.0)
    bath = cd.BathParams(beta=beta, phi=phi, chi=chi)
    try:
        solution = cd.solve_steady_state(ladder, bath, cd.PumpParams.from_supply(s))
    except Exception as error:  # noqa: BLE001 - every failure is counted
        text = str(error)
        return next((name for words, name in REASONS if words in text), type(error).__name__)
    if solution.converged():
        return "converged"
    # the two halves of SteadyStateGrid.converged()
    residual_ok = solution.max_residual < 1e-8 * max(solution.scale, phi)
    closure_ok = solution.eta_closure < 1e-10 * solution.eta
    if residual_ok:
        return "closure"
    return "residual" if closure_ok else "both"


def census(cd, seed: int, count: int) -> dict:
    counts = {"converged": 0, "flagged": {}, "refused": {}, "warned": 0}
    for draw in draws(seed, count):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = outcome(cd, draw)
        counts["warned"] += bool(caught)
        if status == "converged":
            counts["converged"] += 1
        else:
            kind = "flagged" if status in ("closure", "residual", "both") else "refused"
            counts[kind][status] = counts[kind].get(status, 0) + 1
    counts["flagged"] = dict(sorted(counts["flagged"].items()))
    counts["refused"] = dict(sorted(counts["refused"].items()))
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds lasercond/")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=4000)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from lasercond import condensation

    counts = census(condensation, args.seed, args.draws)
    print(json.dumps({"seed": args.seed, "draws": args.draws, "domain": DOMAIN, **counts}))


if __name__ == "__main__":
    main()
