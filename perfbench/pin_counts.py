"""Regenerate ``count_pins.json``: the pinned large-degree trinomials of the
``count`` workload.

Usage (from the repository root):  python3 perfbench/pin_counts.py

The inputs come from a fixed generator seed.  Each count is the solver's
answer, cross-checked here against the brute-force oracle's certify-or-die
sweep.  The oracle's public entry point cannot run at these degrees (its
degenerate sidecar raises a rational to the power d), so the cross-check
uses its sweep directly; that is sound because every pinned input has a
nonzero discriminant (checked below), so none has a degenerate root.  Pins
are meant to be taken once, from a trusted commit, and then left alone:
the benchmark compares every later commit against them.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from padicroots import TrinomialInput, discriminant_tri, solve_sparse  # noqa: E402
from padicroots.newton_polygon import integral_valuation_candidates  # noqa: E402
from padicroots.oracle import DEFAULT_BUDGET, _certify_count, _rescale  # noqa: E402
from padicroots.sparsepoly import SparsePoly  # noqa: E402

POOL_SEED = "count pins v1"
POOL_SIZE = 240
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def large_trinomial(rng: random.Random) -> SparsePoly:
    """Degree in [2^20, 2^62), coefficients of 1 to 320 bits."""
    while True:
        bits = rng.randint(21, 62)
        a3 = rng.randint(1 << (bits - 1), (1 << bits) - 1)
        a2 = rng.randint(1, a3 - 1)
        cs = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 320)) for _ in range(3)]
        if all(cs):
            return SparsePoly.from_terms([(0, cs[0]), (a2, cs[1]), (a3, cs[2])])


def oracle_count(f: SparsePoly, p: int) -> int:
    inp, _ = TrinomialInput.from_poly(f, p)
    if discriminant_tri(inp).is_zero:
        raise ValueError(f"{f.to_text()} has a vanishing discriminant; not pinnable")
    total = 0
    for v, _mult in integral_valuation_candidates(f, p):
        n, _ = _certify_count(_rescale(f, p, v), p, [], DEFAULT_BUDGET)
        total += n
    return total


def main() -> int:
    rng = random.Random(POOL_SEED)
    inputs = []
    for _ in range(POOL_SIZE):
        f = large_trinomial(rng)
        p = rng.choice(PRIMES)
        count = solve_sparse(f, p).root_count
        if count != oracle_count(f, p):
            print(f"solver and oracle disagree on {f.to_text()} at p = {p}", file=sys.stderr)
            return 1
        inputs.append({"poly": f.to_text(), "p": p, "count": count})
    out = {
        "about": "count workload trinomials; counts from solve_sparse, cross-checked "
                 "by the oracle sweep; regenerate with perfbench/pin_counts.py",
        "inputs": inputs,
    }
    (HERE / "count_pins.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"pinned {len(inputs)} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
