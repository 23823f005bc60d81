"""Seeded input generators for the four benchmark workloads.

The polynomial generators are copies, not imports, of the test-suite
helpers, so that an edit to the tests can never shift a workload.  Every
stream draws from one ``random.Random`` seeded with the workload name and
the seed: the same seed yields the same operations in the same order.  The program under test only ever sees the
generated polynomials.

A stream yields *cycles*: short lists of operations that together cover the
workload's strata once (primes, family parameters, root-count sizes).  The
runner measures whole cycles, so every run has the same composition and the
per-run figures vary little between seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from padicroots.sparsepoly import SparsePoly, parse_poly

WORKLOADS = ("corpus", "large-p", "degenerate", "count")

CORPUS_PRIMES = (2, 3, 5, 7, 11, 13)
DEGENERATE_PRIMES = (2, 3, 5, 7)
LARGE_P_LOW, LARGE_P_HIGH = 10_000, 99_991  # 99991 is the largest prime below the desk cap
LARGE_P_BANDS = 100  # bands of equal width in log p, one operation each per cycle
COUNT_P_MAX = 20_000
# (target root count, binomials per cycle); each target is met within 5%.
# The 90th latency percentile falls inside the 2000-root stratum.
COUNT_BINOMIALS = ((300, 2), (1000, 2), (2000, 3), (4000, 1))
COUNT_TRINOMIALS_PER_CYCLE = 20
# Timed rounds per run, each in a fresh interpreter: the runner replays
# round 1 and keeps each operation's fastest time, which filters out slow
# spells of a shared machine.  A degenerate cycle is the whole family and
# already fills a run; it takes longer than 15 s (about 24 s on a 2-vCPU
# Xeon VM), so a degenerate run measures for longer than ``--seconds``.
ROUNDS = {"corpus": 5, "large-p": 3, "degenerate": 1, "count": 2}
COUNT_PINS = Path(__file__).with_name("count_pins.json")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``poly`` and ``p`` are the solver input.  ``argv`` is set for operations
    that go through the command line.  ``expected`` is the root count known
    by construction or pinned; ``None`` means the oracle decides.
    """

    poly: SparsePoly
    p: int
    argv: tuple[str, ...] | None = None
    expected: int | None = None

    def describe(self) -> str:
        return f"{self.poly.to_text()} at p = {self.p}"


# -- copies of the test-suite generators ------------------------------------


def random_trinomial(rng: random.Random, d_max: int = 40, h_max: int = 50) -> SparsePoly:
    """Random 3-term polynomial with constant term, retrying collisions."""
    while True:
        a3 = rng.randint(2, d_max)
        a2 = rng.randint(1, a3 - 1)
        coeff = lambda: rng.choice([x for x in range(-h_max, h_max + 1) if x])
        f = SparsePoly.from_terms([(0, coeff()), (a2, coeff()), (a3, coeff())])
        if f.term_count == 3:
            return f


def random_binomial(rng: random.Random, d_max: int = 40, h_max: int = 30) -> SparsePoly:
    while True:
        d = rng.randint(1, d_max)
        coeff = lambda: rng.choice([x for x in range(-h_max, h_max + 1) if x])
        f = SparsePoly.from_terms([(0, coeff()), (d, coeff())])
        if f.term_count == 2:
            return f


def degenerate_u_choices(p: int) -> tuple[int, ...]:
    return (1, 2, 3, 5, p, p * p)


# every (ab2, ab3, r) the degenerate family can draw
DEGENERATE_SHAPES = tuple(
    (ab2, ab3, r)
    for ab3 in range(2, 9)
    for ab2 in range(1, ab3)
    if math.gcd(ab2, ab3) == 1
    for r in range(1, 4)
)


DEGENERATE_C = (1, -1, 2, -3)


def degenerate_trinomial(rng: random.Random, p: int, u: int | None = None,
                         shape: tuple[int, int, int] | None = None,
                         c: int | None = None) -> SparsePoly:
    """c * q_{ab2,ab3}(u x^r): a trinomial whose discriminant vanishes.

    The test suite's family, with u also drawn from {5, p, p^2} so that the
    degenerate root can carry a p-adic valuation.  ``u``, the shape
    (ab2, ab3, r) and ``c`` are drawn as in the test suite unless given.
    """
    if shape is None:
        while True:
            ab3 = rng.randint(2, 8)
            ab2 = rng.randint(1, ab3 - 1)
            if math.gcd(ab2, ab3) == 1:
                break
        r = rng.randint(1, 3)
    else:
        ab2, ab3, r = shape
    if u is None:
        u = rng.choice(degenerate_u_choices(p))
    if c is None:
        c = rng.choice(DEGENERATE_C)
    return SparsePoly.from_terms(
        [(0, c * (ab3 - ab2)), (ab2 * r, -c * ab3 * u ** ab2), (ab3 * r, c * ab2 * u ** ab3)]
    )


# -- paper-scale inputs for `count` -----------------------------------------


def has_repeated_root(f: SparsePoly) -> bool:
    """Whether the trinomial c1 + c2 x^a2 + c3 x^a3 has a repeated nonzero
    root: its trinomial discriminant, evaluated exactly, vanishes."""
    (_, c1), (a2, c2), (a3, c3) = f.terms
    r = math.gcd(a2, a3)
    b2, b3 = a2 // r, a3 // r
    return b3 ** b3 * c1 ** (b3 - b2) * c3 ** b2 == b2 ** b2 * (b3 - b2) ** (b3 - b2) * (-c2) ** b3


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's own check, independent of the program."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def count_binomial(rng: random.Random, target: int) -> Op:
    """c x^d - c t at a prime p <= COUNT_P_MAX with a known root count.

    p - 1 has a divisor g within 5% of target; d = g m with m prime to
    (p - 1)/g and to p, so gcd(d, p - 1) = g and p does not divide d; and
    t = y^d mod p is a nonzero d-th power residue.  Hensel's lemma then
    lifts each of the g solutions of x^d = t in F_p to exactly one root in
    Z_p, and no root has nonzero valuation: the count is g by construction.
    """
    lo, hi = math.ceil(0.95 * target), math.floor(1.05 * target)
    while True:
        p = rng.randint(lo + 1, COUNT_P_MAX)
        if not is_prime(p):
            continue
        divisors = [g for g in range(lo, hi + 1) if (p - 1) % g == 0]
        if divisors:
            break
    g = rng.choice(divisors)
    cofactor = (p - 1) // g
    while True:
        m = rng.randint(1, 1 << 40)
        if math.gcd(m, cofactor) == 1 and m % p:
            break
    d = g * m
    t = pow(rng.randint(1, p - 1), d, p)
    c = rng.choice([1, -1, 2, -3, 5, -7])
    f = SparsePoly.from_terms([(0, -c * t), (d, c)])
    return Op(f, p, argv=("count", f.to_text(), "--p", str(p)), expected=g)


def load_count_pins() -> list[Op]:
    """Large-degree trinomials with counts pinned by ``pin_counts.py``."""
    data = json.loads(COUNT_PINS.read_text())
    return [
        Op(parse_poly(e["poly"]), e["p"], argv=("count", e["poly"], "--p", str(e["p"])),
           expected=e["count"])
        for e in data["inputs"]
    ]


# -- workload streams ------------------------------------------------------


def corpus_cycles(rng: random.Random):
    """Acceptance-corpus mix: trinomials and binomials 3:2, p <= 13."""
    while True:
        yield [
            Op(random_trinomial(rng) if kind == "T" else random_binomial(rng),
               rng.choice(CORPUS_PRIMES))
            for kind in "TBTBT"
        ]


def large_p_cycles(rng: random.Random):
    """Degree <= 12 trinomials, one at a prime from each band of [10^4, 99991].

    The bands have equal width in log p, so each cycle spans the range the
    way a log-uniform draw would, at a fixed cost per cycle.

    Trinomials with a repeated root are redrawn: they belong to the
    degenerate workload, and at a repeated root the oracle's sweep costs
    p^2 evaluations, past its work budget at these primes.
    """
    ratio = (LARGE_P_HIGH / LARGE_P_LOW) ** (1 / LARGE_P_BANDS)
    while True:
        cycle = []
        for b in range(LARGE_P_BANDS):
            lo = math.ceil(LARGE_P_LOW * ratio ** b)
            hi = min(LARGE_P_HIGH, math.floor(LARGE_P_LOW * ratio ** (b + 1)))
            while True:
                p = rng.randint(lo, hi)
                if is_prime(p):
                    break
            while True:
                f = random_trinomial(rng, d_max=12)
                if not has_repeated_root(f):
                    break
            cycle.append(Op(f, p))
        rng.shuffle(cycle)
        yield cycle


def degenerate_cycles(rng: random.Random):
    """The vanishing-discriminant family, unfiltered.

    A cycle is the whole family once: every p, u and shape (ab2, ab3, r),
    with the factor c taking each of its values in turn across the shapes;
    the seed sets the order.  The family's cost is heavy-tailed and its
    median falls where the cost climbs steeply, so runs on random samples
    of it differ by tens of percent according to which members they drew.
    """
    strata = [(p, u) for p in DEGENERATE_PRIMES for u in degenerate_u_choices(p)]
    while True:
        cycle = [
            Op(degenerate_trinomial(rng, p, u, shape, DEGENERATE_C[(i + j) % 4]), p)
            for j, (p, u) in enumerate(strata)
            for i, shape in enumerate(DEGENERATE_SHAPES)
        ]
        rng.shuffle(cycle)
        yield cycle


def count_cycles(rng: random.Random):
    """`count` on pinned large-degree trinomials and large-gcd binomials."""
    pins = load_count_pins()
    order: list[Op] = []
    while True:
        if len(order) < COUNT_TRINOMIALS_PER_CYCLE:
            more = pins[:]
            rng.shuffle(more)
            order.extend(more)
        cycle = order[:COUNT_TRINOMIALS_PER_CYCLE]
        del order[:COUNT_TRINOMIALS_PER_CYCLE]
        for target, n in COUNT_BINOMIALS:
            cycle.extend(count_binomial(rng, target) for _ in range(n))
        rng.shuffle(cycle)
        yield cycle


_STREAMS = {
    "corpus": corpus_cycles,
    "large-p": large_p_cycles,
    "degenerate": degenerate_cycles,
    "count": count_cycles,
}


def cycles(workload: str, seed: int):
    """The workload's operation stream for a seed, as an iterator of cycles."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def warmup_op(workload: str) -> Op:
    """A fixed, untimed first operation that brings lazy state up."""
    if workload == "corpus":
        return Op(parse_poly("12 - 7*x^5 + 3*x^11"), 5)
    if workload == "large-p":
        return Op(parse_poly("2 - 3*x^2 + x^7"), 54983)
    if workload == "degenerate":
        return Op(degenerate_trinomial(random.Random(0), 3, 3), 3)
    # a pinned trinomial of huge degree: runs the modular discriminant
    # test, which builds its pool of 62-bit primes on first use
    return load_count_pins()[0]
