"""Seeded fuzz gate over the documented domain: every input gets the
oracle's count or a typed PadicError, never a Python crash or a wrong count,
from the certifying solve and from the count-only one alike.

InvariantViolated is a PadicError too, but it means the solver caught
itself in a contradiction, so it fails the gate.  The inputs are fixed by
the seed.  The gate runs in about 2 s on a 2-vCPU VM and fails when it
passes its 20 s time box: a solver that builds a tree it cannot finish
fails here rather than hanging.
"""

import math
import random
import signal

from padicroots.arith import is_prime
from padicroots.errors import BudgetExceeded, InvariantViolated, PadicError
from padicroots.oracle import count_qp_roots
from padicroots.sparsepoly import SparsePoly
from padicroots.trinomial import solve_sparse
from tests.conftest import degenerate_trinomial, random_trinomial

PRIMES = [q for q in range(2, 98) if is_prime(q)]
SMALL_PRIMES = [q for q in PRIMES if q <= 19]
ROUNDS = 400  # each round draws one input of each family
LARGE_P_INPUTS = 10  # the oracle takes about 0.13 s per input at these primes
# (x - a)(x - b) sharing 3 digits: the oracle lifts each of the two roots'
# classes over all p digits at 4 or 5 levels, about 1 s per input
LARGE_P_CLOSE_ROOTS = 2
DEEP_CUT_INPUTS = 1000
TIME_BOX_S = 20


class _TimeBox(Exception):
    pass


def _prime(rng):
    return rng.choice(SMALL_PRIMES) if rng.random() < 0.7 else rng.choice(PRIMES)


def _coeff(rng, p):
    return rng.choice([x for x in range(-50, 51) if x]) * p ** rng.randint(0, 5)


def _trinomial(rng, p):
    """Degree <= 300, each coefficient carrying p^0 to p^5."""
    a3 = rng.randint(2, 300)
    a2 = rng.randint(1, a3 - 1)
    return SparsePoly.from_terms([(0, _coeff(rng, p)), (a2, _coeff(rng, p)), (a3, _coeff(rng, p))])


def _unit(rng, p):
    return rng.choice([x for x in range(-50, 51) if x % p])


def _wide_degree(rng, p):
    """Degree up to 2^62, with p-power coefficients that give a valuation
    v != 0, whose rescale holds a power of p of up to about 2^62 log2 p
    bits as a part: v in {1, 2} from a low term of degree <= 4, or v = -1
    from two top terms at most 4 apart."""
    d = rng.randint(8, 2 ** rng.randint(3, 62))
    gap = rng.randint(1, 4)
    o = rng.randint(0, 3)
    if rng.random() < 0.5:
        v = rng.randint(1, 2)
        exps = [(0, o + v * gap), (gap, o), (d, rng.randint(0, 3))]
    else:
        exps = [(0, rng.randint(0, 3)), (d - gap, o), (d, o + gap)]
    return SparsePoly.from_terms([(a, _unit(rng, p) * p ** e) for a, e in exps])


def _binomial(rng, p):
    """p | d, p-power constants."""
    d = p * rng.randint(1, max(1, 300 // p))
    return SparsePoly.from_terms([(0, _coeff(rng, p)), (d, _coeff(rng, p))])


def _close_roots(rng, p, j_max=6, r_max=3):
    """(x^r - a)(x^r - b) with b = a + p^j m: simple roots that share
    about j digits, 3 <= j <= j_max, so their digit chains run about j
    digits deep.  The oracle drops the classes that
    cannot hold a root, so its work grows like j p per root, not p^j."""
    j = rng.randint(3, j_max)
    r = rng.randint(1, r_max)
    a = rng.choice([x for x in range(-30, 31) if x])
    b = a + p ** j * rng.choice([x for x in range(-5, 6) if x])
    return SparsePoly.from_terms([(0, a * b), (r, -(a + b)), (2 * r, 1)]), p


def _deep_cut(rng):
    """c q(u x^r), a double root at x^r = 1/u, at p <= 7 with p^j, up to
    p^j <= 100, dividing abar2, abar3 or abar3 - abar2, and r in {1, p, p^2}:
    the cut of the repeated root's digit chain lies j or more digits deep,
    and simple roots may share up to that many digits less one with the
    double root."""
    p = rng.choice([2, 3, 5, 7])
    while True:
        m = p ** rng.randint(1, int(math.log(100, p))) * rng.randint(1, 2)
        which = rng.randrange(3)
        if which == 0:
            ab2, ab3 = m, m + rng.randint(1, 12)
        elif which == 1:
            ab2, ab3 = rng.randint(1, m - 1), m
        else:
            ab2 = rng.randint(1, 12)
            ab3 = ab2 + m
        if ab2 < ab3 and math.gcd(ab2, ab3) == 1:
            break
    r = rng.choice([1, p, p * p])
    u = rng.choice([1, 2, 3, 5, p, p * p])
    c = rng.choice([1, -1, 2, -3])
    terms = [(0, c * (ab3 - ab2)), (ab2 * r, -c * ab3 * u ** ab2), (ab3 * r, c * ab2 * u ** ab3)]
    return SparsePoly.from_terms(terms), p


def _inputs(rng, wide):
    """One input of each family per round; _wide_degree draws from its own
    generator `wide`, so the other families' inputs do not depend on it."""
    for _ in range(ROUNDS):
        for family in (_trinomial, degenerate_trinomial, _binomial):
            p = _prime(rng)
            yield family(rng, p), p
        yield _close_roots(rng, rng.choice(PRIMES))
        p = _prime(wide)
        yield _wide_degree(wide, p), p


def _check(f, p, seen):
    """Both paths, certifying and count-only, against the oracle: the same
    count, or the same PadicError type on both."""
    try:
        want = count_qp_roots(f, p).qp_count
    except BudgetExceeded:
        seen["skipped"] += 1
        return None
    got = []
    for certify in (True, False):
        try:
            got.append(solve_sparse(f, p, certify=certify).root_count)
        except InvariantViolated as exc:
            return repr(exc)
        except PadicError as exc:
            got.append(type(exc))
    if isinstance(got[0], type) and got[0] == got[1]:
        seen["typed"] += 1
        return None
    seen["compared"] += 1
    return None if got == [want, want] else f"count {got[0]}, count-only {got[1]}, oracle {want}"


def _gate(inputs):
    """_check on each input until TIME_BOX_S runs out: (failures, seen)."""
    def expire(signum, frame):
        raise _TimeBox

    seen = {"compared": 0, "typed": 0, "skipped": 0}
    failures = []
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOX_S)
    try:
        for f, p in inputs:
            try:
                failure = _check(f, p, seen)
            except _TimeBox:
                failures.append((f.to_text(), p, f"running when the {TIME_BOX_S} s box ran out"))
                break
            if failure:
                failures.append((f.to_text(), p, failure))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return failures, seen


def test_fuzz_gate_matches_oracle():
    """The oracle decides every input here: the wide-degree family's equal
    bit-length ranges are settled by its power test mod 2^61 - 1."""
    failures, seen = _gate(_inputs(random.Random(0xF022), random.Random(0xF025)))
    assert failures == [], (len(failures), failures[:5])
    assert seen["skipped"] == 0, seen
    assert seen["compared"] > 0.9 * 5 * ROUNDS, seen


def test_fuzz_deep_cuts_match_oracle():
    """Degenerate trinomials whose repeated-root chains are cut deep.  A cut
    one digit shallower than cut_depth's, kept at least ord_p r + 1, miscounts
    26 of them."""
    rng = random.Random(0xF024)
    failures, seen = _gate(_deep_cut(rng) for _ in range(DEEP_CUT_INPUTS))
    assert failures == [], (len(failures), failures[:5])
    assert seen["compared"] > 0.9 * DEEP_CUT_INPUTS, seen


def test_fuzz_large_primes_match_oracle():
    """Degree <= 12 trinomials, and close simple roots whose digit chains
    run below the root node, at primes in [10^4, 99991], where the F_p
    scans walk tens of thousands of points, against the oracle."""
    rng = random.Random(0xF023)
    primes = [q for q in range(10 ** 4, 99992) if is_prime(q)]
    seen = {"compared": 0, "typed": 0, "skipped": 0}
    failures = []
    inputs = [(random_trinomial(rng, d_max=12), p)
              for p in rng.sample(primes, LARGE_P_INPUTS - 1) + [99991]]
    inputs += [_close_roots(rng, p, j_max=3, r_max=1)
               for p in rng.sample(primes, LARGE_P_CLOSE_ROOTS)]
    for f, p in inputs:
        failure = _check(f, p, seen)
        if failure:
            failures.append((f.to_text(), p, failure))
    assert failures == [], failures
    assert seen["compared"] >= LARGE_P_INPUTS + LARGE_P_CLOSE_ROOTS - 2, seen
