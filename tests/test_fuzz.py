"""Seeded fuzz gate over the documented domain: every input gets the
oracle's count or a typed PadicError, never a Python crash or a wrong count,
from the certifying solve and from the count-only one alike.

InvariantViolated is a PadicError too, but it means the solver caught
itself in a contradiction, so it fails the gate.  The inputs are fixed by
the seed.  The gate runs in about 5 s on a 2-vCPU VM and fails when it
passes its 20 s time box: a solver that climbs a ladder it cannot finish
fails here rather than hanging.
"""

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


def _binomial(rng, p):
    """p | d, p-power constants."""
    d = p * rng.randint(1, max(1, 300 // p))
    return SparsePoly.from_terms([(0, _coeff(rng, p)), (d, _coeff(rng, p))])


def _close_roots(rng):
    """(x^r - a)(x^r - b) with b = a + p^j m: simple roots that share
    about j >= 3 digits, so their digit chains need a deeper tree than the
    ladder's first rung.  The oracle's work grows like p^j, so p^j <= 2000
    and p <= 13 here."""
    p = rng.choice([q for q in SMALL_PRIMES if q <= 13])
    j = 3
    while p ** (j + 1) <= 2000 and rng.random() < 0.7:
        j += 1
    r = rng.randint(1, 3)
    a = rng.choice([x for x in range(-30, 31) if x])
    b = a + p ** j * rng.choice([x for x in range(-5, 6) if x])
    return SparsePoly.from_terms([(0, a * b), (r, -(a + b)), (2 * r, 1)]), p


def _inputs(rng):
    for _ in range(ROUNDS):
        for family in (_trinomial, degenerate_trinomial, _binomial):
            p = _prime(rng)
            yield family(rng, p), p
        yield _close_roots(rng)


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


def test_fuzz_gate_matches_oracle():
    def expire(signum, frame):
        raise _TimeBox

    seen = {"compared": 0, "typed": 0, "skipped": 0}
    failures = []
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOX_S)
    try:
        for f, p in _inputs(random.Random(0xF022)):
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
    assert failures == [], (len(failures), failures[:5])
    assert seen["compared"] > 0.9 * 4 * ROUNDS, seen


def test_fuzz_large_primes_match_oracle():
    """Degree <= 12 trinomials at primes in [10^4, 99991], where the F_p
    scans walk tens of thousands of points, against the oracle."""
    rng = random.Random(0xF023)
    primes = [q for q in range(10 ** 4, 99992) if is_prime(q)]
    seen = {"compared": 0, "typed": 0, "skipped": 0}
    failures = []
    for p in rng.sample(primes, LARGE_P_INPUTS - 1) + [99991]:
        f = random_trinomial(rng, d_max=12)
        failure = _check(f, p, seen)
        if failure:
            failures.append((f.to_text(), p, failure))
    assert failures == [], failures
    assert seen["compared"] >= LARGE_P_INPUTS - 2, seen
