import math

import pytest

import padicroots.fp
from padicroots.arith import PAdicContext, is_prime
from padicroots.errors import InvariantViolated, PrimeTooLarge
from padicroots.fp import (
    binomial_coset_roots,
    gcd_with_frobenius,
    generator_fp,
    roots_fp_exhaustive,
    roots_fp_memo,
)
from padicroots.nodal_tree import build_tree
from padicroots.sparsepoly import SparsePoly, parse_poly
from padicroots.trinomial import solve_sparse
from tests.reference import roots_fp_pointwise

PRIMES = [p for p in range(2, 100) if is_prime(p)]


def test_roots_fp_examples():
    roots = roots_fp_exhaustive(parse_poly("1 - x^340"), 17)
    assert [r for r, _ in roots] == [1, 4, 13, 16]
    assert all(deg for _, deg in roots)
    assert roots_fp_exhaustive(parse_poly("x^2 + 1"), 3) == []
    # mod 2 this is x^2 (x^8 + 1): both digits are degenerate roots
    assert roots_fp_exhaustive(parse_poly("x^10 + 11*x^2 - 12"), 2) == [(0, True), (1, True)]


def test_roots_fp_cap():
    with pytest.raises(PrimeTooLarge):
        roots_fp_exhaustive(parse_poly("x^2 - 1"), 1_000_003)


def test_roots_fp_huge_exponent_reduction():
    # 2^63-ish exponents evaluate through the Fermat reduction
    f = SparsePoly.from_terms([(0, -1), (2 ** 62, 1)])
    roots = roots_fp_exhaustive(f, 13)
    direct = [z for z in range(13) if pow(z, 2 ** 62, 13) == 1]
    assert [r for r, _ in roots] == direct


def test_scan_matches_pointwise(rng):
    """The walk along a primitive root finds the roots and flags that
    evaluating f and f' at every point of F_p finds.  The pointwise scan
    costs about 0.2 s per input at the large primes, so those get one
    random input each and the edge cases run at the small primes."""
    big = [q for q in range(10 ** 4, 99991) if is_prime(q)]
    cases = [(parse_poly("x^20 + 2*x^2"), 3)]  # reduced terms cancel: every z is a root
    for p in [2, 3, 5, 7, 13, 97]:
        cases += [
            (parse_poly(f"3 + x^{5 * (p - 1)} + 2*x^7"), p),  # exponent a multiple of p-1
            (parse_poly(f"x^{p - 1} + x^{3 * (p - 1)} - 2"), p),  # constant 0 on F_p*
            (parse_poly(f"x^{p - 1} + 4"), p),  # constant on F_p*, nonzero for p > 5
            (parse_poly(f"5*x^{2 ** 62 + 1} - 3*x^{2 ** 62 - 5} + 1"), p),  # exponents near 2^62
        ]
    for p in [2, 3, 5, 7, 13, 97] * 12 + rng.sample(big, 4) + [99991]:
        big_exponents = p < 100 and rng.random() < 0.5
        cases.append((SparsePoly.from_terms(
            [(rng.randint(0, 2 ** 62 if big_exponents else 3 * p), rng.randint(-p, p))
             for _ in range(rng.randint(1, 5 if p < 100 else 3))]
        ), p))
    compared = 0
    for f, p in cases:
        if all(c % p == 0 for _, c in f.terms):
            continue
        assert roots_fp_exhaustive(f, p) == roots_fp_pointwise(f, p), (f.to_text(), p)
        compared += 1
    assert compared > 0.9 * len(cases)
    assert [r for r, _ in roots_fp_exhaustive(*cases[0])] == [0, 1, 2]


def test_bounded_root_scan_matches_pointwise(rng, monkeypatch):
    """At primes in [10^4, 99991] the root scan counts its roots in F_p*
    first and stops at the last one.  It must still find every root that
    evaluating f at each point of F_p finds: rootless reductions, h(0) = 0
    (h the reduction with exponents mod p-1), exponents that collapse mod
    p-1, and reductions on both sides of the cost rule."""
    counts = []
    count = padicroots.fp.nonzero_root_count
    monkeypatch.setattr(padicroots.fp, "nonzero_root_count",
                        lambda acc, p: counts.append(count(acc, p)) or counts[-1])
    big = [q for q in range(10 ** 4, 99991) if is_prime(q)]
    cases, q = [], rng.choice(big)
    for p in [q, 99991]:
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        cases += [
            (parse_poly(f"x^2 - {nonresidue}"), p),  # rootless
            (parse_poly(f"1 - 2*x^2 + x^{p + 1}"), p),  # 1 - x^2 on F_p*: roots 1, -1
            (parse_poly(f"1 + 3*x^{p - 3} - x^{p // 2}"), p),  # deg h near p: the walk
        ]
    cases += [
        (parse_poly(f"{5 - q} + x^{q - 1}"), q),  # h = 6 on F_p*
        (parse_poly("x^3 + 2*x"), q),  # f(0) = h(0) = 0
        (parse_poly(f"3 - 3*x^{q - 1} + x^5 - x"), q),  # h(0) = 0, f(0) = 3
        (parse_poly(f"x^{2 * q - 1} + x - 7"), q),  # 2x - 7 on F_p*
    ]
    for _ in range(3):  # trinomials of degree <= 12, as on the large-p benchmark
        terms = [(0, rng.randint(1, 50)), (rng.randint(1, 6), rng.randint(-50, 50)),
                 (rng.randint(7, 12), 1)]
        cases.append((SparsePoly.from_terms(terms), rng.choice(big)))
    for f, p in cases:
        assert roots_fp_exhaustive(f, p) == roots_fp_pointwise(f, p), (f.to_text(), p)
    assert 0 in counts and any(counts) and len(counts) < len(cases)  # some took the walk


def test_root_scan_raises_when_the_walk_ends_short_of_the_count(monkeypatch):
    """A Frobenius count one too high leaves the walk short at the end of
    F_p*, which raises, in the scan and in a solve through it."""
    count = padicroots.fp.nonzero_root_count
    monkeypatch.setattr(padicroots.fp, "nonzero_root_count", lambda acc, p: count(acc, p) + 1)
    f = parse_poly("6 - 7*x + x^3")  # (x - 1)(x - 2)(x + 3)
    with pytest.raises(InvariantViolated, match="walk found 3 roots mod 99991, the count is 4"):
        roots_fp_exhaustive(f, 99991)
    with pytest.raises(InvariantViolated):
        solve_sparse(f, 99991)
    with pytest.raises(InvariantViolated, match="walk found 0 roots"):
        roots_fp_exhaustive(parse_poly("x^2 + 1"), 99991)  # -1 is no square: count 0


def test_root_count_stays_out_of_the_frobenius_memo(monkeypatch):
    """A large-p solve counts its root nodes' roots without the memo of
    gcd_with_frobenius, which the nodes below the root keep for themselves."""
    counts = []
    count = padicroots.fp.nonzero_root_count
    monkeypatch.setattr(padicroots.fp, "nonzero_root_count",
                        lambda acc, p: counts.append(count(acc, p)) or counts[-1])
    assert solve_sparse(parse_poly("6 - 7*x + x^3"), 99991).root_count == 3
    assert counts == [3]
    info = gcd_with_frobenius.cache_info()
    assert info.currsize == info.hits == info.misses == 0


def test_memo_values_cannot_be_mutated():
    """The memo hands out tuples, and a tree copies its digits into lists of
    its own nodes, so no caller can write into a memoized scan."""
    f = parse_poly("x^3 + 2*x^2")
    roots = roots_fp_memo(f, 3)
    assert roots == tuple(roots_fp_exhaustive(f, 3)) == ((0, True), (1, False))
    with pytest.raises(AttributeError):
        roots.append((2, False))
    with pytest.raises(TypeError):
        roots[0] = (2, False)
    g = parse_poly("x^10 - 10*x + 738")
    (child,) = [ch for ch in build_tree(g, PAdicContext(3, 6)).root.children if ch.mu == 1]
    assert child.reduction == f
    child.nondegenerate_roots.append(2)
    child.degenerate_roots.clear()
    assert roots_fp_memo(f, 3) is roots and roots == ((0, True), (1, False))
    (again,) = [ch for ch in build_tree(g, PAdicContext(3, 6)).root.children if ch.mu == 1]
    assert (again.degenerate_roots, again.nondegenerate_roots) == ([0], [1])


def test_generator_examples():
    assert generator_fp(7) == 3
    assert generator_fp(17) == 3
    assert generator_fp(3) == 2
    for p in PRIMES[1:]:
        g = generator_fp(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            seen.add(x)
            x = x * g % p
        assert len(seen) == p - 1


def test_coset_roots():
    assert binomial_coset_roots(1, 2, 5) == [1, 4]
    assert binomial_coset_roots(2, 2, 5) == []
    assert binomial_coset_roots(1, 4, 17) == [1, 4, 13, 16]


def test_coset_roots_all_or_nothing(rng):
    """x^d = t in F_p* has gamma = gcd(d, p-1) solutions when t is a d-th
    power and none otherwise, for d that divide p-1 and d that do not.
    At p = 10007, p-1 = 2 * 5003: gamma is mostly 1 or 2, so the walk for
    the first root is long."""
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 101, 229, 10007])
        divisors = [g for g in range(1, p) if (p - 1) % g == 0]
        d = rng.choice(divisors) if rng.random() < 0.3 else rng.randint(1, 10 ** 6)
        power = rng.random() < 0.5
        t = pow(rng.randint(1, p - 1), d, p) if power else rng.randint(1, p - 1)
        roots = binomial_coset_roots(t, d, p)
        assert roots == [x for x in range(1, p) if pow(x, d, p) == t]
        if power:
            assert len(roots) == math.gcd(d, p - 1)
    # the power test runs on t itself: -214/100 mod 229 is no 936711-th power
    assert binomial_coset_roots(-214 * pow(100, -1, 229), 936711, 229) == []


def test_frobenius_gcd_examples():
    assert gcd_with_frobenius(parse_poly("x^2 + x"), 2) == 2
    assert gcd_with_frobenius(parse_poly("x^2 + 1"), 3) == 0
    assert gcd_with_frobenius(parse_poly("x^3 + 2*x^2"), 3) == 2  # roots {0, 1}


def test_frobenius_gcd_matches_exhaustive(rng):
    for _ in range(300):
        p = rng.choice(PRIMES)
        deg = rng.randint(1, 4)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randint(1, p - 1)]
        f = SparsePoly.from_terms(enumerate(coeffs))
        if f.is_zero:
            continue
        expected = len(roots_fp_exhaustive(f, p))
        assert gcd_with_frobenius(f, p) == expected
