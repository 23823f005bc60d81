import math

import pytest

from padicroots.arith import is_prime
from padicroots.errors import PrimeTooLarge
from padicroots.fp import (
    binomial_coset_roots,
    gcd_with_frobenius,
    generator_fp,
    roots_fp_exhaustive,
)
from padicroots.sparsepoly import SparsePoly, parse_poly
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
    assert gcd_with_frobenius([0, 1, 1], 2) == 2  # x^2 + x
    assert gcd_with_frobenius([1, 0, 1], 3) == 0  # x^2 + 1
    assert gcd_with_frobenius([0, 0, 2, 1], 3) == 2  # x^3 + 2x^2: roots {0, 1}


def test_frobenius_gcd_matches_exhaustive(rng):
    for _ in range(300):
        p = rng.choice(PRIMES)
        deg = rng.randint(1, 4)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randint(1, p - 1)]
        f = SparsePoly.from_dense(coeffs)
        if f.is_zero:
            continue
        expected = len(roots_fp_exhaustive(f, p))
        assert gcd_with_frobenius(coeffs, p) == expected
