import math

import pytest

import padicroots.fp
from padicroots.arith import is_prime
from padicroots.errors import InvariantViolated, PrimeTooLarge
from padicroots.fp import (
    _linear_power,
    _poly_divmod,
    binomial_coset_roots,
    gcd_with_frobenius,
    generator_fp,
    linear_roots,
    nonzero_root_gcd,
    roots_fp_exhaustive,
    roots_fp_memo,
)
from padicroots.nodal_tree import build_tree
from padicroots.sparsepoly import ScaledPoly, SparsePoly, parse_poly
from padicroots.trinomial import solve_sparse
from tests.reference import (
    linear_power_schoolbook,
    poly_divmod_schoolbook,
    roots_fp_pointwise,
    value_and_derivative,
)

PRIMES = [p for p in range(2, 100) if is_prime(p)]


def _scan(f, p):
    """The root-node scan of a plain polynomial f, held as parts with s = 0."""
    return roots_fp_exhaustive(ScaledPoly.of(f, p), p)


def test_roots_fp_examples():
    roots = _scan(parse_poly("1 - x^340"), 17)
    assert [r for r, _ in roots] == [1, 4, 13, 16]
    assert all(deg for _, deg in roots)
    assert _scan(parse_poly("x^2 + 1"), 3) == []
    # mod 2 this is x^2 (x^8 + 1): both digits are degenerate roots
    assert _scan(parse_poly("x^10 + 11*x^2 - 12"), 2) == [(0, True), (1, True)]


def test_roots_fp_cap():
    with pytest.raises(PrimeTooLarge):
        _scan(parse_poly("x^2 - 1"), 1_000_003)


def test_roots_fp_huge_exponent_reduction():
    # 2^63-ish exponents evaluate through the Fermat reduction
    f = SparsePoly.from_terms([(0, -1), (2 ** 62, 1)])
    roots = _scan(f, 13)
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
        assert _scan(f, p) == roots_fp_pointwise(f, p), (f.to_text(), p)
        compared += 1
    assert compared > 0.9 * len(cases)
    assert [r for r, _ in _scan(*cases[0])] == [0, 1, 2]


def test_root_zero_read_off_the_parts(rng):
    """The root scan reads f(0) and f'(0) mod p off the parts x^0 and x^1
    with s = 0.  A part x^0 or x^1 with s > 0, or with p | u, adds nothing
    mod p; the entry for 0 and its flag must agree with evaluating the parts
    at 0, and at small p the whole scan with evaluating them everywhere."""
    cases = [
        ScaledPoly(5, ((0, 3, 1), (1, 2, 0), (4, 1, 0))),  # f(0) = 15: root 0, f'(0) = 2
        ScaledPoly(5, ((0, 4, 1), (1, 7, 1), (6, 1, 0))),  # f(0) = 20, f'(0) = 35: degenerate
        ScaledPoly(7, ((0, 2, 0), (1, 3, 2), (3, 1, 0))),  # f(0) = 2: no root 0
        ScaledPoly(3, ((0, 6, 0), (1, 3, 0), (2, 1, 0))),  # p | u with s = 0
        ScaledPoly(99991, ((0, 5, 1), (1, 9, 0), (7, 2, 0))),  # the split route
        ScaledPoly(99991, ((0, 5, 1), (1, 9, 3), (7, 2, 0))),
    ]
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13, 10007, 99991])
        exps = sorted({0, 1, *rng.sample(range(2, 14), rng.randint(1, 3))})
        parts = [(a, rng.choice([1, -1]) * rng.randint(1, 50), rng.choice([0, 0, 1, 2])) for a in exps]
        a, u, _ = parts[-1]
        parts[-1] = (a, u * p + 1, 0)  # nonzero mod p: f is not 0 mod p
        cases.append(ScaledPoly(p, tuple(parts)))
    zero_roots = 0
    for g in cases:
        p = g.p
        f0, d0 = value_and_derivative(g, 0, p)
        roots = roots_fp_exhaustive(g, p)
        assert [flag for z, flag in roots if z == 0] == ([d0 == 0] if f0 == 0 else []), g
        zero_roots += f0 == 0
        if p < 100:
            expected = [(z, dv == 0) for z in range(p) for fv, dv in [value_and_derivative(g, z, p)] if fv == 0]
            assert roots == expected, g
    assert 40 < zero_roots < len(cases) - 40


def _dense_cases(rng, p: int) -> list[list[int]]:
    """Moduli h over F_p: non-monic where p > 2, degree 0 and 1, x^n with no
    lower terms, trinomial-shaped c0 + c1 x^a + c x^n, and dense."""
    def unit():
        return rng.randint(1, p - 1)

    hs = [[unit()], [rng.randrange(p), unit()], [0, 0, 0, unit()], [0] * 12 + [unit()]]
    for n in (2, 5, 9, 12):
        h = [0] * (n + 1)
        h[0], h[rng.randint(1, n - 1)], h[n] = rng.randrange(p), unit(), unit()
        hs.append(h)
        hs.append([rng.randrange(p) for _ in range(n)] + [unit()])
    return hs


def test_dense_kernel_matches_schoolbook(rng):
    """_linear_power and _poly_divmod, which make h monic once, reduce by its
    nonzero lower terms only and take `% p` once per coefficient, agree with
    the schoolbook power and division that take `% p` after every product."""
    for p in (2, 3, 13, 10007, 99991):
        for h in _dense_cases(rng, p):
            for a in (0, rng.randrange(1, p) if p > 2 else 1):
                for e in (0, 1, 2, (p - 1) // 2, p, rng.randrange(10 ** 6)):
                    assert _linear_power(a, e, h, p) == linear_power_schoolbook(a, e, h, p), (a, e, h, p)
            for size in (0, len(h) - 1, len(h), 2 * len(h) + 3):
                x = [rng.randrange(p) for _ in range(size)]
                assert _poly_divmod(x, h, p) == poly_divmod_schoolbook(x, h, p), (x, h, p)
    # (x + 1)^2 mod (x + 1)^2 is 0, and so is every later power
    assert _linear_power(1, 5, [1, 2, 1], 13) == linear_power_schoolbook(1, 5, [1, 2, 1], 13) == []


def _record_counts(monkeypatch) -> list:
    """Patch fp.nonzero_root_gcd to note each root node's split count,
    deg g, or None where the reduction cancels on F_p* and is walked."""
    counts = []
    gcd = padicroots.fp.nonzero_root_gcd

    def recorded(acc, p):
        g = gcd(acc, p)
        counts.append(None if g is None else len(g) - 1)
        return g

    monkeypatch.setattr(padicroots.fp, "nonzero_root_gcd", recorded)
    return counts


def test_bounded_root_scan_matches_pointwise(rng, monkeypatch):
    """At primes in [10^4, 99991] the root scan splits the Frobenius gcd in
    place of the walk.  It must still find every root that evaluating f at
    each point of F_p finds: rootless reductions, h(0) = 0 (h the reduction
    with exponents mod p-1), exponents that collapse mod p-1, and reductions
    on both sides of the cost rule."""
    counts = _record_counts(monkeypatch)
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
        assert _scan(f, p) == roots_fp_pointwise(f, p), (f.to_text(), p)
    assert 0 in counts and any(counts) and len(counts) < len(cases)  # some took the walk


def test_corpus_primes_keep_the_walk(monkeypatch):
    """At p <= 13 the cost rule walks every root reduction that is not
    constant on F_p*: each degree below p - 1 and each count of nonconstant
    terms, the top term x^d and the lowest ones x, x^2, ... with constant 1."""
    counts = _record_counts(monkeypatch)
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, p - 1):
            for t in range(1, d + 1):
                f = SparsePoly.from_terms([(0, 1), (d, 1)] + [(e, 1) for e in range(1, t)])
                assert _scan(f, p) == roots_fp_pointwise(f, p), (f.to_text(), p)
    assert counts == []


def _times_linear(g: list[int], c: int, p: int) -> list[int]:
    """g (x - c) over F_p, dense."""
    return [(b - c * a) % p for a, b in zip(g + [0], [0] + g)]


def test_root_scan_raises_when_the_split_disagrees_with_the_count(monkeypatch):
    """The root scan checks its split: a Frobenius gcd one degree too high
    gives a root where f does not vanish (times x - 4, and 4 is no root) or
    a root twice (times x - 1), a splitter that drops a root or repeats one
    gives too few distinct roots, and each raises, in the scan and in a
    solve through it."""
    f = parse_poly("6 - 7*x + x^3")  # (x - 1)(x - 2)(x + 3)
    gcd = padicroots.fp.nonzero_root_gcd
    with monkeypatch.context() as m:
        m.setattr(padicroots.fp, "nonzero_root_gcd", lambda acc, p: _times_linear(gcd(acc, p), 4, p))
        with pytest.raises(InvariantViolated, match="split root 4 mod 99991 is no root of f"):
            _scan(f, 99991)
        with pytest.raises(InvariantViolated):
            solve_sparse(f, 99991)
        with pytest.raises(InvariantViolated, match="split root 4 mod 99991"):
            _scan(parse_poly("x^2 + 1"), 99991)  # -1 is no square: count 0
        m.setattr(padicroots.fp, "nonzero_root_gcd", lambda acc, p: _times_linear(gcd(acc, p), 1, p))
        with pytest.raises(InvariantViolated, match="split gave 4 roots mod 99991, 3 distinct"):
            _scan(f, 99991)  # the root 1 twice
    split = padicroots.fp.linear_roots
    for wrong, message in [
        (lambda g, p: split(g, p)[1:], "split gave 2 roots mod 99991, 2 distinct; deg g is 3"),
        (lambda g, p: split(g, p) + split(g, p)[:1], "split gave 4 roots"),
        (lambda g, p: split(g, p)[1:] + split(g, p)[1:2], "3 roots mod 99991, 2 distinct"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(padicroots.fp, "linear_roots", wrong)
            with pytest.raises(InvariantViolated, match=message):
                _scan(f, 99991)
            with pytest.raises(InvariantViolated):
                solve_sparse(f, 99991)
    assert [z for z, _ in _scan(f, 99991)] == [1, 2, 99988]


def test_root_count_stays_out_of_the_frobenius_memo(monkeypatch):
    """A large-p solve counts its root nodes' roots without the memo of
    gcd_with_frobenius, which the nodes below the root keep for themselves."""
    counts = _record_counts(monkeypatch)
    assert solve_sparse(parse_poly("6 - 7*x + x^3"), 99991).root_count == 3
    assert counts == [3]
    info = gcd_with_frobenius.cache_info()
    assert info.currsize == info.hits == info.misses == 0


def _split(f: SparsePoly, p: int) -> list[int] | None:
    """The split of f's Frobenius gcd on F_p*, sorted, called directly at any
    p; None where the reduction cancels on F_p*."""
    acc = {}
    for a, c in f.terms:
        acc[a % (p - 1)] = (acc.get(a % (p - 1), 0) + c) % p
    g = nonzero_root_gcd(acc, p)
    return None if g is None else sorted(linear_roots(g, p))


def test_split_matches_pointwise(rng):
    """The Cantor-Zassenhaus split of the Frobenius gcd finds the roots in
    F_p* that evaluating f at every point finds, for random reductions of
    degree <= 12 at primes up to 99991, whichever route the cost rule takes
    for the scan.  Edge cases: p = 2 and 3, where (p-1)/2 <= 1; rootless;
    fully split (deg g = deg h); h(0) = 0 against f(0) = 0; terms that
    cancel on F_p*, where the scan walks."""
    big = [q for q in range(10 ** 4, 99991) if is_prime(q)]
    cases = [
        (parse_poly("x + 1"), 2), (parse_poly("x^2 + x + 1"), 2), (parse_poly("x^3 + 1"), 2),
        (parse_poly("x^2 + 1"), 3), (parse_poly("x^2 - 1"), 3), (parse_poly("x^3 - x"), 3),
        (parse_poly("x^2 + 1"), 10007),  # 10007 = 3 mod 4: rootless
        (parse_poly("x^12 - 1"), 13),  # every point of F_13*
        (parse_poly("x^12 - 1"), 10009),  # 12 | 10008: twelve roots, deg g = deg h
        (parse_poly("x^3 + 2*x"), 99991),  # f(0) = h(0) = 0
        (parse_poly("3 - 3*x^10 + x^5 - x"), 11),  # h(0) = 0, f(0) = 3
        (parse_poly("17 + x^10 + 37*x^40"), 11),  # cancels: h = 0 on F_11*
    ]
    for p in [5, 7, 13, 101, 1009, 10007] * 8 + rng.sample(big, 1) + [99991]:
        roots = rng.sample(range(1, p), min(p - 1, rng.randint(0, 6)))
        h = [1]
        for r in roots:  # a product of linear factors, times a random cofactor
            h = _times_linear(h, r, p)
        for _ in range(rng.randint(0, 12 - len(roots))):
            h = _times_linear(h, rng.randrange(p), p)
        h = [c * rng.randint(1, p - 1) + rng.randint(0, 1) * rng.randrange(p) for c in h]
        cases.append((SparsePoly.from_terms(enumerate(h)), p))
    for f, p in cases:
        if all(c % p == 0 for _, c in f.terms):
            continue
        pointwise = roots_fp_pointwise(f, p)
        expected = [z for z, _ in pointwise if z]
        split = _split(f, p)
        assert split == expected or split is None and expected == list(range(1, p)), (f.to_text(), p)
        if p > 100:
            assert _scan(f, p) == pointwise, (f.to_text(), p)
    assert _split(parse_poly("x^12 - 1"), 10009) == [z for z in range(1, 10009) if pow(z, 12, 10009) == 1]
    assert _split(parse_poly("17 + x^10 + 37*x^40"), 11) is None
    assert _scan(parse_poly("17 + x^10 + 37*x^40"), 11) == [(z, False) for z in range(1, 11)]


def test_split_raises_on_a_factor_no_shift_splits():
    """A nonlinear irreducible factor is never split; the draws stop at p
    and raise, where a product of distinct linear factors always splits.  A
    repeated factor splits into copies, whose root the scan's check counts
    twice."""
    for g, p in [([11, 0, 1], 13), ([1, 0, 1], 3), ([1, 1, 1], 2), ([2, 0, 0, 1], 7)]:
        with pytest.raises(InvariantViolated, match=f"no shift below {p}"):
            linear_roots(g, p)
    assert sorted(linear_roots([-6, 11, -6, 1], 13)) == [1, 2, 3]  # (x-1)(x-2)(x-3)
    assert linear_roots([3, 1], 5) == [2] and linear_roots([4], 5) == []
    assert linear_roots([1, 11, 1], 13) == [1, 1]  # (x - 1)^2


def test_memo_values_cannot_be_mutated():
    """The memo hands out tuples, and a tree copies its digits into lists of
    its own nodes, so no caller can write into a memoized scan."""
    f = parse_poly("x^3 + 2*x^2")
    roots = roots_fp_memo(f, 3)
    assert roots == tuple(_scan(f, 3)) == ((0, True), (1, False))
    with pytest.raises(AttributeError):
        roots.append((2, False))
    with pytest.raises(TypeError):
        roots[0] = (2, False)
    g = ScaledPoly.of(parse_poly("x^10 - 10*x + 738"), 3)
    (child,) = [ch for ch in build_tree(g, 3, 6).root.children if ch.mu == 1]
    assert child.reduction == f
    child.nondegenerate_roots.append(2)
    child.degenerate_roots.clear()
    assert roots_fp_memo(f, 3) is roots and roots == ((0, True), (1, False))
    (again,) = [ch for ch in build_tree(g, 3, 6).root.children if ch.mu == 1]
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
        expected = len(_scan(f, p))
        assert gcd_with_frobenius(f, p) == expected
