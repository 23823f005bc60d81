import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicroots.arith import ord_int
from padicroots.errors import DivisibilityViolation, ParseError
from padicroots.newton_polygon import integral_valuation_candidates
from padicroots.nodal_tree import build_tree, shift_rescale
from padicroots.oracle import count_qp_roots
from padicroots.sparsepoly import (
    ScaledPoly,
    SparsePoly,
    parse_poly,
    rescale_for_valuation,
    taylor_coeffs_mod,
)
from padicroots.trinomial import solve_sparse
from tests.reference import mod_p_coeffs


def test_parse_basic():
    f = parse_poly("738 - 10*x^2 + x^20")
    assert f.terms == ((0, 738), (2, -10), (20, 1))
    assert parse_poly("1 - x^340").terms == ((0, 1), (340, -1))
    assert parse_poly("-x + 3").terms == ((0, 3), (1, -1))
    assert parse_poly("x^10 + 11x^2 - 12").terms == ((0, -12), (2, 11), (10, 1))


def test_parse_rejects_garbage():
    for bad in ["", "x +", "3*y", "x^", "x^2^3", "0"]:
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_long_coefficient_is_a_parse_error():
    # past the interpreter's 4300-digit string limit int() raises ValueError
    with pytest.raises(ParseError):
        parse_poly("1 + " + "7" * 5000 + "*x + x^2")
    with pytest.raises(ParseError):
        parse_poly("1 + x^" + "7" * 5000)


def test_text_json_round_trip(rng):
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[rng.randint(0, 100)] = rng.randint(-10 ** 12, 10 ** 12)
        pairs = [(a, c) for a, c in terms.items() if c]
        if not pairs:
            continue
        f = SparsePoly.from_terms(pairs)
        assert parse_poly(f.to_text()) == f
        obj = json.loads(json.dumps(f.to_json_obj()))
        assert SparsePoly.from_terms((a, int(c)) for a, c in obj["terms"]) == f


def _eval(text, x, m, p=3):
    return ScaledPoly.of(parse_poly(text), p).eval_mod(x, m)


def test_evaluate_mod_examples():
    # (f(x), f'(x)) mod m
    assert _eval("x^2 - 1", 1, 7 ** 2, 7) == (0, 2)
    # f'(x) = -340 x^339 and 17 | 340
    assert _eval("1 - x^340", 4, 17, 17) == (0, 0)
    # 1 - 10 + 738 = 729 = 3^6; f'(x) = 10x^9 - 10: 0 at 1
    assert _eval("x^10 - 10*x + 738", 1, 3 ** 4) == (0, 0)
    # 1024 - 20 + 738 = 1742 and 10*2^9 - 10 = 5110 at 2
    assert _eval("x^10 - 10*x + 738", 2, 10 ** 6) == (1742, 5110)
    assert _eval("7", 3, 5, 5) == (2, 0)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.dictionaries(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=-10 ** 40, max_value=10 ** 40).filter(bool),
        min_size=1,
        max_size=6,
    ),
    x=st.one_of(st.just(0), st.integers(min_value=-10 ** 9, max_value=10 ** 9)),
    m=st.sampled_from([1, 2, 7 ** 12, 10 ** 6, 2 ** 89 - 1, 3 ** 200]),
)
@example(terms={0: -5, 1: 3}, x=0, m=10 ** 6)
@example(terms={1: 10 ** 50}, x=10 ** 6, m=10 ** 6)
def test_eval_mod_matches_plain_integers(terms, x, m):
    """eval_mod(x, m) of f as parts with s = 0 is (sum c x^a, sum a c x^(a-1))
    mod m, summed exactly, at any modulus m."""
    f = SparsePoly.from_terms(terms.items())
    value = sum(c * x ** a for a, c in terms.items())
    slope = sum(a * c * x ** (a - 1) for a, c in terms.items() if a)
    assert ScaledPoly.of(f, 7).eval_mod(x, m) == (value % m, slope % m)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.dictionaries(
        st.integers(min_value=0, max_value=60),
        st.tuples(
            st.integers(min_value=-10 ** 20, max_value=10 ** 20).filter(bool),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1,
        max_size=6,
    ),
    p=st.sampled_from([2, 3, 99991]),
    x=st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    k=st.integers(min_value=1, max_value=60),
)
@example(parts={0: (1, 0), 2 ** 40: (1, 2 ** 40 - 1)}, p=3, x=5, k=30)
def test_scaled_eval_mod_matches_plain_integers(parts, p, x, k):
    """ScaledPoly.eval_mod(x, p^k) is (sum u p^s x^a, sum a u p^s x^(a-1))
    mod p^k, the powers of p reduced mod p^k; a part whose p^s has about
    10^12 bits is read as 0."""
    m = p ** k
    g = ScaledPoly(p, tuple(sorted((a, u, s) for a, (u, s) in parts.items())))
    small = {a: (u, s) for a, (u, s) in parts.items() if s < 100}
    value = sum(u * p ** s * x ** a for a, (u, s) in small.items())
    slope = sum(a * u * p ** s * x ** (a - 1) for a, (u, s) in small.items() if a)
    assert g.eval_mod(x, m) == (value % m, slope % m)


def _child(f, digit, p, k):
    """The child build_tree makes at the root digit `digit` of f."""
    (child,) = [
        ch for ch in build_tree(ScaledPoly.of(f, p), p, k).root.children if ch.mu == digit
    ]
    return child


def test_taylor_coeffs_examples():
    # x^10 - 10x + 738 at 1: f(1) = 3^6, f'(1) = 0, then 45 and 120 for j = 2, 3
    f = ScaledPoly.of(parse_poly("x^10 - 10*x + 738"), 3)
    assert taylor_coeffs_mod(f, 1, 3, 6, 3) == [0, 0, 45, 120]
    # the same polynomial as its parts, 738 = 82 * 3^2
    g = ScaledPoly(3, ((0, 82, 2), (1, -10, 0), (10, 1, 0)))
    assert taylor_coeffs_mod(g, 1, 3, 6, 3) == [0, 0, 45, 120]
    # x^2 at zeta = 2 mod 5^2, and at zeta = 0 (the shortcut branch)
    assert taylor_coeffs_mod(ScaledPoly.of(SparsePoly(((2, 1),)), 5), 2, 5, 2, 2) == [4, 4, 1]
    f = ScaledPoly.of(parse_poly("7 + 3*x^2 + x^9"), 2)
    assert taylor_coeffs_mod(f, 0, 2, 3, 2) == [7, 0, 3]
    # a part with s = 2^40 - 2 reads as 0 mod 3^6, and its pow is modular
    g = ScaledPoly(3, ((0, 1, 0), (2, -1, 0), (2 ** 40, 1, 2 ** 40 - 2)))
    assert taylor_coeffs_mod(g, 1, 3, 6, 2) == [0, 3 ** 6 - 2, 3 ** 6 - 1]


def test_shift_rescale_examples():
    # p^(-2) (p x)^2 = x^2
    child = _child(SparsePoly(((2, 1),)), 0, 3, 5)
    assert child.s_step == 2 and mod_p_coeffs(child) == [0, 0, 1]
    # s(f, 1) = 4 digit shift: mod-3 reduction x^3 + 2x^2
    child = _child(parse_poly("x^10 - 10*x + 738"), 1, 3, 6)
    assert child.s_step == 4 and mod_p_coeffs(child) == [0, 0, 2, 1]
    # the four digit-1 shifts of 1 - x^340 mod 17
    expected = {1: [0, 14], 4: [10, 12], 13: [15, 5], 16: [3, 3]}
    for z, want in expected.items():
        child = _child(parse_poly("1 - x^340"), z, 17, 3)
        assert child.s_step == 2 and mod_p_coeffs(child) == want
    # a node whose claimed S does not divide the shifted input is refused
    with pytest.raises(DivisibilityViolation):
        shift_rescale(ScaledPoly.of(parse_poly("1 + x"), 3), 1, 0, 1, 3, 2)


@given(
    p=st.sampled_from([2, 3, 5]),
    digit=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_shift_then_eval_matches_direct(p, digit, data):
    """p^S sum_j u_j (p x)^j = f(prefix + p^(n+1) x) mod p^(S + prec) at
    random points, for u from shift_rescale at precision prec = min(deg + 1, k)
    at a node of depth n and consumed precision S, with f = p^S f0, held as
    the parts (a, c, S), so that p^S divides the node."""
    digit %= p
    k = data.draw(st.integers(min_value=3, max_value=8))
    n = data.draw(st.integers(min_value=0, max_value=3))
    S = data.draw(st.integers(min_value=0, max_value=4))
    mu = data.draw(st.integers(min_value=0, max_value=p ** n - 1))
    terms = data.draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=-20, max_value=20).filter(lambda c: c != 0),
            min_size=1,
            max_size=4,
        )
    )
    f = ScaledPoly(p, tuple(sorted((a, c, S) for a, c in terms.items())))
    prefix = mu + digit * p ** n
    prec = min(max(terms) + 1, k)
    u = shift_rescale(f, prefix, n, S, p, prec)
    m = p ** (S + prec)
    rng = random.Random(f"{p}:{digit}:{k}:{n}:{S}:{mu}:{sorted(terms.items())}")
    for _ in range(20):
        x = rng.randrange(m)
        lhs = p ** S * sum(uj * (p * x) ** j for j, uj in enumerate(u)) % m
        assert lhs == f.eval_mod(prefix + p ** (n + 1) * x, m)[0]


def _build_then_strip(f, p, v):
    """Reference rescale: build f(p^v x), times p^(-v deg f) when v < 0, at
    full size, then divide out the p-part of the content."""
    if v >= 0:
        pairs = [(a, c * p ** (v * a)) for a, c in f.terms]
    else:
        pairs = [(a, c * p ** (-v * (f.degree - a))) for a, c in f.terms]
    m = min(ord_int(c, p) for _, c in pairs)
    return SparsePoly(tuple((a, c // p ** m) for a, c in pairs))


def test_rescale_matches_build_then_strip():
    """g = sum u_i p^(e_i - m) x^(a_i) is the integral, content-free g with
    g(x) p^m = f(p^v x), at the polygon's valuations of both signs."""
    rng = random.Random(0x5CA1E)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(2400):
        p = rng.choice([2, 3, 5, 7, 11])
        exps = sorted(rng.sample(range(0, 30), rng.randint(1, 4)))
        f = SparsePoly(tuple(
            (a, rng.choice([-1, 1]) * rng.randint(1, 60) * p ** rng.choice([0, 0, 1, 2, 4, 7]))
            for a in exps
        ))
        for v in [v for v, _ in integral_valuation_candidates(f, p)] + [rng.randint(-3, 3)]:
            g = rescale_for_valuation(f, p, v)
            built = tuple((a, u * p ** s) for a, u, s in g.parts)
            assert built == _build_then_strip(f, p, v).terms, (f.to_text(), p, v)
            assert g.p == p and min(s for _, _, s in g.parts) == 0
            assert all(u % p and s >= 0 for _, u, s in g.parts)
            signs[(v > 0) - (v < 0)] += 1
    assert min(signs.values()) > 800


def test_rescale_budget():
    # the v = 1 rescale holds 3^(2^30 - 2), about 1.7e9 bits, as the part
    # s = 2^30 - 2: nothing is built, and both paths get the oracle's count
    # within 1 s
    f = parse_poly("9 - x^2 + x^1073741824")
    t0 = time.perf_counter()
    g = rescale_for_valuation(f, 3, 1)
    assert g.parts == ((0, 1, 0), (2, -1, 0), (1073741824, 1, 2 ** 30 - 2))
    want = count_qp_roots(f, 3).qp_count
    assert want == 4
    for certify in (True, False):
        assert solve_sparse(f, 3, certify=certify).root_count == want
    assert time.perf_counter() - t0 < 1
    g = rescale_for_valuation(parse_poly("3 - x + x^1000000"), 3, 0)
    assert g.parts == ((0, 1, 1), (1, -1, 0), (1000000, 1, 0))
