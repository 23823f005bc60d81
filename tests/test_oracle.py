import pytest

from padicroots.arith import ord_int
from padicroots.errors import BudgetExceeded, CriterionFailed
from padicroots.oracle import count_qp_roots, lift_root
from padicroots.sparsepoly import SparsePoly, parse_poly
from padicroots.trinomial import solve_sparse
from tests.conftest import random_trinomial


def test_count_examples():
    assert count_qp_roots(parse_poly("x^20 - 10*x^2 + 738"), 3).qp_count == 8
    assert count_qp_roots(parse_poly("x^2 + 1"), 3).qp_count == 0
    o = count_qp_roots(parse_poly("1 - 2*x + x^2"), 7)
    assert o.qp_count == 1 and o.degenerate_count == 1
    assert count_qp_roots(parse_poly("1 - x^397"), 17).qp_count == 1
    assert count_qp_roots(parse_poly("1 - x^340"), 17).qp_count == 4


def test_count_unit_rescale_invariance(rng):
    for _ in range(40):
        f = random_trinomial(rng, d_max=10, h_max=10)
        p = rng.choice([2, 3, 5, 7])
        try:
            base = count_qp_roots(f, p).qp_count
        except BudgetExceeded:
            continue
        for u in range(1, p):
            g = SparsePoly(tuple((a, c * pow(u, a)) for a, c in f.terms))
            assert count_qp_roots(g, p).qp_count == base


def test_lift_root():
    f = parse_poly("x^2 - 1")
    z = lift_root(f, 7, 6, 4)
    assert pow(z, 2, 7 ** 4) == 1 and z % 7 == 6
    with pytest.raises(CriterionFailed):
        lift_root(f, 7, 3, 4)
    # reference lift for the binomial digits example
    g = parse_poly("1 - x^340")
    z = lift_root(g, 17, 4 + 2 * 17, 8)
    assert pow(z, 340, 17 ** 8) == 1
    assert z % 17 == 4 and (z // 17) % 17 == 2


def test_lift_residual_doubles():
    f = parse_poly("2 - 3*x + x^3")
    p = 7
    z = 5  # simple root of the reduction: 2 - 15 + 125 = 112 = 7*16
    m = p ** 40
    ordf = lambda t: ord_int(sum(c * pow(t, a, m) for a, c in f.terms) % m, p)
    prev = ordf(z)
    for _ in range(4):
        dz = sum(a * c * pow(z, a - 1, m) for a, c in f.terms if a) % m
        z = (z - (sum(c * pow(z, a, m) for a, c in f.terms) % m) * pow(dz, -1, m)) % m
        cur = ordf(z)
        assert cur >= 2 * prev
        prev = cur


def test_zero_root_counted_once():
    o = count_qp_roots(parse_poly("x^3 + x^5 + x^9"), 5)
    assert o.zero_root
    body = parse_poly("1 + x^2 + x^6")
    assert o.qp_count == 1 + count_qp_roots(body, 5).qp_count


def test_linear_lift_all_or_none_at_a_large_prime():
    """Where g'(r) = 0 mod p the linear lift keeps every digit t of the next
    level or none of them, according to whether p^k divides g(r).  Each count
    at p = 10007 is known by construction and matches the solver."""
    p = 10007
    for text, residues in [
        (f"{1 + p} - {2 + p}*x + x^2", [1, 1 + p]),  # (x - 1)(x - 1 - p)
        (f"{1 + p} - 2*x + x^2", []),  # (x - 1)^2 + p
        (f"{1 + p ** 2} - {2 + p ** 2}*x + x^2", [1, 1 + p ** 2]),  # (x - 1)(x - 1 - p^2)
    ]:
        f = parse_poly(text)
        o = count_qp_roots(f, p)
        assert o.qp_count == len(residues), text
        assert sorted(e["residue"] for e in o.lifted) == residues, text
        assert solve_sparse(f, p).root_count == len(residues), text
