import random
from fractions import Fraction

import pytest

from padicroots.arith import is_prime
from padicroots.errors import BudgetExceeded, InvalidParams
from padicroots.newton_polygon import build_arch, build_padic, integral_valuation_candidates
from padicroots.oracle import _integral_valuations, count_qp_roots
from padicroots.sparsepoly import SparsePoly, parse_poly, strip_zero_root
from tests.conftest import random_trinomial


def test_rescaled_family_polygon():
    # p^6 x^5 - x^2 + 2 p^2 x - p^4 at p = 3: two lower edges, lengths 2 and 3
    f = parse_poly("729*x^5 - x^2 + 18*x - 81")
    edges = build_padic(f, 3)
    assert [e.horizontal_length for e in edges] == [2, 3]
    assert [e.slope for e in edges] == [Fraction(-2), Fraction(2)]


def test_single_edge_slope_zero():
    edges = build_padic(parse_poly("1 - x^340"), 17)
    assert len(edges) == 1
    assert edges[0].slope == 0 and edges[0].horizontal_length == 340


def test_sign_convention_x2_minus_p2():
    for p in (2, 3, 5, 7):
        f = SparsePoly.from_terms([(0, -p * p), (2, 1)])
        edges = build_padic(f, p)
        assert len(edges) == 1
        assert edges[0].slope == -1 and edges[0].root_valuation == 1
        assert edges[0].horizontal_length == 2
        # both roots +-p really do have valuation 1
        o = count_qp_roots(f, p)
        assert o.unit_roots_by_valuation.get(1) and len(o.unit_roots_by_valuation[1]) == 2


def test_arch_family_polygon():
    # f_{5,1/2}: x^5 - 64 x^2 + 32 x - 4: three lower edges, lengths 1, 1, 3
    edges = build_arch(parse_poly("x^5 - 64*x^2 + 32*x - 4"))
    assert [e.horizontal_length for e in edges] == [1, 1, 3]


def test_arch_trivial():
    edges = build_arch(parse_poly("x^2 - 1"))
    assert len(edges) == 1 and edges[0].horizontal_length == 2
    assert abs(edges[0].slope) < 1e-12


def test_arch_shifted_tetranomial_two_edges():
    # 256 * f_{4,1/2}(x + 1/4): two lower edges, leftmost of length 2
    # 256*((x+1/4)^4 - 64 (x+1/4)^2 + 32 (x+1/4) - 4)
    coeffs = [1, 16, -16288, 256, 256]
    f = SparsePoly.from_terms(enumerate(coeffs))
    edges = build_arch(f)
    assert len(edges) == 2
    assert edges[0].horizontal_length == 2


def test_arch_exact_collinearity_and_its_limit():
    # exactly collinear: the tolerance test is ambiguous, the exact test merges
    edges = build_arch(parse_poly("1 + 2*x + 4*x^2"))
    assert [(e.horizontal_length, e.collinearity_uncertain) for e in edges] == [(2, False)]
    # coefficients past 2^63 are beyond the exact test: merged, and flagged
    edges = build_arch(SparsePoly(((0, 1), (1, 2 ** 64), (2, 2 ** 128))))
    assert [(e.horizontal_length, e.collinearity_uncertain) for e in edges] == [(2, True)]


def test_arch_log3_isolation_flags():
    edges = build_arch(parse_poly("x^2 - 1"))
    assert edges[0].log3_isolated is True
    edges = build_arch(parse_poly("1 + 2*x + x^2"))
    assert all(e.log3_isolated is not None for e in edges)


def test_integral_candidates_examples():
    assert integral_valuation_candidates(parse_poly("1 + x + 5*x^2"), 5) == [(0, 1), (-1, 1)]
    assert integral_valuation_candidates(parse_poly("-5 + x^2"), 5) == []
    assert integral_valuation_candidates(parse_poly("1 - x^397"), 17) == [(0, 397)]


@pytest.mark.parametrize("p", [-3, 0, 4])  # p = 1: test_cli, under a timeout
def test_non_prime_p_is_refused(p):
    f = parse_poly("x^2 - 1")
    for build in (build_padic, integral_valuation_candidates):
        with pytest.raises(InvalidParams):
            build(f, p)


def test_valuation_sweep_matches_the_oracles():
    """The hull's integral slopes are the oracle's own pairwise sweep, an
    independent implementation; the edges carry at most deg f roots."""
    rng = random.Random(0x5A1E)
    primes = [p for p in range(98) if is_prime(p)]
    for _ in range(20_000):
        p = rng.choice(primes)
        f = SparsePoly.from_terms(
            (a, rng.choice([-1, 1]) * rng.randint(1, 60) * p ** rng.randint(0, 6))
            for a in rng.sample(range(300), rng.randint(1, 5))
        )
        found = integral_valuation_candidates(f, p)
        assert [v for v, _ in found] == _integral_valuations(f, p), (f.to_text(), p)
        assert sum(m for _, m in found) <= f.degree


def test_lengths_sum_and_convexity(rng):
    for _ in range(200):
        f = random_trinomial(rng)
        p = rng.choice([2, 3, 5, 7])
        edges = build_padic(f, p)
        assert sum(e.horizontal_length for e in edges) == f.degree - strip_zero_root(f)[1]
        slopes = [e.slope for e in edges]
        assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_per_valuation_counts_vs_oracle(rng):
    """Oracle root counts per valuation never exceed the edge multiplicity."""
    checked = 0
    for _ in range(120):
        f = random_trinomial(rng, d_max=20, h_max=30)
        p = rng.choice([2, 3, 5])
        try:
            o = count_qp_roots(f, p)
        except BudgetExceeded:
            continue
        lengths = dict(integral_valuation_candidates(f, p))
        for v, roots in o.unit_roots_by_valuation.items():
            if roots:
                assert v in lengths
                assert len(roots) <= lengths[v]
        checked += 1
    assert checked > 80
