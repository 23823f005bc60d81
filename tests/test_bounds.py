import math
from fractions import Fraction

import numpy as np
import pytest

from padicroots.bounds import (
    C256E2,
    HEIGHT_FLOOR,
    degenerate_valuation_gap_cap,
    mahler_bound,
    trinomial_separation_bound,
    two_term_valuation_bound,
)
from tests.reference import aux_polys, yu_bound


def test_constant_sanity():
    assert C256E2 < 1892
    assert math.log(2) * C256E2 < 1312
    assert HEIGHT_FLOOR < 0.0085


def test_yu_plug_in_floor_case():
    # n = 2, all height factors at the floor, p = 3, B = 3
    val = yu_bound([Fraction(1, 1), Fraction(-1, 1)], [3, 1], 3)
    expect = (
        math.log(2)
        * (math.log(4) / math.log(3))
        * 2 ** 2.5
        * C256E2 ** 3
        * 3
        * (math.log(3) / math.log(3))
        * HEIGHT_FLOOR ** 2
    )
    assert abs(val - expect) / expect < 1e-12


def test_yu_two_term_specialization():
    # |r_i|, |s_i| <= dH with B = max(d, 3) reproduces the explicit
    # 36791093348 p log(d) log_p^2(dH) form
    for (d, H, p) in [(10, 50, 3), (1000, 7, 5), (2 ** 20, 2, 13)]:
        v = yu_bound([Fraction(d * H - 1, d * H), Fraction(-(d * H), 1)], [d, max(d - 1, 1)], p)
        cap = 36791093348 * p * math.log(max(d, 3)) * (math.log(d * H) / math.log(p)) ** 2
        assert v < cap
        tt = two_term_valuation_bound(d, math.log(H), p)
        assert 0 < tt < cap
        assert abs(tt / cap - math.log(2) * math.log(4) * 2 ** 2.5 * C256E2 ** 3 / 36791093348) < 1e-6


def test_yu_rejects_bad_input():
    with pytest.raises(ValueError):
        yu_bound([Fraction(2)], [1], 3)
    with pytest.raises(ValueError):
        yu_bound([Fraction(2), Fraction(3)], [0, 0], 3)


def test_mahler_examples():
    assert abs(mahler_bound(2, 1) - (-2 * math.log(3))) < 1e-12
    # hand plug-in at d = 4, H = 16
    expect = 0.5 * math.log(3) - 4.5 * math.log(5) - 3 * math.log(16)
    assert abs(mahler_bound(4, 16) - expect) < 1e-12
    # monotone decreasing in d and H
    assert mahler_bound(5, 16) < mahler_bound(4, 16)
    assert mahler_bound(4, 17) < mahler_bound(4, 16)


def test_aux_polys_examples():
    ap = aux_polys(1, 2)
    assert ap.q == [1, -2, 1] and ap.Q == [1] and ap.q_at_one_cofactor == 1
    ap = aux_polys(1, 3)
    assert ap.q == [2, -3, 0, 1] and ap.Q == [2, 1]
    assert ap.q_at_one_cofactor == 3 == 1 * 3 * 2 // 2
    ap = aux_polys(2, 3)
    assert ap.q_at_one_cofactor == 2 * 3 * 1 // 2 == 3


def test_aux_polys_exhaustive_to_60():
    for ab3 in range(2, 61):
        for ab2 in range(1, ab3):
            if math.gcd(ab2, ab3) != 1:
                continue
            ap = aux_polys(ab2, ab3)  # raises internally if q != Q (x-1)^2
            assert ap.q_at_one_cofactor == ab2 * ab3 * (ab3 - ab2) // 2
            assert sum(ap.Q) == ap.q_at_one_cofactor


def test_cofactor_discriminant_identity_numeric():
    """Float smoke test: Delta(Q) = abar2^(abar3-4) * prod Q'(mu) over the
    roots of Q, via a Sylvester determinant and numpy roots."""
    for (ab2, ab3) in [(1, 4), (3, 4), (1, 5), (2, 5), (3, 7), (5, 9), (7, 10)]:
        ap = aux_polys(ab2, ab3)
        Q = np.array(ap.Q[::-1], dtype=float)  # high to low for numpy
        dQ = np.polyder(np.poly1d(Q))
        n = len(ap.Q) - 1  # deg Q
        res = _sylvester_resultant(np.poly1d(Q), dQ)
        disc = res / ap.Q[-1]
        mus = np.roots(Q)
        prod = np.prod([np.polyval(dQ, mu) for mu in mus]) if n else 1.0
        rhs = ap.Q[-1] ** 0 * ab2 ** (ab3 - 4) * prod
        assert abs(disc - rhs.real) / max(abs(disc), 1.0) < 1e-6, (ab2, ab3)


def _sylvester_resultant(f, g):
    fc, gc = list(f.coeffs), list(g.coeffs)
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    M = np.zeros((size, size))
    for i in range(n):
        M[i, i : i + m + 1] = fc
    for i in range(m):
        M[n + i, i : i + n + 1] = gc
    return float(np.linalg.det(M))


def test_separation_bound_shapes():
    # never exceeds log H from above
    for (d, H, p) in [(5, 10, 3), (20, 738, 3), (10, 12, 2), (40, 50, 13)]:
        assert trinomial_separation_bound(d, math.log(H), p, degenerate=False) <= math.log(H)
        assert trinomial_separation_bound(d, math.log(H), p, degenerate=True) <= math.log(H)
    # square-free case is dominated by the valuation-bound term for large p
    b_small = trinomial_separation_bound(10, math.log(10), 3, degenerate=False)
    b_large = trinomial_separation_bound(10, math.log(10), 97, degenerate=False)
    assert b_large < b_small
    # degenerate bound plug-in at d = 3, r = 1, H = 10 is finite and explicit
    val = trinomial_separation_bound(3, math.log(10), 5, degenerate=True, a2=1, r=1)
    assert -100 < val < 0


def test_degenerate_gap_cap():
    assert degenerate_valuation_gap_cap(10, math.log(50), 1) == math.log((10 - 1) * 1000 * 50 / 8)
    assert degenerate_valuation_gap_cap(4, 0.0, 2) >= 0

    # a sum of logs: equal to the product form while that fits a float, and
    # finite above H = 10^300, where the product overflows
    def product_form(d, H, r):
        return math.log(max((d - r) * d ** 3 * H / (8 * r ** 4), 1.0))

    for d, H, r in [(10, 50, 1), (20, 738, 1), (8002, 2 ** 900, 2), (10 ** 6, 10 ** 250, 7)]:
        cap = degenerate_valuation_gap_cap(d, math.log(H), r)
        assert abs(cap - product_form(d, H, r)) < 1e-9
    cap = degenerate_valuation_gap_cap(20, math.log(10 ** 400), 1)
    assert abs(cap - (math.log(19 * 20 ** 3 / 8) + 400 * math.log(10))) < 1e-9
    assert trinomial_separation_bound(20, math.log(10 ** 400), 3, degenerate=True) <= -cap
