import pytest

from padicroots.arith import ord_int
from padicroots.errors import InvalidParams, PrecisionTooLow
from padicroots.tetranomial import TetraFamilyParams, collision_order, generate
from tests.reference import max_abs_coeff


def test_generate_example():
    g = generate(TetraFamilyParams(p=3, h=3, d=4))
    assert g.terms == ((0, -81), (1, 18), (2, -1), (4, 729))
    assert g.term_count == 4
    assert max_abs_coeff(g) == 3 ** 6  # p^(2h) = H


def test_param_validation():
    with pytest.raises(InvalidParams):
        TetraFamilyParams(p=3, h=2, d=4)
    with pytest.raises(InvalidParams):
        TetraFamilyParams(p=3, h=3, d=5)
    with pytest.raises(InvalidParams):
        TetraFamilyParams(p=3, h=3, d=100)  # > floor(e^3)
    with pytest.raises(InvalidParams, match=r"need d even with 4 <= d <= floor\(e\^h\)"):
        TetraFamilyParams(p=3, h=3, d=22)
    # e^h overflows a float past h = 709; no admissible d comes near it
    assert TetraFamilyParams(p=2, h=5000, d=4).shift_exponent == 4999 * 2 + 5000
    with pytest.raises(InvalidParams):
        TetraFamilyParams(p=4, h=3, d=4)


def test_exponent_beyond_63_bits_is_refused():
    """e^50 > 2^64, so only the 2^63 - 1 exponent cap refuses d = 2^64;
    without it, collision_order builds a power of p of about 49 * 2^63 digits."""
    with pytest.raises(InvalidParams, match="d < 2"):
        TetraFamilyParams(p=2, h=50, d=2 ** 64)


def test_collision_orders_grow_linearly():
    for p in (2, 3, 5):
        orders = []
        for d in (4, 6, 8, 10):
            params = TetraFamilyParams(p=p, h=3, d=d)
            rep = collision_order(params)
            assert rep.collision_order >= (params.h - 1) * d // 2
            orders.append(rep.collision_order)
        slopes = [(b - a) / 2 for a, b in zip(orders, orders[1:])]
        # per-unit-d slope at least (h-1)/2 * 0.99
        assert all(s >= (3 - 1) / 2 * 0.99 for s in slopes), (p, orders)


def test_roots_vanish_at_working_precision():
    for p in (2, 3, 5):
        params = TetraFamilyParams(p=p, h=3, d=6)
        rep = collision_order(params)
        F = generate(params)
        m = p ** rep.precision
        for z in (rep.root1, rep.root2):
            v = sum(c * pow(z, a, m) for a, c in F.terms) % m
            slack = rep.derivative_valuation
            assert v == 0 or ord_int(v, p) >= rep.precision - slack


def test_two_adic_starts():
    params = TetraFamilyParams(p=2, h=3, d=4)
    rep = collision_order(params)
    scale = params.shift_exponent
    # the lifts start from 3 and 5 mod 8; with derivative valuation 1 the
    # true G-roots are only pinned mod 4 (they land on {1, 7} mod 8)
    y1 = ((rep.root1 - 2 ** (params.h - 1)) // 2 ** scale) % 4
    y2 = ((rep.root2 - 2 ** (params.h - 1)) // 2 ** scale) % 4
    assert {y1, y2} == {3 % 4, 5 % 4}


def test_precision_too_low():
    params = TetraFamilyParams(p=3, h=3, d=4)
    with pytest.raises(PrecisionTooLow):
        collision_order(params, precision=5)


def test_measured_derivative_valuation_formula():
    """The measured ord_p F'(z_i) matches h + (h-1)d/2 + ord_p(2) exactly,
    consistent with the collision depth of the two roots."""
    for p in (2, 3, 5):
        for d in (4, 6, 8):
            params = TetraFamilyParams(p=p, h=3, d=d)
            rep = collision_order(params)
            expect = params.h + (params.h - 1) * d // 2 + ord_int(2, p)
            assert rep.derivative_valuation == expect
