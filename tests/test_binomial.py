import math
import time

import pytest

from padicroots.arith import ord_int
from padicroots.binomial import (
    REASON_NO_INTEGRAL_VALUATION,
    REASON_POWER_TEST_FAILED,
    BinomialInput,
    separation_binomial,
    solve_binomial,
)
from padicroots.errors import BudgetExceeded, DerivativeNotInvertible, InvalidParams
from padicroots.newton import certified_residue
from padicroots.oracle import count_qp_roots, lift_root
from padicroots.sparsepoly import ScaledPoly, parse_poly
from tests.conftest import random_binomial, smale_gains
from tests.reference import log_height


def _count(inp):
    return solve_binomial(inp, certify=False).count


def test_count_examples():
    assert _count(BinomialInput(1, -1, 397, 17)) == 1
    assert _count(BinomialInput(1, -1, 340, 17)) == 4
    assert _count(BinomialInput(1, 1, 2, 3)) == 0


def test_structural_count(rng):
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(1, 40)
        c1 = rng.choice([x for x in range(-30, 31) if x])
        c2 = rng.choice([x for x in range(-30, 31) if x])
        n = _count(BinomialInput(c1, c2, d, p))
        gamma = math.gcd(d, p - 1) if p > 2 else math.gcd(d, 2)
        assert n in (0, gamma)


def test_solve_digit_examples():
    res = solve_binomial(BinomialInput(-1, 1, 2, 7))
    assert sorted(r.unit_digits(1) for r in res.roots) == [(1,), (6,)]
    res = solve_binomial(BinomialInput(1, -1, 340, 17))
    assert sorted(r.unit_digits(2) for r in res.roots) == sorted(
        [(1, 0), (4, 2), (13, 14), (16, 16)]
    )
    res = solve_binomial(BinomialInput(8, -1, 3, 5))
    assert res.count == 1 and res.roots[0].value == 2
    # ord_p d >= 10: certified_residue starts from the first digit alone and
    # its Newton steps read f'(z) past p^10
    res = solve_binomial(BinomialInput(1 + 3 ** 11, -1, 3 ** 10, 3))
    assert [r.unit_digits(r.precision) for r in res.roots] == [(1, 1, 1)]
    res = solve_binomial(BinomialInput(1 + 5 ** 11, -1, 5 ** 10, 5))
    assert [r.unit_residue for r in res.roots] == [81]


def test_reason_codes():
    # x^2 = 5 over Q_5: valuation 1/2 not integral
    res = solve_binomial(BinomialInput(-5, 1, 2, 5))
    assert res.count == 0 and res.reason == REASON_NO_INTEGRAL_VALUATION
    # x^2 = 2 over Q_5: 2 is a non-residue
    res = solve_binomial(BinomialInput(-2, 1, 2, 5))
    assert res.count == 0 and res.reason == REASON_POWER_TEST_FAILED


def test_degree_below_one_is_invalid():
    # c1 + c2 x^(-d) has the roots of c2 + c1 x^d, so callers pass d >= 1
    for d in (-3, 0):
        with pytest.raises(InvalidParams):
            BinomialInput(1, 2, d, 5)


def test_oracle_equivalence_mini(rng):
    agree, skip = 0, 0
    for _ in range(400):
        f = random_binomial(rng)
        p = rng.choice([2, 3, 5, 7])
        (_, c1), (d, c2) = f.terms
        try:
            expected = count_qp_roots(f, p).qp_count
        except BudgetExceeded:
            skip += 1
            continue
        assert _count(BinomialInput(c1, c2, d, p)) == expected
        agree += 1
    assert agree > 300


def test_smale_convergence(rng):
    """Newton gains at least 2^i digits per i iterations from every start."""
    done = 0
    for _ in range(250):
        f = random_binomial(rng, d_max=25, h_max=20)
        p = rng.choice([2, 3, 5, 7])
        (_, c1), (d, c2) = f.terms
        res = solve_binomial(BinomialInput(c1, c2, d, p))
        for rt in res.roots:
            e0, gains = smale_gains(rt)
            if e0 is None:
                continue  # start already exact at working precision
            for i, ei in enumerate(gains, start=1):
                if ei is None:
                    break
                assert ei - e0 >= 2 ** i, (f.to_text(), p, rt.unit_residue, i, e0, ei)
            done += 1
    assert done > 80


def test_deep_refinement():
    """The unit part of the root -1 of x^2 - 1 in Q_2 has every digit 1; its
    certificate refines to 100000 digits with precision doubling, so the
    last Newton steps, not the first, work at full size."""
    res = solve_binomial(BinomialInput(-1, 1, 2, 2))
    (rt,) = [r for r in res.roots if r.unit_digits(2) == (1, 1)]
    t0 = time.perf_counter()
    deep = rt.refine(100000 - rt.precision)
    assert time.perf_counter() - t0 < 5
    assert deep.precision == 100000
    assert deep.unit_digits(100000) == (1,) * 100000


def test_certification_errors_are_typed():
    # x^2 + 1 at 1 in Q_2: ord f = ord f' = 1, so Newton cannot contract
    with pytest.raises(DerivativeNotInvertible, match="non-contracting"):
        certified_residue(ScaledPoly.of(parse_poly("x^2 + 1"), 2), 2, 1, 10)
    # 5 is no square in Q_2: ord f = 2 > ord f' = 1 at every odd z, so each
    # step is taken, and none certifies a second digit
    with pytest.raises(DerivativeNotInvertible, match="did not converge"):
        certified_residue(ScaledPoly.of(parse_poly("x^2 - 5"), 2), 2, 1, 10)


def test_height_bound(rng):
    """log height of start points stays within C (log p + log(H)/d)."""
    C = 6.0
    for _ in range(200):
        f = random_binomial(rng)
        p = rng.choice([2, 3, 5, 7, 11])
        (_, c1), (d, c2) = f.terms
        res = solve_binomial(BinomialInput(c1, c2, d, p))
        H = max(abs(c1), abs(c2))
        for rt in res.roots:
            assert log_height(rt.value) <= C * (math.log(p) + math.log(max(H, 2)) / abs(d)) + C


def test_separation_examples():
    b = separation_binomial(9, 3, 1)
    assert b.pure_p_power and abs(b.padic - math.log(3) / 2) < 1e-12
    b = separation_binomial(6, 3, 1)
    assert not b.pure_p_power and b.padic == 0.0
    b = separation_binomial(2, 5, 25)
    assert abs(b.padic - math.log(5)) < 1e-12
    assert abs(b.arch - (math.log(2) + math.log(25) / 2)) < 1e-12


def test_separation_sound_vs_oracle(rng):
    """|log|z1-z2|_p| never exceeds the bound on oracle root pairs."""
    import itertools

    checked = 0
    for _ in range(400):
        f = random_binomial(rng, d_max=20, h_max=15)
        p = rng.choice([2, 3, 5])
        (_, c1), (d, c2) = f.terms
        if d < 2:
            continue
        try:
            o = count_qp_roots(f, p)
        except BudgetExceeded:
            continue
        sep = separation_binomial(d, p, max(abs(c1), abs(c2)))
        lifted = []
        for e in o.lifted:
            res = lift_root(e["encoding"], p, e["residue"], 40)
            lifted.append((e["valuation"], res))
        for (v1, r1), (v2, r2) in itertools.combinations(lifted, 2):
            if v1 != v2:
                dist_ord = min(v1, v2)
            else:
                dist_ord = v1 + ord_int((r1 - r2) % p ** 40, p)
            # |log dist| = |ord| * log p <= bound
            assert abs(dist_ord) * math.log(p) <= sep.padic + 1e-9, (f.to_text(), p)
            checked += 1
    assert checked > 30
