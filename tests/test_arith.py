import math
import random
import time
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from padicroots.arith import INFINITY, SPLIT_DIGITS, base_p_digits, is_prime, ord_int, ord_rat
from tests.reference import log_height

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


def test_ord_int_examples():
    assert ord_int(18, 3) == 2
    assert ord_int(0, 5) == INFINITY
    assert ord_int(-50, 5) == 2


def test_ord_int_past_the_first_digits():
    # the first 8 digits go one p at a time, the rest by p^(2^i) with restarts
    for p in (2, 3, 7, 99991):
        for v in range(80):
            for u in (1, p - 1, p + 1, 5 * p ** 3 + 1):
                assert ord_int(u * p ** v, p) == v
                assert ord_int(-u * p ** v, p) == v


def test_ord_int_deep_valuation_is_fast():
    t0 = time.perf_counter()
    assert ord_int(7 * 3 ** 100000, 3) == 100000
    assert time.perf_counter() - t0 < 1


def _digits_one_divmod_each(n, p, m):
    out = []
    for _ in range(m):
        n, z = divmod(n, p)
        out.append(z)
    return tuple(out)


def test_digit_split_matches_one_divmod_per_digit():
    """base_p_digits splits past SPLIT_DIGITS digits; it must return the same
    first m digits as the plain loop, for n below p^m and for n above it."""
    rng = random.Random(20261020)
    t = SPLIT_DIGITS
    for p in (2, 3, 99991):
        for m in (0, 1, t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, 1000):
            top = p ** m
            below = [0, top - 1] + [rng.randrange(top) for _ in range(3)]
            above = [top, top * p - 1] + [rng.randrange(top, top * p ** 50) for _ in range(3)]
            for n in below + above:
                assert base_p_digits(n, p, m) == _digits_one_divmod_each(n, p, m), (p, m, n)


def test_ord_rat_examples():
    assert ord_rat(Fraction(50, 3), 5) == 2
    assert ord_rat(Fraction(1, 25), 5) == -2
    assert ord_rat(Fraction(0), 7) == INFINITY


def test_log_height():
    assert log_height(Fraction(3, 7)) == math.log(7)
    assert log_height(Fraction(0)) == 0.0
    assert log_height(Fraction(-100, 1)) == math.log(100)


@given(
    a=st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(lambda x: x != 0),
    b=st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(lambda x: x != 0),
    p=st.sampled_from(PRIMES_TO_100),
)
def test_ord_multiplicative(a, b, p):
    assert ord_int(a * b, p) == ord_int(a, p) + ord_int(b, p)


@given(
    a=st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    b=st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    p=st.sampled_from(PRIMES_TO_100),
)
def test_ultrametric(a, b, p):
    va, vb, vs = ord_int(a, p), ord_int(b, p), ord_int(a + b, p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


def test_is_prime_desk_scale():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in sieve)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
