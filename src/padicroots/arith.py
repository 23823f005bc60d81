"""Exact p-adic integer and modular arithmetic.

Everything here is pure and immutable: primality, valuations and the
extended gcd.  Valuations are exact (`int`/`Fraction`), never floats;
``math.inf`` is the valuation of 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams

INFINITY = math.inf

# Deterministic Miller-Rabin witnesses, sufficient for every n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@functools.lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + fixed-base Miller-Rabin).

    Cached: one solve checks its p in several places.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PAdicContext:
    """A prime p together with a working precision exponent k (modulus p^k).

    The prime is verified at construction; the library never trusts the
    caller on primality.
    """

    p: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParams(f"precision exponent must be >= 1, got {self.k}")
        if not is_prime(self.p):
            raise InvalidParams(f"{self.p} is not prime")


def ord_int(n: int, p: int) -> int | float:
    """Largest e with p^e | n; +infinity for n = 0."""
    if n == 0:
        return INFINITY
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def ord_rat(q: Fraction, p: int) -> int | float:
    """ord_p extended to rationals: ord(num) - ord(den); +infinity for 0."""
    if q == 0:
        return INFINITY
    return ord_int(q.numerator, p) - ord_int(q.denominator, p)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b (extended Euclid)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t
