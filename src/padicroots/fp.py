"""Root finding and auxiliary algebra in F_p at desk scale.

Roots in F_p are found by an exhaustive scan: p-1 points of F_p*, walked
along a primitive root, at one modular multiplication per term per point.
Asymptotically fast splitting (Cantor-Zassenhaus) is sub-linear in p and
would be much faster at these primes; it waits until the benchmark bounds
the oracle check of its large-p workload, which grows with solver speed.
The scan affects running time only, never correctness.  A binomial
x^d = t is not evaluated on all of F_p: one power test decides it, and its
roots, one coset of the gamma-th roots of unity with gamma = gcd(d, p-1),
come from a walk over (p-1)/gamma coset representatives.
"""

from __future__ import annotations

import functools
import math

from .errors import ContentDivisible, InvariantViolated, PrimeTooLarge
from .sparsepoly import SparsePoly

DESK_PRIME_CAP = 100_000


def check_prime_cap(p: int):
    if p > DESK_PRIME_CAP:
        raise PrimeTooLarge(f"p = {p} exceeds the exhaustive-scan cap {DESK_PRIME_CAP}")


def roots_fp_exhaustive(f: SparsePoly, p: int) -> list[tuple[int, bool]]:
    """All roots of f mod p with a degeneracy flag (f(z) = f'(z) = 0 mod p).

    F_p* is walked along the primitive root g: at the i-th point z = g^i
    each term c z^e is the previous one times g^e, one multiplication per
    term, and the exponents are reduced mod p-1.  The reduced terms may
    cancel even for f != 0 mod p; f then vanishes on all of F_p* (e.g.
    x^20 + 2x^2 mod 3).  f' is evaluated at the roots only.
    """
    check_prime_cap(p)
    acc: dict[int, int] = {}  # reduced exponent -> coefficient mod p
    for a, c in f.terms:
        if c % p:
            e = a % (p - 1)
            acc[e] = (acc.get(e, 0) + c) % p
    if not acc:
        raise ContentDivisible("f is identically 0 mod p")
    roots = []
    if f.coefficient(0) % p == 0:
        roots.append((0, f.coefficient(1) % p == 0))
    t = -acc.pop(0, 0) % p  # the terms sum to t at a root
    g = generator_fp(p)
    ws = [c for c in acc.values() if c]
    ms = [pow(g, e, p) for e, c in acc.items() if c]
    # zero terms pad to two, so the tight loop takes every f with at most
    # two nonconstant terms: a trinomial's root node and most nodes below it
    pad = 2 - len(ws)
    ws += [0] * pad
    ms += [1] * pad
    found = []
    if len(ws) == 2:
        (w1, w2), (m1, m2), tp = ws, ms, t + p
        for i in range(p - 1):
            s = w1 + w2
            if s == t or s == tp:
                found.append(i)
            w1 = w1 * m1 % p
            w2 = w2 * m2 % p
    else:
        for i in range(p - 1):
            if sum(ws) % p == t:
                found.append(i)
            ws = [w * m % p for w, m in zip(ws, ms)]
    for z in sorted(pow(g, i, p) for i in found):
        roots.append((z, f.deriv_mod(z, p) == 0))
    return roots


def _factor_trial(n: int) -> list[int]:
    """Distinct prime factors by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@functools.cache
def generator_fp(p: int) -> int:
    """Smallest primitive root mod p, verified against the factors of p-1."""
    check_prime_cap(p)
    if p == 2:
        return 1
    qs = _factor_trial(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ArithmeticError(f"no generator found for p={p}")  # unreachable for prime p


def binomial_coset_roots(t: int, d: int, p: int) -> list[int]:
    """All solutions of x^d = t in F_p*, sorted, or [] if there are none.

    With gamma = gcd(d, p-1) there are exactly 0 or gamma: t must pass the
    power test t^((p-1)/gamma) = 1.  The first root is brute-forced over
    the coset representatives {g^0, ..., g^((p-1)/gamma - 1)}, then the
    coset is walked by multiplying with g^((p-1)/gamma).
    """
    check_prime_cap(p)
    t %= p
    gamma = math.gcd(d, p - 1)
    step = (p - 1) // gamma
    if t == 0 or pow(t, step, p) != 1:
        return []
    g = generator_fp(p)
    y, m = 1, pow(g, d, p)  # y = x^d at x = g^i
    for i in range(step):
        if y == t:
            break
        y = y * m % p
    else:
        raise InvariantViolated(f"x^{d} = {t} passed the power test mod {p} but has no root")
    x, mult = pow(g, i, p), pow(g, step, p)
    out = [x]
    for _ in range(gamma - 1):
        x = x * mult % p
        out.append(x)
    return sorted(out)


# -- dense polynomial arithmetic over F_p for the Frobenius gcd ------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = _poly_trim(a[:])
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        factor = a[-1] * inv_lead % p
        for i, m in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * m) % p
        _poly_trim(a)
        if not a:
            break
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_rem(res, mod, p)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def gcd_with_frobenius(coeffs: list[int], p: int) -> int:
    """deg gcd(f, x^p - x): the number of distinct roots of f in F_p.

    x^p mod f is computed by repeated squaring, so only deg(f)-sized
    polynomials are ever touched.
    """
    f = _poly_trim([c % p for c in coeffs])
    if not f:
        raise ContentDivisible("f is identically 0 mod p")
    if len(f) == 1:
        return 0
    if len(f) == 2:
        return 1
    base = [0, 1]
    acc = [1]
    e = p
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    frob = acc[:]
    while len(frob) < 2:
        frob.append(0)
    frob[1] = (frob[1] - 1) % p
    g = _poly_gcd(f, _poly_trim(frob), p)
    return len(g) - 1 if g else len(f) - 1
