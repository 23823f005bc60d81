"""Root finding and auxiliary algebra in F_p at desk scale.

Exhaustive scans replace asymptotically-fast finite-field factoring; below
p ~ 10^5 this is faster in practice and keeps the module dependency-free.
The change affects running time only, never correctness.  A binomial
x^d = t is not evaluated on all of F_p: one power test decides it, and its
roots, one coset of the gamma-th roots of unity with gamma = gcd(d, p-1),
come from a scan of (p-1)/gamma coset representatives.
"""

from __future__ import annotations

import math

from .errors import ContentDivisible, InvariantViolated, PrimeTooLarge
from .sparsepoly import SparsePoly

DESK_PRIME_CAP = 100_000


def check_prime_cap(p: int):
    if p > DESK_PRIME_CAP:
        raise PrimeTooLarge(f"p = {p} exceeds the exhaustive-scan cap {DESK_PRIME_CAP}")


def _reduce_exponent_unit(a: int, p: int) -> int:
    """Reduce a positive exponent mod p-1 into {1, ..., p-1} (unit arguments)."""
    if a == 0 or p == 2:
        return min(a, 1) if p == 2 else a
    e = a % (p - 1)
    return e if e else p - 1


def fp_terms(f: SparsePoly, p: int) -> list[tuple[int, int]]:
    """(reduced exponent, coefficient mod p) pairs, zero coefficients dropped.

    Valid for evaluation at nonzero arguments; exponent 0 stays 0.
    """
    acc: dict[int, int] = {}
    for a, c in f.terms:
        c %= p
        if c == 0:
            continue
        e = _reduce_exponent_unit(a, p)
        acc[e] = (acc.get(e, 0) + c) % p
    return [(e, c) for e, c in sorted(acc.items()) if c]


def fp_derivative_terms(f: SparsePoly, p: int) -> list[tuple[int, int]]:
    """Reduced terms of f' mod p, for evaluation at nonzero arguments."""
    acc: dict[int, int] = {}
    for a, c in f.terms:
        ac = (a % p) * c % p
        if ac == 0 or a == 0:
            continue
        e = _reduce_exponent_unit(a - 1, p) if a > 1 else 0
        acc[e] = (acc.get(e, 0) + ac) % p
    return [(e, c) for e, c in sorted(acc.items()) if c]


def roots_fp_exhaustive(f: SparsePoly, p: int) -> list[tuple[int, bool]]:
    """All roots of f mod p with a degeneracy flag (f(z) = f'(z) = 0 mod p).

    Note the reduced term list may be empty even for f != 0 mod p when
    exponent reduction cancels terms; the function then vanishes on all of
    F_p* (e.g. x^20 + 2x^2 mod 3).
    """
    check_prime_cap(p)
    if all(c % p == 0 for _, c in f.terms):
        raise ContentDivisible("f is identically 0 mod p")
    fterms = fp_terms(f, p)
    dterms = fp_derivative_terms(f, p)

    roots = []
    f0 = f.coefficient(0) % p
    if f0 == 0:
        d0 = f.coefficient(1) % p
        roots.append((0, d0 == 0))
    for z in range(1, p):
        fv = 0
        for e, c in fterms:
            fv = (fv + c * pow(z, e, p)) % p
        if fv:
            continue
        dv = 0
        for e, c in dterms:
            dv = (dv + c * pow(z, e, p)) % p
        roots.append((z, dv == 0))
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
    e = d % (p - 1)
    x = 1
    for _ in range(step):
        if pow(x, e, p) == t:
            break
        x = x * g % p
    else:
        raise InvariantViolated(f"x^{d} = {t} passed the power test mod {p} but has no root")
    mult = pow(g, step, p)
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
