"""Root finding and auxiliary algebra in F_p at desk scale.

Roots in F_p are found by a scan of F_p*, walked along a primitive root,
at one modular multiplication per term per point, or, at a tree's root
node, by splitting the Frobenius gcd.  There, with h the reduction with
its exponents reduced mod p-1, g = gcd(h, x^p - x) with the factor x
removed is the product of x - z over the distinct roots z of h in F_p*;
its degree is their number, and Cantor-Zassenhaus splits it into its
linear factors with gcd((x + a)^((p-1)/2) - 1, .) for a = 0, 1, 2, ...,
in about deg(h)^2 log p dense steps.  A power (x + a)^e mod h
(_linear_power) makes h monic once and reduces by its nonzero lower terms
only, two at a trinomial's root node; it takes `% p` once per coefficient
per step rather than after every product, which is exact because Python
ints do not overflow.  The split is checked: f vanishes mod p at each
root, and there are deg g distinct ones.  A fixed cost rule,
about deg(h)^2 log2 p dense steps against p-1 points per term, keeps the
walk wherever it is cheaper: at the corpus's primes, p <= 13, for every
reduction that is not constant on F_p*, and at a root node whose
reduction has a degree near p.  A reduction whose terms cancel on F_p*
has no gcd to split and is walked.  The scan affects running time only,
never correctness.  A binomial x^d = t is not evaluated on all of F_p:
one power test decides it, and its roots, one coset of the gamma-th roots
of unity with gamma = gcd(d, p-1), come from a walk over (p-1)/gamma
coset representatives.

The F_p work of digit-tree nodes below the root is memoized: their scan
(roots_fp_memo) and the Frobenius gcd that cross-checks it, both keyed on
(reduction, p).  A reduction there has degree at most the s-value that made
its node, and a degenerate chain of N nodes meets the same few reductions
over and over.  The memoized scan walks all of F_p* and never splits the
Frobenius gcd, so the cross-check in the trinomial solver compares two
independent routes.  Root nodes are scanned afresh, and their gcd stays
out of the gcd_with_frobenius memo: a root's reduction is the input mod p,
so a memo there would only replay inputs already seen.  Both memos hold at
most FP_MEMO_SIZE entries each, least recently used first out, and both
functions are pure in (reduction, p), so a memo never changes a result;
the scan's memo hands out tuples, which no caller can mutate.
"""

from __future__ import annotations

import functools
import math

from .errors import ContentDivisible, InvariantViolated, PrimeTooLarge
from .sparsepoly import ScaledPoly, SparsePoly

DESK_PRIME_CAP = 100_000
FP_MEMO_SIZE = 256  # entries per memo: a degenerate benchmark cycle meets 95 keys
FROBENIUS_STEP_COST = 2  # walk steps one dense step of the Frobenius gcd costs, as measured


def check_prime_cap(p: int):
    if p > DESK_PRIME_CAP:
        raise PrimeTooLarge(f"p = {p} exceeds the exhaustive-scan cap {DESK_PRIME_CAP}")


def roots_fp_exhaustive(f: ScaledPoly, p: int, split: bool = True) -> list[tuple[int, bool]]:
    """All roots of f mod p with a degeneracy flag (f(z) = f'(z) = 0 mod p).

    F_p* is walked along the primitive root g: at the i-th point z = g^i
    each term c z^e is the previous one times g^e, one multiplication per
    term, and the exponents are reduced mod p-1.  The reduced terms may
    cancel even for f != 0 mod p; f then vanishes on all of F_p* (e.g.
    x^20 + 2x^2 mod 3).  f' is evaluated at the roots only.  A tree's root
    node scans the tree's input itself, which equals its reduction mod p.

    With split set (a tree's root node), a fixed cost rule may take the
    Frobenius gcd instead of the walk: nonzero_root_gcd gives g, the
    product of x - z over the roots z in F_p*, and linear_roots splits it.
    The split is checked: f must vanish mod p at every root it returns, and
    they must be deg g distinct points of F_p*, or InvariantViolated is
    raised.  FROBENIUS_STEP_COST prices one dense step of the gcd in walk
    steps.  Reductions whose terms cancel on F_p* have no gcd to split and
    are walked.  roots_fp_memo, the scan below the root, always walks: the
    solver cross-checks those scans against the Frobenius gcd, which would
    otherwise check itself.
    """
    check_prime_cap(p)
    acc: dict[int, int] = {}  # reduced exponent -> coefficient mod p
    f0 = d0 = 0  # f(0), f'(0) mod p: the parts x^0 and x^1 kept in acc, if any
    for a, c, s in f.parts:
        if c % p and not s:
            e = a % (p - 1)
            acc[e] = (acc.get(e, 0) + c) % p
            if a == 0:
                f0 = c
            elif a == 1:
                d0 = c
    if not acc:
        raise ContentDivisible("f is identically 0 mod p")
    roots = [] if f0 else [(0, not d0)]
    g = None
    if split:
        # the gcd takes about (deg h + 1)^2 log2 p dense steps, the walk p-1
        # points at one step per nonconstant term, at least two
        size = max(acc) + 1
        if FROBENIUS_STEP_COST * size * size * p.bit_length() < (p - 1) * max(
            2, len(acc) - (0 in acc)
        ):
            g = nonzero_root_gcd(acc, p)
    if g is None:
        zs = _walk(acc, p)
    else:
        zs, n = linear_roots(g, p), len(g) - 1
        if len(zs) != n or len(set(zs)) != n:
            raise InvariantViolated(
                f"split gave {len(zs)} roots mod {p}, {len(set(zs))} distinct; deg g is {n}"
            )
    for z in sorted(zs):
        fv, dv = f.eval_mod(z, p)
        if g is not None and (fv or z == 0):
            raise InvariantViolated(f"split root {z} mod {p} is no root of f in F_p*")
        roots.append((z, dv == 0))
    return roots


def _walk(acc: dict[int, int], p: int) -> list[int]:
    """The points of F_p* where the terms of acc sum to 0, walked along the
    primitive root."""
    t = -acc.get(0, 0) % p  # the nonconstant terms sum to t at a root
    g = generator_fp(p)
    ws = [c for e, c in acc.items() if c and e]
    ms = [pow(g, e, p) for e, c in acc.items() if c and e]
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
    return [pow(g, i, p) for i in found]


def nonzero_root_gcd(acc: dict[int, int], p: int) -> list[int] | None:
    """gcd(h, x^p - x) with the factor x removed, h = sum of c x^e over acc:
    the product of x - z over the distinct roots z of h in F_p*, dense and
    up to a unit.  None when the terms cancel: h = 0 on F_p*."""
    h = [0] * (max(acc) + 1)
    for e, c in acc.items():
        h[e] = c
    if not _poly_trim(h):
        return None
    g = frobenius_gcd(h, p)
    return g[1:] if g[0] == 0 else g


def linear_roots(g: list[int], p: int) -> list[int]:
    """The roots of g, a dense product of distinct linear factors over F_p
    (Cantor-Zassenhaus).

    A factor u of degree >= 2 is split by d = gcd((x + a)^((p-1)/2) - 1, u),
    which keeps the roots z with z + a a nonzero square, for the shifts
    a = 0, 1, 2, ... in turn.  A shift that does not split u does not split
    its factors either, so each factor draws on from the shift after the one
    that split its parent.  For z != w the sum of the Legendre symbols of
    (z + a)(w + a) over a in F_p is -1, so some a < p separates them, at
    every odd p; at p = 2 a factor has degree at most 1.  A nonlinear
    irreducible factor is never split: it raises InvariantViolated after p
    draws.  A repeated factor splits into copies, and its root comes out
    twice.
    """
    roots, todo = [], [(g, 0)]
    while todo:
        u, a = todo.pop()
        if len(u) == 2:
            roots.append(-u[0] * pow(u[1], -1, p) % p)
        if len(u) <= 2:
            continue
        while True:
            if a >= p:
                raise InvariantViolated(f"no shift below {p} splits a factor of degree {len(u) - 1}")
            w = _linear_power(a, (p - 1) // 2, u, p) or [0]
            w[0] = (w[0] - 1) % p  # (x + a)^((p-1)/2) - 1 mod u
            d = _poly_gcd(u, w, p)
            a += 1
            if 1 < len(d) < len(u):
                todo += [(d, a), (_poly_divmod(u, d, p)[0], a)]
                break
    return roots


@functools.lru_cache(maxsize=FP_MEMO_SIZE)
def roots_fp_memo(f: SparsePoly, p: int) -> tuple[tuple[int, bool], ...]:
    """roots_fp_exhaustive with split=False, memoized: it walks all of F_p*
    at the nodes below a tree's root."""
    return tuple(roots_fp_exhaustive(ScaledPoly.of(f, p), p, split=False))


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


def _poly_divmod(a: list[int], mod: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, trimmed remainder) of a by mod over F_p, at one inverse of
    mod's leading coefficient.  The coefficients of a above x^(deg mod - 1)
    are taken off from the top, each reduced mod p once as it is taken off;
    the remainder's are reduced once at the end."""
    n = len(mod) - 1
    inv = pow(mod[-1], -1, p)
    low = mod[:-1]
    r = a[:]
    q = [0] * max(0, len(r) - n)
    for k in range(len(r) - n - 1, -1, -1):
        t = r[k + n] * inv % p
        if t:
            q[k] = t
            for i, c in enumerate(low, k):
                r[i] -= t * c
    return q, _poly_trim([c % p for c in r[:n]])


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


@functools.lru_cache(maxsize=FP_MEMO_SIZE)
def gcd_with_frobenius(f: SparsePoly, p: int) -> int:
    """deg gcd(f, x^p - x): the number of distinct roots of f in F_p.

    f is made dense, so callers pass reductions of small degree.
    """
    h = [0] * (f.degree + 1)
    for a, c in f.terms:
        h[a] = c % p
    _poly_trim(h)
    if not h:
        raise ContentDivisible("f is identically 0 mod p")
    return len(frobenius_gcd(h, p)) - 1


def frobenius_gcd(h: list[int], p: int) -> list[int]:
    """gcd(h, x^p - x), dense and up to a unit, for a nonzero trimmed dense
    h over F_p; x^p is taken mod h, so only deg(h)-sized polynomials are
    touched."""
    if len(h) <= 2:
        return h
    frob = _linear_power(0, p, h, p) + [0, 0]
    frob[1] = (frob[1] - 1) % p
    return _poly_gcd(h, frob, p)


def _linear_power(a: int, e: int, h: list[int], p: int) -> list[int]:
    """(x + a)^e mod h over F_p, trimmed, by repeated squaring: one square
    per bit of e and one multiplication by x + a per set bit.

    h is made monic once, x^n = sum of r_i x^i mod h with n = deg h, and
    only its nonzero lower terms r_i are kept: two at a trinomial's root
    node.  A step squares with the symmetric product, n(n+1)/2 products,
    into plain ints, multiplies by x + a, and takes the coefficients above
    x^(n-1) off from the top by those terms.  Python ints do not overflow,
    so `% p` is taken once per coefficient per step: on each top
    coefficient as it is taken off, and on the n kept ones at the end.
    """
    n = len(h) - 1
    inv = pow(h[-1], -1, p)
    low = [(i - n, -c * inv % p) for i, c in enumerate(h[:-1]) if c % p]
    acc = [1]
    for bit in bin(e)[2:]:
        m = len(acc)
        sq = [0] * (2 * m - 1)
        for i in range(m):
            c = acc[i]
            if c:
                sq[i + i] += c * c
                c += c  # a cross term a_i a_j occurs twice
                for j in range(i + 1, m):
                    sq[i + j] += c * acc[j]
        if bit == "1":  # times x + a
            if a:
                sq.append(0)
                for k in range(2 * m - 1, 0, -1):
                    sq[k] = sq[k - 1] + a * sq[k]
                sq[0] *= a
            else:
                sq.insert(0, 0)
        for k in range(len(sq) - 1, n - 1, -1):
            t = sq[k] % p
            if t:
                for off, r in low:
                    sq[k + off] += t * r
        acc = _poly_trim([c % p for c in sq[:n]])
    return acc
