"""Root finding and auxiliary algebra in F_p at desk scale.

Roots in F_p are found by a scan of F_p*, walked along a primitive root,
at one modular multiplication per term per point.  A tree's root node
first counts its distinct roots in F_p* with the Frobenius gcd,
deg gcd(h, x^p - x) less one when h(0) = 0, where h is the reduction with
its exponents reduced mod p-1.  The walk then skips F_p* when the count is
0 and otherwise stops at its last root.  A fixed cost rule, about
deg(h)^2 log2 p dense steps against p-1 points per term, keeps the plain
walk wherever it is cheaper: at the corpus's primes, p <= 13, for every
reduction that is not constant on F_p*.  Splitting the gcd itself
(Cantor-Zassenhaus), sub-linear in p, would avoid the walk altogether; it
waits until the benchmark bounds the oracle check of its large-p
workload's first round, which grows with solver speed.  The scan affects
running time only, never correctness.  A binomial x^d = t is not
evaluated on all of F_p: one power test decides it, and its roots, one
coset of the gamma-th roots of unity with gamma = gcd(d, p-1), come from a
walk over (p-1)/gamma coset representatives.

The F_p work of digit-tree nodes below the root is memoized: their scan
(roots_fp_memo) and the Frobenius gcd that cross-checks it, both keyed on
(reduction, p).  A reduction there has degree at most the s-value that made
its node, and a degenerate chain of N nodes meets the same few reductions
over and over.  The memoized scan walks all of F_p* and never asks the
Frobenius count, so the cross-check in the trinomial solver compares two
independent routes.  Root nodes are scanned afresh, and their count stays
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
from .sparsepoly import SparsePoly

DESK_PRIME_CAP = 100_000
FP_MEMO_SIZE = 256  # entries per memo: a degenerate benchmark cycle meets 95 keys
FROBENIUS_STEP_COST = 4  # walk steps one dense step of frobenius_degree costs (measured 2-6)


def check_prime_cap(p: int):
    if p > DESK_PRIME_CAP:
        raise PrimeTooLarge(f"p = {p} exceeds the exhaustive-scan cap {DESK_PRIME_CAP}")


def roots_fp_exhaustive(f: SparsePoly, p: int, count: bool = True) -> list[tuple[int, bool]]:
    """All roots of f mod p with a degeneracy flag (f(z) = f'(z) = 0 mod p).

    F_p* is walked along the primitive root g: at the i-th point z = g^i
    each term c z^e is the previous one times g^e, one multiplication per
    term, and the exponents are reduced mod p-1.  The reduced terms may
    cancel even for f != 0 mod p; f then vanishes on all of F_p* (e.g.
    x^20 + 2x^2 mod 3).  f' is evaluated at the roots only.

    With count set (a tree's root node), the walk first asks
    nonzero_root_count how many roots it will find, skips F_p* when there
    are none, and stops at the last one; a walk that ends short of the
    count raises InvariantViolated.  The count is taken only where a fixed
    cost rule finds it cheaper than the walk; FROBENIUS_STEP_COST prices
    one dense step of the gcd in walk steps.  roots_fp_memo, the scan
    below the root, walks in full: the solver cross-checks those scans
    against the Frobenius gcd, which would otherwise check itself.
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
    n = None
    if count:
        # the gcd takes about (deg h + 1)^2 log2 p dense steps, the walk p-1
        # points at one step per nonconstant term, at least two
        size = max(acc) + 1
        if FROBENIUS_STEP_COST * size * size * p.bit_length() < (p - 1) * max(
            2, len(acc) - (0 in acc)
        ):
            n = nonzero_root_count(acc, p)
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
    steps = 0 if n == 0 else p - 1
    if len(ws) == 2:
        (w1, w2), (m1, m2), tp = ws, ms, t + p
        for i in range(steps):
            s = w1 + w2
            if s == t or s == tp:
                found.append(i)
                if len(found) == n:
                    break
            w1 = w1 * m1 % p
            w2 = w2 * m2 % p
    else:
        for i in range(steps):
            if sum(ws) % p == t:
                found.append(i)
                if len(found) == n:
                    break
            ws = [w * m % p for w, m in zip(ws, ms)]
    if n is not None and len(found) != n:
        raise InvariantViolated(f"F_p* walk found {len(found)} roots mod {p}, the count is {n}")
    for z in sorted(pow(g, i, p) for i in found):
        roots.append((z, f.eval_mod(z, p)[1] == 0))
    return roots


def nonzero_root_count(acc: dict[int, int], p: int) -> int:
    """Distinct roots in F_p* of h = sum of c x^e over acc, by the Frobenius
    gcd, which counts the root 0 as well when h(0) = 0."""
    h = [0] * (max(acc) + 1)
    for e, c in acc.items():
        h[e] = c
    if not _poly_trim(h):
        return p - 1  # the terms cancel: h = 0 on F_p*
    return frobenius_degree(h, p) - (h[0] == 0)


@functools.lru_cache(maxsize=FP_MEMO_SIZE)
def roots_fp_memo(f: SparsePoly, p: int) -> tuple[tuple[int, bool], ...]:
    """roots_fp_exhaustive, memoized and walking all of F_p*, for the nodes
    below a tree's root."""
    return tuple(roots_fp_exhaustive(f, p, count=False))


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
    return frobenius_degree(h, p)


def frobenius_degree(h: list[int], p: int) -> int:
    """deg gcd(h, x^p - x) for a nonzero trimmed dense h over F_p.

    x^p mod h is computed by repeated squaring, one square per bit of p and
    a shift by x per set bit, so only deg(h)-sized polynomials are touched.
    """
    if len(h) <= 2:
        return len(h) - 1
    acc = [0, 1]  # x^(leading bit of p)
    for bit in bin(p)[3:]:
        acc = _poly_mulmod(acc, acc, h, p)
        if bit == "1":
            acc = _poly_rem([0] + acc, h, p)
    frob = acc + [0] * (2 - len(acc))
    frob[1] = (frob[1] - 1) % p
    g = _poly_gcd(h, _poly_trim(frob), p)
    return len(g) - 1
