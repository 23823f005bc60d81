"""Brute-force ground truth for the roots of a polynomial in Q_p.

Deliberately slow and simple.  Unit roots are sought mod p^k layer by
layer (a root mod p^(j+1) reduces to a root mod p^j).  Level 1 walks
F_p* along a primitive root, one multiplication per term per point, with
the terms reduced mod p and their exponents mod p-1 once.  Each later
level lifts a class r mod p^(k-1) by one linear congruence:
g(r + t p^(k-1)) = g(r) + t p^(k-1) g'(r) mod p^k, since 2(k-1) >= k, so
one digit t survives when p does not divide g'(r), and otherwise all p
digits or none.  Residue classes are certified alive via Hensel's
criterion or pronounced dead when they stop extending or one Taylor term
fixes ord_p f on them, and roots in Q_p are counted by sweeping the
integral candidate valuations.  Shares nothing with the solver pipeline
beyond basic p-adic arithmetic and the polynomial container.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_prime, ord_int, xgcd
from .errors import BudgetExceeded, CriterionFailed, InvalidParams, InvariantViolated
from .sparsepoly import ScaledPoly, SparsePoly

DEFAULT_BUDGET = 10 ** 8
MAX_POWER_BITS = 2 ** 23  # largest power, in bits, that the oracle builds
POWER_TEST_PRIME = 2 ** 61 - 1  # x^m != y^n mod this prime proves x^m != y^n
HARD_K_CAP = 64


def lift_root(f: ScaledPoly, p: int, residue: int, target_k: int) -> int:
    """Hensel lift of a residue satisfying the criterion, to mod p^target_k.

    Each step checks Hensel's postconditions: the residual valuation at
    least doubles (minus ell) and the derivative valuation stays fixed.
    """
    # establish ell = ord_p f'(residue) at a safe working precision
    fv, dv = f.eval_mod(residue, p ** (target_k + 8))
    if dv == 0:
        raise CriterionFailed("derivative vanishes at working precision")
    ell = ord_int(dv, p)
    j0 = (ord_int(fv, p) if fv else target_k + 8) - 2 * ell
    if j0 < 1:
        raise CriterionFailed(
            f"ord f = {ord_int(fv, p) if fv else 'inf'} < 2*{ell} + 1 at the given residue"
        )
    z, m = residue, p ** (target_k + 2 * ell + 2)
    while True:
        fz, dz = f.eval_mod(z, m)
        if fz == 0 or ord_int(fz, p) - 2 * ell >= target_k:
            break
        if ord_int(dz, p) != ell:
            raise CriterionFailed("derivative valuation drifted during lifting")
        z = (z - fz // p ** ell * pow(dz // p ** ell, -1, m)) % m
    return z % p ** target_k


@dataclass
class OracleRootSet:
    """Certified picture of the Q_p roots of one polynomial."""

    p: int
    qp_count: int
    zero_root: bool
    unit_roots_by_valuation: dict[int, list[int]] = field(default_factory=dict)
    # (valuation v, residue of the unit part mod p^K, K); degenerate roots
    # carry the encoding binomial instead of f for later lifting
    lifted: list[dict] = field(default_factory=list)
    degenerate_count: int = 0


def _taylor_coeff(g: ScaledPoly, x: int, j: int, m: int) -> int:
    """g^(j)(x)/j! mod m, part by part (oracle-local)."""
    return sum(
        u * pow(g.p, s, m) * math.comb(a, j) * pow(x, a - j, m) for a, u, s in g.parts if a >= j
    ) % m


@functools.cache
def _primitive_root(p: int) -> int:
    """Smallest generator of F_p*, checked against the prime factors of p-1,
    which trial division finds (oracle-local)."""
    n, qs, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            qs.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        qs.append(n)
    return next(x for x in range(1, p) if all(pow(x, (p - 1) // q, p) != 1 for q in qs))


def _level_one(g: SparsePoly, p: int) -> list[int]:
    """The roots of g in F_p*, sorted.  F_p* is walked along a primitive
    root x: each term c z^a, a reduced mod p-1, goes from z = x^i to x^(i+1)
    by one multiplication by x^a."""
    # the nonconstant terms sum to target at a root, and zero terms pad
    # them to two for the unrolled walk
    target, ws, ms = 0, [], []
    x = _primitive_root(p)
    for a, c in g.terms:
        if a % (p - 1):
            ws.append(c % p)
            ms.append(pow(x, a, p))
        else:
            target = (target - c) % p
    ws += [0] * (2 - len(ws))
    ms += [1] * (2 - len(ms))
    found = []
    if len(ws) == 2:
        (w1, w2), (m1, m2), tp = ws, ms, target + p
        for i in range(p - 1):
            s = w1 + w2
            if s == target or s == tp:
                found.append(i)
            w1, w2 = w1 * m1 % p, w2 * m2 % p
    else:
        for i in range(p - 1):
            if sum(ws) % p == target:
                found.append(i)
            ws = [w * m % p for w, m in zip(ws, ms)]
    return sorted(pow(x, i, p) for i in found)


def _certify_count(
    g: ScaledPoly, p: int, skip_prefixes: list[tuple[int, int]], budget: int
) -> tuple[int, list[tuple[int, int]]]:
    """Count Z_p roots of valuation 0 of g by certify-or-die sweeping.

    skip_prefixes are (residue, k) classes known to hold degenerate roots;
    they are removed from the frontier (never certifiable by Hensel).  A
    class x + p^k Z_p with ord_p g(x) < ord_p u_j + jk for all j >= 1, u_j
    the Taylor coefficients of g at x, holds no root (ord_p g is constant
    on it) and is dropped: close simple roots keep the frontier small.
    Returns (count, certified (residue, k) list).
    """
    certified: list[tuple[int, int]] = []
    frontier = _level_one(g.reduction(), p)
    work = p - 1
    k = 1
    while frontier:
        k += 1
        if k > HARD_K_CAP:
            raise BudgetExceeded(f"certification frontier alive past k = {HARD_K_CAP}")
        m = p ** k
        step = p ** (k - 1)
        nxt = []
        work += len(frontier) * p
        if work > budget:
            raise BudgetExceeded("certification work exceeded budget")
        for r in frontier:
            # g(r + t p^(k-1)) = g(r) + t p^(k-1) g'(r) mod p^k, as 2(k-1) >= k,
            # and p^(k-1) divides g(r): one t survives, or all of them, or none
            gv, dv = g.eval_mod(r, m)
            q, d = gv // step, dv % p
            if d:
                ts = [-q * pow(d, -1, p) % p]
            else:
                ts = range(p) if q == 0 else []
            for t in ts:
                x = r + t * step
                if any(x % p ** min(k, kk) == rr % p ** min(k, kk) for rr, kk in skip_prefixes):
                    continue
                fv, dv = g.eval_mod(x, p ** (2 * k + 2))
                ell = ord_int(dv, p) if dv else None
                ordf = ord_int(fv, p) if fv else 2 * k + 2
                # k >= ell + 1 makes the whole class sit inside the Hensel
                # uniqueness ball, so it holds exactly one Z_p root
                if ell is not None and ordf >= 2 * ell + 1 and k >= ell + 1:
                    certified.append((x, k))
                elif fv == 0 or any(  # j with jk > ordf cannot cancel g(x)
                    ordf >= ord_int(_taylor_coeff(g, x, j, p ** (2 * k + 2)), p) + j * k
                    for j in range(1, ordf // k + 1)
                ):
                    nxt.append(x)
        # distinct certified classes at the same level are distinct roots;
        # drop any class refining an already-certified one
        nxt = [
            x
            for x in nxt
            if not any(x % p ** min(k, kk) == rr % p ** min(k, kk) for rr, kk in certified)
        ]
        frontier = nxt
    return len(certified), certified


def _rescale(f: SparsePoly, p: int, v: int) -> ScaledPoly:
    """Content-free integerization of f(p^v x) (oracle-local copy).

    Built from the coefficients' orders: c_a = u_a p^(o_a) with p not
    dividing u_a gives the term u_a p^(o_a + v a - m) x^a, m the least of
    the o_a + v a, for either sign of v, held as the parts (a, u_a,
    o_a + v a - m): no power of p is built and nothing is refused.
    """
    terms = [(a, c, ord_int(c, p)) for a, c in f.terms]
    m = min(o + v * a for a, _, o in terms)
    return ScaledPoly(p, tuple((a, c // p ** o, o + v * a - m) for a, c, o in terms))


def _integral_valuations(f: SparsePoly, p: int) -> list[int]:
    """Integral v with min_k(o_k + v a_k), o_k = ord_p c_k, attained twice, largest
    first: the only valuations of roots in Q_p (the oracle's own sweep)."""
    pts = [(a, ord_int(c, p)) for a, c in f.terms]
    found = set()
    for i, (ai, oi) in enumerate(pts):
        for aj, oj in pts[i + 1:]:
            v, rem = divmod(oi - oj, aj - ai)
            if rem == 0 and oi + v * ai == min(o + v * a for a, o in pts):
                found.add(v)
    return sorted(found, reverse=True)


def _powers_equal(x: int, m: int, y: int, n: int) -> bool:
    """x^m == y^n for x, y, m, n >= 1.

    x >= 2 gives x^m a bit length in [m(bl(x) - 1) + 1, m bl(x)], so
    disjoint ranges decide without a power, and so do residues that differ
    mod the prime 2^61 - 1; only powers that agree on both and exceed
    MAX_POWER_BITS raise BudgetExceeded instead of being built.
    """
    if x == 1 or y == 1:
        return x == y
    if m * x.bit_length() < n * (y.bit_length() - 1) + 1 or (
        n * y.bit_length() < m * (x.bit_length() - 1) + 1
    ):
        return False
    if pow(x, m, POWER_TEST_PRIME) != pow(y, n, POWER_TEST_PRIME):
        return False
    if m * x.bit_length() > MAX_POWER_BITS:
        raise BudgetExceeded(f"degeneracy check needs a power of {m * x.bit_length()} bits")
    return x ** m == y ** n


def _degenerate_binomial(f: SparsePoly) -> tuple[int, Fraction] | None:
    """(r, T) with the degenerate roots of f exactly the roots of x^r = T.

    Only for trinomials with nonzero constant term; None when f has no
    degenerate root in C_p (consistency of the two power relations fails).
    """
    if f.term_count != 3 or f.terms[0][0] != 0:
        return None
    (_, c1), (a2, c2), (a3, c3) = f.terms
    r = math.gcd(a2, a3)
    ab2, ab3 = a2 // r, a3 // r
    A = Fraction(-c1 * a3, (a3 - a2) * c2)  # tau^a2
    B = Fraction(c1 * a2, (a3 - a2) * c3)  # tau^a3
    if A == 0 or B == 0:
        return None
    # A^ab3 == B^ab2, sign, numerator and denominator apart
    if not (
        (A > 0 or ab3 % 2 == 0) == (B > 0 or ab2 % 2 == 0)
        and _powers_equal(abs(A.numerator), ab3, abs(B.numerator), ab2)
        and _powers_equal(A.denominator, ab3, B.denominator, ab2)
    ):
        return None
    g, alpha, beta = xgcd(a2, a3)
    if g != r:  # xgcd lives in arith, outside the oracle; check it independently
        raise InvariantViolated(f"xgcd({a2}, {a3}) gave {g}, gcd is {r}")
    T = A ** alpha * B ** beta
    return r, T


def count_qp_roots(f: SparsePoly, p: int) -> OracleRootSet:
    """Count the roots of f in Q_p: valuation sweep + Hensel certification,
    plus the exact-rational sidecar for degenerate trinomial roots."""
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if f.is_zero:
        raise ValueError("zero polynomial")
    body, a1 = f, 0
    if f.terms[0][0] > 0:
        a1 = f.terms[0][0]
        body = SparsePoly(tuple((a - a1, c) for a, c in f.terms))
    result = OracleRootSet(p=p, qp_count=int(a1 > 0), zero_root=a1 > 0)
    if body.term_count == 1:
        return result

    # degenerate sidecar (trinomials only; other supported inputs have no
    # nonzero degenerate roots or are handled by the hard cap)
    degen_prefixes_by_val: dict[int, list[tuple[int, int]]] = {}
    enc = _degenerate_binomial(body)
    if enc is not None:
        r, T = enc
        gb = SparsePoly.from_terms([(0, -T.numerator), (r, T.denominator)])
        sub = count_qp_roots(gb, p)
        result.degenerate_count = sub.qp_count
        result.qp_count += sub.qp_count
        for entry in sub.lifted:
            v, res, kk = entry["valuation"], entry["residue"], entry["k"]
            # deep-lift so skip prefixes never swallow a nearby simple root
            res = lift_root(entry["encoding"], p, res, HARD_K_CAP)
            degen_prefixes_by_val.setdefault(v, []).append((res, HARD_K_CAP))
            result.lifted.append(
                {
                    "valuation": v,
                    "residue": res,
                    "k": HARD_K_CAP,
                    "degenerate": True,
                    "encoding": entry["encoding"],
                }
            )

    for v in _integral_valuations(body, p):
        g = _rescale(body, p, v)
        skip = degen_prefixes_by_val.get(v, [])
        n, certified = _certify_count(g, p, skip, DEFAULT_BUDGET)
        result.qp_count += n
        result.unit_roots_by_valuation[v] = [r for r, _ in certified]
        for res, kk in certified:
            result.lifted.append(
                {
                    "valuation": v,
                    "residue": res,
                    "k": kk,
                    "degenerate": False,
                    "encoding": g,
                }
            )
    return result
