"""Reference computations the tests compare the solver against.

None of these is on the solver's path: each restates a quantity of the
paper (Yu's bound, the cofactor of q against (x-1)^2, the trinomial
discriminant in full, a node polynomial rebuilt from scratch, a node's
reduction in dense form, the p-part of the content, a polynomial's and a
rational's height, the roots mod p point by point, one Newton step, the
dense power (x + a)^e mod h and division over F_p by schoolbook) so a test
can check the package's own numbers against it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from padicroots.arith import ord_int
from padicroots.bounds import C256E2, HEIGHT_FLOOR
from padicroots.errors import ContentDivisible, DerivativeNotInvertible, InvariantViolated
from padicroots.newton import derivative_order
from padicroots.nodal_tree import NodalNode
from padicroots.sparsepoly import ScaledPoly, SparsePoly, taylor_coeffs_mod
from padicroots.trinomial import TrinomialInput


def yu_bound(alphas: list[Fraction], bs: list[int], p: int) -> float:
    """Strict upper bound on ord_p(alpha_1^b_1 * ... * alpha_n^b_n - 1).

    Valid whenever the product differs from 1; n >= 2, alphas nonzero
    reduced rationals, bs integers not all zero.
    """
    n = len(alphas)
    if n < 2 or len(bs) != n:
        raise ValueError("need n >= 2 rationals with matching exponent list")
    if any(a == 0 for a in alphas) or all(b == 0 for b in bs):
        raise ValueError("alphas must be nonzero and some b_i nonzero")
    B = max(3, max(abs(b) for b in bs))
    prod = 1.0
    for a in alphas:
        r, s = abs(a.numerator), a.denominator
        prod *= max(math.log(r) if r > 1 else 0.0, math.log(s) if s > 1 else 0.0, HEIGHT_FLOOR)
    return (
        math.log(2)
        * (math.log(2 * n) / math.log(p))
        * n ** 2.5
        * C256E2 ** (n + 1)
        * p
        * (math.log(B) / math.log(p))
        * prod
    )


@dataclass(frozen=True)
class AuxPolys:
    """q(x) = (a3-a2) - a3 x^a2 + a2 x^a3 and its cofactor against (x-1)^2."""

    q: list[int]  # dense, degree abar3
    Q: list[int]  # dense, degree abar3 - 2
    q_at_one_cofactor: int  # Q(1) = abar2*abar3*(abar3-abar2)/2


def aux_polys(abar2: int, abar3: int) -> AuxPolys:
    """Build Q with q = Q * (x-1)^2 verified by exact multiplication."""
    if not (1 <= abar2 < abar3) or math.gcd(abar2, abar3) != 1:
        raise ValueError("need 1 <= abar2 < abar3 coprime")
    diff = abar3 - abar2
    Q = [0] * (abar3 - 1)
    for j in range(1, abar2):  # (a3-a2) * sum j x^(j-1)
        Q[j - 1] += diff * j
    for j in range(abar2 - 1, abar3 - 1):  # a2 * sum (a3-1-j) x^j
        Q[j] += abar2 * (abar3 - 1 - j)
    q = [0] * (abar3 + 1)
    q[0] = diff
    q[abar2] = -abar3
    q[abar3] += abar2
    # exact check: Q(x) * (x^2 - 2x + 1) == q(x)
    conv = [0] * (len(Q) + 2)
    for i, c in enumerate(Q):
        conv[i] += c
        conv[i + 1] -= 2 * c
        conv[i + 2] += c
    if conv != q:
        raise InvariantViolated("cofactor identity q = Q*(x-1)^2 failed")
    q1 = abar2 * abar3 * diff
    if q1 % 2 or sum(Q) != q1 // 2:
        raise InvariantViolated(f"cofactor value Q(1) = {sum(Q)} is not {q1}/2")
    return AuxPolys(q=q, Q=Q, q_at_one_cofactor=q1 // 2)


def delta_tri(inp: TrinomialInput) -> int:
    """The trinomial discriminant
    abar3^abar3 c1^(abar3-abar2) c3^abar2 - abar2^abar2 (abar3-abar2)^(abar3-abar2) (-c2)^abar3,
    in full: the reference discriminant_tri is checked against."""
    r = math.gcd(inp.a2, inp.a3)
    ab2, ab3 = inp.a2 // r, inp.a3 // r
    return (
        ab3 ** ab3 * inp.c1 ** (ab3 - ab2) * inp.c3 ** ab2
        - ab2 ** ab2 * (ab3 - ab2) ** (ab3 - ab2) * (-inp.c2) ** ab3
    )


def reconstruct_node_poly(f: SparsePoly, p: int, k: int, node: NodalNode) -> SparsePoly:
    """Recompute p^(-s) f(mu + p^i x) mod p^k_local, k_local = k - s, from
    scratch; k is the cap of the node's tree."""
    i = node.depth
    if i == 0:
        return f
    m = p ** k
    u = taylor_coeffs_mod(ScaledPoly.of(f, p), node.mu, p, k, min(f.degree, k - 1))
    m_out = p ** (k - node.s_consumed)
    ps = p ** node.s_consumed
    coeffs = []
    for j, uj in enumerate(u):
        c = uj * pow(p, i * j, m) % m
        if c % ps:
            raise ContentDivisible("reconstruction: claimed s does not divide")
        coeffs.append(c // ps % m_out)
    return SparsePoly.from_terms(enumerate(coeffs))


def mod_p_coeffs(node: NodalNode) -> list[int]:
    """A node's reduction as dense coefficients, lowest degree first."""
    out = [0] * (node.reduction.degree + 1)
    for a, c in node.reduction.terms:
        out[a] = c
    return out


def content_p(f: SparsePoly, p: int) -> int:
    """min ord_p over coefficients (the p-part of the content)."""
    if not f.terms:
        return 0
    return min(ord_int(c, p) for _, c in f.terms)


def max_abs_coeff(f: SparsePoly) -> int:
    """H(f), the largest absolute value of a coefficient; 0 for f = 0."""
    return max(abs(c) for _, c in f.terms) if f.terms else 0


def log_height(q: Fraction) -> float:
    """Logarithmic height log max(|numerator|, denominator); 0 for q = 0."""
    if q == 0:
        return 0.0
    return math.log(max(abs(q.numerator), q.denominator))


def value_and_derivative(g: ScaledPoly, x: int, m: int) -> tuple[int, int]:
    """(g(x) mod m, g'(x) mod m) as two plain sums of `pow` terms over the
    parts (a, u, s) of g = sum u p^s x^a."""
    p = g.p
    fv = sum(u * pow(p, s, m) * pow(x, a, m) for a, u, s in g.parts) % m
    dv = sum(a * u * pow(p, s, m) * pow(x, a - 1, m) for a, u, s in g.parts if a) % m
    return fv, dv


def roots_fp_pointwise(f: SparsePoly, p: int) -> list[tuple[int, bool]]:
    """Roots of f mod p, each flagged by f'(z) = 0 mod p: f and f'
    evaluated with `pow` at every z in F_p, 0 included."""
    g = ScaledPoly.of(f, p)
    values = [(z, *value_and_derivative(g, z, p)) for z in range(p)]
    return [(z, dv == 0) for z, fv, dv in values if fv == 0]


def newton_step(f: ScaledPoly, p: int, z: int, prec: int) -> int:
    """One exact Newton step z - f(z)/f'(z) mod p^prec, the map whose rate
    the Smale tests measure.  ell = ord_p f'(z) comes from the package's
    probe, so deep derivatives (3^20 | d) are read; f and f' are summed
    here, and their shared p^ell is divided out before inverting."""
    ell = derivative_order(f, p, z, prec)[0]
    fv, dv = value_and_derivative(f, z, p ** (prec + ell))
    if fv == 0:
        return z % p ** prec
    if ord_int(fv, p) <= ell:
        raise DerivativeNotInvertible(f"non-contracting Newton step at {z}")
    m = p ** prec
    return (z - fv // p ** ell * pow(dv // p ** ell, -1, m)) % m


def poly_divmod_schoolbook(a: list[int], mod: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, trimmed remainder) of dense a by dense mod over F_p, one
    top coefficient at a time, with `% p` after every product."""
    a = a[:]
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    q = [0] * max(0, len(a) - dm)
    while len(a) > dm:
        factor = a.pop() * inv_lead % p
        if factor:
            shift = len(a) - dm
            q[shift] = factor
            for i, m in enumerate(mod[:-1], shift):
                a[i] = (a[i] - factor * m) % p
    while a and a[-1] % p == 0:
        a.pop()
    return q, [c % p for c in a]


def linear_power_schoolbook(a: int, e: int, h: list[int], p: int) -> list[int]:
    """(x + a)^e mod h over F_p, trimmed: left-to-right square and multiply,
    each product the full schoolbook one with `% p` after every term, and
    each reduction the full division by h."""
    acc = [1]
    for bit in bin(e)[2:]:
        sq = [0] * max(0, 2 * len(acc) - 1)
        for i, ai in enumerate(acc):
            for j, aj in enumerate(acc, i):
                sq[j] = (sq[j] + ai * aj) % p
        acc = poly_divmod_schoolbook(sq, h, p)[1]
        if bit == "1":
            shifted = [0] + acc
            for i, c in enumerate(acc):
                shifted[i] = (shifted[i] + a * c) % p
            acc = poly_divmod_schoolbook(shifted, h, p)[1]
    return acc
