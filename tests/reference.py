"""Reference computations the tests compare the solver against.

None of these is on the solver's path: each restates a quantity of the
paper (Yu's bound, the cofactor of q against (x-1)^2, the trinomial
discriminant in full, a node polynomial rebuilt from scratch, the p-part
of the content, a rational's height, the roots mod p point by point) so a
test can check the package's own numbers against it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from padicroots.arith import ord_int
from padicroots.bounds import C256E2, HEIGHT_FLOOR
from padicroots.errors import ContentDivisible, InvariantViolated
from padicroots.nodal_tree import NodalNode
from padicroots.sparsepoly import SparsePoly, taylor_coeffs_mod
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


def reconstruct_node_poly(f: SparsePoly, p: int, node: NodalNode) -> SparsePoly:
    """Recompute p^(-s) f(mu + p^i x) mod p^k_local from scratch."""
    i = node.depth
    if i == 0:
        return f
    k = node.k_local + node.s_consumed
    m = p ** k
    u = taylor_coeffs_mod(f, node.mu, p, k, min(f.degree, k - 1))
    m_out = p ** node.k_local
    ps = p ** node.s_consumed
    coeffs = []
    for j, uj in enumerate(u):
        c = uj * pow(p, i * j, m) % m
        if c % ps:
            raise ContentDivisible("reconstruction: claimed s does not divide")
        coeffs.append(c // ps % m_out)
    return SparsePoly.from_dense(coeffs)


def content_p(f: SparsePoly, p: int) -> int:
    """min ord_p over coefficients (the p-part of the content)."""
    if not f.terms:
        return 0
    return min(ord_int(c, p) for _, c in f.terms)


def log_height(q: Fraction) -> float:
    """Logarithmic height log max(|numerator|, denominator); 0 for q = 0."""
    if q == 0:
        return 0.0
    return math.log(max(abs(q.numerator), q.denominator))


def roots_fp_pointwise(f: SparsePoly, p: int) -> list[tuple[int, bool]]:
    """Roots of f mod p, each flagged by f'(z) = 0 mod p: f and f'
    evaluated with `pow` at every z in F_p, 0 included."""
    return [(z, f.deriv_mod(z, p) == 0) for z in range(p) if f.eval_mod(z, p) == 0]
