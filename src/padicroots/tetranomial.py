"""The adversarial tetranomial family with colliding Z_p roots.

generate(p, h, d) returns the integer tetranomial
p^(2h) x^d - x^2 + 2 p^(h-1) x - p^(2h-2); for even d in [4, e^h] it has
two distinct roots in Z_p agreeing in at least (h-1)d/2 + h leading base-p
digits (p = 2 gives one more) while its coefficients stay at O(h) digits.
collision_order constructs both roots explicitly: substituting
x = p^((h-1)d/2 + h) y + p^(h-1) and rescaling turns the tetranomial into
G(y) = (1 + p^w y)^d - y^2 with w = (h-1)d/2 + 1, which is 1 - y^2 mod p^w.
newton.certified_residue lifts its roots from +-1 (odd p) or 3 and 5
(p = 2) on G truncated mod p^(k+8) to a few terms, exactly (_truncated_g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime, ord_int
from .errors import InvalidParams, InvariantViolated, PrecisionTooLow
from .newton import certified_residue
from .sparsepoly import MAX_EXPONENT, ScaledPoly, SparsePoly


@dataclass(frozen=True)
class TetraFamilyParams:
    p: int
    h: int
    d: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidParams(f"{self.p} is not prime")
        if self.h < 3:
            raise InvalidParams("need h >= 3")
        # math.exp overflows past h = 709; e^h passes 2^63 - 1 from h = 44 on
        if self.d % 2 or not 4 <= self.d <= min(int(math.exp(min(self.h, 50))), MAX_EXPONENT):
            raise InvalidParams("need d even with 4 <= d <= floor(e^h) and d < 2^63")

    @property
    def shift_exponent(self) -> int:
        """Digit depth of the collision scaling: (h-1)d/2 + h."""
        return (self.h - 1) * self.d // 2 + self.h


def generate(params: TetraFamilyParams) -> SparsePoly:
    """The integerized family member p^(2h) x^d - x^2 + 2 p^(h-1) x - p^(2h-2)."""
    p, h, d = params.p, params.h, params.d
    return SparsePoly.from_terms(
        [(d, p ** (2 * h)), (2, -1), (1, 2 * p ** (h - 1)), (0, -(p ** (2 * h - 2)))]
    )


def _truncated_g(params: TetraFamilyParams, K: int) -> SparsePoly:
    """G(y) = (1 + p^w y)^d - y^2 mod p^K, w = (h-1)d/2 + 1, as a SparsePoly.

    C(d, j) p^(jw) y^j vanishes mod p^K once jw >= K, so at most
    2 + ceil(K/w) terms remain.  A lift by certified_residue to k = K - 8
    digits is exact, not an approximation:
    - each probe reads G and G' mod p^(prec + 8) or p^(prec + ell), prec <= k;
    - ell = ord_p G'(y) = ord_p 2 <= 1 at a unit y, so no probe passes p^K;
    - so each value read equals the value of the untruncated G.
    collision_order still checks both roots on the untruncated tetranomial
    at p^(k + 8), and raises InvariantViolated on a wrong residue.
    """
    p, d = params.p, params.d
    w = (params.h - 1) * d // 2 + 1
    terms = [(j, math.comb(d, j) * p ** (j * w)) for j in range(min(d, (K - 1) // w) + 1)]
    return SparsePoly.from_terms(terms + [(2, -1)])


@dataclass(frozen=True)
class CollisionReport:
    precision: int
    root1: int  # residues of the two roots mod p^precision
    root2: int
    collision_order: int  # ord_p(root1 - root2), exact
    # ord_p of the tetranomial's derivative at the roots: (h-1)d/2 + h + ord_p(2),
    # which the product formula makes equal to collision_order
    derivative_valuation: int


def collision_order(params: TetraFamilyParams, precision: int | None = None) -> CollisionReport:
    """Construct the two colliding roots and measure their common prefix.

    Requires precision > shift_exponent (the roots agree to that depth);
    raises PrecisionTooLow otherwise or when the difference cannot be
    resolved at the working precision.
    """
    p = params.p
    k = params.shift_exponent + 8 if precision is None else precision
    if k < params.shift_exponent + 4:
        raise PrecisionTooLow(
            f"need precision >= {params.shift_exponent + 4} to separate the roots"
        )
    G = ScaledPoly.of(_truncated_g(params, k + 8), p)
    scale, m = p ** params.shift_exponent, p ** k
    z1, z2 = (
        (scale * certified_residue(G, p, y, k) + p ** (params.h - 1)) % m
        for y in ((3, 5) if p == 2 else (1, p - 1))
    )
    diff = (z1 - z2) % m
    if diff == 0:
        raise PrecisionTooLow("roots indistinguishable at this precision")
    order = ord_int(diff, p)

    F = ScaledPoly.of(generate(params), p)
    probe = p ** (k + 8)
    (fv1, dF1), (fv2, dF2) = F.eval_mod(z1, probe), F.eval_mod(z2, probe)
    if dF1 == 0 or dF2 == 0 or ord_int(dF1, p) != ord_int(dF2, p):
        raise PrecisionTooLow("derivative valuation not resolved; raise the precision")

    # sanity: both roots kill the tetranomial to nearly full working depth
    slack = ord_int(dF1, p)  # conditioning of the evaluation
    for fv in (fv1, fv2):
        if fv != 0 and ord_int(fv, p) < k - slack:
            raise InvariantViolated("constructed residue is not a root at working precision")

    return CollisionReport(
        precision=k,
        root1=z1,
        root2=z2,
        collision_order=order,
        derivative_valuation=slack,
    )
