"""p-adic and Archimedean Newton polygons of sparse polynomials.

The lower hull of {(a_i, ord_p c_i)} encodes root valuations: an edge of
geometric slope sigma carries exactly (horizontal length) roots in C_p of
valuation v = -sigma.  The Archimedean polygon uses y = -log|c_i| and each
edge is annotated with whether its slope is log(3)-isolated from the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import is_prime, ord_int
from .errors import InvalidParams
from .sparsepoly import SparsePoly

# Tolerance for float hull construction; near-ties are re-checked exactly
# when feasible and flagged otherwise.
ARCH_EPS = 1e-12

LOG3 = math.log(3.0)


@dataclass(frozen=True)
class LowerEdge:
    """One edge of a lower hull, left to right."""

    slope: Fraction | float
    horizontal_length: int
    log3_isolated: bool | None = None  # Archimedean only
    collinearity_uncertain: bool = False  # Archimedean only

    @property
    def root_valuation(self) -> Fraction | float:
        """Valuation of the roots this edge carries (v = -slope)."""
        return -self.slope


def _lower_hull(points, drop):
    """Monotone-chain lower hull of points sorted by distinct x; drop(a, b, c)
    says whether the middle point b leaves the hull."""
    hull = []
    for pt in points:
        while len(hull) >= 2 and drop(hull[-2], hull[-1], pt):
            hull.pop()
        hull.append(pt)
    return hull


def _on_or_above_chord(a, b, c) -> bool:
    """b is on or above the chord ac; exact on integer points."""
    return (b[1] - a[1]) * (c[0] - a[0]) >= (c[1] - a[1]) * (b[0] - a[0])


def _padic_hull(f: SparsePoly, p: int) -> list[tuple[int, int]]:
    """Vertices of the lower hull of the integer points (a_i, ord_p c_i)."""
    if f.is_zero:
        raise ValueError("Newton polygon of the zero polynomial")
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    return _lower_hull([(a, ord_int(c, p)) for a, c in f.terms], _on_or_above_chord)


def build_padic(f: SparsePoly, p: int) -> list[LowerEdge]:
    """Lower edges of Newt_p(f), collinear points merged, slopes exact."""
    hull = _padic_hull(f, p)
    return [
        LowerEdge(slope=Fraction(y2 - y1, x2 - x1), horizontal_length=x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]


def _chord_side_exact(f: SparsePoly, i: int, j: int, k: int) -> int | None:
    """Exact position of arch point j relative to the chord (i, k): -1 below,
    0 on, +1 above; None when the exact power comparison is infeasible.

    With y = -log|c|, point j is below the chord iff
    |c_j|^(a_k-a_i) > |c_i|^(a_k-a_j) * |c_k|^(a_j-a_i), decided in exact
    integer arithmetic when the powers stay desk-sized (|c| < 2^63 and
    products under ~10^6 bits).
    """
    (ai, ci), (aj, cj), (ak, ck) = f.terms[i], f.terms[j], f.terms[k]
    if max(abs(ci), abs(cj), abs(ck)) >= 2 ** 63:
        return None
    e1, e2 = aj - ai, ak - ai
    if 64 * (e1 + e2) > 1_000_000:
        return None
    lhs = abs(cj) ** e2
    rhs = abs(ci) ** (e2 - e1) * abs(ck) ** e1
    if lhs > rhs:
        return -1
    return 0 if lhs == rhs else 1


def build_arch(f: SparsePoly) -> list[LowerEdge]:
    """Lower edges of Newt_infinity(f) with log(3)-isolation annotations."""
    if f.is_zero:
        raise ValueError("Newton polygon of the zero polynomial")
    index_of = {a: i for i, (a, _) in enumerate(f.terms)}
    uncertain_after: set[int] = set()

    def drop(a, b, c):
        (x1, y1), (x2, y2), (x3, y3) = a, b, c
        cross = (y2 - y1) * (x3 - x1) - (y3 - y1) * (x2 - x1)
        scale = max(1.0, abs(y1), abs(y2), abs(y3)) * (x3 - x1)
        if cross > ARCH_EPS * scale:
            return True
        if cross < -ARCH_EPS * scale:
            return False
        # numerically ambiguous: decide exactly when we can
        side = _chord_side_exact(f, index_of[x1], index_of[x2], index_of[x3])
        if side is None:
            uncertain_after.add(x1)
            return True
        return side >= 0

    hull = _lower_hull([(a, -math.log(abs(c))) for a, c in f.terms], drop)
    edges = [
        LowerEdge(
            slope=(y2 - y1) / (x2 - x1),
            horizontal_length=x2 - x1,
            collinearity_uncertain=x1 in uncertain_after,
        )
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]
    return [
        replace(e, log3_isolated=all(
            abs(e.slope - other.slope) >= LOG3 for j, other in enumerate(edges) if j != i
        ))
        for i, e in enumerate(edges)
    ]


def integral_valuation_candidates(f: SparsePoly, p: int) -> list[tuple[int, int]]:
    """(valuation, multiplicity) for every lower edge of integral slope.

    These are the only valuations a root in Q_p can have.
    """
    hull = _padic_hull(f, p)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        v, rem = divmod(y1 - y2, x2 - x1)
        if not rem:
            out.append((v, x2 - x1))
    return out
