"""Stand-alone calculators for the quantitative bounds used by the solver.

Every O-constant is rendered with the explicit value extracted from the
underlying proof, so the numbers are auditable; outputs are doubles (the
solver's correctness never leans on their tightness, only on them being
conservative, which the oracle suite validates empirically).
"""

from __future__ import annotations

import math

# 256 e^2, the base constant of the linear-forms-in-p-adic-logs estimate
C256E2 = 256 * math.e ** 2
# floor for the height factors: 1/(16 e^2)
HEIGHT_FLOOR = 1 / (16 * math.e ** 2)
# log(2) * log(4) * 2^(5/2) * (256 e^2)^3 < 36791093348: the two-term
# specialization of the valuation bound, with the log p factors absorbed
TWO_TERM_VALUATION_CONSTANT = math.log(2) * math.log(4) * 2 ** 2.5 * C256E2 ** 3


def two_term_valuation_bound(d: int, log_H: float, p: int) -> float:
    """Upper bound on ord_p(T^(a3-a2) - 1) for the trinomial critical value.

    The n = 2 specialization with |r_i|, |s_i| <= dH and B = max(d, 3):
    36791093348 * p * log(max(d,3)) * max(log_p(dH), 1/(16 e^2 log p))^2.
    """
    lp = math.log(p)
    height = max((math.log(d) + log_H) / lp, HEIGHT_FLOOR / lp)
    return TWO_TERM_VALUATION_CONSTANT * p * math.log(max(d, 3)) * height ** 2


def mahler_bound(d: int, H: int) -> float:
    """log of the classical minimum root-separation bound over C:
    (1/2) log 3 - (d + 1/2) log(d+1) - (d-1) log H."""
    if d < 2 or H < 1:
        raise ValueError("need d >= 2 and H >= 1")
    return 0.5 * math.log(3) - (d + 0.5) * math.log(d + 1) - (d - 1) * math.log(H)


def trinomial_separation_bound(
    d: int,
    log_H: float,
    p: int,
    degenerate: bool,
    a2: int | None = None,
    r: int = 1,
) -> float:
    """Lower bound on log|z1 - z2|_p over distinct roots z1, z2 in C_p.

    Square-free trinomials: -(log H + M log p + log(p)/(p-1)) with M the
    two-term valuation bound.  With a degenerate root present the bound
    sharpens to the minimum of three explicit desk-checkable pieces:
    the degenerate-vs-simple valuation cap log_p((d-r) d^3 H / (8 r^4)),
    the rational-cofactor chain (heights of c1/((a3-a2) tau^2) and the
    cofactor value at the degenerate point), and the binomial spacing of
    the degenerate roots themselves.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    lp = math.log(p)
    rolle = lp / (p - 1)
    if not degenerate:
        M = two_term_valuation_bound(d, log_H, p)
        return -(log_H + M * lp + rolle)
    ab3 = max(d // r, 2)
    ab2 = (a2 // r) if a2 else max(ab3 - 1, 1)
    jterm = max(1, ab2 ** 2 * ab3 ** 3 * (ab3 - ab2) ** 2)
    # simple-simple pairs: prefactor height + scaling valuation + cofactor
    b_pair = -(log_H + 2 * (math.log(d) + log_H) + math.log(jterm) + rolle)
    # degenerate-simple pairs
    b_degsimple = -degenerate_valuation_gap_cap(d, log_H, r)
    # degenerate-degenerate pairs: spacing of roots of x^r = tau^r, whose
    # encoding has logarithmic height <= d (log d + 2 log H)
    b_degdeg = -(rolle + (d / r) * (math.log(d) + 2 * max(log_H, math.log(2))))
    return min(b_pair, b_degsimple, b_degdeg)


def degenerate_valuation_gap_cap(d: int, log_H: float, r: int) -> float:
    """Cap on |ord_p(z - tau)| between a simple root z and a degenerate
    root tau: log_p((d-r) d^3 H / (8 r^4)) in natural-log form (divide by
    log p for the ord cap at a given prime)."""
    # a sum of logs: the product overflows a float once H passes 10^300
    return max(math.log(d - r) + 3 * math.log(d) + log_H - math.log(8 * r ** 4), 0.0)
