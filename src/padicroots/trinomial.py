"""Counting and approximating all Q_p roots of integer trinomials.

Pipeline: candidate valuations from the Newton polygon; degenerate roots
through an exact binomial encoding x^r = T; non-degenerate roots per
valuation through one uncapped digit tree, whose digit chains toward
degenerate roots are cut at depth N (cut_depth), so that it is mature.
Every emitted root carries a Newton certificate; totals match the number
of distinct roots of f in Q_p.  A count-only solve (certify=False) gives
the same totals from the binomial power test and the trees' simple mod-p
roots, and certifies nothing.

Degeneracy is decided exactly at every degree.  A repeated root tau != 0
has tau^a2 = A and tau^a3 = B, two rationals fixed by the coefficients, so
with r = gcd(a2, a3) the trinomial discriminant vanishes exactly when one
rational T = tau^r has T^(a2/r) = A and T^(a3/r) = B (discriminant_tri);
that T gives the encoding x^r = T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .arith import is_prime, ord_int, ord_rat
from .binomial import (
    REASON_NO_INTEGRAL_VALUATION, BinomialInput, BinomialSolveResult, solve_binomial,
)
from .bounds import trinomial_separation_bound
from .errors import InvalidParams, InvariantViolated
from .fp import gcd_with_frobenius
from .newton import ApproximateRoot, certified_residue
from .newton_polygon import integral_valuation_candidates
from .nodal_tree import RepeatedRootCut, nodal_degree_cap, stabilized_tree
from .sparsepoly import ScaledPoly, SparsePoly, rescale_for_valuation, strip_zero_root

MODE_FULL = "full"
MODE_RESTRICTED = "restricted-root"
MODES = (MODE_FULL, MODE_RESTRICTED)


@dataclass(frozen=True)
class TrinomialInput:
    c1: int
    c2: int
    c3: int
    a2: int
    a3: int
    p: int

    def __post_init__(self):
        if 0 in (self.c1, self.c2, self.c3):
            raise InvalidParams("coefficients must be nonzero")
        if not 1 <= self.a2 < self.a3:
            raise InvalidParams("need 1 <= a2 < a3")
        if not is_prime(self.p):
            raise InvalidParams(f"{self.p} is not prime")

    @classmethod
    def from_poly(cls, f: SparsePoly, p: int) -> tuple["TrinomialInput", int]:
        """Normalize a 3-term polynomial: strip x^a1, return (input, a1)."""
        if f.term_count != 3:
            raise InvalidParams("not a trinomial")
        body, a1 = strip_zero_root(f)
        (_, c1), (a2, c2), (a3, c3) = body.terms
        return cls(c1=c1, c2=c2, c3=c3, a2=a2, a3=a3, p=p), a1

    @property
    def poly(self) -> SparsePoly:
        return SparsePoly(((0, self.c1), (self.a2, self.c2), (self.a3, self.c3)))

    @property
    def d(self) -> int:
        return self.a3


@dataclass(frozen=True)
class DiscriminantReport:
    T: Fraction | None  # the degenerate roots are those of x^r = T; None if there are none
    r: int
    abar2: int
    abar3: int
    method = "exact"  # the only method; perfbench/tracer.py reads it

    @property
    def is_zero(self) -> bool:
        return self.T is not None


def _int_root(n: int, k: int) -> int | None:
    """The y >= 0 with y^k = n, for n >= 0 and k >= 1; None if there is none."""
    if n < 2 or k == 1:
        return n
    bits = n.bit_length()
    if k >= bits:  # 2^k > n, so only y = 1 could do, and n >= 2
        return None
    y = 1 << -(-bits // k)  # at least the real root; Newton descends to its floor
    while True:
        z = ((k - 1) * y + n // y ** (k - 1)) // k
        if z >= y:
            return y if y ** k == n else None
        y = z


def _power_is(t: int, e: int, w: int) -> bool:
    """t^e == w for t, w >= 1, never building a power of more than about
    twice the bits of w."""
    if t == 1:
        return w == 1
    return e * (t.bit_length() - 1) < w.bit_length() and t ** e == w


def discriminant_tri(inp: TrinomialInput) -> DiscriminantReport:
    """Exact vanishing test for the trinomial discriminant, at any degree.

    Why it is exact: a repeated root tau != 0 solves f = x f' = 0, that is
    tau^a2 = A = -c1 a3/((a3-a2) c2) and tau^a3 = B = c1 a2/((a3-a2) c3).
    abar2, abar3 are coprime, so T = tau^r = A^alpha B^beta is rational, and
    a rational T with T^abar2 = A and T^abar3 = B exists exactly when
    A^abar3 = B^abar2, which cleared of denominators is delta_tri = 0.

    How: one of abar2, abar3, say e, is odd, so T is the unique rational
    e-th root of its side: integer e-th roots of the reduced numerator and
    denominator, the sign carried.  T must then give the other side too; a
    bit-length test comes before that power, so the work is polynomial in
    log(dH) at any degree.
    """
    r = math.gcd(inp.a2, inp.a3)
    ab2, ab3 = inp.a2 // r, inp.a3 // r
    diff = inp.a3 - inp.a2
    A = Fraction(-inp.c1 * inp.a3, diff * inp.c2)
    B = Fraction(inp.c1 * inp.a2, diff * inp.c3)
    (e, V), (o, W) = ((ab2, A), (ab3, B)) if ab2 % 2 else ((ab3, B), (ab2, A))
    num = _int_root(abs(V.numerator), e)
    den = _int_root(V.denominator, e) if num is not None else None
    T = None
    if (
        den is not None
        and (W > 0 if o % 2 == 0 else (W > 0) == (V > 0))
        and _power_is(num, o, abs(W.numerator))
        and _power_is(den, o, W.denominator)
    ):
        T = Fraction(num if V > 0 else -num, den)
    return DiscriminantReport(T=T, r=r, abar2=ab2, abar3=ab3)


def degenerate_roots_qp(
    inp: TrinomialInput, report: DiscriminantReport, msd_one: bool = False, certify: bool = True
) -> BinomialSolveResult:
    """The degenerate roots of f in Q_p, each of multiplicity 2: the roots
    of the encoding binomial x^r = T, solved over Q_p (solve_binomial's
    msd_one and certify)."""
    if report.T is None:
        return BinomialSolveResult(count=0, roots=[], reason=None)
    enc = BinomialInput(c1=-report.T.numerator, c2=report.T.denominator, d=report.r, p=inp.p)
    res = solve_binomial(enc, msd_one=msd_one, certify=certify)
    roots = [replace(root, degenerate=True, multiplicity=2) for root in res.roots]
    return replace(res, roots=roots)


@dataclass(frozen=True)
class PrecisionPlan:
    """Worst-case tree precision: k >= 1 + S0 min(1, D) + M_p max(D-1, 0)."""

    S0: int
    D: int
    M_p: int
    k: int


def precision_plan(inp: TrinomialInput, report: DiscriminantReport, log_H: float) -> PrecisionPlan:
    """Assemble S0 and D caps from the explicit proof constants.

    S0 caps the root-node digit cost: the degenerate-case formula
    2 + 2 log_p r + log_p(d/r) when the discriminant vanishes, the
    second-derivative valuation 2 + ord_p(d(d-1) c3 / 2) when a2 = 1, and
    the two-term valuation bound otherwise.  D caps the deepest shared
    digit prefix of two simple roots, read off the separation bound.
    log_H is the log-height of the polynomial the tree is built on, so no
    height is ever built.  The solver reads k only in the digit trees'
    depth guard (build_tree), which passes the rescaled g's log-height.
    """
    p, d, r = inp.p, inp.d, report.r
    lp = math.log(p)
    m_p = nodal_degree_cap(p)

    cands = []
    if report.is_zero:
        cands.append(2 + 2 * math.log(r) / lp + math.log(d / r) / lp)
    if inp.a2 == 1:
        cands.append(2 + ord_int(d * (d - 1) * inp.c3 // 2, p))
    dbar = d // r
    general = 2 + (math.log(dbar * max(dbar - 1, 1)) + log_H) / lp
    if dbar > 2:
        general += (
            147164373392 * p * math.log(dbar - 1) * (math.log(dbar * (dbar - 1)) + log_H) / lp
        )
    cands.append(general)
    s0 = max(2, math.ceil(min(cands)))

    sep = trinomial_separation_bound(d, log_H, p, degenerate=report.is_zero, a2=inp.a2, r=r)
    D = max(0, math.ceil(-sep / lp))
    k = 1 + s0 * min(1, D) + m_p * max(D - 1, 0)
    return PrecisionPlan(S0=s0, D=D, M_p=m_p, k=k)


def cut_depth(ab2: int, ab3: int, r: int, p: int) -> int:
    """N = max(ord_p(ab2 ab3 (ab3 - ab2) / 2), ord_p r) + 1: the digit depth
    from which a unit-part prefix on the chain of a repeated root holds no
    simple root (stabilized_tree), for f = F(x^r) with F = c1 + c2 X^ab2 +
    c3 X^ab3.  It reads only the exponents.

    Why it is sound.  Let tau be a repeated root of f and T = tau^r, a
    repeated root of F.  F(T) = T F'(T) = 0 gives c2 T^ab2 = -c1 ab3/(ab3 -
    ab2) and c3 T^ab3 = c1 ab2/(ab3 - ab2), so at X = T(1 + e)
      F(X) = c1/(ab3 - ab2) phi(e),
      phi(e) = (ab3 - ab2) - ab3 (1 + e)^ab2 + ab2 (1 + e)^ab3
             = sum_(j >= 2) (ab2 C(ab3, j) - ab3 C(ab2, j)) e^j.
    Every root X != T of F is a root of psi = phi / e^2, which lies in Z[e]
    with psi(0) = ab2 ab3 (ab3 - ab2)/2, so by the Newton polygon
    ord_p e <= ord_p psi(0) = M for each of them.  A simple root z of f at
    valuation v has Z = z^r != T, so ord_p(Z - T) <= r v + M.  Z - T is the
    product of z - tau_i over the r roots tau_i of x^r = T, each of order
    >= v, so every tau_i has ord_p(z - tau_i) <= v + M: unit parts share
    at most M digits.  The floor ord_p r + 1 is RepeatedRootCut's Hensel
    test.  Since ab2 (ab3 - ab2) <= ab3^2 / 4, p^M <= ab3^3 / 8, so N never
    exceeds the height-based depth max(C + max(0, -v) + 1, ord_p r + 1),
    C = floor(log_p((d-r) d^3 H / (8 r^4))), of the paper's repulsion bound.
    """
    return max(ord_int(ab2 * ab3 * (ab3 - ab2) // 2, p), ord_int(r, p)) + 1


@dataclass
class CandidateOutcome:
    """One candidate valuation's count, which rests on its mature tree."""

    valuation: int
    k_used: int  # the least k at which the tree is mature
    count: int


@dataclass
class SolveResult:
    p: int
    root_count: int
    roots: list[ApproximateRoot]  # empty when solved with certify=False
    mode: str
    zero_root_multiplicity: int = 0
    # trinomials only
    candidates: list[CandidateOutcome] = field(default_factory=list)
    discriminant: DiscriminantReport | None = None
    reason: str | None = None  # why the count is 0, when it is


def _harvest_tree(
    g: ScaledPoly, p: int, v: int, root_digits: str, certify: bool,
    cut: RepeatedRootCut | None, inp: TrinomialInput, report: DiscriminantReport,
) -> tuple[list[ApproximateRoot], CandidateOutcome]:
    """Non-degenerate valuation-v roots from the uncapped digit tree of g:
    one per simple root of a node's reduction, certified only when certify
    is set.  cut ends the digit chains of the repeated roots at valuation v.
    Only the tree's depth guard calls plan, with g's log-height."""
    def plan():  # max log |u_i p^(s_i)|, read off the parts: no power is built
        log_H = max(math.log(abs(u)) + s * math.log(p) for _, u, s in g.parts)
        return precision_plan(inp, report, log_H)

    st = stabilized_tree(g, p, root_digits=root_digits, cut=cut, plan=plan)
    roots, count = [], 0
    for node in st.tree.root.walk():
        if node.depth >= 1:
            # dual-route check: Frobenius gcd count vs the exhaustive scan,
            # both memoized on (reduction, p) below the root (fp)
            distinct = gcd_with_frobenius(node.reduction, p)
            found = len(node.nondegenerate_roots) + len(node.degenerate_roots)
            if distinct != found:
                raise InvariantViolated(
                    f"root-count cross-check failed at {node.digits(p)}: {distinct} != {found}"
                )
        count += node.n_p
        if not certify:
            continue
        i = node.depth
        for z in node.nondegenerate_roots:
            start = node.mu + z * p ** i
            roots.append(
                ApproximateRoot(
                    p=p,
                    valuation=v,
                    unit_residue=certified_residue(g, p, start, i + 2),
                    precision=i + 2,
                    target=g,
                )
            )
    return roots, CandidateOutcome(valuation=v, k_used=st.k_used, count=count)


def solve_trinomial(inp: TrinomialInput, mode: str = MODE_FULL, certify: bool = True) -> SolveResult:
    """Count and approximate all roots in Q_p of c1 + c2 x^a2 + c3 x^a3.

    The constant term is nonzero, so 0 is never a root; solve_sparse
    validates the mode and handles a factor x^a1.  Candidate valuations
    are taken in polygon order: rescale to g, held as its parts at any
    valuation and degree, then build one uncapped digit tree (stabilized_tree).
    At the valuation v that holds the degenerate roots, it cuts every digit
    on their chains from depth N = cut_depth(abar2, abar3, r, p) on, which
    reads only the exponents, so every tree is finite and mature.  Each
    digit on a chain costs one Taylor expansion of g's parts (build_tree)
    at its own precision, so the tree's work is polynomial in N and
    log(dH).  The cut is one residue test, the same with and without
    certify; certify=False counts without certificates.
    """
    p = inp.p
    body = inp.poly
    outcomes: list[CandidateOutcome] = []

    report = discriminant_tri(inp)
    msd_one = mode == MODE_RESTRICTED
    degenerate = degenerate_roots_qp(inp, report, msd_one=msd_one, certify=certify)
    roots, count = degenerate.roots, degenerate.count

    degenerate_v = cut = None
    if count:  # every root of x^r = T has the valuation ord_p(T) / r
        r = report.r
        degenerate_v = ord_rat(report.T, p) // r
        unit = report.T / Fraction(p) ** (r * degenerate_v)
        cut = RepeatedRootCut(
            depth=cut_depth(report.abar2, report.abar3, r, p),
            num=unit.numerator,
            den=unit.denominator,
            r=r,
            ell=ord_int(r, p),
        )
    candidates = integral_valuation_candidates(body, p)
    root_digits = "one" if msd_one else "nonzero"
    for v, _mult in candidates:
        g = rescale_for_valuation(body, p, v)
        v_cut = cut if v == degenerate_v else None
        got, outcome = _harvest_tree(g, p, v, root_digits, certify, v_cut, inp, report)
        roots.extend(got)
        count += outcome.count
        outcomes.append(outcome)

    roots.sort(key=lambda rt: (rt.valuation, rt.unit_residue % rt.p, rt.unit_residue))
    return SolveResult(
        p=p,
        root_count=count,
        roots=roots,
        mode=mode,
        candidates=outcomes,
        discriminant=report,
        reason=None if candidates else REASON_NO_INTEGRAL_VALUATION,
    )


def solve_sparse(
    f: SparsePoly, p: int, mode: str = MODE_FULL, certify: bool = True
) -> SolveResult:
    """Count and approximate the roots in Q_p of a 1-, 2- or 3-term polynomial.

    The one entry point that validates p and mode.  It strips x^a1, solves
    the body (a nonzero constant, a binomial or a trinomial) and counts 0
    as one more root when a1 > 0.  Restricted mode never counts 0, which
    is not of the form p^j(1 + O(p)); zero_root_multiplicity still reports it.

    certify=False counts only: the result is the certifying one with roots
    empty, and each input raises the same error type.  A binomial, and the
    degenerate encoding x^r = T, costs one power test; a digit tree counts
    the simple roots of its nodes' reductions.  Nothing is Newton-certified
    and no F_p coset is walked; restricted mode reads each root's first
    digit from the tree (root_digits="one") or from the binomial's residue
    test (is 1 a root mod p?).
    """
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if mode not in MODES:
        raise InvalidParams(f"unknown mode {mode!r}")
    body, a1 = strip_zero_root(f)
    if body.term_count > 3:
        raise InvalidParams(
            f"{body.term_count} terms: only monomials, binomials and trinomials are solvable"
        )
    if body.term_count == 3:
        inp, _ = TrinomialInput.from_poly(body, p)
        res = solve_trinomial(inp, mode=mode, certify=certify)
    else:
        sol = BinomialSolveResult(count=0, roots=[], reason=None)
        if body.term_count == 2:
            (_, c1), (d, c2) = body.terms
            sol = solve_binomial(
                BinomialInput(c1=c1, c2=c2, d=d, p=p),
                msd_one=mode == MODE_RESTRICTED,
                certify=certify,
            )
        res = SolveResult(p=p, root_count=sol.count, roots=sol.roots, mode=mode, reason=sol.reason)
    res.zero_root_multiplicity = a1
    if a1 and mode != MODE_RESTRICTED:
        res.root_count += 1
    if res.root_count:
        res.reason = None
    return res
