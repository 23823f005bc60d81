"""Counting and approximating all Q_p roots of integer trinomials.

Pipeline: candidate valuations from the Newton polygon; degenerate roots
(when the trinomial discriminant vanishes) through an exact binomial
encoding; non-degenerate roots per valuation through digit trees built at
doubling precision until one is mature, capped by the worst-case precision
plan.
Every emitted root carries a Newton certificate; totals match the number
of distinct roots of f in Q_p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .arith import is_prime, ord_int, xgcd
from .binomial import REASON_NO_INTEGRAL_VALUATION, BinomialInput, solve_binomial
from .bounds import trinomial_separation_bound
from .errors import BudgetExceeded, InvalidParams, InvariantViolated, ModeHypothesisViolated
from .fp import gcd_with_frobenius
from .newton import ApproximateRoot, certified_residue, newton_step
from .newton_polygon import integral_valuation_candidates
from .nodal_tree import nodal_degree_cap, stabilized_tree
from .sparsepoly import SparsePoly, rescale_for_valuation, strip_zero_root

EXACT_DISCRIMINANT_CAP = 10_000  # largest abar3 for full bigint evaluation
MODULAR_TRIALS = 40  # 62-bit primes used per vanishing test
PRIME_POOL_SIZE = 128

_prime_pool: list[int] = []


def _pool() -> list[int]:
    """Lazily built pool of random 62-bit primes for the modular test.

    Fixed seed keeps runs reproducible; each input draws its own 40-prime
    subset.  A fixed pool trades a little adversarial hardness for speed;
    the false-zero probability statement assumes inputs independent of it.
    """
    if not _prime_pool:
        rng = random.Random("62-bit prime pool")
        local = []
        while len(local) < PRIME_POOL_SIZE:
            q = rng.getrandbits(62) | (1 << 61) | 1
            if is_prime(q):
                local.append(q)
        _prime_pool[:] = local  # idempotent under concurrent first calls
    return _prime_pool

MODE_FULL = "full"
MODE_RESTRICTED = "restricted-root"
MODE_SMALL_GCD = "small-gcd-assume"
MODES = (MODE_FULL, MODE_RESTRICTED, MODE_SMALL_GCD)


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
    def height(self) -> int:
        return max(abs(self.c1), abs(self.c2), abs(self.c3))

    @property
    def d(self) -> int:
        return self.a3


@dataclass(frozen=True)
class DiscriminantReport:
    delta_tri: int | None  # None when only the modular vanishing test ran
    is_zero: bool
    r: int
    abar2: int
    abar3: int
    method: str  # "exact" or "modular"


def _delta_mod_q(inp: TrinomialInput, ab2: int, ab3: int, q: int) -> int:
    """Delta_tri mod a prime q with exponents reduced by Fermat."""

    def powq(base: int, e: int) -> int:
        base %= q
        if base == 0:
            return 0
        return pow(base, e % (q - 1) or (q - 1) if e else 0, q)

    lhs = powq(ab3, ab3) * powq(inp.c1, ab3 - ab2) % q * powq(inp.c3, ab2) % q
    rhs = powq(ab2, ab2) * powq(ab3 - ab2, ab3 - ab2) % q * powq(-inp.c2, ab3) % q
    return (lhs - rhs) % q


def discriminant_tri(inp: TrinomialInput, exact: bool = False) -> DiscriminantReport:
    """Exact vanishing test for the trinomial discriminant.

    Exact bigint evaluation up to abar3 <= 10^4 (or always with
    exact=True); beyond that, a multi-modulus probabilistic test: nonzero
    on any nonzero residue mod 40 deterministic-seeded random 62-bit
    primes.  A false zero needs all 40 primes to divide a fixed nonzero
    integer, which at this size has probability far below 2^-200.
    """
    r = math.gcd(inp.a2, inp.a3)
    ab2, ab3 = inp.a2 // r, inp.a3 // r
    if exact or ab3 <= EXACT_DISCRIMINANT_CAP:
        delta = (
            ab3 ** ab3 * inp.c1 ** (ab3 - ab2) * inp.c3 ** ab2
            - ab2 ** ab2 * (ab3 - ab2) ** (ab3 - ab2) * (-inp.c2) ** ab3
        )
        return DiscriminantReport(
            delta_tri=delta, is_zero=delta == 0, r=r, abar2=ab2, abar3=ab3, method="exact"
        )
    rng = random.Random(f"delta:{inp.c1},{inp.c2},{inp.c3},{inp.a2},{inp.a3}")
    for q in rng.sample(_pool(), MODULAR_TRIALS):
        if _delta_mod_q(inp, ab2, ab3, q) != 0:
            return DiscriminantReport(
                delta_tri=None, is_zero=False, r=r, abar2=ab2, abar3=ab3, method="modular"
            )
    return DiscriminantReport(
        delta_tri=None, is_zero=True, r=r, abar2=ab2, abar3=ab3, method="modular"
    )


def degenerate_encoding(inp: TrinomialInput) -> tuple[int, Fraction]:
    """(r, T) such that the degenerate roots of f are the roots of x^r = T.

    Combines tau^a2 = -c1 a3 / ((a3-a2) c2) and tau^a3 = c1 a2 / ((a3-a2) c3)
    through an extended-Euclid pair alpha*a2 + beta*a3 = r.
    """
    A = Fraction(-inp.c1 * inp.a3, (inp.a3 - inp.a2) * inp.c2)
    B = Fraction(inp.c1 * inp.a2, (inp.a3 - inp.a2) * inp.c3)
    r, alpha, beta = xgcd(inp.a2, inp.a3)
    height_bits = (abs(alpha) + abs(beta)) * max(
        A.numerator.bit_length() + A.denominator.bit_length(),
        B.numerator.bit_length() + B.denominator.bit_length(),
    )
    if height_bits > 8_000_000:
        raise BudgetExceeded("degenerate encoding too large to materialize exactly")
    T = A ** alpha * B ** beta
    return r, T


def degenerate_roots_qp(inp: TrinomialInput, report: DiscriminantReport) -> list[ApproximateRoot]:
    """All degenerate roots of f in Q_p, each of multiplicity 2, via the
    encoding binomial solved over Q_p."""
    if not report.is_zero:
        return []
    r, T = degenerate_encoding(inp)
    enc = BinomialInput(c1=-T.numerator, c2=T.denominator, d=r, p=inp.p)
    res = solve_binomial(enc)
    return [replace(root, degenerate=True, multiplicity=2) for root in res.roots]


@dataclass(frozen=True)
class PrecisionPlan:
    """Worst-case tree precision: k >= 1 + S0 min(1, D) + M_p max(D-1, 0)."""

    S0: int
    D: int
    M_p: int
    k: int


def precision_plan(
    inp: TrinomialInput,
    report: DiscriminantReport,
    height: int | None = None,
) -> PrecisionPlan:
    """Assemble S0 and D caps from the explicit proof constants.

    S0 caps the root-node digit cost: the degenerate-case formula
    2 + 2 log_p r + log_p(d/r) when the discriminant vanishes, the
    second-derivative valuation 2 + ord_p(d(d-1) c3 / 2) when a2 = 1, and
    the two-term valuation bound otherwise.  D caps the deepest shared
    digit prefix of two simple roots, read off the separation bound.
    """
    p, d, r = inp.p, inp.d, report.r
    H = height if height is not None else inp.height
    lp = math.log(p)
    m_p = nodal_degree_cap(p)

    cands = []
    if report.is_zero:
        cands.append(2 + 2 * math.log(r) / lp + math.log(d / r) / lp)
    if inp.a2 == 1:
        cands.append(2 + ord_int(d * (d - 1) * inp.c3 // 2, p))
    dbar = d // r
    general = 2 + math.log(dbar * max(dbar - 1, 1) * H) / lp
    if dbar > 2:
        general += (
            147164373392 * p * math.log(dbar - 1) * math.log(dbar * (dbar - 1) * H) / lp
        )
    cands.append(general)
    s0 = max(2, math.ceil(min(cands)))

    sep = trinomial_separation_bound(d, H, p, degenerate=report.is_zero, a2=inp.a2, r=r)
    D = max(0, math.ceil(-sep / lp))
    k = 1 + s0 * min(1, D) + m_p * max(D - 1, 0)
    return PrecisionPlan(S0=s0, D=D, M_p=m_p, k=k)


@dataclass
class CandidateOutcome:
    valuation: int
    k_used: int
    stabilized: bool
    count: int


@dataclass
class SolveResult:
    p: int
    root_count: int
    roots: list[ApproximateRoot]
    mode: str
    zero_root_multiplicity: int = 0
    # trinomials only
    candidates: list[CandidateOutcome] = field(default_factory=list)
    plan: PrecisionPlan | None = None
    discriminant: DiscriminantReport | None = None
    reason: str | None = None  # why the count is 0, when it is


def _harvest_tree(
    g: SparsePoly, p: int, v: int, k_cap: int, root_digits: str, k_start: int
) -> tuple[list[ApproximateRoot], CandidateOutcome]:
    """Non-degenerate valuation-v roots from the digit tree of g."""
    st = stabilized_tree(g, p, k_start=k_start, k_cap=k_cap, root_digits=root_digits)
    roots = []
    for node in st.tree.root.walk():
        if node.depth >= 1:
            # dual-route check: Frobenius gcd count vs the exhaustive scan
            distinct = gcd_with_frobenius(node.mod_p_coeffs(p), p)
            found = len(node.nondegenerate_roots) + len(node.degenerate_roots)
            if distinct != found:
                raise InvariantViolated(
                    f"root-count cross-check failed at {node.digits(p)}: {distinct} != {found}"
                )
        i = node.depth
        for z in node.nondegenerate_roots:
            start = node.mu + z * p ** i
            residue, prec = certified_residue(g, p, start, i + 2)
            roots.append(
                ApproximateRoot(
                    p=p,
                    valuation=v,
                    unit_residue=residue,
                    precision=prec,
                    target=g,
                )
            )
    outcome = CandidateOutcome(
        valuation=v, k_used=st.k_used, stabilized=st.stabilized, count=len(roots)
    )
    return roots, outcome


def _msd_one(roots: list[ApproximateRoot]) -> list[ApproximateRoot]:
    """The roots of the form p^j(1 + O(p)): most significant digit 1."""
    return [rt for rt in roots if rt.unit_digits(1) == (1,)]


def solve_trinomial(
    inp: TrinomialInput,
    mode: str = MODE_FULL,
    exact_discriminant: bool = False,
) -> SolveResult:
    """Count and approximate all roots in Q_p of c1 + c2 x^a2 + c3 x^a3.

    The constant term is nonzero, so 0 is never a root; solve_sparse
    validates the mode and handles a factor x^a1.
    """
    p = inp.p
    if mode == MODE_SMALL_GCD:
        g = math.gcd(inp.a2 * inp.a3 * (inp.a3 - inp.a2), (p - 1) * p)
        if g > 2:
            raise ModeHypothesisViolated(
                f"gcd(a2 a3 (a3-a2), (p-1)p) = {g} > 2; use mode=full"
            )

    body = inp.poly
    outcomes: list[CandidateOutcome] = []

    report = discriminant_tri(inp, exact=exact_discriminant)
    roots = degenerate_roots_qp(inp, report)
    if mode == MODE_RESTRICTED:
        roots = _msd_one(roots)

    candidates = integral_valuation_candidates(body, p)
    plan = precision_plan(inp, report)
    root_digits = "one" if mode == MODE_RESTRICTED else "nonzero"
    for v, _mult in candidates:
        g, _shift = rescale_for_valuation(body, p, v)
        k_cap = precision_plan(inp, report, height=g.max_abs_coeff()).k
        got, outcome = _harvest_tree(g, p, v, k_cap, root_digits, min(6, k_cap))
        roots.extend(got)
        outcomes.append(outcome)

    roots.sort(key=lambda rt: (rt.valuation, rt.unit_residue % rt.p, rt.unit_residue))
    return SolveResult(
        p=p,
        root_count=len(roots),
        roots=roots,
        mode=mode,
        candidates=outcomes,
        plan=plan,
        discriminant=report,
        reason=None if candidates else REASON_NO_INTEGRAL_VALUATION,
    )


def refine_root(root: ApproximateRoot, steps: int, buffer: int = 4) -> ApproximateRoot:
    """n literal Newton steps on the certificate target at doubling precision."""
    z, prec = root.unit_residue, root.precision
    for _ in range(steps):
        prec = 2 * prec
        z = newton_step(root.target, root.p, z, prec + buffer)
    z, got = certified_residue(root.target, root.p, z, prec)
    return replace(root, unit_residue=z, precision=got)


def solve_sparse(f: SparsePoly, p: int, mode: str = MODE_FULL, **kw) -> SolveResult:
    """Count and approximate the roots in Q_p of a 1-, 2- or 3-term polynomial.

    The one entry point that validates p and mode.  It strips x^a1, solves
    the body (a nonzero constant, a binomial or a trinomial) and counts 0
    as one more root when a1 > 0.  Restricted mode never counts 0, which
    is not of the form p^j(1 + O(p)); zero_root_multiplicity still reports it.
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
        res = solve_trinomial(inp, mode=mode, **kw)
    else:
        roots, reason = [], None
        if body.term_count == 2:
            (_, c1), (d, c2) = body.terms
            sol = solve_binomial(BinomialInput(c1=c1, c2=c2, d=d, p=p))
            roots = _msd_one(sol.roots) if mode == MODE_RESTRICTED else sol.roots
            reason = sol.reason
        res = SolveResult(p=p, root_count=len(roots), roots=roots, mode=mode, reason=reason)
    res.zero_root_multiplicity = a1
    res.root_count = len(res.roots) + (1 if a1 and mode != MODE_RESTRICTED else 0)
    if res.root_count:
        res.reason = None
    return res
