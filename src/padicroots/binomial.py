"""Roots of c1 + c2 x^d over Q_p: exact counting and certified start points.

The count is 0 or gcd(d, p-1) for odd p (0 or gcd(d, 2) for p = 2), decided
by an integrality test on the coefficient valuations and a single power
test in Z/(p^(2*ell+1)) with ell = ord_p d.  The roots' first digits are
the solutions of x^d = t in F_p*, found in one coset walk; restricted mode
walks nothing, since its one candidate digit, 1, is tested directly.  Each
first digit is a start for certified_residue, which refines it until it
carries at least two certified digits of its Newton target (three when
p | d).  A count-only solve stops before any root is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import is_prime, ord_int
from .errors import InvalidParams
from .fp import binomial_coset_roots, check_prime_cap
from .newton import ApproximateRoot, certified_residue
from .sparsepoly import ScaledPoly

REASON_NO_INTEGRAL_VALUATION = "no-integral-valuation"
REASON_POWER_TEST_FAILED = "power-test-failed"


@dataclass(frozen=True)
class BinomialInput:
    c1: int
    c2: int
    d: int  # >= 1
    p: int

    def __post_init__(self):
        if self.c1 == 0 or self.c2 == 0 or self.d < 1:
            raise InvalidParams(f"need c1, c2 nonzero and d >= 1, got d = {self.d}")
        if not is_prime(self.p):
            raise InvalidParams(f"{self.p} is not prime")


@dataclass(frozen=True)
class BinomialSolveResult:
    count: int
    roots: list[ApproximateRoot]
    reason: str | None  # set when count = 0


def solve_binomial(
    inp: BinomialInput, msd_one: bool = False, certify: bool = True
) -> BinomialSolveResult:
    """Certified approximate roots for all roots of c1 + c2 x^d in Q_p.

    msd_one keeps only the roots of the form p^j(1 + O(p)).  With
    certify=False the roots are counted, not found: the result has the
    count and the reason, no roots, and costs the one power test.
    """
    c1, c2, d, p = inp.c1, inp.c2, inp.d, inp.p
    check_prime_cap(p)
    v1, v2 = ord_int(c1, p), ord_int(c2, p)
    if (v1 - v2) % d != 0:
        return BinomialSolveResult(count=0, roots=[], reason=REASON_NO_INTEGRAL_VALUATION)
    ell = ord_int(d, p)
    c1u, c2u = c1 // p ** v1, c2 // p ** v2
    m = p ** (2 * ell + 1)
    t = -c1u * pow(c2u, -1, m) % m
    if p == 2:
        solvable = ell == 0 or (c1u % 8 == (-c2u) % 8
                                and pow(t, 2 ** (ell - 1), m) == 1)
    else:
        solvable = pow(t, p ** ell * (p - 1) // math.gcd(d, p - 1), m) == 1
    if not solvable:
        return BinomialSolveResult(count=0, roots=[], reason=REASON_POWER_TEST_FAILED)
    if p == 2:  # every unit has first digit 1
        first_digits = [1, 3][: math.gcd(d, 2)]
    elif msd_one:
        # the unit roots y are y0 times the gamma-th roots of unity, so
        # they reduce to gamma distinct solutions of c1u + c2u y^d = 0
        # in F_p, which has no others: one root has first digit 1
        # exactly when y = 1 solves it mod p
        first_digits = [1] if (c1u + c2u) % p == 0 else []
    elif not certify:
        return BinomialSolveResult(count=math.gcd(d, p - 1), roots=[], reason=None)
    else:
        first_digits = binomial_coset_roots(-c1u * pow(c2u, -1, p), d, p)
    if not certify:
        return BinomialSolveResult(count=len(first_digits), roots=[], reason=None)
    # unit root of c1u + c2u y^d; true root is y * p^((v1 - v2)/d)
    val = (v1 - v2) // d
    target = ScaledPoly(p, ((0, c1u, 0), (d, c2u, 0)))
    # enough certified digits that Newton on the (nodal) target gains a full
    # 2^i digits per i iterations: depth + 2 where depth = (ell >= 1)
    want = 3 if ell >= 1 else 2
    roots = []
    for z in first_digits:
        roots.append(
            ApproximateRoot(
                p=p,
                valuation=val,
                unit_residue=certified_residue(target, p, z, want),
                precision=want,
                target=target,
            )
        )
    return BinomialSolveResult(count=len(roots), roots=roots, reason=None)


@dataclass(frozen=True)
class BinomialSeparation:
    """Upper bounds on |log distance| between distinct roots (Archimedean
    and p-adic); the p-adic bound doubles as a root-distance floor."""

    padic: float
    arch: float
    pure_p_power: bool


def separation_binomial(d: int, p: int, H: int) -> BinomialSeparation:
    """|log|z1 - z2|| caps for distinct roots of a degree-d binomial.

    p-adic: (1/d) log H, plus log(p)/(p-1) when d is a pure p-th power
    >= p or when p = 2 divides d.  The p = 2 correction is needed for
    soundness over Q_2: whenever roots exist for even d they come in pairs
    +-u at distance |2u|, e.g. 9 + 7 x^10 has |z1 - z2|_2 = 1/2 while
    (1/10) log 9 < log 2.  Archimedean: log d + (1/d) log H.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    ell = ord_int(d, p)
    pure = d == p ** ell
    padic = math.log(H) / d
    if pure or (p == 2 and d % 2 == 0):
        padic += math.log(p) / (p - 1)
    return BinomialSeparation(padic=padic, arch=math.log(d) + math.log(H) / d, pure_p_power=pure)
