"""Approximate roots with quadratically-convergent Newton certificates.

A certificate pins down a true root zeta of f in Q_p by a rational start
point plus the data needed to iterate the Newton map exactly: the
valuation-rescaled integer polynomial (ScaledPoly) whose unit root is
tracked, the unit residue, and the count of certified digits.  Iterating
Newton on a nodal polynomial p^(-s) f(mu + p^i x) coincides with iterating
the Newton map of the rescaled polynomial itself on the residue mu + p^i w,
so refinement always works on one integer polynomial with exact p-power
division of f/f'.  certified_residue is the one Newton loop, for the
tetranomial family's roots too (the oracle's lift_root stays independent):
its precision doubles up to the digits wanted, one probe per iterate.  The
probe, derivative_order, reads f(z) and f'(z) in one pass and doubles until
f'(z) shows, so a derivative divisible by p^20 (x^d with 3^20 | d) is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import base_p_digits, ord_int
from .errors import DerivativeNotInvertible
from .sparsepoly import ScaledPoly

# the deepest probe of f'(z), in digits; vanishing there, f'(z) is taken as 0
MAX_PROBE_DIGITS = 1 << 20


def derivative_order(f: ScaledPoly, p: int, z: int, prec: int) -> tuple[int, int, int]:
    """(ell, f(z), f'(z)) with ell = ord_p f'(z), both values mod p^(prec + ell).

    The one probe of f and f' at z: they are read mod p^(prec + 8), and the
    probe doubles while f'(z) vanishes there.  Past MAX_PROBE_DIGITS it
    raises DerivativeNotInvertible.
    """
    k = prec + 8
    while True:
        fv, dv = f.eval_mod(z, p ** k)
        if dv:
            ell = ord_int(dv, p)
            if prec + ell > k:
                fv, dv = f.eval_mod(z, p ** (prec + ell))
            m = p ** (prec + ell)
            return ell, fv % m, dv % m
        if k > MAX_PROBE_DIGITS:
            raise DerivativeNotInvertible("derivative vanished at every probe")
        k *= 2


def certified_residue(f: ScaledPoly, p: int, z: int, want: int) -> int:
    """Newton-polish z until >= want digits of its root are certified.

    ord f(z) - ord f'(z) lower-bounds the p-adic distance from z to its
    nearest root, so it is a sound certified-digit count.  The working
    precision doubles from 1 to want as its digits are certified; below it,
    z takes exact Newton steps, which need ord f(z) > 2 ord f'(z) (Hensel's
    regime).  Returns the residue mod p^want.
    """
    prec = 1
    for _ in range(64 + want.bit_length()):
        ell, fv, dv = derivative_order(f, p, z, prec)
        if fv == 0:  # ord f(z) >= prec + ord f'(z)
            if prec == want:
                return z % p ** want
            prec = min(2 * prec, want)
        # f/f' must at least be p-integral with room to move one digit; the
        # full Hensel criterion is certified on the nodal side by construction
        elif fv % p ** (ell + 1):  # ord f(z) <= ord f'(z)
            raise DerivativeNotInvertible(
                f"non-contracting Newton step: ord f = {ord_int(fv, p)}, ord f' = {ell}"
            )
        else:
            m = p ** prec
            z = (z - fv // p ** ell * pow(dv // p ** ell, -1, m)) % m
    raise DerivativeNotInvertible("certification did not converge")


@dataclass(frozen=True)
class ApproximateRoot:
    """Start point converging quadratically to one root of the target.

    The true root of the original polynomial is unit * p^valuation, unit
    the target's root certified by unit_residue to `precision` base-p
    digits; the target is exact, so refine certifies any number of digits.
    """

    p: int
    valuation: int
    unit_residue: int  # mod p^precision, every digit certified
    precision: int
    target: ScaledPoly
    degenerate: bool = False
    multiplicity: int = 1

    @property
    def value(self) -> Fraction:
        return Fraction(self.unit_residue) * Fraction(self.p) ** self.valuation

    def refine(self, extra_digits: int) -> "ApproximateRoot":
        """Extend the certificate by at least extra_digits digits."""
        want = self.precision + extra_digits
        z = certified_residue(self.target, self.p, self.unit_residue, want)
        return replace(self, unit_residue=z, precision=want)

    def unit_digits(self, m: int) -> tuple[int, ...]:
        """First m base-p digits of the unit part of the true root."""
        root = self if self.precision >= m else self.refine(m - self.precision)
        return base_p_digits(root.unit_residue, root.p, m)
