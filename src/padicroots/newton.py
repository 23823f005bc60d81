"""Approximate roots with quadratically-convergent Newton certificates.

A certificate pins down a true root zeta of f in Q_p by a rational start
point plus the data needed to iterate the Newton map exactly: the
valuation-rescaled integer polynomial whose unit root is tracked, the unit
residue, and the count of certified digits.  Iterating Newton on a nodal
polynomial p^(-s) f(mu + p^i x) coincides with iterating the Newton map of
the rescaled polynomial itself on the composite residue mu + p^i w, so
refinement always works on one integer polynomial with exact p-power
division of f/f'.  One function, derivative_order, reads ord_p f'(z) for
every step and certificate: its probe doubles until f'(z) shows, so a
derivative divisible by p^20 (x^d with 3^20 | d) is read, not refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import base_p_digits, ord_int
from .errors import DerivativeNotInvertible
from .sparsepoly import SparsePoly

# the deepest probe of f'(z), in digits; vanishing there, f'(z) is taken as 0
MAX_PROBE_DIGITS = 1 << 20


def derivative_order(f: SparsePoly, p: int, z: int, prec: int) -> tuple[int, int]:
    """(ell, f'(z) mod p^(prec + ell)) with ell = ord_p f'(z).

    The one probe of f'(z): it is read mod p^(prec + 8), and the probe
    doubles while f'(z) vanishes there.  Past MAX_PROBE_DIGITS it raises
    DerivativeNotInvertible.
    """
    k = prec + 8
    while True:
        dv = f.deriv_mod(z, p ** k)
        if dv:
            ell = ord_int(dv, p)
            if prec + ell > k:
                dv = f.deriv_mod(z, p ** (prec + ell))
            return ell, dv % p ** (prec + ell)
        if k > MAX_PROBE_DIGITS:
            raise DerivativeNotInvertible("derivative vanished at every probe")
        k *= 2


def newton_step(f: SparsePoly, p: int, z: int, prec: int) -> int:
    """One exact Newton step z - f(z)/f'(z) mod p^prec.

    The shared p-power of f(z) and f'(z) is divided out on integer
    representatives before inverting, so positive derivative valuations are
    fine as long as ord f(z) > 2 ord f'(z) (Hensel's regime).
    """
    ell, dv = derivative_order(f, p, z, prec)
    fv = f.eval_mod(z, p ** (prec + ell))
    if fv == 0:
        return z % p ** prec
    # f/f' must at least be p-integral with room to move one digit; the
    # full Hensel criterion is certified on the nodal side by construction
    if ord_int(fv, p) <= ell:
        raise DerivativeNotInvertible(
            f"non-contracting Newton step: ord f = {ord_int(fv, p)}, ord f' = {ell}"
        )
    num = fv // p ** ell
    den = dv // p ** ell
    step = num * pow(den, -1, p ** prec) % p ** prec
    return (z - step) % p ** prec


def certified_residue(f: SparsePoly, p: int, z: int, want: int) -> tuple[int, int]:
    """Newton-polish z until >= want digits of its root are certified.

    ord f(z) - ord f'(z) lower-bounds the p-adic distance from z to its
    nearest root, so it is a sound certified-digit count.  Returns
    (residue mod p^want, want).
    """
    for _ in range(64):
        ordd, _ = derivative_order(f, p, z, want)
        fv = f.eval_mod(z, p ** (want + ordd))
        if fv == 0:  # ord f(z) >= want + ord f'(z)
            return z % p ** want, want
        certified = ord_int(fv, p) - ordd
        z = newton_step(f, p, z, 2 * max(certified, 1) + ordd + 4)
    raise DerivativeNotInvertible("certification did not converge")


@dataclass(frozen=True)
class ApproximateRoot:
    """Start point converging quadratically to one root of the target.

    The associated true root of the original polynomial is
    unit * p^valuation, where unit is the target's root certified by
    unit_residue to `precision` base-p digits.
    """

    p: int
    valuation: int
    unit_residue: int  # mod p^precision, every digit certified
    precision: int
    target: SparsePoly
    degenerate: bool = False
    multiplicity: int = 1

    @property
    def value(self) -> Fraction:
        return Fraction(self.unit_residue) * Fraction(self.p) ** self.valuation

    def refine(self, extra_digits: int) -> "ApproximateRoot":
        """Extend the certificate by at least extra_digits digits."""
        want = self.precision + extra_digits
        z, got = certified_residue(self.target, self.p, self.unit_residue, want)
        return replace(self, unit_residue=z, precision=got)

    def unit_digits(self, m: int) -> tuple[int, ...]:
        """First m base-p digits of the unit part of the true root."""
        root = self if self.precision >= m else self.refine(m - self.precision)
        return base_p_digits(root.unit_residue, root.p, m)
