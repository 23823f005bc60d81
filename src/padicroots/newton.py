"""Approximate roots with quadratically-convergent Newton certificates.

A certificate pins down a true root zeta of f in Q_p by a rational start
point plus the data needed to iterate the Newton map exactly: the
valuation-rescaled integer polynomial whose unit root is tracked, the unit
residue, and the count of certified digits.  Iterating Newton on a nodal
polynomial p^(-s) f(mu + p^i x) coincides with iterating the Newton map of
the rescaled polynomial itself on the composite residue mu + p^i w, so
refinement always works on one integer polynomial with exact p-power
division of f/f'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .arith import ord_int
from .errors import DerivativeNotInvertible
from .sparsepoly import SparsePoly


def residual_orders(f: SparsePoly, p: int, z: int, probe_k: int) -> tuple[int, int]:
    """(ord f(z), ord f'(z)) measured mod p^probe_k; probe_k stands for 'at
    least probe_k' when the value vanishes at that precision."""
    m = p ** probe_k
    fv = f.eval_mod(z, m)
    dv = f.deriv_mod(z, m)
    ordf = ord_int(fv, p) if fv else probe_k
    ordd = ord_int(dv, p) if dv else probe_k
    return ordf, ordd


def newton_step(f: SparsePoly, p: int, z: int, prec: int) -> int:
    """One exact Newton step z - f(z)/f'(z) mod p^prec.

    The shared p-power of f(z) and f'(z) is divided out on integer
    representatives before inverting, so positive derivative valuations are
    fine as long as ord f(z) > 2 ord f'(z) (Hensel's regime).
    """
    probe = p ** (prec + 8)
    dv = f.deriv_mod(z, probe)
    if dv == 0:
        raise DerivativeNotInvertible("derivative vanished at working precision")
    ell = ord_int(dv, p)
    work = p ** (prec + ell)
    fv = f.eval_mod(z, work)
    if fv == 0:
        return z % p ** prec
    # f/f' must at least be p-integral with room to move one digit; the
    # full Hensel criterion is certified on the nodal side by construction
    if ord_int(fv, p) <= ell:
        raise DerivativeNotInvertible(
            f"non-contracting Newton step: ord f = {ord_int(fv, p)}, ord f' = {ell}"
        )
    num = fv // p ** ell
    den = (dv % work) // p ** ell
    step = num * pow(den, -1, p ** prec) % p ** prec
    return (z - step) % p ** prec


def certified_residue(f: SparsePoly, p: int, z: int, want: int) -> tuple[int, int]:
    """Newton-polish z until >= want digits of its root are certified.

    ord f(z) - ord f'(z) lower-bounds the p-adic distance from z to its
    nearest root, so it is a sound certified-digit count.  Returns
    (residue mod p^want, want).
    """
    for _ in range(64):
        probe_k = want + 16
        while True:
            ordf, ordd = residual_orders(f, p, z, probe_k)
            if ordd < probe_k and (ordf < probe_k or ordf >= want + ordd):
                break
            if probe_k > 1 << 20:
                raise DerivativeNotInvertible("residual valuation unreachable")
            probe_k *= 2
        certified = ordf - ordd
        if certified >= want:
            return z % p ** want, want
        z = newton_step(f, p, z, 2 * max(certified, 1) + ordd + 4)
    raise DerivativeNotInvertible("certification did not converge")


@dataclass(frozen=True)
class ApproximateRoot:
    """Start point converging quadratically to one root of the target.

    The associated true root of the original polynomial is
    (unit * p^valuation)^(+-1) where unit is the target's root certified by
    unit_residue to `precision` base-p digits.
    """

    p: int
    valuation: int
    unit_residue: int  # mod p^precision, every digit certified
    precision: int
    target: SparsePoly
    inverted: bool = False
    degenerate: bool = False
    multiplicity: int = 1

    @property
    def digits(self) -> tuple[int, ...]:
        r = self.unit_residue
        return tuple((r // self.p ** i) % self.p for i in range(self.precision))

    @property
    def value(self) -> Fraction:
        v = Fraction(self.unit_residue) * Fraction(self.p) ** self.valuation
        return 1 / v if self.inverted else v

    def refine(self, extra_digits: int) -> "ApproximateRoot":
        """Extend the certificate by at least extra_digits digits."""
        want = self.precision + extra_digits
        z, got = certified_residue(self.target, self.p, self.unit_residue, want)
        return replace(self, unit_residue=z, precision=got)

    def unit_digits(self, m: int) -> tuple[int, ...]:
        """First m base-p digits of the unit part of the true root."""
        root = self if self.precision >= m else self.refine(m - self.precision)
        r = root.unit_residue % root.p ** m
        if self.inverted:
            r = pow(r, -1, root.p ** m)
        return tuple((r // root.p ** i) % root.p for i in range(m))
