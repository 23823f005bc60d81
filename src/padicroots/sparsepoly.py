"""Sparse integer polynomials: parsing, evaluation, Taylor coefficients, rescaling.

A polynomial is a tuple of (exponent, coefficient) pairs, exponents strictly
increasing and at most 2^63 - 1, coefficients nonzero and arbitrary-precision;
the zero polynomial is the empty term tuple.  A rescaled polynomial is held
as its parts (ScaledPoly), so no power of p is ever built in full.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .arith import ord_int
from .errors import ExponentOverflow, ParseError

MAX_EXPONENT = 2 ** 63 - 1


@dataclass(frozen=True)
class SparsePoly:
    """Immutable sparse polynomial over Z."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = -1
        for a, c in self.terms:
            if a <= last:
                raise ParseError("exponents must be strictly increasing")
            if a > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {a} exceeds 2^63 - 1")
            if c == 0:
                raise ParseError("zero coefficients are not stored")
            last = a

    @classmethod
    def from_terms(cls, pairs) -> "SparsePoly":
        """Build from unsorted (exponent, coefficient) pairs, merging duplicates."""
        acc: dict[int, int] = {}
        for a, c in pairs:
            acc[a] = acc.get(a, 0) + c
        return cls(tuple(sorted((a, c) for a, c in acc.items() if c != 0)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return self.terms[-1][0]

    @property
    def term_count(self) -> int:
        return len(self.terms)

    # -- text and JSON output ---------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (a, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if a == 0:
                body = str(mag)
            elif a == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{a}" if mag == 1 else f"{mag}*x^{a}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def to_json_obj(self) -> dict:
        return {"terms": [[a, str(c)] for a, c in self.terms]}


_TERM_RE = re.compile(
    r"""^(?P<sign>[+-])?
        (?P<coeff>\d+)?               # optional decimal coefficient
        \*?                           # optional '*'
        (?P<var>x)?                   # optional variable
        (?:\^(?P<exp>\d+))?           # optional exponent
        $""",
    re.VERBOSE,
)


def parse_poly(text: str) -> SparsePoly:
    """Parse ``c1 + c2*x^a2 + ...`` with arbitrary-precision coefficients.

    Accepts implicit coefficients (``x^5``, ``-x``), an optional ``*``, and
    any term order.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    chunks = [c for c in re.split(r"(?=[+-])", s) if c]
    pairs = []
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"cannot parse term {chunk!r}")
        if m.group("var") is None and m.group("exp") is not None:
            raise ParseError(f"exponent without variable in {chunk!r}")
        sign = -1 if m.group("sign") == "-" else 1
        try:  # int() refuses digit strings over the interpreter's limit
            coeff = sign * int(m.group("coeff") or 1)
            a = int(m.group("exp") or 1) if m.group("var") else 0
        except ValueError as exc:
            raise ParseError(f"cannot read {chunk[:40]!r}...: {exc}") from exc
        if a > MAX_EXPONENT:
            raise ExponentOverflow(f"exponent {a} exceeds 2^63 - 1")
        pairs.append((a, coeff))
    poly = SparsePoly.from_terms(pairs)
    if poly.is_zero:
        raise ParseError("polynomial is identically zero")
    return poly


@dataclass(frozen=True, slots=True)
class ScaledPoly:
    """g = sum u_i p^(s_i) x^(a_i), held as its parts (a_i, u_i, s_i) and p.

    A read reduces p^(s_i) mod the modulus it asks for, one pow per part of
    s_i > 0, so a p^(s_i) of 10^12 bits is never built.  There is no
    `.terms`: a reader taking u_i for a coefficient would be silently wrong.
    """

    p: int
    parts: tuple[tuple[int, int, int], ...]

    @classmethod
    def of(cls, f: SparsePoly, p: int) -> "ScaledPoly":  # f itself: every s_i = 0
        return cls(p, tuple([(a, c, 0) for a, c in f.terms]))

    def reduction(self) -> SparsePoly:
        """g mod p: the parts with s_i = 0, their u_i reduced."""
        return SparsePoly(tuple([(a, u % self.p) for a, u, s in self.parts if not s and u % self.p]))

    def eval_mod(self, x: int, m: int) -> tuple[int, int]:
        """(g(x) mod m, g'(x) mod m), the one evaluator: x^(a-1) serves both."""
        fv = dv = 0
        for a, u, s in self.parts:
            if s:
                u *= pow(self.p, s, m)
            if a:
                power = pow(x, a - 1, m)
                fv += u * power * x
                dv += a * u * power
            else:
                fv += u
        return fv % m, dv % m


# -- evaluation and calculus ----------------------------------------------


def taylor_coeffs_mod(g: ScaledPoly, zeta: int, p: int, k: int, jmax: int) -> list[int]:
    """Taylor coefficients U_j = g^(j)(zeta)/j! mod p^k for j = 0..jmax.

    U_j = sum_i c_i * C(a_i, j) * zeta^(a_i - j), c_i = u_i p^(s_i) mod p^k;
    binomials over huge exponents stay cheap because only jmax + 1 columns
    are needed.
    """
    m = p ** k
    zeta %= m
    out = [0] * (jmax + 1)
    for a, c, s in g.parts:
        c = c * pow(p, s, m) % m if s else c % m
        top = min(a, jmax)
        # walk j downward so the power of zeta only ever gets multiplied
        power = pow(zeta, a - top, m)
        for j in range(top, -1, -1):
            out[j] = (out[j] + c * (math.comb(a, j) % m) * power) % m
            power = power * zeta % m
    return out


def strip_zero_root(f: SparsePoly) -> tuple[SparsePoly, int]:
    """Divide out x^a1; returns (f / x^a1, a1)."""
    a1 = f.terms[0][0]
    if a1 == 0:
        return f, 0
    return SparsePoly(tuple((a - a1, c) for a, c in f.terms)), a1


def rescale_for_valuation(f: SparsePoly, p: int, v: int) -> ScaledPoly:
    """Integerized, content-free image of f(p^v x), held as its parts.

    Roots of f with ord_p = v correspond to unit roots of the result.  With
    c_i = u_i p^(o_i), p not dividing u_i, and e_i = o_i + v a_i, the result
    is g = sum u_i p^(e_i - m) x^(a_i) with m = min e_i, so
    g(x) p^m = f(p^v x) for every sign of v.  It is the parts
    (a_i, u_i, e_i - m): no power of p is built, at any valuation or degree.
    """
    parts = [(a, c // p ** o, o + v * a) for a, c in f.terms for o in [ord_int(c, p)]]
    m = min(e for _, _, e in parts)
    return ScaledPoly(p, tuple((a, u, e - m) for a, u, e in parts))
