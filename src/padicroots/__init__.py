"""Exact root counting and Newton-certified approximation over Q_p for
sparse integer polynomials (binomials and trinomials, with an adversarial
tetranomial generator), validated against a brute-force oracle."""

from .arith import ord_int, ord_rat
from .binomial import BinomialInput, separation_binomial, solve_binomial
from .newton import ApproximateRoot
from .newton_polygon import build_arch, build_padic, integral_valuation_candidates
from .nodal_tree import build_tree, s_value, stabilized_tree
from .oracle import count_qp_roots, lift_root
from .sparsepoly import SparsePoly, parse_poly
from .tetranomial import TetraFamilyParams, collision_order, generate
from .trinomial import (
    DiscriminantReport,
    PrecisionPlan,
    SolveResult,
    TrinomialInput,
    degenerate_roots_qp,
    discriminant_tri,
    precision_plan,
    solve_sparse,
    solve_trinomial,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximateRoot",
    "BinomialInput",
    "DiscriminantReport",
    "PrecisionPlan",
    "SolveResult",
    "SparsePoly",
    "TetraFamilyParams",
    "TrinomialInput",
    "build_arch",
    "build_padic",
    "build_tree",
    "collision_order",
    "count_qp_roots",
    "degenerate_roots_qp",
    "discriminant_tri",
    "generate",
    "integral_valuation_candidates",
    "lift_root",
    "ord_int",
    "ord_rat",
    "parse_poly",
    "precision_plan",
    "s_value",
    "separation_binomial",
    "solve_binomial",
    "solve_sparse",
    "solve_trinomial",
    "stabilized_tree",
]
