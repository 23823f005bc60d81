"""Command-line front end.

Subcommands: solve, count, tree, polygon, bounds, tetra, oracle.
Exit codes: 0 success, 1 computational error or bad input, 2 usage error.
Diagnostics go to stderr; results to stdout, as text or JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from . import bounds as bounds_mod
from .arith import base_p_digits, is_prime
from .binomial import separation_binomial
from .errors import InvalidParams, PadicError
from .newton_polygon import build_arch, build_padic
from .nodal_tree import build_tree
from .oracle import count_qp_roots
from .sparsepoly import ScaledPoly, SparsePoly, parse_poly
from .tetranomial import TetraFamilyParams, collision_order, generate
from .trinomial import MODE_FULL, MODES, solve_sparse


def _root_json(rt, digits: int | None):
    m = digits if digits else rt.precision
    return {
        "value": f"{rt.value.numerator}/{rt.value.denominator}",
        "valuation": str(rt.valuation),
        "digits": list(rt.unit_digits(m)),
        "degenerate": rt.degenerate,
        "multiplicity": rt.multiplicity,
    }


def _solve_json(res, f: SparsePoly, digits: int | None):
    out = {
        "p": res.p,
        "count": res.root_count,
        "mode": res.mode,
        "input": f.to_json_obj(),
        "roots": [_root_json(rt, digits) for rt in res.roots],
        "zero_root_multiplicity": res.zero_root_multiplicity,
        "normalization": {
            "candidates": [
                {"valuation": c.valuation, "k_used": c.k_used, "count": c.count}
                for c in res.candidates
            ],
        },
    }
    rep = res.discriminant
    if rep is not None:
        out["discriminant"] = {"is_zero": rep.is_zero, "method": rep.method, "r": rep.r}
    if res.reason:
        out["reason"] = res.reason
    return out


def _cmd_solve(args) -> int:
    f = parse_poly(args.poly)
    # count prints no roots, so it certifies none
    res = solve_sparse(f, args.p, mode=args.mode, certify=not args.count_only)
    if args.count_only:
        payload = {"p": res.p, "count": res.root_count, "mode": res.mode}
        print(json.dumps(payload) if args.json else f"{res.root_count}")
        return 0
    if args.json:
        print(json.dumps(_solve_json(res, f, args.digits), indent=2))
        return 0
    print(f"{res.root_count} root(s) of {f.to_text()} in Q_{args.p}")
    if res.zero_root_multiplicity:
        print(f"  0 (multiplicity {res.zero_root_multiplicity})")
    for rt in res.roots:
        m = args.digits or rt.precision
        tag = " degenerate" if rt.degenerate else ""
        print(
            f"  valuation {rt.valuation}, digits {list(rt.unit_digits(m))},"
            f" start {rt.value}{tag}"
        )
    return 0


def _cmd_polygon(args) -> int:
    f = parse_poly(args.poly)
    if args.arch:
        edges = build_arch(f)
        data = [
            {
                "slope": e.slope,
                "length": e.horizontal_length,
                "log3_isolated": e.log3_isolated,
                "collinearity_uncertain": e.collinearity_uncertain,
            }
            for e in edges
        ]
    else:
        edges = build_padic(f, args.p)
        data = [
            {"slope": str(e.slope), "length": e.horizontal_length,
             "root_valuation": str(e.root_valuation)}
            for e in edges
        ]
    if args.json:
        print(json.dumps({"edges": data}, indent=2))
    else:
        for e in data:
            print(e)
    return 0


def _cmd_tree(args) -> int:
    tree = build_tree(ScaledPoly.of(parse_poly(args.poly), args.p), args.p, args.k)
    # each node's reduction as sparse [exponent, coefficient] pairs: the
    # root node keeps the input's degree, which may be near 2^63
    if args.json:
        nodes = [
            {
                "digit_path": list(n.digits(args.p)),
                "depth": n.depth,
                "k_local": args.k - n.s_consumed,
                "s_value": n.s_step,
                "s_consumed": n.s_consumed,
                "poly_mod_p": n.reduction.terms,
                "nondegenerate_roots": n.nondegenerate_roots,
                "degenerate_roots": n.degenerate_roots,
            }
            for n in tree.root.walk()
        ]
        print(json.dumps({"p": args.p, "k": args.k, "nodes": nodes}, indent=2))
        return 0
    for n in tree.root.walk():
        pad = "  " * n.depth
        print(
            f"{pad}path={list(n.digits(args.p))} k={args.k - n.s_consumed} "
            f"s={n.s_step}/{n.s_consumed} "
            f"mod-p={[list(t) for t in n.reduction.terms]} simple={n.nondegenerate_roots} "
            f"degenerate={n.degenerate_roots}"
        )
    return 0


def _cmd_bounds(args) -> int:
    if not is_prime(args.p) or args.d < 2 or args.H < 1:
        raise InvalidParams(f"need p prime, d >= 2, H >= 1; got p={args.p}, d={args.d}, H={args.H}")
    log_H = math.log(args.H)
    out = {
        "mahler_log": bounds_mod.mahler_bound(args.d, args.H),
        "trinomial_separation_log": bounds_mod.trinomial_separation_bound(
            args.d, log_H, args.p, degenerate=args.degenerate
        ),
        "two_term_valuation": bounds_mod.two_term_valuation_bound(args.d, log_H, args.p),
        "binomial_separation": separation_binomial(max(args.d, 2), args.p, args.H).__dict__,
    }
    if args.degenerate:
        out["degenerate_gap_log"] = bounds_mod.degenerate_valuation_gap_cap(args.d, log_H, 1)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_tetra(args) -> int:
    params = TetraFamilyParams(p=args.p, h=args.h, d=args.d)
    rep = collision_order(params, args.precision)
    poly = generate(params)
    payload = {
        "poly": poly.to_json_obj(),
        "precision": rep.precision,
        "roots": [
            base_p_digits(rep.root1, args.p, rep.precision),
            base_p_digits(rep.root2, args.p, rep.precision),
        ],
        "collision_order": rep.collision_order,
        "derivative_valuation": rep.derivative_valuation,
    }
    print(json.dumps(payload, indent=2) if args.json else json.dumps(payload))
    return 0


def _cmd_oracle(args) -> int:
    f = parse_poly(args.poly)
    o = count_qp_roots(f, args.p)
    payload = {
        "p": args.p,
        "count": o.qp_count,
        "zero_root": o.zero_root,
        "degenerate_count": o.degenerate_count,
        "roots": [
            {
                "valuation": str(e["valuation"]),
                "residue": e["residue"],
                "k": e["k"],
                "degenerate": e["degenerate"],
            }
            for e in o.lifted
        ],
    }
    print(json.dumps(payload, indent=2) if args.json else json.dumps(payload))
    return 0


@functools.cache  # parsing leaves the parser unchanged; building it costs ~1 ms
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicroots",
        description="Exact root counting and Newton-certified approximation over Q_p "
        "for sparse integer polynomials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly_p(sp, p_required=True):
        sp.add_argument("poly", help="polynomial, e.g. '738 - 10*x^2 + x^20'")
        sp.add_argument("--p", type=int, required=p_required, help="prime p")
        sp.add_argument("--json", action="store_true")

    s = sub.add_parser("solve", help="count and approximate all roots in Q_p")
    add_poly_p(s)
    s.add_argument("--mode", choices=MODES, default=MODE_FULL)
    s.add_argument("--digits", type=int, default=None, help="certified digits to emit")
    s.set_defaults(func=_cmd_solve, count_only=False)

    c = sub.add_parser("count", help="root count only")
    add_poly_p(c)
    c.add_argument("--mode", choices=MODES, default=MODE_FULL)
    c.set_defaults(func=_cmd_solve, count_only=True, digits=None)

    pg = sub.add_parser("polygon", help="Newton polygon lower edges")
    add_poly_p(pg, p_required=False)
    pg.add_argument("--arch", action="store_true", help="Archimedean polygon; --p not needed")
    pg.set_defaults(func=_cmd_polygon)

    tr = sub.add_parser("tree", help="digit tree at a fixed precision")
    add_poly_p(tr)
    tr.add_argument("--k", type=int, required=True)
    tr.set_defaults(func=_cmd_tree)

    bd = sub.add_parser("bounds", help="separation/valuation bound calculators")
    bd.add_argument("--p", type=int, required=True)
    bd.add_argument("--d", type=int, required=True)
    bd.add_argument("--H", type=int, required=True)
    bd.add_argument("--degenerate", action="store_true")
    bd.set_defaults(func=_cmd_bounds)

    tt = sub.add_parser("tetra", help="colliding-root tetranomial family")
    tt.add_argument("--p", type=int, required=True)
    tt.add_argument("--h", type=int, required=True)
    tt.add_argument("--d", type=int, required=True)
    tt.add_argument("--precision", type=int, default=None)
    tt.add_argument("--json", action="store_true")
    tt.set_defaults(func=_cmd_tetra)

    orc = sub.add_parser("oracle", help="brute-force ground truth (desk scale)")
    add_poly_p(orc)
    orc.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "polygon" and args.p is None and not args.arch:
            ap.error("polygon: --p is required without --arch")
        if getattr(args, "digits", None) is not None and args.digits < 1:
            ap.error("solve: --digits must be at least 1")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PadicError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
