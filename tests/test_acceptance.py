"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the corpus-backed criteria share one module-scoped corpus build.
"""

import itertools
import math
import random
import time

import pytest

from padicroots.arith import ord_int
from padicroots.binomial import separation_binomial
from padicroots.bounds import (
    degenerate_valuation_gap_cap,
    trinomial_separation_bound,
)
from padicroots.errors import BudgetExceeded
from padicroots.newton_polygon import build_arch, build_padic, integral_valuation_candidates
from padicroots.nodal_tree import (
    build_tree,
    nodal_degree_cap,
    s_value,
    shift_rescale,
)
from padicroots.oracle import count_qp_roots, lift_root
from padicroots.sparsepoly import (
    ScaledPoly,
    SparsePoly,
    parse_poly,
    strip_zero_root,
)
from padicroots.tetranomial import TetraFamilyParams, collision_order, generate
from padicroots.trinomial import TrinomialInput, discriminant_tri, solve_sparse
from tests.conftest import (
    degenerate_trinomial,
    random_binomial,
    random_trinomial,
    smale_gains,
)
from tests.reference import (
    aux_polys, content_p, delta_tri, max_abs_coeff, mod_p_coeffs, reconstruct_node_poly,
)

TRINOMIAL_CORPUS_SIZE = 3000
BINOMIAL_CORPUS_SIZE = 2000
CORPUS_PRIMES = [2, 3, 5, 7, 11, 13]


def _report(criterion: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] {state} {criterion}" + (f" - {detail}" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def corpus():
    """Criterion-2 corpus: (poly, p, solver result, oracle result) tuples."""
    rng = random.Random(0xACCE97)
    entries = []
    skipped = 0
    t0 = time.time()
    while len([e for e in entries if e["kind"] == "trinomial"]) < TRINOMIAL_CORPUS_SIZE:
        f = random_trinomial(rng, d_max=40, h_max=50)
        p = rng.choice(CORPUS_PRIMES)
        try:
            oracle = count_qp_roots(f, p)
        except BudgetExceeded:
            skipped += 1
            continue
        entries.append(
            {"kind": "trinomial", "f": f, "p": p, "solve": solve_sparse(f, p), "oracle": oracle}
        )
    while len([e for e in entries if e["kind"] == "binomial"]) < BINOMIAL_CORPUS_SIZE:
        f = random_binomial(rng, d_max=40, h_max=50)
        p = rng.choice(CORPUS_PRIMES)
        try:
            oracle = count_qp_roots(f, p)
        except BudgetExceeded:
            skipped += 1
            continue
        entries.append(
            {"kind": "binomial", "f": f, "p": p, "solve": solve_sparse(f, p), "oracle": oracle}
        )
    elapsed = time.time() - t0
    return {"entries": entries, "skipped": skipped, "elapsed": elapsed}


def test_criterion_1_worked_examples():
    t0 = time.time()
    assert solve_sparse(parse_poly("1 - x^397"), 17).root_count == 1
    res340 = solve_sparse(parse_poly("1 - x^340"), 17)
    assert res340.root_count == 4
    digits = sorted(rt.unit_digits(2) for rt in res340.roots)
    assert digits == sorted([(1, 0), (4, 2), (13, 14), (16, 16)])
    assert solve_sparse(parse_poly("x^10 + 11*x^2 - 12"), 2).root_count == 6
    assert solve_sparse(parse_poly("x^20 - 10*x^2 + 738"), 3).root_count == 8
    f = ScaledPoly.of(parse_poly("x^10 - 10*x + 738"), 3)
    u = shift_rescale(f, 1, 0, 0, 3, 6)  # one expansion gives s and the child
    assert s_value(u, 3, 6) == 4
    (child,) = [ch for ch in build_tree(f, 3, 6).root.children if ch.mu == 1]
    assert child.s_step == 4
    assert mod_p_coeffs(child) == [0, 0, 2, 1]  # x^3 + 2x^2
    for p in (2, 3, 5):
        tree = build_tree(ScaledPoly.of(SparsePoly(((2, 1),)), p), p, 9)
        depth = max(n.depth for n in tree.root.walk())
        assert depth == 4 and tree.node_count == 5  # chain of length 4
    elapsed = time.time() - t0
    assert _report("criterion 1 (worked-example reproduction)", elapsed < 5.0, f"{elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence(corpus):
    bad = []
    for e in corpus["entries"]:
        if e["solve"].root_count != e["oracle"].qp_count:
            bad.append((e["f"].to_text(), e["p"], e["solve"].root_count, e["oracle"].qp_count))
    n_tri = sum(1 for e in corpus["entries"] if e["kind"] == "trinomial")
    n_bi = sum(1 for e in corpus["entries"] if e["kind"] == "binomial")
    ok = not bad and n_tri >= 3000 and n_bi >= 2000 and corpus["elapsed"] < 600
    _report(
        "criterion 2 (oracle equivalence)",
        ok,
        f"{n_tri} trinomials + {n_bi} binomials, {corpus['skipped']} skipped, "
        f"{corpus['elapsed']:.1f}s, {len(bad)} mismatches",
    )
    assert not bad, bad[:5]
    assert n_tri >= 3000 and n_bi >= 2000
    assert corpus["elapsed"] < 600


def test_criterion_3_smale_convergence(corpus):
    checked = 0
    failures = []
    for e in corpus["entries"]:
        for rt in e["solve"].roots:
            e0, gains = smale_gains(rt)
            if e0 is None:
                continue  # start already exact at working precision
            for i, ei in enumerate(gains, start=1):
                if ei is None:
                    break
                if ei - e0 < 2 ** i:
                    failures.append((e["f"].to_text(), e["p"], i, e0, ei))
                    break
            checked += 1
    _report(
        "criterion 3 (Smale convergence)",
        not failures,
        f"{checked} roots, {len(failures)} failures",
    )
    assert not failures, failures[:5]
    assert checked > 2000


def test_criterion_4_newton_polygon_counting():
    rng = random.Random(0x9047)
    done = 0
    while done < 500:
        f = random_trinomial(rng, d_max=25, h_max=30)
        p = rng.choice([2, 3, 5])
        inp, _ = TrinomialInput.from_poly(f, p)
        if discriminant_tri(inp).is_zero:
            continue  # square-free corpus
        try:
            oracle = count_qp_roots(f, p)
        except BudgetExceeded:
            continue
        lengths = dict(integral_valuation_candidates(f, p))
        for v, roots in oracle.unit_roots_by_valuation.items():
            if roots:
                assert v in lengths and len(roots) <= lengths[v], (f.to_text(), p, v)
        done += 1
    padic = build_padic(parse_poly("729*x^5 - x^2 + 18*x - 81"), 3)
    assert [e.horizontal_length for e in padic] == [2, 3]
    arch = build_arch(parse_poly("x^5 - 64*x^2 + 32*x - 4"))
    assert [e.horizontal_length for e in arch] == [1, 1, 3]
    _report("criterion 4 (Newton-polygon counting)", True, f"{done} square-free trinomials")


def test_criterion_5_tree_invariants():
    rng = random.Random(0x7EE5)
    trees = 0
    for _ in range(250):
        f = random_trinomial(rng, d_max=25, h_max=30)
        p = rng.choice([2, 3, 5])
        if content_p(f, p):
            continue
        k = rng.randint(3, 12)
        tree = build_tree(ScaledPoly.of(f, p), p, k)  # depth/degree asserted inside
        depth = max(n.depth for n in tree.root.walk())
        assert depth <= (k - 1) // 2
        cap = nodal_degree_cap(p)
        for n in tree.root.walk():
            if n.depth >= 1 and n.mu % p != 0:
                assert n.reduction.degree <= cap
            if n.depth >= 1:
                rebuilt = reconstruct_node_poly(f, p, k, n)
                assert SparsePoly.from_terms((a, c % p) for a, c in rebuilt.terms) == n.reduction
        if dict(f.terms).get(0, 0) % p:
            nu = len(tree.root.degenerate_roots)
            assert tree.node_count <= 1 + max(2 * depth - 1, 0) * nu
        trees += 1
    _report("criterion 5 (tree invariants)", True, f"{trees} trees checked")
    assert trees > 150


def test_criterion_6_tetranomial_collision():
    t0 = time.time()
    derivative_failures = []
    for p in (2, 3, 5):
        orders = []
        for d in (4, 6, 8, 10):
            params = TetraFamilyParams(p=p, h=3, d=d)
            rep = collision_order(params)
            assert rep.collision_order >= (params.h - 1) * d // 2
            orders.append(rep.collision_order)
            # the largest coefficient has at most 2h + 1 base-p digits
            assert max_abs_coeff(generate(params)) < p ** (2 * params.h + 1)
            # derivative valuation at both colliding roots, checked on
            # f = x^d - p^(-2h) (x - p^(h-1))^2 (subtract 2h to undo the
            # integerizing p^(2h) factor).  With z_i = p^(h-1) + p^s y_i,
            # s = (h-1)d/2 + h and y_i a unit,
            #   f'(z) = d z^(d-1) - 2 p^(-2h) (z - p^(h-1)):
            # the first term has valuation ord_p(d) + (h-1)(d-1), the second
            # s - 2h + ord_p(2), smaller by at least (h-1)d/2, so nothing
            # cancels and ord_p f'(z_i) = (h-1)d/2 - h + ord_p(2).  The
            # formula ord_p(d) + (h-1)(d-1) once asserted here is the
            # valuation of the x^d term alone, not of f'.
            claimed = (params.h - 1) * d // 2 - params.h + ord_int(2, p)
            measured = rep.derivative_valuation - 2 * params.h
            if measured != claimed:
                derivative_failures.append((p, d, "f'", measured, claimed))
            # product formula for F = p^(2h) f: F'(z_1) = p^(2h) (z_1 - z_2)
            # prod (z_1 - z_j) over the other d-2 roots, each of valuation
            # -2h/(d-2) < h-1, which contribute -2h in total, so
            # ord_p F'(z_i) = ord_p(z_1 - z_2) exactly
            if rep.derivative_valuation != rep.collision_order:
                derivative_failures.append(
                    (p, d, "F' vs collision", rep.derivative_valuation, rep.collision_order)
                )
        slopes = [(b - a) / 2 for a, b in zip(orders, orders[1:])]
        assert all(s >= (3 - 1) / 2 * 0.99 for s in slopes)
    elapsed = time.time() - t0
    assert elapsed < 60
    ok = not derivative_failures
    _report(
        "criterion 6 (tetranomial collision)",
        ok,
        f"collision/growth/coefficient checks pass in {elapsed:.1f}s; "
        f"derivative-valuation mismatches: {derivative_failures}",
    )
    assert not derivative_failures, (
        "expected ord_p f'(z_i) = (h-1)d/2 - h + ord_p(2) (the x^d term's valuation "
        "ord_p(d) + (h-1)(d-1) is larger, so the -2p^(-2h)(x - p^(h-1)) term decides) "
        "and ord_p F'(z_i) = ord_p(z_1 - z_2) by the product formula; "
        f"mismatches as (p, d, check, measured, expected): {derivative_failures}"
    )


def _pair_ords(oracle, p):
    """ord_p(z1 - z2) for all distinct oracle root pairs, via deep lifts."""
    lifted = []
    for entry in oracle.lifted:
        res = lift_root(entry["encoding"], p, entry["residue"], 50)
        lifted.append((entry["valuation"], res))
    if oracle.zero_root:
        lifted.append((None, 0))
    out = []
    for (v1, r1), (v2, r2) in itertools.combinations(lifted, 2):
        if v1 is None or v2 is None:
            v = v1 if v2 is None else v2
            out.append(v)  # distance to 0 is the root's own valuation
            continue
        if v1 != v2:
            out.append(min(v1, v2))
            continue
        diff = (r1 - r2) % p ** 50
        if diff == 0:
            continue  # unresolved at 50 digits; cannot falsify the bound
        out.append(v1 + ord_int(diff, p))
    return out


def test_criterion_7_separation_soundness(corpus):
    violations = []
    pairs = 0
    for e in corpus["entries"]:
        f, p, oracle = e["f"], e["p"], e["oracle"]
        if oracle.qp_count < 2:
            continue
        H = max_abs_coeff(f)
        d = f.degree - strip_zero_root(f)[1]
        if e["kind"] == "binomial":
            if d < 2:
                continue
            cap = separation_binomial(d, p, H).padic
            for o in _pair_ords(oracle, p):
                pairs += 1
                if abs(o) * math.log(p) > cap + 1e-9:
                    violations.append((f.to_text(), p, o, cap))
        else:
            inp, _ = TrinomialInput.from_poly(f, p)
            rep = discriminant_tri(inp)
            bound = trinomial_separation_bound(
                d, math.log(H), p, degenerate=rep.is_zero, a2=inp.a2, r=rep.r
            )
            for o in _pair_ords(oracle, p):
                pairs += 1
                if -o * math.log(p) < bound - 1e-9:
                    violations.append((f.to_text(), p, o, bound))

    # degenerate-family gap checks
    rng = random.Random(0xDE94)
    gap_checked = 0
    for _ in range(200):
        f = degenerate_trinomial(rng)
        p = rng.choice([2, 3, 5, 7])
        res = solve_sparse(f, p)
        degs = [rt for rt in res.roots if rt.degenerate]
        simples = [rt for rt in res.roots if not rt.degenerate]
        if not degs or not simples:
            continue
        d = f.degree - strip_zero_root(f)[1]
        r = res.discriminant.r
        cap = degenerate_valuation_gap_cap(d, math.log(max_abs_coeff(f)), r) / math.log(p)
        for tau in degs:
            for z in simples:
                if tau.valuation != z.valuation:
                    gap = min(tau.valuation, z.valuation)
                else:
                    a = tau.refine(40)
                    b = z.refine(40)
                    m = p ** min(a.precision, b.precision)
                    gap = tau.valuation + ord_int((a.unit_residue - b.unit_residue) % m, p)
                if abs(gap) > cap + 1e-9:
                    violations.append((f.to_text(), p, "degenerate-gap", gap, cap))
                gap_checked += 1
    ok = not violations
    _report(
        "criterion 7 (separation soundness)",
        ok,
        f"{pairs} oracle pairs + {gap_checked} degenerate gaps, {len(violations)} violations",
    )
    assert not violations, violations[:5]
    assert pairs > 500 and gap_checked > 20


def test_criterion_8_identity_suite():
    for ab3 in range(2, 61):
        for ab2 in range(1, ab3):
            if math.gcd(ab2, ab3) != 1:
                continue
            ap = aux_polys(ab2, ab3)  # verifies q = Q (x-1)^2 exactly
            assert ap.q_at_one_cofactor == ab2 * ab3 * (ab3 - ab2) // 2
    rng = random.Random(0x1DE7)
    for _ in range(200):
        c1 = rng.choice([x for x in range(-50, 51) if x])
        c2 = rng.choice([x for x in range(-50, 51) if x])
        c3 = rng.choice([x for x in range(-50, 51) if x])
        inp = TrinomialInput(c1, c2, c3, 1, 2, 5)
        classical = c2 * c2 - 4 * c1 * c3
        assert abs(delta_tri(inp)) == abs(classical)
        assert discriminant_tri(inp).is_zero == (classical == 0)
    _report("criterion 8 (identity suite)", True, "abar3 <= 60 exhaustive + 200 quadratics")


def _best_solve_time(f, p):
    """The least of 5 solve times, after checking the count is >= 1."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res = solve_sparse(f, p)
        best = min(best, time.perf_counter() - t0)
    assert res.root_count >= 1
    return best


def _log_log_slope(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    n = len(points)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    return sum((x - xbar) * (y - ybar) for x, y in points) / sum((x - xbar) ** 2 for x in xs)


def test_criterion_9_bench_polylog_growth():
    rng = random.Random(0xBE9C)
    p, H = 3, 50
    points = []
    oracle_time = None
    for exp in range(6, 21):
        d = 2 ** exp
        a2 = rng.randint(1, d - 1)
        c2, c3 = rng.randint(1, H), rng.randint(1, H)
        # c1 = -(c2 + c3) plants the root x = 1, so every timed solve
        # exercises the digit-tree pipeline, not just the rejection tests
        f = SparsePoly.from_terms([(0, -(c2 + c3)), (a2, c2), (d, c3)])
        points.append((math.log(d), math.log(_best_solve_time(f, p))))
        if exp == 6:
            t0 = time.perf_counter()
            count_qp_roots(f, p)
            oracle_time = time.perf_counter() - t0
    # v != 0 up to d = 2^62: c1 = -3 c2 plants a root 3(1 + O(3)) at
    # valuation 1, whose rescale holds 3^(d - 1 + ord_3 c3) as a part
    wide = []
    for exp in range(6, 63, 4):
        d = 2 ** exp + rng.randint(0, 2 ** (exp - 1))
        c2 = rng.choice([c for c in range(1, H // 3 + 1) if c % 3])
        f = SparsePoly.from_terms([(0, -3 * c2), (1, c2), (d, rng.randint(1, H))])
        wide.append((math.log(d), math.log(_best_solve_time(f, p))))
    slope, wide_slope = _log_log_slope(points), _log_log_slope(wide)
    _report(
        "criterion 9 (polylog growth in d)",
        slope < 0.2 and wide_slope < 0.2,
        f"log-log slope {slope:.4f} over d in 2^6..2^20, {wide_slope:.4f} over "
        f"d in 2^6..2^62 at v = 1; "
        f"oracle at d=64 took {1000 * oracle_time:.2f}ms vs solver "
        f"{1000 * math.exp(points[0][1]):.2f}ms",
    )
    assert slope < 0.2, slope
    assert wide_slope < 0.2, wide_slope
