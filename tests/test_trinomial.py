import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padicroots.nodal_tree
import padicroots.trinomial
from padicroots.arith import is_prime, ord_int
from padicroots.bounds import degenerate_valuation_gap_cap
from padicroots.errors import (
    BudgetExceeded,
    InvalidParams,
    InvariantViolated,
)
from padicroots.fp import gcd_with_frobenius, roots_fp_memo
from padicroots.newton import certified_residue
from padicroots.nodal_tree import RepeatedRootCut, build_tree
from padicroots.oracle import count_qp_roots
from padicroots.sparsepoly import (
    ScaledPoly, SparsePoly, parse_poly, rescale_for_valuation, strip_zero_root,
)
from padicroots.trinomial import (
    MODE_FULL,
    MODE_RESTRICTED,
    TrinomialInput,
    cut_depth,
    degenerate_roots_qp,
    discriminant_tri,
    precision_plan,
    solve_sparse,
)
from tests.conftest import (
    degenerate_trinomial,
    oracle_reference_lift,
    random_trinomial,
    smale_gains,
)
from tests.reference import delta_tri, max_abs_coeff, newton_step, value_and_derivative


def test_discriminant_examples():
    inp = TrinomialInput(1, -2, 1, 1, 2, 5)
    rep = discriminant_tri(inp)
    assert rep.is_zero and delta_tri(inp) == 0 and rep.T == 1
    inp = TrinomialInput(1, 1, 1, 1, 2, 5)
    rep = discriminant_tri(inp)
    assert delta_tri(inp) == 3 and not rep.is_zero  # |classical disc of x^2+x+1| = 3
    assert rep.T is None
    rep = discriminant_tri(TrinomialInput(4, -4, 1, 1, 2, 7))
    assert rep.is_zero and rep.T == 2 and rep.method == "exact"


def test_discriminant_quadratic_matches_classical(rng):
    for _ in range(200):
        c1 = rng.choice([x for x in range(-50, 51) if x])
        c2 = rng.choice([x for x in range(-50, 51) if x])
        c3 = rng.choice([x for x in range(-50, 51) if x])
        inp = TrinomialInput(c1, c2, c3, 1, 2, 5)
        rep = discriminant_tri(inp)
        classical = c2 * c2 - 4 * c1 * c3
        assert abs(delta_tri(inp)) == abs(classical)
        assert rep.is_zero == (classical == 0)


def test_discriminant_huge_exponents():
    inp = TrinomialInput(3, -7, 5, 12345, 2 ** 40, 3)
    rep = discriminant_tri(inp)
    assert rep.r == 1 and rep.T is None and not rep.is_zero
    # (x^n - 1)^2 reduces to abar3 = 2: x^(2^30) = 1
    inp2 = TrinomialInput(1, -2, 1, 2 ** 30, 2 ** 31, 3)
    rep2 = discriminant_tri(inp2)
    assert rep2.r == 2 ** 30 and rep2.T == 1 and rep2.is_zero
    # a vanishing discriminant with coprime huge exponents:
    # q(x) = (abar3 - abar2) - abar3 x^abar2 + abar2 x^abar3, double root 1
    n = 2 ** 30 + 1
    inp3 = TrinomialInput(n - 2, -n, 2, 2, n, 3)
    rep3 = discriminant_tri(inp3)
    assert rep3.r == 1 and rep3.T == 1 and rep3.is_zero


def _q(ab2, ab3, r, u):
    """q_{ab2,ab3}(u x^r), denominators cleared: a double root at x^r = 1/u."""
    u = Fraction(u)
    s, t = u.numerator, u.denominator
    return SparsePoly.from_terms(
        [
            (0, (ab3 - ab2) * t ** ab3),
            (ab2 * r, -ab3 * s ** ab2 * t ** (ab3 - ab2)),
            (ab3 * r, ab2 * s ** ab3),
        ]
    )


def test_discriminant_matches_delta_tri(rng):
    """is_zero exactly when delta_tri vanishes, and then T^abar2 = A and
    T^abar3 = B, on 20000 inputs with abar3 <= 60: half random, half from
    the degenerate family with negative and rational u, some of those with
    one coefficient changed."""
    zeros = 0
    for i in range(20000):
        ab3 = rng.randint(2, 60)
        ab2 = rng.randint(1, ab3 - 1)
        r = rng.choice([1, 1, 2, 3])
        if i % 2:
            g = math.gcd(ab2, ab3)
            ab2, ab3 = ab2 // g, ab3 // g
            u = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3, 4]))
            c = rng.choice([1, -1, 2, -3])
            terms = [(a, c * k) for a, k in _q(ab2, ab3, r, u).terms]
            if rng.random() < 0.3:  # a near miss: one coefficient changed
                j = rng.randrange(3)
                terms[j] = (terms[j][0], terms[j][1] * rng.choice([-1, 2, 4, -8]))
            (_, c1), (a2, c2), (a3, c3) = terms
        else:
            c1, c2, c3 = (rng.choice([x for x in range(-30, 31) if x]) for _ in range(3))
            a2, a3 = ab2 * r, ab3 * r
        inp = TrinomialInput(c1, c2, c3, a2, a3, 5)
        rep = discriminant_tri(inp)
        assert rep.is_zero == (delta_tri(inp) == 0), (c1, c2, c3, a2, a3)
        if rep.is_zero:
            zeros += 1
            A = Fraction(-c1 * a3, (a3 - a2) * c2)
            B = Fraction(c1 * a2, (a3 - a2) * c3)
            assert rep.T ** rep.abar2 == A and rep.T ** rep.abar3 == B
    assert zeros > 5000


def _pool_primes():
    """The 128 primes of the modular vanishing test this exact test replaced."""
    rng = random.Random("62-bit prime pool")
    pool = []
    while len(pool) < 128:
        q = rng.getrandbits(62) | (1 << 61) | 1
        if is_prime(q):
            pool.append(q)
    return pool


def test_discriminant_not_fooled_by_a_modular_false_zero():
    """c1 - x^10000 + x^10001 with c1 chosen by CRT so that
    delta_tri = 10001^10001 c1 - 10000^10000 vanishes mod every prime of the
    old 62-bit pool: a modular test then calls it degenerate.  It is not,
    and the counts are those the oracle gives (0, 1, 1 at p = 3, 5, 7; the
    oracle takes about 45 s each on a 2-vCPU VM, so they are pinned)."""
    pool = _pool_primes()
    c1, m = 0, 1
    for q in pool:
        want = pow(10000, 10000, q) * pow(10001, -10001, q) % q
        c1 += m * ((want - c1) * pow(m, -1, q) % q)
        m *= q
    inp = TrinomialInput(c1, -1, 1, 10000, 10001, 3)
    assert all(delta_tri(inp) % q == 0 for q in pool) and delta_tri(inp) != 0
    rep = discriminant_tri(inp)
    assert not rep.is_zero
    assert degenerate_roots_qp(inp, rep).roots == []
    f = inp.poly
    assert [solve_sparse(f, p).root_count for p in (3, 5, 7)] == [0, 1, 1]


@pytest.mark.parametrize(
    "f, p, want",
    [
        # x = 1 is a double root; the v = 1 rescale holds 3^(2^30 - 1) as a
        # part, and v = 1 comes first in polygon order
        (SparsePoly.from_terms([(0, 2 ** 30 - 1), (2, -(2 ** 30 + 1)), (2 ** 30 + 1, 2)]), 3,
         "oracle"),
        (SparsePoly.from_terms([(0, 9999), (2, -10001), (10001, 2)]), 3, "oracle"),
        (_q(2, 4001, 2, 2), 5, "oracle"),  # x^2 = 1/2 has no root in Q_5
        (SparsePoly.from_terms([(0, 10 ** 6), (1, -(10 ** 6 + 1)), (10 ** 6 + 1, 1)]), 5,
         "oracle"),
        # (1 - 3^400 x)^2: height above 10^300
        (SparsePoly.from_terms([(0, 1), (1, -2 * 3 ** 400), (2, 3 ** 800)]), 5, "oracle"),
        (_q(2, 4001, 1, 2), 7, "oracle"),
    ],
)
def test_degenerate_inputs_at_large_degree_and_height(f, p, want):
    """Each gives the oracle's count, within 1 s per solve.  (a) and (d)
    rescale to a power of p of about 10^9 and 10^6 bits, held as a part and
    never built (each certificate refines by 100 digits).  (b) has a cut
    depth N = 3 (ord_3(10001 * 9999) = 2; the height-based depth was 41):
    its tree at the cap is mature, and it gets the oracle's count, 2.  (f)
    has N = 1, since 7 divides neither 4001 nor 3999 (the height-based
    depth was 1442, a digit chain of 1442 nodes), and it gets the oracle's
    count, 1.
    The count-only path (`padicroots count`) gives the same outcome."""
    assert want == "oracle"
    for certify in (True, False):
        t0 = time.perf_counter()
        res = solve_sparse(f, p, certify=certify)
        assert time.perf_counter() - t0 < 1
        assert res.root_count == count_qp_roots(f, p).qp_count
        for rt in res.roots:
            assert rt.refine(100).precision == rt.precision + 100


@pytest.mark.parametrize("text, p", [
    ("3 - x + x^1099511627776", 3),
    ("9 - x^2 + x^1073741824", 3),
    ("4 - 2*x + x^1152921504606846976", 2),
])
def test_huge_rescale_certificates_refine(text, p):
    """The v = 1 rescale of each holds a power of p of 10^9 to 10^18 bits
    as a part.  Both paths get the oracle's count within 1 s, and every
    certificate refines by 100 digits and to 5000, each probe reading that
    power mod its own p^N: plain `pow` sums over the target's parts vanish
    at the refined residue."""
    f = parse_poly(text)
    want = count_qp_roots(f, p).qp_count
    for certify in (True, False):
        t0 = time.perf_counter()
        res = solve_sparse(f, p, certify=certify)
        assert time.perf_counter() - t0 < 1
        assert res.root_count == want
    res = solve_sparse(f, p)
    assert len(res.roots) == want
    for rt in res.roots:
        for extra in (100, 5000 - rt.precision):
            deep = rt.refine(extra)
            assert deep.precision == rt.precision + extra
            assert value_and_derivative(rt.target, deep.unit_residue, p ** deep.precision)[0] == 0


def test_deep_digit_chain_costs_a_polynomial_in_its_depth():
    """(n-2) - 4n x^2 + 2^(n+1) x^n, a double root at x = 1/2, at p = 3 with
    n = 801.  The solver cuts its chain at N = 3, since ord_3(801 * 799) = 2,
    but any depth >= N is sound.  Cut at 529, the height-based depth of the
    paper's repulsion bound, the tree has a digit chain of 529 nodes and
    must still find the simple root.  Each node keeps only its reduction
    mod p and each digit costs one Taylor expansion of the sparse input, so
    the tree takes about 0.1 s; a dense node polynomial per digit took
    4.7-6.4 s on a 2-vCPU VM."""
    f = _q(2, 801, 1, 2)
    inp, _ = TrinomialInput.from_poly(f, 3)
    report = discriminant_tri(inp)
    assert report.T == Fraction(1, 2) and cut_depth(report.abar2, report.abar3, 1, 3) == 3
    assert count_qp_roots(f, 3).qp_count == 2
    cut = RepeatedRootCut(depth=529, num=1, den=2, r=1, ell=0)
    t0 = time.perf_counter()
    k = precision_plan(inp, report, math.log(max_abs_coeff(f))).k
    tree = build_tree(ScaledPoly.of(f, 3), 3, k, root_digits="nonzero", cut=cut)
    assert time.perf_counter() - t0 < 1
    nodes = list(tree.root.walk())
    assert tree.k_mature <= tree.k and max(node.depth for node in nodes) == 528
    assert 1 + sum(node.n_p for node in nodes) == 2  # the double root 1/2, and one simple root
    for certify in (True, False):
        t0 = time.perf_counter()
        assert solve_sparse(f, 3, certify=certify).root_count == 2
        assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("d", [100_000, 1_000_000])
def test_rescale_cost_does_not_grow_with_degree(d):
    """3 - x + x^d at p = 3: rescaling from the coefficients' orders builds
    each coefficient once at its final size.  Building 3^d first and then
    dividing the content out one p at a time took 5.5 s at d = 10^5 and
    574 s at d = 10^6 on a 2-vCPU Xeon VM.  The count 1 at both
    degrees is the one build-then-strip gave, pinned because the oracle's
    own rescale is as slow."""
    t0 = time.perf_counter()
    assert solve_sparse(parse_poly(f"3 - x + x^{d}"), 3).root_count == 1
    assert time.perf_counter() - t0 < 1


def test_unit_digits_cost_one_divmod_per_digit():
    """20000 digits of the one root of 2 - x^2 + 3x^5 in Q_7, from a
    certificate already refined that far.  Building p^i anew for every
    digit took 26 s on a 2-vCPU VM; one divmod per digit takes 0.2 s."""
    (rt,) = solve_sparse(parse_poly("2 - x^2 + 3*x^5"), 7).roots
    rt = rt.refine(20000 - rt.precision)
    t0 = time.perf_counter()
    digits = rt.unit_digits(20000)
    assert time.perf_counter() - t0 < 5
    expected, r = [], rt.unit_residue
    for _ in range(20000):
        r, z = divmod(r, 7)
        expected.append(z)
    assert digits == tuple(expected) and digits[:2] == (5, 6)


def test_degenerate_roots_examples():
    inp = TrinomialInput(1, -2, 1, 1, 2, 5)
    roots = degenerate_roots_qp(inp, discriminant_tri(inp)).roots
    assert len(roots) == 1 and roots[0].value == 1 and roots[0].multiplicity == 2
    inp = TrinomialInput(4, -4, 1, 1, 2, 7)
    roots = degenerate_roots_qp(inp, discriminant_tri(inp)).roots
    assert len(roots) == 1 and roots[0].value == 2
    inp = TrinomialInput(1, -2, 1, 3, 6, 7)  # (x^3 - 1)^2
    roots = degenerate_roots_qp(inp, discriminant_tri(inp)).roots
    assert sorted(r.unit_digits(1)[0] for r in roots) == [1, 2, 4]
    assert all(r.degenerate for r in roots)


def test_cut_depth_exact_values():
    """N = max(ord_p psi(0), ord_p r) + 1, psi(0) = abar2 abar3 (abar3 - abar2) / 2."""
    # a2 = 1, a3 = 2: psi(0) = 1, so a simple root shares no digit with a
    # double root, at every p
    assert [cut_depth(1, 2, 1, p) for p in (2, 3, 5, 7, 99991)] == [1] * 5
    # 27 - 28x + x^28, a double root at 1: psi(0) = 378 = 2 * 3^3 * 7
    assert cut_depth(1, 28, 1, 3) == 4
    assert cut_depth(1, 28, 1, 7) == 2 and cut_depth(1, 28, 1, 5) == 1
    # 4 - 5103 x^3 + 14348907 x^7: psi(0) = 42 = 2 * 3 * 7
    assert cut_depth(3, 7, 1, 3) == 2
    # abar2 = 1, abar3 = 5 at p = 2: psi(0) = 10
    assert cut_depth(1, 5, 1, 2) == 2
    # the ell + 1 floor: (1 - x^r)^2 with r = 3^10 has psi(0) = 1 and
    # ord_3 r = 10
    assert cut_depth(1, 2, 3 ** 10, 3) == 11
    assert cut_depth(1, 28, 3 ** 10, 3) == 11 and cut_depth(1, 28, 9, 3) == 4


def test_cut_depth_is_tight(monkeypatch):
    """4 - 5103 x^3 + 14348907 x^7 = 4 - 3^6 7 x^3 + 3^15 x^7 at p = 3 has a
    double root and a simple root, both at valuation -2, whose unit parts
    share one digit.  Cut at N = 2, the valuation's tree finds the simple
    root; cut one digit shallower, it finds none."""
    f = parse_poly("4 - 5103*x^3 + 14348907*x^7")
    assert count_qp_roots(f, 3).qp_count == 2
    for certify in (True, False):
        res = solve_sparse(f, 3, certify=certify)
        assert res.root_count == 2
        assert [(c.valuation, c.count) for c in res.candidates] == [(-2, 1)]
    monkeypatch.setattr(padicroots.trinomial, "cut_depth", lambda *a: cut_depth(*a) - 1)
    for certify in (True, False):
        res = solve_sparse(f, 3, certify=certify)
        assert res.root_count == 1
        assert [(c.valuation, c.count) for c in res.candidates] == [(-2, 0)]


def test_precision_plan_cases():
    # degenerate with r = 1: S0 <= 2 + log_p d
    inp = TrinomialInput(2, -3, 1, 1, 3, 5)
    rep = discriminant_tri(inp)
    assert rep.is_zero
    plan = precision_plan(inp, rep, math.log(max_abs_coeff(inp.poly)))
    assert plan.S0 <= 2 + math.ceil(math.log(3) / math.log(5)) + 1
    assert plan.M_p == 2
    # a2 = 1 with p not dividing d(d-1)c3: S0 = 2
    inp = TrinomialInput(1, 1, 1, 1, 3, 7)
    plan = precision_plan(inp, discriminant_tri(inp), math.log(max_abs_coeff(inp.poly)))
    assert plan.S0 == 2
    # M_p per prime
    for p, m_p in ((2, 4), (3, 3)):
        inp = TrinomialInput(1, 1, 1, 1, 3, p)
        q = precision_plan(inp, discriminant_tri(inp), math.log(max_abs_coeff(inp.poly)))
        assert q.M_p == m_p
    # k formula with D = 0
    plan0 = plan
    assert plan0.k == 1 + plan0.S0 * min(1, plan0.D) + plan0.M_p * max(plan0.D - 1, 0)


def test_solve_worked_examples():
    assert solve_sparse(parse_poly("738 - 10*x^2 + x^20"), 3).root_count == 8
    assert solve_sparse(parse_poly("-12 + 11*x^2 + x^10"), 2).root_count == 6
    res = solve_sparse(parse_poly("738 - 10*x + x^10"), 3)
    assert res.root_count == count_qp_roots(parse_poly("738 - 10*x + x^10"), 3).qp_count


def test_zero_root_reporting():
    res = solve_sparse(parse_poly("x^3 + x^5 + x^9"), 5)
    assert res.zero_root_multiplicity == 3
    body = parse_poly("1 + x^2 + x^6")
    assert res.root_count == count_qp_roots(parse_poly("x^3 + x^5 + x^9"), 5).qp_count


def test_restricted_mode_never_counts_zero():
    # 0 is not of the form p^j (1 + O(p)); its multiplicity is still reported
    for text, want in (("x^3 - 3*x^5 + 2*x^7", 1), ("x^2 - x^3", 1), ("x^2", 0)):
        f = parse_poly(text)
        res = solve_sparse(f, 5, mode=MODE_RESTRICTED)
        assert (res.root_count, res.zero_root_multiplicity) == (want, strip_zero_root(f)[1])


@pytest.mark.parametrize("text", ["x^3", "5", "x^2 - 1", "x - x^3", "1 + x + x^2"])
def test_p_and_mode_checked_for_every_shape(text):
    f = parse_poly(text)
    for p in (4, 1, 0, -3):
        with pytest.raises(InvalidParams):
            solve_sparse(f, p)
    with pytest.raises(InvalidParams):
        solve_sparse(f, 5, mode="no-such-mode")


@pytest.mark.parametrize(
    "text, n, k_used",
    [
        pytest.param(text, n, k_used, id=text)
        for text, n, k_used in [
            ("-4 + 859375*x^7 - 341796875*x^11", 2, 4),
            ("-1 + 19531250*x^117 - 87890625*x^130", 1, 1),
            ("7 - 37500*x^75 + 1220703125*x^180", 2, 4),
        ]
    ],
)
def test_p2_digit_chain_deeper_than_recursion_limit(solver_trees, text, n, k_used):
    # Without the cut at depth N the digit chain toward the degenerate root
    # never ends, and at a finite cap it gets deeper than Python's recursion
    # limit.  The chain now ends above depth N and the tree is mature at
    # k_used (solver_trees); test_nodal_tree.py::test_walk_is_preorder_at_any_depth
    # covers deep walks.
    f = parse_poly(text)
    inp, _ = TrinomialInput.from_poly(f, 2)
    report = discriminant_tri(inp)
    assert cut_depth(report.abar2, report.abar3, report.r, 2) == n
    res = solve_sparse(f, 2)
    assert res.root_count == count_qp_roots(f, 2).qp_count == 1
    assert [c.k_used for c in res.candidates] == [st.k_used for st in solver_trees] == [k_used]
    assert max(node.depth for node in solver_trees[0].tree.root.walk()) < n


_OFF_BY_ONE_SCRIPT = """
import padicroots.trinomial as t
from padicroots.errors import InvariantViolated
from padicroots.sparsepoly import parse_poly
true_count = t.gcd_with_frobenius
t.gcd_with_frobenius = lambda f, p: true_count(f, p) + 1
if __debug__:
    raise SystemExit("not running under python -O")
try:
    t.solve_sparse(parse_poly("738 - 10*x^2 + x^20"), 3)
except InvariantViolated:
    raise SystemExit(0)
raise SystemExit("cross-check passed a wrong count")
"""


def test_failed_cross_check_raises_invariant_violated(monkeypatch):
    true_count = padicroots.trinomial.gcd_with_frobenius
    monkeypatch.setattr(
        padicroots.trinomial, "gcd_with_frobenius", lambda f, p: true_count(f, p) + 1
    )
    with pytest.raises(InvariantViolated):
        solve_sparse(parse_poly("738 - 10*x^2 + x^20"), 3)
    # the check is an exception, not an assert, so it survives python -O
    src = str(Path(padicroots.trinomial.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-O", "-c", _OFF_BY_ONE_SCRIPT],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


_GUARD_SCRIPT = """
import math

import padicroots.trinomial as t
from padicroots.errors import InvariantViolated
from padicroots.sparsepoly import ScaledPoly, parse_poly

f = parse_poly("1 - 2*x + x^2")
g = ScaledPoly.of(f, 3)
inp, _ = t.TrinomialInput.from_poly(f, 3)
report = t.discriminant_tri(inp)
plans = []

def plan():
    plans.append(t.precision_plan(inp, report, math.log(2)))
    return plans[-1]

chain = "depth bound exceeded at " + str((1,) + (0,) * 32)
try:
    t.stabilized_tree(g, 3, root_digits="nonzero", cut=None, plan=plan)
    raise SystemExit("an uncapped tree without its cut ended")
except InvariantViolated as exc:
    if str(exc) != chain or [q.k for q in plans] != [18]:
        raise SystemExit(f"guard fired as {exc!r} after plans {plans}")
# the solver's own trees are guarded: disable its cut and it raises too
t.cut_depth = lambda *args: 10 ** 9
try:
    t.solve_sparse(f, 3)
    raise SystemExit("the solver's uncapped tree without its cut ended")
except InvariantViolated as exc:
    if str(exc) != chain:
        raise SystemExit(f"solver's guard fired as {exc!r}")
"""


def test_depth_guard_stops_an_uncapped_tree_without_its_cut():
    """(x - 1)^2 at p = 3 with no cut: the chain of its double root never
    ends, and the paper's depth bound is (18 - 1) // 2 = 8.  The uncapped
    tree reads the plan once, when its chain first passes GUARD_DEPTH = 32,
    and raises at depth 33.  It runs in a subprocess, so that a tree
    without the guard fails on the timeout instead of hanging the suite."""
    src = str(Path(padicroots.trinomial.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("p, m, k_used", [(3, 40, 81), (2, 60, 123), (5, 35, 71)])
def test_depth_guard_passes_a_legitimate_deep_chain(p, m, k_used, monkeypatch):
    """(x - p)^2 - p^(2m+2) has the roots p(1 +- p^m), at valuation 1.  Their
    unit parts share m digits, so the chain of the tree at v = 1 passes
    GUARD_DEPTH = 32: the tree reads the plan once, from the log-height of
    g = (x - 1)^2 - p^(2m), finds its depth bound deeper than the chain,
    and both roots are counted."""
    f = SparsePoly.from_terms([(0, p * p - p ** (2 * m + 2)), (1, -2 * p), (2, 1)])
    g = rescale_for_valuation(f, p, 1)
    assert m > padicroots.nodal_tree.GUARD_DEPTH
    heights = []

    def recording(inp, report, log_H):
        heights.append(log_H)
        return precision_plan(inp, report, log_H)

    monkeypatch.setattr(padicroots.trinomial, "precision_plan", recording)
    assert count_qp_roots(f, p).qp_count == 2
    for certify in (True, False):
        heights.clear()
        res = solve_sparse(f, p, certify=certify)
        assert res.root_count == 2
        assert [(c.valuation, c.k_used, c.count) for c in res.candidates] == [(1, k_used, 2)]
        # g's log-height, max log |u| + s log p over its parts
        assert heights == [max(math.log(abs(u)) + s * math.log(p) for _, u, s in g.parts)]
        assert heights[0] == pytest.approx(math.log(p ** (2 * m) - 1))


def test_solving_again_rescans_the_root_node(monkeypatch):
    """The F_p memo covers the nodes below the root only: a second solve of
    the same input scans its root nodes again and meets its child
    reductions in the memo."""
    root_scans = []
    scan = padicroots.nodal_tree.roots_fp_exhaustive
    monkeypatch.setattr(padicroots.nodal_tree, "roots_fp_exhaustive",
                        lambda f, p: root_scans.append(f) or scan(f, p))
    f = parse_poly("738 - 10*x^2 + x^20")
    first = solve_sparse(f, 3)
    scanned_first = list(root_scans)
    misses = roots_fp_memo.cache_info().misses
    assert scanned_first and misses > 0
    assert solve_sparse(f, 3) == first
    assert root_scans == scanned_first * 2
    info = roots_fp_memo.cache_info()
    assert info.misses == misses and info.hits >= misses


def test_cross_check_still_raises_on_a_warm_memo(monkeypatch):
    """Memo hits still pass through the dual-route check: with both memos
    warm, a Frobenius count one too high and a child scan that drops a root
    each raise."""
    f = parse_poly("738 - 10*x^2 + x^20")
    solve_sparse(f, 3)
    assert roots_fp_memo.cache_info().currsize and gcd_with_frobenius.cache_info().currsize
    with monkeypatch.context() as m:
        m.setattr(padicroots.trinomial, "gcd_with_frobenius",
                  lambda g, p: gcd_with_frobenius(g, p) + 1)
        with pytest.raises(InvariantViolated):
            solve_sparse(f, 3)
    hits = roots_fp_memo.cache_info().hits
    monkeypatch.setattr(padicroots.nodal_tree, "roots_fp_memo",
                        lambda g, p: roots_fp_memo(g, p)[1:])
    with pytest.raises(InvariantViolated):
        solve_sparse(f, 3)
    assert roots_fp_memo.cache_info().hits > hits


def test_warm_memo_gives_the_cold_results(rng):
    """A degenerate sample solves to equal results, field by field, with
    the memos cleared before each input and with them warm."""
    cases = [(degenerate_trinomial(rng, p), p) for p in (2, 3, 5, 7) * 6]
    settings = [(mode, certify) for mode in (MODE_FULL, MODE_RESTRICTED) for certify in (True, False)]
    cold = []
    for f, p in cases:
        for mode, certify in settings:
            roots_fp_memo.cache_clear()
            gcd_with_frobenius.cache_clear()
            cold.append(repr(solve_sparse(f, p, mode, certify)))
    for f, p in cases:  # warm the memos on the whole sample first
        solve_sparse(f, p)
    hits = roots_fp_memo.cache_info().hits
    warm = [repr(solve_sparse(f, p, mode, certify)) for f, p in cases for mode, certify in settings]
    assert warm == cold
    assert roots_fp_memo.cache_info().hits > hits


def test_oracle_equivalence_trinomials(rng):
    agree = 0
    for _ in range(500):
        f = random_trinomial(rng)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        try:
            expected = count_qp_roots(f, p).qp_count
        except BudgetExceeded:
            continue
        got = solve_sparse(f, p)
        assert got.root_count == expected, (f.to_text(), p, got.root_count, expected)
        agree += 1
    assert agree > 400


def test_oracle_equivalence_degenerate_families(rng):
    agree = 0
    for _ in range(150):
        f = degenerate_trinomial(rng)
        p = rng.choice([2, 3, 5, 7])
        try:
            expected = count_qp_roots(f, p).qp_count
        except BudgetExceeded:
            continue
        got = solve_sparse(f, p)
        assert got.root_count == expected, (f.to_text(), p, got.root_count, expected)
        agree += 1
    assert agree > 100


def test_restricted_mode_subset(rng):
    for _ in range(120):
        f = random_trinomial(rng, d_max=20, h_max=25)
        p = rng.choice([2, 3, 5, 7])
        full = solve_sparse(f, p, mode=MODE_FULL)
        restr = solve_sparse(f, p, mode=MODE_RESTRICTED)
        full_keys = {(rt.valuation, rt.unit_digits(3)) for rt in full.roots}
        restr_keys = {(rt.valuation, rt.unit_digits(3)) for rt in restr.roots}
        assert restr_keys <= full_keys
        assert restr_keys == {k for k in full_keys if k[1][0] == 1}


def test_degenerate_repulsion_inequality(rng):
    """|ord(z - tau)| <= log_p((d-r) d^3 H / (8 r^4)) on degenerate families,
    and ord(z - tau) <= ord(tau) + M, M = ord_p(abar2 abar3 (abar3 - abar2)/2),
    the exponent-only bound that cut_depth reads."""
    checked = 0
    for _ in range(150):
        f = degenerate_trinomial(rng)
        p = rng.choice([2, 3, 5, 7])
        res = solve_sparse(f, p)
        degs = [rt for rt in res.roots if rt.degenerate]
        simples = [rt for rt in res.roots if not rt.degenerate]
        if not degs or not simples:
            continue
        d = f.degree - strip_zero_root(f)[1]
        rep = res.discriminant
        cap = degenerate_valuation_gap_cap(d, math.log(max_abs_coeff(f)), rep.r) / math.log(p)
        M = ord_int(rep.abar2 * rep.abar3 * (rep.abar3 - rep.abar2) // 2, p)
        for tau in degs:
            for z in simples:
                gap = _pair_ord(tau, z, p)
                assert abs(gap) <= cap + 1e-9, (f.to_text(), p, gap, cap)
                assert gap <= tau.valuation + M, (f.to_text(), p, gap, M)
                checked += 1
    assert checked > 20


def _pair_ord(r1, r2, p):
    if r1.valuation != r2.valuation:
        return min(r1.valuation, r2.valuation)
    m = 50
    a, b = r1.refine(m - r1.precision + 1), r2.refine(m - r2.precision + 1)
    return r1.valuation + ord_int((a.unit_residue - b.unit_residue) % p ** m, p)


def _refine_in_steps(rt, i):
    """rt.refine(rt.precision * (2^i - 1)), the certificate after i Newton
    steps, checked against i literal newton_steps at doubling precision
    followed by certified_residue: both return the root's unique residue
    mod p^(precision 2^i)."""
    refined = rt.refine(rt.precision * (2 ** i - 1))
    z, prec = rt.unit_residue, rt.precision
    for _ in range(i):
        prec = 2 * prec
        z = newton_step(rt.target, rt.p, z, prec + 4)
    assert certified_residue(rt.target, rt.p, z, prec) == refined.unit_residue
    assert refined.precision == prec
    return refined


def test_refine_root_doubles_digits():
    res = solve_sparse(parse_poly("1 - x^340"), 17)
    rt = [r for r in res.roots if r.unit_digits(1) == (4,)][0]
    refined = _refine_in_steps(rt, 3)
    assert refined.precision >= rt.precision * 4
    true = oracle_reference_lift(rt, refined.precision + 8)
    assert (refined.unit_residue - true) % 17 ** refined.precision == 0


def test_refine_root_reads_a_deep_derivative():
    """3^20 | d, so ord_3 f'(z) = 20: the Newton steps probe f'(z) as deep
    as the certificate does, and agree with ApproximateRoot.refine."""
    res = solve_sparse(parse_poly("10460353204 - x^3486784401"), 3)
    (rt,) = res.roots
    refined = _refine_in_steps(rt, 2)
    assert refined.precision >= 12


def test_smale_certificates_on_solver_outputs(rng):
    done = 0
    for _ in range(140):
        f = random_trinomial(rng, d_max=20, h_max=25)
        p = rng.choice([2, 3, 5])
        try:
            res = solve_sparse(f, p)
        except BudgetExceeded:
            continue
        for rt in res.roots:
            e0, gains = smale_gains(rt)
            if e0 is None:
                continue
            for i, ei in enumerate(gains, start=1):
                if ei is None:
                    break
                assert ei - e0 >= 2 ** i, (f.to_text(), p, i, e0, ei)
            done += 1
    assert done > 60  # roots exercised


def test_rejects_general_polynomials():
    with pytest.raises(InvalidParams):
        solve_sparse(parse_poly("1 + x + x^2 + x^3 + x^4"), 3)


def test_pairwise_depth_within_plan(rng):
    """Distinct output roots of square-free inputs share at most
    precision_plan(...).D leading digits."""
    checked = 0
    for _ in range(80):
        f = random_trinomial(rng, d_max=20, h_max=25)
        p = rng.choice([2, 3, 5])
        res = solve_sparse(f, p)
        if res.discriminant.is_zero or len(res.roots) < 2:
            continue
        import itertools

        inp = TrinomialInput.from_poly(f, p)[0]
        plan = precision_plan(inp, res.discriminant, math.log(max_abs_coeff(inp.poly)))

        for r1, r2 in itertools.combinations(res.roots, 2):
            assert _pair_ord(r1, r2, p) <= plan.D
            checked += 1
    assert checked > 20
