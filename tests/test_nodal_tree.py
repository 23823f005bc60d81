import pytest

import padicroots.nodal_tree
import padicroots.trinomial
from padicroots.errors import ContentDivisible, InvalidParams, PadicError
from padicroots.nodal_tree import (
    NodalNode,
    build_tree,
    nodal_degree_cap,
    s_value,
)
from padicroots.newton_polygon import integral_valuation_candidates
from padicroots.oracle import count_qp_roots, lift_root
from padicroots.sparsepoly import (
    ScaledPoly, SparsePoly, parse_poly, rescale_for_valuation, taylor_coeffs_mod,
)
from padicroots.trinomial import solve_sparse
from tests.conftest import degenerate_trinomial, random_trinomial
from tests.reference import content_p, mod_p_coeffs, reconstruct_node_poly


def _s_at(f, z, p, k):
    """s-value of digit z from the expansion build_tree makes: indices < k."""
    return s_value(taylor_coeffs_mod(ScaledPoly.of(f, p), z, p, k, min(f.degree, k - 1)), p, k)


def test_s_value_examples():
    assert _s_at(parse_poly("x^10 - 10*x + 738"), 1, 3, 6) == 4
    for p in (2, 3, 5):
        assert _s_at(SparsePoly(((2, 1),)), 0, p, 6) == 2
    # binomial with p coprime to everything: s = 1 at any mod-p root
    f = parse_poly("-1 + x^4")
    assert _s_at(f, 1, 3, 5) == 1
    # the index-k coefficient never lowers s below k: x^2 at k = 2 is blocked
    assert _s_at(SparsePoly(((2, 1),)), 0, 3, 2) == 2
    x2 = ScaledPoly.of(SparsePoly(((2, 1),)), 3)
    assert s_value(taylor_coeffs_mod(x2, 0, 3, 2, 2), 3, 2) == 2


def test_s_value_at_most_multiplicity(rng):
    # s <= multiplicity of the digit in the mod-p reduction
    for _ in range(150):
        f = random_trinomial(rng, d_max=15, h_max=20)
        p = rng.choice([2, 3, 5])
        k = 8
        if content_p(f, p):
            continue
        for z in range(p):
            mult = _multiplicity_mod_p(f, z, p)
            if mult == 0:
                continue
            assert 1 <= _s_at(f, z, p, k) <= max(mult, k)
            if mult < k:
                assert _s_at(f, z, p, k) <= mult


def _multiplicity_mod_p(f, z, p, bound=30):
    coeffs = [0] * (min(f.degree, 5000) + 1)
    for a, c in f.terms:
        coeffs[a] = (coeffs[a] + c) % p
    mult = 0
    while mult < bound and any(coeffs):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * z + c) % p
        if acc != 0:
            break
        # synthetic division by (x - z)
        out = [0] * (len(coeffs) - 1)
        carry = 0
        for i in range(len(coeffs) - 1, 0, -1):
            carry = (coeffs[i] + carry * z) % p
            out[i - 1] = carry
        coeffs = out
        mult += 1
    return mult


def test_build_tree_validates_p_and_k():
    f = parse_poly("x^2 - 1")
    with pytest.raises(InvalidParams, match="^4 is not prime$"):
        build_tree(ScaledPoly.of(f, 4), 4, 2)
    with pytest.raises(InvalidParams, match="^precision exponent must be >= 1, got 0$"):
        build_tree(ScaledPoly.of(f, 7), 7, 0)
    g = ScaledPoly.of(f, 2)
    assert build_tree(g, 2, 5) == build_tree(g, p=2, k=5)


def test_chain_for_x_squared():
    for p in (2, 3, 5):
        t = build_tree(ScaledPoly.of(SparsePoly(((2, 1),)), p), p, 9)
        assert max(n.depth for n in t.root.walk()) == 4  # floor((9-1)/2)
        assert t.node_count == 5
        assert sum(n.n_p for n in t.root.walk()) == 0


def test_single_node_for_x397():
    t = build_tree(ScaledPoly.of(parse_poly("1 - x^397"), 17), 17, 5)
    assert t.node_count == 1
    assert sum(n.n_p for n in t.root.walk()) == 1  # 1 is a simple root of the reduction...


def test_tree_1_minus_x340():
    t = build_tree(ScaledPoly.of(parse_poly("1 - x^340"), 17), 17, 3)
    assert max(n.depth for n in t.root.walk()) == 1 and len(t.root.children) == 4
    assert sum(n.n_p for n in t.root.walk()) == 4
    mods = sorted(tuple(mod_p_coeffs(ch)) for ch in t.root.children)
    assert mods == sorted([(0, 14), (10, 12), (15, 5), (3, 3)])
    for k in (1, 2):
        t_small = build_tree(ScaledPoly.of(parse_poly("1 - x^340"), 17), 17, k)
        assert t_small.node_count == 1 and t_small.k_mature > t_small.k


def test_tree_q2_example():
    t = build_tree(ScaledPoly.of(parse_poly("x^10 + 11*x^2 - 12"), 2), 2, 8)
    assert sum(n.n_p for n in t.root.walk()) == 6
    depth2 = [n for n in t.root.walk() if n.depth == 2]
    contributing = [n for n in depth2 if n.nondegenerate_roots]
    assert len(contributing) == 3
    for n in contributing:
        assert tuple(mod_p_coeffs(n)) == (0, 1, 1)  # x^2 + x
        assert len(n.nondegenerate_roots) == 2


def test_tree_q3_example():
    t = build_tree(ScaledPoly.of(parse_poly("738 - 10*x^2 + x^20"), 3), 3, 7)
    assert sum(n.n_p for n in t.root.walk()) == 8
    by_path = {(n.depth, n.mu): n.n_p for n in t.root.walk() if n.n_p}
    assert sum(by_path.values()) == 8
    assert len(by_path) == 5  # five root-bearing nodes


def test_walk_is_preorder_at_any_depth():
    p = 3

    def node(mu, depth):
        return NodalNode(mu=mu, depth=depth, reduction=SparsePoly(((0, 1),)),
                         s_consumed=0)

    root = node(0, 0)
    a, b = node(1, 1), node(2, 1)
    a.children = [node(1, 2), node(1 + 1 * p, 2)]
    root.children = [a, b]
    chain, place = b, p
    for _ in range(5000):  # far past the interpreter's recursion limit
        chain.children = [node(chain.mu + 1 * place, chain.depth + 1)]  # next digit 1
        chain, place = chain.children[0], place * p
    nodes = list(root.walk())
    keys = [(n.depth, n.mu) for n in nodes]
    assert keys[:5] == [(0, 0), (1, 1), (2, 1), (2, 4), (1, 2)]
    assert [n.digits(p) for n in nodes[:5]] == [(), (1,), (1, 0), (1, 1), (2,)]
    assert len(keys) == 5005 and keys[-1] == (5001, (p ** 5001 - 1) // 2 + 1)
    assert chain.digits(p) == (2,) + (1,) * 5000


def test_one_taylor_expansion_per_degenerate_digit(rng, monkeypatch):
    """The expansion at a degenerate digit gives both its s-value and its child."""
    import padicroots.nodal_tree as nodal_tree_mod
    import padicroots.sparsepoly as sparsepoly_mod

    calls = []

    def counted(*args):
        calls.append(args)
        return taylor_coeffs_mod(*args)

    monkeypatch.setattr(nodal_tree_mod, "taylor_coeffs_mod", counted)
    monkeypatch.setattr(sparsepoly_mod, "taylor_coeffs_mod", counted)
    cases = [(parse_poly("x^10 + 11*x^2 - 12"), 2, 12)]
    while len(cases) < 40:
        make = degenerate_trinomial if len(cases) % 2 else random_trinomial
        f, p = make(rng), rng.choice([2, 3, 5])
        if not content_p(f, p):
            cases.append((f, p, rng.randint(3, 12)))
    children = 0
    for f, p, k in cases:
        calls.clear()
        tree = build_tree(ScaledPoly.of(f, p), p, k)
        assert len(calls) == sum(len(n.degenerate_roots) for n in tree.root.walk())
        children += tree.node_count - 1
    assert children > 20, children  # the trees do branch


def test_child_records_its_step_and_prefix():
    t = build_tree(ScaledPoly.of(parse_poly("x^10 + 11*x^2 - 12"), 2), 2, 12)
    for n in t.root.walk():
        for child in n.children:
            assert child.s_step == child.s_consumed - n.s_consumed >= 2
            assert child.digits(2)[:-1] == n.digits(2)
            assert child.digits(2)[-1] in n.degenerate_roots
    assert t.root.s_step == 0 and t.root.digits(2) == ()


def test_content_rejected():
    with pytest.raises(ContentDivisible):
        build_tree(ScaledPoly.of(parse_poly("3 + 3*x^2 + 3*x^5"), 3), 3, 4)


def test_stabilized_examples():
    t = build_tree(ScaledPoly.of(parse_poly("1 - x^340"), 17), 17, 64)
    assert 3 <= t.k_mature <= t.k
    assert sum(n.n_p for n in t.root.walk()) == 4
    t2 = build_tree(ScaledPoly.of(parse_poly("x^2 - 1"), 5), 5, 64)
    assert t2.k_mature <= t2.k and sum(n.n_p for n in t2.root.walk()) == 2
    assert t2.root.n_p == 2
    t3 = build_tree(ScaledPoly.of(parse_poly("x^10 + 11*x^2 - 12"), 2), 2, 64)
    assert t3.k_mature <= t3.k and sum(n.n_p for n in t3.root.walk()) == 6


def test_stabilized_cap_flag():
    # x^2 never matures (the digit-0 chain is always precision-blocked)
    t = build_tree(ScaledPoly.of(SparsePoly(((2, 1),)), 3), 3, 16)
    assert t.k_mature > t.k == 16


def test_one_tree_at_the_cap(monkeypatch, rng):
    """Each stabilized_tree call builds one uncapped tree.  Its k_used is
    the least k at which build_tree's tree is mature, found by brute force
    over k <= 64.  The solver's cuts make its trees finite, so every
    uncapped tree is mature, and the trees that rest on a cap come from
    degenerate inputs built at an explicit k without a cut: a repeated
    root's chain is then blocked at every k."""
    real_build, real_stabilized = build_tree, padicroots.trinomial.stabilized_tree
    built, calls = [], []

    def counting(f, p, k=None, **kw):
        built.append(k)
        return real_build(f, p, k, **kw)

    def recording(g, p, **kw):
        built.clear()
        st = real_stabilized(g, p, **kw)
        assert built == [None] and st.stabilized and st.k_used == st.tree.k_mature
        calls.append((g, p, None, kw, st.tree))
        return st

    monkeypatch.setattr(padicroots.nodal_tree, "build_tree", counting)
    monkeypatch.setattr(padicroots.trinomial, "stabilized_tree", recording)
    for i in range(300):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if i % 2 == 0:
            f = degenerate_trinomial(rng, p)
        else:
            f = random_trinomial(rng, d_max=30, h_max=60)
            f = SparsePoly(tuple((a, c * p ** rng.choice([0, 0, 1, 3])) for a, c in f.terms))
        try:
            solve_sparse(f, p, certify=False)
        except PadicError:
            pass
    # text, p, the valuation of its repeated root, k_cap
    for text, p, v, k_cap in [("1 - 2*x + x^2", 3, 0, 24), ("27 - 28*x + x^28", 3, 0, 40),
                              ("4 - 5103*x^3 + 14348907*x^7", 3, -2, 64)]:
        g = rescale_for_valuation(parse_poly(text), p, v)
        kw = {"root_digits": "nonzero", "cut": None}
        calls.append((g, p, k_cap, kw, build_tree(g, p, k_cap, **kw)))
    found = capped = cut = uncapped_mature = 0
    for g, p, k_cap, kw, tree in calls:
        assert tree.k == k_cap
        cut += kw["cut"] is not None
        least = next(
            (k for k in range(1, min(k_cap or 64, 64) + 1)
             if real_build(g, p, k, **kw).k_mature <= k),
            None,
        )
        if least is not None:
            assert tree.k_mature == least, (g, p, k_cap)
            found += 1
        elif k_cap is not None and k_cap <= 64:
            assert tree.k_mature > k_cap, (g, p, k_cap)
            capped += 1
        else:
            assert tree.k_mature > 64, (g, p, k_cap)
        uncapped_mature += k_cap is None
    assert found > 200 and capped > 0 and cut > 50
    assert uncapped_mature == len(calls) - 3  # all but the three capped builds above


def test_digit_precision_doubles_until_s_is_exact(monkeypatch):
    """At p = 2, root digit 1 of 2 - 3x^16 + x^48 has s = 10: the expansion
    at precision 6 reads s >= 6, so the digit is expanded again at 12."""
    real = padicroots.nodal_tree.shift_rescale
    precisions = []

    def recording(g, prefix, n, S, p, prec):
        if (prefix, n) == (1, 0):
            precisions.append(prec)
        return real(g, prefix, n, S, p, prec)

    monkeypatch.setattr(padicroots.nodal_tree, "shift_rescale", recording)
    f = parse_poly("2 - 3*x^16 + x^48")
    assert count_qp_roots(f, 2).qp_count == 2
    for certify in (True, False):
        precisions.clear()
        assert solve_sparse(f, 2, certify=certify).root_count == 2
        assert precisions == [6, 12]
    (child,) = [ch for ch in build_tree(ScaledPoly.of(f, 2), 2, 16).root.children if ch.mu == 1]
    assert child.s_step == 10


def _shape(tree):
    return sorted(
        (n.depth, n.mu, tuple(sorted(n.nondegenerate_roots)),
         tuple(sorted(n.degenerate_roots)), n.s_step)
        for n in tree.root.walk()
    )


def test_mature_tree_is_exact(rng):
    """A mature tree at k is the tree at 2k, node for node: no larger k, the
    cap included, can change it.  Trees are those the solver builds."""
    mature = 0
    for i in range(600):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if i % 3 == 0:
            f = degenerate_trinomial(rng)
        else:
            f = random_trinomial(rng, d_max=30, h_max=60)
            # p-power coefficients push s-values and digit chains up
            f = SparsePoly(tuple((a, c * p ** rng.choice([0, 0, 1, 3])) for a, c in f.terms))
        for v, _ in integral_valuation_candidates(f, p):
            g = rescale_for_valuation(f, p, v)
            for k in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24):
                tree = build_tree(g, p, k, root_digits="nonzero")
                if tree.k_mature > k:
                    continue
                deeper = build_tree(g, p, 2 * k, root_digits="nonzero")
                assert deeper.k_mature <= 2 * k, (g, p, k)
                assert _shape(deeper) == _shape(tree), (g, p, k)
                mature += 1
    assert mature > 2000


def test_invariants_on_random_corpus(rng):
    for _ in range(120):
        f = random_trinomial(rng, d_max=25, h_max=30)
        p = rng.choice([2, 3, 5])
        if content_p(f, p):
            continue
        k = rng.randint(3, 12)
        tree = build_tree(ScaledPoly.of(f, p), p, k)
        nodes = list(tree.root.walk())
        assert max(n.depth for n in tree.root.walk()) <= (k - 1) // 2
        cap = nodal_degree_cap(p)
        for n in nodes:
            if n.depth >= 1 and n.mu % p != 0:
                assert n.reduction.degree <= cap
            if n.depth >= 1:
                rebuilt = reconstruct_node_poly(f, p, k, n)
                reduced = SparsePoly.from_terms((a, c % p) for a, c in rebuilt.terms)
                assert reduced == n.reduction, (f.to_text(), p, k, n.digits(p))
        # node count cap for trinomials with p not dividing the constant term
        if dict(f.terms).get(0, 0) % p:
            nu = len(tree.root.degenerate_roots)
            depth = max(n.depth for n in tree.root.walk())
            assert tree.node_count <= 1 + max(2 * depth - 1, 0) * nu


def test_harvested_roots_lift(rng):
    """Every harvested non-degenerate root Hensel-lifts to a true root."""
    lifted = 0
    for _ in range(120):
        f = random_trinomial(rng, d_max=15, h_max=25)
        p = rng.choice([2, 3, 5])
        if content_p(f, p):
            continue
        g = ScaledPoly.of(f, p)
        tree = build_tree(g, p, 9)
        for n in tree.root.walk():
            for z in n.nondegenerate_roots:
                start = n.mu + z * p ** n.depth
                target_k = 2 * n.depth + 6
                res = lift_root(g, p, _polish(g, p, start, n.depth), target_k)
                ev = sum(c * pow(res, a, p ** target_k) for a, c in f.terms) % p ** target_k
                assert ev == 0
                lifted += 1
    assert lifted > 50


def _polish(f, p, start, depth):
    # walk the residue deep enough that the oracle's Hensel criterion holds
    from padicroots.newton import certified_residue

    return certified_residue(f, p, start, 2 * depth + 8)
