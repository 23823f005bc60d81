import pytest

from padicroots.arith import PAdicContext
from padicroots.errors import ContentDivisible
from padicroots.nodal_tree import (
    NodalNode,
    build_tree,
    count_nondegenerate_roots,
    nodal_degree_cap,
    reconstruct_node_poly,
    s_value,
    stabilized_tree,
)
from padicroots.oracle import lift_root
from padicroots.sparsepoly import SparsePoly, parse_poly
from tests.conftest import random_trinomial


def test_s_value_examples():
    assert s_value(parse_poly("x^10 - 10*x + 738"), 1, PAdicContext(3, 6)) == 4
    for p in (2, 3, 5):
        assert s_value(SparsePoly(((2, 1),)), 0, PAdicContext(p, 6)) == 2
    # binomial with p coprime to everything: s = 1 at any mod-p root
    f = parse_poly("-1 + x^4")
    assert s_value(f, 1, PAdicContext(3, 5)) == 1


def test_s_value_at_most_multiplicity(rng):
    # s <= multiplicity of the digit in the mod-p reduction
    for _ in range(150):
        f = random_trinomial(rng, d_max=15, h_max=20)
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p, 8)
        if f.content_p(p):
            continue
        for z in range(p):
            mult = _multiplicity_mod_p(f, z, p)
            if mult == 0:
                continue
            assert 1 <= s_value(f, z, ctx) <= max(mult, ctx.k)
            if mult < ctx.k:
                assert s_value(f, z, ctx) <= mult


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


def test_chain_for_x_squared():
    for p in (2, 3, 5):
        t = build_tree(SparsePoly(((2, 1),)), PAdicContext(p, 9))
        assert t.depth == 4  # floor((9-1)/2)
        assert t.node_count == 5
        assert count_nondegenerate_roots(t) == 0


def test_single_node_for_x397():
    t = build_tree(parse_poly("1 - x^397"), PAdicContext(17, 5))
    assert t.node_count == 1
    assert count_nondegenerate_roots(t) == 1  # 1 is a simple root of the reduction...


def test_tree_1_minus_x340():
    t = build_tree(parse_poly("1 - x^340"), PAdicContext(17, 3))
    assert t.depth == 1 and len(t.root.children) == 4
    assert count_nondegenerate_roots(t) == 4
    mods = sorted(tuple(ch.mod_p_coeffs(17)) for ch in t.root.children)
    assert mods == sorted([(0, 14), (10, 12), (15, 5), (3, 3)])
    for k in (1, 2):
        t_small = build_tree(parse_poly("1 - x^340"), PAdicContext(17, k))
        assert t_small.node_count == 1 and t_small.immature


def test_tree_q2_example():
    t = build_tree(parse_poly("x^10 + 11*x^2 - 12"), PAdicContext(2, 8))
    assert count_nondegenerate_roots(t) == 6
    depth2 = [n for n in t.root.walk() if n.depth == 2]
    contributing = [n for n in depth2 if n.nondegenerate_roots]
    assert len(contributing) == 3
    for n in contributing:
        assert tuple(n.mod_p_coeffs(2)) == (0, 1, 1)  # x^2 + x
        assert len(n.nondegenerate_roots) == 2


def test_tree_q3_example():
    t = build_tree(parse_poly("738 - 10*x^2 + x^20"), PAdicContext(3, 7))
    assert count_nondegenerate_roots(t) == 8
    by_path = {n.digit_path: n.n_p for n in t.root.walk() if n.n_p}
    assert sum(by_path.values()) == 8
    assert len(by_path) == 5  # five root-bearing nodes


def test_walk_is_preorder_at_any_depth():
    def node(path):
        return NodalNode(digit_path=path, depth=len(path), poly=SparsePoly(((0, 1),)),
                         k_local=1, s_consumed=0)

    root = node(())
    a, b = node((1,)), node((2,))
    a.children = [node((1, 0)), node((1, 1))]
    root.children = [a, b]
    chain = b
    for _ in range(5000):  # far past the interpreter's recursion limit
        chain.children = [node(chain.digit_path + (0,))]
        chain = chain.children[0]
    paths = [n.digit_path for n in root.walk()]
    assert paths[:5] == [(), (1,), (1, 0), (1, 1), (2,)]
    assert len(paths) == 5005 and paths[-1] == (2,) + (0,) * 5000


def test_content_rejected():
    with pytest.raises(ContentDivisible):
        build_tree(parse_poly("3 + 3*x^2 + 3*x^5"), PAdicContext(3, 4))


def test_stabilized_examples():
    st = stabilized_tree(parse_poly("1 - x^340"), 17, k_start=1, k_cap=64)
    assert st.stabilized and st.k_used >= 3
    assert count_nondegenerate_roots(st.tree) == 4
    st2 = stabilized_tree(parse_poly("x^2 - 1"), 5, k_start=1, k_cap=64)
    assert st2.stabilized and count_nondegenerate_roots(st2.tree) == 2
    assert st2.tree.root.n_p == 2
    st3 = stabilized_tree(parse_poly("x^10 + 11*x^2 - 12"), 2, k_start=1, k_cap=64)
    assert st3.stabilized and count_nondegenerate_roots(st3.tree) == 6


def test_stabilized_cap_flag():
    # x^2 never matures (the digit-0 chain is always precision-blocked)
    st = stabilized_tree(SparsePoly(((2, 1),)), 3, k_start=2, k_cap=16)
    assert not st.stabilized and st.k_used == 16


def test_invariants_on_random_corpus(rng):
    for _ in range(120):
        f = random_trinomial(rng, d_max=25, h_max=30)
        p = rng.choice([2, 3, 5])
        if f.content_p(p):
            continue
        k = rng.randint(3, 12)
        tree = build_tree(f, PAdicContext(p, k))
        nodes = tree.nodes()
        assert tree.depth <= (k - 1) // 2
        cap = nodal_degree_cap(p)
        for n in nodes:
            if n.depth >= 1 and n.digit_path[0] != 0:
                assert len(n.mod_p_coeffs(p)) - 1 <= cap
            if n.depth >= 1:
                rebuilt = reconstruct_node_poly(f, p, n.digit_path, n.s_consumed, n.k_local)
                assert rebuilt == n.poly, (f.to_text(), p, k, n.digit_path)
        # node count cap for trinomials with p not dividing the constant term
        if f.coefficient(0) % p:
            nu = len(tree.root.degenerate_roots)
            depth = tree.depth
            assert tree.node_count <= 1 + max(2 * depth - 1, 0) * nu


def test_harvested_roots_lift(rng):
    """Every harvested non-degenerate root Hensel-lifts to a true root."""
    lifted = 0
    for _ in range(120):
        f = random_trinomial(rng, d_max=15, h_max=25)
        p = rng.choice([2, 3, 5])
        if f.content_p(p):
            continue
        tree = build_tree(f, PAdicContext(p, 9))
        for n in tree.nodes():
            mu = sum(d * p ** j for j, d in enumerate(n.digit_path))
            for z in n.nondegenerate_roots:
                start = mu + z * p ** n.depth
                target_k = 2 * n.depth + 6
                res = lift_root(f, p, _polish(f, p, start, n.depth), target_k)
                ev = sum(c * pow(res, a, p ** target_k) for a, c in f.terms) % p ** target_k
                assert ev == 0
                lifted += 1
    assert lifted > 50


def _polish(f, p, start, depth):
    # walk the residue deep enough that the oracle's Hensel criterion holds
    from padicroots.newton import certified_residue

    z, _ = certified_residue(f, p, start, 2 * depth + 8)
    return z
