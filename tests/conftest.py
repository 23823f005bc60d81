import random

import pytest

from padicroots.fp import gcd_with_frobenius, roots_fp_memo
from padicroots.newton import certified_residue
from padicroots.oracle import lift_root
from padicroots.sparsepoly import SparsePoly
from tests.reference import newton_step


def oracle_reference_lift(rt, K: int) -> int:
    """High-precision oracle lift of a certificate's true root.

    Deepens the certified residue first so the strict Hensel criterion
    holds even when the target's derivative valuation exceeds the
    certificate's digit count, then hands over to the oracle's lifter.
    """
    z = certified_residue(rt.target, rt.p, rt.unit_residue, rt.precision + 24)
    return lift_root(rt.target, rt.p, z, K)


def smale_gains(rt, steps: int = 4):
    """(e0, [e_1, ..., e_n]) error valuations against the oracle lift.

    Step precision tracks the measured error so truncation never masks a
    gain; entries are None from the point the error leaves the measurable
    window (converged past K digits).
    """
    from padicroots.arith import ord_int

    p = rt.p
    K = rt.precision + 80
    true = oracle_reference_lift(rt, K)
    e0 = ord_int((rt.unit_residue - true) % p ** K, p)
    if e0 >= K:
        return None, []
    z, e_prev = rt.unit_residue, e0
    out = []
    for _ in range(steps):
        step_prec = min(K, max(2 * e_prev + 8, e0 + 24))
        z = newton_step(rt.target, p, z, step_prec)
        ei = ord_int((z - true) % p ** K, p)
        if ei >= step_prec:
            out.append(None)  # converged beyond the window
            break
        out.append(ei)
        e_prev = ei
    return e0, out


def random_trinomial(rng: random.Random, d_max: int = 40, h_max: int = 50) -> SparsePoly:
    """Random 3-term polynomial with constant term, retrying collisions."""
    while True:
        a3 = rng.randint(2, d_max)
        a2 = rng.randint(1, a3 - 1)
        coeff = lambda: rng.choice([x for x in range(-h_max, h_max + 1) if x])
        f = SparsePoly.from_terms([(0, coeff()), (a2, coeff()), (a3, coeff())])
        if f.term_count == 3:
            return f


def random_binomial(rng: random.Random, d_max: int = 40, h_max: int = 30) -> SparsePoly:
    while True:
        d = rng.randint(1, d_max)
        coeff = lambda: rng.choice([x for x in range(-h_max, h_max + 1) if x])
        f = SparsePoly.from_terms([(0, coeff()), (d, coeff())])
        if f.term_count == 2:
            return f


def degenerate_trinomial(rng: random.Random, p: int | None = None, u: int | None = None):
    """c * q_{ab2,ab3}(u x^r): guaranteed degenerate root u^(-1/r)-wise.

    u is drawn from {1, 2, 3} unless given; with p given the draw adds 5,
    p and p^2, so the degenerate root can carry a p-adic valuation.
    """
    import math

    while True:
        ab3 = rng.randint(2, 8)
        ab2 = rng.randint(1, ab3 - 1)
        if math.gcd(ab2, ab3) == 1:
            break
    r = rng.randint(1, 3)
    if u is None:
        u = rng.choice([1, 1, 2, 3] if p is None else [1, 2, 3, 5, p, p * p])
    c = rng.choice([1, -1, 2, -3])
    f = SparsePoly.from_terms(
        [(0, c * (ab3 - ab2)), (ab2 * r, -c * ab3 * u ** ab2), (ab3 * r, c * ab2 * u ** ab3)]
    )
    return f if f.term_count == 3 else degenerate_trinomial(rng, p, u)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(autouse=True)
def cold_fp_memos():
    """Every test starts with empty F_p memos, so the order tests run in
    cannot decide whether one exercises a scan or a memo hit."""
    roots_fp_memo.cache_clear()
    gcd_with_frobenius.cache_clear()


@pytest.fixture
def solver_trees(monkeypatch):
    """The StabilizedTree of every stabilized_tree call the solver makes, each
    asserted mature, with k_used its least mature k.  precision_plan raises:
    only a digit chain past GUARD_DEPTH may read it."""
    import padicroots.trinomial

    real = padicroots.trinomial.stabilized_tree
    trees = []

    def recording(*args, **kwargs):
        st = real(*args, **kwargs)
        assert st.stabilized and st.k_used == st.tree.k_mature, st
        trees.append(st)
        return st

    def no_plan(*args, **kwargs):
        raise AssertionError("precision_plan called on the solve path")

    monkeypatch.setattr(padicroots.trinomial, "stabilized_tree", recording)
    monkeypatch.setattr(padicroots.trinomial, "precision_plan", no_plan)
    return trees
