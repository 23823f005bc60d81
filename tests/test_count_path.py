"""The count-only path, solve_sparse(certify=False), which `padicroots count`
uses: the certifying path's result with its roots left out, from no
Newton certificate and no F_p coset walk."""

import random

import pytest

import padicroots.binomial
import padicroots.nodal_tree
import padicroots.trinomial
from padicroots.cli import main
from padicroots.errors import PadicError
from padicroots.sparsepoly import SparsePoly, parse_poly
from padicroots.trinomial import MODES, solve_sparse
from perfbench.workloads import cycles, load_count_pins
from tests.conftest import random_binomial, random_trinomial

CORPUS_PRIMES = [2, 3, 5, 7, 11, 13]


def _outcome(f, p, mode, certify):
    """Every field of the result but the roots, or the error type."""
    try:
        res = solve_sparse(f, p, mode=mode, certify=certify)
    except PadicError as exc:
        return type(exc)
    if not certify and res.roots:
        return "count path returned roots"
    return (res.p, res.root_count, res.mode, res.zero_root_multiplicity, res.candidates,
            res.discriminant, res.reason)


def _disagreements(inputs):
    bad = []
    for f, p in inputs:
        for mode in MODES:
            want, got = _outcome(f, p, mode, True), _outcome(f, p, mode, False)
            if want != got:
                bad.append((f.to_text(), p, mode, want, got))
    return bad


def _count_calls(monkeypatch, calls, module, name):
    """Replace module.name by a wrapper that adds 1 to calls[name] per call."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _corpus():
    """3300 trinomials, then 2200 binomials, at p <= 13 (seed 0xACCE97)."""
    rng = random.Random(0xACCE97)
    for draw, n in ((random_trinomial, 3300), (random_binomial, 2200)):
        for _ in range(n):
            f = draw(rng, d_max=40, h_max=50)
            yield f, rng.choice(CORPUS_PRIMES)


def _restricted_binomials():
    """Binomials with p | d, with p^j in the coefficients, and at p = 2,
    where every unit root has first digit 1."""
    rng = random.Random(0xB1)
    for _ in range(400):
        p = rng.choice([2, 2, 3, 5, 7, 11])
        d = p * rng.randint(1, 60 // p)
        c = [rng.choice([x for x in range(-40, 41) if x]) * p ** rng.randint(0, 3)
             for _ in range(2)]
        yield SparsePoly.from_terms([(0, c[0]), (d, c[1])]), p
    for _ in range(200):
        yield random_binomial(rng, d_max=40, h_max=200), 2


def test_count_path_agrees_on_the_corpus():
    assert _disagreements(_corpus()) == []


def test_count_path_agrees_on_a_degenerate_cycle(monkeypatch, solver_trees):
    ops = next(cycles("degenerate", 1))
    assert len(ops) == 1512
    assert _disagreements((op.poly, op.p) for op in ops) == []
    calls = {"build_tree": 0, "stabilized_tree": 0}
    _count_calls(monkeypatch, calls, padicroots.nodal_tree, "build_tree")
    _count_calls(monkeypatch, calls, padicroots.trinomial, "stabilized_tree")
    solver_trees.clear()
    outcomes = [c for op in ops for c in solve_sparse(op.poly, op.p, certify=False).candidates]
    # the cut at depth N makes every tree finite: each valuation builds one
    # uncapped tree, which is mature (solver_trees), and no precision plan
    assert len(solver_trees) == calls["stabilized_tree"] == len(outcomes)
    assert calls["build_tree"] == calls["stabilized_tree"]
    assert [c.k_used for c in outcomes] == [st.k_used for st in solver_trees]


def test_count_path_agrees_on_the_count_pins():
    pins = load_count_pins()
    assert len(pins) == 240
    assert _disagreements((op.poly, op.p) for op in pins) == []


def test_count_path_agrees_on_restricted_binomials():
    inputs = list(_restricted_binomials())
    assert _disagreements(inputs) == []
    # counts 0 and 1 from the residue test at odd p, 2 from p = 2
    counts = {solve_sparse(f, p, mode="restricted-root", certify=False).root_count
              for f, p in inputs}
    assert {0, 1, 2} <= counts


@pytest.fixture
def certificate_calls(monkeypatch):
    """Counts calls to certified_residue and binomial_coset_roots made
    through the modules that call them."""
    calls = {"certified_residue": 0, "binomial_coset_roots": 0}
    _count_calls(monkeypatch, calls, padicroots.trinomial, "certified_residue")
    _count_calls(monkeypatch, calls, padicroots.binomial, "certified_residue")
    _count_calls(monkeypatch, calls, padicroots.binomial, "binomial_coset_roots")
    return calls


@pytest.mark.parametrize(
    "text, p, want",
    [
        ("1 - x^340", 17, 4),
        ("2 - 4*x^3 + 2*x^6", 7, 3),  # 2(x^3 - 1)^2: three double roots in Q_7
        ("738 - 10*x^2 + x^20", 3, 8),
    ],
)
def test_count_certifies_nothing(certificate_calls, capsys, text, p, want):
    assert main(["count", "--p", str(p), text]) == 0
    assert capsys.readouterr().out.strip() == str(want)
    assert certificate_calls == {"certified_residue": 0, "binomial_coset_roots": 0}
    assert main(["solve", "--p", str(p), text]) == 0
    assert certificate_calls["certified_residue"] >= want


@pytest.mark.parametrize("text, p", [("1 - x^340", 17), ("1 - x^99990", 99991)])
def test_restricted_solve_certifies_only_digit_one(certificate_calls, text, p):
    """Restricted mode picks first digit 1 before any root is found: one
    certificate and no coset walk, however many roots the binomial has."""
    res = solve_sparse(parse_poly(text), p, mode="restricted-root")
    assert certificate_calls == {"certified_residue": 1, "binomial_coset_roots": 0}
    assert res.root_count == 1
    assert [rt.unit_digits(1) for rt in res.roots] == [(1,)]
