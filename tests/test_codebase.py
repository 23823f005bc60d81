"""Guards on the package source: typed invariants and one copy of each helper."""

import ast
from collections import defaultdict
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "padicroots").glob("*.py"))


def _parsed():
    assert MODULES, "package source not found"
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def test_no_assert_statements():
    """Correctness checks raise InvariantViolated: `python -O` strips asserts."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _parsed().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_top_level_names_defined_once():
    """No top-level function or class name is defined in two modules."""
    where = defaultdict(list)
    for name, tree in _parsed().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where[node.name].append(name)
    assert {n: mods for n, mods in where.items() if len(mods) > 1} == {}
