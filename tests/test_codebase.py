"""Guards on the package source: typed invariants, one copy of each helper, no dead code."""

import ast
import re
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


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield item


def _without_exports(text: str) -> str:
    """__init__.py with its imports and its __all__ list left out."""
    tree = ast.parse(text)
    kept = [
        ast.get_source_segment(text, node)
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    ]
    return "\n".join(kept)


def test_every_definition_is_used():
    """Each definition's name appears somewhere outside its own body, in the
    package or the benchmark.  An export is not a use: the names in
    __init__.py's imports and __all__ do not count.  Code nothing calls is
    deleted, and code only a test calls lives in tests/."""
    root = Path(__file__).resolve().parents[1]
    sources = {
        path: _without_exports(text) if path.name == "__init__.py" else text
        for folder in ("src", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
        for text in [path.read_text()]
    }
    unused = []
    for path in MODULES:
        lines = sources[path].splitlines()
        for node in _definitions(ast.parse(sources[path], filename=str(path))):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno:])
            if not word.search(outside) and not any(
                word.search(text) for other, text in sources.items() if other != path
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def test_oracle_shares_only_arith_errors_and_container():
    """The oracle is an independent check: it imports nothing of the
    solver, only `arith`, `errors` and the `SparsePoly` container."""
    found = set()
    for node in ast.walk(_parsed()["oracle.py"]):
        if isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    package = {name for name in found if name.startswith((".", "padicroots"))}
    assert package <= {".arith", ".errors", ".sparsepoly"}, package


def test_exports_are_the_imported_names():
    """padicroots.__all__ lists exactly the names __init__.py imports, so a
    deleted function cannot stay exported."""
    import padicroots

    tree = _parsed()["__init__.py"]
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(padicroots.__all__) == sorted(imported)


def test_every_dataclass_field_is_read():
    """Each annotated field of a @dataclass in the package is read as
    `.<field>` somewhere in the package, the tests or the benchmark; a
    method of its own class counts.  A field nothing reads is deleted."""
    root = Path(__file__).resolve().parents[1]
    text = "\n".join(
        path.read_text()
        for folder in ("src", "tests", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    )
    unread = [
        f"{name}:{item.lineno} {node.name}.{item.target.id}"
        for name, tree in _parsed().items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and not re.search(rf"\.{re.escape(item.target.id)}\b", text)
    ]
    assert unread == []
