import ast
import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from padicroots.cli import build_parser, main
from padicroots.sparsepoly import SparsePoly, parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    with resources.files("padicroots.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def test_solve_json_schema_and_count(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "3", "738 - 10*x^2 + x^20", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("solve.json"))
    assert payload["count"] == 8
    assert payload["discriminant"] == {"is_zero": False, "method": "exact", "r": 2}
    # every count rests on a mature tree, so no precision plan or flag is printed
    assert "precision" not in payload
    candidates = payload["normalization"]["candidates"]
    assert candidates and all(set(c) == {"valuation", "k_used", "count"} for c in candidates)
    # polynomial round-trips through the emitted JSON
    terms = [(a, int(c)) for a, c in payload["input"]["terms"]]
    assert SparsePoly.from_terms(terms) == parse_poly("738 - 10*x^2 + x^20")


def test_solve_digits(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "17", "1 - x^340", "--digits", "6", "--json")
    payload = json.loads(out)
    assert payload["count"] == 4
    assert all(len(r["digits"]) == 6 for r in payload["roots"])
    firsts = sorted(tuple(r["digits"][:2]) for r in payload["roots"])
    assert firsts == sorted([(1, 0), (4, 2), (13, 14), (16, 16)])


def test_count_subcommand(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "17", "1 - x^397")
    assert code == 0 and out.strip() == "1"


def test_polygon_subcommand(capsys):
    code, out, _ = run_cli(capsys, "polygon", "--p", "3", "729*x^5 - x^2 + 18*x - 81", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("polygon.json"))
    assert [e["length"] for e in payload["edges"]] == [2, 3]
    code, out, _ = run_cli(capsys, "polygon", "--p", "2", "x^5 - 64*x^2 + 32*x - 4", "--arch", "--json")
    payload = json.loads(out)
    assert [e["length"] for e in payload["edges"]] == [1, 1, 3]


def test_polygon_arch_needs_no_p(capsys):
    # the README example, verbatim
    code, out, _ = run_cli(capsys, "polygon", "--arch", "x^5 - 64*x^2 + 32*x - 4")
    assert code == 0
    assert [ast.literal_eval(line)["length"] for line in out.splitlines()] == [1, 1, 3]
    # the p-adic polygon still needs p
    assert run_cli(capsys, "polygon", "x^5 - 64*x^2 + 32*x - 4")[0] == 2


@pytest.mark.parametrize("p, poly", [("1", "x - 1"), ("0", "x - 1"), ("4", "x^2 - 1")])
def test_polygon_rejects_a_non_prime_p(p, poly):
    # ord_p never ends at p = 1 and divides by zero at p = 0, so run apart
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "padicroots.cli", "polygon", "--p", p, poly],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert run.returncode == 1 and run.stdout == ""
    assert "not prime" in run.stderr and "Traceback" not in run.stderr


def test_tree_subcommand(capsys):
    code, out, _ = run_cli(capsys, "tree", "--p", "17", "--k", "3", "1 - x^340", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("tree.json"))
    assert len(payload["nodes"]) == 5
    assert sorted(n["digit_path"] for n in payload["nodes"] if n["depth"] == 1) == [
        [1], [4], [13], [16]
    ]


def test_tree_at_degree_2_to_the_40():
    """The root node keeps the input's degree, so its reduction is printed
    from its terms; a dense list of 2^40 + 1 entries cannot be built.  At
    p = 2, digit 1 of the second input is degenerate with s = 1: one
    expansion at precision 6, not one of min(2^40, k - 1) Taylor columns.
    Each runs apart, under a 2 GB address-space limit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for p, k, text, root_mod_p in (
        ("3", "4", "2 + x + x^1099511627776", [[0, 2], [1, 1], [2 ** 40, 1]]),
        ("2", "100000000", "1 - 4*x + x^1099511627776", [[0, 1], [2 ** 40, 1]]),
    ):
        t0 = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "padicroots.cli", "tree", text, "--p", p, "--k", k, "--json"],
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert time.perf_counter() - t0 < 1
        assert run.returncode == 0, run.stderr
        payload = json.loads(run.stdout)
        jsonschema.validate(payload, load_schema("tree.json"))
        assert payload["nodes"][0]["poly_mod_p"] == root_mod_p


def _readme_cli_lines():
    """The `padicroots ...` lines of README's CLI block, comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_run(capsys, argv):
    assert argv[0] == "padicroots"
    assert run_cli(capsys, *argv[1:])[0] == 0


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "3", "--d", "20", "--H", "738", "--degenerate")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("bounds.json"))
    assert payload["trinomial_separation_log"] < 0
    # heights above the float range: the degenerate gap is a sum of logs
    code, out, _ = run_cli(
        capsys, "bounds", "--p", "3", "--d", "20", "--H", str(10 ** 400), "--degenerate"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("bounds.json"))
    assert payload["degenerate_gap_log"] > 900


@pytest.mark.parametrize(
    "p, d, H", [("3", "1", "738"), ("3", "20", "0"), ("4", "20", "738")]
)
def test_bounds_rejects_params_outside_the_domain(capsys, p, d, H):
    code, out, err = run_cli(capsys, "bounds", "--p", p, "--d", d, "--H", H)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_tetra_subcommand(capsys):
    code, out, _ = run_cli(capsys, "tetra", "--p", "3", "--h", "3", "--d", "4", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("tetra.json"))
    assert payload["collision_order"] >= 4


# sha256 of `tetra --json` stdout, recorded from the Hensel lift at full
# modulus that the truncated-G certified_residue lift replaced
TETRA_JSON_SHA256 = {
    (2, 3, 4, None): "11693244f33b4e08235b155fd8a4710993cbb51bdbea71f75b78f9a259f34f1b",
    (2, 3, 4, 11): "2a83f9a3d2432683264a85baead4f9e71b961a9d972b022c19ce72205c097706",
    (2, 3, 4, 21): "059f19196ee854d904bdc2f9f02aa77108507c35c71917f0e65184419f3fcd8a",
    (3, 3, 10, None): "9e18013b69f8acc7bc4edfab6cf0f20eae0ec3ca9db4aa60253be6f6d2a59c5e",
    (3, 3, 10, 17): "47c3bbc649cb2ab932620244f693adf68a41b35a8859b1ae4c6980a81762d658",
    (3, 3, 10, 39): "33cc886543d4370c0ab628dccfbc8bd4bf5c8f1b042cd8943f2b0256257414cb",
    (5, 4, 20, None): "fae8f55ce1138988ee517ba1333dcdb454530f539c99738f3f7706e8c125a45b",
    (5, 4, 20, 38): "577f9b5f4addb5fe61bbf829f536d77c45cc9d8407c8e73c65430e1a0e225d70",
    (5, 4, 20, 102): "e7066fde303a0bef6cc9280e964136ed97042766942298eda1b35296ac947a28",
    (7, 5, 40, None): "bf910cb782ff32f595ff06931c548430003c5cc49ce8ef729cb5413296c21271",
    (7, 5, 40, 89): "cab0c07f030d099970b5c2d8d3ccf3f2d9bd919bd651d81d15b831c7965588c6",
    (7, 5, 40, 255): "650a39fb5902048d12484aa4b6f22a8388909bf335d27c66ef2886737ef09003",
    (2, 20, 4000, None): "d63b2a392c6427897a79c433709af00a85d3b70db98eef430bfffffbb07f62c7",
    (3, 10, 8000, None): "93469371914cfe6f319acbdf02a84ac9bc32d857047e51427b72e01c58dc5451",
}


@pytest.mark.parametrize("p, h, d, precision", list(TETRA_JSON_SHA256), ids=str)
def test_tetra_json_is_pinned(capsys, p, h, d, precision):
    """Byte-identical output at the default precision, at the least one
    (shift_exponent + 4) and at 3 shift_exponent."""
    argv = ["tetra", "--p", str(p), "--h", str(h), "--d", str(d), "--json"]
    if precision is not None:
        argv += ["--precision", str(precision)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TETRA_JSON_SHA256[p, h, d, precision]


def test_tetra_at_d_20000():
    """(h-1)d/2 = 190,000 colliding binary digits; the full-modulus Hensel
    lift this replaced did not finish within 60 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    h, d = 20, 20000
    run = subprocess.run(
        [sys.executable, "-m", "padicroots.cli", "tetra", "--p", "2", "--h", str(h),
         "--d", str(d), "--json"],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=15,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["collision_order"] >= (h - 1) * d // 2


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "2", "x^10 + 11*x^2 - 12", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("oracle.json"))
    assert payload["count"] == 6


def test_oracle_rejects_non_prime(capsys):
    code, _, err = run_cli(capsys, "oracle", "--p", "4", "x^2-7")
    assert code == 1 and "not prime" in err


def test_long_coefficient_is_an_error_not_a_crash(capsys):
    # a coefficient over the interpreter's 4300-digit string limit
    poly = "1 + " + "7" * 5000 + "*x + x^2"
    code, out, err = run_cli(capsys, "count", "--p", "5", poly)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    code, out, _ = run_cli(capsys, "count", "--p", "5", poly, "--json")
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_huge_rescale_is_counted_at_once(capsys):
    # each v = 1 rescale holds a power of p of 10^9 to 10^18 bits as a part,
    # never built: count, solve and the oracle agree, each within 1 s
    for p, text, want in [
        ("3", "3 - x + x^1099511627776", 1),
        ("3", "9 - x^2 + x^1073741824", 4),
        ("2", "4 - 2*x + x^1152921504606846976", 1),
    ]:
        for command in ("count", "solve", "oracle"):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, command, "--p", p, text, "--json")
            assert time.perf_counter() - t0 < 1
            assert code == 0 and json.loads(out)["count"] == want, (command, text)


def test_oracle_rescale_is_budgeted(capsys):
    # built from the coefficients' orders, 1 + ... + 3^99999 x^100000 at v = 1
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", "--p", "3", "3 - x + x^100000")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and json.loads(out)["count"] == 1
    # the v = 1 rescale holds 3^(2^30 - 2) as a part, never built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--p", "3", "9 - x^2 + x^1073741824", "--json")
    assert time.perf_counter() - t0 < 1
    assert code == 0 and json.loads(out)["count"] == 4


def test_prime_cap_on_both_paths(capsys):
    # count certifies nothing, yet refuses the same p that solve refuses
    for command in ("solve", "count"):
        code, out, _ = run_cli(capsys, command, "--p", "100003", "1 - x^2", "--json")
        assert code == 1 and json.loads(out)["error"] == "PrimeTooLarge"


def test_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "solve", "--p", "4", "x^2 - 1")
    assert code == 1  # 4 is not prime -> computational error path
    for argv in (["count", "--p", "4", "x^3"], ["solve", "--p", "1", "x^2"]):
        assert run_cli(capsys, *argv)[0] == 1  # monomials are checked too
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2


def test_removed_options_are_usage_errors(capsys):
    # one precision policy: one uncapped tree per valuation, which matures
    assert run_cli(capsys, "solve", "--p", "5", "x^2 - 1", "--paper-k")[0] == 2
    assert run_cli(capsys, "bench", "--p-list", "3", "--d-list", "10")[0] == 2
    # one exact discriminant test at every degree
    assert run_cli(capsys, "solve", "--p", "5", "x^2 - 1", "--exact")[0] == 2
    # two solve modes: full and restricted-root
    for cmd in ("solve", "count"):
        assert run_cli(capsys, cmd, "--p", "5", "x^2 - 1", "--mode", "small-gcd-assume")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["tetra", "--p", "2", "--h", "1000", "--d", "4"],
        ["bounds", "--p", "3", "--d", str(2 ** 63 - 1), "--H", "9" * 300],
        ["polygon", "--arch", "x^9223372036854775807 - 1"],
        ["count", "--p", "3", "x^9223372036854775807 - 1"],
        ["tree", "--p", "3", "--k", "1", "738 - 10*x^2 + x^20"],
        ["solve", "--p", "2", "x^2 - 1", "--digits", "1"],
        ["oracle", "--p", "5", "x^3 - 2"],
    ],
    ids=lambda argv: argv[0],
)
def test_extreme_arguments_end_in_an_exit_code(capsys, argv):
    """Each subcommand at an edge of its domain ends in exit code 0 or 1:
    a result or a typed error, never a Python exception."""
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1) and "Traceback" not in err


def test_usage_error_on_missing_p(capsys):
    assert run_cli(capsys, "solve", "x^2 - 1")[0] == 2


def test_usage_error_on_digits_below_one(capsys):
    for digits in ("0", "-2"):
        assert run_cli(capsys, "solve", "--p", "17", "1 - x^340", "--digits", digits)[0] == 2


def test_parser_is_built_once_and_reused(capsys):
    """main reuses one parser: a usage error leaves nothing behind that
    changes the next call."""
    build_parser.cache_clear()
    alone = run_cli(capsys, "count", "--p", "17", "1 - x^397")
    assert alone == (0, "1\n", "")
    assert run_cli(capsys, "solve", "--p", "17", "1 - x^340", "--digits", "0")[0] == 2
    assert run_cli(capsys, "count", "--p", "17", "1 - x^397") == alone
    assert build_parser() is build_parser()
