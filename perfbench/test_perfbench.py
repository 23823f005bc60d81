"""Self-tests of the benchmark harness (workloads, tracer, runner).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.locate_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from padicroots import trinomial  # noqa: E402


def _first(workload: str, seed: int, n_cycles: int = 2):
    stream = workloads.cycles(workload, seed)
    return [op for _ in range(n_cycles) for op in next(stream)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = _first(workload, 7)
    assert a == _first(workload, 7)
    assert a != _first(workload, 8)


def test_count_binomials_have_their_constructed_count():
    rng = random.Random(3)
    for _ in range(3):
        op = workloads.count_binomial(rng, 300)
        (_, c0), (d, c1) = op.poly.terms
        t = -c0 // c1
        # p does not divide d, so each solution in F_p lifts to one root in Z_p
        assert d % op.p
        solutions = sum(1 for z in range(1, op.p) if pow(z, d, op.p) == t % op.p)
        assert solutions == op.expected


def test_self_time_on_nested_fake_spans():
    # root [0, 10] has children A [1, 4] and B [5, 9], and C [8, 12]
    # overlapping B and running past the root; A has a child [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 5, 3 - 1, 1, 4, 4])


def test_latencies_are_scaled_by_the_bracketing_reference_slices():
    ref = run.REFERENCE_SLICE_S
    res = run.Pass.preallocated()
    res.refs.extend([ref, 3 * ref, 2 * ref])  # machine at 1/2, then 2/5 speed
    res.latencies[:3] = run.array("d", [1.0, 2.0, 5.0])
    res.segments[:3] = run.array("i", [0, 0, 1])
    res.ops = 3
    assert res.scaled() == pytest.approx([0.5, 1.0, 2.0])


def test_round_runs_in_a_fresh_interpreter_and_round_trips():
    res = run.run_round("corpus", 1, 0.0, 1)
    ops = _first("corpus", 1, n_cycles=1)
    assert res.cycles == 1 and res.ops == len(ops) == len(res.latencies)
    assert list(res.counts) == [run.reference_count(op)[0] for op in ops]
    assert res.peak_rss_mb > 0 and len(res.refs) >= 2
    assert run.Pass.from_json(res.to_json()) == res


def test_tracer_replays_events_into_spans():
    tr = tracing.Tracer()
    op, f, g = (tr.name_id(n) for n in (tracing.OP_SPAN, "f", "g"))
    # op 0: f containing g; op 1: f left open by a crash
    events = [(op, 0.0), (f, 1.0), (g, 2.0), (-1, 3.0), (-1, 4.0), (-1, 5.0),
              (op, 6.0), (f, 7.0), (op, 9.0), (-1, 10.0)]
    for code, t in events:
        tr.codes.append(code)
        tr.times.append(t)
    s = tr.spans()
    assert list(s.name) == [op, f, g, op, f, op]
    assert list(s.parent) == [-1, 0, 1, -1, 3, -1]
    assert list(s.op) == [0, 0, 0, 1, 1, 2]
    assert list(s.end) == [5.0, 4.0, 3.0, 9.0, 9.0, 10.0]


def test_tracer_wraps_and_restores_the_program():
    original = trinomial.stabilized_tree
    tr = tracing.Tracer()
    tr.install()
    try:
        execute = tr.wrapper(run.make_executor("corpus"), tracing.OP_SPAN)
        assert execute(workloads.warmup_op("corpus")) >= 0
    finally:
        tr.uninstall()
    assert trinomial.stabilized_tree is original
    assert not tr.missing and not tr.hook_errors
    spans = tr.spans()
    totals = tracing.span_totals(tr, spans)
    layer = tracing.layer_metrics(tr, totals, 1, {})
    assert layer["nodal_tree.ladders"] >= 1
    assert layer["nodal_tree.nodes"] >= 1
    assert layer["nodal_tree.build_self_s"] > 0


def test_missing_wrap_target_reports_missing_metric():
    wraps = [w for w in tracing.WRAPS if w[2] != "nodal_tree.build_tree"]
    wraps.append(("padicroots.nodal_tree", "no_such_function", "nodal_tree.build_tree",
                  tracing._count_tree, ("tree.nodes", "tree.scan_points")))
    tr = tracing.Tracer(wraps=tuple(wraps))
    tr.install()
    try:
        execute = tr.wrapper(run.make_executor("corpus"), tracing.OP_SPAN)
        execute(workloads.warmup_op("corpus"))
    finally:
        tr.uninstall()
    assert tr.missing == ["padicroots.nodal_tree.no_such_function"]
    layer = tracing.layer_metrics(tr, tracing.span_totals(tr, tr.spans()), 1, {})
    for name in ("nodal_tree.rungs", "nodal_tree.nodes", "nodal_tree.build_self_s",
                 "nodal_tree.useful_rung_share", "fp.scan_points"):
        assert layer[name] is None
    assert layer["nodal_tree.ladders"] is not None


def test_raising_op_is_counted_and_the_loop_goes_on():
    ops = _first("corpus", 1, n_cycles=1)
    bad = ops[1]

    def execute(op):
        if op is bad:
            raise RecursionError("maximum recursion depth exceeded")
        return 0

    res = run.run_ops(iter([ops]), execute, cycles=1)
    assert res.ops == len(ops)
    assert res.failures == {"RecursionError": 1}
    assert res.counts[1] == run.FAILED
    assert bad.describe() in res.examples["RecursionError"]


def test_wrong_count_trips_the_gate(monkeypatch, capsys):
    target = _first("corpus", 1, n_cycles=1)[2]

    def off_by_one_rounds(workload, seed, seconds):
        execute = run.make_executor(workload)
        return [run.run_ops(workloads.cycles(workload, seed),
                            lambda op: execute(op) + (op == target), cycles=1)]

    monkeypatch.setattr(run, "timed_rounds", off_by_one_rounds)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    rc = run.main(["--workload", "corpus", "--seed", "1", "--seconds", "0.01"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert f"wrong count for {target.describe()}" in err


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
