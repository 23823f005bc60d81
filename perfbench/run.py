"""Benchmark of padicroots: seeded workloads through the public API.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads: corpus, large-p, degenerate, count (see ``workloads.py``).  The
load is a closed loop: one caller, one operation in flight, one thread.  An
operation is one ``solve_sparse(f, p)`` call, or for ``count`` one
in-process ``padicroots.cli.main(["count", ...])`` call.

A run measures whole cycles of operations for ``--seconds``, at least 100
operations, in the workload's number of rounds, then checks every count:
against the brute-force oracle, or against counts known by construction or
pinned.  Each round runs in a fresh interpreter of its own (later rounds
replay round 1's operations there), so no round can reuse another's state.
Times are scaled to a fixed reference machine speed (``calibrate.py``), and
each operation keeps its fastest round.  Peak resident set is the largest
of the round interpreters'.  Set-up time comes from further fresh
interpreters that import padicroots and run one warm-up operation.  With
``--trace 0`` the run reports the end-to-end metrics; the human-readable
lines before the JSON also give sample counts, the fail rate by exception
type and the unscaled figures.  With ``--trace 1`` it replays the same
operations once more with timing wrappers installed (``tracer.py``) and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when every count is right; a wrong
count is named on standard error and exits 1.  Exit code 2 means the
benchmark could not run (no program to measure, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_SLICE_S, reference_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # so that at least 10 samples lie beyond the 90th percentile
MAX_OPS = 200_000  # per round; a round on a fast machine stops there
SEGMENT_S = 0.25  # operations between two reference slices, at least
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 150
FAILED = -1  # count recorded for an operation that raised
SPANS_WRITTEN_OPS = 200  # spans of the first operations go to the trace file

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here."""


class CommandFailed(Exception):
    """The command line returned a nonzero exit code."""


def locate_program():
    """Import padicroots from this checkout's ``src``, never from elsewhere."""
    init = SRC / "padicroots" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no program to measure: {init} is missing")
    sys.path.insert(0, str(SRC))
    import padicroots

    if Path(padicroots.__file__).resolve() != init.resolve():
        raise BenchError(f"padicroots imported from {padicroots.__file__}, not from {SRC}")
    return padicroots


def make_executor(workload: str):
    """The operation: op -> root count.  Module attributes are looked up on
    every call, so the tracer's wrappers take effect once installed."""
    if workload == "count":
        from padicroots import cli

        def execute(op):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(list(op.argv))
            if rc != 0:
                raise CommandFailed(f"exit code {rc}: {buf.getvalue().strip()}")
            return int(buf.getvalue())

        return execute

    from padicroots import trinomial

    def execute(op):
        return trinomial.solve_sparse(op.poly, op.p).root_count

    return execute


@dataclass
class Pass:
    """One closed-loop pass over whole cycles of a workload's stream.

    ``latencies``, ``counts`` and ``segments`` hold one entry per operation
    in their first ``ops`` places.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    counts: array = field(default_factory=lambda: array("q"))
    segments: array = field(default_factory=lambda: array("i"))  # per op
    refs: array = field(default_factory=lambda: array("d"))  # reference slices
    failures: Counter = field(default_factory=Counter)  # exception type -> n
    examples: dict = field(default_factory=dict)  # exception type -> first message
    busy_s: float = 0.0  # wall time of the cycles, generation excluded
    cycles: int = 0
    ops: int = 0
    peak_rss_mb: float = 0.0  # of the process that ran the pass

    @classmethod
    def preallocated(cls) -> Pass:
        """Room for MAX_OPS operations, taken up front: the pass's own
        bookkeeping then adds the same to the peak resident set whatever
        the number of operations."""
        return cls(array("d", [0.0]) * MAX_OPS, array("q", [0]) * MAX_OPS,
                   array("i", [0]) * MAX_OPS)

    def to_json(self) -> dict:
        n = self.ops
        return {
            "latencies": self.latencies[:n].tolist(), "counts": self.counts[:n].tolist(),
            "segments": self.segments[:n].tolist(), "refs": self.refs.tolist(),
            "failures": dict(self.failures), "examples": self.examples,
            "busy_s": self.busy_s, "cycles": self.cycles, "peak_rss_mb": self.peak_rss_mb,
        }

    @classmethod
    def from_json(cls, d: dict) -> Pass:
        return cls(array("d", d["latencies"]), array("q", d["counts"]),
                   array("i", d["segments"]), array("d", d["refs"]), Counter(d["failures"]),
                   d["examples"], d["busy_s"], d["cycles"], len(d["counts"]),
                   d["peak_rss_mb"])

    @property
    def speed(self) -> float:
        """The machine's median speed in this pass, as a multiple of the
        reference speed: times at the reference speed are times here
        multiplied by it."""
        return REFERENCE_SLICE_S / statistics.median(self.refs)

    def scaled(self) -> list[float]:
        """Latencies at the reference machine speed (see calibrate.py).

        Segment k of operations lies between reference slices k and k + 1.
        """
        speed = [REFERENCE_SLICE_S * 2 / (a + b) for a, b in zip(self.refs, self.refs[1:])]
        return [t * speed[k] for t, k in zip(self.latencies[:self.ops], self.segments)]


def run_ops(stream, execute, seconds: float = 0.0, min_ops: int = 0,
            cycles: int | None = None) -> Pass:
    """Run whole cycles until ``seconds`` at the reference machine speed and
    ``min_ops`` are both reached, or exactly ``cycles`` cycles, or until the
    next cycle would pass MAX_OPS.  Every exception is counted, never raised.
    Timing the stop at the reference speed keeps a run's operations the same
    whether the machine is in a fast or a slow spell.

    A reference slice is timed before the first operation, after the last
    one, and between operations once SEGMENT_S of them have run; its time
    counts in no latency and not in ``busy_s``.
    """
    res = Pass.preallocated()
    res.refs.append(reference_slice())
    since_probe = 0.0
    for cycle in stream:
        if res.ops + len(cycle) > MAX_OPS:
            break
        t_cycle = time.perf_counter()
        probing = 0.0
        for op in cycle:
            t0 = time.perf_counter()
            try:
                count = execute(op)
            except Exception as exc:  # a crash is a result: count it, go on
                count = FAILED
                kind = type(exc).__name__
                res.failures[kind] += 1
                res.examples.setdefault(kind, f"{op.describe()}: {str(exc)[:200]}")
            latency = time.perf_counter() - t0
            i = res.ops
            res.latencies[i] = latency
            res.counts[i] = count
            res.segments[i] = len(res.refs) - 1
            res.ops += 1
            since_probe += latency
            if since_probe >= SEGMENT_S:
                t_probe = time.perf_counter()
                res.refs.append(reference_slice())
                probing += time.perf_counter() - t_probe
                since_probe = 0.0
        res.busy_s += time.perf_counter() - t_cycle - probing
        res.cycles += 1
        if cycles is not None:
            if res.cycles >= cycles:
                break
        elif res.busy_s * res.speed >= seconds and res.ops >= min_ops:
            break
    if since_probe:
        res.refs.append(reference_slice())
    return res


def check_counts(ops, passes) -> tuple[list[str], float]:
    """Compare every recorded count with ``reference_count``.

    Returns the list of problems, each naming its input, and the seconds
    spent in the reference.
    """
    problems = []
    ref_s = 0.0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            want, source = reference_count(op)
        except Exception as exc:
            problems.append(f"cannot check {op.describe()}: {type(exc).__name__}: {exc}")
            continue
        finally:
            ref_s += time.perf_counter() - t0
        for label, res in passes:
            got = res.counts[i]
            if got != FAILED and got != want:
                problems.append(
                    f"wrong count for {op.describe()}: {label} run gave {got}, "
                    f"{source} gives {want}"
                )
    return problems, ref_s


def reference_count(op):
    """The count known by construction or pinned, else the oracle's."""
    if op.expected is not None:
        return op.expected, "the known count"
    from padicroots.oracle import count_qp_roots

    return count_qp_roots(op.poly, op.p).qp_count, "the oracle"


def first_ops(workload: str, seed: int, n: int):
    from workloads import cycles

    out = []
    for cycle in cycles(workload, seed):
        out.extend(cycle)
        if len(out) >= n:
            return out[:n]
    return out


def setup_probe(workload: str) -> tuple[float, float]:
    """Fresh-interpreter set-up: import padicroots plus one warm-up operation.

    Only the program's part is timed: building the warm-up input (and
    importing the benchmark's own modules) is left out.  Returns the set-up
    seconds and a reference slice timed just before.
    """
    ref = reference_slice()
    t0 = time.perf_counter()
    locate_program()
    t1 = time.perf_counter()
    from workloads import warmup_op

    execute = make_executor(workload)
    op = warmup_op(workload)
    t2 = time.perf_counter()
    execute(op)
    return (t1 - t0) + (time.perf_counter() - t2), ref


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(set-up seconds, reference slice seconds) from fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
    return samples


def round_child(workload: str, seed: int, seconds: float, cycles: int) -> dict:
    """One timed round, in the fresh interpreter that runs this function.

    After one untimed warm-up operation, run the seed's cycles for
    ``seconds`` (``cycles`` 0) or exactly ``cycles`` of them.  The process's
    peak resident set is read before the result is serialised.
    """
    from workloads import cycles as stream, warmup_op

    execute = make_executor(workload)
    execute(warmup_op(workload))
    res = run_ops(stream(workload, seed), execute, seconds, MIN_OPS, cycles or None)
    res.peak_rss_mb = peak_rss_mb()
    return res.to_json()


def run_round(workload: str, seed: int, seconds: float, cycles: int) -> Pass:
    """``round_child`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--round-child", "--workload",
         workload, "--seed", str(seed), "--seconds", repr(seconds), "--cycles", str(cycles)],
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"timed round failed: {proc.stderr.strip()[-500:]}")
    return Pass.from_json(json.loads(proc.stdout.splitlines()[-1]))


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter's own address space, in MB.

    On Linux ``ru_maxrss`` would also count the parent's resident set, which
    the child inherits across the exec that started it, so the address
    space's high-water mark is read instead where the system reports it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def write_trace(workload: str, seed: int, tracer, spans, layer: dict, totals) -> Path:
    """Write the per-layer split and the spans of the first operations."""
    calls, self_s = totals
    first = [
        {"name": tracer.names[n], "start": s, "end": e, "parent": par, "op": op}
        for n, s, e, par, op in zip(spans.name, spans.start, spans.end, spans.parent, spans.op)
        if op < SPANS_WRITTEN_OPS
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "missing_wraps": tracer.missing,
        "hook_errors": dict(tracer.hook_errors),
        "per_layer": layer,
        "by_span": {k: {"calls": calls[k], "self_s": self_s[k]} for k in sorted(calls)},
        "spans": first,
    }, indent=1))
    return path


def timed_rounds(workload: str, seed: int, seconds: float) -> list[Pass]:
    """The timed phase: whole cycles for ``seconds`` split over the rounds.

    Round 1 runs until its share of ``seconds`` has passed and MIN_OPS are
    done.  Later rounds replay exactly the same cycles, regenerated from
    the seed.  Each round runs in a fresh interpreter.
    """
    from workloads import ROUNDS

    n = ROUNDS[workload]
    rounds = [run_round(workload, seed, seconds / n, 0)]
    while len(rounds) < n:
        rounds.append(run_round(workload, seed, 0.0, rounds[0].cycles))
    return rounds


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    locate_program()
    import tracer as tracing
    from workloads import cycles, warmup_op

    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}"]
    setup = measure_setup(workload)
    rounds = timed_rounds(workload, seed, seconds)
    passes = [(f"untraced round {i + 1}", r) for i, r in enumerate(rounds)]
    if trace:
        execute = make_executor(workload)
        execute(warmup_op(workload))
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_ops(cycles(workload, seed), tr.wrapper(execute, tracing.OP_SPAN),
                             cycles=rounds[0].cycles)
        finally:
            tr.uninstall()
        passes.append(("traced", traced))

    n = rounds[0].ops
    ops = first_ops(workload, seed, n)
    check_refs = [reference_slice()]
    problems, oracle_s = check_counts(ops, passes)
    check_refs.append(reference_slice())
    failed = sum(1 for i in range(n) if any(r.counts[i] == FAILED for r in rounds))
    failures = sum((r.failures for r in rounds), Counter())
    examples = {k: v for r in reversed(rounds) for k, v in r.examples.items()}

    if trace:
        spans = tr.spans()
        totals = tracing.span_totals(tr, spans)
        # self times at the reference machine speed, like the end-to-end times
        layer = tracing.layer_metrics(tr, totals, traced.ops, {
            "oracle.check_s": oracle_s / n * REFERENCE_SLICE_S / statistics.mean(check_refs),
            "trace.overhead_ratio": traced.busy_s * traced.speed
            / min(r.busy_s * r.speed for r in rounds),
        }, scale=traced.speed)
        path = write_trace(workload, seed, tr, spans, layer, totals)
        metrics = {m.name: {"value": layer[m.name], "unit": m.unit}
                   for m in tracing.LAYER_METRICS}
        wall = traced.busy_s * traced.speed / traced.ops
        lines.append(f"  traced {traced.ops} ops, {wall * 1e3:.4f} ms/op traced wall "
                     f"at the reference speed (machine at {traced.speed:.2f} times it)")
        for m in tracing.LAYER_METRICS:
            v = layer[m.name]
            share = f"  ({v / wall:6.1%} of traced wall)" if m.kind == "self" and v else ""
            shown = "missing" if v is None else f"{v:.6g}"
            lines.append(f"  {m.name:38s} {shown:>12s} {m.unit}{share}")
        if tr.missing:
            lines.append(f"  wrap targets not found: {', '.join(tr.missing)}")
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
    else:
        # times at the reference machine speed (calibrate.py); each
        # operation then keeps its fastest round
        scaled = [r.scaled() for r in rounds]
        best_ms = [min(lat[i] for lat in scaled) * 1e3 for i in range(n)]
        values = {
            "throughput_ops_s": n / (sum(best_ms) / 1e3),
            "latency_p50_ms": statistics.median(best_ms),
            "latency_p90_ms": percentile(best_ms, 90),
            "setup_s": statistics.median(t * REFERENCE_SLICE_S / ref for t, ref in setup),
            "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
        }
        raw_ms = [min(r.latencies[i] for r in rounds) * 1e3 for i in range(n)]
        refs = sorted(REFERENCE_SLICE_S / x for r in rounds for x in r.refs)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        busy = " + ".join(f"{r.busy_s:.2f}" for r in rounds)
        notes = {
            "throughput_ops_s": f"{n} ops / sum of per-op scaled minimum latencies",
            "latency_p50_ms": f"n = {n} per-op scaled minima over {len(rounds)} rounds",
            "latency_p90_ms": f"n = {n}, {n - int(0.9 * n)} beyond",
            "setup_s": f"scaled median of {len(setup)} fresh interpreters",
            "peak_rss_mb": f"largest of the {len(rounds)} round interpreters",
        }
        lines.append(f"  {n} ops in {rounds[0].cycles} cycles, {len(rounds)} rounds "
                     f"of {busy} s")
        lines.append(f"  machine speed vs the reference: min {refs[0]:.2f}, "
                     f"median {statistics.median(refs):.2f}, max {refs[-1]:.2f} "
                     f"({len(refs)} reference slices); "
                     f"unscaled p50 {statistics.median(raw_ms):.6g} ms, "
                     f"throughput {n / sum(raw_ms) * 1e3:.6g} ops/s")
        for name, unit in END_TO_END:
            lines.append(f"  {name:18s} {values[name]:14.6g} {unit:6s} ({notes[name]})")
        by_type = ", ".join(f"{k} {v}" for k, v in failures.items()) or "none"
        lines.append(f"  {'fail_rate':18s} {failed / n:14.6g} {'ratio':6s} "
                     f"({failed} of {n}; by type, over all rounds: {by_type})")
    for kind, example in examples.items():
        lines.append(f"  first {kind}: {example}")
    checked = n - failed
    lines.append(f"  check: {checked} counts against the oracle or known counts, "
                 f"{len(problems)} problems, reference {oracle_s:.2f} s")
    result = {"correct": not problems, "attempted": n, "failed": failed, "metrics": metrics}
    return result, lines + [f"  PROBLEM {p}" for p in problems[:20]]


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own fresh interpreter; one summary at the end."""
    locate_program()
    from workloads import WORKLOADS

    summary, ok, attempted, failed = {}, True, 0, 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not out:
            ok = False
            continue
        res = json.loads(out[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            summary[f"{w}.{name}"] = m
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="corpus, large-p, degenerate, count, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--round-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cycles", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(*setup_probe(args.setup_probe))
            return 0
        if args.round_child:
            locate_program()
            print(json.dumps(round_child(args.workload, args.seed, args.seconds, args.cycles)))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        locate_program()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    for line in lines:
        if line.startswith("  PROBLEM"):
            print(line.strip(), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
