"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers, at the name
each caller looks them up by: ``from x import y`` binds ``y`` in the
caller's module, so ``padicroots.trinomial.stabilized_tree`` is wrapped,
not only ``padicroots.nodal_tree.stabilized_tree``.  Every call records a
span (name, start, end, parent span, operation id) in memory; hooks read
counts from the returned objects.  Self time is a span's duration minus the
part of it covered by its child spans.

A wrap target that no longer exists is recorded as missing, and every
metric that depends on it is reported as ``None``; neither the traced nor
the untraced run fails because of it.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field


# -- hooks: counts read from returned objects ------------------------------


def _count_discriminant(counts: Counter, report) -> None:
    counts["discriminant.modular"] += report.method == "modular"


def _count_ladder(counts: Counter, st) -> None:
    counts["ladder.capped"] += not st.stabilized
    counts["ladder.k_max"] = max(counts["ladder.k_max"], st.k_used)


def _count_tree(counts: Counter, tree) -> None:
    nodes = tree.node_count
    counts["tree.nodes"] += nodes
    counts["tree.scan_points"] += nodes * tree.p


# (module, attribute, span name, hook, counters the hook produces)
WRAPS = (
    ("padicroots.trinomial", "solve_sparse", "trinomial.solve_sparse", None, ()),
    ("padicroots.trinomial", "solve_trinomial", "trinomial.solve_trinomial", None, ()),
    ("padicroots.trinomial", "discriminant_tri", "trinomial.discriminant_tri",
     _count_discriminant, ("discriminant.modular",)),
    ("padicroots.trinomial", "degenerate_roots_qp", "trinomial.degenerate_roots_qp", None, ()),
    ("padicroots.trinomial", "precision_plan", "trinomial.precision_plan", None, ()),
    ("padicroots.trinomial", "integral_valuation_candidates",
     "newton_polygon.integral_valuation_candidates", None, ()),
    ("padicroots.trinomial", "rescale_for_valuation", "sparsepoly.rescale_for_valuation",
     None, ()),
    ("padicroots.trinomial", "stabilized_tree", "nodal_tree.stabilized_tree",
     _count_ladder, ("ladder.capped", "ladder.k_max")),
    ("padicroots.trinomial", "gcd_with_frobenius", "fp.gcd_with_frobenius", None, ()),
    ("padicroots.trinomial", "certified_residue", "newton.certified_residue", None, ()),
    ("padicroots.trinomial", "solve_binomial", "binomial.solve_binomial", None, ()),
    ("padicroots.nodal_tree", "build_tree", "nodal_tree.build_tree",
     _count_tree, ("tree.nodes", "tree.scan_points")),
    ("padicroots.nodal_tree", "s_value", "nodal_tree.s_value", None, ()),
    ("padicroots.nodal_tree", "shift_rescale", "sparsepoly.shift_rescale", None, ()),
    ("padicroots.binomial", "binomial_coset_roots", "fp.binomial_coset_roots", None, ()),
    ("padicroots.binomial", "certified_residue", "newton.certified_residue", None, ()),
    ("padicroots.cli", "main", "cli.main", None, ()),
    ("padicroots.cli", "parse_poly", "sparsepoly.parse_poly", None, ()),
    ("padicroots.cli", "solve_sparse", "trinomial.solve_sparse", None, ()),
)

OP_SPAN = "op"  # the root span the benchmark opens around each operation


# -- per-layer metrics -------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, how it is computed, and what it should move.

    ``kind`` is one of: ``self`` (self seconds per operation), ``calls``
    (calls per operation), ``per_op`` (a counter per operation), ``max``
    (a counter's maximum), ``ratio`` (``source`` over ``den``, each a span
    name's call count or a counter) or ``run`` (filled in by the runner).
    """

    name: str
    unit: str
    better: str
    kind: str
    source: str = ""
    den: str = ""
    moves: str = ""


LAYER_METRICS = (
    LayerMetric("newton_polygon.calls", "count/op", "lower", "calls",
                "newton_polygon.integral_valuation_candidates",
                moves="latency_p50_ms on corpus"),
    LayerMetric("newton_polygon.self_s", "s/op", "lower", "self",
                "newton_polygon.integral_valuation_candidates",
                moves="latency_p50_ms on corpus"),
    LayerMetric("trinomial.self_s", "s/op", "lower", "self", "trinomial.solve_trinomial",
                moves="throughput_ops_s on corpus"),
    LayerMetric("trinomial.plan_calls_per_solve", "count", "lower", "ratio",
                "trinomial.precision_plan", "trinomial.solve_trinomial",
                moves="throughput_ops_s on corpus"),
    LayerMetric("trinomial.plan_s", "s/op", "lower", "self", "trinomial.precision_plan",
                moves="throughput_ops_s on corpus"),
    LayerMetric("trinomial.discriminant_s", "s/op", "lower", "self",
                "trinomial.discriminant_tri", moves="latency_p50_ms on count"),
    LayerMetric("trinomial.discriminant_modular_share", "ratio", "higher", "ratio",
                "discriminant.modular", "trinomial.discriminant_tri",
                moves="latency_p50_ms on count"),
    LayerMetric("trinomial.degenerate_s", "s/op", "lower", "self",
                "trinomial.degenerate_roots_qp", moves="latency_p50_ms on degenerate"),
    LayerMetric("sparsepoly.rescale_s", "s/op", "lower", "self",
                "sparsepoly.rescale_for_valuation", moves="latency_p50_ms on corpus"),
    LayerMetric("sparsepoly.shift_rescale_calls", "count/op", "lower", "calls",
                "sparsepoly.shift_rescale", moves="latency_p90_ms on degenerate"),
    LayerMetric("sparsepoly.shift_rescale_s", "s/op", "lower", "self",
                "sparsepoly.shift_rescale", moves="latency_p90_ms on degenerate"),
    LayerMetric("nodal_tree.ladders", "count/op", "lower", "calls",
                "nodal_tree.stabilized_tree", moves="throughput_ops_s on large-p"),
    LayerMetric("nodal_tree.rungs", "count/op", "lower", "calls", "nodal_tree.build_tree",
                moves="throughput_ops_s on large-p"),
    LayerMetric("nodal_tree.useful_rung_share", "ratio", "higher", "ratio",
                "nodal_tree.stabilized_tree", "nodal_tree.build_tree",
                moves="throughput_ops_s on large-p"),
    LayerMetric("nodal_tree.nodes", "count/op", "lower", "per_op", "tree.nodes",
                moves="throughput_ops_s and peak_rss_mb on large-p"),
    LayerMetric("nodal_tree.build_self_s", "s/op", "lower", "self", "nodal_tree.build_tree",
                moves="throughput_ops_s and peak_rss_mb on large-p"),
    LayerMetric("nodal_tree.cap_share", "ratio", "lower", "ratio", "ladder.capped",
                "nodal_tree.stabilized_tree",
                moves="latency_p90_ms and fail_rate on degenerate"),
    LayerMetric("nodal_tree.k_max", "k", "lower", "max", "ladder.k_max",
                moves="latency_p90_ms and fail_rate on degenerate"),
    LayerMetric("nodal_tree.s_value_s", "s/op", "lower", "self", "nodal_tree.s_value",
                moves="latency_p90_ms and fail_rate on degenerate"),
    LayerMetric("fp.scan_points", "count/op", "lower", "per_op", "tree.scan_points",
                moves="throughput_ops_s on large-p"),
    LayerMetric("fp.frobenius_calls", "count/op", "lower", "calls", "fp.gcd_with_frobenius",
                moves="latency_p90_ms on degenerate"),
    LayerMetric("fp.frobenius_s", "s/op", "lower", "self", "fp.gcd_with_frobenius",
                moves="latency_p90_ms on degenerate"),
    LayerMetric("fp.coset_s", "s/op", "lower", "self", "fp.binomial_coset_roots",
                moves="throughput_ops_s on count"),
    LayerMetric("binomial.calls", "count/op", "lower", "calls", "binomial.solve_binomial",
                moves="throughput_ops_s on count and corpus"),
    LayerMetric("binomial.self_s", "s/op", "lower", "self", "binomial.solve_binomial",
                moves="throughput_ops_s on count and corpus"),
    LayerMetric("newton.certify_calls", "count/op", "lower", "calls",
                "newton.certified_residue", moves="throughput_ops_s on count"),
    LayerMetric("newton.certify_s", "s/op", "lower", "self", "newton.certified_residue",
                moves="throughput_ops_s on count"),
    LayerMetric("cli.self_s", "s/op", "lower", "self", "cli.main",
                moves="latency_p50_ms on count"),
    LayerMetric("cli.parse_s", "s/op", "lower", "self", "sparsepoly.parse_poly",
                moves="latency_p50_ms on count"),
    LayerMetric("oracle.check_s", "s/op", "lower", "run",
                moves="none; reference only, moves with evaluator unification"),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", "run", moves="none"),
)


# -- spans -------------------------------------------------------------------


@dataclass
class Tracer:
    """One traced run.

    While the run is hot, a span is two events in flat arrays: its name id
    and start time, then ``-1`` and its end time.  ``spans()`` replays the
    events into (name, start, end, parent, operation) records afterwards.
    """

    names: list = field(default_factory=list)
    name_ids: dict = field(default_factory=dict)
    codes: array = field(default_factory=lambda: array("i"))  # name id, or -1 for an end
    times: array = field(default_factory=lambda: array("d"))
    counts: Counter = field(default_factory=Counter)
    wraps: tuple = WRAPS
    missing: list = field(default_factory=list)  # "module.attr" wrap targets not found
    hook_errors: Counter = field(default_factory=Counter)  # span name -> failed hooks
    _installed: list = field(default_factory=list)

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrapper(self, fn, name: str, hook=None):
        """``fn`` recording a span named ``name`` around every call."""
        nid = self.name_id(name)
        code, stamp, clock = self.codes.append, self.times.append, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            code(nid)
            stamp(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                stamp(clock())
                code(-1)
            if hook is not None:
                try:
                    hook(self.counts, result)
                except Exception:
                    self.hook_errors[name] += 1
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook, _ in self.wraps:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrapper(fn, name, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def spans(self) -> Spans:
        """Replay the events.  A span named OP_SPAN starts a new operation
        and closes anything a crash left open."""
        out = Spans()
        op_nid = self.name_ids.get(OP_SPAN)
        stack: list[int] = []
        op = -1
        for nid, t in zip(self.codes, self.times):
            if nid < 0:
                if stack:
                    out.end[stack.pop()] = t
                continue
            if nid == op_nid:
                while stack:
                    out.end[stack.pop()] = t
                op += 1
            stack.append(len(out.name))
            out.name.append(nid)
            out.start.append(t)
            out.end.append(t)
            out.parent.append(stack[-2] if len(stack) > 1 else -1)
            out.op.append(op)
        return out


@dataclass
class Spans:
    """Span records in columns, in start order."""

    name: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("i"))
    op: array = field(default_factory=lambda: array("i"))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent and may overlap each other; the
    overlap is counted once.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # per parent: end of the child coverage so far
    for i in sorted(range(n), key=starts.__getitem__):
        q = parents[i]
        if q < 0:
            continue
        lo = max(starts[i], reach[q])
        hi = min(ends[i], ends[q])
        if hi > lo:
            covered[q] += hi - lo
            reach[q] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def span_totals(tracer: Tracer, spans: Spans) -> tuple[Counter, Counter]:
    """(calls, self seconds) per span name."""
    selfs = self_times(spans.start, spans.end, spans.parent)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for nid, s in zip(spans.name, selfs):
        name = tracer.names[nid]
        calls[name] += 1
        self_s[name] += s
    return calls, self_s


def _unavailable(tracer: Tracer) -> set:
    """Span names and counters that cannot be trusted in this run."""
    bad = set()
    missing = set(tracer.missing)
    for module_name, attr, name, _, produces in tracer.wraps:
        if f"{module_name}.{attr}" in missing:
            bad.add(name)
            bad.update(produces)
        if tracer.hook_errors[name]:
            bad.update(produces)
    return bad


def layer_metrics(tracer: Tracer, totals, ops: int, run_values: dict,
                  scale: float = 1.0) -> dict:
    """Every per-layer metric; ``None`` where a wrap target or hook is missing.

    ``totals`` is ``span_totals(...)``; ``ops`` the number of operations;
    self times are multiplied by ``scale``.
    """
    calls, self_s = totals
    bad = _unavailable(tracer)

    def amount(key: str) -> float:
        return calls[key] if key in tracer.name_ids else tracer.counts[key]

    out = {}
    for m in LAYER_METRICS:
        if m.kind == "run":
            value = run_values.get(m.name)
        elif m.source in bad or m.den in bad:
            value = None
        elif m.kind == "self":
            value = self_s[m.source] * scale / ops
        elif m.kind == "calls":
            value = calls[m.source] / ops
        elif m.kind == "per_op":
            value = tracer.counts[m.source] / ops
        elif m.kind == "max":
            value = tracer.counts[m.source]
        else:
            den = amount(m.den)
            value = amount(m.source) / den if den else None
        out[m.name] = value
    return out
