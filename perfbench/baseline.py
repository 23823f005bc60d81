"""Run the benchmark over two sets of seeds and write ``baseline.json``.

Usage, from the repository root:

    python3 perfbench/baseline.py

For every workload in ``BENCHMARK.json``, set A runs seeds 1-10 and set B
seeds 11-20 with ``--trace 0`` and ``run_seconds``; one more run, seed 1
with ``--trace 1``, gives the per-layer split.  For each end-to-end metric
the file records each set's median and spread ((q3 - q1) / median, the
quartiles as ``statistics.quantiles(n=4)`` gives them) and the relative
difference of the two medians.  The per-layer to end-to-end mapping is
written from ``tracer.LAYER_METRICS``.  Every run's result line is also
appended to ``out/baseline-runs.jsonl`` as it finishes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = {"A": range(1, 11), "B": range(11, 21)}
TRACE_SEED = 1


def machine() -> str:
    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{os.cpu_count()} x {model}, CPython {platform.python_version()}"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()[-2000:]}")
    row = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
           **json.loads(proc.stdout.strip().splitlines()[-1])}
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "baseline-runs.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, {row['attempted']} ops",
          flush=True)
    return row


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(spec: dict, rows: list[dict]) -> dict:
    """baseline.json from the runs' result rows."""
    end_to_end, per_layer, walls = {}, {}, {}
    for w in (x["name"] for x in spec["workloads"]):
        mine = [r for r in rows if r["workload"] == w]
        walls[w] = max(r["wall_s"] for r in mine)
        per_layer[w] = {k: m["value"] for r in mine if r["trace"] for k, m in r["metrics"].items()}
        end_to_end[w] = {}
        for m in spec["end_to_end"]:
            entry = {"unit": m["unit"], "bound": m["bound"]}
            for label, seeds in SEEDS.items():
                values = [r["metrics"][m["name"]]["value"] for r in mine
                          if not r["trace"] and r["seed"] in seeds]
                entry[label] = {"median": statistics.median(values), "spread": spread(values),
                                "runs": len(values)}
            a, b = entry["A"]["median"], entry["B"]["median"]
            entry["median_difference"] = abs(b - a) / a
            end_to_end[w][m["name"]] = entry
    return {
        "about": (f"Set A is seeds {SEEDS['A'][0]}-{SEEDS['A'][-1]}, set B seeds "
                  f"{SEEDS['B'][0]}-{SEEDS['B'][-1]}, each with --trace 0; per_layer is seed "
                  f"{TRACE_SEED} with --trace 1.  Times are at the reference machine speed of "
                  f"calibrate.py.  spread = (q3 - q1) / median; median_difference = "
                  f"|B - A| / A.  Measured on {machine()}."),
        "run_seconds": spec["run_seconds"],
        "slowest_run_s": walls,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "per_layer_moves": {m.name: m.moves for m in LAYER_METRICS},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    rows = []
    for w in (x["name"] for x in spec["workloads"]):
        for seeds in SEEDS.values():
            rows.extend(run_once(w, s, seconds, 0) for s in seeds)
        rows.append(run_once(w, TRACE_SEED, seconds, 1))
    (HERE / "baseline.json").write_text(json.dumps(summarise(spec, rows), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
