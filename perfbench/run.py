"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced run and writes its spans to
``.perfbench_out/spans_<workload>.jsonl``. Temporary plan stores live
under ``.perfbench_tmp/`` and are removed on exit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import numpy as np

from tracing import END, NAME, PARENT, START, Tracer, layer_of

ROOT = Path.cwd()

END_TO_END = {
    "setup_s": "s", "wall_p50_ms": "ms", "vertices_per_s": "1/s",
    "lca_p50_ms": "ms", "max_rps": "1/s",
    "energy": "count", "depth": "count", "messages": "count", "steps": "count",
    "peak_rss_mb": "MB",
}

# tail latencies, measured without tracing like the end-to-end metrics but
# too unsteady on a shared 2-core host to gate at the largest allowed bound
TAILS = ("lca_p99_ms", "misc_p90_ms")
# per-layer metrics: seconds (or calls) per traced unit of work
PER_UNIT_SPANS = (
    "machine.send_batch", "machine.send_plan", "machine.clock",
    "machine.routing.bitonic_sort", "machine.init",
    "spatial.create_light_first_layout", "spatial.list_rank",
    "spatial.treefix_sum", "spatial.lca_batch", "spatial.prepare_lca",
    "plans.store_get", "plans.execute_plan", "telemetry.watchdog",
)
SETUP_SPANS = ("plans.record", "trees.generate", "layout.build")
CALL_COUNTS = ("machine.send_batch", "machine.send_plan")
SELF_LAYERS = ("spatial", "plans")
WAITING_SPANS = ("serving.queue_wait",)


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.s": "s" for n in PER_UNIT_SPANS + SETUP_SPANS}
    units.update({f"{n}.calls": "count" for n in CALL_COUNTS})
    units.update({f"{layer}.self.s": "s" for layer in SELF_LAYERS})
    units.update({
        "machine.clock.rounds": "count",
        "plans.store_mb": "MB",
        "plans.fallback_ratio": "ratio",
        "serving.queue_wait_ms.p50": "ms", "serving.queue_wait_ms.p99": "ms",
        "serving.window_compute_ms.p50": "ms", "serving.window_compute_ms.p99": "ms",
        "serving.plan_window_ms.p50": "ms", "serving.scatter_ms.p50": "ms",
        "serving.window_requests.mean": "count", "serving.window_queries.mean": "count",
        "serving.windows_per_s": "1/s", "serving.dedup_ratio": "ratio",
        "serving.worker_busy_ratio": "ratio", "serving.misc_ms.p50": "ms",
        "telemetry.watchdog.checks": "count",
        "loadgen.lag_p99_ms": "ms", "loadgen.offered_rps": "1/s",
        "trace.overhead_ratio": "ratio",
    })
    units.update({f"tail.{name}": "ms" for name in TAILS})
    return units


def layer_metrics(tracer: Tracer, result: dict, outcome) -> dict[str, float]:
    """Per-layer numbers from the traced part of one run."""
    units = result["traced_units"]
    spans = tracer.phase_spans(setup=False)
    busy = [s for s in spans if s[NAME] not in WAITING_SPANS]
    durations = tracer.by_name(busy)
    setup = tracer.by_name(tracer.phase_spans(setup=True))
    self_times = tracer.self_times(busy)

    def q(values, pct):
        return float(np.percentile(values, pct)) * 1e3 if values else 0.0

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    out = {f"{n}.s": sum(durations.get(n, [])) / units for n in PER_UNIT_SPANS}
    out.update({f"{n}.s": sum(setup.get(n, [])) for n in SETUP_SPANS})
    out.update({f"{n}.calls": len(durations.get(n, [])) / units for n in CALL_COUNTS})
    for layer in SELF_LAYERS:
        out[f"{layer}.self.s"] = sum(
            self_times[s[0]] for s in busy if layer_of(s[NAME]) == layer
        ) / units
    out["machine.clock.rounds"] = tracer.measured_count("machine.clock.rounds") / units
    out["plans.store_mb"] = tracer.measured_count("plans.store_bytes") / 1e6 / units
    replays = tracer.counts.get("plans.replays", 0)
    out["plans.fallback_ratio"] = tracer.counts.get("plans.fallbacks", 0) / replays if replays else 0.0

    # serving: windows, their phases, the queue
    windows = durations.get("serving.window", [])
    per_window: dict[int, float] = {}
    for s in busy:
        if s[NAME] == "serving.window_compute":
            per_window[s[PARENT]] = per_window.get(s[PARENT], 0.0) + s[END] - s[START]
    compute = list(per_window.values())
    samples = tracer.samples
    wall = result["traced_wall"]
    total_queries = tracer.counts.get("serving.total_queries", 0)
    out.update({
        "serving.queue_wait_ms.p50": q(samples["serving.queue_wait"], 50),
        "serving.queue_wait_ms.p99": q(samples["serving.queue_wait"], 99),
        "serving.window_compute_ms.p50": q(compute, 50),
        "serving.window_compute_ms.p99": q(compute, 99),
        "serving.plan_window_ms.p50": q(durations.get("serving.plan_window", []), 50),
        "serving.scatter_ms.p50": q(durations.get("serving.scatter", []), 50),
        "serving.window_requests.mean": mean(samples["serving.window_requests"]),
        "serving.window_queries.mean": mean(samples["serving.window_queries"]),
        "serving.windows_per_s": len(windows) / wall,
        "serving.dedup_ratio": (
            tracer.counts.get("serving.unique_queries", 0) / total_queries
            if total_queries else 0.0
        ),
        "serving.worker_busy_ratio": (
            sum(windows) + sum(durations.get("serving.misc", []))
        ) / wall,
        "serving.misc_ms.p50": q(durations.get("serving.misc", []), 50),
        "telemetry.watchdog.checks": result.get("watchdog_checks", 0) / units,
        "loadgen.lag_p99_ms": result.get("loadgen_lag_p99_ms", 0.0),
        "loadgen.offered_rps": result.get("loadgen_offered_rps", 0.0),
        "trace.overhead_ratio": result["overhead_ratio"],
    })
    out.update({f"tail.{name}": result["metrics"][name] for name in TAILS})
    # nested wrappers must not double count: self times fit in the wall
    busy_self = sum(self_times.values())
    if busy_self > wall * 1.001:
        outcome.fail(1, f"span self times {busy_self:.3f}s exceed the traced wall {wall:.3f}s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold", "replay", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import closed_loop
    import open_loop

    workloads = {
        "cold": closed_loop.cold, "replay": closed_loop.replay,
        "serve": open_loop.serve,
    }
    # SIGTERM unwinds like an exception, so temporary stores are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = Tracer() if args.trace else None
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        outcome, result = workloads[args.workload](args.seed, args.seconds, tracer, scratch)
        if tracer is not None:
            metrics, units = layer_metrics(tracer, result, outcome), per_layer_units()
            tracer.write(ROOT / ".perfbench_out" / f"spans_{args.workload}.jsonl")
        else:
            metrics, units = result["metrics"], END_TO_END
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:  # another run's store is still there
            pass
    print(f"perfbench: {args.workload} samples {json.dumps(result['samples'])}", file=sys.stderr)
    for note in outcome.notes:
        print(f"perfbench: FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": _finite(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def _finite(value):
    """Latencies of failed requests are infinite; JSON wants a number."""
    return value if math.isfinite(value) else 1e9


if __name__ == "__main__":
    sys.exit(main())
