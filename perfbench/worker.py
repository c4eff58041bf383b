"""One measuring process of the benchmark; run.py starts these.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass
    python3 perfbench/worker.py --workload NAME --seed N --mode trace --seconds S

Imports sik from ``src/`` of the checkout, builds the workload's inputs and
prints ``ready`` (the end of set-up).  --mode setup exits there.  --mode pass
warms up, runs one untraced pass and prints its wall time, each call's
latency and the process's peak memory as one JSON line.  --mode trace runs
traced and untraced passes for about S seconds and prints the per-layer
table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _untraced(workload, inputs):
    t0 = time.perf_counter()
    latencies, items, failed = workload.run_pass(inputs)
    return {
        "wall": time.perf_counter() - t0,
        "latencies": latencies,
        "items": items,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(workload, inputs, seconds):
    """Untraced and traced passes in one process, wrappers installed only
    around the traced ones.  A first untraced pass of the workload itself is
    thrown away, so that both sides are warm; after it, traced passes
    bracket the untraced ones (T U T U ... T, at least two traced), so a
    drift in machine speed during the run moves both sides alike."""
    import tracing

    tracer = tracing.Tracer()
    plain_walls, traced_walls, snapshots = [], [], []
    totals = {"items": 0, "failed": 0}

    def run(traced):
        if traced:
            tracer.reset()
            tracer.install()
        else:
            tracing.assert_clean()
        try:
            t0 = time.perf_counter()
            _, items, failed = workload.run_pass(inputs)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.remove()
        totals["items"] += items
        totals["failed"] += failed
        if traced:
            snapshots.append((wall, *tracer.snapshot()))
            traced_walls.append(wall)
        return wall

    start = time.perf_counter()
    run(False)  # thrown away
    run(True)
    while (len(traced_walls) < 2
           or time.perf_counter() - start
           + statistics.median(plain_walls) + statistics.median(traced_walls) <= seconds):
        plain_walls.append(run(False))
        run(True)
    tracing.assert_clean()

    exact = [([spans[n][0] for n in tracing.SPAN_NAMES], counts)
             for _, spans, counts in snapshots]
    repeats = all(e == exact[0] for e in exact)
    messages = [f"absent: {name}" for name in tracer.absent]
    if not repeats:
        messages += ["exact counts differ between traced passes:"]
        messages += [json.dumps(e) for e in exact]

    def median_of(fn):
        return statistics.median(fn(*s) for s in snapshots)

    traced = f"median of {len(snapshots)} traced passes"
    metrics = {}
    for j, name in enumerate(tracing.SPAN_NAMES):
        detail = "absent" if name in tracer.absent else traced
        metrics[f"{name}.calls"] = (exact[0][0][j], "count", detail)
        for i, field in ((1, "incl_s"), (2, "self_s")):
            value = median_of(lambda w, spans, c, name=name, i=i: spans[name][i])
            metrics[f"{name}.{field}"] = (value, "s", detail)
    for name, value in exact[0][1].items():
        unit = "ratio" if name.endswith("share") else "count"
        metrics[name] = (value, unit, "exact, first traced pass")
    metrics["cli.parallel_efficiency"] = (
        median_of(lambda w, spans, c: spans["cli.certified_index"][1] / (w * workload.jobs)),
        "ratio", f"row time / (wall x {workload.jobs} jobs), {traced}")
    metrics["trace_overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s",
        f"traced minus untraced median pass, {len(traced_walls)} vs {len(plain_walls)}"
        " interleaved passes after one thrown away")
    return {
        "metrics": metrics,
        "items": totals["items"],
        "failed": totals["failed"],
        "repeats": repeats,
        "messages": messages,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if (args.mode == "trace") != (args.seconds is not None):
        parser.error("--seconds is given with --mode trace and only then")

    sys.path.insert(0, SRC)
    import workloads

    sik_file = os.path.abspath(sys.modules["sik"].__file__)
    if not sik_file.startswith(SRC + os.sep):
        print(f"sik was imported from {sik_file}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as path:
        inputs = workload.build(args.seed, path)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        workloads.warm_up()
        if args.mode == "trace":
            result = _traced(workload, inputs, args.seconds)
        else:
            result = _untraced(workload, inputs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
