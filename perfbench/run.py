"""Run one benchmark workload against the sik sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  sik is imported from ``src/`` next to this
directory, never from an installed copy; the run exits 2 when that source
tree is missing.

--trace 0 measures the end-to-end metrics with no wrappers installed.  It
runs cycles of one process that runs one pass, preceded by SETUPS_PER_PASS
processes that only set up while the run has fewer than MIN_SETUPS set-up
samples, one process after another.  It starts no cycle that it expects to
end after S seconds, but makes at least MIN_PASSES: on a shared
2-core machine the time of the same pass differs by 5-15% from one process
to the next, so only a median over several processes repeats from run to
run.  Each process's time from start to ``ready`` is one set-up sample.
--trace 1 runs one process that reports the per-layer table of
``tracing.py``; its exact counts must repeat between traced passes.

Readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 1 when any result differs from its reference, an exact count does not
repeat, or a worker fails.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("benilov_film", "constant_batch", "certify_validate", "sweep_grid")
MIN_PASSES = 3
# set-up is short and varies by 10-20% between processes, so a run takes at
# least MIN_SETUPS samples of it, from extra processes that only set up
MIN_SETUPS = 12
SETUPS_PER_PASS = 2
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _tail(samples):
    """(value, label): the highest listed percentile, by nearest rank, that
    has at least ten samples beyond it; the maximum when none has."""
    ordered = sorted(samples)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return ordered[rank - 1], f"p{q:g}"
    return ordered[-1], "max"


def _worker(args, mode):
    """Run one worker; returns (seconds to "ready", its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if mode == "trace":
        cmd += ["--seconds", repr(args.seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready" or (mode != "setup" and not lines):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(lines[-1]) if mode != "setup" else None


def _end_to_end(args):
    setups, results, cycles = [], [], []
    start = time.perf_counter()
    # start another cycle while it is expected to end within the time
    while (len(results) < MIN_PASSES
           or time.perf_counter() - start + statistics.median(cycles) <= args.seconds):
        t0 = time.perf_counter()
        if len(setups) < MIN_SETUPS:
            for _ in range(SETUPS_PER_PASS):
                setups.append(_worker(args, "setup")[0])
        setup, result = _worker(args, "pass")
        cycles.append(time.perf_counter() - t0)
        setups.append(setup)
        results.append(result)
    walls = [r["wall"] for r in results]
    latencies = [lat for r in results for lat in r["latencies"]]
    items = sum(r["items"] for r in results)
    tail, tail_label = _tail(latencies)
    rss = [r["peak_rss_mb"] for r in results]
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "items_per_s": (items / sum(walls), "1/s", f"{items} items in {sum(walls):.3f} s"),
        "call_p50_s": (statistics.median(latencies), "s", f"{len(latencies)} calls"),
        "call_tail_s": (tail, "s", f"{tail_label} of {len(latencies)} calls"),
        "peak_rss_mb": (statistics.median(rss), "MB", f"median of {len(rss)} processes"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} processes, start to built inputs"),
    }
    failed = sum(r["failed"] for r in results)
    return metrics, items, failed, []


def _per_layer(args):
    _, result = _worker(args, "trace")
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    messages = result["messages"]
    if not result["repeats"]:
        messages.append("FAILED: exact counts do not repeat")
    return metrics, result["items"], result["failed"], messages


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs_dir = os.path.dirname(os.path.dirname(pkg.__file__))
        for path in glob.glob(os.path.join(libs_dir, pkg.__name__ + ".libs", "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def environment():
    """Versions, BLAS and threads the workers saw; read after they ended."""
    import numpy
    import scipy

    commit = None  # a checkout made from an archive has no .git
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass

    def blas(pkg):
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src", "sik", "__init__.py")
    if not os.path.isfile(src):
        print(f"no sik sources: {src} is missing", file=sys.stderr)
        return 2

    measure = _per_layer if args.trace else _end_to_end
    try:
        metrics, items, failed, messages = measure(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({detail})")
    for message in messages:
        print(f"  {message}")
    print(f"  failed {failed} of {items} items")
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = failed == 0 and not any(m.startswith("FAILED") for m in messages)
    print(json.dumps({
        "correct": correct,
        "attempted": items,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
