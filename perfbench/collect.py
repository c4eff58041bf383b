"""Repeat the benchmark over seeds 1-10 and summarise it, as a baseline.

    python3 perfbench/collect.py [--trace] [--out perfbench/baseline.json]

Run from the root of a checkout.  Reads the command, run length, workloads
and bounds from BENCHMARK.json, runs the command once per seed and workload
(one run at a time), and prints, per end-to-end metric, the median, the
quartiles and their distance as a share of the median next to the metric's
bound.  With --trace it adds one traced run per workload.  With --out it
writes the summary, the traced breakdown and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))


def _run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return result, env


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]

    out = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result, env = _run(bench["command"], workload, seed, bench["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            out["env"] = env
        entry = {"end_to_end": {}}
        print(f"{workload}: {len(SEEDS)} runs")
        for name, vals in values.items():
            s = _summary(vals)
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] is not None and s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bounds[name]}  {flag}")
            print("      " + " ".join(f"{v:.4g}" for v in vals))
        if args.trace:
            result, _ = _run(bench["command"], workload, SEEDS[0], bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        out["workloads"][workload] = entry
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
