#!/usr/bin/env python3
"""Steadiness report for the licmbench benchmark.

Runs one workload several times and prints, for each metric, the
median, the quartiles (as statistics.quantiles(values, n=4) gives
them), the quartile spread and the max/min spread as shares of the
median, next to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 licmbench/steady.py --workload scan-wide --seeds 1,2,3,4,5
    python3 licmbench/steady.py --workload join-budget --runs 3 --trace 1

With --trace 1 every run uses the first seed, and the report also
confirms that the work counts repeat exactly across the runs.

Exits 1 when a run fails, when a quartile spread exceeds its bound, or
when a work count differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Counts that are deterministic in (workload, seed): they must repeat
# exactly between traced runs of the same seed.
COUNTS = ["search.nodes", "search.propagations", "search.lp_solves", "encode.vars"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "licmbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=False, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="7", help="comma-separated seeds, used in turn")
    ap.add_argument("--runs", type=int, default=0, help="number of runs (default: one per seed)")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = args.runs or len(seeds)
    if args.trace:
        seeds = seeds[:1]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    results = []
    for i in range(runs):
        seed = seeds[i % len(seeds)]
        r = run_once(args.workload, seed, seconds, args.trace)
        print(f"run {i + 1}/{runs} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(r["metrics"].items())),
              flush=True)
        results.append(r)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"\n{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not iqr <= bound:
            flag, ok = " OVER BOUND", False
        elif bound is not None and not iqr <= bound / 3:
            flag = " over bound/3"
        print(f"{name:28} {results[0]['metrics'][name]['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{iqr:8.4f} {rng:9.4f} {'' if bound is None else bound:>6}{flag}")

    if args.trace:
        for name in COUNTS:
            vals = {r["metrics"][name]["value"] for r in results}
            same = len(vals) == 1
            ok = ok and same
            print(f"count {name}: {'identical' if same else 'DIFFERS'} across {runs} runs {sorted(vals)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
