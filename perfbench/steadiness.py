#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, for every metric, the median, the quartiles (as
statistics.quantiles with n=4 gives them), and the interquartile spread
and full range as shares of the median, against the metric's bound.
With --trace 1 it checks instead that the per-layer values that must
repeat exactly do: the task-storm fetch and eviction counts and every
virtual vtsim-paper result.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]
        [--workloads task-storm,vtsim-paper] [--seconds N] [--trace 1]
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = {
    "task-storm": lambda name: name in ("core.fetches", "core.evictions"),
    "vtsim-paper": lambda name: name.startswith("vtsim.") and name != "vtsim.tasks_per_host_s",
}


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n" + "\n".join(lines[-30:]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = opts.seconds or bench["run_seconds"]
    ok = True
    for workload in workloads:
        seeds = range(opts.first_seed, opts.first_seed + opts.runs)
        results = [run_once(bench["command"], workload, s, seconds, opts.trace) for s in seeds]
        print(f"== {workload}: {opts.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, {seconds} s each")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if opts.trace:
                exact = EXACT.get(workload, lambda _: False)(name)
                verdict = ""
                if exact:
                    verdict = "repeats exactly" if len(set(values)) == 1 else "DRIFT"
                    ok &= len(set(values)) == 1
                print(f"  {name:32} median {med:.6g} {first['unit']}  {verdict}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            iqr, spread = (q3 - q1) / med, (max(values) - min(values)) / med
            bound = bounds[name]
            verdict = ("steady" if iqr < bound / 3 else
                       "within bound" if iqr <= bound else "TOO WIDE")
            if name != "setup_s":
                ok &= iqr <= bound
            print(f"  {name:22} median {med:.4f} {first['unit']}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"iqr/median {iqr:.3f}  range/median {spread:.3f}  bound {bound}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
