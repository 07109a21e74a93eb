#!/usr/bin/env python3
"""Steadiness check for the pipeline benchmark.

Usage, from the repository root:

    python3 pipebench/steady.py [--workloads a,b] [--runs 10] [--sets 2]

Runs `--sets` sets of `--runs` runs of each workload on the same build,
interleaved A, B, A, B (run i of every set uses seed `--first-seed` + i), so
host drift hits every set alike. For every end-to-end metric of every
workload it prints each set's median and quartiles and the spread
(q3 - q1) / median, and says whether the spread stays within the metric's
bound and whether each later set's median is no worse than the first
set's by more than the bound. As in the benchmark's acceptance rule, the
spread of setup_s is printed but not held to its bound (set-up times are
short and spread widely); its medians are held to it like every other
metric's. Each run's line shows the
steal ticks and load average run.py recorded from /proc at its start and
end, to explain an outlier. Exits 1 if any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    with open(os.path.join(bdir, "runs.jsonl")) as f:
        rec = json.loads(f.readlines()[-1])
    p0, p1 = rec["proc_start"], rec["proc_end"]
    print(f"  {workload:<16} seed {seed:<3} correct={res['correct']} failed={res['failed']} "
          f"steal +{p1.get('steal_ticks', 0) - p0.get('steal_ticks', 0)} "
          f"load {p0.get('loadavg_1m', 0):.2f}->{p1.get('loadavg_1m', 0):.2f} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
          flush=True)
    return res


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        print(f"== {workload}")
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                res = run_once(workload, args.first_seed + i, args.seconds)
                ok &= res["correct"] and res["failed"] == 0
                sets[s].append(res)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                medians.append(med)
                sp, q1, q3 = spread(values) if len(values) > 1 else (0.0, med, med)
                gated = name != "setup_s"
                wide = gated and sp > bound
                ok &= not wide
                print(f"  {name:<16} set {chr(65 + s)}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {sp:.3f} (bound {bound}, third {bound / 3:.3f})"
                      f"{'' if gated else '  spread not gated'}"
                      f"{'  SPREAD TOO WIDE' if wide else ''}")
            for s in range(1, len(medians)):
                worse = (medians[s] / medians[0] - 1 if m["better"] == "lower"
                         else 1 - medians[s] / medians[0])
                agree = worse <= bound
                ok &= agree
                print(f"  {name:<16} set {chr(65 + s)} vs A: {100 * worse:+.1f}% worse "
                      f"-> {'agree' if agree else 'DISAGREE'}")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
