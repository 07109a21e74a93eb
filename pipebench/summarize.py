#!/usr/bin/env python3
"""Summarizes the traced runs of the pipeline benchmark.

Usage, from the repository root, after `run.py ... --trace 1` runs:

    python3 pipebench/summarize.py [--build-dir .bench_build]

For every traced run kept under <build-dir>/traces it prints each layer's
self time (a span's duration minus the time its children cover; the layer
is the span name's first dotted component, "bench" being the benchmark's
own structure), the share of the analysis work the layer spans cover,
and the run's per-layer counts and ratios, obs.trace_overhead_ratio
included. run.py imports layer_metrics() for the traced run's report.
"""

import argparse
import glob
import json
import os
from collections import defaultdict

LAYERS = ("constraints", "core", "solvers", "serve", "demand", "bench")


def load(path):
    with open(path) as f:
        return json.load(f)


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Seconds of self time per layer."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = defaultdict(float)
    for s in spans:
        kids = [(max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
                for c in children[s["id"]]]
        kids = [k for k in kids if k[1] > k[0]]
        own = (s["end_ns"] - s["start_ns"]) - covered_ns(kids)
        out[s["name"].split(".")[0]] += own * 1e-9
    return out


def pass_coverage(spans):
    """Share of the analysis work (each suite's span minus its bench.check
    child) that the layer spans cover; None when there are no suites."""
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    work = layer = 0
    for suite in (s for s in spans if s["name"] == "bench.suite"):
        kids = by_parent[suite["id"]]
        work += suite["end_ns"] - suite["start_ns"]
        work -= sum(k["end_ns"] - k["start_ns"] for k in kids if k["name"] == "bench.check")
        layer += covered_ns([(k["start_ns"], k["end_ns"]) for k in kids
                             if not k["name"].startswith("bench.")])
    return layer / work if work else None


def layer_metrics(spans):
    times = self_times(spans)
    out = {f"selftime.{layer}_s": times.get(layer, 0.0) for layer in LAYERS}
    cov = pass_coverage(spans)
    out["obs.layer_span_coverage"] = cov if cov is not None else 0.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    args = ap.parse_args()
    traces = os.path.join(args.build_dir, "traces")
    results = sorted(glob.glob(os.path.join(traces, "*.result.json")))
    if not results:
        raise SystemExit(f"no traced runs under {traces}; run run.py with --trace 1 first")
    for path in results:
        res = load(path)
        spans = load(path.replace(".result.json", ".spans.json"))
        times = self_times(spans)
        print(f"== {res['workload']} (seed {res['seed']}, {len(spans)} spans)")
        print("  layer self time:")
        for layer in LAYERS:
            print(f"    {layer:<12} {times.get(layer, 0.0):10.4f} s")
        cov = pass_coverage(spans)
        if cov is not None:
            print(f"  layer spans cover {100 * cov:.2f}% of the analysis work")
        print("  per-layer counts and ratios:")
        for name, value in sorted(res["per_layer"].items()):
            if not name.startswith("selftime."):
                print(f"    {name:<36} {value:.6g}")


if __name__ == "__main__":
    main()
