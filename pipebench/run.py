#!/usr/bin/env python3
"""Whole-pipeline benchmark of the grasshopper points-to analysis.

Usage, from the repository root:

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark program (pipebench.cpp) from source into
$CARGO_TARGET_DIR (default .bench_build), prepares the inputs and the Naive
reference answers (cached there under a hash of the sources that make
them, once per build and once per seed, all untimed), runs one workload in
a fresh process and prints one JSON line: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
keeps the run's spans for summarize.py. LAYERS.json documents every
workload, metric and unmeasured module.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze-lcdhcd", "serve-demand")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


def check_call(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def run_parallel(cmds, width):
    """Runs the commands, at most `width` at a time; fails if any fails."""
    pending, running, failed = list(cmds), [], []
    while pending or running:
        while pending and len(running) < width:
            cmd = pending.pop(0)
            running.append((cmd, subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)))
        cmd, proc = running.pop(0)
        if proc.wait() != 0:
            failed.append(cmd)
    if failed:
        raise RuntimeError(f"command failed: {' '.join(failed[0])}")


def build(bdir):
    check_call(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    check_call(["cmake", "--build", bdir, "-j4", "--target", "pipebench"])
    return os.path.join(bdir, "pipebench")


def source_digest():
    """Hash of the sources the built program is made of.

    The generated inputs, the Naive references and the recorded counts all
    depend on them, so they are kept per digest: a run never compares
    against the data or counts of other code.
    """
    h = hashlib.sha256()
    files = [os.path.join(HERE, "CMakeLists.txt"), os.path.join(HERE, "pipebench.cpp")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        files += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def prep_common(exe, data):
    """Seed-independent inputs and references, once per build."""
    stamp = os.path.join(data, "common.done")
    if os.path.exists(stamp):
        return
    t0 = time.time()
    for sub in ("suites", "ref"):
        os.makedirs(os.path.join(data, sub), exist_ok=True)
    check_call([exe, "prep-suites", data])
    suites, ref = os.path.join(data, "suites"), os.path.join(data, "ref")
    jobs = [
        [exe, "naive", f"{suites}/linux.cons", f"{ref}/linux"],
        [exe, "naive", f"{suites}/wine.cons", f"{ref}/wine"],
    ]
    for state in sorted(glob.glob(f"{suites}/ghostscript.state*.cons")):
        name = os.path.basename(state)[:-len(".cons")]
        jobs.append([exe, "naive", state, f"{ref}/{name}", "snap"])
    run_parallel(jobs, 3)
    open(stamp, "w").close()
    log(f"prepared inputs and Naive references in {time.time() - t0:.1f} s")


def prep_seed(exe, data, workload, seed):
    sdir = os.path.join(data, f"seed-{seed}", workload)
    stamp = os.path.join(sdir, "done")
    if not os.path.exists(stamp):
        os.makedirs(sdir, exist_ok=True)
        check_call([exe, "prep-seed", workload, data, str(seed), sdir])
        open(stamp, "w").close()
    return sdir


def proc_snapshot():
    """Steal ticks and load average, to explain an outlier run."""
    snap = {}
    try:
        with open("/proc/stat") as f:
            cpu = f.readline().split()
        snap["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else 0
        with open("/proc/loadavg") as f:
            snap["loadavg_1m"] = float(f.read().split()[0])
    except OSError:
        pass
    return snap


def oracle_disagreements(data):
    """Naive after OVS against PKH+HCD without OVS, for every reference."""
    out = []
    for path in sorted(glob.glob(os.path.join(data, "ref", "*.naive.hash"))):
        name = os.path.basename(path)[:-len(".naive.hash")]
        with open(path) as f:
            naive = f.read().strip()
        with open(os.path.join(data, "ref", f"{name}.unreduced.hash")) as f:
            unreduced = f.read().strip()
        if naive != unreduced:
            out.append(f"{name}: Naive after OVS {naive} != PKH+HCD without OVS {unreduced}")
    return out


def check_counts(data, workload, seed, counts):
    """Counts that must repeat exactly between runs of one seed."""
    path = os.path.join(data, "counts", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        first = json.load(f)
    return [f"{k}: {first[k]} then {counts[k]}" for k in sorted(first.keys() & counts.keys())
            if first[k] != counts[k]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(bdir, exist_ok=True)
    exe = build(bdir)
    data = os.path.join(bdir, "data-" + source_digest())
    os.makedirs(data, exist_ok=True)
    prep_common(exe, data)
    sdir = prep_seed(exe, data, args.workload, args.seed)

    scratch = os.path.join(bdir, "scratch")
    traces = os.path.join(bdir, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    spans = os.path.join(traces, f"{tag}.spans.json")
    # One malloc arena: with glibc's per-thread arenas, which arena each
    # server worker gets decides how much freed memory stays resident, and
    # serve-demand's peak RSS varied from 120 to 175 MB between runs of one
    # seed; with one arena it repeats within 1%.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.arena_max=1")
    before = proc_snapshot()
    proc = subprocess.run(
        [exe, "run", args.workload, data, sdir, repr(args.seconds), str(args.trace),
         scratch, spans],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
        env=env)
    after = proc_snapshot()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed with code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    mismatches = check_counts(data, args.workload, args.seed, raw["counts"])
    for m in mismatches:
        log(f"DETERMINISM FAILURE ({tag}): {m}")
    for e in raw["errors"]:
        log(f"WRONG ANSWER ({tag}): {e}")
    bad_refs = oracle_disagreements(data)
    for e in bad_refs:
        log(f"REFERENCES DISAGREE: {e}")

    if args.trace:
        sys.path.insert(0, HERE)
        import summarize
        layer = dict(raw["per_layer"])
        layer.update(summarize.layer_metrics(summarize.load(spans)))
        with open(os.path.join(traces, f"{tag}.result.json"), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "per_layer": layer},
                      f, indent=1, sort_keys=True)
        # A layer the workload never calls reports 0 (see LAYERS.json).
        metrics = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": raw["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    with open(os.path.join(bdir, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "proc_start": before, "proc_end": after,
                            "failed": raw["failed"], "metrics": metrics}) + "\n")

    correct = raw["failed"] == 0 and not raw["errors"] and not mismatches and not bad_refs
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError) as exc:
        log(f"error: {exc}")
        sys.exit(1)
