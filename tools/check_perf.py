#!/usr/bin/env python3
"""Perf guardrail over BENCH_paper.json / BENCH_queries.json.

Compares a fresh bench run against the checked-in baseline and fails
when any guarded row regresses beyond the tolerance, or when any work
counter moves. Guarded rows:

* BENCH_paper.json -- the LCD-family bitmap wall times (the paper's
  headline solvers, and the ones the memory-kernel work optimizes), and
  every solver.* counter of every bitmap and BDD cell. The counters are
  deterministic, so they must equal the baseline exactly: a change that
  moves one has to refresh the baseline and say why.
* BENCH_queries.json -- the demand tier's first-answer latencies per
  suite: best targeted query (first_query_ms), the sample median, and
  the whole-graph worst case (max_query_ms), plus the request-telemetry
  overhead ratio: serving with wide events + latency quantiles enabled
  must stay within AG_TELEMETRY_OVERHEAD_BOUND (default 1.75x) of the
  observability-off run of the same REPL mix. The ratio is gated
  directly (not against the baseline file): it is a self-relative
  number, so runner speed cancels out.

Usage:
    check_perf.py <bench.json> [<bench2.json> ...] <baseline.json>
    check_perf.py <bench.json> [...] <baseline.json> --write-baseline

Rows from every bench file given are merged; the gate compares each
(suite, kind) row present in the baseline, and rows missing from the
fresh run fail (a renamed suite must refresh the baseline). Tolerance
is 25% by default and can be loosened for noisy runners via the
AG_PERF_TOLERANCE environment variable (e.g. 0.5 allows +50%). Rows
whose baseline sits below the timing floor (0.1 ms -- trivial demand
queries resolve in a few hundred nanoseconds, and the smallest suite's
whole solve fits in tens of microseconds) are compared against the
floor instead, so timer jitter on sub-resolution rows cannot flake the
gate while a real collapse into heavyweight work still fails. CI also
honors a `[skip-perf-guard]` commit-message tag to skip the step
entirely -- see .github/workflows/ci.yml.

--write-baseline regenerates <baseline.json> from the given bench runs
(run them at the SAME fixed scale the CI step uses). Refresh it
whenever a deliberate perf trade-off, a runner change or a change in
the solvers' work shifts the numbers.
"""

import json
import os
import sys

GUARDED_KINDS = ("LCD", "LCD+HCD")
DEMAND_ROWS = (
    ("demand-first-query", "first_query_ms"),
    ("demand-median-query", "median_query_ms"),
    ("demand-max-query", "max_query_ms"),
)
DEFAULT_TOLERANCE = 0.25
# Rows whose baseline sits below this are gated against the floor, not
# the baseline: a 0.06 ms row routinely measures 0.08-0.12 ms on a busy
# runner (scheduler quantum effects dominate), which would flake a
# straight 25% comparison while telling us nothing.
FLOOR_MS = 0.1
# Serving with full request telemetry may cost at most this multiple of
# the obs-off run (bench_queries' telemetry_overhead section; the
# measured steady-state ratio is ~1.25x, the bound leaves noise room).
DEFAULT_TELEMETRY_BOUND = 1.75


def rows(bench):
    out = {}
    for r in bench.get("cells", []):
        if r["repr"] == "bitmap" and r["kind"] in GUARDED_KINDS:
            out[(r["suite"], r["kind"])] = float(r["wall_ms"])
    for r in bench.get("suites", []):
        demand = r.get("demand")
        if not demand:
            continue
        for kind, key in DEMAND_ROWS:
            if key in demand:
                out[(r["suite"], kind)] = float(demand[key])
    return out


def counters(bench):
    return {(r["suite"], r["kind"], r["repr"]):
            {k: v for k, v in r["metrics"]["counters"].items()
             if k.startswith("solver.")}
            for r in bench.get("cells", [])}


def check_counters(fresh, baseline):
    """Every baseline cell's solver.* counters, exactly. True if ok."""
    ok = True
    for row in baseline:
        key = (row["suite"], row["kind"], row["repr"])
        want = {k: v for k, v in row.items() if k.startswith("solver.")}
        got = fresh.get(key)
        if got is None:
            print("%-14s %-20s counters MISSING from bench output"
                  % (key[0], "%s/%s" % key[1:]))
            ok = False
            continue
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                print("%-14s %-20s %s: base %s, now %s"
                      % (key[0], "%s/%s" % key[1:], name, want.get(name),
                         got.get(name)))
                ok = False
    print("%d cells' solver.* counters %s"
          % (len(baseline), "match" if ok else "MOVED"))
    return ok


def check_telemetry_overhead(docs):
    """Gates bench_queries' telemetry_overhead ratio. Returns True if ok."""
    bound = float(os.environ.get("AG_TELEMETRY_OVERHEAD_BOUND",
                                 DEFAULT_TELEMETRY_BOUND))
    ok = True
    for doc in docs:
        overhead = doc.get("telemetry_overhead")
        if not overhead:
            continue
        ratio = float(overhead["enabled_over_disabled"])
        verdict = "ok" if ratio <= bound else "REGRESSED"
        if ratio > bound:
            ok = False
        print("%-14s %-20s off %8.2f ms  on %8.2f ms  ratio %.3f "
              "(bound %.2f)  %s"
              % (overhead.get("suite", "?"), "telemetry-overhead",
                 float(overhead["disabled_best_ms"]),
                 float(overhead["enabled_best_ms"]), ratio, bound, verdict))
    return ok


def main(argv):
    flags = [a for a in argv[1:] if a.startswith("--")]
    paths = [a for a in argv[1:] if not a.startswith("--")]
    if len(paths) < 2:
        sys.stderr.write(__doc__)
        return 2
    bench_paths, baseline_path = paths[:-1], paths[-1]
    bench = {}
    cells = {}
    docs = []
    for p in bench_paths:
        with open(p) as f:
            doc = json.load(f)
        docs.append(doc)
        bench.update(rows(doc))
        cells.update(counters(doc))
    if not bench:
        print("error: %s has no guarded rows" % ", ".join(bench_paths))
        return 1

    if "--write-baseline" in flags:
        doc = {
            "comment": "Perf-guardrail baseline (tools/check_perf.py). "
                       "min-of-3 wall_ms per LCD-family bitmap run plus "
                       "the demand tier's first/median/max fresh "
                       "first-answer latencies, and every solver.* "
                       "counter per bench_paper cell; regenerate with "
                       "--write-baseline at the scale the CI step runs.",
            "rows": [
                {"suite": s, "kind": k, "wall_ms": ms}
                for (s, k), ms in sorted(bench.items())
            ],
        }
        # One line per counter row keeps the file small and its diffs
        # readable.
        text = json.dumps(doc, indent=2)[:-2] + ',\n  "counters": [\n'
        text += ",\n".join(
            "    " + json.dumps(dict(suite=s, kind=k, repr=r, **c))
            for (s, k, r), c in sorted(cells.items()))
        with open(baseline_path, "w") as f:
            f.write(text + "\n  ]\n}\n")
        print("wrote %s (%d rows, %d counter rows)"
              % (baseline_path, len(bench), len(cells)))
        return 0

    with open(baseline_path) as f:
        baseline_doc = json.load(f)
    baseline = {
        (r["suite"], r["kind"]): float(r["wall_ms"])
        for r in baseline_doc["rows"]
    }
    tolerance = float(os.environ.get("AG_PERF_TOLERANCE", DEFAULT_TOLERANCE))

    failed = []
    for (suite, kind), base_ms in sorted(baseline.items()):
        cur_ms = bench.get((suite, kind))
        if cur_ms is None:
            print("%-14s %-20s MISSING from bench output" % (suite, kind))
            failed.append((suite, kind))
            continue
        ref_ms = max(base_ms, FLOOR_MS)
        delta = (cur_ms - ref_ms) / ref_ms if ref_ms > 0 else 0.0
        verdict = "ok" if base_ms >= FLOOR_MS else "ok (floored)"
        if delta > tolerance:
            verdict = "REGRESSED"
            failed.append((suite, kind))
        print("%-14s %-20s base %8.3f ms  now %8.3f ms  %+6.1f%%  %s"
              % (suite, kind, base_ms, cur_ms, 100 * delta, verdict))

    if not check_counters(cells, baseline_doc["counters"]):
        print("\nperf guardrail FAILED: solver work counters moved; if "
              "the change is intended, refresh the baseline with "
              "--write-baseline and say why in the change description.")
        return 1

    if not check_telemetry_overhead(docs):
        print("\nperf guardrail FAILED: request telemetry costs more than "
              "AG_TELEMETRY_OVERHEAD_BOUND allows; make the hot path "
              "cheaper or raise the bound for a deliberate trade-off.")
        return 1

    if failed:
        print("\nperf guardrail FAILED (> %.0f%% over baseline): %s"
              % (100 * tolerance,
                 ", ".join("%s/%s" % f for f in failed)))
        print("If the slowdown is intended, refresh the baseline with "
              "--write-baseline, or loosen AG_PERF_TOLERANCE / use the "
              "[skip-perf-guard] commit tag for a one-off.")
        return 1
    print("\nperf guardrail ok (tolerance %.0f%%)" % (100 * tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
