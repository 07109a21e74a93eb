#!/usr/bin/env python3
"""Smoke test for bench_paper and tools/paper_tables.py.

Usage: bench_paper_smoke.py <bench_paper> <paper_tables.py> <work dir>

Runs the evaluation matrix at scale 0.01, renders it into a scratch
markdown file that holds the paper_tables markers, and checks that both
steps exit 0, that every table heading is rendered between the markers,
and that the text around them is kept.
"""

import os
import subprocess
import sys

HEADINGS = ["### Table %d:" % n for n in range(2, 7)] + \
           ["### Figure %d:" % n for n in range(6, 11)] + ["### Section 5.3:"]


def main(argv):
    bench, tables, work = argv[1:4]
    os.makedirs(work, exist_ok=True)
    out_json = os.path.join(work, "BENCH_paper.json")
    out_md = os.path.join(work, "tables.md")
    subprocess.run([bench, "0.01", out_json], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out_md, "w") as f:
        f.write("before\n<!-- paper_tables:begin -->\nstale\n"
                "<!-- paper_tables:end -->\nafter\n")
    subprocess.run([sys.executable, tables, out_json, out_md], check=True)
    with open(out_md) as f:
        text = f.read()
    missing = [h for h in HEADINGS if h not in text]
    assert not missing, "headings not rendered: %s" % missing
    assert "stale" not in text, "the marked region was not replaced"
    assert text.startswith("before\n") and text.endswith("after\n"), \
        "text outside the markers changed"
    assert "Solution hashes agree" in text, "hash agreement line missing"
    print("ok: %d headings rendered" % len(HEADINGS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
