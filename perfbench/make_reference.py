"""Regenerate perfbench/data/census_reference.csv.

The file holds the measured boundary zero counts (A, B) of every pair
14 <= l <= k <= 100, taken from one ``eisenzeros scan`` of the triangle.
It is the census workload's oracle, so regenerate it only on purpose, when
a change is meant to move counts, and say so.

Run from the repository root:  python3 perfbench/make_reference.py [--jobs N]
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from eisenzeros.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["scan", "--format", "json", "--jobs", str(args.jobs)])
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    pairs = [r for r in rows if "k" in r]
    if rc != 0 or any(r.get("error") for r in pairs):
        print(f"error: scan exited {rc}; reference not written", file=sys.stderr)
        return 1
    bad = [(r["k"], r["l"]) for r in pairs
           if not workloads.valence_holds(r["k"], r["l"], r["A"], r["B"])]
    if bad:
        print(f"error: valence identity fails at {bad}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(workloads.REFERENCE_CSV), exist_ok=True)
    with open(workloads.REFERENCE_CSV, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("k", "l", "A", "B"))
        for r in pairs:
            writer.writerow((r["k"], r["l"], r["A"], r["B"]))
    workloads.load_reference()
    print(f"wrote {len(pairs)} pairs to {workloads.REFERENCE_CSV}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
