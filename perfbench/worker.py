"""One benchmark process: set up, run a workload's calls, print one JSON line.

Started by run.py in a fresh interpreter with the numeric libraries pinned
to one thread.  Modes:

  setup  import eisenzeros.cli and build the inputs, then stop
  timed  run calls until --seconds have passed and the workload's minimum
         item count is reached, stopping only at the workload's boundaries
  fixed  run exactly the calls that hold the first minimum-count items,
         with span tracing when --trace 1

Usage: python3 perfbench/worker.py --root ROOT --workload NAME --seed N
           --mode {setup,timed,fixed} [--seconds S] [--trace 0|1]
           [--spans-out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import resource
import sys
import time

import workloads
from tracing import Tracer, layer_metrics


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", default=None)
    return p.parse_args(argv)


def _timed_pair_reports(cli, latencies):
    """Time each pair audit at the name cmd_table's workers look up."""
    inner = cli._pair_report

    @functools.wraps(inner)
    def timed(task):
        t = time.perf_counter()
        try:
            return inner(task)
        finally:
            latencies.append(1e3 * (time.perf_counter() - t))

    return timed


def _fixed_calls(calls, min_items):
    out, items = [], 0
    for call in calls:
        if items >= min_items:
            break
        out.append(call)
        items += call.items
    return out


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    cli = importlib.import_module("eisenzeros.cli")
    calls = workloads.make_calls(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return result

    if args.mode == "fixed":
        calls = _fixed_calls(calls, wl.min_items)
    tracer = Tracer() if args.trace else None
    main = cli.main
    latencies: list[float] = []
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    elif wl.per_pair_latency:
        cli._pair_report = _timed_pair_reports(cli, latencies)

    items = failed = 0
    errors: list[str] = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.item = i
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(list(call.argv))
            except Exception as exc:   # a crash fails the item, the run goes on
                rc, msg = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if not wl.per_pair_latency:
                latencies.append(1e3 * dt)
            items += call.items
            if rc is None:
                bad = call.items
            else:
                bad = call.check(rc, out.getvalue())
                msg = f"exit {rc}: {(err.getvalue() or out.getvalue())[:300]}"
            failed += bad
            if bad and len(errors) < 20:
                errors.append(f"{' '.join(call.argv)}: {msg}")
            elapsed = time.perf_counter() - start
            if (args.mode == "timed" and (i + 1) % wl.stop_every == 0
                    and elapsed >= args.seconds and items >= wl.min_items):
                break
        elapsed = time.perf_counter() - start

    result.update(
        items=items, failed=failed, elapsed_s=elapsed, errors=errors,
        calls=i + 1, latencies_ms=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, tracer.escalated)
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    return result


def main(argv=None) -> int:
    args = _parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
