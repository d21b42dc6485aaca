"""The eisenzeros benchmark: one workload, one result line.

Run from the repository root:

  python3 perfbench/run.py --workload {census,tables,points} --seed N
                           --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: one worker process runs the
workload for S seconds (and at least the workload's minimum item count),
and four more fresh processes repeat only the set-up, whose median is
reported.  --trace 1 measures the per-layer metrics: the same fixed item
set runs once untraced and once traced, each in a fresh process, and the
ratio of their throughputs is the tracing overhead.  Spans are written to
perfbench/out/.

Every item's output is checked (see workloads.py).  The last stdout line
is {"correct", "attempted", "failed", "metrics"}; the lines above it
record the machine and a readable summary.  Exits nonzero, printing no
result, when the program cannot be found or a worker fails.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5          # set-up samples per run, the worker's included
DEADLINE_S = 170.0         # every run ends well inside 180 s


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(root, args, mode, deadline, trace=0, spans_out=None) -> dict:
    cmd = [sys.executable, WORKER, "--root", root, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", repr(args.seconds), "--trace", str(trace)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# --- machine record ------------------------------------------------------------


def _read(path, default="unknown"):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = _read(f"{d}/size")
    return out


def _git_sha(root) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(root) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    caches = _caches()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(root),
    }


# --- metrics -------------------------------------------------------------------


def end_to_end(wl, run, setups) -> dict:
    tail = workloads.tail_permille(wl.min_items)
    lat = run["latencies_ms"]
    return {
        "items_per_s": (run["items"] / run["elapsed_s"], "1/s"),
        "item_ms_p50": (workloads.nearest_rank(lat, 500), "ms"),
        "item_ms_tail": (workloads.nearest_rank(lat, tail), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def _result(run, metrics) -> dict:
    return {
        "correct": run["failed"] == 0,
        "attempted": run["items"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eisenzeros", "cli.py")):
        print("error: run from the repository root; src/eisenzeros not found",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env = environment(root)
    try:
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv")
            plain = _worker(root, args, "fixed", deadline)
            run = _worker(root, args, "fixed", deadline, trace=1, spans_out=spans)
            metrics = {name: tuple(v) for name, v in run["layers"].items()}
            plain_rate = plain["items"] / plain["elapsed_s"]
            traced_rate = run["items"] / run["elapsed_s"]
            metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
            detail = {"fixed_items": run["items"], "spans": run["spans"],
                      "spans_file": os.path.relpath(spans, root),
                      "untraced_items_per_s": plain_rate,
                      "traced_items_per_s": traced_rate}
        else:
            run = _worker(root, args, "timed", deadline)
            setups = [run["setup_s"]] + [
                _worker(root, args, "setup", deadline)["setup_s"]
                for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end(wl, run, setups)
            detail = {"tail": workloads.percentile_label(
                          workloads.tail_permille(wl.min_items)),
                      "setup_samples_s": setups}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed_frac = run["failed"] / run["items"]
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  items=run["items"], calls=run["calls"],
                  elapsed_s=run["elapsed_s"], failed_frac=failed_frac,
                  errors=run["errors"])
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed_frac:>14.6g} ratio")
    print(json.dumps(_result(run, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
