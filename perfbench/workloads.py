"""Workload inputs and output oracles for the eisenzeros benchmark.

A workload is a stream of calls into ``eisenzeros.cli.main``.  Each call
carries its argv, the number of items it completes and an oracle that
turns the call's exit code and captured stdout into a failed-item count.
Streams are ordered so that every prefix is a balanced sample: a run that
stops on time still measures the same mix of work.

Nothing here imports eisenzeros; the worker times that import as set-up.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_CSV = os.path.join(HERE, "data", "census_reference.csv")
FROZEN_TABLES_JSON = os.path.join(HERE, "data", "frozen_tables.json")

TRIANGLE_MIN, TRIANGLE_MAX = 14, 100
CENSUS_BLOCK = 9                      # pairs per stratum: 990 = 110 * 9
POINT_WEIGHTS = tuple(range(4, 101, 2))
POINT_Y_MAX = 6.0
POINT_ROUNDS = 120                    # cap on generated points: 120 * 49
TABLE_PASSES = 40                     # cap on generated table passes
LATTICE_FOURIER_RTOL = 1e-8           # acceptance criterion 6

# (v_i, v_rho) forced by k + l mod 12; restated here so the reference is
# checked against the valence identity without trusting the program.
_TRIVIAL_ORDERS = {0: (0, 0), 2: (1, 2), 4: (0, 1),
                   6: (1, 0), 8: (0, 2), 10: (1, 1)}

# Nearest-rank percentiles a workload may report as its tail.
PERCENTILES_PERMILLE = (500, 900, 990, 999)


@dataclass(frozen=True)
class Call:
    """One ``cli.main(argv)`` invocation and how to judge its output."""

    argv: tuple[str, ...]
    items: int
    check: Callable[[int, str], int]   # (exit code, stdout) -> failed items


@dataclass(frozen=True)
class Workload:
    min_items: int      # enough items for the tail percentile to hold 10
    stop_every: int     # a timed run may stop only after this many calls
    per_pair_latency: bool  # item latency is one pair audit inside a call


# --- percentiles -----------------------------------------------------------


def items_beyond(n: int, permille: int) -> int:
    """Items ranked strictly above the nearest-rank percentile."""
    return n - -(-permille * n // 1000)


def tail_permille(n: int) -> int:
    """Highest listed percentile, in permille, with at least 10 of n
    items beyond it."""
    best = None
    for p in PERCENTILES_PERMILLE:
        if items_beyond(n, p) >= 10:
            best = p
    if best is None:
        raise ValueError(f"{n} items leave no percentile with 10 beyond it")
    return best


def nearest_rank(values, permille: int) -> float:
    """The nearest-rank percentile: the ceil(p n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def percentile_label(permille: int) -> str:
    return f"p{permille / 10:g}"


# --- reference data ----------------------------------------------------------


def triangle_pairs() -> list[tuple[int, int]]:
    """All (k, l) with 14 <= l <= k <= 100, both even, in (l, k) order."""
    return [(k, l)
            for l in range(TRIANGLE_MIN, TRIANGLE_MAX + 1, 2)
            for k in range(l, TRIANGLE_MAX + 1, 2)]


def valence_holds(k: int, l: int, a: int, b: int) -> bool:
    v_i, v_rho = _TRIVIAL_ORDERS[(k + l) % 12]
    return 12 * (a + b) + 6 * v_i + 4 * v_rho + 12 == k + l


def load_reference(path: str = REFERENCE_CSV) -> dict[tuple[int, int], tuple[int, int]]:
    """Measured (A, B) per pair, checked complete and valence-consistent."""
    with open(path, newline="", encoding="utf-8") as fh:
        ref = {(int(r["k"]), int(r["l"])): (int(r["A"]), int(r["B"]))
               for r in csv.DictReader(fh)}
    if sorted(ref) != sorted(triangle_pairs()):
        raise ValueError(f"{path} does not cover the 990-pair triangle")
    bad = [p for p, (a, b) in ref.items() if not valence_holds(*p, a, b)]
    if bad:
        raise ValueError(f"{path} violates the valence identity at {bad[:5]}")
    return ref


def load_frozen_tables(path: str = FROZEN_TABLES_JSON) -> dict:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        "k_values": tuple(raw["k_values"]),
        "tables": {int(w): {int(l): tuple(row) for l, row in t.items()}
                   for w, t in raw["tables"].items()},
    }


# --- oracles ------------------------------------------------------------------


def check_audit(rc: int, out: str, k: int, l: int, ref: dict) -> int:
    """1 when the audit row errs, fails valence, carries findings or
    interior reports, or disagrees with the reference counts."""
    try:
        row = json.loads(out)
    except ValueError:
        return 1
    bad = (rc != 0 or row.get("error") or not row.get("valence_ok")
           or row.get("findings") or row.get("interior")
           or (row.get("A"), row.get("B")) != ref[(k, l)])
    return 1 if bad else 0


def check_table(rc: int, out: str, which: int, frozen: dict) -> int:
    """Cells that differ from the frozen table; every cell on a bad exit."""
    k_values = frozen["k_values"]
    want = frozen["tables"][which]
    cells = len(want) * len(k_values)
    if rc != 0:
        return cells
    got = {}
    try:
        for line in out.splitlines():
            row = json.loads(line)
            got[row["l"]] = row["counts"]
    except (ValueError, KeyError):
        return cells
    failed = 0
    for l, row in want.items():
        for k, count in zip(k_values, row):
            if got.get(l, {}).get(str(k)) != count:
                failed += 1
    return failed


def check_eval(rc: int, out: str) -> int:
    """1 on a bad exit or when lattice and Fourier values disagree by more
    than the criterion-6 relative tolerance."""
    if rc != 0:
        return 1
    try:
        rows = {r["method"]: r for r in map(json.loads, out.splitlines())}
        lat = complex(rows["lattice"]["value_re"], rows["lattice"]["value_im"])
        four = complex(rows["fourier"]["value_re"], rows["fourier"]["value_im"])
    except (ValueError, KeyError):
        return 1
    return 0 if abs(lat - four) <= LATTICE_FOURIER_RTOL * abs(lat) else 1


# --- streams --------------------------------------------------------------------


def _spread_order(n: int) -> list[int]:
    """0..n-1 ordered by the golden-ratio sequence, so every prefix is
    spread evenly over the range."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return sorted(range(n), key=lambda i: (i * golden) % 1.0)


def census_pairs(seed: int) -> list[tuple[int, int]]:
    """Every triangle pair once, as rounds of a stratified sample.

    The (l, k)-ordered triangle is cut into 110 strata of 9 neighbouring
    pairs.  Round r takes the seed-chosen r-th pair of every stratum, and
    visits the strata in a spread order, so any prefix samples the whole
    triangle evenly while the pairs themselves depend on the seed.
    """
    pairs = triangle_pairs()
    rng = random.Random(seed)
    strata = [pairs[i:i + CENSUS_BLOCK] for i in range(0, len(pairs), CENSUS_BLOCK)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = _spread_order(len(strata))
    return [strata[s][r] for r in range(CENSUS_BLOCK) for s in order]


def census_calls(seed: int) -> list[Call]:
    ref = load_reference()
    return [Call(("audit", "--k", str(k), "--l", str(l), "--format", "json"), 1,
                 lambda rc, out, k=k, l=l: check_audit(rc, out, k, l, ref))
            for k, l in census_pairs(seed)]


def table_calls(seed: int) -> list[Call]:
    """``table --which 1, 2, 3`` repeated; the seed is ignored."""
    frozen = load_frozen_tables()
    per_call = len(frozen["k_values"]) * len(frozen["tables"][1])
    return [Call(("table", "--which", str(w), "--format", "json"), per_call,
                 lambda rc, out, w=w: check_table(rc, out, w, frozen))
            for _ in range(TABLE_PASSES) for w in (1, 2, 3)]


def sample_points(seed: int, rounds: int = POINT_ROUNDS) -> list[tuple[int, float, float]]:
    """Rounds of one point per even weight 4..100: |x| <= 1/2 uniform and
    y log-uniform in [1, 6].  Every round has the same weights, so the
    composition, and with it the tail rank, does not depend on the seed."""
    rng = random.Random(seed)
    log_y_max = math.log(POINT_Y_MAX)
    return [(k, rng.uniform(-0.5, 0.5), math.exp(rng.uniform(0.0, log_y_max)))
            for _ in range(rounds) for k in POINT_WEIGHTS]


def point_calls(seed: int) -> list[Call]:
    # --z= keeps argparse from reading a negative real part as a flag
    return [Call(("eval", "--k", str(k), f"--z={x!r}+{y!r}i",
                   "--method", "all", "--format", "json"), 1, check_eval)
            for k, x, y in sample_points(seed)]


WORKLOADS = {
    "census": Workload(min_items=100, stop_every=1, per_pair_latency=False),
    "tables": Workload(min_items=135, stop_every=1, per_pair_latency=True),
    "points": Workload(min_items=21 * len(POINT_WEIGHTS),
                       stop_every=len(POINT_WEIGHTS), per_pair_latency=False),
}

_CALLS = {"census": census_calls, "tables": table_calls, "points": point_calls}


def make_calls(workload: str, seed: int) -> list[Call]:
    return _CALLS[workload](seed)
