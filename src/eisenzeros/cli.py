"""Command line front end.

Subcommands:

  eval      evaluate E_k at one point by one or all methods
  table     recompute the frozen arc/side zero-count tables and diff them
  scan      audit zero counts over a triangle of weight pairs
  audit     audit a single weight pair
  plotdata  numeric series for diagnostic plots

Every output row carries a ``schema_version`` field.  Output is
byte-deterministic for a fixed configuration: scan workers may run in
parallel but results are reduced in (l, k) order, JSON keys are sorted,
and CSV uses a bare "\\n" terminator.  Exit status is nonzero exactly
when some certified check failed (or the configuration was rejected).
Each subcommand checks its own arguments (scan, audit and plotdata
--kind zeros under one pair rule) before --out is opened, and --out is
opened before any work starts.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import re
import sys
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np

from .delta import WeightPair
from .eisenstein import (
    _MIN_EPS,
    _MIN_SCALED_WEIGHT,
    _check_domain,
    _check_fourier_domain,
    _check_lattice_disk,
    _check_lattice_terms,
    _check_phi_range,
    _check_scaled_weight,
    _check_theta_radius,
    eval_ek_fourier,
    eval_ek_lattice,
    gk,
    gk_fourier,
    phi0,
    phi1,
    theta_eisenstein_transformed,
)
from .numerics import MAX_WEIGHT, _check_weight
from .zeros import (
    _check_census_l,
    audit,
    interior_zero_hunt,
    predicted_counts,
    zero_brackets,
)

__all__ = [
    "SCHEMA_VERSION",
    "parse_point",
    "cmd_eval",
    "cmd_table",
    "cmd_scan",
    "cmd_audit",
    "cmd_plotdata",
    "main",
]

SCHEMA_VERSION = 1

_EPS_MAX = 1e-6
_FOURIER_ENVELOPE = 1e-6

TABLE_K_VALUES = tuple(range(56, 86, 2))
TABLE_L_VALUES = (20, 22, 24)
_REGIMES_K = 300  # plotdata --kind regimes without --k

# Zero counts on the low-weight window reproduced by `table`, frozen so a
# regression in the scan machinery cannot silently rewrite its own oracle.
# Rows are indexed by l, columns by k = 56, 58, ..., 84.
ARC_COUNT_TABLE = {
    20: (3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 5, 4, 5, 5, 5),
    22: (2, 3, 2, 3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 4, 4),
    24: (2, 2, 3, 2, 3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 5),
}
SIDE_COUNT_TABLE = {
    20: (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    22: (3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 3, 3),
    24: (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
}
ARC_SURPLUS_TABLE = {
    20: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    22: (0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    24: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
}
_TABLES = {1: ARC_COUNT_TABLE, 2: SIDE_COUNT_TABLE, 3: ARC_SURPLUS_TABLE}

_EVAL_FIELDS = (
    "schema_version", "method", "k", "x", "y", "value_re", "value_im",
    "g_re", "g_im", "regime", "envelope", "max_pairwise_deviation",
)
_REPORT_FIELDS = (
    "schema_version", "k", "l", "A", "B", "v_i", "v_rho",
    "predicted_A", "predicted_B", "n_prime", "valence_ok",
    "findings", "interior", "error",
)
_PHI_FIELDS = ("schema_version", "r", "phi0", "phi1")
_ZEROS_FIELDS = ("schema_version", "kind", "location", "lo", "hi")
_REGIMES_FIELDS = (
    "schema_version", "y", "err_small_y", "err_theta_mid",
    "bound_small_y", "bound_theta_mid",
)


def _check_pairs(pairs: list[tuple[int, int]]) -> None:
    """The pair rule of scan, audit and plotdata --kind zeros: each pair is
    a WeightPair (so both weights keep the weight rule) of the census,
    under the MAX_WEIGHT cap."""
    for k, l in pairs:
        WeightPair(k, l)
    _check_census_l(min(l for _, l in pairs))
    over = [pair for pair in pairs if sum(pair) > MAX_WEIGHT]
    if over:
        raise ValueError(
            f"{len(over)} pairs exceed the k + l <= {MAX_WEIGHT} cap, "
            f"largest {max(over, key=sum)}")


def parse_point(text: str) -> complex:
    """Parse '0.5+3i', '2i', 'i', or a plain real into a complex number."""
    s = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    s = s.replace("i", "j")
    s = re.sub(r"(?<![0-9.])j", "1j", s)
    try:
        z = complex(s)
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"point must be finite, got {text!r}")
    if z.imag <= 0.0:
        raise ValueError(f"point must lie in the upper half plane, got {text!r}")
    return z


@contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (list, tuple)):
        return " | ".join(str(v) for v in value)
    return value


def _write_rows(fh, fmt, fieldnames, rows):
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row.get(name)) for name in fieldnames])
    else:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


# --- eval ----------------------------------------------------------------


def _e_from_g(k: int, z: complex, g: complex) -> complex:
    # E = 1 + g z^(-k) through logs; the correction underflows to 0 once it
    # is far below 1 ulp of 1, which is the correct double rounding.
    return 1.0 + g * cmath.exp(-k * cmath.log(z))


def _eval_one(k: int, z: complex, method: str, eps: float) -> dict:
    if method == "lattice":
        value, tail = eval_ek_lattice(k, z, eps=eps)
        if k >= _MIN_SCALED_WEIGHT:
            g = gk(k, z, eps=eps)
        else:
            # below the scaled route's weights, at k = 4, 6, the direct
            # product is safe since |z|^k stays small
            g = (value - 1.0) * z ** k
        regime, envelope = "LatticeExact", tail
    elif method == "fourier":
        value = eval_ek_fourier(k, z)
        g = gk_fourier(k, z)
        regime, envelope = "FourierLarge", _FOURIER_ENVELOPE
    elif method == "theta":
        g = theta_eisenstein_transformed(k, z)
        value = _e_from_g(k, z, g)
        regime = "ThetaMid"
        envelope = 10.0 * z.imag / k ** (2.0 / 3.0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return {
        "schema_version": SCHEMA_VERSION, "method": method,
        "k": k, "x": z.real, "y": z.imag,
        "value_re": value.real, "value_im": value.imag,
        "g_re": g.real, "g_im": g.imag,
        "regime": regime, "envelope": envelope,
    }


def cmd_eval(fh, fmt: str, k: int, z: complex, method: str,
             eps: float) -> int:
    methods = ("lattice", "fourier", "theta") if method == "all" else (method,)
    rows = [_eval_one(k, z, m, eps) for m in methods]
    if method == "all":
        values = [complex(r["value_re"], r["value_im"]) for r in rows]
        deviation = max(abs(a - b) for a in values for b in values)
        rows.append({
            "schema_version": SCHEMA_VERSION, "method": "all",
            "k": k, "x": z.real, "y": z.imag,
            "max_pairwise_deviation": deviation,
        })
    _write_rows(fh, fmt, _EVAL_FIELDS, rows)
    return 0


# --- pair reports (scan / audit / table) ----------------------------------


def _pair_report(task: tuple) -> dict:
    k, l = task
    row = {"schema_version": SCHEMA_VERSION, "k": k, "l": l}
    try:
        report = audit(task)
        row.update(
            A=report.A, B=report.B, v_i=report.v_i, v_rho=report.v_rho,
            predicted_A=report.predicted_A, predicted_B=report.predicted_B,
            n_prime=predicted_counts(report.wp).N_prime,
            valence_ok=report.valence_ok,
            findings=list(report.findings),
            interior=list(interior_zero_hunt(report)),
        )
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_tasks(tasks, jobs):
    # the pool forks all its workers at the first submit
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [_pair_report(t) for t in tasks]
    # imported here: multiprocessing and its imports cost a --jobs 1 run
    # about 2 MB and 10 ms at start-up
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_pair_report, tasks, chunksize=chunk))


def _row_failed(row: dict) -> bool:
    # a valence failure always adds a finding, and only it fills interior
    return bool(row.get("error") or row.get("findings"))


def cmd_scan(fh, fmt: str, pairs: list[tuple[int, int]], jobs: int) -> int:
    rows = _run_tasks(pairs, jobs)

    valence_failures = sum(
        1 for r in rows if "valence_ok" in r and not r["valence_ok"])
    mismatches = sum(1 for r in rows if r.get("findings"))
    interior = sum(1 for r in rows if r.get("interior"))
    errors = sum(1 for r in rows if r.get("error"))
    summary = {
        "schema_version": SCHEMA_VERSION, "command": "scan",
        "pairs": len(rows), "valence_failures": valence_failures,
        "count_mismatches": mismatches, "interior_reports": interior,
        "errors": errors,
    }

    _write_rows(fh, fmt, _REPORT_FIELDS, rows)
    if fmt == "json":
        _write_rows(fh, fmt, (), [summary])
    print(
        f"scan: {len(rows)} pairs, {valence_failures} valence failures, "
        f"{mismatches} count mismatches, {interior} interior reports, "
        f"{errors} errors", file=sys.stderr)
    return 1 if any(map(_row_failed, rows)) else 0


def cmd_audit(fh, fmt: str, k: int, l: int) -> int:
    row = _pair_report((k, l))
    _write_rows(fh, fmt, _REPORT_FIELDS, [row])
    return 1 if _row_failed(row) else 0


# --- table -----------------------------------------------------------------


def _table_cell(which: int, row: dict):
    if row.get("error"):
        return None
    if which == 1:
        return row["A"]
    if which == 2:
        return row["B"]
    return row["A"] - row["n_prime"]


def cmd_table(fh, fmt: str, which: int, jobs: int) -> int:
    tasks = [(k, l) for l in TABLE_L_VALUES for k in TABLE_K_VALUES]
    rows = _run_tasks(tasks, jobs)
    cells = {(r["l"], r["k"]): _table_cell(which, r) for r in rows}

    expected = _TABLES[which]
    diffs = []
    out_rows = []
    for l in TABLE_L_VALUES:
        measured = [cells[(l, k)] for k in TABLE_K_VALUES]
        for k, got, want in zip(TABLE_K_VALUES, measured, expected[l]):
            if got != want:
                diffs.append(f"table {which} l={l} k={k}: got {got}, expected {want}")
        counts = {str(k): v for k, v in zip(TABLE_K_VALUES, measured)}
        if fmt == "csv":
            out_rows.append({"schema_version": SCHEMA_VERSION, "l": l,
                             **counts})
        else:
            out_rows.append({"schema_version": SCHEMA_VERSION,
                             "table": which, "l": l, "counts": counts})

    fieldnames = ("schema_version", "l") + tuple(str(k) for k in TABLE_K_VALUES)
    _write_rows(fh, fmt, fieldnames, out_rows)
    for line in diffs:
        print(line, file=sys.stderr)
    return 1 if diffs else 0


# --- plotdata ---------------------------------------------------------------


def _plot_phi(rs: np.ndarray) -> list[dict]:
    rows = []
    for r in rs:
        rows.append({"schema_version": SCHEMA_VERSION, "r": float(r),
                     "phi0": phi0(float(r)), "phi1": phi1(float(r))})
    return rows


def _plot_zeros(k: int, l: int) -> list[dict]:
    rows = []
    for bracket in zero_brackets((k, l)):
        rows.append({
            "schema_version": SCHEMA_VERSION, "kind": bracket.kind,
            "location": bracket.location, "lo": bracket.lo, "hi": bracket.hi,
        })
    return rows


def _plot_regimes(k: int, x: float, ys: np.ndarray) -> list[dict]:
    bound_small = 10.0 * math.exp(-k ** (1.0 / 6.0))
    rows = []
    for y in ys:
        z = complex(x, float(y))
        truth = gk(k, z)
        small = 1.0 + (z / (z - 1.0)) ** k + (z / (z + 1.0)) ** k
        theta = theta_eisenstein_transformed(k, z)
        rows.append({
            "schema_version": SCHEMA_VERSION, "y": float(y),
            "err_small_y": abs(small - truth),
            "err_theta_mid": abs(theta - truth),
            "bound_small_y": bound_small,
            "bound_theta_mid": 10.0 * float(y) / k ** (2.0 / 3.0),
        })
    return rows


def cmd_plotdata(fh, fmt: str, rows, fields: tuple[str, ...]) -> int:
    """Run the row builder rows, which _dispatch binds to a checked input,
    and write its rows under fields."""
    try:
        _write_rows(fh, fmt, fields, rows())
    except ArithmeticError as exc:
        # a failed certified check exits 1, as an audit row error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# --- argument parsing --------------------------------------------------------


def _even_range(lo: int, hi: int) -> tuple[int, ...]:
    lo = lo + (lo % 2)
    hi = hi - (hi % 2)
    return tuple(range(lo, hi + 1, 2))


def _add_common(sub, fmt_default: str, jobs: bool = False):
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default=fmt_default, help="output format")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="worker processes; results stay in pair order")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="eisenzeros",
        description="Zero counting and certified evaluation for E_k E_l - E_{k+l}.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="evaluate E_k at a point")
    p.add_argument("--k", type=int, required=True, help="even weight >= 4")
    p.add_argument("--z", required=True,
                   help="point, e.g. 'i' or '0.5+3i'; write a negative real "
                        "part with '=', as --z=-0.3+2i")
    p.add_argument("--method", choices=("lattice", "fourier", "theta", "all"),
                   default="lattice")
    p.add_argument("--eps", type=float, default=1e-12,
                   help="lattice accuracy target, in [1e-15, 1e-6]")
    _add_common(p, "json")

    p = commands.add_parser("table", help="recompute a frozen count table")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True,
                   help="1 = arc counts, 2 = side counts, 3 = arc surplus")
    _add_common(p, "csv", jobs=True)

    p = commands.add_parser("scan", help="audit a triangle of weight pairs")
    p.add_argument("--l-min", type=int, default=14)
    p.add_argument("--l-max", type=int, default=100)
    p.add_argument("--k-min", type=int, default=14)
    p.add_argument("--k-max", type=int, default=100)
    _add_common(p, "json", jobs=True)

    p = commands.add_parser("audit", help="audit one weight pair")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p, "json")

    p = commands.add_parser("plotdata", help="emit plot series")
    p.add_argument("--kind", choices=("phi", "zeros", "regimes"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--x", type=float, default=0.5,
                   help="real part for the regimes series")
    p.add_argument("--r-min", type=float, default=0.05)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=0,
                   help="series length (0 = per-kind default)")
    _add_common(p, "csv")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Check the subcommand's own arguments, then open --out and run it."""
    if getattr(args, "jobs", 1) < 1:
        raise ValueError("jobs must be at least 1")
    if args.command == "eval":
        if not _MIN_EPS <= args.eps <= _EPS_MAX:
            raise ValueError(f"eps must lie in [{_MIN_EPS:g}, {_EPS_MAX:g}], "
                             f"got {args.eps:g}")
        z = parse_point(args.z)
        _check_weight(args.k)
        if args.method != "fourier":
            _check_domain(z)
        if args.method in ("lattice", "all"):
            _check_lattice_disk(z)
            _check_lattice_terms(args.k, z)
        if args.method in ("fourier", "all"):
            _check_fourier_domain(args.k, z)
        if args.method in ("theta", "all"):
            _check_theta_radius(args.k, z)
        run = partial(cmd_eval, k=args.k, z=z, method=args.method,
                      eps=args.eps)
    elif args.command == "table":
        run = partial(cmd_table, which=args.which, jobs=args.jobs)
    elif args.command == "scan":
        ks = _even_range(args.k_min, args.k_max)
        ls = _even_range(args.l_min, args.l_max)
        if not ks or not ls:
            raise ValueError("scan needs non-empty weight ranges")
        pairs = [(k, l) for l in ls for k in ks if k >= l]
        if not pairs:
            raise ValueError("weight ranges produce no pairs with k >= l")
        _check_pairs(pairs)
        run = partial(cmd_scan, pairs=pairs, jobs=args.jobs)
    elif args.command == "audit":
        _check_pairs([(args.k, args.l)])
        run = partial(cmd_audit, k=args.k, l=args.l)
    # plotdata: each kind's exact input, built and checked once
    elif args.kind == "zeros":
        if args.k is None or args.l is None:
            raise ValueError("plotdata --kind zeros requires --k and --l")
        _check_pairs([(args.k, args.l)])
        run = partial(cmd_plotdata, rows=partial(_plot_zeros, args.k, args.l),
                      fields=_ZEROS_FIELDS)
    elif args.kind == "phi":
        _check_phi_range(args.r_min, args.r_max)
        rs = np.linspace(args.r_min, args.r_max, args.points or 40)
        run = partial(cmd_plotdata, rows=partial(_plot_phi, rs),
                      fields=_PHI_FIELDS)
    else:
        k = _REGIMES_K if args.k is None else args.k
        _check_scaled_weight(k)
        # heights either side of the small-y / theta-mid boundary y = k^0.4
        ys = np.geomspace(0.35 * k ** 0.4, 1.8 * k ** 0.4, args.points or 24)
        for y in ys:
            z = complex(args.x, float(y))  # gk's point rule, at every height
            _check_domain(z)
            _check_lattice_disk(z)
            _check_lattice_terms(k, z)
        run = partial(cmd_plotdata, rows=partial(_plot_regimes, k, args.x, ys),
                      fields=_REGIMES_FIELDS)
    with _out_stream(args.out) as fh:
        return run(fh, args.fmt)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        # OSError: an --out path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
