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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .delta import WeightPair
from .eisenstein import (
    Regime,
    _check_weight,
    eval_ek_fourier,
    eval_ek_lattice,
    gk,
    gk_fourier,
    phi0,
    phi1,
    theta_eisenstein_transformed,
)
from .zeros import (
    audit,
    interior_zero_hunt,
    predicted_counts,
    zero_brackets,
)

__all__ = [
    "SCHEMA_VERSION",
    "RunConfig",
    "parse_point",
    "cmd_eval",
    "cmd_table",
    "cmd_scan",
    "cmd_audit",
    "cmd_plotdata",
    "main",
]

SCHEMA_VERSION = 1

_EPS_MIN = 1e-15
_EPS_MAX = 1e-6
_OVERSAMPLE_MAX = 64.0
_PAIR_SUM_CAP = 400
_FOURIER_ENVELOPE = 1e-6

TABLE_K_VALUES = tuple(range(56, 86, 2))
TABLE_L_VALUES = (20, 22, 24)

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


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    command: str
    k_values: tuple[int, ...] = ()
    l_values: tuple[int, ...] = ()
    eps: float = 1e-12
    oversample: float = 1.0
    fmt: str = "csv"
    out: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.command not in ("eval", "table", "scan", "audit", "plotdata"):
            raise ValueError(f"unknown command {self.command!r}")
        if not (_EPS_MIN <= self.eps <= _EPS_MAX):
            raise ValueError(
                f"eps must lie in [{_EPS_MIN:g}, {_EPS_MAX:g}], got {self.eps:g}")
        if not 0.0 < self.oversample <= _OVERSAMPLE_MAX:
            raise ValueError(f"oversample must lie in (0, {_OVERSAMPLE_MAX:g}], "
                             f"got {self.oversample:g}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.command in ("table", "scan", "audit"):
            if not self.k_values or not self.l_values:
                raise ValueError(f"{self.command} needs non-empty weight ranges")
            for v in self.k_values + self.l_values:
                if v % 2 or v < 4:
                    raise ValueError(f"weights must be even and >= 4, got {v}")
            _check_pair_sums(self.k_values, self.l_values)


def _check_pair_sums(k_values, l_values) -> None:
    over = [(k, l) for l in l_values for k in k_values
            if k >= l and k + l > _PAIR_SUM_CAP]
    if over:
        raise ValueError(
            f"{len(over)} pairs exceed the k + l <= {_PAIR_SUM_CAP} cap, "
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


def _json_row(row):
    clean = {}
    for key, value in row.items():
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        clean[key] = value
    return clean


def _write_rows(fh, fmt, fieldnames, rows):
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_csv_cell(row.get(name)) for name in fieldnames])
    else:
        for row in rows:
            fh.write(json.dumps(_json_row(row), sort_keys=True))
            fh.write("\n")


# --- eval ----------------------------------------------------------------


def _e_from_g(k: int, z: complex, g: complex) -> complex:
    # E = 1 + g z^(-k) through logs; the correction underflows to 0 once it
    # is far below 1 ulp of 1, which is the correct double rounding.
    return 1.0 + g * cmath.exp(-k * cmath.log(z))


def _eval_one(k: int, z: complex, method: str, eps: float) -> dict:
    if method == "lattice":
        value, tail = eval_ek_lattice(k, z, eps=eps)
        if k >= 8:
            g = gk(k, z, eps=eps)
        else:
            # scaled route needs k >= 8; at k = 4, 6 the direct product is
            # safe since |z|^k stays small
            g = (value - 1.0) * z ** k
        regime, envelope = Regime.LATTICE_EXACT.value, tail
    elif method == "fourier":
        value = eval_ek_fourier(k, z)
        g = gk_fourier(k, z)
        regime, envelope = Regime.FOURIER_LARGE.value, _FOURIER_ENVELOPE
    elif method == "theta":
        g = theta_eisenstein_transformed(k, z)
        value = _e_from_g(k, z, g)
        regime = Regime.THETA_MID.value
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


def cmd_eval(cfg: RunConfig, z: complex, method: str) -> int:
    k = cfg.k_values[0]
    methods = ("lattice", "fourier", "theta") if method == "all" else (method,)
    rows = [_eval_one(k, z, m, cfg.eps) for m in methods]
    if method == "all":
        values = [complex(r["value_re"], r["value_im"]) for r in rows]
        deviation = max(abs(a - b) for a in values for b in values)
        rows.append({
            "schema_version": SCHEMA_VERSION, "method": "all",
            "k": k, "x": z.real, "y": z.imag,
            "max_pairwise_deviation": deviation,
        })
    with _out_stream(cfg.out) as fh:
        _write_rows(fh, cfg.fmt, _EVAL_FIELDS, rows)
    return 0


# --- pair reports (scan / audit / table) ----------------------------------


def _pair_report(task: tuple) -> dict:
    k, l, eps, oversample = task
    row = {"schema_version": SCHEMA_VERSION, "k": k, "l": l}
    try:
        wp = WeightPair(k, l)
        report = audit(wp, eps=eps, oversample=oversample)
        row.update(
            A=report.A, B=report.B, v_i=report.v_i, v_rho=report.v_rho,
            predicted_A=report.predicted_A, predicted_B=report.predicted_B,
            n_prime=predicted_counts(wp).N_prime,
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
    if row.get("error"):
        return True
    return (not row.get("valence_ok", False)
            or bool(row.get("findings")) or bool(row.get("interior")))


def _triangle_pairs(cfg: RunConfig) -> list[tuple[int, int]]:
    pairs = [(k, l) for l in cfg.l_values for k in cfg.k_values if k >= l]
    if not pairs:
        raise ValueError("weight ranges produce no pairs with k >= l")
    pairs.sort(key=lambda p: (p[1], p[0]))
    return pairs


def cmd_scan(cfg: RunConfig) -> int:
    pairs = _triangle_pairs(cfg)
    tasks = [(k, l, cfg.eps, cfg.oversample) for (k, l) in pairs]
    rows = _run_tasks(tasks, cfg.jobs)

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

    with _out_stream(cfg.out) as fh:
        _write_rows(fh, cfg.fmt, _REPORT_FIELDS, rows)
        if cfg.fmt == "json":
            fh.write(json.dumps(summary, sort_keys=True))
            fh.write("\n")
    print(
        f"scan: {len(rows)} pairs, {valence_failures} valence failures, "
        f"{mismatches} count mismatches, {interior} interior reports, "
        f"{errors} errors", file=sys.stderr)
    failed = valence_failures or mismatches or interior or errors
    return 1 if failed else 0


def cmd_audit(cfg: RunConfig) -> int:
    k, l = cfg.k_values[0], cfg.l_values[0]
    row = _pair_report((k, l, cfg.eps, cfg.oversample))
    with _out_stream(cfg.out) as fh:
        _write_rows(fh, cfg.fmt, _REPORT_FIELDS, [row])
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


def cmd_table(cfg: RunConfig, which: int) -> int:
    tasks = [(k, l, cfg.eps, cfg.oversample)
             for l in cfg.l_values for k in cfg.k_values]
    rows = _run_tasks(tasks, cfg.jobs)
    cells = {(r["l"], r["k"]): _table_cell(which, r) for r in rows}

    expected = _TABLES[which]
    diffs = []
    out_rows = []
    for l in cfg.l_values:
        measured = [cells[(l, k)] for k in cfg.k_values]
        for k, got, want in zip(cfg.k_values, measured, expected[l]):
            if got != want:
                diffs.append(f"table {which} l={l} k={k}: got {got}, expected {want}")
        if cfg.fmt == "csv":
            out_rows.append({"schema_version": SCHEMA_VERSION, "l": l,
                             **{str(k): v for k, v in zip(cfg.k_values, measured)}})
        else:
            out_rows.append({
                "schema_version": SCHEMA_VERSION, "table": which, "l": l,
                "counts": {str(k): v for k, v in zip(cfg.k_values, measured)},
            })

    fieldnames = ("schema_version", "l") + tuple(str(k) for k in cfg.k_values)
    with _out_stream(cfg.out) as fh:
        _write_rows(fh, cfg.fmt, fieldnames, out_rows)
    for line in diffs:
        print(line, file=sys.stderr)
    return 1 if diffs else 0


# --- plotdata ---------------------------------------------------------------


def _plot_phi(r_min: float, r_max: float, points: int) -> list[dict]:
    if not 0.0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    rows = []
    for r in np.linspace(r_min, r_max, points):
        rows.append({"schema_version": SCHEMA_VERSION, "r": float(r),
                     "phi0": phi0(float(r)), "phi1": phi1(float(r))})
    return rows


def _plot_zeros(k: int, l: int, eps: float, oversample: float) -> list[dict]:
    wp = WeightPair(k, l)
    rows = []
    for bracket in zero_brackets(wp, eps=eps, oversample=oversample):
        rows.append({
            "schema_version": SCHEMA_VERSION, "kind": bracket.kind,
            "location": bracket.location, "lo": bracket.lo, "hi": bracket.hi,
        })
    return rows


def _plot_regimes(k: int, x: float, points: int, eps: float) -> list[dict]:
    boundary = k ** 0.4
    ys = np.geomspace(0.35 * boundary, 1.8 * boundary, points)
    bound_small = 10.0 * math.exp(-k ** (1.0 / 6.0))
    rows = []
    for y in ys:
        z = complex(x, float(y))
        truth = gk(k, z, eps=eps)
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


def cmd_plotdata(cfg: RunConfig, kind: str, *, k=None, l=None, x=0.5,
                 r_min=0.05, r_max=10.0, points=0) -> int:
    if kind == "phi":
        rows = _plot_phi(r_min, r_max, points or 40)
        fields = _PHI_FIELDS
    elif kind == "zeros":
        if k is None or l is None:
            raise ValueError("plotdata --kind zeros requires --k and --l")
        _check_pair_sums((k,), (l,))
        try:
            rows = _plot_zeros(k, l, cfg.eps, cfg.oversample)
        except ArithmeticError as exc:
            # a failed certified check exits 1, as an audit row error
            print(f"error: {exc}", file=sys.stderr)
            return 1
        fields = _ZEROS_FIELDS
    elif kind == "regimes":
        k = 300 if k is None else k
        _check_weight(k)
        rows = _plot_regimes(k, x, points or 24, cfg.eps)
        fields = _REGIMES_FIELDS
    else:
        raise ValueError(f"unknown plotdata kind {kind!r}")
    with _out_stream(cfg.out) as fh:
        _write_rows(fh, cfg.fmt, fields, rows)
    return 0


# --- argument parsing --------------------------------------------------------


def _even_range(lo: int, hi: int) -> tuple[int, ...]:
    lo = lo + (lo % 2)
    hi = hi - (hi % 2)
    return tuple(range(lo, hi + 1, 2))


def _add_common(sub, fmt_default: str, jobs: bool = False):
    sub.add_argument("--eps", type=float, default=1e-12,
                     help="certification tolerance, in [1e-15, 1e-6]")
    sub.add_argument("--oversample", type=float, default=1.0,
                     help="how near the corners the arc ends and the side's "
                          "lower end lie (larger is nearer), in (0, 64]")
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
    p.add_argument("--no-hunt", action="store_true",
                   help="no effect: the valence closure of the boundary "
                        "count excludes interior zeros; kept for compatibility")
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
    common = dict(eps=args.eps, oversample=args.oversample,
                  fmt=args.fmt, out=args.out, jobs=getattr(args, "jobs", 1))
    if args.command == "eval":
        cfg = RunConfig("eval", k_values=(args.k,), **common)
        return cmd_eval(cfg, parse_point(args.z), args.method)
    if args.command == "table":
        cfg = RunConfig("table", k_values=TABLE_K_VALUES,
                        l_values=TABLE_L_VALUES, **common)
        return cmd_table(cfg, args.which)
    if args.command == "scan":
        cfg = RunConfig("scan", k_values=_even_range(args.k_min, args.k_max),
                        l_values=_even_range(args.l_min, args.l_max), **common)
        return cmd_scan(cfg)
    if args.command == "audit":
        cfg = RunConfig("audit", k_values=(args.k,), l_values=(args.l,), **common)
        return cmd_audit(cfg)
    cfg = RunConfig("plotdata", **common)
    return cmd_plotdata(cfg, args.kind, k=args.k, l=args.l, x=args.x,
                        r_min=args.r_min, r_max=args.r_max, points=args.points)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
