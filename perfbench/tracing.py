"""Span tracing around eisenzeros' layer boundaries, from outside the package.

Timers are installed at the module attribute each caller looks up, so a
call is seen exactly where the program makes it: ``zeros`` calls
``side_normalized_batch`` through ``eisenzeros.zeros``, ``delta`` calls
``hk_batch`` through ``eisenzeros.delta``, and ``hk_batch``'s own octave
recursion goes through ``eisenzeros.eisenstein``.  Span names are the
defining module and function, whatever the install site.

Each span is kept in memory as [name, start, end, parent, item, n] and
written out when the run ends.  ``n`` is the batch size for batch
evaluators, the bracket count for the zero counters and 0 elsewhere.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, ITEM, N = range(6)
RUN_EPS = 1e-12     # the CLI's default --eps, which every workload uses


def _batch_len(args, kwargs, result):
    return len(args[1])


def _bracket_count(args, kwargs, result):
    return len(result[1])


def _eps_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("eps", RUN_EPS)


# (span name, [install sites as "module:attribute"], size of the work)
HOOKS = (
    ("zeros.audit", ["eisenzeros.cli:audit"], None),
    ("zeros.interior_zero_hunt", ["eisenzeros.cli:interior_zero_hunt"], None),
    ("zeros.count_arc_zeros", ["eisenzeros.zeros:count_arc_zeros"], _bracket_count),
    ("zeros.count_side_zeros", ["eisenzeros.zeros:count_side_zeros"], _bracket_count),
    ("zeros.side_upper_cutoff", ["eisenzeros.zeros:side_upper_cutoff"], None),
    ("delta.arc_real_batch", ["eisenzeros.zeros:arc_real_batch"], _batch_len),
    ("delta.side_normalized_batch", ["eisenzeros.zeros:side_normalized_batch"], _batch_len),
    ("eisenstein.fk_batch", ["eisenzeros.delta:fk_batch"], _batch_len),
    ("eisenstein.hk_batch", ["eisenzeros.delta:hk_batch",
                             "eisenzeros.eisenstein:hk_batch"], _batch_len),
    ("eisenstein.eval_ek_lattice", ["eisenzeros.cli:eval_ek_lattice"], None),
    ("eisenstein.eval_ek_fourier", ["eisenzeros.cli:eval_ek_fourier"], None),
    ("eisenstein.gk", ["eisenzeros.cli:gk"], None),
    ("eisenstein.gk_fourier", ["eisenzeros.cli:gk_fourier"], None),
    ("eisenstein.theta_eisenstein_transformed",
     ["eisenzeros.cli:theta_eisenstein_transformed"], None),
    ("numerics.lc_sum", ["eisenzeros.zeros:lc_sum",
                         "eisenzeros.eisenstein:lc_sum"], None),
)

_DELTA_BATCHES = ("delta.arc_real_batch", "delta.side_normalized_batch")


class Tracer:
    """Records nested spans; ``item`` tags every span with the current item."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self.escalated = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        delta_batch = name in _DELTA_BATCHES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if delta_batch and _eps_arg(args, kwargs) < RUN_EPS:
                self.escalated += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[N] = size(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every hook for the duration of the block."""
        saved = []
        try:
            for name, sites, size in HOOKS:
                first_mod, first_attr = sites[0].split(":")
                wrapped = self.wrap(
                    name, getattr(importlib.import_module(first_mod), first_attr), size)
                for site in sites:
                    mod_name, attr = site.split(":")
                    mod = importlib.import_module(mod_name)
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\titem\tn\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t"
                         f"{s[PARENT]}\t{s[ITEM]}\t{s[N]}\n")


# --- span arithmetic -----------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def layer_metrics(spans, escalated: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit)."""
    self_s = self_times(spans)
    outer = outermost(spans)
    calls = defaultdict(int)
    points = defaultdict(int)
    total_self = defaultdict(float)
    single = defaultdict(lambda: [0, 0.0])       # name -> [calls, seconds]
    grid = defaultdict(lambda: [0, 0.0])         # name -> [points, seconds]
    for s, st, o in zip(spans, self_s, outer):
        name = s[NAME]
        total_self[name] += st
        if o:
            calls[name] += 1
            points[name] += s[N]
        if name in _DELTA_BATCHES:
            bucket = single[name] if s[N] == 1 else grid[name]
            bucket[0] += s[N]
            bucket[1] += s[END] - s[START]

    def per(num, den):
        return num / den if den else 0.0

    side, arc = "delta.side_normalized_batch", "delta.arc_real_batch"
    brackets = points["zeros.count_arc_zeros"] + points["zeros.count_side_zeros"]
    return {
        "eisenstein.hk_batch.calls": (calls["eisenstein.hk_batch"], "count"),
        "eisenstein.hk_batch.points": (points["eisenstein.hk_batch"], "count"),
        "eisenstein.hk_batch.self_s": (total_self["eisenstein.hk_batch"], "s"),
        f"{side}.grid_us_per_point": (1e6 * per(grid[side][1], grid[side][0]), "us"),
        f"{side}.single_calls": (single[side][0], "count"),
        f"{side}.single_us": (1e6 * per(single[side][1], single[side][0]), "us"),
        f"{side}.self_s": (total_self[side], "s"),
        f"{arc}.single_calls": (single[arc][0], "count"),
        f"{arc}.grid_points": (grid[arc][0], "count"),
        f"{arc}.self_s": (total_self[arc], "s"),
        "zeros.brackets": (brackets, "count"),
        "zeros.single_calls_per_bracket": (
            per(single[side][0] + single[arc][0], brackets), "ratio"),
        "eisenstein.fk_batch.calls": (calls["eisenstein.fk_batch"], "count"),
        "eisenstein.fk_batch.points": (points["eisenstein.fk_batch"], "count"),
        "eisenstein.fk_batch.self_s": (total_self["eisenstein.fk_batch"], "s"),
        "zeros.side_upper_cutoff.calls": (calls["zeros.side_upper_cutoff"], "count"),
        "zeros.side_upper_cutoff.self_s": (total_self["zeros.side_upper_cutoff"], "s"),
        "zeros.interior_zero_hunt.self_s": (total_self["zeros.interior_zero_hunt"], "s"),
        "numerics.lc_sum.calls": (calls["numerics.lc_sum"], "count"),
        "numerics.lc_sum.self_s": (total_self["numerics.lc_sum"], "s"),
        "zeros.count_arc_zeros.self_s": (total_self["zeros.count_arc_zeros"], "s"),
        "zeros.count_side_zeros.self_s": (total_self["zeros.count_side_zeros"], "s"),
        "zeros.audit.self_s": (total_self["zeros.audit"], "s"),
        "delta.escalated_calls": (escalated, "count"),
        "eisenstein.eval_ek_lattice.calls": (calls["eisenstein.eval_ek_lattice"], "count"),
        "eisenstein.eval_ek_lattice.self_s": (total_self["eisenstein.eval_ek_lattice"], "s"),
        "eisenstein.eval_ek_fourier.self_s": (total_self["eisenstein.eval_ek_fourier"], "s"),
        "eisenstein.gk.self_s": (total_self["eisenstein.gk"], "s"),
        "eisenstein.gk_fourier.self_s": (total_self["eisenstein.gk_fourier"], "s"),
        "eisenstein.theta_eisenstein_transformed.self_s": (
            total_self["eisenstein.theta_eisenstein_transformed"], "s"),
        "cli.main.self_s": (total_self["cli.main"], "s"),
    }
