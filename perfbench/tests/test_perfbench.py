"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, outermost, self_times  # noqa: E402


def _cli_output(argv):
    from eisenzeros.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue()


# --- tracing leaves output alone -------------------------------------------------

TRACED_ARGV = (
    ("audit", "--k", "40", "--l", "16", "--format", "json"),
    ("eval", "--k", "20", "--z=-0.25+1.5i", "--method", "all", "--format", "json"),
)


def test_traced_output_identical_to_untraced():
    import eisenzeros.zeros as zeros
    plain = [_cli_output(a) for a in TRACED_ARGV]
    original = zeros.side_normalized_batch
    tracer = Tracer()
    with tracer.installed():
        assert zeros.side_normalized_batch is not original
        traced = [_cli_output(a) for a in TRACED_ARGV]
    assert zeros.side_normalized_batch is original
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"zeros.audit", "delta.side_normalized_batch", "eisenstein.hk_batch",
            "eisenstein.eval_ek_lattice", "numerics.lc_sum"} <= names
    m = layer_metrics(tracer.spans, tracer.escalated)
    assert m["eisenstein.eval_ek_lattice.calls"][0] == 1
    assert m["zeros.side_upper_cutoff.calls"][0] == 2
    assert m["zeros.brackets"][0] > 0


def test_checks_accept_real_outputs():
    ref = workloads.load_reference()
    rc, out = _cli_output(("audit", "--k", "40", "--l", "16", "--format", "json"))
    assert workloads.check_audit(rc, out, 40, 16, ref) == 0
    assert workloads.check_audit(rc, out.replace('"A": ', '"A": 1'), 40, 16, ref) == 1
    rc, out = _cli_output(TRACED_ARGV[1])
    assert workloads.check_eval(rc, out) == 0
    assert workloads.check_eval(1, out) == 1


def test_table_check_counts_differing_cells():
    frozen = workloads.load_frozen_tables()
    rows = [{"l": l, "counts": {str(k): c for k, c in zip(frozen["k_values"], row)}}
            for l, row in frozen["tables"][2].items()]
    out = "\n".join(json.dumps(r) for r in rows)
    assert workloads.check_table(0, out, 2, frozen) == 0
    rows[0]["counts"]["56"] += 1
    rows[2]["counts"]["84"] += 1
    out = "\n".join(json.dumps(r) for r in rows)
    assert workloads.check_table(0, out, 2, frozen) == 2
    assert workloads.check_table(1, out, 2, frozen) == 45


# --- inputs ------------------------------------------------------------------------


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        a = [c.argv for c in workloads.make_calls(name, 7)]
        assert a == [c.argv for c in workloads.make_calls(name, 7)]
    assert workloads.census_pairs(7) != workloads.census_pairs(8)
    assert workloads.sample_points(7) != workloads.sample_points(8)
    assert ([c.argv for c in workloads.make_calls("tables", 7)]
            == [c.argv for c in workloads.make_calls("tables", 8)])


def test_census_rounds_are_stratified_samples():
    pairs = workloads.census_pairs(3)
    triangle = workloads.triangle_pairs()
    assert sorted(pairs) == sorted(triangle)
    n_strata = len(triangle) // workloads.CENSUS_BLOCK
    first_round = pairs[:n_strata]
    strata = {triangle.index(p) // workloads.CENSUS_BLOCK for p in first_round}
    assert len(strata) == n_strata


def test_points_have_fixed_composition():
    pts = workloads.sample_points(11, rounds=30)
    ks = [k for k, _, _ in pts]
    assert all(ks.count(k) == 30 for k in workloads.POINT_WEIGHTS)
    assert all(abs(x) <= 0.5 and 1.0 <= y <= 6.0 for _, x, y in pts)


def test_reference_matches_frozen_tables():
    ref = workloads.load_reference()
    frozen = workloads.load_frozen_tables()
    for l, row in frozen["tables"][1].items():
        assert row == tuple(ref[(k, l)][0] for k in frozen["k_values"])
    for l, row in frozen["tables"][2].items():
        assert row == tuple(ref[(k, l)][1] for k in frozen["k_values"])


# --- span arithmetic ------------------------------------------------------------------


def _span(name, start, end, parent=-1, n=0):
    return [name, start, end, parent, 0, n]


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, parent=0),
        _span("c", 2.0, 4.0, parent=0),      # overlaps b: union 1..4
        _span("d", 6.0, 7.0, parent=0),
        _span("e", 6.5, 6.75, parent=3),
        _span("f", 9.5, 12.0, parent=0),     # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.75, 0.25, 2.5])


def test_recursion_counts_outermost_calls_only():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("eisenstein.hk_batch", 1.0, 9.0, parent=0, n=8),
        _span("eisenstein.hk_batch", 1.0, 4.0, parent=1, n=3),
        _span("eisenstein.hk_batch", 5.0, 9.0, parent=1, n=5),
        _span("eisenstein.hk_batch", 9.5, 9.75, parent=0, n=1),
    ]
    assert outermost(spans) == [True, True, False, False, True]
    m = layer_metrics(spans, 0)
    assert m["eisenstein.hk_batch.calls"][0] == 2
    assert m["eisenstein.hk_batch.points"][0] == 9
    # 1 + 3 + 4 + 0.25: recursion adds no time twice
    assert m["eisenstein.hk_batch.self_s"][0] == pytest.approx(8.25)
    assert m["cli.main.self_s"][0] == pytest.approx(10.0 - 8.25)


# --- percentiles -------------------------------------------------------------------


@pytest.mark.parametrize("n, permille", [
    (20, 500), (99, 500), (100, 900), (999, 900), (1000, 990),
    (1029, 990), (9999, 990), (10000, 999),
])
def test_tail_percentile_keeps_ten_items_beyond(n, permille):
    assert workloads.tail_permille(n) == permille
    assert workloads.items_beyond(n, permille) >= 10


def test_tail_percentile_needs_enough_items():
    with pytest.raises(ValueError):
        workloads.tail_permille(19)


def test_nearest_rank():
    values = list(range(1, 101))
    assert workloads.nearest_rank(values, 500) == 50
    assert workloads.nearest_rank(values, 900) == 90
    assert workloads.nearest_rank(reversed(values), 990) == 99
    assert workloads.nearest_rank(list(range(1, 1030)), 990) == 1019
    assert workloads.percentile_label(990) == "p99"
    assert workloads.percentile_label(999) == "p99.9"
