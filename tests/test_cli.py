"""End-to-end checks of the command line interface."""

import concurrent.futures
import csv
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

from eisenzeros import cli
from eisenzeros.cli import main, parse_point


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_rows(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def rejection(capsys, tmp_path, argv):
    """(exit code, stderr) of a configuration that must write nothing: no
    stdout and no --out file.  Of argparse's own rejections only the error
    line is kept, since its usage lines wrap with the terminal width."""
    path = tmp_path / "rejected.out"
    try:
        code = main(argv + ["--out", str(path)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not path.exists()
    err = "".join(line for line in captured.err.splitlines(keepends=True)
                  if not line.startswith(("usage:", " ")))
    return code, err


def scan_argv(k_min, k_max, l_min, l_max):
    return ["scan", "--k-min", str(k_min), "--k-max", str(k_max),
            "--l-min", str(l_min), "--l-max", str(l_max)]


# Rejected configurations, each with the stderr it gives at exit 2.  A
# change to the command line's checks shows here as a moved message.
REJECTIONS = [
    (["eval", "--k", "12", "--z", "2i", "--eps", "1e-20"],
     "error: eps must lie in [1e-15, 1e-06], got 1e-20"),
    (["eval", "--k", "12", "--z", "2i", "--eps", "1e-3"],
     "error: eps must lie in [1e-15, 1e-06], got 0.001"),
    (["eval", "--k", "12", "--z", "2i", "--format", "xml"],
     "eisenzeros eval: error: argument --format: invalid choice: 'xml' "
     "(choose from 'csv', 'json')"),
    (["eval", "--k", "5", "--z", "2i"],
     "error: weight must be even and >= 4, got 5"),
    (["eval", "--k", "12", "--z", "0.5-2i"],
     "error: point must lie in the upper half plane, got '0.5-2i'"),
    (["eval", "--k", "12", "--z", "0.1i"],
     "error: point 0.1j below the supported strip y >= 2^-0.5"),
    (["eval", "--k", "12", "--z", "0.5+0.8i", "--method", "fourier"],
     "error: Fourier route requires y >= 1; use the lattice"),
    (["eval", "--k", "12", "--z", "0.5+0.8i", "--method", "all"],
     "error: Fourier route requires y >= 1; use the lattice"),
    (["eval", "--k", "12", "--z", "6000i"],
     "error: cannot enumerate lattice disk for y=6000.0"),
    (["eval", "--k", "12", "--z", "6000i", "--method", "all"],
     "error: cannot enumerate lattice disk for y=6000.0"),
    # the lattice's largest term, (max(1, |z|) / |z - round(x)|)^k, must
    # stay below e^693.6, or its value or g would print inf or NaN
    (["eval", "--k", "2050", "--z", "0.7072i"],
     "error: weight 2050 too large for the lattice at 0.7072j: the term "
     "(max(1, |z|) / |z - round(x)|)^k passes e^693.6"),
    (["eval", "--k", "5000", "--z", "0.3+0.75i"],
     "error: weight 5000 too large for the lattice at (0.3+0.75j): the term "
     "(max(1, |z|) / |z - round(x)|)^k passes e^693.6"),
    (["eval", "--k", "9000", "--z", "0.6+1i"],
     "error: weight 9000 too large for the lattice at (0.6+1j): the term "
     "(max(1, |z|) / |z - round(x)|)^k passes e^693.6"),
    (["eval", "--k", "1000000", "--z", "0.6+0.7072i"],
     "error: weight 1000000 too large for the lattice at (0.6+0.7072j): the "
     "term (max(1, |z|) / |z - round(x)|)^k passes e^693.6"),
    (["eval", "--k", "402", "--z", "2i", "--method", "fourier"],
     "error: bernoulli requires even k in [2, 400], got 402"),
    (["eval", "--k", "402", "--z", "2i", "--method", "all"],
     "error: bernoulli requires even k in [2, 400], got 402"),
    (["eval", "--k", "12", "--z", "1e-150i", "--method", "theta"],
     "error: point 1e-150j below the supported strip y >= 2^-0.5"),
    (["eval", "--k", "12", "--z", "1e-300i", "--method", "theta"],
     "error: point 1e-300j below the supported strip y >= 2^-0.5"),
    (["eval", "--k", "12", "--z", "0.3+1e-5i", "--method", "theta"],
     "error: point (0.3+1e-05j) below the supported strip y >= 2^-0.5"),
    (["eval", "--k", "12", "--z", "1e10+2i", "--method", "theta"],
     "error: point (10000000000+2j) outside the supported strip |x| <= 3/5"),
    (["eval", "--k", "12", "--z", "0.1i", "--method", "theta"],
     "error: point 0.1j below the supported strip y >= 2^-0.5"),
    (["eval", "--k", "12", "--z", "1.5+2i", "--method", "theta"],
     "error: point (1.5+2j) outside the supported strip |x| <= 3/5"),
    (["eval", "--k", "12", "--z", "1e154i", "--method", "theta"],
     "error: point 1e+154j too high for the theta route: "
     "r = 2 pi y^2 / k overflows"),
    (["eval", "--k", "12", "--z", "1e160i", "--method", "theta"],
     "error: point 1e+160j too high for the theta route: "
     "r = 2 pi y^2 / k overflows"),
    (["eval", "--k", "12", "--z", "1e300i", "--method", "theta"],
     "error: point 1e+300j too high for the theta route: "
     "r = 2 pi y^2 / k overflows"),
    (scan_argv(20, 18, 14, 20), "error: scan needs non-empty weight ranges"),
    (scan_argv(14, 20, 22, 20), "error: scan needs non-empty weight ranges"),
    (scan_argv(15, 15, 14, 20), "error: scan needs non-empty weight ranges"),
    (scan_argv(14, 20, 22, 24),
     "error: weight ranges produce no pairs with k >= l"),
    (scan_argv(2, 4, 14, 20),
     "error: weight ranges produce no pairs with k >= l"),
    (scan_argv(56, 56, 20, 20) + ["--jobs", "0"],
     "error: jobs must be at least 1"),
    (scan_argv(0, 20, 0, 20), "error: weight must be even and >= 4, got 0"),
    (scan_argv(12, 16, 12, 12),
     "error: the census needs k >= l >= 14, got l=12"),
    (scan_argv(202, 202, 200, 200),
     "error: 1 pairs exceed the k + l <= 400 cap, largest (202, 200)"),
    (scan_argv(14, 400, 14, 14),
     "error: 7 pairs exceed the k + l <= 400 cap, largest (400, 14)"),
    (["table", "--which", "1", "--jobs", "0"],
     "error: jobs must be at least 1"),
    (["audit", "--k", "57", "--l", "22"],
     "error: weight must be even and >= 4, got 57"),
    (["audit", "--k", "20", "--l", "22"],
     "error: require k >= l, got k=20 < l=22"),
    (["audit", "--k", "20", "--l", "12"],
     "error: the census needs k >= l >= 14, got l=12"),
    (["audit", "--k", "300", "--l", "150"],
     "error: 1 pairs exceed the k + l <= 400 cap, largest (300, 150)"),
    (["plotdata", "--kind", "zeros", "--k", "20"],
     "error: plotdata --kind zeros requires --k and --l"),
    (["plotdata", "--kind", "zeros", "--k", "20", "--l", "22"],
     "error: require k >= l, got k=20 < l=22"),
    (["plotdata", "--kind", "zeros", "--k", "20", "--l", "12"],
     "error: the census needs k >= l >= 14, got l=12"),
    (["plotdata", "--kind", "zeros", "--k", "300", "--l", "150"],
     "error: 1 pairs exceed the k + l <= 400 cap, largest (300, 150)"),
    (["plotdata", "--kind", "phi", "--r-min", "2", "--r-max", "1"],
     "error: need 0 < r_min < r_max"),
    (["plotdata", "--kind", "phi", "--r-min", "1e-300", "--r-max", "1",
      "--points", "2"],
     "error: phi1(1e-300) needs more than 1000000 terms"),
    (["plotdata", "--kind", "phi", "--r-min", "1", "--r-max", "1e300",
      "--points", "2"],
     "error: phi0(1e+300) needs more than 1000000 terms"),
    (["plotdata", "--kind", "phi", "--r-min", "1", "--r-max", "inf"],
     "error: need a finite r_max"),
    (["plotdata", "--kind", "phi", "--points", "-5"],
     "error: Number of samples, -5, must be non-negative."),
    (["plotdata", "--kind", "regimes", "--points", "-5"],
     "error: Number of samples, -5, must be non-negative."),
    (["plotdata", "--kind", "regimes", "--k", "0"],
     "error: weight must be even and >= 4, got 0"),
    (["plotdata", "--kind", "regimes", "--k", "4"],
     "error: H_k evaluation supports k >= 8"),
    (["plotdata", "--kind", "regimes", "--k", "6"],
     "error: H_k evaluation supports k >= 8"),
    (["plotdata", "--kind", "regimes", "--x", "5"],
     "error: point (5+3.427019268263419j) outside the supported strip "
     "|x| <= 3/5"),
    (["plotdata", "--kind", "regimes", "--x", "nan"],
     "error: point (nan+3.427019268263419j) outside the supported strip "
     "|x| <= 3/5"),
    # every height must be within the lattice's reach, not the lowest alone
    (["plotdata", "--kind", "regimes", "--k", "1000000000"],
     "error: cannot enumerate lattice disk for y=5389.950450961354"),
    (["plotdata", "--kind", "regimes", "--k", "100000000000"],
     "error: cannot enumerate lattice disk for y=8791.602510283536"),
]


def assert_pinned(capsys, tmp_path, argv):
    """argv is a row of REJECTIONS and gives that row's exit 2 and stderr."""
    message = {" ".join(a): m for a, m in REJECTIONS}[" ".join(argv)]
    assert rejection(capsys, tmp_path, argv) == (2, message + "\n")


class TestRunConfig:
    # each subcommand checks its own arguments before any work; these pick
    # out rows of REJECTIONS by the rule they break
    def test_ranges_must_be_nonempty(self, capsys, tmp_path):
        for argv in (scan_argv(20, 18, 14, 20), scan_argv(14, 20, 22, 20),
                     scan_argv(15, 15, 14, 20), scan_argv(14, 20, 22, 24),
                     scan_argv(2, 4, 14, 20)):
            assert_pinned(capsys, tmp_path, argv)

    def test_weights_must_be_even(self, capsys, tmp_path):
        for argv in (["audit", "--k", "57", "--l", "22"],
                     ["eval", "--k", "5", "--z", "2i"],
                     scan_argv(0, 20, 0, 20)):
            assert_pinned(capsys, tmp_path, argv)

    def test_misc_validation(self, capsys, tmp_path):
        for argv in (["eval", "--k", "12", "--z", "2i", "--format", "xml"],
                     scan_argv(56, 56, 20, 20) + ["--jobs", "0"],
                     ["table", "--which", "1", "--jobs", "0"]):
            assert_pinned(capsys, tmp_path, argv)


class TestRejectedConfig:
    def test_every_rejection_pinned(self, capsys, tmp_path, monkeypatch):
        # a rejected configuration does no work, so a missing rule fails
        # here at once instead of running the evaluator or the audit
        def refuse(*args, **kwargs):
            raise AssertionError("work started on a rejected configuration")

        for name in ("_eval_one", "_pair_report", "zero_brackets",
                     "_plot_phi", "_plot_regimes"):
            monkeypatch.setattr(cli, name, refuse)
        got = {" ".join(argv): rejection(capsys, tmp_path, argv)
               for argv, _ in REJECTIONS}
        want = {" ".join(argv): (2, message + "\n")
                for argv, message in REJECTIONS}
        assert got == want

    def test_eps_bounds_enforced(self, capsys):
        # eval's --eps, the only one the CLI takes: both ends of its range
        # are accepted, and values past them are rows of REJECTIONS
        for eps in ("1e-15", "1e-6"):
            assert main(["eval", "--k", "12", "--z", "2i", "--eps", eps]) == 0
            (row,) = json_rows(capsys.readouterr().out)
            assert row["k"] == 12


class TestParsePoint:
    def test_plain_imaginary_unit(self):
        assert parse_point("i") == 1j

    def test_general_points(self):
        assert parse_point("0.5+3i") == 0.5 + 3j
        assert parse_point("2i") == 2j
        assert parse_point("0.5+i") == 0.5 + 1j
        assert parse_point("-0.25+1.5i") == -0.25 + 1.5j
        assert parse_point("0.5+3j") == 0.5 + 3j

    def test_rejects_garbage_and_lower_half(self):
        with pytest.raises(ValueError):
            parse_point("zebra")
        with pytest.raises(ValueError):
            parse_point("0.5-3i")
        with pytest.raises(ValueError):
            parse_point("2.0")


class TestEval:
    def test_weight_six_vanishes_at_i(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval", "--k", "6", "--z", "i"])
        assert rc == 0
        (row,) = json_rows(out)
        assert row["regime"] == "LatticeExact"
        assert abs(complex(row["value_re"], row["value_im"])) < 1e-11
        assert row["envelope"] < 1e-11

    def test_all_methods_agree(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["eval", "--k", "20", "--z", "0.5+3i", "--method", "all"])
        assert rc == 0
        rows = json_rows(out)
        assert [r["method"] for r in rows] == ["lattice", "fourier", "theta", "all"]
        assert rows[-1]["max_pairwise_deviation"] < 1e-8

    def test_theta_envelope_reported(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["eval", "--k", "200", "--z", "0.5+8i", "--method", "theta"])
        assert rc == 0
        (row,) = json_rows(out)
        assert row["regime"] == "ThetaMid"
        assert row["envelope"] == pytest.approx(10.0 * 8.0 / 200.0 ** (2.0 / 3.0))
        assert math.isfinite(row["value_re"])

    def test_csv_format_round_trips(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["eval", "--k", "20", "--z", "0.5+3i", "--format", "csv"])
        assert rc == 0
        (row,) = csv_rows(out)
        rc2, out2, _ = run_cli(capsys, ["eval", "--k", "20", "--z", "0.5+3i"])
        (jrow,) = json_rows(out2)
        assert float(row["value_re"]) == jrow["value_re"]
        assert float(row["g_im"]) == jrow["g_im"]
        assert int(row["schema_version"]) == cli.SCHEMA_VERSION

    def test_negative_real_part_with_equals(self, capsys):
        # "--z -0.3+2i" would be read as a flag; the "=" form passes it
        rc, out, _ = run_cli(
            capsys, ["eval", "--k", "20", "--z=-0.3+2i", "--method", "all"])
        assert rc == 0
        rows = json_rows(out)
        assert all((r["x"], r["y"]) == (-0.3, 2.0) for r in rows)
        lattice, fourier = (complex(r["value_re"], r["value_im"])
                            for r in rows[:2])
        assert abs(lattice - fourier) <= 1e-8 * abs(lattice)

    @pytest.mark.parametrize("z, method", [
        ("nan+2i", "fourier"), ("nan+2i", "theta"),
        ("1e400+2i", "fourier"), ("0.5+1e400i", "lattice")])
    def test_rejects_non_finite_point(self, capsys, z, method):
        rc, out, err = run_cli(
            capsys, ["eval", "--k", "20", f"--z={z}", "--method", method])
        assert rc == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("k, z, method", [
        ("12", "6000i", "fourier"), ("12", "6000i", "theta"),
        ("402", "2i", "lattice"), ("402", "2i", "theta")])
    def test_each_rule_binds_its_own_route(self, capsys, k, z, method):
        # the lattice disk and the Fourier weight cap reject only the
        # routes they belong to
        rc, out, err = run_cli(
            capsys, ["eval", "--k", k, "--z", z, "--method", method])
        assert (rc, err) == (0, "")
        (row,) = json_rows(out)
        assert row["method"] == method
        assert math.isfinite(row["value_re"]) and math.isfinite(row["g_re"])

    def test_lattice_rows_stay_finite_at_any_weight(self, capsys):
        # strip points against weights up to 1e6: each configuration the
        # term rule accepts prints finite numbers, with no overflow warning
        # on the way (the suite fails on any); the rule first binds past
        # k = 2,000, at y = 2^-0.5, and never where |z| >= 1 >= 2 |x|
        fields = ("value_re", "value_im", "g_re", "g_im", "envelope")
        accepted, rejected = set(), set()
        for k in (400, 2000, 2002, 2004, 2040, 2050, 5000, 9000, 10 ** 5,
                  10 ** 6):
            for x in (-0.6, -0.5, 0.0, 0.3, 0.5, 0.55, 0.6):
                for y in (0.7072, 0.75, 0.9, 1.0, 1.5):
                    rc, out, err = run_cli(
                        capsys, ["eval", "--k", str(k), f"--z={x}+{y}i"])
                    if rc == 2:
                        assert "too large for the lattice" in err
                        rejected.add(k)
                        continue
                    (row,) = json_rows(out)
                    assert (rc, err) == (0, "")
                    assert all(math.isfinite(row[f]) for f in fields), row
                    accepted.add((k, x, y))
        assert min(rejected) == 2004
        assert {(10 ** 6, x, y) for x in (-0.5, 0.0, 0.3, 0.5)
                for y in (1.0, 1.5)} <= accepted

    def test_theta_keeps_the_weight_rule(self, capsys):
        rc, out, err = run_cli(
            capsys, ["eval", "--k", "5", "--z", "2i", "--method", "theta"])
        assert rc == 2
        assert out == ""
        assert err == "error: weight must be even and >= 4, got 5\n"

    def test_rejects_bad_eps(self, capsys):
        rc, _, err = run_cli(
            capsys, ["eval", "--k", "6", "--z", "i", "--eps", "1e-20"])
        assert rc == 2
        assert "eps" in err


class TestTable:
    def test_arc_counts_match(self, capsys):
        rc, out, err = run_cli(capsys, ["table", "--which", "1"])
        assert rc == 0
        assert err == ""
        rows = {int(r["l"]): r for r in csv_rows(out)}
        assert set(rows) == {20, 22, 24}
        assert int(rows[20]["56"]) == 3

    def test_side_counts_match(self, capsys):
        rc, out, _ = run_cli(capsys, ["table", "--which", "2", "--format", "json"])
        assert rc == 0
        rows = {r["l"]: r for r in json_rows(out)}
        assert rows[24]["counts"]["84"] == 3
        assert rows[22]["counts"]["58"] == 2

    def test_arc_surplus_match(self, capsys):
        rc, out, _ = run_cli(capsys, ["table", "--which", "3"])
        assert rc == 0
        rows = {int(r["l"]): r for r in csv_rows(out)}
        assert int(rows[22]["58"]) == 1
        assert int(rows[20]["58"]) == 0

    def test_mismatch_fails_with_diff(self, capsys, monkeypatch):
        wrong = (9,) + cli.ARC_COUNT_TABLE[20][1:]
        monkeypatch.setitem(cli.ARC_COUNT_TABLE, 20, wrong)
        rc, _, err = run_cli(capsys, ["table", "--which", "1"])
        assert rc == 1
        assert "l=20 k=56: got 3, expected 9" in err


class TestScan:
    def test_side_count_stabilizes(self, capsys):
        rc, out, err = run_cli(capsys, [
            "scan", "--l-min", "22", "--l-max", "22",
            "--k-min", "58", "--k-max", "82"])
        assert rc == 0
        rows = json_rows(out)
        summary = rows[-1]
        assert summary["pairs"] == 13
        assert summary["valence_failures"] == 0
        assert summary["count_mismatches"] == 0
        assert summary["interior_reports"] == 0
        by_k = {r["k"]: r for r in rows[:-1]}
        assert by_k[58]["B"] == 2
        assert by_k[70]["B"] == 2
        assert by_k[82]["B"] == 3
        assert "0 valence failures" in err

    def test_first_arc_zero_appears_eight_past_the_diagonal(self, capsys):
        rc, out, _ = run_cli(capsys, [
            "scan", "--l-min", "40", "--l-max", "40",
            "--k-min", "48", "--k-max", "48"])
        assert rc == 0
        row = json_rows(out)[0]
        assert row["A"] == 1 and row["valence_ok"]

    def test_weight_sum_cap(self, capsys):
        rc, _, err = run_cli(capsys, [
            "scan", "--l-min", "200", "--l-max", "200",
            "--k-min", "202", "--k-max", "202"])
        assert rc == 2
        assert "cap" in err

    def test_csv_rows_parse(self, capsys):
        rc, out, _ = run_cli(capsys, [
            "scan", "--l-min", "20", "--l-max", "20",
            "--k-min", "56", "--k-max", "60", "--format", "csv"])
        assert rc == 0
        rows = csv_rows(out)
        assert len(rows) == 3
        assert all(r["valence_ok"] == "1" for r in rows)
        assert [int(r["A"]) for r in rows] == [3, 3, 3]


class TestAudit:
    def test_reversed_weights_reported_in_band(self, capsys, tmp_path):
        # k < l is a rejected configuration under the pair rule scan and
        # plotdata share: exit 2 on stderr, no row and no --out file
        assert_pinned(capsys, tmp_path, ["audit", "--k", "20", "--l", "22"])

    def test_clean_pair(self, capsys):
        rc, out, _ = run_cli(capsys, ["audit", "--k", "82", "--l", "22"])
        assert rc == 0
        (row,) = json_rows(out)
        assert (row["A"], row["B"]) == (4, 3)
        assert row["valence_ok"] and row["findings"] == []
        assert row["interior"] == []

    def test_small_gap_pair(self, capsys):
        rc, out, _ = run_cli(capsys, ["audit", "--k", "26", "--l", "18"])
        assert rc == 0
        (row,) = json_rows(out)
        assert row["A"] + row["B"] == 2

    def test_weight_sum_cap(self, capsys):
        # a rejected configuration, like scan's, not a failed check
        rc, out, err = run_cli(capsys, ["audit", "--k", "300", "--l", "150"])
        assert rc == 2
        assert out == ""
        assert "k + l <= 400 cap" in err and "bernoulli" not in err

    @pytest.mark.parametrize("argv", [
        ["audit", "--k", "40", "--l", "16"],
        ["eval", "--k", "12", "--z", "2i"],
        ["scan", "--k-min", "40", "--k-max", "44", "--l-min", "16",
         "--l-max", "16"],
        ["plotdata", "--kind", "zeros", "--k", "40", "--l", "16"],
    ])
    def test_unopenable_out_is_a_rejected_configuration(
            self, capsys, tmp_path, monkeypatch, argv):
        # --out is opened before any work starts
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was opened")

        for name in ("_pair_report", "_eval_one", "zero_brackets"):
            monkeypatch.setattr(cli, name, refuse)
        path = tmp_path / "missing" / "x.json"
        rc, out, err = run_cli(capsys, argv + ["--out", str(path)])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("argv", [
        ["scan", "--k-min", "12", "--k-max", "16", "--l-min", "12",
         "--l-max", "12"],
        ["audit", "--k", "20", "--l", "12"],
        ["plotdata", "--kind", "zeros", "--k", "20", "--l", "12"],
    ])
    def test_census_rule_is_a_rejected_configuration(
            self, capsys, tmp_path, monkeypatch, argv):
        # l < 14 is rejected with the whole configuration: no row, no work
        # and no --out file
        def refuse(*args, **kwargs):
            raise AssertionError("work started on a rejected configuration")

        for name in ("_pair_report", "zero_brackets"):
            monkeypatch.setattr(cli, name, refuse)
        path = tmp_path / "x.out"
        rc, out, err = run_cli(capsys, argv + ["--out", str(path)])
        assert (rc, out) == (2, "")
        assert err == "error: the census needs k >= l >= 14, got l=12\n"
        assert not path.exists()


class TestPlotdata:
    def test_zeros_weight_sum_cap(self, capsys):
        rc, out, err = run_cli(capsys, ["plotdata", "--kind", "zeros",
                                        "--k", "300", "--l", "150"])
        assert rc == 2
        assert out == ""
        assert "k + l <= 400 cap" in err and "bernoulli" not in err

    def test_phi_monotone(self, capsys):
        rc, out, _ = run_cli(capsys, ["plotdata", "--kind", "phi", "--points", "16"])
        assert rc == 0
        rows = csv_rows(out)
        assert len(rows) == 16
        phi0_vals = [float(r["phi0"]) for r in rows]
        phi1_vals = [float(r["phi1"]) for r in rows]
        assert all(a < b for a, b in zip(phi0_vals, phi0_vals[1:]))
        assert all(a > b for a, b in zip(phi1_vals, phi1_vals[1:]))

    def test_zero_positions(self, capsys):
        rc, out, _ = run_cli(capsys, ["plotdata", "--kind", "zeros",
                                      "--k", "56", "--l", "20"])
        assert rc == 0
        rows = csv_rows(out)
        kinds = [r["kind"] for r in rows]
        assert kinds == ["arc"] * 3 + ["side"] * 2
        for r in rows:
            lo, hi, mid = float(r["lo"]), float(r["hi"]), float(r["location"])
            assert lo < mid < hi
            if r["kind"] == "arc":
                assert math.pi / 3 < mid < math.pi / 2
            else:
                assert mid > math.sqrt(3.0) / 2.0

    def test_zeros_needs_weights(self, capsys):
        rc, _, err = run_cli(capsys, ["plotdata", "--kind", "zeros"])
        assert rc == 2
        assert "--k" in err

    def test_regimes_rejects_zero_weight(self, capsys):
        # --k 0 is a weight, not "use the default"
        rc, out, err = run_cli(capsys, ["plotdata", "--kind", "regimes",
                                        "--k", "0", "--points", "2"])
        assert rc == 2
        assert out == ""
        assert "weight must be even" in err

    def test_regime_errors_ordered_below_boundary(self, capsys):
        rc, out, _ = run_cli(capsys, ["plotdata", "--kind", "regimes", "--k", "300"])
        assert rc == 0
        rows = csv_rows(out)
        boundary = 300.0 ** 0.4
        below = [r for r in rows if float(r["y"]) < boundary]
        assert len(below) >= 8
        for r in below:
            assert float(r["err_small_y"]) < float(r["err_theta_mid"])
        for r in rows:
            assert float(r["err_theta_mid"]) < float(r["bound_theta_mid"])


# plotdata --kind zeros brackets (kind, lo, hi), exact to the last bit:
# (98, 72) and (98, 94) each hold a side bracket whose chord probes near
# the zero stay ambiguous, so it narrows on an even split; (98, 94) is
# also the pair where a change of summation order once moved brackets at
# the rounding level, (56, 20) the README example, (100, 66) an arc
# bracket near a float sign that is wrong: at 1.3859967644061575 the arc
# value reads +2.2e-16 against a bound of 3.9e-19, where a 120-digit
# q-series gives -8.5e-16.  Refinement from the comb cell does not probe
# that point, and tests/test_oracle.py checks the signs at both ends of
# every pinned bracket against the q-series.
# Honest rounding bounds and batch-invariant evaluators may move these;
# update the pins once, listing every move.
PINNED_BRACKETS = {
    (98, 72): [
        ("arc", 1.329135367409011, 1.32913536740989),
        ("side", 0.8776363460687295, 0.8776363460694141),
        ("side", 1.0148142027501739, 1.014814202750987),
        ("side", 1.1364867877525557, 1.136486787753537),
        ("side", 1.2857505290123021, 1.2857505290129083),
        ("side", 1.4729519549434729, 1.4729519549442442),
        ("side", 1.715422264713786, 1.7154222647142956),
        ("side", 2.0433313412534613, 2.043331341254169),
        ("side", 2.5136632737640445, 2.5136632737645725),
        ("side", 3.2491917700011523, 3.2491917700020276),
        ("side", 4.581718945206508, 4.581718945207379),
        ("side", 7.832563805204709, 7.832563805204836),
    ],
    (98, 94): [
        ("side", 0.8983846208998657, 0.898384620900536),
        ("side", 0.9676014527793172, 0.967601452779878),
        ("side", 1.0474421476754197, 1.04744214767606),
        ("side", 1.1396540662218833, 1.139654066222623),
        ("side", 1.247405045013489, 1.2474050450143555),
        ("side", 1.3750819634927725, 1.375081963493288),
        ("side", 1.5289426518892066, 1.5289426518898321),
        ("side", 1.7182093084406627, 1.7182093084414392),
        ("side", 1.9570292349474365, 1.9570292349484288),
        ("side", 2.2682438700641807, 2.268243870064839),
        ("side", 2.691273020924572, 2.6912730209254896),
        ("side", 3.3006131923721624, 3.3006131923728477),
        ("side", 4.258226824046375, 4.258226824046944),
        ("side", 6.001646112977352, 6.0016461129779195),
        ("side", 10.259600144139124, 10.259600144139455),
    ],
    (56, 20): [
        ("arc", 1.1440439092743486, 1.1440439092749828),
        ("arc", 1.3084617538021828, 1.3084617538028178),
        ("arc", 1.4834079124714572, 1.4834079124720914),
        ("side", 1.2070772885289203, 1.2070772885294272),
        ("side", 2.0953615555742866, 2.095361555574894),
    ],
    (100, 66): [
        ("arc", 1.201214016593418, 1.2012140165940903),
        ("arc", 1.3859967644058089, 1.3859967644064812),
        ("side", 0.9214825071515591, 0.9214825071523116),
        ("side", 1.0291624613645576, 1.0291624613654669),
        ("side", 1.1675971970373635, 1.1675971970379242),
        ("side", 1.3405520110832194, 1.3405520110839313),
        ("side", 1.5641361434262597, 1.564136143427199),
        ("side", 1.8660254647479784, 1.8660254647486298),
        ("side", 2.2984572312752958, 2.2984572312762657),
        ("side", 2.9737149607486146, 2.973714960749418),
        ("side", 4.194490082373137, 4.194490082373937),
        ("side", 7.170657003756382, 7.170657003757312),
    ],
}

# sha256 of the whole stdout of plotdata --kind zeros --format json, so
# that a change of any byte (field order, float format, row order) shows;
# (250, 150) and (200, 200) sit at the k + l = 400 cap
PINNED_PLOTDATA_SHA256 = {
    (200, 200): "e402763a5f0f8da0dd7b66d64a5e51df"
                "ab9e1d7658d754d547c891a85637d6ae",
    (250, 150): "1220d03624e051801b5da465c7868b9b"
                "113b4c772d797c488ac9936c50f459b7",
    (56, 20): "eebbe7afefe6d3010e42ed3d66895cb0"
              "19be4578735d2b0a4a3f9d1eb062c431",
    (98, 72): "e64a04183c547066136210a745453d43"
              "ec34209676a0e84ce68b8413cb15ac08",
    (100, 66): "7f59b0ffabc41fb4d7e385e9c4be6298"
               "29c0d4041cfef5bdb3a9ed86817b6b27",
}
# the same for plotdata --kind phi and --kind regimes at their defaults
PINNED_SERIES_SHA256 = {
    ("phi", "csv"): "00c36baf4c830fa8d7bcfbe48e1c677f"
                    "2b0fb1ddafd762b9ce02ea8f68ba94fe",
    ("phi", "json"): "c0e34cdcebd63dde6d0bb79ad5be1ba9"
                     "0f164a2364d1d4ddd11b40e7c6e6a0cf",
    ("regimes", "csv"): "8b1a8e4576cf74b97644780d184eaa8a"
                        "5a139ee1352bc0979fa7bb3c425d295a",
    ("regimes", "json"): "8c264a7183b55e4bed53521dc78cb01c"
                         "0df766de012eb5c031682d0b0201f7a1",
}


# eval --method lattice at parameters that cover the multi-block disks
# (k = 4, 6), numpy's squaring and the squared powers above it (k = 100,
# 150, 200), and the exactly real and exactly zero values at i:
# (value_re, value_im, g_re, g_im, envelope)
PINNED_EVAL = {
    (4, "i"): (
        1.455762892268214, 3.2643025270678983e-19,
        0.455762892268214, 3.2643025270678983e-19,
        2.564692460946673e-06),
    (4, "0.5+3i"): (
        0.9999984370215832, 1.961381240429463e-18,
        -0.00010559872928511793, 8.205636688226532e-05,
        2.849658289940751e-07),
    (4, "-0.3+2i"): (
        0.9997413432154323, -0.0007959828811422228,
        0.0038875983382664807, -0.01345008580272903,
        6.411731152366682e-07),
    (6, "i"): (
        0.0, 1.3564317964391915e-18,
        1.0, -1.3564317964391915e-18,
        8.036112315069184e-13),
    (6, "0.5+3i"): (
        1.000003282255011, -4.575194000694036e-20,
        -0.0014234216848027894, 0.002173057958150446,
        7.999999999999987e-13),
    (6, "-0.3+2i"): (
        1.0005432982553153, 0.0016714775799191056,
        0.0658055728312968, -0.1006445426055789,
        7.999999999999987e-13),
    (100, "i"): (
        1.9999999999999982, 0.0,
        0.9999999999999982, 9.821933618642342e-16,
        1.126888303703204e-29),
    (100, "0.5+3i"): (
        1.0, -2.74405481490874e-70,
        0.9570570091026696, -0.9991339457860166,
        4.3229125916582683e-60),
    (100, "-0.3+2i"): (
        1.0, -1.875201572622143e-31,
        0.9987028356129712, -0.0093257590145841,
        1.5054091489027549e-47),
    (150, "i"): (
        0.0, 0.0,
        1.0, -1.273756467240565e-14,
        9.891572615377863e-45),
    (150, "0.5+3i"): (
        1.0, 2.163570664226414e-96,
        1.75122640115471, 0.6600456990706325,
        2.01451041619784e-90),
    (150, "-0.3+2i"): (
        1.0, -4.43581581942457e-47,
        0.999234820891891, -0.0004992284792418311,
        1.429297161665382e-71),
    (200, "i"): (
        2.0, 0.0,
        1.0, 1.964386723728472e-15,
        8.712232530183418e-60),
    (200, "0.5+3i"): (
        1.0, -9.930542206301687e-123,
        0.0036978896695328083, 0.08591917668699815,
        9.419811727152508e-121),
    (200, "-0.3+2i"): (
        1.0, 6.708908095674772e-62,
        0.9999147117207878, 2.4194668172328182e-05,
        1.3616646215703581e-95),
}


# sha256 of the whole stdout of the counting commands in JSON: a scan of
# the block 20 <= l <= 30, 56 <= k <= 66 and the three frozen tables
PINNED_SCAN_SHA256 = ("66745b4faa1b2d7d075ae247629d1176"
                      "60b0236baac6eb63d4460b3af7fe972f")
PINNED_TABLE_SHA256 = {
    1: "17dee92ca7eeb6ae679482c1c6f4e93c1ce61bd6c663a6b379c0823086e0ec57",
    2: "da00b4c4ac84798da9bbf84ba2db08ec9fb5907e17f41cc6392cea0d8d886936",
    3: "f8847a49fb5c102d2cdffccb7dac7bc5ff48c4307d9c0c866cfb1babab18823f",
}


class TestDeterminism:
    def test_scan_bytes_pinned(self, capsys):
        rc, out, err = run_cli(capsys, ["scan", "--l-min", "20",
                                        "--l-max", "30", "--k-min", "56",
                                        "--k-max", "66", "--format", "json"])
        assert rc == 0
        assert err == ("scan: 36 pairs, 0 valence failures, 0 count "
                       "mismatches, 0 interior reports, 0 errors\n")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN_SHA256

    @pytest.mark.parametrize("which", sorted(PINNED_TABLE_SHA256))
    def test_table_bytes_pinned(self, capsys, which):
        rc, out, err = run_cli(capsys, ["table", "--which", str(which),
                                        "--format", "json"])
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() \
            == PINNED_TABLE_SHA256[which]

    @pytest.mark.parametrize("k, z", sorted(PINNED_EVAL))
    def test_eval_bytes_pinned(self, capsys, k, z):
        rc, out, _ = run_cli(capsys, ["eval", "--k", str(k), f"--z={z}",
                                      "--method", "lattice",
                                      "--format", "json"])
        assert rc == 0
        (row,) = json_rows(out)
        got = tuple(row[f] for f in
                    ("value_re", "value_im", "g_re", "g_im", "envelope"))
        # repr tells -0.0 from 0.0
        assert repr(got) == repr(PINNED_EVAL[k, z])

    @pytest.mark.parametrize("pair", sorted(PINNED_BRACKETS))
    def test_bracket_bytes_pinned(self, capsys, pair):
        rc, out, _ = run_cli(capsys, ["plotdata", "--kind", "zeros",
                                      "--k", str(pair[0]), "--l", str(pair[1]),
                                      "--format", "json"])
        assert rc == 0
        rows = json_rows(out)
        assert [(r["kind"], r["lo"], r["hi"]) for r in rows] \
            == PINNED_BRACKETS[pair]
        assert all(r["location"] == 0.5 * (r["lo"] + r["hi"]) for r in rows)

    @pytest.mark.parametrize("pair", sorted(PINNED_PLOTDATA_SHA256))
    def test_plotdata_zeros_bytes_pinned(self, capsys, pair):
        rc, out, err = run_cli(capsys, ["plotdata", "--kind", "zeros",
                                        "--k", str(pair[0]),
                                        "--l", str(pair[1]),
                                        "--format", "json"])
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() \
            == PINNED_PLOTDATA_SHA256[pair]

    @pytest.mark.parametrize("kind, fmt", sorted(PINNED_SERIES_SHA256))
    def test_plotdata_series_bytes_pinned(self, capsys, kind, fmt):
        rc, out, err = run_cli(capsys, ["plotdata", "--kind", kind,
                                        "--format", fmt])
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() \
            == PINNED_SERIES_SHA256[kind, fmt]

    def test_parallel_scan_is_byte_identical(self, tmp_path):
        argv = ["scan", "--l-min", "20", "--l-max", "22",
                "--k-min", "56", "--k-max", "62"]
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(argv + ["--out", str(p1)]) == 0
        assert main(argv + ["--jobs", "3", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_pool_never_larger_than_the_task_list(self, capsys, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                assert chunksize >= 1
                return map(fn, tasks)

        argv = ["scan", "--k-min", "28", "--k-max", "32", "--l-min", "28",
                "--l-max", "28"]
        rc, serial, _ = run_cli(capsys, argv)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        rc2, pooled, _ = run_cli(capsys, argv + ["--jobs", "500"])
        assert rc == rc2 == 0
        assert sizes == [3]
        assert pooled == serial

    def test_json_rows_are_canonical(self, capsys):
        # each JSON-writing subcommand dumps its rows as built: sorted keys,
        # and no null field
        for argv in (
                ["audit", "--k", "56", "--l", "20"],
                ["eval", "--k", "20", "--z", "0.5+3i", "--method", "all"],
                scan_argv(56, 60, 20, 22),
                ["table", "--which", "3", "--format", "json"],
                ["plotdata", "--kind", "phi", "--format", "json"],
                ["plotdata", "--kind", "zeros", "--k", "56", "--l", "20",
                 "--format", "json"],
                ["plotdata", "--kind", "regimes", "--points", "5",
                 "--format", "json"]):
            rc, out, _ = run_cli(capsys, argv)
            assert rc == 0
            lines = out.splitlines()
            assert lines
            for line in lines:
                row = json.loads(line)
                assert json.dumps(row, sort_keys=True) == line
                assert None not in row.values()

    def test_csv_matches_json_exactly(self, capsys):
        args = ["plotdata", "--kind", "zeros", "--k", "56", "--l", "20"]
        rc, out_csv, _ = run_cli(capsys, args)
        rc2, out_json, _ = run_cli(capsys, args + ["--format", "json"])
        assert rc == rc2 == 0
        crows = csv_rows(out_csv)
        jrows = json_rows(out_json)
        assert len(crows) == len(jrows)
        for c, j in zip(crows, jrows):
            assert float(c["location"]) == j["location"]
            assert float(c["lo"]) == j["lo"]
            assert float(c["hi"]) == j["hi"]


def after_cli_import(expr):
    """What expr prints in a fresh interpreter that imported the CLI."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = f"import sys, eisenzeros.cli; print({expr})"
    return subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src)).stdout.strip()


def test_cli_import_leaves_the_pool_out():
    # --jobs 1 never needs a process pool, so starting the CLI must not
    # pay for importing one
    assert after_cli_import(
        "sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules)") == "[]"


def test_cli_import_fills_no_numeric_cache():
    # every run pays for its start-up, so numeric work stays out of import
    assert after_cli_import(
        "sys.modules['eisenzeros.zeros']._side_upper_cutoff.cache_info()"
        ".currsize, len(sys.modules['eisenzeros.numerics']._bernoulli_cache)"
    ) == "0 0"


_ONE_PAIR_SCAN = ["scan", "--k-min", "56", "--k-max", "56",
                  "--l-min", "20", "--l-max", "20"]


@pytest.mark.parametrize("argv", [
    ["audit", "--k", "40", "--l", "16", "--oversample", "1"],
    _ONE_PAIR_SCAN + ["--oversample", "2"],
    _ONE_PAIR_SCAN + ["--no-hunt"],
    ["audit", "--k", "40", "--l", "16", "--eps", "1e-12"],
    _ONE_PAIR_SCAN + ["--eps", "1e-12"],
    ["table", "--which", "1", "--eps", "1e-12"],
    ["plotdata", "--kind", "zeros", "--k", "56", "--l", "20",
     "--eps", "1e-12"],
])
def test_counting_flags_are_unknown(capsys, argv):
    # the scan ends and the precision ladder follow from (k, l) alone, so
    # no flag moves them
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("module", [
    "eisenzeros", "eisenzeros.numerics", "eisenzeros.eisenstein",
    "eisenzeros.delta", "eisenzeros.zeros", "eisenzeros.cli",
])
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
