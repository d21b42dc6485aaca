"""Tests for boundary zero counting, predictions, sign certification, and
the audit."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros import cli, zeros
from eisenzeros.delta import (WeightPair, arc_real_batch, m_main, p_main,
                              side_normalized_batch)
from eisenzeros.numerics import bernoulli
from eisenzeros.zeros import (DominanceCertificateError, PredictedCounts,
                              SignUncertainError, ZeroBracket, _certify_grid,
                              _delta_log_coeffs, _refine_bracket,
                              _refine_brackets,
                              arc_sample_points, audit, count_arc_zeros,
                              count_side_zeros, expected_boundary_counts,
                              interior_zero_hunt, predicted_counts,
                              side_sample_points, side_upper_cutoff,
                              stabilization_point, trivial_orders,
                              zero_brackets)

even_l = st.integers(min_value=7, max_value=50).map(lambda t: 2 * t)
small_n = st.integers(min_value=0, max_value=6)
even_j = st.sampled_from([0, 2, 4, 6, 8, 10])


def make_pair(l, n, j):
    return WeightPair(l + 12 * n + j, l)


class TestSampleCombs:
    def test_arc_counts(self):
        assert len(arc_sample_points((56, 20))) == 3
        assert len(arc_sample_points((64, 20))) == 4

    def test_arc_empty_for_equal_weights(self):
        assert arc_sample_points((20, 20)) == []

    @given(even_l, small_n, even_j)
    @settings(max_examples=60, deadline=None)
    def test_arc_comb_shape(self, l, n, j):
        wp = make_pair(l, n, j)
        if wp.k == wp.l:
            return
        pts = arc_sample_points(wp)
        expect = n if j in (0, 2, 6) else n + 1
        assert len(pts) == expect
        for th in pts:
            assert math.pi / 3 < th <= math.pi / 2 + 1e-15
        assert all(b > a for a, b in zip(pts, pts[1:]))

    def test_side_counts(self):
        assert len(side_sample_points(24)) == 3  # d in 1..q-1, q = 4
        assert len(side_sample_points(20)) == 3  # d in 1..q, q = 3
        assert len(side_sample_points(22)) == 3  # d in 2..q+1, q = 3
        with pytest.raises(ValueError):
            side_sample_points(12)

    @given(even_l)
    @settings(max_examples=40, deadline=None)
    def test_side_comb_in_open_interval(self, l):
        for th in side_sample_points(l):
            assert math.pi / 3 < th < math.pi / 2

    @given(even_l, small_n, even_j)
    @settings(max_examples=40, deadline=None)
    def test_arc_alternation_bound(self, l, n, j):
        wp = make_pair(l, n, j)
        floor = {0: 1.5, 2: 0.8, 4: 0.31}[l % 6]
        for m, th in zip(range((12 * n + j) // 6 + 1, 10 ** 9),
                         arc_sample_points(wp)):
            assert (-1) ** m * m_main(wp, th) >= floor

    @given(even_l, small_n, even_j)
    @settings(max_examples=40, deadline=None)
    def test_side_alternation_bound(self, l, n, j):
        wp = make_pair(l, n, j)
        q, a = divmod(l, 6)
        d0 = 1 if a in (0, 2) else 2
        for d, th in zip(range(d0, 10 ** 9), side_sample_points(l)):
            assert (-1) ** d * p_main(wp, th) >= 0.17


class TestPredictedCounts:
    def test_stabilization_examples(self):
        assert math.ceil(stabilization_point(42, 2)) == 57
        assert math.ceil(stabilization_point(22, 0)) == 81
        assert stabilization_point(20, 6) == 20.0

    def test_n_prime_example(self):
        pc = predicted_counts((58, 22))
        assert pc.N_prime == 2
        assert pc.sp == stabilization_point(22, 0)

    @given(even_l, small_n, even_j)
    @settings(max_examples=80, deadline=None)
    def test_count_sandwich(self, l, n, j):
        pc = predicted_counts(make_pair(l, n, j))
        assert pc.N <= pc.N_prime <= pc.N + 1
        assert pc.T <= pc.T_prime
        assert pc.sp >= l

    @given(even_l, small_n, even_j)
    @settings(max_examples=80, deadline=None)
    def test_expected_counts_sum_to_total(self, l, n, j):
        wp = make_pair(l, n, j)
        pc = predicted_counts(wp)
        a, b = expected_boundary_counts(wp, pc)
        assert a + b == pc.total_nontrivial

    def test_trivial_orders_table(self):
        assert trivial_orders(24) == (0, 0)
        assert trivial_orders(26) == (1, 2)
        assert trivial_orders(28) == (0, 1)
        assert trivial_orders(30) == (1, 0)
        assert trivial_orders(32) == (0, 2)
        assert trivial_orders(34) == (1, 1)
        with pytest.raises(ValueError):
            trivial_orders(21)
        with pytest.raises(ValueError):
            trivial_orders(14)

    @given(st.integers(min_value=8, max_value=200).map(lambda t: 2 * t))
    @settings(max_examples=60, deadline=None)
    def test_trivial_orders_make_count_integral(self, w):
        v_i, v_rho = trivial_orders(w)
        # w/12 - v_i/2 - v_rho/3 must be an integer
        assert (w - 6 * v_i - 4 * v_rho) % 12 == 0

    def test_order_probe_at_rho(self):
        # total weight 20 forces a double zero at rho and none at i; the
        # one-sided log2 ratio of the arc restriction estimates the order
        wp = WeightPair(16, 4)
        assert trivial_orders(20) == (0, 2)
        h = 1e-3
        f1 = arc_real_batch(wp, np.array([math.pi / 3 + h]))[0][0]
        f2 = arc_real_batch(wp, np.array([math.pi / 3 + 2 * h]))[0][0]
        order = math.log2(abs(f2 / f1))
        assert abs(order - 2) < 0.05
        assert abs(arc_real_batch(wp, np.array([math.pi / 2]))[0][0]) > 0.5


def constant_batch(value, bound):
    """Batch evaluator returning value everywhere with error bound(eps)."""
    def ev(xs, eps):
        n = len(xs)
        return np.full(n, value), np.full(n, bound(eps))
    return ev


class TestCountSignChanges:
    # the scans count sign changes of the signs _certify_grid certifies

    def test_uncertain_raises_with_count(self):
        # never certifiable: escalation and all three nudges fail at every
        # point, and one error reports all of them
        ev = constant_batch(5e-14, lambda eps: max(eps, 1e-13))
        with pytest.raises(SignUncertainError) as info:
            _certify_grid(ev, np.array([0.0, 1.0, 2.0]), 1e-12)
        assert info.value.uncertain == 3
        assert info.value.points == (0.0, 1.0, 2.0)

    def test_escalation_resolves(self):
        # uncertain at 1e-12 and 1e-14, certified positive at 1e-15, where
        # only the still-ambiguous points are evaluated again
        batches = []

        def ev(xs, eps):
            batches.append((len(xs), eps))
            vals = np.where(np.asarray(xs) == 0.0, 5e-14, 1.0)
            return vals, np.full(len(xs), eps)

        grid, vals = _certify_grid(ev, np.array([0.0, 1.0, 2.0]), 1e-12)
        assert grid.tolist() == [0.0, 1.0, 2.0]
        assert vals.tolist() == [5e-14, 1.0, 1.0]
        assert batches == [(3, 1e-12), (1, 1e-14), (1, 1e-15)]

    def test_escalation_certifies_each_point_alone(self):
        # a batch reports its largest bound, as hk_batch does: 0.0 is
        # ambiguous on every rung, 1.0 and 2.0 certify at 1e-14 alone but
        # not beside 0.0, so only 0.0 is nudged
        def ev(xs, eps):
            xs = np.asarray(xs)
            own = np.where(xs == 0.0, 1.0, eps)
            return np.full(xs.shape, 1e-12), np.full(xs.shape, own.max())

        grid, vals = _certify_grid(ev, np.array([0.0, 1.0, 2.0]), 1e-12)
        assert grid.tolist() == [0.305, 1.0, 2.0]
        assert vals.tolist() == [1e-12] * 3


    def test_sub_grid_nudge_uses_dense_gaps(self):
        # uncertain exactly at 3.0: the nudge there is 0.61 of half the
        # smaller dense gap (2.0), as in the dense scan, not of the
        # sub-grid's gaps (3.0 and 7.0)
        def ev(xs, eps):
            xs = np.asarray(xs)
            return np.ones(xs.shape), np.where(xs == 3.0, 1.0, 1e-3)

        grid = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
        at = np.array([0, 2, 4])
        dense, _ = _certify_grid(ev, grid, 1e-12)
        sub, vals = _certify_grid(ev, grid, 1e-12, at)
        assert dense.tolist() == [0.0, 1.0, 3.61, 6.0, 10.0]
        assert sub.tolist() == dense[at].tolist()
        assert vals.tolist() == [1.0, 1.0, 1.0]


def sequential_brackets(ev, kind, cells, eps):
    """One-at-a-time bisection of cells (lo, hi, v_lo, v_hi), which
    needs only the signs of the end values."""
    return [_refine_bracket(ev, kind, lo, hi, int(np.sign(v_lo)),
                            int(np.sign(v_hi)), eps)
            for lo, hi, v_lo, v_hi in cells]


class TestRefinement:
    # _refine_brackets bisects all cells together and must land on the
    # brackets one-at-a-time bisection finds

    def test_batched_matches_sequential_through_escalation(self):
        # x - root with a bound that hides the sign within 100 eps of the
        # root, so the last steps escalate and some end on the sidestep
        # path; the root at 0.5 sits on its cell's first midpoint
        roots = [0.1234567890123, 0.5, 0.75 + 1e-13, 0.9]
        calls = []

        def ev(xs, eps):
            calls.append(len(xs))
            xs = np.asarray(xs)
            nearest = np.array([min(roots, key=lambda r: abs(x - r))
                                for x in xs])
            return xs - nearest, np.full(xs.shape, 10.0 * eps)

        ends = [(0.0, 0.25), (0.4, 0.6), (0.7, 0.8), (0.85, 1.0)]
        cells = [(lo, hi, *ev(np.array([lo, hi]), 1e-12)[0])
                 for lo, hi in ends]
        calls.clear()
        batched = _refine_brackets(ev, "arc", cells, 1e-12)
        n_batched = len(calls)
        calls.clear()
        assert batched == sequential_brackets(ev, "arc", cells, 1e-12)
        assert n_batched < len(calls) / 2
        assert all(lo <= br.lo < br.hi <= hi
                   for br, (lo, hi, _, _) in zip(batched, cells))

    @pytest.mark.parametrize("k, l", [(100, 58), (98, 96), (100, 14)])
    def test_counters_match_sequential_bisection(self, k, l, monkeypatch):
        # zero_brackets refines the dense scan cells, which carry certified
        # end values; sequential bisection reads only their signs
        batched = zero_brackets((k, l))
        monkeypatch.setattr(zeros, "_refine_brackets", sequential_brackets)
        assert zero_brackets((k, l)) == batched

    @pytest.mark.parametrize("k, l", [(98, 72), (56, 20)])
    def test_refinement_never_evaluates_cell_ends(self, k, l):
        # refinement starts from the end values the scan certified
        scan = located_scan((k, l))
        wp = WeightPair(k, l)
        for ev, kind, cells in ((zeros._arc_eval(wp), "arc", scan.arc),
                                (zeros._side_eval(wp), "side", scan.side)):
            seen = []

            def recording(xs, eps, ev=ev, seen=seen):
                seen.extend(np.asarray(xs).tolist())
                return ev(xs, eps)

            brackets = _refine_brackets(recording, kind, cells, 1e-12)
            assert len(brackets) == len(cells) > 0
            assert seen
            ends = {x for lo, hi, _, _ in cells for x in (lo, hi)}
            assert ends.isdisjoint(seen)


@pytest.fixture
def fresh_scan():
    zeros._boundary_scan.cache_clear()
    yield
    zeros._boundary_scan.cache_clear()


def both_counts(pair):
    return count_arc_zeros(pair), count_side_zeros(pair)


def boundary_scan(pair):
    """The counting scan of pair."""
    wp = WeightPair(*pair)
    return zeros._boundary_scan(wp, 1e-12, 1.0, side_upper_cutoff(wp))


def located_scan(pair):
    """The scan zero_brackets refines: the stride sub-grid, else dense."""
    wp = WeightPair(*pair)
    y_max = side_upper_cutoff(wp)
    return (zeros._joint_scan(wp, 1e-12, 1.0, y_max, zeros._STRIDE)
            or zeros._joint_scan(wp, 1e-12, 1.0, y_max, 1))


def side_setup(pair):
    """The dense side grid of pair and the grid indices of the lower ends
    of its dense sign-change cells."""
    wp = WeightPair(*pair)
    grid = zeros._side_grid(wp, 1.0, side_upper_cutoff(wp))
    lows = [int(np.argmin(np.abs(grid - lo)))
            for lo, _, _, _ in located_scan(pair).side]
    return grid, lows


def flip_side_sign(monkeypatch, pair):
    """Negate the side restriction on the 32 dense grid steps centred on
    the second side comb point, which for (100, 58) holds no zero and
    ends in cells without one.  The comb loses the two changes at that
    point and the dense grid gains two at the stretch's ends, so both
    levels of the counting scan miss the total."""
    wp = WeightPair(*pair)
    grid = zeros._side_grid(wp, 1.0, side_upper_cutoff(wp))
    c = int(np.searchsorted(grid, 0.5 * math.tan(
        side_sample_points(pair[1])[1])))
    lo, hi = grid[c - 16], grid[c + 16]
    real = zeros.side_normalized_batch

    def flipped(wp, ys, eps):
        vals, errs = real(wp, ys, eps)
        ys = np.asarray(ys)
        return np.where((ys >= lo) & (ys < hi), -vals, vals), errs

    monkeypatch.setattr(zeros, "side_normalized_batch", flipped)
    zeros._boundary_scan.cache_clear()


def flip_side_point(monkeypatch, pair):
    """Negate the side restriction at one dense grid point of the first
    sub-grid cell with a change, off the sub-grid and off the cell's true
    change, so that cell holds three dense changes.  Returns the list of
    points the flip has hit."""
    grid, lows = side_setup(pair)
    stride = zeros._STRIDE
    i = lows[0]
    a = i - i % stride
    j = a + 1 if i >= a + 2 else a + stride - 1
    real = zeros.side_normalized_batch
    hits = []

    def flipped(wp, ys, eps):
        vals, errs = real(wp, ys, eps)
        at = np.asarray(ys) == grid[j]
        hits.extend(np.asarray(ys)[at].tolist())
        return np.where(at, -vals, vals), errs

    monkeypatch.setattr(zeros, "side_normalized_batch", flipped)
    zeros._boundary_scan.cache_clear()
    return hits


def blind_side_at(monkeypatch, grid, i):
    """Make the side evaluator uncertain at every rung within 0.45 of the
    smaller gap around grid point i, which covers its nudges and no other
    grid point."""
    real = zeros.side_normalized_batch
    radius = 0.45 * min(grid[i] - grid[i - 1], grid[i + 1] - grid[i])

    def ev(wp, ys, eps):
        vals, errs = real(wp, ys, eps)
        near = np.abs(np.asarray(ys) - grid[i]) < radius
        return vals, np.where(near, np.inf, errs)

    monkeypatch.setattr(zeros, "side_normalized_batch", ev)
    zeros._boundary_scan.cache_clear()


@pytest.mark.usefixtures("fresh_scan")
class TestCombRung:
    # the counting scan certifies the paper's sample combs and both grid
    # ends; when their changes close the valence identity each comb cell
    # holds exactly one zero, so its counts are the dense scan's

    @pytest.mark.parametrize("k, l", [(40, 16), (56, 20), (98, 72),
                                      (100, 14), (98, 96), (26, 18)])
    def test_comb_closes_with_dense_counts(self, k, l, monkeypatch):
        certified = []
        real = zeros._certify_grid

        def recording(ev, grid, eps, at=None):
            pts, vals = real(ev, grid, eps, at)
            certified.append((grid, pts, vals))
            return pts, vals

        monkeypatch.setattr(zeros, "_certify_grid", recording)
        scan = boundary_scan((k, l))
        assert scan.level == "comb"
        wp = WeightPair(k, l)
        y_max = side_upper_cutoff(wp)
        combs = (arc_sample_points(wp),
                 [0.5 * math.tan(t) for t in side_sample_points(l)])
        assert len(certified) == 2
        for (grid, pts, vals), dense, comb in zip(
                certified, (zeros._arc_grid(wp, 1.0),
                            zeros._side_grid(wp, 1.0, y_max)), combs):
            # no point was nudged, and every comb value is far from zero
            assert grid.tolist() == pts.tolist() == (
                [dense[0]] + [x for x in comb if dense[0] < x < dense[-1]]
                + [dense[-1]])
            assert np.all(np.abs(vals[1:-1]) > 0.5)
        located = located_scan((k, l))
        assert located.level in ("stride", "dense")
        for cells, fine in ((scan.arc, located.arc),
                            (scan.side, located.side)):
            # each comb cell holds exactly one dense sign-change cell
            assert len(cells) == len(fine)
            for (lo, hi, _, _), (a, b, _, _) in zip(cells, fine):
                assert lo <= a < b <= hi

    def test_short_comb_falls_back_to_dense(self, monkeypatch):
        # without its arc comb, (56, 20) keeps one of its three arc changes
        counts = [c for c, _ in both_counts((56, 20))]
        monkeypatch.setattr(zeros, "arc_sample_points", lambda wp: [])
        zeros._boundary_scan.cache_clear()
        assert boundary_scan((56, 20)).level == "dense"
        assert [c for c, _ in both_counts((56, 20))] == counts == [3, 2]

    @pytest.mark.parametrize("k, l", [(40, 16), (56, 20), (98, 72),
                                      (100, 14), (98, 96), (26, 18)])
    def test_audit_refines_nothing(self, k, l, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("audit refined a bracket")

        monkeypatch.setattr(zeros, "_refine_brackets", refuse)
        monkeypatch.setattr(zeros, "_refine_bracket", refuse)
        r = audit((k, l))
        assert r.valence_ok and r.findings == ()


@pytest.mark.usefixtures("fresh_scan")
class TestValenceClosure:
    # zero_brackets' scan certifies every _STRIDE-th grid point and, once
    # their sign changes close the valence identity, searches only the
    # cells holding a change; it must give exactly the cells of the dense
    # (stride 1) scan

    @pytest.mark.parametrize("k, l", [(56, 20), (100, 58), (26, 18),
                                      (32, 24), (100, 14), (98, 96), (70, 40)])
    def test_closed_scan_matches_dense(self, k, l, monkeypatch):
        closed = zero_brackets((k, l))
        assert zeros._STRIDE > 1
        assert located_scan((k, l)).level == "stride"
        monkeypatch.setattr(zeros, "_STRIDE", 1)
        assert zero_brackets((k, l)) == closed
        assert located_scan((k, l)).level == "dense"

    def test_short_count_falls_back_to_dense(self, monkeypatch):
        # at stride 16 a sub-grid cell of (100, 98) holds two zeros and no
        # sign change, so the sub-grid count falls short of the valence total
        monkeypatch.setattr(zeros, "_STRIDE", 1)
        dense = zero_brackets((100, 98))
        monkeypatch.setattr(zeros, "_STRIDE", 16)
        assert zero_brackets((100, 98)) == dense
        assert located_scan((100, 98)).level == "dense"

    def test_wrong_sign_overshoot_fails_valence(self, monkeypatch):
        # a stretch of flipped signs breaks the comb count; the dense scan
        # sees its two extra changes
        pair = (100, 58)
        before = audit(pair)
        flip_side_sign(monkeypatch, pair)
        r = audit(pair)
        assert boundary_scan(pair).level == "dense"
        assert (r.A, r.B) == (before.A, before.B + 2)
        assert not r.valence_ok

    def test_overshoot_in_searched_cell_falls_back_to_dense(
            self, monkeypatch):
        # the sub-grid still closes, but the searched cell holds three
        # dense changes: the stride scan rejects it and zero_brackets reads
        # the dense grid, which sees the two extra changes; the combs never
        # evaluate the flipped point, so the counts do not move
        pair = (100, 58)
        counts = both_counts(pair)
        before = zero_brackets(pair)
        hits = flip_side_point(monkeypatch, pair)
        wp = WeightPair(*pair)
        assert zeros._joint_scan(wp, 1e-12, 1.0, side_upper_cutoff(wp),
                                 zeros._STRIDE) is None
        assert hits
        assert located_scan(pair).level == "dense"
        after = zero_brackets(pair)
        assert [b for b in after if b.kind == "arc"] == [
            b for b in before if b.kind == "arc"]
        assert len(after) == len(before) + 2
        assert both_counts(pair) == counts
        assert boundary_scan(pair).level == "comb"

    def test_uncertain_sub_grid_point_raises(self, monkeypatch):
        grid, _ = side_setup((100, 58))
        counts = both_counts((100, 58))
        i = 2 * zeros._STRIDE
        blind_side_at(monkeypatch, grid, i)
        with pytest.raises(SignUncertainError) as info:
            zero_brackets((100, 58))
        assert info.value.points == (float(grid[i]),)
        # the counting scan never certifies that point
        assert both_counts((100, 58)) == counts

    def test_uncertain_point_in_searched_cell_raises(self, monkeypatch):
        grid, lows = side_setup((100, 58))
        stride = zeros._STRIDE
        # a point of the first searched cell, off the sub-grid
        i = lows[0] - lows[0] % stride + stride // 2
        blind_side_at(monkeypatch, grid, i)
        with pytest.raises(SignUncertainError) as info:
            zero_brackets((100, 58))
        assert info.value.points == (float(grid[i]),)

    def test_uncertain_point_outside_searched_cells_is_skipped(
            self, monkeypatch):
        # the dense scan stops at a point the closed scan never needs
        pair = (100, 58)
        closed = zero_brackets(pair)
        grid, lows = side_setup(pair)
        stride = zeros._STRIDE
        a = next(a for a in range(0, grid.size - stride, stride)
                 if not any(a <= i < a + stride for i in lows))
        blind_side_at(monkeypatch, grid, a + stride // 2)
        assert zero_brackets(pair) == closed
        assert located_scan(pair).level == "stride"
        monkeypatch.setattr(zeros, "_STRIDE", 1)
        with pytest.raises(SignUncertainError):
            zero_brackets(pair)


class TestScans:
    def test_arc_count_example(self):
        # the counter returns certified cells; zero_brackets narrows each
        # zero inside its cell to 1e-12
        a, cells = count_arc_zeros((56, 20))
        assert a == 3
        assert len(cells) == 3
        for cell in cells:
            assert cell.kind == "arc"
            assert cell.sign_lo * cell.sign_hi == -1
            assert math.pi / 3 < cell.lo < cell.hi < math.pi / 2
        assert all(c2.lo >= c1.hi for c1, c2 in zip(cells, cells[1:]))
        locs = [br for br in zero_brackets((56, 20)) if br.kind == "arc"]
        assert len(locs) == 3
        for br, cell in zip(locs, cells):
            assert br.width <= 1e-12
            assert br.sign_lo * br.sign_hi == -1
            assert (br.sign_lo, br.sign_hi) == (cell.sign_lo, cell.sign_hi)
            assert cell.lo < br.lo < br.hi < cell.hi
        assert all(b2.lo > b1.hi for b1, b2 in zip(locs, locs[1:]))

    def test_side_count_examples(self):
        assert count_side_zeros((56, 22))[0] == 3
        assert count_side_zeros((56, 42))[0] == 5
        assert count_side_zeros((68, 42))[0] == 6

    def test_side_brackets_sound(self):
        b, cells = count_side_zeros((56, 22))
        y_max = side_upper_cutoff((56, 22))
        for cell in cells:
            assert cell.kind == "side"
            assert cell.sign_lo * cell.sign_hi == -1
            assert math.sqrt(3) / 2 < cell.lo < cell.hi <= y_max
        locs = [br for br in zero_brackets((56, 22)) if br.kind == "side"]
        assert len(locs) == b
        for br in locs:
            assert br.kind == "side"
            assert br.width <= 1e-12
            assert br.sign_lo * br.sign_hi == -1
            assert math.sqrt(3) / 2 < br.location < y_max

    def test_arc_count_reads_cutoff_through_public_name(self, monkeypatch):
        # the arc scan needs the side cutoff for the valence closure, and
        # must reach it where a wrapper of the module attribute sees it
        calls = []
        real = zeros.side_upper_cutoff

        def wrapped(wp):
            calls.append(wp)
            return real(wp)

        monkeypatch.setattr(zeros, "side_upper_cutoff", wrapped)
        for cached in (zeros._boundary_scan, zeros._side_upper_cutoff):
            cached.cache_clear()
        count_arc_zeros((56, 22))
        assert calls == [WeightPair(56, 22)]

    def test_cutoff_certificate_is_sound(self):
        # above y_max the side restriction is certifiably nonzero
        wp = WeightPair(56, 22)
        y_max = side_upper_cutoff(wp)
        assert side_upper_cutoff([56, 22]) == y_max
        ys = np.array([y_max + 0.05, y_max + 0.5, y_max + 2.0])
        vals, errs = side_normalized_batch(wp, ys, 1e-12)
        assert np.all(np.abs(vals) > 10 * errs)

    def test_equidistribution_window(self):
        # for k - l >= 120 every comb window far enough from the corner
        # holds exactly one refined zero
        mids = [b.location for b in zero_brackets((140, 20))
                if b.kind == "arc"]
        w = 2 * math.pi / 120
        for m in range(24, 29):
            lo, hi = m * w, (m + 1) * w
            assert hi < math.pi / 2
            assert sum(1 for t in mids if lo < t < hi) == 1

    def test_quarter_turn_zero_for_n0(self):
        # k = l + 8 pairs carry exactly one arc zero
        for l in (40, 54, 68):
            assert count_arc_zeros((l + 8, l))[0] == 1

    def test_no_arc_zero_other_n0_classes(self):
        for kp in (0, 2, 4, 6, 10):
            assert count_arc_zeros((40 + kp, 40))[0] == 0

    def test_fine_eps_reaches_every_rung(self, monkeypatch, fresh_scan):
        # at eps = 1e-15 every evaluation the counters and zero_brackets
        # make, in the scans, their one-point escalation and the
        # refinement, is at 1e-15
        seen = []
        for name in ("arc_real_batch", "side_normalized_batch"):
            def recording(wp, xs, eps, real=getattr(zeros, name)):
                seen.append(eps)
                return real(wp, xs, eps)
            monkeypatch.setattr(zeros, name, recording)
        count_arc_zeros((98, 72), eps=1e-15)
        count_side_zeros((98, 72), eps=1e-15)
        zero_brackets((98, 72), eps=1e-15)
        assert set(seen) == {1e-15}


class TestAudit:
    def test_stabilized_pair(self):
        r = audit((82, 22))
        assert (r.A, r.B) == (4, 3)
        assert r.valence_ok
        assert r.findings == ()
        assert (r.predicted_A, r.predicted_B) == (4, 3)

    def test_pre_stabilization_pair(self):
        r = audit((70, 22))
        assert (r.A, r.B) == (4, 2)
        assert r.valence_ok
        assert r.findings == ()

    @pytest.mark.parametrize("k, l", [(56, 20), (100, 58), (26, 18),
                                      (100, 14), (98, 96), (70, 40)])
    def test_counts_match_refined_counters(self, k, l):
        # audit counts the counters' cells, and zero_brackets bisects the
        # same number of zeros on each piece
        pair = (k, l)
        r = audit(pair)
        a, arcs = count_arc_zeros(pair)
        b, sides = count_side_zeros(pair)
        assert (r.A, r.B) == (a, b) == (len(arcs), len(sides))
        brackets = zero_brackets(pair)
        assert [br.kind for br in brackets] == ["arc"] * a + ["side"] * b
        assert all(br.width <= 1e-12 for br in brackets)

    def test_valence_scatter(self):
        for pair in [(14, 14), (100, 14), (44, 26), (98, 96), (100, 40)]:
            r = audit(pair)
            assert r.valence_ok, pair
            assert 12 * (r.A + r.B) + 6 * r.v_i + 4 * r.v_rho + 12 \
                == pair[0] + pair[1]

    def test_table_sample_cells(self):
        # one cell from each published row
        assert audit((56, 20)).A == 3
        assert audit((84, 24)).A == 5
        assert audit((58, 22)).B == 2

    def test_small_n0_pair_keeps_valence(self):
        # n = 0, j = 8 with a positive M'' at the vanishing corner: the
        # quarter-turn arc zero is absent and the side carries it instead
        r = audit((26, 18))
        assert r.valence_ok
        assert r.A + r.B == 2
        assert (r.predicted_A, r.predicted_B) == (r.A, r.B) == (0, 2)
        assert predicted_counts((26, 18)).N_prime == r.A
        # the same class from l = 24 on: M'' < 0 and the zero is on the arc
        r = audit((32, 24))
        assert (r.A, r.B) == (r.predicted_A, r.predicted_B)
        assert predicted_counts((32, 24)).N_prime == r.A == 1


def ramanujan_tau(count):
    """tau(1..count) from q prod (1 - q^n)^24, in integers."""
    poly = [1] + [0] * (count - 1)
    for n in range(1, count):
        for _ in range(24):
            for i in range(count - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly


def fraction_coeffs(k, l, count=50):
    """a_1..a_count of E_k E_l - E_{k+l} as exact Fractions."""
    def g(j):
        return Fraction(-2 * j) / bernoulli(j)

    def sigma(j, n):
        return sum(d ** (j - 1) for d in range(1, n + 1) if n % d == 0)

    sk = [sigma(k, n) for n in range(count + 1)]
    sl = [sigma(l, n) for n in range(count + 1)]
    gk, gl, gw = g(k), g(l), g(k + l)
    return [gk * sk[m] + gl * sl[m] - gw * sigma(k + l, m)
            + gk * gl * sum(sk[r] * sl[m - r] for r in range(1, m))
            for m in range(1, count + 1)]


# repr(side_upper_cutoff(pair)): the cutoff sets the side grid, and so
# every side bracket and scan byte
PINNED_CUTOFFS = {
    (14, 14): 1.5463557127583099,
    (26, 18): 1.9887556643486088,
    (56, 20): 2.206692484807043,
    (100, 66): 7.280975662008647,
    (100, 98): 10.809181714931947,
    (250, 150): 16.547670407163622,
}


class TestFourierCoefficients:
    @pytest.mark.parametrize("k, l", [(8, 4), (6, 6)])
    def test_weight_12_is_ramanujan_tau(self, k, l):
        # E_k E_l - E_12 is a multiple of the discriminant, so a_m / a_1
        # is tau(m); the four terms cancel by about m^5.5 against it
        log_mag = _delta_log_coeffs(WeightPair(k, l))
        taus = ramanujan_tau(50)
        want = np.array([math.log(abs(t)) for t in taus])
        assert np.abs(log_mag - log_mag[0] - want).max() <= 1e-12

    @pytest.mark.parametrize("k, l", [(56, 20), (82, 22), (100, 98)])
    def test_matches_fraction_reference(self, k, l):
        log_mag = _delta_log_coeffs(WeightPair(k, l))
        coeffs = fraction_coeffs(k, l)
        want = np.array([math.log(abs(a.numerator)) - math.log(a.denominator)
                         if a else -math.inf for a in coeffs])
        live = np.isfinite(want)
        assert np.array_equal(np.isfinite(log_mag), live)
        assert np.all(np.abs(log_mag[live] - want[live])
                      <= 1e-12 * np.maximum(1.0, np.abs(want[live])))

    @pytest.mark.parametrize("k, l", sorted(PINNED_CUTOFFS))
    def test_cutoff_pinned(self, k, l):
        assert repr(side_upper_cutoff((k, l))) == repr(PINNED_CUTOFFS[k, l])


@pytest.mark.usefixtures("fresh_scan")
class TestInteriorHunt:
    # the interior is excluded exactly when the certified boundary count
    # closes the valence identity

    def test_clean_on_reference_pairs(self):
        assert interior_zero_hunt(audit((56, 20))) == ()
        assert interior_zero_hunt(audit((82, 22))) == ()

    def test_clean_on_near_equal_weights(self):
        assert interior_zero_hunt(audit((100, 98))) == ()

    def test_open_count_reports_interior(self, monkeypatch, capsys):
        flip_side_sign(monkeypatch, (100, 58))
        row = cli._pair_report((100, 58, 1e-12, 1.0))
        assert row["valence_ok"] is False
        assert row["interior"] == ["interior not excluded: boundary count "
                                   "does not close the valence identity"]
        assert cli.main(["audit", "--k", "100", "--l", "58"]) == 1
        assert cli.main(["scan", "--k-min", "100", "--k-max", "100",
                         "--l-min", "58", "--l-max", "58"]) == 1
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["interior_reports"] == 1
