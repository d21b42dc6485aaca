"""Tests for boundary zero counting, predictions, sign certification, and
the audit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros import zeros
from eisenzeros.delta import (WeightPair, arc_real_batch, m_main, p_main,
                              side_normalized_batch)
from eisenzeros.numerics import LogComplex, bernoulli, lc_sum
from eisenzeros.zeros import (DominanceCertificateError, PredictedCounts,
                              SignUncertainError, ZeroBracket, _certify_grid,
                              _delta_log_coeffs, _hunt_field, _refine_bracket,
                              _refine_brackets,
                              arc_sample_points, audit, count_arc_zeros,
                              count_side_zeros, expected_boundary_counts,
                              interior_zero_hunt, predicted_counts,
                              side_sample_points, side_upper_cutoff,
                              stabilization_point, trivial_orders)

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
        # the scan cells carry certified end values; sequential bisection
        # reads only their signs
        batched = (count_arc_zeros((k, l)), count_side_zeros((k, l)))
        monkeypatch.setattr(zeros, "_refine_brackets", sequential_brackets)
        assert (count_arc_zeros((k, l)), count_side_zeros((k, l))) == batched

    @pytest.mark.parametrize("k, l", [(98, 72), (56, 20)])
    def test_refinement_never_evaluates_cell_ends(self, k, l):
        # refinement starts from the end values the scan certified
        wp = WeightPair(k, l)
        scan = zeros._boundary_scan(wp, 1e-12, 1.0, side_upper_cutoff(wp))
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
    wp = WeightPair(*pair)
    return zeros._boundary_scan(wp, 1e-12, 1.0, side_upper_cutoff(wp))


def side_setup(pair):
    """The dense side grid of pair and the grid indices of the lower ends
    of its sign-change cells."""
    wp = WeightPair(*pair)
    grid = zeros._side_grid(wp, 1.0, side_upper_cutoff(wp))
    lows = [int(np.argmin(np.abs(grid - lo)))
            for lo, _, _, _ in boundary_scan(pair).side]
    return grid, lows


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
class TestValenceClosure:
    # the scan certifies every _STRIDE-th grid point and, once their sign
    # changes close the valence identity, searches only the cells holding
    # a change; it must give exactly the cells of the dense (stride 1) scan

    @pytest.mark.parametrize("k, l", [(56, 20), (100, 58), (26, 18),
                                      (32, 24), (100, 14), (98, 96), (70, 40)])
    def test_closed_scan_matches_dense(self, k, l, monkeypatch):
        closed = both_counts((k, l))
        assert zeros._STRIDE > 1
        assert boundary_scan((k, l)).stride == zeros._STRIDE
        monkeypatch.setattr(zeros, "_STRIDE", 1)
        zeros._boundary_scan.cache_clear()
        assert both_counts((k, l)) == closed

    def test_short_count_falls_back_to_dense(self, monkeypatch):
        # at stride 16 a sub-grid cell of (100, 98) holds two zeros and no
        # sign change, so the sub-grid count falls short of the valence total
        monkeypatch.setattr(zeros, "_STRIDE", 1)
        dense = both_counts((100, 98))
        monkeypatch.setattr(zeros, "_STRIDE", 16)
        zeros._boundary_scan.cache_clear()
        assert both_counts((100, 98)) == dense
        assert boundary_scan((100, 98)).stride == 1

    def test_wrong_sign_overshoot_fails_valence(self, monkeypatch):
        # a flipped sign inside a searched cell adds two changes there: the
        # scan falls back to the dense grid, which sees them too
        pair = (100, 58)
        before = audit(pair)
        grid, lows = side_setup(pair)
        stride = zeros._STRIDE
        i = lows[0]
        a = i - i % stride
        j = a + 1 if i >= a + 2 else a + stride - 1
        real = zeros.side_normalized_batch

        def flipped(wp, ys, eps):
            vals, errs = real(wp, ys, eps)
            return np.where(np.asarray(ys) == grid[j], -vals, vals), errs

        monkeypatch.setattr(zeros, "side_normalized_batch", flipped)
        zeros._boundary_scan.cache_clear()
        r = audit(pair)
        assert boundary_scan(pair).stride == 1
        assert (r.A, r.B) == (before.A, before.B + 2)
        assert not r.valence_ok

    def test_uncertain_sub_grid_point_raises(self, monkeypatch):
        grid, _ = side_setup((100, 58))
        i = 2 * zeros._STRIDE
        blind_side_at(monkeypatch, grid, i)
        with pytest.raises(SignUncertainError) as info:
            count_side_zeros((100, 58))
        assert info.value.points == (float(grid[i]),)

    def test_uncertain_point_in_searched_cell_raises(self, monkeypatch):
        grid, lows = side_setup((100, 58))
        stride = zeros._STRIDE
        # a point of the first searched cell, off the sub-grid
        i = lows[0] - lows[0] % stride + stride // 2
        blind_side_at(monkeypatch, grid, i)
        with pytest.raises(SignUncertainError) as info:
            count_side_zeros((100, 58))
        assert info.value.points == (float(grid[i]),)

    def test_uncertain_point_outside_searched_cells_is_skipped(
            self, monkeypatch):
        # the dense scan stops at a point the closed scan never needs
        pair = (100, 58)
        closed = both_counts(pair)
        grid, lows = side_setup(pair)
        stride = zeros._STRIDE
        a = next(a for a in range(0, grid.size - stride, stride)
                 if not any(a <= i < a + stride for i in lows))
        blind_side_at(monkeypatch, grid, a + stride // 2)
        assert both_counts(pair) == closed
        assert boundary_scan(pair).stride == stride
        monkeypatch.setattr(zeros, "_STRIDE", 1)
        zeros._boundary_scan.cache_clear()
        with pytest.raises(SignUncertainError):
            count_side_zeros(pair)


class TestScans:
    def test_arc_count_example(self):
        a, locs = count_arc_zeros((56, 20))
        assert a == 3
        assert len(locs) == 3
        for br in locs:
            assert br.kind == "arc"
            assert br.width <= 1e-12
            assert br.sign_lo * br.sign_hi == -1
            assert math.pi / 3 < br.location < math.pi / 2
        mids = [b.location for b in locs]
        assert all(b2.lo > b1.hi for b1, b2 in zip(locs, locs[1:]))

    def test_side_count_examples(self):
        assert count_side_zeros((56, 22))[0] == 3
        assert count_side_zeros((56, 42))[0] == 5
        assert count_side_zeros((68, 42))[0] == 6

    def test_side_brackets_sound(self):
        b, locs = count_side_zeros((56, 22))
        y_max = side_upper_cutoff((56, 22))
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
        for cached in (zeros._boundary_scan, zeros._side_upper_cutoff,
                       zeros._delta_log_coeffs):
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
        a, locs = count_arc_zeros((140, 20))
        mids = [b.location for b in locs]
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
        # at eps = 1e-15 every evaluation the counters make, in the scan,
        # its one-point escalation and the refinement, is at 1e-15
        seen = []
        for name in ("arc_real_batch", "side_normalized_batch"):
            def recording(wp, xs, eps, real=getattr(zeros, name)):
                seen.append(eps)
                return real(wp, xs, eps)
            monkeypatch.setattr(zeros, name, recording)
        count_arc_zeros((98, 72), eps=1e-15)
        count_side_zeros((98, 72), eps=1e-15)
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
        # audit counts through the counters, which bisect every change
        pair = (k, l)
        r = audit(pair)
        a, arcs = count_arc_zeros(pair)
        b, sides = count_side_zeros(pair)
        assert (r.A, r.B) == (a, b) == (len(arcs), len(sides))
        assert all(br.width <= 1e-12 for br in arcs + sides)

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
        log_mag, sign = _delta_log_coeffs(WeightPair(k, l))
        taus = ramanujan_tau(50)
        want = np.array([math.log(abs(t)) for t in taus])
        assert np.abs(log_mag - log_mag[0] - want).max() <= 1e-12
        assert list(sign * sign[0]) == [1 if t > 0 else -1 for t in taus]

    @pytest.mark.parametrize("k, l", [(56, 20), (82, 22), (100, 98)])
    def test_matches_fraction_reference(self, k, l):
        log_mag, sign = _delta_log_coeffs(WeightPair(k, l))
        coeffs = fraction_coeffs(k, l)
        want = np.array([math.log(abs(a.numerator)) - math.log(a.denominator)
                         if a else -math.inf for a in coeffs])
        live = np.isfinite(want)
        assert np.array_equal(np.isfinite(log_mag), live)
        assert np.all(np.abs(log_mag[live] - want[live])
                      <= 1e-12 * np.maximum(1.0, np.abs(want[live])))
        assert list(sign) == [(a > 0) - (a < 0) for a in coeffs]

    @pytest.mark.parametrize("k, l", sorted(PINNED_CUTOFFS))
    def test_cutoff_pinned(self, k, l):
        assert repr(side_upper_cutoff((k, l))) == repr(PINNED_CUTOFFS[k, l])


def hunt_reference(wp, x, y, y_hi):
    """The hunt's normalized |delta| at one point, summed term by term with
    lc_sum, independently of the vectorized evaluator."""
    if math.hypot(x, y) < 1.02 or abs(x) > 0.49 or y > y_hi + 0.5:
        return math.inf
    log_mag, sign = _delta_log_coeffs(wp)
    two_pi = 2.0 * math.pi
    total = lc_sum([LogComplex(float(lm), 0.0 if sg >= 0 else math.pi)
                    * LogComplex.from_polar(-two_pi * m * y, two_pi * m * x)
                    for m, (lm, sg) in enumerate(zip(log_mag, sign), start=1)])
    return math.exp(total.log_mag + two_pi * y - log_mag[0])


class TestInteriorHunt:
    @pytest.mark.parametrize("k, l", [(56, 20), (100, 98), (82, 22)])
    def test_grid_matches_lc_sum_reference(self, k, l):
        wp = WeightPair(k, l)
        norm_abs, y_hi = _hunt_field(wp)
        xs = np.linspace(-0.48, 0.48, 13)
        rows = np.geomspace(0.9 * 1.02, y_hi, 11)
        gx, gy = np.meshgrid(xs, rows)
        got = norm_abs(gx.ravel(), gy.ravel())
        want = np.array([hunt_reference(wp, float(x), float(y), y_hi)
                         for x, y in zip(gx.ravel(), gy.ravel())])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        live = np.isfinite(want)
        assert live.sum() > 100
        assert np.all(np.abs(got[live] - want[live]) <= 1e-9 * want[live])

    def test_clean_on_reference_pairs(self):
        assert interior_zero_hunt((56, 20)) == ()
        assert interior_zero_hunt((82, 22)) == ()

    def test_clean_on_near_equal_weights(self):
        # regression: the direct product evaluation cancels catastrophically
        # here and used to masquerade as an interior zero
        assert interior_zero_hunt((100, 98)) == ()
