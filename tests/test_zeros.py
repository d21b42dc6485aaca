"""Tests for boundary zero counting, predictions, sign certification, and
the audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros import zeros
from eisenzeros.delta import (WeightPair, arc_real, m_main, p_main,
                              side_normalized_batch)
from eisenzeros.numerics import LogComplex, lc_sum
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
        f1 = arc_real(wp, math.pi / 3 + h)
        f2 = arc_real(wp, math.pi / 3 + 2 * h)
        order = math.log2(abs(f2 / f1))
        assert abs(order - 2) < 0.05
        assert abs(arc_real(wp, math.pi / 2)) > 0.5


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
        # uncertain at 1e-12 and 1e-14, certified positive at 1e-15
        ev = constant_batch(5e-14, lambda eps: eps)
        grid, signs = _certify_grid(ev, np.array([0.0, 1.0]), 1e-12)
        assert grid.tolist() == [0.0, 1.0]
        assert signs.tolist() == [1, 1]


def sequential_brackets(ev, kind, cells):
    return [_refine_bracket(ev, kind, *cell) for cell in cells]


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

        cells = [(0.0, 0.25, -1, 1), (0.4, 0.6, -1, 1), (0.7, 0.8, -1, 1),
                 (0.85, 1.0, -1, 1)]
        batched = _refine_brackets(ev, "arc", cells)
        n_batched = len(calls)
        calls.clear()
        assert batched == sequential_brackets(ev, "arc", cells)
        assert n_batched < len(calls) / 2
        assert all(lo <= br.lo < br.hi <= hi
                   for br, (lo, hi, _, _) in zip(batched, cells))

    @pytest.mark.parametrize("k, l", [(100, 58), (98, 96), (100, 14)])
    def test_counters_match_sequential_bisection(self, k, l, monkeypatch):
        batched = (count_arc_zeros((k, l)), count_side_zeros((k, l)))
        monkeypatch.setattr(zeros, "_refine_brackets", sequential_brackets)
        assert (count_arc_zeros((k, l)), count_side_zeros((k, l))) == batched


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


def hunt_reference(wp, x, y, y_hi):
    """The hunt's normalized |delta| at one point, summed term by term with
    lc_sum, independently of the vectorized evaluator."""
    if math.hypot(x, y) < 1.02 or abs(x) > 0.49 or y > y_hi + 0.5:
        return math.inf
    log_mag, phase = _delta_log_coeffs(wp)
    two_pi = 2.0 * math.pi
    total = lc_sum([LogComplex(float(lm), float(ph))
                    * LogComplex.from_polar(-two_pi * m * y, two_pi * m * x)
                    for m, (lm, ph) in enumerate(zip(log_mag, phase), start=1)])
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
