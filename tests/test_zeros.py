"""Tests for boundary zero counting, predictions, sign certification, and
the audit."""

import hashlib
import json
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros import cli, zeros
from eisenzeros.delta import (WeightPair, arc_real_batch, corner_derivatives,
                              m_main, p_main, side_normalized_batch)
from eisenzeros.numerics import bernoulli
from eisenzeros.zeros import (DominanceCertificateError, PredictedCounts,
                              SignUncertainError, ZeroBracket, _certify,
                              _delta_log_coeffs, _EPS_LADDER,
                              _refine_brackets, _stabilization,
                              _valence_closes,
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


# sha256 of the "k,l,A,B,N'" lines of expected_boundary_counts and
# predicted_counts on every census pair under the cap
PINNED_PREDICTIONS_SHA256 = ("81dccd6a1346ce60209438a173f3b544"
                             "255b62516df415d8edb96c8af968e723")


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

    @given(even_l, small_n, even_j)
    @settings(max_examples=80, deadline=None)
    def test_count_sandwich(self, l, n, j):
        # the floor counts read off the sample combs alone are one fewer
        # than each comb's points; N_prime exceeds the arc's by at most one
        wp = make_pair(l, n, j)
        pc = predicted_counts(wp)
        n_floor = max(0, len(arc_sample_points(wp)) - 1)
        assert n_floor <= pc.N_prime <= n_floor + 1
        assert len(side_sample_points(l)) - 1 <= pc.T_prime
        assert stabilization_point(l, j) >= l

    def test_predictions_pinned_on_capped_pairs(self):
        # "k,l,A,B,N'" for all 8,836 census pairs under the k + l <= 400
        # cap, l then k ascending: a moved prediction changes the digest
        lines = "".join(
            f"{k},{l},{a},{b},{predicted_counts((k, l)).N_prime}\n"
            for l in range(14, 201, 2) for k in range(l, 401 - l, 2)
            for a, b in [expected_boundary_counts((k, l))])
        assert lines.count("\n") == 8836
        assert hashlib.sha256(lines.encode()).hexdigest() \
            == PINNED_PREDICTIONS_SHA256

    def test_transient_rule_matches_float_threshold(self):
        # the integer test 2k - c < sqrt(r) against the display float
        # k < sp at every k around sp, for every family and l <= 2000
        for l in range(14, 2001, 2):
            for j in (0, 2, 4, 6, 8, 10):
                c, r = _stabilization(l, j)
                sp = stabilization_point(l, j)
                for k in range(math.ceil(sp) - 4, math.ceil(sp) + 5):
                    d = 2 * k - c
                    assert (d < 0 or d * d < r) == (k < sp), (k, l, j)
                    if (k - l) % 12 == j and k >= l + 12:
                        # n >= 1: the transient adds one arc zero
                        a, _ = expected_boundary_counts((k, l))
                        transient = a == predicted_counts((k, l)).N_prime + 1
                        assert transient == (k < sp), (k, l)

    @pytest.mark.parametrize("k, l", [(1066, 286), (7779004246, 2084377906)])
    def test_transient_rule_at_pell_pairs(self, k, l):
        # the pairs with k = sp exactly, where 12 l^2 - 12 l + 1 is a square
        c, r = _stabilization(l, (k - l) % 12)
        assert 2 * k - c == math.isqrt(r) and math.isqrt(r) ** 2 == r
        for kk in (k - 12, k, k + 12):
            a, _ = expected_boundary_counts((kk, l))
            transient = a == predicted_counts((kk, l)).N_prime + 1
            assert transient == (kk < stabilization_point(l, (k - l) % 12))
            assert transient == (kk < k)

    def test_stabilization_point_pair_pinned(self):
        # (1066, 286) sits on its stabilization point and is predicted
        # stabilized; its neighbours in the family either side
        assert expected_boundary_counts((1054, 286)) == (64, 46)
        assert expected_boundary_counts((1066, 286)) == (64, 47)
        assert expected_boundary_counts((1078, 286)) == (65, 47)

    def test_corner_rule_matches_m_double_prime(self):
        # n = 0, j = 8, l = 0 mod 6: the arc keeps its zero iff M''(pi/3),
        # from delta's closed form, is not positive
        for l in range(6, 397, 6):
            wp = WeightPair(l + 8, l)
            positive = corner_derivatives(wp).m_double_prime > 0
            assert positive == (l <= 18), l
            assert predicted_counts(wp).N_prime == (0 if positive else 1), l

    @given(even_l, small_n, even_j)
    @settings(max_examples=80, deadline=None)
    def test_expected_counts_sum_to_total(self, l, n, j):
        wp = make_pair(l, n, j)
        a, b = expected_boundary_counts(wp)
        assert _valence_closes(wp, a + b)

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


class TestCountSignChanges:
    # the scans count sign changes of the signs _certify certifies

    def test_uncertain_raises_with_count(self, monkeypatch):
        # blind at every side comb point on every rung: the ends certify,
        # and one error names all the comb points
        wp = WeightPair(56, 20)
        blind = scan_points((56, 20))[1][1:-1]
        real = zeros.side_normalized_batch

        def ev(wp, ys, eps):
            vals, errs = real(wp, ys, eps)
            return vals, np.where(np.isin(ys, blind), np.inf, errs)

        monkeypatch.setattr(zeros, "side_normalized_batch", ev)
        with pytest.raises(SignUncertainError) as info:
            zeros._side_cells(wp, side_upper_cutoff(wp))
        assert len(blind) == 2
        assert len(info.value.points) == 2
        assert info.value.points == tuple(blind)
        assert str(info.value) == (
            f"2 scan point(s) stayed sign-uncertain, first at {blind[0]:.12g}")

    def test_escalation_resolves(self):
        # uncertain at 1e-12 and 1e-14, certified positive at 1e-15, where
        # only the still-ambiguous points are evaluated again
        batches = []

        def ev(xs, eps):
            batches.append((len(xs), eps))
            vals = np.where(np.asarray(xs) == 0.0, 5e-14, 1.0)
            return vals, np.full(len(xs), eps)

        vals, certified = _certify(ev, np.array([0.0, 1.0, 2.0]))
        assert certified.all()
        assert vals.tolist() == [5e-14, 1.0, 1.0]
        assert batches == [(3, 1e-12), (1, 1e-14), (1, 1e-15)]


def root_eval(roots, hidden=lambda x: 0.0):
    """A batch evaluator of x minus its nearest root whose bound, 10 eps
    plus hidden(x), hides every sign within 100 eps of a root; calls
    records each batch."""
    calls = []

    def ev(xs, eps):
        calls.append((len(xs), eps))
        xs = np.asarray(xs)
        nearest = np.array([min(roots, key=lambda r: abs(x - r)) for x in xs])
        return xs - nearest, 10.0 * eps + np.array([hidden(x) for x in xs])
    return ev, calls


def root_cells(ev, ends):
    return [(lo, hi, *ev(np.array([lo, hi]), 1e-12)[0]) for lo, hi in ends]


class TestRefinement:
    # _refine_brackets narrows every cell of a piece together, one
    # _certify batch a round, to the one sign change of its certified probes

    def test_brackets_hold_their_roots_through_escalation(self):
        # the last steps escalate and some probes stay uncertain; the root
        # at 0.5 sits on its cell's first midpoint, and near 0.9 no sign
        # within 1e-10 certifies, so that bracket is returned wider
        roots = [0.1234567890123, 0.5, 0.75 + 1e-13, 0.9]
        ev, calls = root_eval(roots, lambda x: 1e-11 * (abs(x - 0.9) < 0.05))
        cells = root_cells(ev, [(0.0, 0.25), (0.4, 0.6), (0.7, 0.8),
                                (0.85, 1.0)])
        calls.clear()
        brackets = _refine_brackets(ev, "arc", cells)
        for br, (lo, hi, v_lo, v_hi), root in zip(brackets, cells, roots):
            assert lo <= br.lo <= root <= br.hi <= hi
            assert (br.kind, br.sign_lo, br.sign_hi) == (
                "arc", np.sign(v_lo), np.sign(v_hi))
        assert [br.hi - br.lo <= 1e-12 for br in brackets] == [True] * 3 + [False]
        assert 1e-12 < brackets[3].hi - brackets[3].lo < 1e-9
        # one batch per round and rung, never one point at a time
        assert min(n for n, _ in calls) > 1
        assert len(calls) < 30

    def test_two_changes_in_a_cell_raise(self):
        # x - 0.7 reports negated, certified values on (0.55, 0.65), between
        # the cell's midpoint and its root: a cell of a closed count holds
        # one zero, so its three changes show a wrong certified sign
        ev, _ = root_eval([0.7])

        def flipped(xs, eps):
            vals, errs = ev(xs, eps)
            xs = np.asarray(xs)
            return np.where((xs > 0.55) & (xs < 0.65), -vals, vals), errs

        cells = root_cells(ev, [(0.0, 1.0)])
        with pytest.raises(ArithmeticError, match="3 certified sign changes"):
            _refine_brackets(flipped, "side", cells)

    @pytest.mark.parametrize("k, l", [(100, 58), (98, 96), (100, 14)])
    def test_brackets_narrow_inside_their_comb_cells(self, k, l):
        # zero_brackets refines the comb cells the counters read: each
        # bracket lies in its own cell, keeps its end signs and is 1e-12
        arc, side = boundary_scan((k, l))
        cells = [("arc", c) for c in arc] + [("side", c) for c in side]
        brackets = zero_brackets((k, l))
        assert len(brackets) == len(cells) > 0
        for br, (kind, (lo, hi, v_lo, v_hi)) in zip(brackets, cells):
            assert br.kind == kind
            assert lo <= br.lo < br.hi <= hi
            assert (br.sign_lo, br.sign_hi) == (np.sign(v_lo), np.sign(v_hi))
            assert br.hi - br.lo <= 1e-12

    @pytest.mark.parametrize("k, l", [(98, 72), (56, 20)])
    def test_refinement_never_evaluates_cell_ends(self, k, l):
        # refinement starts from the end values the scan certified
        arc, side = boundary_scan((k, l))
        wp = WeightPair(k, l)
        for ev, kind, cells in (
                (partial(arc_real_batch, wp), "arc", arc),
                (partial(side_normalized_batch, wp), "side", side)):
            seen = []

            def recording(xs, eps, ev=ev, seen=seen):
                seen.extend(np.asarray(xs).tolist())
                return ev(xs, eps)

            brackets = _refine_brackets(recording, kind, cells)
            assert len(brackets) == len(cells) > 0
            assert seen
            ends = {x for lo, hi, _, _ in cells for x in (lo, hi)}
            assert ends.isdisjoint(seen)


def boundary_scan(pair):
    """The cells of pair's arc scan and of its side scan."""
    wp = WeightPair(*pair)
    return zeros._arc_cells(wp), zeros._side_cells(wp, side_upper_cutoff(wp))


def scan_points(pair):
    """The points the comb scan certifies on the arc and on the side: each
    piece's two ends and the comb points between them."""
    wp = WeightPair(*pair)
    pieces = []
    for (lo, hi), comb in (
            (zeros._arc_ends(wp), arc_sample_points(wp)),
            (zeros._side_ends(wp, side_upper_cutoff(wp)),
             [0.5 * math.tan(t) for t in side_sample_points(pair[1])])):
        pieces.append([lo] + [x for x in comb if lo < x < hi] + [hi])
    return pieces


def flip_side_sign(monkeypatch, pair):
    """Negate the side restriction near the second side comb point, which
    for (100, 58) lies between two comb cells that each hold a zero.  The
    comb loses the two changes at that point and misses the total."""
    y = scan_points(pair)[1][2]
    real = zeros.side_normalized_batch

    def flipped(wp, ys, eps):
        vals, errs = real(wp, ys, eps)
        return np.where(np.abs(np.asarray(ys) - y) < 1e-9, -vals, vals), errs

    monkeypatch.setattr(zeros, "side_normalized_batch", flipped)


class TestCombRung:
    # the counting scan certifies the paper's sample combs and both scan
    # ends of each piece; when their changes close the valence identity
    # each comb cell holds exactly one zero

    @pytest.mark.parametrize("k, l", [(40, 16), (56, 20), (98, 72),
                                      (100, 14), (98, 96), (26, 18)])
    def test_comb_closes_with_dense_counts(self, k, l, monkeypatch):
        certified = []
        real = zeros._certify

        def recording(ev, xs):
            vals, ok = real(ev, xs)
            certified.append((xs, vals, ok))
            return vals, ok

        monkeypatch.setattr(zeros, "_certify", recording)
        arc, side = boundary_scan((k, l))
        assert (len(arc), len(side)) == expected_boundary_counts((k, l))
        assert len(certified) == 2
        for (xs, vals, ok), pts in zip(certified, scan_points((k, l))):
            # one batch of the two ends and the comb points between them,
            # all certified, and every comb value is far from zero
            assert xs.tolist() == pts
            assert ok.all()
            assert np.all(np.abs(vals[1:-1]) > 0.5)

    def test_short_comb_fails_valence(self, monkeypatch, capsys):
        # without its arc comb, (56, 20) keeps one of its three arc
        # changes: audit reports that lower bound and a valence finding,
        # and zero_brackets refuses the cells, so plotdata prints no row
        monkeypatch.setattr(zeros, "arc_sample_points", lambda wp: [])
        r = audit((56, 20))
        assert (r.A, r.B) == (1, 2)
        assert not r.valence_ok
        assert r.findings == (
            "valence identity fails at k=56, l=20: A=1, B=2, v_i=0, v_rho=1",
            "arc count 1 != 3 predicted at k=56, l=20")
        with pytest.raises(ArithmeticError, match="do not close") as info:
            zero_brackets((56, 20))
        assert not isinstance(info.value, SignUncertainError)
        capsys.readouterr()
        assert cli.main(["plotdata", "--kind", "zeros", "--k", "56",
                         "--l", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "do not close" in err

    @pytest.mark.parametrize("k, l", [(40, 16), (56, 20), (98, 72),
                                      (100, 14), (98, 96), (26, 18)])
    def test_audit_refines_nothing(self, k, l, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("audit refined a bracket")

        monkeypatch.setattr(zeros, "_refine_brackets", refuse)
        r = audit((k, l))
        assert r.valence_ok and r.findings == ()

    def test_uncertain_arc_end_is_named(self, monkeypatch):
        # the arc's lower end stays ambiguous on every rung; no point is
        # moved, so audit and zero_brackets both raise, naming that end
        end = blind_arc_end(monkeypatch)
        for run in (audit, zero_brackets):
            with pytest.raises(SignUncertainError) as info:
                run(WeightPair(56, 20))
            assert info.value.points == (end,)
            assert len(info.value.points) == 1

    def test_pieces_are_scanned_apart(self, monkeypatch):
        # the arc is blind at every point on every rung: the side count
        # never sees it, and the arc count names all its scan points
        real = zeros.arc_real_batch
        monkeypatch.setattr(zeros, "arc_real_batch", lambda wp, thetas, eps: (
            real(wp, thetas, eps)[0], np.full(len(thetas), np.inf)))
        assert count_side_zeros((56, 20))[0] == 2
        with pytest.raises(SignUncertainError) as info:
            count_arc_zeros((56, 20))
        assert info.value.points == tuple(scan_points((56, 20))[0])
        assert len(info.value.points) == 4

    def test_uncertain_arc_end_fails_plotdata(self, monkeypatch, capsys):
        # a certified check that fails exits 1, as it does in audit; exit 2
        # stays for a rejected configuration
        end = blind_arc_end(monkeypatch)
        capsys.readouterr()
        assert cli.main(["plotdata", "--kind", "zeros", "--k", "56",
                         "--l", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: 1 scan point(s) stayed sign-uncertain, "
                       f"first at {end:.12g}\n")


def blind_arc_end(monkeypatch):
    """Make the arc's lower scan end of (56, 20) uncertain on every rung,
    and return it."""
    end = scan_points((56, 20))[0][0]
    real = zeros.arc_real_batch

    def ev(wp, thetas, eps):
        vals, errs = real(wp, thetas, eps)
        return vals, np.where(np.asarray(thetas) == end, np.inf, errs)

    monkeypatch.setattr(zeros, "arc_real_batch", ev)
    return end


class TestValenceClosure:
    # a count that misses the valence total fails audit, and zero_brackets
    # refines every sign change of a closed comb scan

    @pytest.mark.parametrize("k, l", [(56, 20), (100, 58), (26, 18),
                                      (32, 24), (100, 14), (98, 96), (70, 40)])
    def test_closed_scan_matches_dense(self, k, l):
        # the comb scan closes the valence identity, and each bracket
        # zero_brackets refines lies in its own comb cell, with that
        # cell's end signs
        arc, side = boundary_scan((k, l))
        assert zeros._valence_closes(WeightPair(k, l), len(arc) + len(side))
        brackets = zero_brackets((k, l))
        cells = [("arc",) + c for c in arc] + [("side",) + c for c in side]
        assert len(brackets) == len(cells)
        for br, (kind, lo, hi, v_lo, v_hi) in zip(brackets, cells):
            assert br.kind == kind
            assert lo <= br.lo < br.hi <= hi
            assert (br.sign_lo, br.sign_hi) == (np.sign(v_lo), np.sign(v_hi))

    def test_wrong_sign_overshoot_fails_valence(self, monkeypatch):
        # a wrong sign at one side comb point removes the two changes
        # beside it; nothing rescues the count, which fails the identity
        pair = (100, 58)
        before = audit(pair)
        flip_side_sign(monkeypatch, pair)
        r = audit(pair)
        assert (r.A, r.B) == (before.A, before.B - 2)
        assert not r.valence_ok
        with pytest.raises(ArithmeticError, match="do not close"):
            zero_brackets(pair)

    # pairs above the 990-pair triangle (k > 100, k + l <= 400): in each
    # class (l mod 6, (k - l) mod 12), the corners of the region (smallest
    # k and l, largest k - l, largest l) and its middle in (l, k) order
    FAR_PAIRS = [
        p for cls in (
            [(k, l) for l in range(14, 201, 2)
             for k in range(max(l, 102), 401 - l, 2)
             if (l % 6, (k - l) % 12) == (lm, j)]
            for lm in (0, 2, 4) for j in range(0, 12, 2))
        for p in (cls[0], max(cls, key=lambda p: p[0] - p[1]), cls[-1],
                  cls[len(cls) // 2])]

    def test_comb_closes_above_triangle(self):
        assert len(set(self.FAR_PAIRS)) == 72
        wrong = [(pair, (r.A, r.B), (r.predicted_A, r.predicted_B))
                 for pair in self.FAR_PAIRS for r in [audit(pair)]
                 if not r.valence_ok
                 or (r.A, r.B) != (r.predicted_A, r.predicted_B)]
        assert wrong == []


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
            assert br.hi - br.lo <= 1e-12
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
            assert br.hi - br.lo <= 1e-12
            assert br.sign_lo * br.sign_hi == -1
            assert math.sqrt(3) / 2 < br.location < y_max

    def test_arc_count_reads_cutoff_through_public_name(self, monkeypatch):
        # perfbench's traced audit pins two side_upper_cutoff calls, one per
        # counter, so the arc counter reads the cutoff too, where a wrapper
        # of the module attribute sees it
        calls = []
        real = zeros.side_upper_cutoff

        def wrapped(wp):
            calls.append(wp)
            return real(wp)

        monkeypatch.setattr(zeros, "side_upper_cutoff", wrapped)
        zeros._side_upper_cutoff.cache_clear()
        count_arc_zeros((56, 22))
        assert calls == [WeightPair(56, 22)]

    def test_reaudit_keeps_the_cutoff(self, monkeypatch):
        # the cutoff is kept per pair, so auditing another pair in between
        # does not make a re-audit recompute the Fourier coefficients
        calls = []
        real = zeros._delta_log_coeffs
        monkeypatch.setattr(zeros, "_delta_log_coeffs",
                            lambda wp: calls.append(wp) or real(wp))
        zeros._side_upper_cutoff.cache_clear()
        first = audit((56, 22))
        audit((40, 16))
        assert calls == [WeightPair(56, 22), WeightPair(40, 16)]
        assert audit((56, 22)) == first
        assert len(calls) == 2

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

    def test_evaluations_climb_the_fixed_ladder(self, monkeypatch):
        # every evaluation the counters and zero_brackets make, in the comb
        # scan and the refinement, is at a rung of _EPS_LADDER; each batch
        # starts at the first rung and climbs one rung at a time.  (98, 72)
        # has probes that stay ambiguous, so every rung is reached
        seen = []
        for name in ("arc_real_batch", "side_normalized_batch"):
            def recording(wp, xs, eps, real=getattr(zeros, name)):
                seen.append(_EPS_LADDER.index(eps))
                return real(wp, xs, eps)
            monkeypatch.setattr(zeros, name, recording)
        count_arc_zeros((98, 72))
        count_side_zeros((98, 72))
        zero_brackets((98, 72))
        assert seen[0] == 0
        assert all(b in (0, a + 1) for a, b in zip(seen, seen[1:]))
        assert set(seen) == set(range(len(_EPS_LADDER)))


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

    def test_transient_pair_checked_against_prediction(self, monkeypatch,
                                                       capsys):
        # (56, 42) is transient, k = 56 < sp = 56.87: its counts (1, 5)
        # are still compared with expected_boundary_counts, so a zero
        # counted on the wrong piece is a finding though valence closes
        assert stabilization_point(42, 2) > 56
        real = zeros.expected_boundary_counts

        def moved(wp):
            a, b = real(wp)
            return (a + 1, b - 1) if (wp.k, wp.l) == (56, 42) else (a, b)

        monkeypatch.setattr(zeros, "expected_boundary_counts", moved)
        r = audit((56, 42))
        assert (r.A, r.B) == (1, 5)
        assert r.valence_ok
        assert r.findings == (
            "arc count 1 != 2 predicted at k=56, l=42",
            "side count 5 != 4 predicted at k=56, l=42")
        assert cli.main(["audit", "--k", "56", "--l", "42"]) == 1
        (row,) = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert row["valence_ok"] and row["interior"] == []
        assert row["findings"] == list(r.findings)

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
        assert all(br.hi - br.lo <= 1e-12 for br in brackets)

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
        row = cli._pair_report((100, 58))
        assert row["valence_ok"] is False
        assert row["interior"] == ["interior not excluded: boundary count "
                                   "does not close the valence identity"]
        assert cli.main(["audit", "--k", "100", "--l", "58"]) == 1
        assert cli.main(["scan", "--k-min", "100", "--k-max", "100",
                         "--l-min", "58", "--l-max", "58"]) == 1
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["interior_reports"] == 1
