"""Tests for the cusp-form combination E_k E_l - E_{k+l}.

Sample-point enumerations and reduced closed forms are recomputed
independently here; corner-derivative reference values were frozen from
symbolic differentiation (sympy) of the main terms before these tests
were written.
"""

import math

import numpy as np
import pytest

from eisenzeros.delta import (
    CornerDerivatives,
    WeightPair,
    arc_real_batch,
    corner_derivatives,
    m_main,
    p_main,
    side_normalized_batch,
)
from eisenzeros.eisenstein import eval_ek_lattice, fk_batch

PI = math.pi
SQRT3 = math.sqrt(3.0)
RHO = complex(0.5, SQRT3 / 2)


def arc_sample_angles(k, l):
    """(m, theta_m) for the arc sample comb on (pi/3, pi/2]."""
    n, j = divmod(k - l, 12)
    out = []
    r = j // 6 + 1
    while r <= n + j / 4:
        x = PI * (r - j / 6) / (12 * n + j)
        out.append((2 * n + r, PI / 3 + 2 * x))
        r += 1
    return out


def side_scaled(wp, ys, eps=1e-12):
    """|z|^(k+l) Delta(1/2+iy) and its bound: the normalized side
    restriction times |z|^k."""
    vals, errs = side_normalized_batch(wp, ys, eps)
    scale = np.abs(0.5 + 1j * ys) ** float(wp.k)
    return vals * scale, errs * scale


def delta_certified(k, l, z, eps=1e-12):
    """E_k(z) E_l(z) - E_{k+l}(z) from three lattice evaluations, with
    the error bound |E_k| t_l + |E_l| t_k + t_k t_l + t_{k+l} built from
    their truncation bounds t."""
    vk, tk = eval_ek_lattice(k, z, eps)
    vl, tl = eval_ek_lattice(l, z, eps)
    vkl, tkl = eval_ek_lattice(k + l, z, eps)
    return vk * vl - vkl, abs(vk) * tl + abs(vl) * tk + tk * tl + tkl


def side_sample_angles(l):
    """(d, theta_d) for the side sample comb on (pi/3, pi/2)."""
    q, a = divmod(l, 6)
    ds = {0: range(1, q), 2: range(1, q + 1), 4: range(2, q + 2)}[a]
    return [(d, PI / 3 + (PI / l) * (d - a / 3)) for d in ds]


class TestWeightPair:
    def test_decomposition_identities(self):
        for l in range(4, 49, 2):
            for k in range(l, l + 61, 2):
                if k + l in (8, 10, 14):
                    continue
                wp = WeightPair(k, l)
                assert k - l == 12 * wp.n + wp.j and 0 <= wp.j < 12
                assert wp.weight_sum == k + l

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            WeightPair(15, 14)
        with pytest.raises(ValueError):
            WeightPair(14, 2)
        with pytest.raises(ValueError):
            WeightPair(12, 14)

    def test_degenerate_sums_rejected(self):
        # E_k E_l - E_{k+l} vanishes identically at k + l = 8, 10, 14
        for k, l in [(4, 4), (6, 4), (10, 4), (8, 6)]:
            with pytest.raises(ValueError, match="identically"):
                WeightPair(k, l)


class TestEvalDelta:
    def test_degenerate_pairs_vanish_identically(self):
        # E_4^2 = E_8, E_4 E_6 = E_10, E_6 E_8 = E_4 E_10 = E_14; the
        # product combination must vanish to within its own certificate
        pts_44 = [complex(x, y)
                  for x in (-0.45, -0.2, 0.0, 0.25, 0.45)
                  for y in (0.9, 1.2, 1.9, 3.0)]
        pts_small = [complex(-0.3, 1.0), complex(0.0, 0.95),
                     complex(0.15, 1.4), complex(0.4, 2.2),
                     complex(-0.05, 2.8)]
        for (k, l), pts in [((4, 4), pts_44), ((6, 4), pts_small),
                            ((10, 4), pts_small), ((8, 6), pts_small)]:
            for z in pts:
                val, err = delta_certified(k, l, z)
                assert err < 1e-4
                assert abs(val) <= err + 1e-12, (k, l, z, abs(val), err)

    def test_corner_zero_forced_by_weight(self):
        # weight sum 20 carries a double zero at the hexagonal corner,
        # and both weight-4 and weight-16 factors vanish there too
        assert abs(delta_certified(16, 4, RHO)[0]) < 1e-10

    def test_side_product_identity(self):
        # |z|^(k+l) (E_k E_l - E_{k+l}) computed from the E-product route
        # must match the H-combination route used for side scans
        for (k, l), y in [((16, 12), 1.5), ((20, 14), 1.2)]:
            wp = WeightPair(k, l)
            z = complex(0.5, y)
            lhs = abs(z) ** (k + l) * delta_certified(k, l, z, eps=1e-14)[0]
            rhs, err = side_scaled(wp, np.array([y]), eps=1e-14)
            scale = max(1.0, abs(lhs))
            assert abs(lhs.imag) <= 1e-10 * scale
            assert abs(lhs.real - rhs[0]) <= 1e-10 * scale + err[0]


class TestArcRestriction:
    def test_quarter_turn_value_near_two(self):
        # at theta = pi/2 the main term is within 2^(2-l/2) of 2, and the
        # true arc value within a further 0.091
        for l in (14, 20, 28):
            wp = WeightPair(l + 8, l)
            assert abs(m_main(wp, PI / 2) - 2.0) <= 2.0 ** (2 - l / 2)
            value = arc_real_batch(wp, np.array([PI / 2]))[0][0]
            assert abs(value - 2.0) <= 2.0 ** (2 - l / 2) + 0.092

    def test_main_term_sandwich(self):
        thetas = np.linspace(PI / 3, PI / 2, 120)
        for k, l in [(14, 14), (26, 14), (40, 22), (50, 14), (36, 36),
                     (44, 26)]:
            wp = WeightPair(k, l)
            vals, errs = arc_real_batch(wp, thetas)
            main = np.array([m_main(wp, t) for t in thetas])
            assert np.max(np.abs(vals - main) - errs) <= 0.091

    def test_sample_signs_alternate(self):
        for k, l in [(50, 14), (62, 26)]:
            wp = WeightPair(k, l)
            samples = arc_sample_angles(k, l)
            assert len(samples) == 3
            for m, theta in samples:
                v = arc_real_batch(wp, np.array([theta]))[0][0]
                assert abs(v) > 0.5
                assert math.copysign(1.0, v) == (-1.0) ** m

    def test_no_samples_in_smallest_gap(self):
        assert arc_sample_angles(20, 14) == []

    def test_coarsest_eps_residue_within_tail(self):
        # at eps = 1e-6 the imaginary truncation residue of F_14 and F_22
        # at the arc scan ends of (22, 14) exceeds 1e-9 (about 2.7e-9 and
        # 1.5e-8) but stays within the tail bound fk_batch returns, so
        # neither evaluator raises, and the signs certify as at 1e-12
        h = (PI / 6) / (16 * 36)
        ends = np.array([PI / 3 + 0.5 * h, PI / 3 + (16 * 36 - 0.5) * h])
        for k in (14, 22, 36):
            (coarse,), (tail,) = fk_batch((k,), ends, 1e-6)
            (fine,), _ = fk_batch((k,), ends, 1e-12)
            assert np.all(np.abs(coarse - fine) <= tail)
        vals, errs = arc_real_batch(WeightPair(22, 14), ends, 1e-6)
        fine, _ = arc_real_batch(WeightPair(22, 14), ends, 1e-12)
        assert np.all(np.abs(vals) > 10.0 * errs)
        assert np.array_equal(np.sign(vals), np.sign(fine))


class TestMainTerms:
    def test_arc_main_reduced_form_at_samples(self):
        # at theta_m = pi/3 + 2x the main term collapses to
        # 2(-1)^r [1 + cos(l pi/6 + l x) (2i sin(pi/6+x))^(-l)
        #              (1 + (-1)^r (2i sin(pi/6+x))^(-(k-l)))]
        for k, l in [(50, 14), (64, 14), (58, 16), (46, 22), (60, 22),
                     (66, 18)]:
            n, j = divmod(k - l, 12)
            for m, theta in arc_sample_angles(k, l):
                r = m - 2 * n
                x = PI * (r - j / 6) / (12 * n + j)
                s = 2.0 * math.sin(PI / 6 + x)
                sl = s ** (-l) * (-1.0 if l % 4 else 1.0)
                skl = s ** (-(k - l)) * (-1.0 if (k - l) % 4 else 1.0)
                red = 2.0 * (-1.0) ** r * (
                    1.0 + math.cos(l * PI / 6 + l * x) * sl
                    * (1.0 + (-1.0) ** r * skl))
                assert m_main((k, l), theta) == pytest.approx(red, abs=1e-12)

    def test_side_main_reduced_form_at_samples(self):
        # at theta_d the side main term collapses to (-1)^d [1 +
        # rho^(k-l) cos((k-l) theta_d) (1 + (-1)^d rho^l)], rho = 2cos
        for k, l in [(56, 42), (54, 42), (52, 40), (48, 38), (44, 44)]:
            D = k - l
            for d, theta in side_sample_angles(l):
                c = 2.0 * math.cos(theta)
                red = (-1.0) ** d * (
                    1.0 + c ** D * math.cos(D * theta)
                    * (1.0 + (-1.0) ** d * c ** l))
                assert p_main((k, l), theta) == pytest.approx(red, abs=1e-12)

    def test_arc_main_corner_values(self):
        assert m_main((48, 12), PI / 3) == pytest.approx(6.0, abs=1e-12)
        assert m_main((54, 18), PI / 3) == pytest.approx(6.0, abs=1e-12)
        assert m_main((40, 26), PI / 3) == pytest.approx(3.0, abs=1e-12)
        # single zero at the corner for the first-derivative classes
        assert m_main((36, 22), PI / 3) == pytest.approx(0.0, abs=1e-12)

    def test_side_main_corner_values(self):
        assert p_main((48, 12), PI / 3) == pytest.approx(3.0, abs=1e-12)
        assert p_main((38, 22), PI / 3) == pytest.approx(-1.5, abs=1e-12)

    def test_side_samples_lower_bound(self):
        worst = math.inf
        for l in range(14, 61, 2):
            for dk in (0, 2, 6, 12, 20, 36):
                for d, theta in side_sample_angles(l):
                    v = (-1.0) ** d * p_main((l + dk, l), theta)
                    worst = min(worst, v)
        assert worst >= 0.17

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            m_main((20, 14), 1.0)        # below the corner slack
        with pytest.raises(ValueError):
            p_main((20, 14), PI / 2)     # side form excludes pi/2


class TestSideRescaling:
    def test_near_corner_sandwich(self):
        # within the near-corner band the side restriction is pinned to
        # its main term within 0.01 (measured margin is ~1e3 larger)
        ys = np.linspace(SQRT3 / 2 + 1e-3, 1.0, 7)
        thetas = np.arctan2(ys, 0.5)
        for l in (40, 46):
            for k in (l, l + 12, 2 * l):
                wp = WeightPair(k, l)
                scaled, errs = side_scaled(wp, ys)
                main = np.array(
                    [2.0 * (0.25 + y * y) ** (k / 2) * p_main(wp, t)
                     for y, t in zip(ys, thetas)])
                assert np.max(np.abs(scaled - main) - errs) <= 0.01


class TestCornerDerivatives:
    # reference values frozen from symbolic differentiation of the main
    # terms at pi/3 (they disagree with a naive reading of the usual
    # printed polynomial for the (l%6, k%6) = (0, 2) class; the symbolic
    # and finite-difference values agree with each other)
    FROZEN = {
        (36, 22): dict(p_prime=8 * SQRT3, m_prime=8 * SQRT3),
        (42, 22): dict(p_prime=2 * SQRT3, m_prime=-2 * SQRT3),
        (34, 24): dict(p_prime=44 * SQRT3),
        (38, 24): dict(p_double_prime=1080.0, m_double_prime=-540.0),
        (44, 24): dict(p_double_prime=2496.0, m_double_prime=1248.0),
        (46, 22): dict(p_double_prime=2760.0, m_double_prime=1380.0),
        (52, 22): dict(p_double_prime=2628.0, m_double_prime=-1314.0),
    }

    def test_frozen_values(self):
        for (k, l), expected in self.FROZEN.items():
            cd = corner_derivatives(WeightPair(k, l))
            for field, want in expected.items():
                assert getattr(cd, field) == pytest.approx(want, rel=1e-12), \
                    (k, l, field)

    @staticmethod
    def _fd1(f, wp, h=1e-4):
        return (f(wp, PI / 3 + h) - f(wp, PI / 3 - h)) / (2 * h)

    @staticmethod
    def _fd2(f, wp, h=1e-4):
        return (f(wp, PI / 3 + h) - 2 * f(wp, PI / 3) + f(wp, PI / 3 - h)) \
            / (h * h)

    def test_first_derivatives_match_fd(self):
        for k, l in [(36, 22), (42, 22), (48, 28), (22, 12), (34, 24),
                     (28, 12)]:
            cd = corner_derivatives(WeightPair(k, l))
            if cd.p_prime is not None:
                assert self._fd1(p_main, (k, l)) == pytest.approx(
                    cd.p_prime, rel=1e-4)
            if cd.m_prime is not None:
                assert self._fd1(m_main, (k, l)) == pytest.approx(
                    cd.m_prime, rel=1e-4)

    def test_second_derivatives_match_fd(self):
        for k, l in [(26, 12), (38, 24), (44, 24), (32, 18), (28, 16),
                     (46, 22), (52, 22), (40, 28)]:
            cd = corner_derivatives(WeightPair(k, l))
            if cd.p_double_prime is not None:
                assert self._fd2(p_main, (k, l)) == pytest.approx(
                    cd.p_double_prime, rel=1e-4)
            if cd.m_double_prime is not None:
                assert self._fd2(m_main, (k, l)) == pytest.approx(
                    cd.m_double_prime, rel=1e-4)
            # second-derivative classes carry a flat corner tangent;
            # central-difference truncation alone is O(k^3 h^2 / 6)
            assert abs(self._fd1(m_main, (k, l))) < 1e-8 * k ** 3

    def test_sign_flip_between_offset_classes(self):
        # first-derivative arc form: offsets 2 and 8 mod 12 carry
        # opposite signs for the same (k%6, l%6) class
        a = corner_derivatives(WeightPair(36, 22)).m_prime   # j = 2
        b = corner_derivatives(WeightPair(42, 22)).m_prime   # j = 8
        assert a > 0 > b
        # second-derivative arc form: offsets 0 and 6 likewise
        c = corner_derivatives(WeightPair(46, 22)).m_double_prime  # j = 0
        d = corner_derivatives(WeightPair(52, 22)).m_double_prime  # j = 6
        assert c > 0 > d

    def test_uncovered_class_raises(self):
        with pytest.raises(ValueError, match="no closed form"):
            corner_derivatives(WeightPair(38, 26))   # (k%6, l%6) = (2, 2)
