"""Tests for the Eisenstein evaluators, rescalings, theta, and regimes.

The lattice evaluator is the ground truth in the fundamental domain; the
Fourier route and the asymptotic regimes are checked against it.  Expected
values are either structural zeros (CM points), cross-evaluator agreements,
or hand-assembled log-space sums; none are copied from the implementation.
"""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros.eisenstein import (
    _BLOCK_TERMS,
    Regime,
    _drow_tail,
    _lattice_blocks,
    _truncation_radius,
    ThetaArgs,
    UpperHalfPoint,
    ek_minus_one_fourier,
    eval_ek_fourier,
    eval_ek_lattice,
    fk,
    fk_batch,
    fk_main_terms,
    gk,
    gk_fourier,
    gk_regime_approx,
    hk,
    hk_batch,
    hk_side_regimes,
    jacobi_theta,
    phi0,
    phi1,
    rk_tail_bound,
    theta_eisenstein_transformed,
)
from eisenzeros.numerics import LogComplex, bernoulli, gamma_k, lc_sum

RHO = cmath.exp(1j * math.pi / 3)


# --- oracles -------------------------------------------------------------

def theta_direct(w: complex, tau: complex, n_max: int = 20) -> complex:
    """Direct summation of the theta series, independent of the package."""
    total = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        base = 1j * math.pi * n * n * tau
        total += cmath.exp(base + 2j * math.pi * n * w)
        total += cmath.exp(base - 2j * math.pi * n * w)
    return total


def sigma_log(k1: int, n: int) -> float:
    """log sigma_{k1}(n), assembled separately from the package."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    top = max(divisors)
    return k1 * math.log(top) + math.log(
        math.fsum((d / top) ** k1 for d in divisors))


class TestUpperHalfPoint:
    def test_rejects_lower_half(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, -1.0)

    def test_fundamental_domain_flag(self):
        assert UpperHalfPoint(0.5, 2.0).in_fundamental_domain()
        assert not UpperHalfPoint(0.51, 2.0).in_fundamental_domain()
        assert not UpperHalfPoint(0.0, 0.9).in_fundamental_domain()

    @given(st.floats(0.1, 3.0), st.floats(0.05, math.pi - 0.05))
    @settings(max_examples=60, deadline=None)
    def test_polar_cartesian_round_trip(self, radius, theta):
        p = UpperHalfPoint.from_polar(radius, theta)
        assert math.isclose(p.radius, radius, rel_tol=1e-15)
        assert math.isclose(p.theta, theta, rel_tol=2e-15, abs_tol=1e-15)


class TestLatticeEvaluator:
    def test_vanishes_at_i_weight_6(self):
        val, _ = eval_ek_lattice(6, 1j, 1e-12)
        assert abs(val) < 1e-11

    def test_vanishes_at_corner_weight_4(self):
        val, _ = eval_ek_lattice(4, RHO, 1e-12)
        assert abs(val) < 1e-11

    def test_agrees_with_fourier_spot(self):
        z = 0.5 + 3j
        lat, tail = eval_ek_lattice(20, z, 1e-12)
        assert tail <= 1e-12
        fou = eval_ek_fourier(20, z)
        assert abs(lat - fou) / abs(fou) < 1e-9

    def test_cross_evaluator_random(self):
        rng = random.Random(20240816)
        for _ in range(200):
            k = 2 * rng.randint(4, 30)
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 20.0))
            lat, _ = eval_ek_lattice(k, z, 1e-12)
            fou = eval_ek_fourier(k, z)
            assert abs(lat - fou) / abs(fou) < 1e-8, (k, z)

    def test_compensated_pass_consistent(self):
        z = 0.5 + 1.2j
        plain, _ = eval_ek_lattice(12, z, 1e-12)
        comp, _ = eval_ek_lattice(12, z, 1e-12, compensated=True)
        assert abs(plain - comp) < 1e-13 * abs(comp)

    def test_accepts_domain_point_type(self):
        p = UpperHalfPoint(0.5, 3.0)
        v1, _ = eval_ek_lattice(20, p, 1e-12)
        v2, _ = eval_ek_lattice(20, 0.5 + 3j, 1e-12)
        assert v1 == v2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eval_ek_lattice(7, 2j)
        with pytest.raises(ValueError):
            eval_ek_lattice(2, 2j)
        with pytest.raises(ValueError):
            eval_ek_lattice(12, 2j, eps=1e-16)
        with pytest.raises(ValueError):
            eval_ek_lattice(12, 0.5 + 0.5j)
        with pytest.raises(ValueError):
            eval_ek_lattice(12, 0.7 + 2j)


class TestFourierEvaluator:
    def test_two_term_log_space(self):
        # E_16 - 1 at y = 40 against a hand-built two-term log sum;
        # the n = 3 correction is ~ e^(-485) relative, far below double
        # precision, so the log magnitudes must match to roundoff.
        k, z = 16, complex(0.3, 40.0)
        g = gamma_k(k)
        assert g.phase == 0.0  # k/2 even, positive coefficient
        terms = [
            LogComplex.from_polar(
                g.log_mag + sigma_log(k - 1, n) - 2 * math.pi * n * z.imag,
                2 * math.pi * n * z.real)
            for n in (1, 2)
        ]
        hand = lc_sum(terms)
        got = ek_minus_one_fourier(k, z)
        assert abs(got.log_mag - hand.log_mag) < 1e-12
        assert abs(got.phase - hand.phase) < 1e-12

    def test_gamma_16_value(self):
        # -2k/B_k for k=16: B_16 = -3617/510
        assert bernoulli(16).numerator == -3617
        g = gamma_k(16)
        assert math.isclose(math.exp(g.log_mag), 16320.0 / 3617.0,
                            rel_tol=1e-12)

    def test_central_term_size(self):
        # In the y^k-rescaled window sum (2 pi y)^k/Gamma(k) sum n^(k-1) e(nz)
        # the term at n = k/(2 pi y) has magnitude comparable to y / sqrt(k).
        k = 100
        y = k / (6.0 * math.pi)
        term = math.exp(k * math.log(2.0 * math.pi * y) - math.lgamma(k)
                        + (k - 1) * math.log(3.0) - 2.0 * math.pi * 3 * y)
        ratio = term / (y / math.sqrt(k))
        assert 0.2 <= ratio <= 5.0

    def test_rejects_low_y(self):
        with pytest.raises(ValueError):
            eval_ek_fourier(12, 0.2 + 0.9j)


class TestRescalings:
    def test_fk_real_across_samples(self):
        # the batch evaluator raises if the imaginary residue reaches 1e-9
        thetas = np.linspace(math.pi / 3, 2 * math.pi / 3, 72)
        for k in range(14, 42, 2):
            vals, _ = fk_batch(k, thetas)
            assert np.isfinite(vals).all()

    def test_fk_scalar_matches_batch(self):
        thetas = np.linspace(math.pi / 3, math.pi / 2, 7)
        vals, _ = fk_batch(20, thetas)
        for th, v in zip(thetas, vals):
            assert math.isclose(fk(20, th), v, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("k", [14, 24, 40])
    def test_gk_arc_identity(self, k):
        # G_k(e^(i theta)) = e^(ik theta/2) F_k(theta) - e^(ik theta):
        # subtracting the constant term costs the full-phase exponential
        for th in np.linspace(math.pi / 3 + 0.01, 2 * math.pi / 3 - 0.01, 25):
            lhs = gk(k, cmath.exp(1j * th))
            rhs = (cmath.exp(0.5j * k * th) * fk(k, th)
                   - cmath.exp(1j * k * th))
            assert abs(lhs - rhs) < 1e-9

    def test_hk_growth_bound(self):
        assert abs(hk(12, 0.5 + 5j)) <= 3.0 * (1.0 + 5.0 / math.sqrt(12))

    def test_hk_gk_same_magnitude(self):
        for z in (0.5 + 1.1j, -0.3 + 2j, 0.2 + 4j):
            assert math.isclose(abs(hk(20, z)), abs(gk(20, z)),
                                rel_tol=1e-12)

    def test_hk_real_on_side(self):
        vals, _ = hk_batch(30, np.linspace(1.0, 8.0, 40))
        assert np.abs(vals.imag).max() < 1e-9

    def test_hk_matches_scalar_eval(self):
        # H_k = |z|^k (E_k - 1) against the plain evaluator, where E_k - 1
        # is still representable; the tolerance carries the |z|^k-amplified
        # roundoff floor of the subtraction from 1
        for k, y in ((12, 1.3), (16, 1.6), (20, 2.0)):
            z = complex(0.5, y)
            ek, _ = eval_ek_lattice(k, z, 1e-13)
            expect = abs(z) ** k * (ek - 1.0)
            tol = 1e-11 + 2e-15 * abs(z) ** k
            assert abs(hk(k, z) - expect) <= tol

    @pytest.mark.parametrize("k", [8, 14, 100, 200])
    def test_drow_tail_matches_hurwitz_zeta(self, k):
        # |z|^k sum_{d > D} d^(-k) = |z|^k zeta(k, D + 1) at 50 digits for a
        # batch of |z| up to 30.  With D from hk_batch's own truncation
        # radius for the batch's largest |z| the tail is ~1e-15 and the gap
        # stays within the batch remainder plus 1e-15; with the smallest D
        # hk_batch allows the tail is O(1) and the gap is roundoff relative
        # to it (k log|z| amplifies one ulp of the exponent)
        radii = (0.9, 1.5, 3.0, 7.0, 15.0, 30.0)
        for top in range(len(radii)):
            az = np.array(radii[:top + 1])
            z_hi = complex(0.5, math.sqrt(az[-1] ** 2 - 0.25))
            t, _ = _truncation_radius(k, z_hi, 1e-12, k * math.log(az[-1]))
            for d_start, rtol, atol in (
                    (math.floor(t), 0.0, 1e-15),
                    (math.floor(1.0001 * (1.0 + az[-1])), 1e-12, 0.0)):
                vals, rem = _drow_tail(k, np.log(az), d_start)
                with mpmath.workdps(50):
                    for a, v in zip(az, vals):
                        exact = (mpmath.mpf(a) ** k
                                 * mpmath.zeta(k, d_start + 1))
                        gap = abs(mpmath.mpf(float(v)) - exact)
                        assert gap <= rem + atol + rtol * exact, (k, a, d_start)

    def test_hk_matches_fourier_when_e_minus_one_underflows(self):
        # at k = 40, y = 5 the true E_k - 1 is ~ e^(-64), lost entirely in
        # (ek - 1.0); the ratio-term path and the log-space q-expansion
        # must still agree on the O(1) rescaled value
        z = 0.5 + 5j
        lat = hk(40, z)
        fou = gk_fourier(40, z)
        assert math.isclose(abs(lat), abs(fou), rel_tol=1e-9)


def ek_minus_one_mp(k: int, z: complex) -> "mpmath.mpc":
    """E_k(z) - 1 = gamma_k sum sigma_{k-1}(n) q^n at the working precision,
    summed directly rather than as E_k minus 1 (which loses every digit
    once E_k - 1 is far below 1)."""
    gamma = -2 * k / mpmath.bernoulli(k)
    q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(z))
    floor = mpmath.mpf(10) ** (-mpmath.mp.dps - 10)
    total = mpmath.mpc(0)
    qn = mpmath.mpc(1)
    n = 0
    while True:
        n += 1
        qn *= q
        sigma = sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        term = gamma * sigma * qn
        total += term
        # terms fall for good once n passes the peak at k / (2 pi y)
        if n > k and abs(term) < floor * (abs(total) + 1):
            return total


class TestLatticeKernel:
    @pytest.mark.parametrize(
        "k", [4, 8, 98, 100, 102, 150, 200, 202, 210, 302, 400])
    def test_term_matches_mpmath(self, k):
        # (s (cz + d))^(-k) against 30 digits from the same float inputs.
        # k = 202, 210, 302 have an odd k // 2 above the squaring limit,
        # so their power needs the extra division by u
        zs = np.array([0.5 + 0.87j, -0.31 + 1.3j, 0.12 + 4.7j, 0.5 + 11.0j])
        s = 1.0 / np.abs(zs)
        c = np.array([1.0, 1.0, 2.0, 3.0, 5.0, 1.0])
        d = np.array([-1.0, 0.0, 1.0, -2.0, 3.0, 4.0])
        for scale in (None, s):
            (block,) = _lattice_blocks(zs, c, d, k, scale)
            with mpmath.workdps(30):
                for i, z in enumerate(zs):
                    si = 1 if scale is None else mpmath.mpf(float(scale[i]))
                    for j in range(c.size):
                        u = si * (mpmath.mpf(c[j]) * mpmath.mpc(z)
                                  + mpmath.mpf(d[j]))
                        exact = u ** (-k)
                        got = mpmath.mpc(complex(block[i, j]))
                        if abs(exact) < 2.0 ** -1000:
                            # underflow: only negligibility is owed
                            assert abs(got) <= 2.0 ** -990
                            continue
                        rel = abs(got - exact) / abs(exact)
                        assert rel <= 4 * k * 2.0 ** -53, (k, z, c[j], d[j])

    def test_blocks_cover_the_pair_set_in_order(self):
        zs = np.array([0.5 + 1.0j, 0.5 + 1.5j, 0.5 + 2.0j])
        n_pairs = 3 * _BLOCK_TERMS // zs.size + 5
        c = np.ones(n_pairs)
        d = np.arange(n_pairs, dtype=np.float64)
        blocks = list(_lattice_blocks(zs, c, d, 12))
        assert len(blocks) == 4
        assert all(b.size <= _BLOCK_TERMS for b in blocks)
        whole = (np.multiply.outer(zs, c) + d) ** -12
        assert np.array_equal(np.concatenate(blocks, axis=1), whole)

    @pytest.mark.parametrize("k", [14, 58, 100, 158])
    def test_hk_batch_oracle_fence(self, k):
        # a fence, not the reported bound: that bound covers truncation
        # only, while this gap is mostly rounding
        ys = np.array([0.87, 1.0, 1.4, 2.5, 4.0, 7.5])
        vals, _ = hk_batch(k, ys)
        with mpmath.workdps(50):
            for y, v in zip(ys, vals):
                z = complex(0.5, y)
                exact = abs(mpmath.mpc(z)) ** k * ek_minus_one_mp(k, z)
                assert abs(mpmath.mpc(complex(v)) - exact) <= 1e-13, (k, y)

    @pytest.mark.parametrize("k", [14, 58, 100, 158])
    def test_fk_batch_oracle_fence(self, k):
        thetas = np.array([math.pi / 3 + 1e-3, 1.2, 1.4, math.pi / 2,
                           1.9, 2 * math.pi / 3 - 1e-3])
        vals, _ = fk_batch(k, thetas)
        with mpmath.workdps(50):
            for th, v in zip(thetas, vals):
                z = cmath.exp(1j * th)
                exact = mpmath.exp(0.5j * k * mpmath.mpf(th)) * (
                    1 + ek_minus_one_mp(k, z))
                assert abs(mpmath.mpf(float(v)) - exact) <= 1e-13, (k, th)


class TestArcMainTerms:
    def test_tail_bound_weight_14(self):
        assert rk_tail_bound(14) <= 7.3e-3

    def test_two_term_deviation_bound(self):
        for th in np.linspace(math.pi / 3, math.pi / 2, 200):
            assert abs(fk(14, th) - 2.0 * math.cos(7.0 * th)) <= 1.016

    def test_main_terms_sandwich_spot(self):
        assert abs(fk(24, 1.2) - fk_main_terms(24, 1.2)) <= rk_tail_bound(24)

    @pytest.mark.parametrize("k", [14, 20, 30, 40])
    def test_main_terms_sandwich_grid(self, k):
        thetas = np.linspace(math.pi / 3, math.pi / 2, 60)
        vals, _ = fk_batch(k, thetas)
        bound = rk_tail_bound(k)
        for th, v in zip(thetas, vals):
            assert abs(v - fk_main_terms(k, th)) <= bound

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            fk_main_terms(12, 1.2)
        with pytest.raises(ValueError):
            fk_main_terms(20, 1.7)


class TestJacobiTheta:
    def test_value_at_origin(self):
        got = jacobi_theta(ThetaArgs(0.0, 1j))
        assert abs(got - theta_direct(0.0, 1j)) < 1e-14
        assert math.isclose(got.real, 1.086434811213308, rel_tol=1e-12)
        assert got.imag == 0.0

    def test_shift_periodicity(self):
        rng = random.Random(7)
        for _ in range(20):
            w = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3))
            a = jacobi_theta(ThetaArgs(w, tau))
            b = jacobi_theta(ThetaArgs(w + 1.0, tau))
            assert abs(a - b) < 1e-12 * (abs(a) + 1.0)

    def test_modularity_identity(self):
        # theta(w/tau, -1/tau) = (-i tau)^(1/2) exp(pi i w^2 / tau) theta(w, tau)
        rng = random.Random(20240816)
        for _ in range(100):
            w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 10))
            lhs = jacobi_theta(ThetaArgs(w / tau, -1.0 / tau))
            rhs = (cmath.sqrt(-1j * tau)
                   * cmath.exp(1j * math.pi * w * w / tau)
                   * jacobi_theta(ThetaArgs(w, tau)))
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_rejects_lower_tau(self):
        with pytest.raises(ValueError):
            ThetaArgs(0.0, -1j)


class TestRegimeApprox:
    def test_small_y_example(self):
        k, z = 200, 0.5 + 2j
        approx = gk_regime_approx(k, z)
        assert approx.regime is Regime.SMALL_Y
        truth = gk(k, z)
        assert abs(approx.value - truth) <= approx.error_envelope
        assert approx.error_envelope == pytest.approx(
            10.0 * math.exp(-200 ** (1 / 6)))

    def test_theta_mid_example(self):
        k = 200
        z = complex(0.5, math.sqrt(200.0))
        approx = gk_regime_approx(k, z)
        assert approx.regime is Regime.THETA_MID
        truth = gk(k, z)
        assert abs(approx.value - truth) <= approx.error_envelope
        assert approx.error_envelope == pytest.approx(
            10.0 * 200 ** 0.5 / 200 ** (2 / 3))

    def test_theta_mid_modularity_form(self):
        for k, y in ((200, math.sqrt(200.0)), (300, 25.0)):
            z = complex(0.5, y)
            direct = jacobi_theta(ThetaArgs.for_eisenstein(k, z))
            transformed = theta_eisenstein_transformed(k, z)
            assert abs(direct - transformed) < 1e-10

    def test_fourier_large_branch(self):
        k, z = 200, 0.5 + 40j
        approx = gk_regime_approx(k, z)
        assert approx.regime is Regime.FOURIER_LARGE
        truth = gk(k, z)
        assert abs(approx.value - truth) <= approx.error_envelope

    def test_boundary_goes_low(self):
        k = 200
        approx = gk_regime_approx(k, complex(0.5, k ** 0.4))
        assert approx.regime is Regime.SMALL_Y


class TestSideRegimes:
    def test_small_y_example_weight_300(self):
        approx = hk_side_regimes(300, 2.0)
        expect = 2.0 * (-1) ** 150 * math.cos(300 * math.atan(0.25))
        assert approx.value == pytest.approx(expect)
        assert approx.error_envelope <= 10.0 * math.exp(-300 ** (1 / 6))
        truth = hk(300, 0.5 + 2j)
        assert abs(approx.value - truth.real) <= approx.error_envelope

    def test_cos_form_consistency(self):
        # 2(-1)^(k/2) cos(k phi) = 2cos(k theta) when theta + phi = pi/2
        for k in (12, 26, 40):
            for y in np.linspace(0.9, 3.0, 9):
                phi = math.atan(0.5 / y)
                theta = cmath.phase(complex(0.5, y))
                lhs = 2.0 * (-1) ** (k // 2) * math.cos(k * phi)
                assert math.isclose(lhs, 2.0 * math.cos(k * theta),
                                    rel_tol=0, abs_tol=1e-9)

    def test_resonance_sign_weight_400(self):
        k, n_idx = 400, 3
        y = k / (2.0 * math.pi * n_idx)
        approx = hk_side_regimes(k, y, N=n_idx)
        sign = (-1) ** (n_idx + k // 2)
        assert math.copysign(1.0, approx.value) == sign
        truth = hk(k, complex(0.5, y))
        assert math.copysign(1.0, truth.real) == sign

    def test_resonance_value_within_envelope(self):
        k, n_idx = 400, 3
        y = k / (2.0 * math.pi * n_idx)
        approx = hk_side_regimes(k, y, N=n_idx)
        truth = hk(k, complex(0.5, y))
        assert abs(approx.value - truth.real) <= approx.error_envelope

    def test_requires_index_above_sqrt_k(self):
        with pytest.raises(ValueError):
            hk_side_regimes(400, 21.0)
        with pytest.raises(ValueError):
            hk_side_regimes(400, 21.0, N=5)  # wrong resonance window


class TestPhiEnvelopes:
    def test_phi1_geometric_domination(self):
        for r in np.linspace(0.1, 5.0, 50):
            q = math.exp(-math.pi * r)
            assert phi1(r) <= 2.0 * q / (1.0 - q) + 1e-15

    def test_phi0_small_r(self):
        assert phi0(0.2) < 1e-10

    def test_monotone(self):
        rs = np.linspace(0.05, 8.0, 100)
        p0 = [phi0(r) for r in rs]
        p1 = [phi1(r) for r in rs]
        assert all(a <= b + 1e-15 for a, b in zip(p0, p0[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(p1, p1[1:]))

    def test_overlap_at_r_2(self):
        assert phi0(2.0) < 2.0
        assert phi1(2.0) < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            phi0(0.0)
        with pytest.raises(ValueError):
            phi1(-1.0)


def abs_tail_c_ge_2(k: int, z: complex) -> float:
    """|z|^k sum over |c| >= 2, |d| >= 1 of |cz+d|^(-k), direct."""
    y = z.imag
    total = 0.0
    c = 2
    while (abs(z) / (c * y)) ** k * (c * y) > 1e-25 or c < 5:
        center = -c * z.real
        ds = np.arange(math.floor(center - 300), math.ceil(center + 300) + 1)
        ds = ds[ds != 0]
        w2 = (c * z.real + ds) ** 2 + (c * y) ** 2
        total += 2.0 * float((np.sqrt(w2) ** (-k)).sum())
        c += 1
        if c > 2000:
            break
    return abs(z) ** k * total


class TestTailLemmas:
    @pytest.mark.parametrize("k", [12, 20, 40])
    def test_c_tail_bound(self, k):
        rng = random.Random(99)
        for _ in range(20):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 6.0))
            bound = 5.0 * 3.0 ** (-0.5 * k) * (1.0 + z.imag / math.sqrt(k))
            assert abs_tail_c_ge_2(k, z) <= bound, z

    @pytest.mark.parametrize("k", [20, 60])
    @pytest.mark.parametrize("d_min", [2, 5])
    @pytest.mark.parametrize("y", [1.0, 3.0, 10.0])
    def test_d_tail_bound(self, k, d_min, y):
        z = complex(0.5, y)
        ds = np.concatenate([np.arange(d_min, d_min + 100000),
                             -np.arange(d_min, d_min + 100000)])
        ratio2 = (abs(z) ** 2) / ((z.real + ds) ** 2 + y * y)
        tail = float((ratio2 ** (0.5 * k)).sum())
        bound = 5.0 * y * ((0.25 + y * y)
                           / ((d_min - 0.5) ** 2 + y * y)) ** (0.5 * k)
        assert tail <= bound

    def test_sin_power_decreasing(self):
        xs = np.logspace(math.log10(1.2001), 3, 1000)
        vals = -xs * np.log(2.0 * np.sin(math.pi / 6 + math.pi / xs))
        assert (np.diff(vals) <= 1e-12).all()

    def test_cos_power_increasing(self):
        xs = np.logspace(math.log10(3.0), 3, 1000)
        vals = xs * np.log(2.0 * np.cos(math.pi / 3 + math.pi / (2 * xs)))
        assert (np.diff(vals) >= -1e-12).all()

    def test_sin_power_eighth_bound(self):
        # equality at n = 6 ((sqrt 2)^(-6) = 1/8), so allow roundoff
        for n in range(6, 201):
            theta = math.pi / 3 + math.pi / n
            assert (2.0 * math.sin(0.5 * theta)) ** (-n) <= 0.125 * (1 + 1e-12)
