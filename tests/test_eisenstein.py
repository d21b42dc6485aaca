"""Tests for the Eisenstein evaluators, rescalings, theta, and regimes.

The lattice evaluator is the ground truth in the fundamental domain; the
Fourier route and the asymptotic regimes, restated here from the paper,
are checked against it.  Expected
values are either structural zeros (CM points), cross-evaluator agreements,
or hand-assembled log-space sums; none are copied from the implementation.
"""

import cmath
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros import eisenstein, zeros
from eisenzeros.cli import main
from eisenzeros.eisenstein import (
    _BLOCK_TERMS,
    _MIN_EPS,
    _PAIR_BUDGET,
    _check_phi_range,
    _drow_tail,
    _lattice_sum,
    _neg_power,
    _truncation_radius,
    ThetaArgs,
    ek_minus_one_fourier,
    eval_ek_fourier,
    eval_ek_lattice,
    fk_batch,
    gk,
    gk_fourier,
    hk_batch,
    jacobi_theta,
    phi0,
    phi1,
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


def hk(k: int, z: complex) -> complex:
    """H_k(z) = |z|^k (E_k(z) - 1) at one point, from hk_batch."""
    (vals,), _ = hk_batch((k,), np.array([z.imag]), x=z.real)
    return complex(vals[0])


def fk_main_terms(k: int, theta: float) -> float:
    """The paper's arc main terms of F_k, for theta in [pi/3, pi/2]:
    2cos(k theta/2) + (2cos(theta/2))^(-k) + (2i sin(theta/2))^(-k), the
    last as (-1)^(k/2) (2sin(theta/2))^(-k)."""
    sign = 1.0 if k % 4 == 0 else -1.0
    return (2.0 * math.cos(0.5 * k * theta)
            + (2.0 * math.cos(0.5 * theta)) ** (-k)
            + sign * (2.0 * math.sin(0.5 * theta)) ** (-k))


def rk_tail_bound(k: int) -> float:
    """The paper's bound on what the arc main terms leave out, k >= 14:
    4 (5/2)^(-k/2) + (20 sqrt2 / (k-3)) (9/2)^((3-k)/2)."""
    return (4.0 * 2.5 ** (-0.5 * k)
            + (20.0 * math.sqrt(2.0) / (k - 3.0)) * 4.5 ** (0.5 * (3.0 - k)))


def theta_args(k: int, z: complex) -> ThetaArgs:
    """(w, tau) of the Eisenstein theta specialization: w = k/(2 pi y) +
    i x / r and tau = i / r, with r = 2 pi y^2 / k."""
    y = z.imag
    r = 2.0 * math.pi * y * y / k
    return ThetaArgs(complex(k / (2.0 * math.pi * y), z.real / r),
                     complex(0.0, 1.0 / r))


# the O(1) constant of the regime envelopes, which the paper leaves open
C_ENV = 10.0


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

    def test_every_lattice_evaluator_keeps_the_certificate_floor(self):
        # a tail bound below roundoff certifies nothing: hk_batch and
        # fk_batch size their disks through the same radius as
        # eval_ek_lattice
        floor = "certificate floor"
        with pytest.raises(ValueError, match=floor):
            hk_batch((20,), np.array([1.0, 2.0]), 1e-16)
        with pytest.raises(ValueError, match=floor):
            fk_batch((20,), np.array([1.2, 1.4]), 1e-16)

    def test_one_floor_for_evaluators_ladder_and_cli(self, capsys, tmp_path):
        below = math.nextafter(_MIN_EPS, 0.0)
        eval_ek_lattice(12, 2j, eps=_MIN_EPS)
        with pytest.raises(ValueError, match="certificate floor"):
            eval_ek_lattice(12, 2j, eps=below)
        assert zeros._EPS_LADDER[-1] == _MIN_EPS
        argv = ["eval", "--k", "12", "--z", "2i", "--eps"]
        assert main(argv + [repr(_MIN_EPS)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.json"
        assert main(argv + [repr(below), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: eps must lie in [{_MIN_EPS:g}, 1e-06], got {below:g}\n")
        assert not out.exists()


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
        with pytest.raises(ValueError, match="y >= 1"):
            eval_ek_fourier(12, complex(0.2, math.nan))


@pytest.mark.parametrize("evaluator", [eval_ek_lattice, gk, eval_ek_fourier])
def test_rejects_nan_real_part(evaluator):
    # NaN fails every comparison, so the domain checks must be written to
    # reject what does not pass them
    with pytest.raises(ValueError, match="supported strip|non-finite"):
        evaluator(12, complex(math.nan, 2.0))


class TestRescalings:
    def test_fk_real_across_samples(self):
        # the batch evaluator raises if the imaginary residue reaches 1e-9
        thetas = np.linspace(math.pi / 3, 2 * math.pi / 3, 72)
        for k in range(14, 42, 2):
            (vals,), _ = fk_batch((k,), thetas)
            assert np.isfinite(vals).all()

    def test_fk_scalar_matches_batch(self):
        thetas = np.linspace(math.pi / 3, math.pi / 2, 7)
        (vals,), _ = fk_batch((20,), thetas)
        for th, v in zip(thetas, vals):
            single = fk_batch((20,), np.array([th]))[0][0, 0]
            assert math.isclose(single, v, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("k", [14, 24, 40])
    def test_gk_arc_identity(self, k):
        # G_k(e^(i theta)) = e^(ik theta/2) F_k(theta) - e^(ik theta):
        # subtracting the constant term costs the full-phase exponential
        for th in np.linspace(math.pi / 3 + 0.01, 2 * math.pi / 3 - 0.01, 25):
            lhs = gk(k, cmath.exp(1j * th))
            f = fk_batch((k,), np.array([th]))[0][0, 0]
            rhs = cmath.exp(0.5j * k * th) * f - cmath.exp(1j * k * th)
            assert abs(lhs - rhs) < 1e-9

    def test_hk_growth_bound(self):
        assert abs(hk(12, 0.5 + 5j)) <= 3.0 * (1.0 + 5.0 / math.sqrt(12))

    def test_hk_gk_same_magnitude(self):
        for z in (0.5 + 1.1j, -0.3 + 2j, 0.2 + 4j):
            assert math.isclose(abs(hk(20, z)), abs(gk(20, z)),
                                rel_tol=1e-12)

    def test_hk_real_on_side(self):
        (vals,), _ = hk_batch((30,), np.linspace(1.0, 8.0, 40))
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


def disk_pairs_reference(x_lo: float, x_hi: float, y: float,
                         t: float) -> tuple[np.ndarray, np.ndarray]:
    """All (c, d) with c >= 1 and |c(x+iy) + d| <= t for some x in
    [x_lo, x_hi], enumerated whole, row by row in (c, d) order."""
    cs, ds = [np.empty(0)], [np.empty(0)]
    for c in range(1, min(int(t / y), 10_000) + 1):
        s2 = t * t - (c * y) ** 2
        if s2 <= 0.0:
            break
        s = math.sqrt(s2)
        d = np.arange(math.ceil(-c * x_hi - s), math.floor(-c * x_lo + s) + 1,
                      dtype=np.float64)
        ds.append(d)
        cs.append(np.full(d.shape, float(c)))
    return np.concatenate(cs), np.concatenate(ds)


def block_sums_reference(zs: np.ndarray, c: np.ndarray, d: np.ndarray,
                         k: int, s=None) -> list[np.ndarray]:
    """The per-point sums of the kernel blocks over the pairs (c, d) of
    disk_pairs_reference, split into runs of max(1, _BLOCK_TERMS //
    len(zs)) pairs, in order."""
    step = max(1, _BLOCK_TERMS // zs.size)
    parts = []
    for i in range(0, c.size, step):
        u = np.multiply.outer(zs, c[i:i + step]) + d[i:i + step]
        if s is not None:
            u *= s[:, None]
        parts.append(_neg_power(u, k).sum(axis=1))
    return parts


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLatticeKernel:
    @pytest.mark.parametrize(
        "x_lo, x_hi, y, t, zs, k, min_pairs, max_pairs", [
            # eval_ek_lattice(4, 0.3 + 1j): the radius is cut at the budget
            (0.3, 0.3, 1.0, _truncation_radius(4, 0.3 + 1j, 1e-12, 0.0)[0],
             np.array([0.3 + 1j]), 4, 0.99 * _PAIR_BUDGET, _PAIR_BUDGET),
            # fk_batch's window over the whole arc, 97 points a block
            (-0.5, 0.5, math.sqrt(3.0) / 2.0, 150.0,
             np.exp(1j * np.linspace(math.pi / 3, 2 * math.pi / 3, 97)), 14,
             50_000, 60_000),
            # smaller than one run
            (0.5, 0.5, 1.0, 5.0, np.array([0.5 + 1j]), 12,
             1, _BLOCK_TERMS - 1),
            # empty: the radius is below the height
            (0.5, 0.5, 1.0, 0.5, np.array([0.5 + 1j]), 12, 0, 0),
        ], ids=["k4_budget", "arc_window", "under_one_run", "empty"])
    def test_disk_stream_matches_row_loop(self, x_lo, x_hi, y, t, zs, k,
                                          min_pairs, max_pairs):
        # the streamed sum adds the same blocks in the same order as the
        # whole disk cut into runs, bit for bit
        c, d = disk_pairs_reference(x_lo, x_hi, y, t)
        assert min_pairs <= c.size <= max_pairs
        parts = block_sums_reference(zs, c, d, k)
        got = _lattice_sum(zs, x_lo, x_hi, y, t, k)
        if parts:
            assert same_bits(got, sum(parts[1:], parts[0]))
        else:
            assert got.shape == zs.shape and not got.any()

    def test_k4_evaluation_holds_about_one_block(self):
        # the 4M-pair disk held whole costs about 122 MiB of numpy arrays;
        # streamed, the evaluation holds one reused 512 KiB block and the
        # pair arrays of its run
        tracemalloc.start()
        try:
            eval_ek_lattice(4, 0.3 + 1j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

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
            u = np.multiply.outer(zs, c) + d
            if scale is not None:
                u *= scale[:, None]
            block = _neg_power(u, k)
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
        # 37,589 pairs: three full runs of 10,922 and a short one, each
        # run edge inside a row
        c, d = disk_pairs_reference(0.5, 0.5, 1.0, 155.0)
        assert c.size == 37_589
        for edge in (10_922, 21_844, 32_766):
            assert c[edge - 1] == c[edge]
        # k = 150 squares in place above _INT_POW_LIMIT; unscaled, and
        # rescaled by s_i = 1/|z_i| as hk_batch does
        for k in (12, 150):
            for s in (None, 1.0 / np.abs(zs)):
                parts = block_sums_reference(zs, c, d, k, s)
                assert len(parts) == 4
                got = _lattice_sum(zs, 0.5, 0.5, 1.0, 155.0, k, s)
                assert same_bits(got, sum(parts[1:], parts[0])), (k, s)

    @pytest.mark.parametrize("k", [14, 58, 100, 158])
    def test_hk_batch_oracle_fence(self, k):
        # a fence, not the reported bound: that bound covers truncation
        # only, while this gap is mostly rounding
        ys = np.array([0.87, 1.0, 1.4, 2.5, 4.0, 7.5])
        (vals,), _ = hk_batch((k,), ys)
        with mpmath.workdps(50):
            for y, v in zip(ys, vals):
                z = complex(0.5, y)
                exact = abs(mpmath.mpc(z)) ** k * ek_minus_one_mp(k, z)
                assert abs(mpmath.mpc(complex(v)) - exact) <= 1e-13, (k, y)

    @pytest.mark.parametrize("k", [14, 58, 100, 158])
    def test_fk_batch_oracle_fence(self, k):
        thetas = np.array([math.pi / 3 + 1e-3, 1.2, 1.4, math.pi / 2,
                           1.9, 2 * math.pi / 3 - 1e-3])
        (vals,), _ = fk_batch((k,), thetas)
        with mpmath.workdps(50):
            for th, v in zip(thetas, vals):
                z = cmath.exp(1j * th)
                exact = mpmath.exp(0.5j * k * mpmath.mpf(th)) * (
                    1 + ek_minus_one_mp(k, z))
                assert abs(mpmath.mpf(float(v)) - exact) <= 1e-13, (k, th)


def assert_rows_are_one_weight_calls(batch, ks, xs, eps=1e-12):
    """A several-weight call gives, per weight, the values and the tail
    bound of that weight's one-weight call, bit for bit."""
    vals, tails = batch(ks, xs, eps)
    assert vals.shape == (len(ks), len(xs)) and len(tails) == len(ks)
    for k, row, tail in zip(ks, vals, tails):
        (one,), (one_tail,) = batch((k,), xs, eps)
        assert np.array_equal(row, one), (k, eps)
        assert tail == one_tail, (k, eps)


def comb_batches(k, l):
    """The arc and side points the count certifies for (k, l): each
    piece's scan ends and the comb points between them."""
    wp = zeros.WeightPair(k, l)
    pieces = []
    for (lo, hi), comb in (
            (zeros._arc_ends(wp), zeros.arc_sample_points(wp)),
            (zeros._side_ends(wp, zeros.side_upper_cutoff(wp)),
             [0.5 * math.tan(t) for t in zeros.side_sample_points(l)])):
        pieces.append(np.array([lo] + [x for x in comb if lo < x < hi]
                               + [hi]))
    return pieces


class TestWeightBatches:
    # the boundary restrictions evaluate k, l and k + l in one call

    @pytest.mark.parametrize("k, l", [(14, 14), (40, 16), (56, 22),
                                      (98, 72), (100, 14), (100, 100)])
    def test_comb_batches_at_every_rung(self, k, l):
        arc, side = comb_batches(k, l)
        for eps in zeros._EPS_LADDER:
            assert_rows_are_one_weight_calls(fk_batch, (k, l, k + l), arc, eps)
            assert_rows_are_one_weight_calls(hk_batch, (k, l, k + l), side,
                                             eps)

    def test_side_batch_over_several_octaves(self):
        ys = np.geomspace(0.87, 12.0, 45)
        assert ys[-1] / ys[0] > 2.0 ** 3
        assert_rows_are_one_weight_calls(hk_batch, (60, 24, 84), ys)

    def test_refinement_sized_batches(self):
        # 2,000 points leave 16 pairs to a kernel block, so the disk of
        # l = 14 runs many blocks, as plotdata's refinement rounds do
        thetas = np.linspace(math.pi / 3, math.pi / 2, 2000)
        t, _ = _truncation_radius(14, cmath.exp(1j * math.pi / 3), 1e-12, 0.0)
        c, _ = disk_pairs_reference(0.0, 0.5, math.sqrt(3) / 2, t)
        assert c.size > 10 * (_BLOCK_TERMS // thetas.size)
        assert_rows_are_one_weight_calls(fk_batch, (22, 14, 36), thetas)
        assert_rows_are_one_weight_calls(hk_batch, (22, 14, 36),
                                         np.linspace(0.9, 1.7, 2000))

    def test_empty_batch(self):
        for batch in (fk_batch, hk_batch):
            vals, tails = batch((40, 16, 56), np.empty(0))
            assert vals.shape == (3, 0) and tails == (0.0, 0.0, 0.0)
            assert_rows_are_one_weight_calls(batch, (40, 16, 56), np.empty(0))


class TestArcMainTerms:
    def test_tail_bound_weight_14(self):
        # the restated bound reproduces the paper's figure at k = 14
        assert rk_tail_bound(14) <= 7.3e-3

    def test_two_term_deviation_bound(self):
        for th in np.linspace(math.pi / 3, math.pi / 2, 200):
            value = fk_batch((14,), np.array([th]))[0][0, 0]
            assert abs(value - 2.0 * math.cos(7.0 * th)) <= 1.016

    def test_main_terms_sandwich_spot(self):
        value = fk_batch((24,), np.array([1.2]))[0][0, 0]
        assert abs(value - fk_main_terms(24, 1.2)) <= rk_tail_bound(24)

    @pytest.mark.parametrize("k", [14, 20, 30, 40])
    def test_main_terms_sandwich_grid(self, k):
        thetas = np.linspace(math.pi / 3, math.pi / 2, 60)
        (vals,), _ = fk_batch((k,), thetas)
        bound = rk_tail_bound(k)
        for th, v in zip(thetas, vals):
            assert abs(v - fk_main_terms(k, th)) <= bound


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
    # G_k against the paper's approximation for each height, within its
    # envelope: the direct main terms up to y = k^(2/5), the Jacobi theta
    # specialization up to k^(2/3), the q-expansion above
    def test_small_y_example(self):
        k, z = 200, 0.5 + 2j
        assert z.imag <= k ** 0.4
        approx = 1.0 + (z / (z - 1.0)) ** k + (z / (z + 1.0)) ** k
        assert abs(approx - gk(k, z)) <= C_ENV * math.exp(-k ** (1.0 / 6.0))

    def test_theta_mid_example(self):
        k = 200
        z = complex(0.5, math.sqrt(200.0))
        assert k ** 0.4 < z.imag <= k ** (2.0 / 3.0)
        approx = jacobi_theta(theta_args(k, z))
        assert abs(approx - gk(k, z)) <= C_ENV * z.imag / k ** (2.0 / 3.0)

    def test_theta_mid_modularity_form(self):
        for k, y in ((200, math.sqrt(200.0)), (300, 25.0)):
            z = complex(0.5, y)
            direct = jacobi_theta(theta_args(k, z))
            transformed = theta_eisenstein_transformed(k, z)
            assert abs(direct - transformed) < 1e-10

    def test_theta_route_rejects_overflowing_radius(self):
        # r = 2 pi y^2 / k overflows between y = 1e153 and 1e154 at k = 12;
        # past it the value would be NaN
        g = theta_eisenstein_transformed(12, 1e153j)
        assert math.isfinite(g.real) and math.isfinite(g.imag)
        for y in (1e154, 1e300):
            with pytest.raises(ValueError, match="too high for the theta"):
                theta_eisenstein_transformed(12, complex(0.0, y))

    def test_fourier_large_branch(self):
        k, z = 200, 0.5 + 40j
        assert z.imag > k ** (2.0 / 3.0)
        assert abs(gk_fourier(k, z) - gk(k, z)) <= 1e-6


class TestSideRegimes:
    # H_k on the side x = 1/2 against the paper's main terms; r = 2 pi y^2 / k
    def test_small_y_example_weight_300(self):
        k, y = 300, 2.0
        assert y <= k ** 0.4
        main = 2.0 * (-1) ** (k // 2) * math.cos(k * math.atan(0.5 / y))
        truth = hk(k, complex(0.5, y))
        assert abs(main - truth.real) <= C_ENV * math.exp(-k ** (1.0 / 6.0))

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
        # at the resonance height y_N = k / (2 pi N) the sign of H_k is
        # (-1)^(N + k/2)
        k, n_idx = 400, 3
        y = k / (2.0 * math.pi * n_idx)
        truth = hk(k, complex(0.5, y))
        assert math.copysign(1.0, truth.real) == (-1) ** (n_idx + k // 2)

    def test_resonance_value_within_envelope(self):
        # sqrt(k) < y_N <= k^(3/5): main term r^(1/2) e^(pi/4r) with the
        # resonance sign, envelope main * phi1(r) + C k^(-1/15)
        k, n_idx = 400, 3
        y = k / (2.0 * math.pi * n_idx)
        assert k ** 0.5 < y <= k ** 0.6
        r = 2.0 * math.pi * y * y / k
        main = math.sqrt(r) * math.exp(math.pi / (4.0 * r))
        approx = (-1) ** (n_idx + k // 2) * main
        truth = hk(k, complex(0.5, y))
        envelope = main * phi1(r) + C_ENV * k ** (-1.0 / 15.0)
        assert abs(approx - truth.real) <= envelope


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

    def test_range_rule_matches_term_cap(self, monkeypatch):
        # with the cap at 100 terms phi1 needs r >= 1.2e-3 and phi0
        # r <= 845: the range rule accepts exactly the radii at which both
        # series stop, and past the cap a series raises instead of looping
        monkeypatch.setattr(eisenstein, "_THETA_MAX_N", 100)
        for r in (1e-4, 1.19e-3, 1.2e-3, 1.0, 845.0, 846.0, 1e5):
            try:
                phi0(r), phi1(r)
                converges = True
            except ArithmeticError:
                converges = False
            try:
                _check_phi_range(r, math.nextafter(r, math.inf))
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == converges == (1.2e-3 <= r <= 845.0), r

    def test_range_rule_rejects_infinite_r_max(self):
        with pytest.raises(ValueError, match="finite r_max"):
            _check_phi_range(1.0, math.inf)


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
