"""Tests for the scalar foundations.

Derived expected values are frozen from independent oracles:
Akiyama-Tanigawa and the binomial recurrence for Bernoulli numbers, the
zeta route for gamma_k, and 50-digit mpmath products for LogComplex.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenzeros import cli
from eisenzeros.cli import main
from eisenzeros.numerics import (
    MAX_WEIGHT,
    LogComplex,
    bernoulli,
    gamma_k,
    lc_sum,
    zeta,
)


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Independent oracle: Akiyama-Tanigawa transform over exact rationals."""
    row = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def bernoulli_recurrence(n: int) -> list[Fraction]:
    """Reference B_0..B_n from sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1,
    the O(n^2) rational recurrence bernoulli() used before the
    tangent-number algorithm."""
    b = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, n + 1):
        if m % 2:
            b.append(Fraction(0))
            continue
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return b


def gamma_k_from_zeta(k: int) -> LogComplex:
    """Reference gamma_k by the zeta route, (-1)^(k/2) (2 pi)^k /
    ((k-1)! zeta(k)), in log space."""
    log_mag = k * math.log(2.0 * math.pi) - math.lgamma(k) - math.log(zeta(k))
    return LogComplex(log_mag, 0.0 if k % 4 == 0 else math.pi)


class TestBernoulli:
    def test_base_cases(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)

    def test_b12_against_oracle(self):
        assert bernoulli(12) == Fraction(-691, 2730)
        assert bernoulli(12) == bernoulli_akiyama_tanigawa(12)

    @pytest.mark.parametrize("k", [2, 6, 8, 10, 20, 30, 50, 100])
    def test_matches_oracle(self, k):
        assert bernoulli(k) == bernoulli_akiyama_tanigawa(k)

    def test_matches_recurrence_through_400(self):
        ref = bernoulli_recurrence(400)
        for k in range(2, 401, 2):
            assert bernoulli(k) == ref[k], k

    def test_top_of_range(self):
        b400 = bernoulli(400)
        # Sign alternates: B_k < 0 for k = 0 mod 4.
        assert b400 < 0
        assert b400.denominator > 0

    @pytest.mark.parametrize("bad", [3, 0, -2, 402, 401])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            bernoulli(bad)

    def test_one_weight_cap_for_bernoulli_and_scan(self, capsys, tmp_path,
                                                   monkeypatch):
        assert bernoulli(MAX_WEIGHT).denominator > 0
        with pytest.raises(ValueError, match=f"\\[2, {MAX_WEIGHT}\\]"):
            bernoulli(MAX_WEIGHT + 2)
        half = MAX_WEIGHT // 2

        def scan(k):
            return ["scan", "--k-min", str(k), "--k-max", str(k),
                    "--l-min", str(half), "--l-max", str(half)]

        # the pair at the cap is accepted; its audit is not the point here
        monkeypatch.setattr(cli, "_pair_report", lambda task: {})
        assert main(scan(half)) == 0
        capsys.readouterr()
        out = tmp_path / "x.json"
        assert main(scan(half + 2) + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: 1 pairs exceed the k + l <= {MAX_WEIGHT} cap, "
            f"largest ({half + 2}, {half})\n"))
        assert not out.exists()


class TestGammaK:
    def test_k4(self):
        g = gamma_k(4)
        assert g.phase == 0.0
        assert math.isclose(g.log_mag, math.log(240), rel_tol=1e-15)

    def test_k6(self):
        g = gamma_k(6)
        assert g.phase == math.pi
        assert math.isclose(g.log_mag, math.log(504), rel_tol=1e-15)

    def test_sign_law(self):
        for k in range(4, 101, 2):
            expected = 0.0 if k % 4 == 0 else math.pi
            assert gamma_k(k).phase == expected, k

    def test_dual_formulas_agree(self):
        # Both routes to the same constant, 1e-12 relative in log space.
        for k in range(4, 201, 2):
            a = gamma_k(k)
            b = gamma_k_from_zeta(k)
            assert a.phase == b.phase, k
            assert math.isclose(a.log_mag, b.log_mag,
                                rel_tol=1e-12, abs_tol=1e-12), k

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gamma_k(5)
        with pytest.raises(ValueError):
            gamma_k(2)


class TestZeta:
    def test_zeta4_closed_form(self):
        assert math.isclose(zeta(4), math.pi ** 4 / 90, rel_tol=1e-15)

    def test_against_mpmath(self):
        for k in (5, 6, 10, 40, 100):
            assert math.isclose(zeta(k), float(mpmath.zeta(k)), rel_tol=1e-15)


finite_complex = st.builds(
    complex,
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
).filter(lambda w: abs(w) > 1e-6)


class TestLogComplex:
    @given(finite_complex)
    def test_round_trip(self, w):
        back = LogComplex.from_complex(w).to_complex()
        assert cmath.isclose(back, w, rel_tol=1e-14)

    @given(finite_complex, finite_complex)
    def test_multiplication_matches_complex(self, u, v):
        prod = (LogComplex.from_complex(u) * LogComplex.from_complex(v))
        assert cmath.isclose(prod.to_complex(), u * v, rel_tol=1e-12)

    @given(finite_complex, st.integers(min_value=-6, max_value=6))
    def test_integer_powers(self, w, n):
        lc = LogComplex.from_complex(w) ** n
        assert cmath.isclose(lc.to_complex(), w ** n, rel_tol=1e-11)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_phase_always_wrapped(self, seed):
        rng = random.Random(seed)
        acc = LogComplex.from_complex(1.0)
        for _ in range(20):
            acc = acc * LogComplex.from_polar(rng.uniform(-2, 2),
                                              rng.uniform(-10, 10))
        assert -math.pi < acc.phase <= math.pi

    def test_thousand_factor_product(self):
        # Product of 1000 factors spanning ~4000 orders of magnitude in
        # aggregate; oracle is a 50-digit mpmath product.
        rng = random.Random(20240815)
        factors = [complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
                   for _ in range(1000)]
        acc = LogComplex.from_complex(1.0)
        for w in factors:
            acc = acc * LogComplex.from_complex(w)
        with mpmath.workdps(50):
            prod = mpmath.mpc(1)
            for w in factors:
                prod *= mpmath.mpc(w.real, w.imag)
            oracle_log = float(mpmath.log(abs(prod)))
            oracle_arg = float(mpmath.arg(prod))
        assert math.isclose(acc.log_mag, oracle_log, rel_tol=1e-10)
        assert abs(math.remainder(acc.phase - oracle_arg, 2 * math.pi)) < 1e-8

    def test_zero_semantics(self):
        z = LogComplex.zero()
        assert z.is_zero()
        assert z.to_complex() == 0j
        assert (z * LogComplex.from_complex(5.0)).is_zero()
        assert LogComplex.from_complex(0.0).is_zero()
        with pytest.raises(ZeroDivisionError):
            z ** 0

    def test_lc_sum_cancellation(self):
        # 1e300 + 1 - 1e300 survives in log space.
        big = LogComplex.from_polar(math.log(10) * 300, 0.0)
        one = LogComplex.from_complex(1.0)
        minus_big = LogComplex.from_polar(math.log(10) * 300, math.pi)
        total = lc_sum([big, one, minus_big])
        assert math.isclose(total.log_mag, 0.0, abs_tol=1e-9)

    def test_lc_sum_matches_direct(self):
        rng = random.Random(7)
        terms = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                 for _ in range(64)]
        got = lc_sum(LogComplex.from_complex(t) for t in terms).to_complex()
        assert cmath.isclose(got, sum(terms), rel_tol=1e-12)
