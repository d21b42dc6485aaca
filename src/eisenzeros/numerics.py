"""Scalar foundations: Bernoulli numbers, zeta, the Eisenstein Fourier
constant, and overflow-safe log-space complex arithmetic.

Everything here is pure and immutable; values are safe to share across
processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

__all__ = [
    "MAX_WEIGHT",
    "LogComplex",
    "bernoulli",
    "gamma_k",
    "lc_sum",
    "zeta",
]

_TWO_PI = 2.0 * math.pi

# The largest weight the library certifies: the reach of the tangent-number
# table behind bernoulli, and so the cap on k + l for a pair.
MAX_WEIGHT = 400


def _check_weight(k: int) -> None:
    """The weight rule of every Eisenstein series here: k even and >= 4."""
    if k % 2 != 0 or k < 4:
        raise ValueError(f"weight must be even and >= 4, got {k}")


def _wrap_phase(phi: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    phi = math.fmod(phi, _TWO_PI)
    if phi > math.pi:
        phi -= _TWO_PI
    elif phi <= -math.pi:
        phi += _TWO_PI
    return phi


def _cos_sin(phi: float) -> tuple[float, float]:
    # Exact at the four axis phases so real-signed values stay exactly real;
    # sin(float pi) = 1.2e-16 would otherwise leak into cancellations.
    if phi == 0.0:
        return 1.0, 0.0
    if phi == math.pi:
        return -1.0, 0.0
    if phi == 0.5 * math.pi:
        return 0.0, 1.0
    if phi == -0.5 * math.pi:
        return 0.0, -1.0
    return math.cos(phi), math.sin(phi)


@dataclass(frozen=True)
class LogComplex:
    """A nonzero complex number stored as (ln|w|, arg w).

    Multiplication adds log-magnitudes and phases, so products of factors
    like n^(k-1) * e^(-2*pi*n*y) never overflow even when individual factors
    exceed the float range.  Zero is represented by log_mag = -inf.
    """

    log_mag: float
    phase: float

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(-math.inf, 0.0)

    @staticmethod
    def from_complex(w: complex) -> "LogComplex":
        if w == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(w)), math.atan2(w.imag, w.real))

    @staticmethod
    def from_polar(log_mag: float, phase: float) -> "LogComplex":
        return LogComplex(log_mag, _wrap_phase(phase))

    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def to_complex(self) -> complex:
        if self.is_zero():
            return 0j
        # log_mag beyond ~709 overflows float; caller keeps values scaled.
        mag = math.exp(self.log_mag)
        c, s = _cos_sin(self.phase)
        return complex(mag * c, mag * s)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero() or other.is_zero():
            return LogComplex.zero()
        return LogComplex(self.log_mag + other.log_mag,
                          _wrap_phase(self.phase + other.phase))

    def __pow__(self, n: float) -> "LogComplex":
        if self.is_zero():
            if n <= 0:
                raise ZeroDivisionError("0 ** nonpositive power")
            return LogComplex.zero()
        return LogComplex(n * self.log_mag, _wrap_phase(n * self.phase))


def lc_sum(terms: Iterable[LogComplex]) -> LogComplex:
    """Sum LogComplex terms by factoring out the largest magnitude.

    The residual sum runs in ordinary floats with exact (fsum) accumulation.
    Terms with exactly real phases cancel exactly; generic phases cancel to
    ~eps relative to the largest term, the float representation floor.
    """
    items = [t for t in terms if not t.is_zero()]
    if not items:
        return LogComplex.zero()
    m = max(t.log_mag for t in items)
    parts = [(math.exp(t.log_mag - m), *_cos_sin(t.phase)) for t in items]
    re = math.fsum(r * c for r, c, _ in parts)
    im = math.fsum(r * s for r, _, s in parts)
    if re == 0.0 and im == 0.0:
        return LogComplex.zero()
    # hypot avoids underflow of re*re when the scaled residual is ~1e-300
    return LogComplex(m + math.log(math.hypot(re, im)), math.atan2(im, re))


# --- Bernoulli numbers -------------------------------------------------

_bernoulli_cache: list[Fraction] = []    # B_2, B_4, ..., B_2n


def _extend_bernoulli(n: int) -> None:
    # Brent and Harvey's tangent-number algorithm ("Fast computation of
    # Bernoulli, tangent and secant numbers", 2011): O(n^2) integer
    # operations for T_1..T_n, then
    # B_2j = (-1)^(j-1) 2j T_j / (2^(2j) (2^(2j) - 1)).
    # The tangent numbers for a larger n are a fresh run, so the table at
    # least doubles each time it grows, up to B_400.
    if len(_bernoulli_cache) >= n:
        return
    n = min(max(n, 2 * len(_bernoulli_cache)), MAX_WEIGHT // 2)
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for j in range(2, n + 1):
        for i in range(j, n + 1):
            t[i] = (i - j) * t[i - 1] + (i - j + 2) * t[i]
    _bernoulli_cache[:] = [
        Fraction((-1) ** (j - 1) * 2 * j * t[j], 4 ** j * (4 ** j - 1))
        for j in range(1, n + 1)]


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k for even k with 2 <= k <= MAX_WEIGHT."""
    if k % 2 != 0 or not 2 <= k <= MAX_WEIGHT:
        raise ValueError(
            f"bernoulli requires even k in [2, {MAX_WEIGHT}], got {k}")
    _extend_bernoulli(k // 2)
    return _bernoulli_cache[k // 2 - 1]


# --- zeta and the Fourier normalization constant -----------------------

@lru_cache(maxsize=1024)
def zeta(k: int) -> float:
    """zeta(k) for integer k >= 4 by direct summation.

    The cutoff N makes the integral tail bound N^(1-k)/(k-1) < 1e-16, and the
    partial sum is fsum-accumulated, so the result is correct to ~1 ulp.
    Memoized: at k = 4 the sum has about 150k terms.
    """
    if k < 4:
        raise ValueError(f"zeta requires k >= 4, got {k}")
    n_terms = max(8, math.ceil((1e16 / (k - 1)) ** (1.0 / (k - 1))))
    return math.fsum(n ** float(-k) for n in range(1, n_terms + 1))


def _log_abs_fraction(q: Fraction) -> float:
    # math.log takes arbitrary-precision ints, so no overflow for huge B_k.
    return math.log(abs(q.numerator)) - math.log(q.denominator)


@lru_cache(maxsize=256)
def gamma_k(k: int) -> LogComplex:
    """Fourier normalization constant -2k/B_k of the weight-k Eisenstein
    series, as a real-signed LogComplex (phase 0 or pi).

    Exact rationals underneath; |gamma_400| ~ 1e-548 underflows a float,
    hence the log-space return type.  Memoized: the big-rational division
    costs tens of microseconds, and every even weight up to 400 fits.
    """
    _check_weight(k)
    val = Fraction(-2 * k) / bernoulli(k)
    return LogComplex(_log_abs_fraction(val),
                      0.0 if val > 0 else math.pi)

