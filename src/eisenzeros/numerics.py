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
    "LogComplex",
    "bernoulli",
    "gamma_k",
    "gamma_k_from_zeta",
    "lc_sum",
    "zeta",
]

_TWO_PI = 2.0 * math.pi


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
    def from_real(x: float) -> "LogComplex":
        if x == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(x)), 0.0 if x > 0 else math.pi)

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

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero():
            raise ZeroDivisionError("LogComplex division by zero")
        if self.is_zero():
            return LogComplex.zero()
        return LogComplex(self.log_mag - other.log_mag,
                          _wrap_phase(self.phase - other.phase))

    def __pow__(self, n: float) -> "LogComplex":
        if self.is_zero():
            if n <= 0:
                raise ZeroDivisionError("0 ** nonpositive power")
            return LogComplex.zero()
        return LogComplex(n * self.log_mag, _wrap_phase(n * self.phase))

    def __neg__(self) -> "LogComplex":
        if self.is_zero():
            return self
        return LogComplex(self.log_mag, _wrap_phase(self.phase + math.pi))

    def scaled(self, log_shift: float) -> "LogComplex":
        """Multiply by exp(log_shift) without touching the phase."""
        if self.is_zero():
            return self
        return LogComplex(self.log_mag + log_shift, self.phase)

    def real_sign(self) -> int:
        """Sign of the real part, +1/-1/0, robust for real-signed values."""
        if self.is_zero():
            return 0
        c, _ = _cos_sin(self.phase)
        if c > 0:
            return 1
        if c < 0:
            return -1
        return 0


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

_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _extend_bernoulli(n: int) -> None:
    # Standard recurrence: sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1.
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        if m % 2 == 1:
            _bernoulli_cache.append(Fraction(0))
            continue
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))


def bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k for even k with 2 <= k <= 400."""
    if k % 2 != 0 or not 2 <= k <= 400:
        raise ValueError(f"bernoulli requires even k in [2, 400], got {k}")
    _extend_bernoulli(k)
    return _bernoulli_cache[k]


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
    if k % 2 != 0 or k < 4:
        raise ValueError(f"gamma_k requires even k >= 4, got {k}")
    val = Fraction(-2 * k) / bernoulli(k)
    return LogComplex(_log_abs_fraction(val),
                      0.0 if val > 0 else math.pi)


def gamma_k_from_zeta(k: int) -> LogComplex:
    """Cross-check route: (-1)^(k/2) * (2*pi)^k / ((k-1)! * zeta(k)),
    evaluated entirely in log space."""
    if k % 2 != 0 or k < 4:
        raise ValueError(f"gamma_k_from_zeta requires even k >= 4, got {k}")
    log_mag = k * math.log(_TWO_PI) - math.lgamma(k) - math.log(zeta(k))
    return LogComplex(log_mag, 0.0 if k % 4 == 0 else math.pi)
