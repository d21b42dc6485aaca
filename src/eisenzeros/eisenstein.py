"""Evaluators for the weight-k Eisenstein series E_k and its rescalings.

Three independent evaluation routes:

* a truncated lattice sum over c*z + d (the ground truth at desk scale,
  with a rigorous truncation certificate),
* the q-expansion 1 + gamma_k * sum sigma_{k-1}(n) e(nz), assembled in log
  space so huge coefficient/exponential pairs never overflow,
* asymptotic regime approximations (direct main terms, Jacobi theta
  midrange, single-Fourier-term large-y) with explicit error envelopes.

Rescalings used by the zero-counting machinery:
F_k(theta) = e^(ik theta/2) E_k(e^(i theta))   (real on the unit arc)
G_k(z) = z^k (E_k(z) - 1),  H_k(z) = |z|^k (E_k(z) - 1),  |H_k| = |G_k|.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .numerics import LogComplex, gamma_k, lc_sum, zeta

__all__ = [
    "Regime",
    "RegimeApprox",
    "ThetaArgs",
    "UpperHalfPoint",
    "eval_ek_fourier",
    "eval_ek_lattice",
    "ek_minus_one_fourier",
    "fk",
    "fk_batch",
    "fk_main_terms",
    "gk",
    "gk_fourier",
    "gk_regime_approx",
    "hk",
    "hk_batch",
    "hk_side_regimes",
    "jacobi_theta",
    "phi0",
    "phi1",
    "rk_tail_bound",
    "theta_eisenstein_transformed",
]

# Truncation policy for the lattice evaluator.
_PAIR_BUDGET = 4_000_000   # max lattice points enumerated per evaluation
_AXIS_CAP = 10_000         # max |c| and |d|
_T_HARD = 5_000.0          # absolute radius ceiling
_MIN_EPS = 1e-15

# Widened domain: the fundamental domain plus the corner strip
# 2/5 <= x <= 3/5, 2^(-1/2) <= y used by the corner expansions.
_X_MAX = 0.6 + 1e-12
_Y_MIN = 2.0 ** -0.5 - 1e-12


class Regime(enum.Enum):
    SMALL_Y = "SmallY"
    THETA_MID = "ThetaMid"
    FOURIER_LARGE = "FourierLarge"
    LATTICE_EXACT = "LatticeExact"


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point x + iy in the upper half plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"upper half plane requires y > 0, got y={self.y}")

    @staticmethod
    def from_complex(z: complex) -> "UpperHalfPoint":
        return UpperHalfPoint(z.real, z.imag)

    @staticmethod
    def from_polar(radius: float, theta: float) -> "UpperHalfPoint":
        return UpperHalfPoint(radius * math.cos(theta),
                              radius * math.sin(theta))

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @property
    def radius(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def theta(self) -> float:
        return math.atan2(self.y, self.x)

    def in_fundamental_domain(self, tol: float = 1e-9) -> bool:
        return self.radius >= 1.0 - tol and abs(self.x) <= 0.5 + tol


@dataclass(frozen=True)
class RegimeApprox:
    """Approximation value with the regime that produced it and an a-priori
    bound on |value - truth|."""

    value: complex
    regime: Regime
    error_envelope: float

    def __post_init__(self):
        if not math.isfinite(self.error_envelope) or self.error_envelope < 0:
            raise ValueError("error_envelope must be finite and >= 0")


@dataclass(frozen=True)
class ThetaArgs:
    """Arguments (w, tau) of the Jacobi theta function, Im tau > 0."""

    w: complex
    tau: complex

    def __post_init__(self):
        if not self.tau.imag > 0:
            raise ValueError("theta requires Im(tau) > 0")

    @staticmethod
    def for_eisenstein(k: int, z: complex) -> "ThetaArgs":
        # w = k/(2 pi y) + i x / r, tau = i / r, with r = 2 pi y^2 / k.
        y = z.imag
        r = 2.0 * math.pi * y * y / k
        return ThetaArgs(complex(k / (2.0 * math.pi * y), z.real / r),
                         complex(0.0, 1.0 / r))


def _as_complex(z) -> complex:
    if isinstance(z, UpperHalfPoint):
        return z.z
    return complex(z)


def _check_weight(k: int) -> None:
    if k % 2 != 0 or k < 4:
        raise ValueError(f"weight must be even and >= 4, got {k}")


def _check_domain(z: complex) -> None:
    if not z.imag >= _Y_MIN:
        raise ValueError(f"point {z} below the supported strip y >= 2^-0.5")
    if abs(z.real) > _X_MAX:
        raise ValueError(f"point {z} outside the supported strip |x| <= 3/5")


# --- lattice evaluator --------------------------------------------------

def _truncation_radius(k: int, z: complex, eps: float,
                       scale_log: float) -> tuple[float, float]:
    """Radius T and certified tail bound for sum_{|cz+d|>T} |cz+d|^(-k),
    divided by 2 zeta(k), optionally scaled by exp(scale_log).

    Lattice-point counting gives N(t) <= pi (t + rho)^2 / y with covering
    radius rho <= (1+|z|)/2, hence for T >= 1+|z| the tail is at most
    2.25 pi k / (y (k-2)) * T^(2-k).
    """
    y = z.imag
    a_const = 2.25 * math.pi * k / (y * (k - 2.0))
    log_half_a = math.log(0.5 * a_const / zeta(k))
    t_min = 1.0001 * (1.0 + abs(z))
    # aim 20% under eps so roundoff in the bound itself cannot exceed it
    t_target = math.exp((scale_log + log_half_a - math.log(0.8 * eps))
                        / (k - 2.0))
    t_budget = math.sqrt(_PAIR_BUDGET * 2.0 * y / math.pi)
    t = min(max(t_target, t_min), t_budget, _AXIS_CAP * y, _T_HARD)
    t = max(t, t_min)
    if t > min(t_budget, _AXIS_CAP * y, _T_HARD) * 1.01:
        raise ValueError(f"cannot enumerate lattice disk for y={y}")
    log_tail = scale_log + log_half_a + (2.0 - k) * math.log(t)
    tail = math.exp(log_tail) if log_tail > -745.0 else 0.0
    return t, tail


def _disk_pairs(x_lo: float, x_hi: float, y: float,
                t: float) -> tuple[np.ndarray, np.ndarray]:
    """All (c, d) with c >= 1 and |c(x+iy) + d| <= t for some x in
    [x_lo, x_hi], as flat arrays in (c, d) order.

    With x_lo = x_hi this is one point's disk; a window gives the union of
    the per-point d-ranges, a pair superset for a batch of points."""
    c_hi = min(int(t / y), _AXIS_CAP)
    cs, ds = [], []
    for c in range(1, c_hi + 1):
        s2 = t * t - (c * y) ** 2
        if s2 <= 0.0:
            break
        s = math.sqrt(s2)
        d_lo = math.ceil(-c * x_hi - s)
        d_hi = math.floor(-c * x_lo + s)
        if d_hi < d_lo:
            continue
        d = np.arange(d_lo, d_hi + 1, dtype=np.float64)
        ds.append(d)
        cs.append(np.full(d.shape, float(c)))
    if not cs:
        return (np.empty(0), np.empty(0))
    return np.concatenate(cs), np.concatenate(ds)


# Point-pair terms per kernel block: a block and its temporaries stay
# inside a 2 MB L2 cache.
_BLOCK_TERMS = 1 << 15
# numpy's complex power multiplies by repeated squaring for integer
# exponents below this and falls back to exp/log at or above it.
_INT_POW_LIMIT = 100


def _neg_power(u: np.ndarray, k: int) -> np.ndarray:
    """u^(-k) elementwise through integer powers only: numpy's squaring
    below _INT_POW_LIMIT, above it the square of the (k // 2)-th power,
    divided once more by u when k is odd."""
    if k < _INT_POW_LIMIT:
        return u ** (-k)
    h = _neg_power(u, k // 2)
    h *= h
    if k % 2:
        h /= u
    return h


def _lattice_blocks(zs: np.ndarray, c: np.ndarray, d: np.ndarray, k: int,
                    s: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """The one lattice kernel: blocks of the terms (s_i (c z_i + d))^(-k),
    shape (len(zs), m), over consecutive runs of the pair set (c, d).

    A block holds about _BLOCK_TERMS point-pair terms.  s (default 1)
    rescales each point's terms; s_i = 1/|z_i| keeps them <= 1.
    """
    step = max(1, _BLOCK_TERMS // zs.size)
    for i in range(0, c.size, step):
        u = np.multiply.outer(zs, c[i:i + step])
        u += d[i:i + step]
        if s is not None:
            u *= s[:, None]
        yield _neg_power(u, k)


def eval_ek_lattice(k: int, z, eps: float = 1e-12,
                    compensated: bool = False) -> tuple[complex, float]:
    """E_k(z) by truncated lattice sum; returns (value, tail_bound).

    Sums (cz+d)^(-k) over all nonzero lattice pairs inside the disk
    |cz+d| <= T and divides by 2 zeta(k); the disk shape makes the
    truncated sum vanish to roundoff at the corner (k not = 0 mod 6) and
    at i (k = 2 mod 4), exactly as the full series does.  tail_bound is
    the rigorous truncation certificate; when the requested eps is not
    reachable within the enumeration caps, the returned bound is honest
    but larger than eps.
    """
    _check_weight(k)
    z = _as_complex(z)
    _check_domain(z)
    if eps < _MIN_EPS:
        raise ValueError(f"eps below certificate floor {_MIN_EPS}")
    t, tail = _truncation_radius(k, z, eps, 0.0)
    c, d = _disk_pairs(z.real, z.real, z.imag, t)
    zs = np.array([z])
    d_row = np.arange(1.0, math.floor(t) + 1.0) ** float(-k)
    if compensated:
        # fsum rounds the exact sum once, so the blocking cannot move it;
        # each part regenerates the blocks rather than holding the disk
        def part(attr: str) -> float:
            return math.fsum(chain.from_iterable(
                getattr(b, attr).ravel()
                for b in _lattice_blocks(zs, c, d, k)))
        val = complex(part("real") + math.fsum(d_row), part("imag"))
    else:
        blocks = [complex(b.sum()) for b in _lattice_blocks(zs, c, d, k)]
        val = sum(blocks[1:], blocks[0]) + float(d_row.sum())
    return val / zeta(k), tail


@lru_cache(maxsize=4096)
def _drow_tail_factor(k: int, d_start: int) -> tuple[float, float]:
    """(S, remainder bound) with S = sum_{d > d_start} (d0/d)^k, d0 =
    d_start + 1, by direct summation with an integral bound on what is
    left; S >= 1 and depends only on (k, d_start)."""
    d0 = d_start + 1
    log_d0 = math.log(d0)
    total = 0.0
    d = d0
    chunk = 2048
    for _ in range(512):
        ds = np.arange(d, d + chunk, dtype=np.float64)
        vals = np.exp(k * (log_d0 - np.log(ds)))
        total += float(vals.sum())
        d += chunk
        if vals[-1] < 1e-18 * max(total, 1.0):
            break
    # Integral comparison for the rest: sum_{d >= d1} (d0/d)^k
    # <= (d0/d1)^k * d1/(k-1) + first term.
    log_rem = k * (log_d0 - math.log(d)) + math.log(d / (k - 1.0) + 1.0)
    rem = math.exp(log_rem) if log_rem > -745.0 else 0.0
    return total, rem


def _drow_tail(k: int, log_az: np.ndarray,
               d_start: int) -> tuple[np.ndarray, float]:
    """(|z|^k * sum_{d > d_start} d^(-k) per point, remainder bound for
    the batch), as (|z|/d0)^k times the cached factor S(k, d_start)."""
    factor, rem = _drow_tail_factor(k, d_start)
    scale = np.exp(k * (log_az - math.log(d_start + 1)))
    return scale * factor, rem * float(scale.max())


def hk_batch(k: int, ys: np.ndarray, eps: float = 1e-12,
             x: float = 0.5) -> tuple[np.ndarray, float]:
    """H_k(x+iy) for an array of heights on a vertical line, with one
    shared truncation certificate (max over the batch).

    H_k = |z|^k (E_k - 1) is assembled from the kernel terms
    (|z|/(cz+d))^k, of magnitude <= 1 in the fundamental domain, so no
    overflow occurs even at k = 400.  Returns (values, tail_bound);
    values are real up to roundoff when x = 1/2 and are returned complex.
    """
    _check_weight(k)
    if k < 8:
        raise ValueError("H_k evaluation supports k >= 8")
    ys = np.asarray(ys, dtype=np.float64)
    if ys.size == 0:
        return np.empty(0, dtype=np.complex128), 0.0
    if not (ys > 0).all():
        raise ValueError("heights must be positive")
    y_lo = float(ys.min())
    y_hi = float(ys.max())
    if y_hi > 2.0 * y_lo and ys.size > 1:
        # Split into octaves so the shared pair superset stays tight.
        mid = math.sqrt(y_lo * y_hi)
        lo_mask = ys <= mid
        v_lo, t_lo = hk_batch(k, ys[lo_mask], eps, x)
        v_hi, t_hi = hk_batch(k, ys[~lo_mask], eps, x)
        out = np.empty(ys.shape, dtype=np.complex128)
        out[lo_mask] = v_lo
        out[~lo_mask] = v_hi
        return out, max(t_lo, t_hi)
    _check_domain(complex(x, y_lo))
    z_hi = complex(x, y_hi)
    log_az_hi = math.log(abs(z_hi))
    t, tail = _truncation_radius(k, z_hi, eps, k * log_az_hi)
    c, d = _disk_pairs(x, x, y_lo, t)
    zs = x + 1j * ys
    az = np.abs(zs)
    vals = np.zeros(ys.shape, dtype=np.complex128)
    for block in _lattice_blocks(zs, c, d, k, 1.0 / az):
        vals += block.sum(axis=1)
    row, rem = _drow_tail(k, np.log(az), math.floor(t))
    vals -= row
    return vals / zeta(k), tail + rem


def hk(k: int, z, eps: float = 1e-12) -> complex:
    """H_k(z) = |z|^k (E_k(z) - 1)."""
    z = _as_complex(z)
    _check_domain(z)
    vals, _ = hk_batch(k, np.array([z.imag]), eps, x=z.real)
    return complex(vals[0])


def gk(k: int, z, eps: float = 1e-12) -> complex:
    """G_k(z) = z^k (E_k(z) - 1) = e^(ik arg z) H_k(z)."""
    z = _as_complex(z)
    return cmath.exp(1j * k * cmath.phase(z)) * hk(k, z, eps)


def fk_batch(k: int, thetas: np.ndarray,
             eps: float = 1e-12) -> tuple[np.ndarray, float]:
    """F_k(theta) = e^(ik theta/2) E_k(e^(i theta)) on the unit arc,
    vectorized over theta in [pi/3, 2pi/3].  Returns (values, tail_bound).

    The enumeration uses one pair superset valid for the whole batch;
    terms outside an individual point's disk only shrink its truncation
    error, so the shared certificate remains rigorous.
    """
    _check_weight(k)
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        return np.empty(0), 0.0
    if not ((thetas >= math.pi / 3 - 1e-12)
            & (thetas <= 2 * math.pi / 3 + 1e-12)).all():
        raise ValueError("arc angles must lie in [pi/3, 2pi/3]")
    y_min = float(np.sin(thetas).min())
    # worst-case (largest) radius over the batch
    t = 0.0
    tail = 0.0
    for th in (float(thetas.min()), float(thetas.max())):
        t_i, tail_i = _truncation_radius(k, cmath.exp(1j * th), eps, 0.0)
        t = max(t, t_i)
        tail = max(tail, tail_i)
    c, d = _disk_pairs(float(np.cos(thetas).min()),
                       float(np.cos(thetas).max()), y_min, t)
    zs = np.exp(1j * thetas)
    vals = np.zeros(thetas.shape, dtype=np.complex128)
    for block in _lattice_blocks(zs, c, d, k):
        vals += block.sum(axis=1)
    vals += float((np.arange(1.0, math.floor(t) + 1.0) ** float(-k)).sum())
    vals = np.exp(0.5j * k * thetas) * vals / zeta(k)
    resid = float(np.abs(vals.imag).max())
    if resid >= 1e-9:
        raise ArithmeticError(f"arc rescaling lost reality: residue {resid}")
    return vals.real, tail


def fk(k: int, theta: float, eps: float = 1e-12) -> float:
    """F_k(theta) = e^(ik theta/2) E_k(e^(i theta)), real on the arc."""
    vals, _ = fk_batch(k, np.array([theta]), eps)
    return float(vals[0])


# --- Fourier evaluator --------------------------------------------------

@lru_cache(maxsize=100_000)
def _log_sigma(k_minus_1: int, n: int) -> float:
    """log sigma_{k-1}(n) = (k-1) log n + log sum_{d|n} (d/n)^(k-1)."""
    acc = 0.0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            acc += (d / n) ** k_minus_1
            q = n // d
            if q != d:
                acc += (q / n) ** k_minus_1
    return (k_minus_1) * math.log(n) + math.log(acc)


def _fourier_terms(k: int, z: complex, window_c: float) -> list[LogComplex]:
    y = z.imag
    x = z.real
    g = gamma_k(k)
    n_star = k / (2.0 * math.pi * y)
    half = window_c * math.sqrt(k) / (2.0 * math.pi * y)
    n_hi = max(1, math.ceil(n_star + half))
    terms = []
    peak = -math.inf
    n = 1
    while True:
        log_mag = g.log_mag + _log_sigma(k - 1, n) - 2.0 * math.pi * n * y
        peak = max(peak, log_mag)
        terms.append(LogComplex.from_polar(log_mag,
                                           g.phase + 2.0 * math.pi * n * x))
        n += 1
        if n > n_hi and (log_mag < peak - 45.0 or n > n_hi + 10_000):
            break
    return terms


def ek_minus_one_fourier(k: int, z, window_c: float = 30.0) -> LogComplex:
    """E_k(z) - 1 as a LogComplex via the q-expansion; valid for y >= 1.

    Keeping the result in log space matters: at k = 400, y ~ 54 the value
    is ~ e^(-1595), far below the float range, while z^k (E_k - 1) is O(1).
    """
    _check_weight(k)
    z = _as_complex(z)
    if z.imag < 1.0:
        raise ValueError("Fourier route requires y >= 1; use the lattice")
    if window_c <= 0:
        raise ValueError("window_c must be positive")
    return lc_sum(_fourier_terms(k, z, window_c))


def eval_ek_fourier(k: int, z, window_c: float = 30.0) -> complex:
    """E_k(z) by the q-expansion, for y >= 1."""
    z = _as_complex(z)
    tail = ek_minus_one_fourier(k, z, window_c)
    return 1.0 + tail.to_complex()


def gk_fourier(k: int, z, window_c: float = 30.0) -> complex:
    """G_k(z) = z^k (E_k - 1) via the q-expansion, assembled in log space."""
    z = _as_complex(z)
    zk = LogComplex.from_complex(z) ** k
    return (zk * ek_minus_one_fourier(k, z, window_c)).to_complex()


# --- arc main terms -----------------------------------------------------

def fk_main_terms(k: int, theta: float) -> float:
    """2cos(k theta/2) + (2cos(theta/2))^(-k) + (2i sin(theta/2))^(-k),
    for theta in [pi/3, pi/2]; the last term is (-1)^(k/2)(2sin…)^(-k)."""
    if not (math.pi / 3 - 1e-12 <= theta <= math.pi / 2 + 1e-12):
        raise ValueError("main-term expansion valid on [pi/3, pi/2]")
    if k < 14 or k % 2 != 0:
        raise ValueError("main-term expansion requires even k >= 14")
    sign = 1.0 if k % 4 == 0 else -1.0
    return (2.0 * math.cos(0.5 * k * theta)
            + (2.0 * math.cos(0.5 * theta)) ** (-k)
            + sign * (2.0 * math.sin(0.5 * theta)) ** (-k))


def rk_tail_bound(k: int) -> float:
    """Bound on the terms dropped from the arc expansion of F_k:
    4 (5/2)^(-k/2) + (20 sqrt2 / (k-3)) (9/2)^((3-k)/2)."""
    if k < 14:
        raise ValueError("tail bound stated for k >= 14")
    return (4.0 * (2.5) ** (-0.5 * k)
            + (20.0 * math.sqrt(2.0) / (k - 3.0)) * 4.5 ** (0.5 * (3.0 - k)))


# --- Jacobi theta -------------------------------------------------------

_THETA_MAX_N = 1_000_000


def jacobi_theta(args: ThetaArgs, eps: float = 1e-14) -> complex:
    """theta(w, tau) = sum_n exp(pi i n^2 tau + 2 pi i n w), Im tau > 0.

    Truncates once the Gaussian factor drops below eps relative to the
    partial sum (plus 1 to guard near-cancellation)."""
    w, tau = args.w, args.tau
    total = 1.0 + 0.0j
    n = 1
    while n <= _THETA_MAX_N:
        base = 1j * math.pi * n * n * tau
        t_pos = cmath.exp(base + 2j * math.pi * n * w)
        t_neg = cmath.exp(base - 2j * math.pi * n * w)
        total += t_pos + t_neg
        if max(abs(t_pos), abs(t_neg)) < eps * (abs(total) + 1.0):
            return total
        n += 1
    raise ArithmeticError(f"theta series failed to converge: {args}")


def theta_eisenstein_transformed(k: int, z, eps: float = 1e-14) -> complex:
    """The Eisenstein theta specialization evaluated through the modular
    transformation: r^(1/2) exp(-ikx/y + pi x^2/r) *
    sum_n exp(-pi r (n - k/(2 pi y))^2) e(nx), with r = 2 pi y^2 / k."""
    z = _as_complex(z)
    x, y = z.real, z.imag
    r = 2.0 * math.pi * y * y / k
    n0 = k / (2.0 * math.pi * y)
    width = math.ceil(math.sqrt(-math.log(eps) / (math.pi * r))) + 2
    total = 0.0j
    for n in range(math.floor(n0) - width, math.ceil(n0) + width + 1):
        total += cmath.exp(-math.pi * r * (n - n0) ** 2
                           + 2j * math.pi * n * x)
    return math.sqrt(r) * cmath.exp(-1j * k * x / y
                                    + math.pi * x * x / r) * total


# --- regime approximations ---------------------------------------------

_C_ENV = 10.0          # all unspecified O(1) envelope constants
_FOURIER_ENV = 1e-6    # qualitative envelope of the large-y window, k >= 200


def gk_regime_approx(k: int, z) -> RegimeApprox:
    """Regime-selected approximation to G_k with its error envelope.

    y <= k^(2/5): direct main terms 1 + (z/(z-1))^k + (z/(z+1))^k;
    k^(2/5) < y <= k^(2/3): Jacobi theta specialization;
    above: windowed Fourier sum.  Boundaries go to the lower regime.
    """
    _check_weight(k)
    z = _as_complex(z)
    y = z.imag
    if y <= k ** 0.4:
        val = (1.0 + (z / (z - 1.0)) ** k + (z / (z + 1.0)) ** k)
        return RegimeApprox(val, Regime.SMALL_Y,
                            _C_ENV * math.exp(-k ** (1.0 / 6.0)))
    if y <= k ** (2.0 / 3.0):
        val = jacobi_theta(ThetaArgs.for_eisenstein(k, z))
        return RegimeApprox(val, Regime.THETA_MID,
                            _C_ENV * y / k ** (2.0 / 3.0))
    log_win = math.log(k) ** 2
    return RegimeApprox(gk_fourier(k, z, window_c=log_win),
                        Regime.FOURIER_LARGE, _FOURIER_ENV)


def hk_side_regimes(k: int, y: float,
                    N: Optional[int] = None) -> RegimeApprox:
    """Approximation to H_k(1/2 + iy) on the right side of the domain.

    Four branches by height (boundaries to the lower branch):
      y <= k^(2/5)           : 2 (-1)^(k/2) cos(k phi), phi = arctan(1/(2y))
      k^(2/5) < y <= k^(1/2) : same main term, envelope phi0(r) + C k^(-1/6)
      k^(1/2) < y <= k^(3/5) : (-1)^(N+k/2) r^(1/2) e^(pi/4r), needs y ~ y_N
      y > k^(3/5)            : (-1)^(N+k/2) r^(1/2), needs y ~ y_N
    with r = 2 pi y^2 / k.  The two upper branches require N with
    |2 pi N y / k - 1| <= 10/k.
    """
    _check_weight(k)
    if y <= 0:
        raise ValueError("y must be positive")
    r = 2.0 * math.pi * y * y / k
    phi = math.atan(1.0 / (2.0 * y))
    parity = 1.0 if k % 4 == 0 else -1.0
    if y <= k ** 0.4:
        return RegimeApprox(2.0 * parity * math.cos(k * phi), Regime.SMALL_Y,
                            _C_ENV * math.exp(-k ** (1.0 / 6.0)))
    if y <= k ** 0.5:
        return RegimeApprox(2.0 * parity * math.cos(k * phi), Regime.THETA_MID,
                            phi0(r) + _C_ENV * k ** (-1.0 / 6.0))
    if N is None:
        raise ValueError("branches above y = sqrt(k) require the index N")
    if abs(2.0 * math.pi * N * y / k - 1.0) > 10.0 / k:
        raise ValueError(f"y={y} is not within the N={N} resonance window")
    sign = parity * (1.0 if N % 2 == 0 else -1.0)
    if y <= k ** 0.6:
        main = math.sqrt(r) * math.exp(math.pi / (4.0 * r))
        return RegimeApprox(sign * main, Regime.THETA_MID,
                            main * phi1(r) + _C_ENV * k ** (-1.0 / 15.0))
    return RegimeApprox(sign * math.sqrt(r), Regime.FOURIER_LARGE,
                        _C_ENV * math.sqrt(r) * k ** (-0.2))


def phi0(r: float) -> float:
    """sum over n != 0, -1 of exp(-(pi/r)(n^2+n)); pairs n, -1-n match."""
    if r <= 0:
        raise ValueError("r must be positive")
    total = 0.0
    n = 1
    while True:
        term = 2.0 * math.exp(-math.pi * n * (n + 1.0) / r)
        total += term
        if term < 1e-16:
            return total
        n += 1


def phi1(r: float) -> float:
    """sum over n != 0 of exp(-pi r n^2)."""
    if r <= 0:
        raise ValueError("r must be positive")
    total = 0.0
    n = 1
    while True:
        term = 2.0 * math.exp(-math.pi * r * n * n)
        total += term
        if term < 1e-16:
            return total
        n += 1
