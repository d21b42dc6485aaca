"""Evaluators for the weight-k Eisenstein series E_k and its rescalings.

Three independent evaluation routes:

* a truncated lattice sum over c*z + d (the ground truth at desk scale,
  with a rigorous truncation certificate),
* the q-expansion 1 + gamma_k * sum sigma_{k-1}(n) e(nz), assembled in log
  space so huge coefficient/exponential pairs never overflow,
* the Jacobi theta specialization of G_k through the modular
  transformation, with the phi0/phi1 envelopes of its midrange.

Rescalings used by the zero-counting machinery:
F_k(theta) = e^(ik theta/2) E_k(e^(i theta))   (real on the unit arc)
G_k(z) = z^k (E_k(z) - 1),  H_k(z) = |z|^k (E_k(z) - 1),  |H_k| = |G_k|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .numerics import (
    MAX_WEIGHT, LogComplex, _check_weight, gamma_k, lc_sum, zeta)

__all__ = [
    "ThetaArgs",
    "eval_ek_fourier",
    "eval_ek_lattice",
    "ek_minus_one_fourier",
    "fk_batch",
    "gk",
    "gk_fourier",
    "hk_batch",
    "jacobi_theta",
    "phi0",
    "phi1",
    "theta_eisenstein_transformed",
]

# Truncation policy for the lattice evaluator.
_PAIR_BUDGET = 4_000_000   # max lattice points enumerated per evaluation
_T_HARD = 5_000.0          # absolute radius ceiling
_MIN_EPS = 1e-15           # certificate floor of every lattice evaluator
_MIN_SCALED_WEIGHT = 8     # least weight of the scaled route hk_batch / gk

# Widened domain: the fundamental domain plus the corner strip
# 2/5 <= x <= 3/5, 2^(-1/2) <= y used by the corner expansions.
_X_MAX = 0.6 + 1e-12
_Y_MIN = 2.0 ** -0.5 - 1e-12


@dataclass(frozen=True)
class ThetaArgs:
    """Arguments (w, tau) of the Jacobi theta function, Im tau > 0."""

    w: complex
    tau: complex

    def __post_init__(self):
        if not self.tau.imag > 0:
            raise ValueError("theta requires Im(tau) > 0")


def _check_scaled_weight(k: int) -> None:
    """The weight rule of the scaled evaluators hk_batch and gk."""
    _check_weight(k)
    if k < _MIN_SCALED_WEIGHT:
        raise ValueError(f"H_k evaluation supports k >= {_MIN_SCALED_WEIGHT}")


def _check_domain(z: complex) -> None:
    if not z.imag >= _Y_MIN:
        raise ValueError(f"point {z} below the supported strip y >= 2^-0.5")
    if not abs(z.real) <= _X_MAX:
        raise ValueError(f"point {z} outside the supported strip |x| <= 3/5")


def _check_fourier_domain(k: int, z: complex) -> None:
    """The point rule of the Fourier route, and its weight cap: gamma_k
    needs B_k, which numerics holds up to MAX_WEIGHT."""
    if not z.imag >= 1.0:
        raise ValueError("Fourier route requires y >= 1; use the lattice")
    if not math.isfinite(z.real):
        raise ValueError(f"point {z} has a non-finite real part")
    if k > MAX_WEIGHT:
        raise ValueError(
            f"bernoulli requires even k in [2, {MAX_WEIGHT}], got {k}")


# --- lattice evaluator --------------------------------------------------

def _check_lattice_disk(z: complex) -> tuple[float, float]:
    """The disk rule of the lattice route: (t_min, cap), the least radius
    the tail bound holds from and the most the enumeration caps allow.
    Raises when t_min is out of reach; it depends on z alone."""
    y = z.imag
    t_min = 1.0001 * (1.0 + abs(z))
    cap = min(math.sqrt(_PAIR_BUDGET * 2.0 * y / math.pi), _T_HARD)
    if t_min > 1.01 * cap:
        raise ValueError(f"cannot enumerate lattice disk for y={y}")
    return t_min, cap


def _truncation_radius(k: int, z: complex, eps: float,
                       scale_log: float) -> tuple[float, float]:
    """Radius T and certified tail bound for sum_{|cz+d|>T} |cz+d|^(-k),
    divided by 2 zeta(k), optionally scaled by exp(scale_log).

    Lattice-point counting gives N(t) <= pi (t + rho)^2 / y with covering
    radius rho <= (1+|z|)/2, hence for T >= 1+|z| the tail is at most
    2.25 pi k / (y (k-2)) * T^(2-k).  Raises for eps below the
    certificate floor _MIN_EPS: roundoff in the sum already exceeds it.
    """
    if eps < _MIN_EPS:
        raise ValueError(f"eps below certificate floor {_MIN_EPS}")
    y = z.imag
    a_const = 2.25 * math.pi * k / (y * (k - 2.0))
    log_half_a = math.log(0.5 * a_const / zeta(k))
    # aim 20% under eps so roundoff in the bound itself cannot exceed it
    t_target = math.exp((scale_log + log_half_a - math.log(0.8 * eps))
                        / (k - 2.0))
    t_min, cap = _check_lattice_disk(z)
    t = max(min(t_target, cap), t_min)
    log_tail = scale_log + log_half_a + (2.0 - k) * math.log(t)
    tail = math.exp(log_tail) if log_tail > -745.0 else 0.0
    return t, tail


# Point-pair terms per kernel block: a block and its temporaries stay
# inside a 2 MB L2 cache.
_BLOCK_TERMS = 1 << 15
# numpy's complex power multiplies by repeated squaring for integer
# exponents below this and falls back to exp/log at or above it.
_INT_POW_LIMIT = 100


def _neg_power(u: np.ndarray, k: int) -> np.ndarray:
    """u^(-k) elementwise through integer powers only, written over u:
    numpy's squaring below _INT_POW_LIMIT, above it the square of the
    (k // 2)-th power, divided once more by u (so from a copy) if k is odd."""
    if k < _INT_POW_LIMIT:
        return np.power(u, -k, out=u)
    h = _neg_power(u.copy() if k % 2 else u, k // 2)
    h *= h
    if k % 2:
        h /= u
    return h


def _lattice_sum(zs: np.ndarray, x_lo: float, x_hi: float, y: float,
                 t: float, k: int, s: Optional[np.ndarray] = None,
                 ) -> np.ndarray:
    """The one lattice sum: per point z_i, the sum of (s_i (c z_i + d))^(-k)
    over all (c, d) with c >= 1 and |c(x+iy) + d| <= t for some x in
    [x_lo, x_hi].  s (default 1) rescales each point's terms; s_i = 1/|z_i|
    keeps them <= 1.

    With x_lo = x_hi this is one point's disk; a window gives the union of
    the per-point d-ranges, a pair superset for a batch of points.  The
    disk is a table of rows (c, first d, count) in Python integers, cut in
    (c, d) order into runs of max(1, _BLOCK_TERMS // len(zs)) pairs, the
    last one short.  Each run builds its c and d arrays from the rows it
    spans and writes its block of about _BLOCK_TERMS terms over the first
    run's.  The blocks' sums are added in run order; no pairs sum to zeros.
    """
    rows, n = [], 0
    for c in range(1, int(t / y) + 1):
        s2 = t * t - (c * y) ** 2
        if s2 > 0.0:
            r = math.sqrt(s2)
            d0 = math.ceil(-c * x_hi - r)
            rows.append((c, d0, math.floor(-c * x_lo + r) + 1 - d0))
            n += rows[-1][2]
    if not n:
        return np.zeros(zs.size, dtype=np.complex128)
    step = max(1, _BLOCK_TERMS // zs.size)
    total = block = None
    j = used = 0  # the next row, and its pairs taken by earlier runs
    for i in range(0, n, step):
        size = min(step, n - i)
        segs, held = [], 0
        while held < size:
            c, d0, count = rows[j]
            take = min(count - used, size - held)
            segs.append((c, d0 + used - held, take))  # c, d - index, pairs
            held, used = held + take, used + take
            if used == count:
                j, used = j + 1, 0
        cs, shifts, counts = zip(*segs)
        c_run, d_run = np.repeat(np.array([cs, shifts], dtype=np.float64),
                                 counts, axis=1)
        d_run += np.arange(size, dtype=np.float64)
        u = np.multiply.outer(zs, c_run, out=block if size == step else None)
        block = u if block is None else block
        u += d_run
        if s is not None:
            u *= s[:, None]
        part = _neg_power(u, k).sum(axis=1)
        total = part if total is None else total + part
    return total


def _axis_sum(k: int, t: float) -> float:
    """sum_{1 <= d <= t} d^(-k): the d > 0 half of the disk's c = 0 row."""
    return float((np.arange(1.0, math.floor(t) + 1.0) ** float(-k)).sum())


def eval_ek_lattice(k: int, z, eps: float = 1e-12) -> tuple[complex, float]:
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
    z = complex(z)
    _check_domain(z)
    t, tail = _truncation_radius(k, z, eps, 0.0)
    val = complex(_lattice_sum(np.array([z]), z.real, z.real, z.imag, t, k)[0])
    val += _axis_sum(k, t)
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


def hk_batch(ks: tuple[int, ...], ys: np.ndarray, eps: float = 1e-12,
             x: float = 0.5) -> tuple[np.ndarray, tuple[float, ...]]:
    """H_k(x+iy) for each weight k in ks over an array of heights on a
    vertical line: one row of values and one shared truncation certificate
    (max over the batch) per weight.

    H_k = |z|^k (E_k - 1) is assembled from the kernel terms
    (|z|/(cz+d))^k, of magnitude <= 1 in the fundamental domain, so no
    overflow occurs even at k = 400.  Returns (values, tail_bounds);
    values are real up to roundoff when x = 1/2 and are returned complex.
    The weights share the octave split and the points' geometry; each has
    its own disk, so a row equals that weight's one-weight call.
    """
    for k in ks:
        _check_scaled_weight(k)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((len(ks), ys.size), dtype=np.complex128)
    if ys.size == 0:
        return out, (0.0,) * len(ks)
    if not (ys > 0).all():
        raise ValueError("heights must be positive")
    y_lo = float(ys.min())
    y_hi = float(ys.max())
    if y_hi > 2.0 * y_lo and ys.size > 1:
        # Split into octaves so the shared pair superset stays tight.
        mid = math.sqrt(y_lo * y_hi)
        lo_mask = ys <= mid
        out[:, lo_mask], t_lo = hk_batch(ks, ys[lo_mask], eps, x)
        out[:, ~lo_mask], t_hi = hk_batch(ks, ys[~lo_mask], eps, x)
        return out, tuple(map(max, t_lo, t_hi))
    _check_domain(complex(x, y_lo))
    z_hi = complex(x, y_hi)
    log_az_hi = math.log(abs(z_hi))
    zs = x + 1j * ys
    az = np.abs(zs)
    s, log_az = 1.0 / az, np.log(az)
    tails = []
    for i, k in enumerate(ks):
        t, tail = _truncation_radius(k, z_hi, eps, k * log_az_hi)
        vals = _lattice_sum(zs, x, x, y_lo, t, k, s)
        row, rem = _drow_tail(k, log_az, math.floor(t))
        vals -= row
        out[i] = vals / zeta(k)
        tails.append(tail + rem)
    return out, tuple(tails)


def gk(k: int, z, eps: float = 1e-12) -> complex:
    """G_k(z) = z^k (E_k(z) - 1) = e^(ik arg z) H_k(z), by hk_batch((k,))."""
    z = complex(z)
    vals, _ = hk_batch((k,), np.array([z.imag]), eps, x=z.real)
    return cmath.exp(1j * k * cmath.phase(z)) * complex(vals[0, 0])


def fk_batch(ks: tuple[int, ...], thetas: np.ndarray,
             eps: float = 1e-12) -> tuple[np.ndarray, tuple[float, ...]]:
    """F_k(theta) = e^(ik theta/2) E_k(e^(i theta)) on the unit arc for
    each weight k in ks, vectorized over theta in [pi/3, 2pi/3].  Returns
    (values, tail_bounds): one real row and one tail bound per weight.

    Each weight enumerates one pair superset valid for the whole batch;
    terms outside an individual point's disk only shrink its truncation
    error, so the shared certificate remains rigorous.  The weights share
    the arc window and geometry, so a row equals a one-weight call's.
    """
    for k in ks:
        _check_weight(k)
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty((len(ks), thetas.size))
    if thetas.size == 0:
        return out, (0.0,) * len(ks)
    if not ((thetas >= math.pi / 3 - 1e-12)
            & (thetas <= 2 * math.pi / 3 + 1e-12)).all():
        raise ValueError("arc angles must lie in [pi/3, 2pi/3]")
    y_min = float(np.sin(thetas).min())
    ends = [cmath.exp(1j * float(th)) for th in (thetas.min(), thetas.max())]
    zs = np.exp(1j * thetas)
    xs = np.cos(thetas)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    tails = []
    for i, k in enumerate(ks):
        # worst-case (largest) radius over the batch
        t, tail = map(max, *(_truncation_radius(k, z, eps, 0.0) for z in ends))
        vals = _lattice_sum(zs, x_lo, x_hi, y_min, t, k)
        vals += _axis_sum(k, t)
        vals = np.exp(0.5j * k * thetas) * vals / zeta(k)
        # the imaginary part is truncation, so it may reach the tail bound
        resid = float(np.abs(vals.imag).max())
        if resid >= 1e-9 + tail:
            raise ArithmeticError(
                f"arc rescaling lost reality: residue {resid}")
        out[i] = vals.real
        tails.append(tail)
    return out, tuple(tails)


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


# Half-width of the summed window around the peak term n* = k / (2 pi y),
# in units of sqrt(k) / (2 pi y).
_WINDOW_C = 30.0


def _fourier_terms(k: int, z: complex) -> list[LogComplex]:
    y = z.imag
    x = z.real
    g = gamma_k(k)
    n_star = k / (2.0 * math.pi * y)
    half = _WINDOW_C * math.sqrt(k) / (2.0 * math.pi * y)
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


def ek_minus_one_fourier(k: int, z) -> LogComplex:
    """E_k(z) - 1 as a LogComplex via the q-expansion; valid for y >= 1.

    Keeping the result in log space matters: at k = 400, y ~ 54 the value
    is ~ e^(-1595), far below the float range, while z^k (E_k - 1) is O(1).
    """
    _check_weight(k)
    z = complex(z)
    _check_fourier_domain(k, z)
    return lc_sum(_fourier_terms(k, z))


def eval_ek_fourier(k: int, z) -> complex:
    """E_k(z) by the q-expansion, for y >= 1."""
    return 1.0 + ek_minus_one_fourier(k, z).to_complex()


def gk_fourier(k: int, z) -> complex:
    """G_k(z) = z^k (E_k - 1) via the q-expansion, assembled in log space."""
    z = complex(z)
    zk = LogComplex.from_complex(z) ** k
    return (zk * ek_minus_one_fourier(k, z)).to_complex()


# --- Jacobi theta -------------------------------------------------------

_THETA_MAX_N = 1_000_000
# relative truncation tolerance of both theta series
_THETA_EPS = 1e-14


def jacobi_theta(args: ThetaArgs) -> complex:
    """theta(w, tau) = sum_n exp(pi i n^2 tau + 2 pi i n w), Im tau > 0.

    Truncates once the Gaussian factor drops below _THETA_EPS relative to
    the partial sum (plus 1 to guard near-cancellation)."""
    w, tau = args.w, args.tau
    total = 1.0 + 0.0j
    n = 1
    while n <= _THETA_MAX_N:
        base = 1j * math.pi * n * n * tau
        t_pos = cmath.exp(base + 2j * math.pi * n * w)
        t_neg = cmath.exp(base - 2j * math.pi * n * w)
        total += t_pos + t_neg
        if max(abs(t_pos), abs(t_neg)) < _THETA_EPS * (abs(total) + 1.0):
            return total
        n += 1
    raise ArithmeticError(f"theta series failed to converge: {args}")


def _check_theta_radius(k: int, z: complex) -> float:
    """The theta route's point rule: r = 2 pi y^2 / k must be finite, since
    past its overflow (y about 1e154 at k = 12) sqrt(r) times the sum,
    which underflows to 0, is NaN.  Returns r."""
    r = 2.0 * math.pi * z.imag * z.imag / k
    if not math.isfinite(r):
        raise ValueError(f"point {z} too high for the theta route: "
                         f"r = 2 pi y^2 / k overflows")
    return r


def theta_eisenstein_transformed(k: int, z) -> complex:
    """The Eisenstein theta specialization evaluated through the modular
    transformation: r^(1/2) exp(-ikx/y + pi x^2/r) *
    sum_n exp(-pi r (n - k/(2 pi y))^2) e(nx), with r = 2 pi y^2 / k,
    on the lattice route's strip."""
    _check_weight(k)
    z = complex(z)
    _check_domain(z)
    r = _check_theta_radius(k, z)
    x, y = z.real, z.imag
    n0 = k / (2.0 * math.pi * y)
    width = math.ceil(math.sqrt(-math.log(_THETA_EPS) / (math.pi * r))) + 2
    total = 0.0j
    for n in range(math.floor(n0) - width, math.ceil(n0) + width + 1):
        total += cmath.exp(-math.pi * r * (n - n0) ** 2
                           + 2j * math.pi * n * x)
    return math.sqrt(r) * cmath.exp(-1j * k * x / y
                                    + math.pi * x * x / r) * total


def _phi0_exponent(r: float, n: int) -> float:
    return -math.pi * n * (n + 1.0) / r


def _phi1_exponent(r: float, n: int) -> float:
    return -math.pi * r * n * n


def _phi_series(r: float, exponent) -> float:
    """2 sum_{n >= 1} exp(exponent(r, n)), stopped at the first term below
    1e-16; the two-sided sums phi0 and phi1 pair their terms this way.
    Raises ArithmeticError when none of the first _THETA_MAX_N terms is."""
    if r <= 0:
        raise ValueError("r must be positive")
    total = 0.0
    for n in range(1, _THETA_MAX_N + 1):
        term = 2.0 * math.exp(exponent(r, n))
        total += term
        if term < 1e-16:
            return total
    raise ArithmeticError(f"phi series failed to converge at r = {r!r}")


def _check_phi_range(r_min: float, r_max: float) -> None:
    """The rule of the phi series on [r_min, r_max]: a finite range of
    positive radii on which both stop within _THETA_MAX_N terms.  The
    terms fall with n, phi1's more slowly as r falls and phi0's as r
    grows, so phi1 at r_min and phi0 at r_max decide it (about
    1.2e-11 <= r <= 8.4e10)."""
    if not 0.0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    if not math.isfinite(r_max):
        raise ValueError("need a finite r_max")
    for name, r, exponent in (("phi1", r_min, _phi1_exponent),
                              ("phi0", r_max, _phi0_exponent)):
        if not 2.0 * math.exp(exponent(r, _THETA_MAX_N)) < 1e-16:
            raise ValueError(f"{name}({r:g}) needs more than "
                             f"{_THETA_MAX_N} terms")


def phi0(r: float) -> float:
    """sum over n != 0, -1 of exp(-(pi/r)(n^2+n)); pairs n, -1-n match."""
    return _phi_series(r, _phi0_exponent)


def phi1(r: float) -> float:
    """sum over n != 0 of exp(-pi r n^2); pairs n, -n match."""
    return _phi_series(r, _phi1_exponent)
