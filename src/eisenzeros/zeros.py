"""Boundary zero census for the Eisenstein product family.

Counts zeros of delta(k, l) on the two non-trivial pieces of the
fundamental-domain boundary: the unit-circle arc theta in (pi/3, pi/2)
and the vertical side x = 1/2, y > sqrt(3)/2.  Counting is by certified
sign changes of the real-valued restrictions from the delta module:
every zero is returned as a bracket whose endpoint signs clear the
evaluator's own error bound by a safety factor, then narrowed by
bisection.  Closed-form predictions for the counts and the stabilization
threshold in k past which they stop moving live alongside, as does a
falsification sweep for interior zeros; audit() ties the counts to the
exact valence identity 12 A + 12 B + 6 v_i + 4 v_rho + 12 = k + l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .delta import (WeightPair, _as_pair, arc_real_batch, corner_derivatives,
                    side_normalized_batch)
from .eisenstein import _log_sigma
# lc_sum is no longer called here but stays importable: perfbench's
# tracer installs its numerics.lc_sum span at eisenzeros.zeros:lc_sum.
from .numerics import gamma_k, lc_sum, zeta  # noqa: F401

__all__ = [
    "ZeroBracket",
    "PredictedCounts",
    "ZeroCountReport",
    "SignUncertainError",
    "DominanceCertificateError",
    "arc_sample_points",
    "side_sample_points",
    "stabilization_point",
    "predicted_counts",
    "expected_boundary_counts",
    "trivial_orders",
    "count_arc_zeros",
    "count_side_zeros",
    "side_upper_cutoff",
    "interior_zero_hunt",
    "audit",
]

_SQRT3 = math.sqrt(3.0)
_CERTAINTY = 10.0
_EPS_LADDER = (1e-12, 1e-14, 1e-15)
_BRACKET_WIDTH = 1e-12
_PROBE_LEVELS = 3      # levels probed while an end value is unknown
_ENDPOINT_TOL = 1e-9
_COEFF_COUNT = 50
_Y_CEILING = 64.0


class SignUncertainError(ArithmeticError):
    """A sign stayed uncertain through the full precision escalation.

    Carries the offending points and their count so callers never have to
    guess how much of a scan was ambiguous.
    """

    def __init__(self, message: str, points: Sequence[float] = (),
                 uncertain: int = 0) -> None:
        super().__init__(message)
        self.points = tuple(float(p) for p in points)
        self.uncertain = uncertain


class DominanceCertificateError(ArithmeticError):
    """The leading Fourier coefficient never certifiably dominated."""


@dataclass(frozen=True)
class ZeroBracket:
    """A certified sign change: kind says whether lo/hi are theta ("arc")
    or y on the x = 1/2 line ("side")."""

    kind: str
    lo: float
    hi: float
    sign_lo: int
    sign_hi: int

    @property
    def location(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class PredictedCounts:
    """Closed-form zero-count predictions for one weight pair.

    N and T are the floor counts read off the sample combs alone; N_prime
    and T_prime the sharpened stabilized values; sp the threshold in k
    past which the actual counts equal the stabilized ones.
    """

    N: int
    N_prime: int
    T: int
    T_prime: int
    sp: float
    total_nontrivial: int


@dataclass(frozen=True)
class ZeroCountReport:
    wp: WeightPair
    A: int
    B: int
    v_i: int
    v_rho: int
    predicted_A: int
    predicted_B: int
    valence_ok: bool
    findings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# sample combs


def arc_sample_points(wp) -> list[float]:
    """Angles theta_m = 2 m pi / (k - l) with certified alternating signs.

    The integers m run over (2n + j/6, 3n + j/4]; that interval holds n of
    them for j in {0, 2, 6} and n + 1 for j in {4, 8, 10}.  All returned
    angles lie in (pi/3, pi/2].  Empty when k = l.
    """
    wp = _as_pair(wp)
    if wp.k == wp.l:
        return []
    n, j = wp.n, wp.j
    m_first = (12 * n + j) // 6 + 1
    m_last = (12 * n + j) // 4
    kl = wp.k - wp.l
    return [2.0 * math.pi * m / kl for m in range(m_first, m_last + 1)]


def side_sample_points(l: int) -> list[float]:
    """Angles theta_m = pi m / l, m = 2q + d, for the side comb.

    The d-range depends on l mod 6 and is exactly the set of m for which
    theta_m falls in (pi/3, pi/2); at these angles cos(l theta_m) = (-1)^m.
    """
    if l % 2 or l < 14:
        raise ValueError(f"side comb needs even l >= 14, got {l}")
    q, a = divmod(l, 6)
    if a == 0:
        ds = range(1, q)
    elif a == 2:
        ds = range(1, q + 1)
    else:
        ds = range(2, q + 2)
    return [math.pi * (2 * q + d) / l for d in ds]


# ---------------------------------------------------------------------------
# closed-form predictions

# stabilized arc counts as offsets from n; rows j = (k - l) mod 12,
# columns l mod 6
_N_PRIME_OFFSET = {
    0: {0: 0, 2: 0, 4: -1},
    2: {0: -1, 2: 0, 4: -1},
    4: {0: 0, 2: 0, 4: 0},
    6: {0: 0, 2: 0, 4: -1},
    8: {0: 0, 2: 1, 4: 0},
    10: {0: 0, 2: 0, 4: 0},
}

# pre-stabilization side counts as offsets from floor(l/6), same layout
_B_PRESTAB_OFFSET = {
    0: {0: -1, 2: -1, 4: -1},
    2: {0: -2, 2: -1, 4: -1},
    4: {0: -1, 2: -1, 4: 0},
    6: {0: -1, 2: -1, 4: -1},
    8: {0: -2, 2: -1, 4: -1},
    10: {0: -1, 2: -1, 4: 0},
}


def stabilization_point(l: int, j: int) -> float:
    """Threshold in k past which the boundary counts take their final form.

    Defaults to l (no transient).  Three congruence families have a genuine
    transient that ends at the larger root of the corner derivative
    polynomial controlling the local sign there.
    """
    lm, jm = l % 6, j % 6
    if lm == 0 and jm == 2:
        return 0.5 * (l - 1.0 + math.sqrt(3.0 * l * l - 1.0))
    if lm == 4 and jm == 2:
        return 2.0 * l
    if lm == 4 and jm == 0:
        return 0.5 * (4.0 * l - 1.0 + math.sqrt(12.0 * l * l - 12.0 * l + 1.0))
    return float(l)


def predicted_counts(wp) -> PredictedCounts:
    """All closed-form count predictions for one pair."""
    wp = _as_pair(wp)
    n, j, l, w = wp.n, wp.j, wp.l, wp.weight_sum
    lm = l % 6
    n_floor = max(0, n - 1 if j in (0, 2, 6) else n)
    if n == 0:
        # for j = 8 the arc restriction is near 2 at pi/2, so the arc
        # carries its one zero only when the restriction is negative just
        # right of pi/3.  For l = 0 mod 6 the corner value vanishes and
        # that sign is the sign of M'' at pi/3, which is positive only for
        # l <= 18; the zero then lies on the side instead.
        n_prime = 1 if j == 8 else 0
        if (n_prime and lm == 0
                and corner_derivatives(wp).m_double_prime > 0.0):
            n_prime = 0
    else:
        n_prime = n + _N_PRIME_OFFSET[j][lm]
    t_floor = l // 6 - (2 if lm == 0 else 1)
    t_prime = l // 6 + (0 if lm == 4 else -1)
    total = w // 12 - 1 - (1 if w % 12 == 2 else 0)
    return PredictedCounts(n_floor, n_prime, t_floor, t_prime,
                           stabilization_point(l, j), total)


def expected_boundary_counts(wp, pc: Optional[PredictedCounts] = None,
                             ) -> tuple[int, int]:
    """Expected (A, B) at this k, including the pre-stabilization transient.

    For n = 0 the special-case values apply at every k, and a j = 8
    zero that predicted_counts moves off the arc lies on the side;
    otherwise the arc carries one extra zero and the side one fewer until
    k reaches the stabilization point.
    """
    wp = _as_pair(wp)
    if pc is None:
        pc = predicted_counts(wp)
    if wp.n == 0:
        a = pc.N_prime
        b = wp.l // 6 + _B_PRESTAB_OFFSET[wp.j][wp.l % 6]
        if wp.j == 8 and a == 0:
            b += 1
    elif wp.k < pc.sp:
        a = pc.N_prime + 1
        b = wp.l // 6 + _B_PRESTAB_OFFSET[wp.j][wp.l % 6]
    else:
        a = pc.N_prime
        b = pc.T_prime
    return a, b


_TRIVIAL_ORDERS = {0: (0, 0), 2: (1, 2), 4: (0, 1),
                   6: (1, 0), 8: (0, 2), 10: (1, 1)}


def trivial_orders(w: int) -> tuple[int, int]:
    """Minimal orders (v_i, v_rho) forced at i and rho by w mod 12.

    These are the unique choices with v_i in {0, 1}, v_rho in {0, 1, 2}
    making w/12 - v_i/2 - v_rho/3 an integer.
    """
    if w % 2 or w < 16:
        raise ValueError(f"total weight must be even and >= 16, got {w}")
    return _TRIVIAL_ORDERS[w % 12]


# ---------------------------------------------------------------------------
# certified sign machinery


# batch_eval(xs, eps) -> (values, pointwise error bounds), with the bounds
# honest for accuracy target eps
_BatchEval = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]


def _certified_sign(batch_eval: _BatchEval, x: float,
                    ladder: Sequence[float] = _EPS_LADDER) -> int:
    """Sign of the restriction at x, evaluated as a batch of one, or 0 if
    every escalation pass stays ambiguous.

    A sign counts only when |value| clears the evaluator's own error bound
    by the _CERTAINTY factor.
    """
    for eps in ladder:
        vals, errs = batch_eval(np.array([x]), eps)
        val, err = float(vals[0]), float(errs[0])
        if abs(val) > _CERTAINTY * err:
            return 1 if val > 0.0 else -1
    return 0


_SPLIT_FRACTIONS = (0.5, 0.45, 0.55, 0.40, 0.60)


def _refine_bracket(batch_eval: _BatchEval, kind: str, lo: float, hi: float,
                    sign_lo: int, sign_hi: int) -> ZeroBracket:
    """Narrow a certified sign change to width <= 1e-12 by bisection.

    A probe whose sign cannot be certified is sidestepped by moving the
    split fraction; zeros of the restrictions are isolated, so some probe
    certifies unless the bracket has already collapsed onto the zero.
    """
    if sign_lo * sign_hi >= 0:
        raise ValueError("bracket endpoints need opposite certified signs")
    for _ in range(200):
        if hi - lo <= _BRACKET_WIDTH:
            break
        s = 0
        for frac in _SPLIT_FRACTIONS:
            mid = lo + frac * (hi - lo)
            s = _certified_sign(batch_eval, mid)
            if s:
                break
        if s == 0:
            break
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return ZeroBracket(kind, lo, hi, sign_lo, sign_hi)


def _certify_grid(batch_eval: _BatchEval, grid: np.ndarray, eps: float,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Certified signs on a scan grid.

    Ambiguous points are re-run one at a time on the escalation ladder,
    then nudged within their own cell (a zero sitting exactly on a grid
    point is isolated, so a nudged neighbour certifies).  Returns the
    possibly nudged grid and the sign array.  Every ambiguous point is
    tried; if any stays uncertain, one SignUncertainError carries all of
    them.
    """
    vals, errs = batch_eval(grid, eps)
    signs = np.where(vals > 0.0, 1, -1).astype(np.int64)
    ok = np.abs(vals) > _CERTAINTY * errs
    if bool(ok.all()):
        return grid, signs
    grid = grid.astype(float).copy()
    gaps = np.diff(grid)
    uncertain = []
    for i in np.nonzero(~ok)[0]:
        s = _certified_sign(batch_eval, float(grid[i]), _EPS_LADDER[1:])
        if s == 0:
            left = gaps[i - 1] if i > 0 else gaps[0]
            right = gaps[i] if i < gaps.size else gaps[-1]
            half = 0.5 * min(left, right)
            for frac in (0.61, -0.53, 0.87):
                x2 = float(grid[i] + frac * half)
                s = _certified_sign(batch_eval, x2)
                if s:
                    grid[i] = x2
                    break
        if s:
            signs[i] = s
        else:
            uncertain.append(float(grid[i]))
    if uncertain:
        raise SignUncertainError(
            f"{len(uncertain)} scan point(s) stayed sign-uncertain, first at "
            f"{uncertain[0]:.12g}", points=uncertain, uncertain=len(uncertain))
    return grid, signs


# ---------------------------------------------------------------------------
# boundary scans


def _probes(lo: float, hi: float, seen: dict[float, float]) -> list[float]:
    """Points one round of _refine_brackets evaluates for the bracket
    (lo, hi), given the certified values seen so far.

    With values at both ends these are the midpoints bisection visits if
    the zero lies where the chord crosses zero, down to a 1e-12 bracket.
    Otherwise they are the ends without a value and the midpoints the
    next _PROBE_LEVELS steps can visit.  Every midpoint is computed as
    _refine_bracket computes its first split, lo + 0.5 (hi - lo).
    """
    if lo in seen and hi in seen:
        guess = lo - seen[lo] * (hi - lo) / (seen[hi] - seen[lo])
        path = []
        while hi - lo > _BRACKET_WIDTH:
            m = lo + 0.5 * (hi - lo)
            path.append(m)
            lo, hi = (m, hi) if guess > m else (lo, m)
        return path
    nodes = [x for x in (lo, hi) if x not in seen]
    spans = [(lo, hi)]
    for _ in range(_PROBE_LEVELS):
        halves = []
        for a, b in spans:
            m = a + 0.5 * (b - a)
            nodes.append(m)
            halves += [(a, m), (m, b)]
        spans = halves
    return nodes


def _refine_brackets(batch_eval: _BatchEval, kind: str,
                     cells: Sequence[tuple[float, float, int, int]],
                     ) -> list[ZeroBracket]:
    """_refine_bracket for every cell (lo, hi, sign_lo, sign_hi) at once,
    with the same brackets.

    Each round evaluates the _probes of every open cell in one batch per
    escalation rung, then bisects each cell as far as certified signs at
    its midpoints are known.  A certified sign is the true sign, so the
    path is the one sequential bisection takes.  A cell whose next
    midpoint is uncertain moves up the escalation ladder and, once the
    ladder is spent, finishes on _refine_bracket, which sidesteps.
    """
    out: list[Optional[ZeroBracket]] = [None] * len(cells)
    # open cell -> (lo, hi, escalation rung, certified values seen)
    state = {i: (lo, hi, 0, {}) for i, (lo, hi, _, _) in enumerate(cells)}
    while state:
        for rung, eps in enumerate(_EPS_LADDER):
            group = [i for i, st in state.items() if st[2] == rung]
            if not group:
                continue
            probes = [_probes(state[i][0], state[i][1], state[i][3])
                      for i in group]
            vals, errs = batch_eval(np.array([x for p in probes for x in p]),
                                    eps)
            certified = np.abs(vals) > _CERTAINTY * errs
            at = 0
            for i, xs in zip(group, probes):
                lo, hi, _, seen = state.pop(i)
                seen.update((x, float(v)) for x, v, c in
                            zip(xs, vals[at:], certified[at:]) if c)
                at += len(xs)
                _, _, sign_lo, sign_hi = cells[i]
                while hi - lo > _BRACKET_WIDTH:
                    m = lo + 0.5 * (hi - lo)
                    if m not in seen:
                        break
                    if (seen[m] > 0.0) == (sign_lo > 0):
                        lo = m
                    else:
                        hi = m
                if hi - lo <= _BRACKET_WIDTH:
                    out[i] = ZeroBracket(kind, lo, hi, sign_lo, sign_hi)
                elif m not in xs:
                    state[i] = (lo, hi, rung, seen)
                elif rung + 1 < len(_EPS_LADDER):
                    state[i] = (lo, hi, rung + 1, seen)
                else:
                    out[i] = _refine_bracket(batch_eval, kind, lo, hi,
                                             sign_lo, sign_hi)
    return out


def _refined_zeros(batch_eval: _BatchEval, kind: str, grid: np.ndarray,
                   signs: np.ndarray, corners: Sequence[float],
                   ) -> tuple[int, tuple[ZeroBracket, ...]]:
    """(count, brackets) of the certified sign changes on a scan grid.

    Every change is bisected to a 1e-12 bracket; one whose midpoint lands
    within _ENDPOINT_TOL of a corner with a forced order is that corner's
    own zero and is not counted.
    """
    cells = [(float(grid[i]), float(grid[i + 1]), int(signs[i]),
              int(signs[i + 1]))
             for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]]
    out = tuple(br for br in _refine_brackets(batch_eval, kind, cells)
                if all(abs(br.location - c) >= _ENDPOINT_TOL for c in corners))
    return len(out), out


def count_arc_zeros(wp, eps: float = 1e-12, oversample: float = 1.0,
                    ) -> tuple[int, tuple[ZeroBracket, ...]]:
    """Zeros of the arc restriction on the open arc, endpoints excluded.

    Scans 16 (k + l) equispaced interior angles (half-offset so neither
    corner is sampled), certifies every sign, and bisects each change to a
    1e-12 bracket.  A bracket whose midpoint lands within 1e-9 of pi/3 or
    pi/2 is attributed to the forced corner order there when one exists.
    """
    wp = _as_pair(wp)
    if wp.l < 14:
        raise ValueError("arc census needs k >= l >= 14")
    npts = max(64, math.ceil(16 * wp.weight_sum * oversample))
    h = (math.pi / 2.0 - math.pi / 3.0) / npts
    grid = math.pi / 3.0 + h * (np.arange(npts) + 0.5)

    def ev(xs: np.ndarray, e: float) -> tuple[np.ndarray, np.ndarray]:
        return arc_real_batch(wp, xs, e)

    grid, signs = _certify_grid(ev, grid, eps)
    v_i, v_rho = trivial_orders(wp.weight_sum)
    corners = (((math.pi / 3.0,) if v_rho > 0 else ())
               + ((math.pi / 2.0,) if v_i > 0 else ()))
    return _refined_zeros(ev, "arc", grid, signs, corners)


def count_side_zeros(wp, eps: float = 1e-12, oversample: float = 1.0,
                     ) -> tuple[int, tuple[ZeroBracket, ...]]:
    """Zeros of the side restriction on x = 1/2, sqrt(3)/2 < y <= y_max.

    The grid is the union of 16 l points uniform in theta up to height
    k^(2/5) and 8 points between consecutive resonance heights
    y_N = k / (2 pi N), truncated at the certified dominance cutoff y_max
    above which no zero can exist.
    """
    wp = _as_pair(wp)
    if wp.l < 14:
        raise ValueError("side census needs k >= l >= 14")
    y_lo = _SQRT3 / 2.0
    y_max = side_upper_cutoff(wp)
    pieces = [np.array([y_max])]
    y_cap = min(wp.k ** 0.4, y_max)
    th_hi = math.atan2(y_cap, 0.5)
    n1 = max(64, math.ceil(16 * wp.l * oversample))
    h = (th_hi - math.pi / 3.0) / n1
    if h > 0:
        thetas = math.pi / 3.0 + h * (np.arange(n1) + 0.5)
        pieces.append(0.5 * np.tan(thetas))
    n_res = int(wp.k ** 0.6 / (2.0 * math.pi))
    for m in range(1, n_res + 1):
        y_hi_r = wp.k / (2.0 * math.pi * m)
        y_lo_r = wp.k / (2.0 * math.pi * (m + 1))
        t = (np.arange(8) + 0.5) / 8.0
        pieces.append(y_lo_r + t * (y_hi_r - y_lo_r))
    ys = np.unique(np.concatenate(pieces))
    ys = ys[(ys > y_lo + 1e-9) & (ys <= y_max)]
    if ys.size < 2:
        return 0, ()

    def ev(xs: np.ndarray, e: float) -> tuple[np.ndarray, np.ndarray]:
        return side_normalized_batch(wp, xs, e)

    ys, signs = _certify_grid(ev, ys, eps)
    _, v_rho = trivial_orders(wp.weight_sum)
    return _refined_zeros(ev, "side", ys, signs, (y_lo,) if v_rho > 0 else ())


# ---------------------------------------------------------------------------
# dominance cutoff for the side scan


def _logsumexp(vals: np.ndarray) -> float:
    top = float(vals.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.exp(vals - top).sum()))


# Both caches below hold one pair: a census item reads the coefficients
# and the cutoff in its side scan and again in its interior hunt, and
# never comes back to a pair after that.
@lru_cache(maxsize=1)
def _delta_log_coeffs(wp: WeightPair, count: int = _COEFF_COUNT,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """First Fourier coefficients a_1..a_count of delta as arrays of
    log|a_m| (-inf where a_m vanishes) and arg a_m (0 or pi).

    a_m combines the three single-series coefficients with the divisor-sum
    convolution from the product term; everything stays in log scale
    because the gamma factors underflow floats near total weight 400.
    """
    k, l, w = wp.k, wp.l, wp.weight_sum
    ls_k, ls_l, ls_w = (
        np.array([_log_sigma(j - 1, n) for n in range(1, count + 1)])
        for j in (k, l, w))
    # log sum_{r+s=m} sigma_{k-1}(r) sigma_{l-1}(s): one log-sum-exp per
    # anti-diagonal of the (r, s) table, row m - 2 for m = 2..count
    m = np.arange(2, count + 1)[:, None]
    r = np.arange(1, count)[None, :]
    anti = np.where(r < m, ls_k[r - 1] + ls_l[np.maximum(m - r, 1) - 1],
                    -np.inf)
    top = anti.max(axis=1)
    conv = np.concatenate((
        [-np.inf], top + np.log(np.exp(anti - top[:, None]).sum(axis=1))))
    gk, gl, gw = gamma_k(k), gamma_k(l), gamma_k(w)
    factors = (gk, gl, -gw, gk * gl)
    logs = (np.column_stack((ls_k, ls_l, ls_w, conv))
            + [g.log_mag for g in factors])
    signs = [g.real_sign() for g in factors]
    top = logs.max(axis=1)
    log_mag = np.full(count, -np.inf)
    phase = np.zeros(count)
    # the signed four-term sums cancel deeply near total weight 400
    for i, row in enumerate(np.exp(logs - top[:, None]).tolist()):
        re = math.fsum(sg * v for sg, v in zip(signs, row))
        if re != 0.0:
            log_mag[i] = top[i] + math.log(abs(re))
            phase[i] = 0.0 if re > 0.0 else math.pi
    # the cache hands these arrays to every caller
    log_mag.flags.writeable = False
    phase.flags.writeable = False
    return log_mag, phase


def side_upper_cutoff(wp) -> float:
    """Height above which the leading Fourier term certifiably dominates.

    Above the returned y, twice the sum of an explicit bound on
    |a_2 q^2| + ... + |a_50 q^50| and a geometric majorant for the rest
    stays below |a_1 q|, so the side restriction cannot vanish.  The
    smallest such y is found by bisection; the certificate is monotone
    because every ratio |a_m q^m / a_1 q| decreases in y.
    """
    return _side_upper_cutoff(_as_pair(wp))


@lru_cache(maxsize=1)
def _side_upper_cutoff(wp: WeightPair) -> float:
    log_mag, _ = _delta_log_coeffs(wp)
    la1 = float(log_mag[0])
    if not math.isfinite(la1):
        raise DominanceCertificateError("leading Fourier coefficient vanishes")
    k, l, w = wp.k, wp.l, wp.weight_sum
    # crude tail majorant |a_m| <= C m^(w-1) from sigma_{j}(m) <= m^j zeta(j)
    log_c = _logsumexp(np.array([
        gamma_k(k).log_mag + math.log(zeta(k - 1)),
        gamma_k(l).log_mag + math.log(zeta(l - 1)),
        gamma_k(w).log_mag + math.log(zeta(w - 1)),
        gamma_k(k).log_mag + gamma_k(l).log_mag
        + math.log(zeta(k - 1)) + math.log(zeta(l - 1)),
    ]))
    two_pi = 2.0 * math.pi
    m0 = log_mag.size + 1
    partial_logs = log_mag[1:]
    slopes = two_pi * np.arange(2, m0, dtype=np.float64)
    terms = np.empty(m0 - 1)   # log|a_m q^m| for m = 2..50, then the tail

    def dominated(y: float) -> bool:
        # consecutive tail terms shrink by at most (1 + 1/m0)^(w-1) e^(-2 pi y)
        log_ratio = (w - 1) * math.log1p(1.0 / m0) - two_pi * y
        if log_ratio >= -1e-9:
            return False
        tail = (log_c + (w - 1) * math.log(m0) - two_pi * m0 * y
                - math.log1p(-math.exp(log_ratio)))
        np.subtract(partial_logs, slopes * y, out=terms[:-1])
        terms[-1] = tail
        rhs = math.log(2.0) + _logsumexp(terms) + 1e-9
        return la1 - two_pi * y > rhs

    lo = _SQRT3 / 2.0
    if dominated(lo):
        return lo
    hi = 2.0 * lo
    while not dominated(hi):
        hi *= 1.5
        if hi > _Y_CEILING:
            raise DominanceCertificateError(
                f"no certified dominance below y = {_Y_CEILING}")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if dominated(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# interior falsification sweep


_HUNT_MARGIN = 1.02


def _hunt_field(wp: WeightPair,
                ) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], float]:
    """The interior hunt's normalized |delta| as a function of point arrays
    (xs, ys), and the top height y_hi of the hunt.

    |delta| comes from the signed-log Fourier series as one max-shifted
    log-sum-exp over the coefficients per point, divided by the leading
    envelope |a_1| e^(-2 pi y).  Points off the hunt region read inf.
    """
    all_logs, all_phases = _delta_log_coeffs(wp)
    la1 = all_logs[0]
    y_hi = max(1.8, side_upper_cutoff(wp))
    live = np.isfinite(all_logs)
    two_pi_m = 2.0 * math.pi * np.arange(1.0, all_logs.size + 1.0)[live]
    log_mag = all_logs[live]
    phase = all_phases[live]

    def norm_abs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        logs = log_mag - np.outer(ys, two_pi_m)
        top = logs.max(axis=1)
        w = np.exp(logs - top[:, None])
        phases = phase + np.outer(xs, two_pi_m)
        re = (w * np.cos(phases)).sum(axis=1)
        im = (w * np.sin(phases)).sum(axis=1)
        with np.errstate(divide="ignore"):
            vals = np.exp(top + np.log(np.hypot(re, im))
                          + 2.0 * math.pi * ys - la1)
        outside = ((np.hypot(xs, ys) < _HUNT_MARGIN) | (np.abs(xs) > 0.49)
                   | (ys > y_hi + 0.5))
        return np.where(outside, math.inf, vals)

    return norm_abs, y_hi


def interior_zero_hunt(wp, nx: int = 13, ny: int = 11) -> tuple[str, ...]:
    """Falsification sweep for zeros strictly inside the fundamental domain.

    |delta| is evaluated through the signed-log Fourier series (the
    direct product of lattice values cancels catastrophically once y is
    moderate) and normalized by the leading envelope |a_1| e^(-2 pi y) so
    a genuine zero shows as a dip many orders below the generic O(1)
    level.  Strict local minima of the normalized grid below 1e-4 are
    polished by pattern search, nine points a step; anything ending below
    1e-8 is reported.  An empty result means the sweep saw nothing
    suspicious.
    """
    wp = _as_pair(wp)
    norm_abs, y_hi = _hunt_field(wp)
    xs = np.linspace(-0.48, 0.48, nx)
    rows = np.geomspace(0.9 * _HUNT_MARGIN, y_hi, ny)
    grid_x, grid_y = np.meshgrid(xs, rows)
    vals = norm_abs(grid_x.ravel(), grid_y.ravel()).reshape(grid_x.shape)
    findings = []
    for iy in range(vals.shape[0]):
        for ix in range(vals.shape[1]):
            v = vals[iy, ix]
            if not math.isfinite(v) or v > 1e-4:
                continue
            neigh = vals[max(0, iy - 1):iy + 2, max(0, ix - 1):ix + 2]
            if v > np.min(neigh[np.isfinite(neigh)]):
                continue
            x, y = float(xs[ix]), float(rows[iy])
            fx = float(v)
            sx = float(xs[1] - xs[0])
            sy = float(rows[min(iy + 1, ny - 1)] - rows[max(iy - 1, 0)]) / 2.0
            for _ in range(60):
                # the 3 x 3 stencil in (dx, dy) order; argmin keeps the
                # first of equal minima
                dxs = np.repeat([-sx, 0.0, sx], 3)
                dys = np.tile([-sy, 0.0, sy], 3)
                f = norm_abs(x + dxs, y + dys)
                best = int(np.argmin(f))
                if f[best] < fx:
                    fx = float(f[best])
                    x, y = float(x + dxs[best]), float(y + dys[best])
                else:
                    sx *= 0.5
                    sy *= 0.5
                    if max(sx, sy) < 1e-10:
                        break
            if fx < 1e-8:
                findings.append(
                    f"interior zero candidate: normalized |delta| = {fx:.3e} "
                    f"near x = {x:.9f}, y = {y:.9f}")
    return tuple(findings)


# ---------------------------------------------------------------------------
# the audit


def audit(wp, eps: float = 1e-12, oversample: float = 1.0) -> ZeroCountReport:
    """Full boundary census for one pair with the exact valence cross-check.

    Measured counts come from the certified scans; the valence identity is
    checked in cleared-denominator integer form.  Once k has passed the
    stabilization point (and the pair is not in the n = 0 family) the
    measured counts must equal the stabilized predictions; mismatches are
    reported as findings, as is a valence failure.
    """
    wp = _as_pair(wp)
    a_count, _ = count_arc_zeros(wp, eps=eps, oversample=oversample)
    b_count, _ = count_side_zeros(wp, eps=eps, oversample=oversample)
    v_i, v_rho = trivial_orders(wp.weight_sum)
    pc = predicted_counts(wp)
    pa, pb = expected_boundary_counts(wp, pc)
    valence_ok = (12 * (a_count + b_count) + 6 * v_i + 4 * v_rho + 12
                  == wp.weight_sum)
    findings = []
    if not valence_ok:
        findings.append(
            f"valence identity fails at k={wp.k}, l={wp.l}: A={a_count}, "
            f"B={b_count}, v_i={v_i}, v_rho={v_rho}")
    if wp.n >= 1 and wp.k >= pc.sp:
        if a_count != pc.N_prime:
            findings.append(
                f"stabilized arc count {a_count} != {pc.N_prime} predicted "
                f"at k={wp.k}, l={wp.l}")
        if b_count != pc.T_prime:
            findings.append(
                f"stabilized side count {b_count} != {pc.T_prime} predicted "
                f"at k={wp.k}, l={wp.l}")
    return ZeroCountReport(wp, a_count, b_count, v_i, v_rho, pa, pb,
                           valence_ok, tuple(findings))
