"""Boundary zero census for the Eisenstein product family.

Counts zeros of delta(k, l) on the two non-trivial pieces of the
fundamental-domain boundary: the unit-circle arc theta in (pi/3, pi/2)
and the vertical side x = 1/2, y > sqrt(3)/2.  Counting is by certified
sign changes of the real-valued restrictions from the delta module,
each sign clearing the evaluator's own error bound by a safety factor.

Both pieces are scanned together, at the paper's sample combs and two
scan ends per piece.  Certified sign changes are lower bounds on the arc
and side counts A and B, and the valence identity
12 A + 12 B + 6 v_i + 4 v_rho + 12 = k + l fixes their sum, so once the
changes reach that sum they are the counts: each cell with a change holds
exactly one simple zero and every other cell holds none.  Changes that
fall short are reported as a valence failure in audit(), never rescued.
zero_brackets() narrows the closed comb cells, to 1e-12 where the signs
near each zero certify.

Closed-form predictions for the counts and the stabilization threshold
in k past which they stop moving live alongside.  audit() ties the counts
to the valence identity, whose closure also excludes interior zeros, and
compares them on every pair with expected_boundary_counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .delta import WeightPair, _as_pair, arc_real_batch, side_normalized_batch
from .eisenstein import _MIN_EPS
# lc_sum is no longer called here but stays importable: perfbench's
# tracer installs its numerics.lc_sum span at eisenzeros.zeros:lc_sum.
from .numerics import bernoulli, gamma_k, lc_sum, zeta  # noqa: F401

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
    "zero_brackets",
    "side_upper_cutoff",
    "interior_zero_hunt",
    "audit",
]

_SQRT3 = math.sqrt(3.0)
_CERTAINTY = 10.0
_EPS_LADDER = (1e-12, 1e-14, _MIN_EPS)
_BRACKET_WIDTH = 1e-12
_COEFF_COUNT = 50
_Y_CEILING = 64.0


class SignUncertainError(ArithmeticError):
    """A sign stayed uncertain through the full precision escalation.

    Carries the offending points, so callers never have to guess how much
    of a scan was ambiguous.
    """

    def __init__(self, message: str, points: Sequence[float] = ()) -> None:
        super().__init__(message)
        self.points = tuple(float(p) for p in points)


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


@dataclass(frozen=True)
class PredictedCounts:
    """The stabilized zero counts of one weight pair: N_prime on the arc
    and T_prime on the side, which its counts equal once k reaches the
    stabilization point."""

    N_prime: int
    T_prime: int


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
    """Angles theta_m = pi m / l, m = 2q + d, for the side comb, where
    l = 6q + a with a in {0, 2, 4}.

    The d-range depends on a and is exactly the set of m for which
    theta_m falls in (pi/3, pi/2); at these angles cos(l theta_m) = (-1)^m.
    """
    if l % 2:
        raise ValueError(f"side comb needs even l, got {l}")
    _check_census_l(l)
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


def _stabilization(l: int, j: int) -> tuple[int, int]:
    """(c, r) with 2 sp = c + sqrt(r).  Three families have a transient
    that ends at the larger root of the corner derivative polynomial
    controlling the local sign there; every other pair has none, sp = l."""
    lm, jm = l % 6, j % 6
    if lm == 0 and jm == 2:
        return l - 1, 3 * l * l - 1
    if lm == 4 and jm == 2:
        return 4 * l, 0
    if lm == 4 and jm == 0:
        return 4 * l - 1, 12 * l * l - 12 * l + 1
    return 2 * l, 0


def stabilization_point(l: int, j: int) -> float:
    """Threshold in k past which the boundary counts take their final form,
    as a float for display; expected_boundary_counts decides k < sp
    exactly, from _stabilization in integers."""
    c, r = _stabilization(l, j)
    return 0.5 * (c + math.sqrt(r))


def predicted_counts(wp) -> PredictedCounts:
    """The stabilized counts (N_prime, T_prime) of one pair."""
    wp = _as_pair(wp)
    n, j, l, lm = wp.n, wp.j, wp.l, wp.l % 6
    if n == 0:
        # for j = 8 the arc restriction is near 2 at pi/2, so the arc
        # carries its one zero only when the restriction is negative just
        # right of pi/3.  For l = 0 mod 6 the corner value vanishes and that
        # sign is the sign of M''(pi/3) = -(l^2 - 17 l - 144) at k = l + 8,
        # positive only for l <= 18; the zero then lies on the side instead.
        n_prime = 1 if j == 8 and not (lm == 0 and l <= 18) else 0
    else:
        n_prime = n + _N_PRIME_OFFSET[j][lm]
    return PredictedCounts(n_prime, l // 6 + (0 if lm == 4 else -1))


def expected_boundary_counts(wp) -> tuple[int, int]:
    """Expected (A, B) at this k, including the pre-stabilization transient.

    For n = 0 the special-case values apply at every k, and a j = 8
    zero that predicted_counts moves off the arc lies on the side;
    otherwise the arc carries one extra zero and the side one fewer while
    k < sp, that is while 2k - c < sqrt(r), decided in integers, and
    (N_prime, T_prime) from there.
    """
    wp = _as_pair(wp)
    pc = predicted_counts(wp)
    b_transient = wp.l // 6 + _B_PRESTAB_OFFSET[wp.j][wp.l % 6]
    if wp.n == 0:
        return pc.N_prime, b_transient + (wp.j == 8 and pc.N_prime == 0)
    c, r = _stabilization(wp.l, wp.j)
    d = 2 * wp.k - c
    if d < 0 or d * d < r:
        return pc.N_prime + 1, b_transient
    return pc.N_prime, pc.T_prime


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

# (lo, hi, v_lo, v_hi): two consecutive certified scan points whose
# values have opposite sign
_Cell = tuple[float, float, float, float]


def _certify(batch_eval: _BatchEval, xs: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Values of the restriction at xs and whether each is certified.

    A value counts only when |value| clears the evaluator's own error
    bound by the _CERTAINTY factor.  Each rung of _EPS_LADDER
    re-evaluates, as one batch, only the points still ambiguous after the
    rungs before.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.zeros(xs.size)
    certified = np.zeros(xs.size, dtype=bool)
    todo = np.arange(xs.size)
    for eps in _EPS_LADDER:
        if not todo.size:
            break
        v, err = batch_eval(xs[todo], eps)
        ok = np.abs(v) > _CERTAINTY * err
        vals[todo] = v
        certified[todo[ok]] = True
        todo = todo[~ok]
    return vals, certified


# ---------------------------------------------------------------------------
# boundary scans


def _chord_path(lo: float, hi: float, v_lo: float, v_hi: float,
                ) -> list[float]:
    """The midpoints lo + 0.5 (hi - lo) that bisection of (lo, hi) visits,
    down to a 1e-12 bracket, if the zero lies where the chord through the
    certified end values crosses zero."""
    guess = lo - v_lo * (hi - lo) / (v_hi - v_lo)
    path = []
    while hi - lo > _BRACKET_WIDTH:
        m = lo + 0.5 * (hi - lo)
        path.append(m)
        lo, hi = (m, hi) if guess > m else (lo, m)
    return path


def _even_split(lo: float, hi: float) -> list[float]:
    """The 15 interior points that cut (lo, hi) into 16 equal steps."""
    return [lo + (hi - lo) * j / 16 for j in range(1, 16)]


def _refine_brackets(batch_eval: _BatchEval, kind: str,
                     cells: Sequence[_Cell]) -> list[ZeroBracket]:
    """Each cell (lo, hi, v_lo, v_hi) of a closed count narrowed around its
    one zero.

    Each round certifies the probes of every open cell in one _certify
    call: the cell's _chord_path, or its _even_split when the round before
    left it unchanged.  The cell shrinks to the sign change among its ends
    and its certified probes; uncertain probes are skipped, and a cell's
    ends are never evaluated again.  A certified sign is the true sign and
    the cell holds one zero, so a cell that shows more than one change
    raises ArithmeticError.  A cell ends at width <= 1e-12, or as it stands
    when neither a chord round nor the even split after it narrows it: no
    probe near its zero certifies.
    """
    out: list[Optional[ZeroBracket]] = [None] * len(cells)
    open_cells = {i: (cell, True) for i, cell in enumerate(cells)}
    while open_cells:
        probes = {i: _chord_path(*cell) if chord else _even_split(*cell[:2])
                  for i, (cell, chord) in open_cells.items()}
        vals, certified = _certify(
            batch_eval, np.array([x for p in probes.values() for x in p]))
        vals, certified, at = vals.tolist(), certified.tolist(), 0
        for i, xs in probes.items():
            cell, chord = open_cells.pop(i)
            lo, hi, v_lo, v_hi = cell
            got = zip(xs, vals[at:at + len(xs)], certified[at:at + len(xs)])
            at += len(xs)
            seen = sorted([(lo, v_lo), (hi, v_hi)]
                          + [(x, v) for x, v, ok in got if ok])
            changes = _sign_changes(*zip(*seen))
            if len(changes) > 1:
                raise ArithmeticError(
                    f"{kind} cell [{lo!r}, {hi!r}] shows {len(changes)} "
                    f"certified sign changes where the closed valence count "
                    f"allows one")
            (new,) = changes
            if new[1] - new[0] <= _BRACKET_WIDTH or (
                    new == cell and not chord):
                sign = 1 if v_lo > 0.0 else -1
                out[i] = ZeroBracket(kind, new[0], new[1], sign, -sign)
            else:
                # a round that narrows the cell is followed by a chord round
                open_cells[i] = (new, new != cell)
    return out


def _arc_ends(wp: WeightPair) -> tuple[float, float]:
    """The arc's scan ends: the outer midpoints of 16 (k + l) equal steps
    of (pi/3, pi/2), so neither corner is sampled."""
    npts = 16 * wp.weight_sum
    h = (math.pi / 2.0 - math.pi / 3.0) / npts
    return math.pi / 3.0 + h * 0.5, math.pi / 3.0 + h * (npts - 0.5)


def _side_ends(wp: WeightPair, y_max: float) -> tuple[float, float]:
    """The side's scan ends: y = tan(theta) / 2 at the first midpoint of
    16 l equal steps in theta up to height min(k^(2/5), y_max), and y_max."""
    n1 = 16 * wp.l
    h = (math.atan2(min(wp.k ** 0.4, y_max), 0.5) - math.pi / 3.0) / n1
    return float(0.5 * np.tan(math.pi / 3.0 + h * 0.5)), y_max


@dataclass(frozen=True)
class _BoundaryScan:
    """The sign-change cells of the arc and the side."""

    arc: tuple[_Cell, ...]
    side: tuple[_Cell, ...]


def _valence_closes(wp: WeightPair, changes: int) -> bool:
    v_i, v_rho = trivial_orders(wp.weight_sum)
    return 12 * changes + 6 * v_i + 4 * v_rho + 12 == wp.weight_sum


def _sign_changes(pts: Sequence[float], vals: Sequence[float],
                  ) -> tuple[_Cell, ...]:
    """The cells between consecutive points whose certified values differ
    in sign, with those values."""
    return tuple((pts[i], pts[i + 1], vals[i], vals[i + 1])
                 for i in range(len(pts) - 1)
                 if (vals[i] > 0.0) != (vals[i + 1] > 0.0))


def _comb_scan(wp: WeightPair, y_max: float) -> _BoundaryScan:
    """Sign-change cells between the points of the paper's sample combs.

    Each piece certifies its two scan ends and the comb points between
    them (side angles mapped to y = tan(theta) / 2) as one batch, and
    returns its cells whatever they count.  No point is moved: a piece
    with points still uncertain raises one SignUncertainError naming all
    of them."""
    cells = []
    for ev, (lo, hi), comb in (
            (partial(arc_real_batch, wp), _arc_ends(wp),
             arc_sample_points(wp)),
            (partial(side_normalized_batch, wp), _side_ends(wp, y_max),
             [0.5 * math.tan(t) for t in side_sample_points(wp.l)])):
        pts = np.array([lo] + [x for x in comb if lo < x < hi] + [hi])
        vals, certified = _certify(ev, pts)
        if not certified.all():
            uncertain = pts[~certified].tolist()
            raise SignUncertainError(
                f"{len(uncertain)} scan point(s) stayed sign-uncertain, "
                f"first at {uncertain[0]:.12g}", points=uncertain)
        cells.append(_sign_changes(pts.tolist(), vals.tolist()))
    return _BoundaryScan(*cells)


# One pair: count_arc_zeros and count_side_zeros share a scan.  audit clears
# it only because perfbench's test_traced_output_identical_to_untraced traces
# an audit of a pair just audited untraced (ROADMAP item 1).
_boundary_scan = lru_cache(maxsize=1)(_comb_scan)


def _check_census_l(l: int) -> None:
    """The census rule: the side comb, so every count, needs l >= 14."""
    if l < 14:
        raise ValueError(f"the census needs k >= l >= 14, got l={l}")


def _census_pair(wp) -> tuple[WeightPair, float]:
    wp = _as_pair(wp)
    _check_census_l(wp.l)
    # the closure needs the side's count, so the arc scan needs its cutoff
    return wp, side_upper_cutoff(wp)


def _counted(kind: str, wp) -> tuple[int, tuple[ZeroBracket, ...]]:
    wp, y_max = _census_pair(wp)
    cells = getattr(_boundary_scan(wp, y_max), kind)
    return len(cells), tuple(
        ZeroBracket(kind, lo, hi, int(np.sign(v_lo)), int(np.sign(v_hi)))
        for lo, hi, v_lo, v_hi in cells)


def count_arc_zeros(wp) -> tuple[int, tuple[ZeroBracket, ...]]:
    """Zeros of the arc restriction on the open arc, endpoints excluded.

    Counts the certified sign changes at the arc comb
    theta_m = 2 m pi / (k - l) and the two scan ends; the side is scanned
    with it (see the module docstring).  Returns the count, a lower bound,
    and its certified cells, unrefined; when the valence identity closes,
    the count is exact and each cell provably holds exactly one zero.
    """
    return _counted("arc", wp)


def count_side_zeros(wp) -> tuple[int, tuple[ZeroBracket, ...]]:
    """Zeros of the side restriction on x = 1/2, sqrt(3)/2 < y <= y_max.

    Counts the certified sign changes at the side comb y = tan(pi m / l) / 2
    between a lower end just above the corner and the certified dominance
    cutoff y_max above which no zero can exist.  Scanned with the arc, and
    returns like count_arc_zeros.
    """
    return _counted("side", wp)


def zero_brackets(wp) -> tuple[ZeroBracket, ...]:
    """Every boundary zero in a certified bracket, arc then side, narrowed
    from the comb cells the counters read by _refine_brackets.

    A bracket is at most 1e-12 wide unless no probe near its zero
    certifies; it is then returned wider, its end signs still certified
    (about 5e-12 at (250, 150) and 5e-11 at (200, 200)).  Raises
    ArithmeticError when the comb changes do not close the valence
    identity, since a cell may then hold more than one zero, or when a
    cell shows more than one certified change."""
    wp, y_max = _census_pair(wp)
    scan = _comb_scan(wp, y_max)
    if not _valence_closes(wp, len(scan.arc) + len(scan.side)):
        raise ArithmeticError(
            f"comb sign changes do not close the valence identity at "
            f"k={wp.k}, l={wp.l}: A>={len(scan.arc)}, B>={len(scan.side)}")
    arc, side = partial(arc_real_batch, wp), partial(side_normalized_batch, wp)
    return tuple(_refine_brackets(arc, "arc", scan.arc)
                 + _refine_brackets(side, "side", scan.side))


# ---------------------------------------------------------------------------
# dominance cutoff for the side scan


def _logsumexp(vals: np.ndarray) -> float:
    top = float(vals.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.exp(vals - top).sum()))


@lru_cache(maxsize=None)
def _sigma_table(j: int) -> tuple[int, ...]:
    """sigma_{j-1}(n) for n = 1.._COEFF_COUNT, exactly.  One entry per
    even weight up to numerics.MAX_WEIGHT."""
    sig = [0] * (_COEFF_COUNT + 1)
    for d in range(1, _COEFF_COUNT + 1):
        p = d ** (j - 1)
        for n in range(d, _COEFF_COUNT + 1, d):
            sig[n] += p
    return tuple(sig[1:])


def _delta_log_coeffs(wp: WeightPair) -> np.ndarray:
    """log|a_m| of the first Fourier coefficients a_1.._COEFF_COUNT of
    delta, -inf where a_m vanishes.

    With g_j = -2j/B_j and S_j = sum sigma_{j-1}(n) q^n, delta is
    g_k S_k + g_l S_l - g_{k+l} S_{k+l} + g_k g_l S_k S_l.  Its four terms
    are about m^(k+l-1) while a_m of a cusp form is about m^((k+l-1)/2),
    so a_m is summed exactly in integers over the common denominator of
    the three g_j; only its log rounds, and math.log takes big ints.
    """
    k, l, w = wp.k, wp.l, wp.weight_sum
    gk, gl, gw = (Fraction(-2 * j) / bernoulli(j) for j in (k, l, w))
    sk, sl, sw = _sigma_table(k), _sigma_table(l), _sigma_table(w)
    ck = gk.numerator * gl.denominator * gw.denominator
    cl = gl.numerator * gk.denominator * gw.denominator
    cw = gw.numerator * gk.denominator * gl.denominator
    ckl = gk.numerator * gl.numerator * gw.denominator
    log_den = math.log(gk.denominator * gl.denominator * gw.denominator)
    log_mag = np.full(_COEFF_COUNT, -np.inf)
    for i in range(_COEFF_COUNT):
        # the product term's coefficient sum_{r+s=m} sigma(r) sigma(s)
        conv = sum(sk[r] * sl[i - 1 - r] for r in range(i))
        num = ck * sk[i] + cl * sl[i] - cw * sw[i] + ckl * conv
        if num:
            log_mag[i] = math.log(abs(num)) - log_den
    return log_mag


def side_upper_cutoff(wp) -> float:
    """Height above which the leading Fourier term certifiably dominates.

    Above the returned y, twice the sum of an explicit bound on
    |a_2 q^2| + ... + |a_50 q^50| and a geometric majorant for the rest
    stays below |a_1 q|, so the side restriction cannot vanish.  The
    smallest such y is found by bisection; the certificate is monotone
    because every ratio |a_m q^m / a_1 q| decreases in y.
    """
    return _side_upper_cutoff(_as_pair(wp))


# Kept per pair for the process: an audit reads it twice, and the three
# tables audit the same 45 pairs.  A pure function of (k, l); the census rule
# l >= 14 and the k + l <= MAX_WEIGHT cap bound the census's keys at 8,836.
@lru_cache(maxsize=None)
def _side_upper_cutoff(wp: WeightPair) -> float:
    log_mag = _delta_log_coeffs(wp)
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
# the audit


def audit(wp) -> ZeroCountReport:
    """Full boundary census for one pair with the exact valence cross-check.

    Measured counts come from the counters' certified sign changes at the
    combs, and no zero is refined; the valence identity is checked in
    cleared-denominator integer form.  Changes that miss the total are
    lower bounds and are reported as a valence failure.  On every pair the
    measured counts must equal expected_boundary_counts; each piece that
    differs is reported as a finding, as is a valence failure.
    """
    wp = _as_pair(wp)
    _boundary_scan.cache_clear()
    a_count, _ = count_arc_zeros(wp)
    b_count, _ = count_side_zeros(wp)
    v_i, v_rho = trivial_orders(wp.weight_sum)
    pa, pb = expected_boundary_counts(wp)
    valence_ok = _valence_closes(wp, a_count + b_count)
    findings = []
    if not valence_ok:
        findings.append(
            f"valence identity fails at k={wp.k}, l={wp.l}: A={a_count}, "
            f"B={b_count}, v_i={v_i}, v_rho={v_rho}")
    for piece, count, predicted in (("arc", a_count, pa),
                                    ("side", b_count, pb)):
        if count != predicted:
            findings.append(f"{piece} count {count} != {predicted} "
                            f"predicted at k={wp.k}, l={wp.l}")
    return ZeroCountReport(wp, a_count, b_count, v_i, v_rho, pa, pb,
                           valence_ok, tuple(findings))


def interior_zero_hunt(report: ZeroCountReport) -> tuple[str, ...]:
    """() when the audited boundary count excludes zeros inside the
    fundamental domain, else one finding.

    delta has weight w = k + l and vanishes at the cusp, so in the valence
    formula v_inf + v_i / 2 + v_rho / 3 + (other orders) = w / 12 every
    term is at least its lower bound: v_inf >= 1, the trivial orders at i
    and rho forced by w mod 12, and one per certified sign change on the
    arc or the side.  When those bounds already add up to w / 12
    (report.valence_ok), every term equals its bound and no zero lies
    anywhere else, the interior included (the argument of Rankin and
    Swinnerton-Dyer).  perfbench's tracer installs its span at
    eisenzeros.cli:interior_zero_hunt, hence the name.
    """
    if report.valence_ok:
        return ()
    return ("interior not excluded: boundary count does not close the "
            "valence identity",)
