"""The cusp form E_k E_l - E_{k+l}, its boundary restrictions, and the
closed-form corner data at the corner e^(i pi/3).

On the unit arc the rescaling F_k F_l - F_{k+l} is real; its main term is

  M_{k,l}(theta) = 2cos((k-l)theta/2) + 2cos(k theta/2)(2i sin(theta/2))^(-l)
                   + 2cos(l theta/2)(2i sin(theta/2))^(-k).

On the side x = 1/2 the rescaling |z|^(k+l) Delta is real; its main term is
2 |z|^k P_{k,l}(theta) with

  P_{k,l}(theta) = cos(l theta) + cos(k theta)/|z|^(k-l)
                   + (2cos(k theta)cos(l theta) - cos((k+l)theta))/|z|^k,

where z = 1/2 + iy = R e^(i theta), so 1/|z| = 2cos(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eisenstein import fk_batch, hk_batch
from .numerics import _check_weight

__all__ = [
    "CornerDerivatives",
    "WeightPair",
    "arc_real_batch",
    "corner_derivatives",
    "m_main",
    "p_main",
    "side_normalized_batch",
]

_SQRT3 = math.sqrt(3.0)
# both main terms are analytic; allow a little room left of pi/3 so
# central finite differences at the corner stay inside the domain
_CORNER_SLACK = 0.02

# weight sums for which E_k E_l - E_{k+l} vanishes identically
_DEGENERATE_SUMS = frozenset({8, 10, 14})


@dataclass(frozen=True)
class WeightPair:
    """Weights k >= l of the two Eisenstein factors.

    Derived decomposition: k - l = 12n + j with j in {0,2,4,6,8,10}.
    """

    k: int
    l: int

    def __post_init__(self):
        _check_weight(self.k)
        _check_weight(self.l)
        if self.k < self.l:
            raise ValueError(f"require k >= l, got k={self.k} < l={self.l}")
        if self.k + self.l in _DEGENERATE_SUMS:
            raise ValueError(
                f"E_{self.k} E_{self.l} - E_{self.k + self.l} vanishes "
                "identically")

    @property
    def weight_sum(self) -> int:
        return self.k + self.l

    @property
    def n(self) -> int:
        return (self.k - self.l) // 12

    @property
    def j(self) -> int:
        return (self.k - self.l) % 12


def _as_pair(wp) -> WeightPair:
    if isinstance(wp, WeightPair):
        return wp
    k, l = wp
    return WeightPair(int(k), int(l))


def arc_real_batch(wp, thetas: np.ndarray,
                   eps: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """F_k F_l - F_{k+l} on the unit arc, vectorized; returns
    (values, pointwise error bounds).  Real by construction: each factor
    is evaluated through the arc rescaling with its reality asserted, all
    three in one fk_batch call for the weights (k, l, k + l)."""
    wp = _as_pair(wp)
    thetas = np.asarray(thetas, dtype=np.float64)
    (fk_v, fl_v, fkl_v), (tk, tl, tkl) = fk_batch(
        (wp.k, wp.l, wp.weight_sum), thetas, eps)
    vals = fk_v * fl_v - fkl_v
    errs = np.abs(fk_v) * tl + np.abs(fl_v) * tk + tk * tl + tkl
    return vals, errs


def side_normalized_batch(wp, ys: np.ndarray,
                          eps: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """|z|^l Delta-rescaling on the side x = 1/2, as the overflow-free
    combination H_l + H_k/|z|^(k-l) + (H_k H_l - H_{k+l})/|z|^k.

    Equals |z|^(k+l) Delta(1/2+iy) / |z|^k; same sign pattern, O(1) size.
    The three H's come from one hk_batch call for the weights (k, l, k + l).
    Returns (real values, pointwise error bounds)."""
    wp = _as_pair(wp)
    ys = np.asarray(ys, dtype=np.float64)
    (hk_v, hl_v, hkl_v), (tk, tl, tkl) = hk_batch(
        (wp.k, wp.l, wp.weight_sum), ys, eps)
    r = np.abs(0.5 + 1j * ys)
    fall = r ** float(wp.l - wp.k)          # |z|^(l-k) <= 1
    fall_k = r ** float(-wp.k)
    vals = hl_v + hk_v * fall + (hk_v * hl_v - hkl_v) * fall_k
    resid = float(np.abs(vals.imag).max()) if ys.size else 0.0
    if resid >= 1e-8:
        raise ArithmeticError(f"side rescaling lost reality: {resid}")
    errs = (tl + fall * tk
            + fall_k * (np.abs(hk_v) * tl + np.abs(hl_v) * tk
                        + tk * tl + tkl))
    return vals.real, errs.real


def m_main(wp, theta: float) -> float:
    """Arc main term M_{k,l}(theta); (2i sin)^(-even) is evaluated as
    (-1)^(w/2) (2 sin)^(-w) so the value is exactly real."""
    wp = _as_pair(wp)
    if not (math.pi / 3 - _CORNER_SLACK <= theta <= math.pi / 2 + 1e-12):
        raise ValueError("arc main term valid near [pi/3, pi/2]")
    half = 0.5 * theta
    s = (2.0 * math.sin(half)) ** (-wp.l) * (-1.0 if wp.l % 4 else 1.0)
    sk = (2.0 * math.sin(half)) ** (-wp.k) * (-1.0 if wp.k % 4 else 1.0)
    return (2.0 * math.cos(0.5 * (wp.k - wp.l) * theta)
            + 2.0 * math.cos(0.5 * wp.k * theta) * s
            + 2.0 * math.cos(0.5 * wp.l * theta) * sk)


def p_main(wp, theta: float) -> float:
    """Side main term P_{k,l}(theta) with |z| = 1/(2cos theta)."""
    wp = _as_pair(wp)
    if not (math.pi / 3 - _CORNER_SLACK <= theta < math.pi / 2):
        raise ValueError("side main term valid near [pi/3, pi/2)")
    rho = 2.0 * math.cos(theta)            # = 1/|z| in (0, 1]
    ck = math.cos(wp.k * theta)
    cl = math.cos(wp.l * theta)
    ckl = math.cos(wp.weight_sum * theta)
    return cl + ck * rho ** (wp.k - wp.l) + (2.0 * ck * cl - ckl) * rho ** wp.k


@dataclass(frozen=True)
class CornerDerivatives:
    """Closed-form derivatives of the main terms at theta = pi/3; None
    where the congruence class has no stated closed form."""

    p_prime: Optional[float] = None
    p_double_prime: Optional[float] = None
    m_prime: Optional[float] = None
    m_double_prime: Optional[float] = None


def corner_derivatives(wp) -> CornerDerivatives:
    """Closed-form P'/P''/M'/M'' at pi/3 for the covered congruence
    classes of (k mod 6, l mod 6) and j = (k - l) mod 12.

    Raises when no component has a closed form for this class, so audits
    can distinguish covered classes from extrapolation.
    """
    wp = _as_pair(wp)
    k, l, j = wp.k, wp.l, wp.j
    km, lm = k % 6, l % 6
    p1 = p2 = m1 = m2 = None
    if lm == 4 and km == 0:
        p1 = _SQRT3 * (2 * l - k)
        m1 = _SQRT3 * (2 * l - k) if j == 2 else _SQRT3 * (k - 2 * l)
    elif lm == 0 and km == 4:
        p1 = _SQRT3 * (2 * k - l)
    if lm == 0 and km == 2:
        p2 = 2.0 * (2 * k * k + 2 * k * (1 - l) - l * l - l)
        base = -2 * k * k + 2 * k * (l - 1) + l * l + l
        m2 = float(base if j == 2 else -base)
    elif lm == 4 and km == 4:
        p2 = 2.0 * (-k * k + k * (4 * l - 1) - l * l - l)
        base = -k * k + k * (4 * l - 1) - l * l - l
        m2 = float(base if j == 0 else -base)
    if p1 is None and p2 is None and m1 is None and m2 is None:
        raise ValueError(
            f"no closed form for k={k} (mod 6: {km}), l={l} (mod 6: {lm})")
    return CornerDerivatives(p_prime=p1, p_double_prime=p2,
                             m_prime=m1, m_double_prime=m2)
