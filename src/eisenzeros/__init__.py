"""Numerical study of the zeros of E_k * E_l - E_{k+l} on the boundary of
the modular fundamental domain."""

from .delta import WeightPair, corner_derivatives, eval_delta
from .eisenstein import (
    Regime,
    RegimeApprox,
    UpperHalfPoint,
    eval_ek_fourier,
    eval_ek_lattice,
    gk_regime_approx,
)
from .numerics import LogComplex, bernoulli, gamma_k
from .zeros import (
    PredictedCounts,
    ZeroCountReport,
    audit,
    count_arc_zeros,
    count_side_zeros,
    expected_boundary_counts,
    interior_zero_hunt,
    predicted_counts,
    stabilization_point,
)

__version__ = "0.1.0"

__all__ = [
    "LogComplex",
    "PredictedCounts",
    "Regime",
    "RegimeApprox",
    "UpperHalfPoint",
    "WeightPair",
    "ZeroCountReport",
    "audit",
    "bernoulli",
    "corner_derivatives",
    "count_arc_zeros",
    "count_side_zeros",
    "eval_delta",
    "eval_ek_fourier",
    "eval_ek_lattice",
    "expected_boundary_counts",
    "gamma_k",
    "gk_regime_approx",
    "interior_zero_hunt",
    "predicted_counts",
    "stabilization_point",
    "__version__",
]
