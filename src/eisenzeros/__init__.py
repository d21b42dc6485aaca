"""Numerical study of the zeros of E_k * E_l - E_{k+l} on the boundary of
the modular fundamental domain."""

from .delta import WeightPair, corner_derivatives
from .eisenstein import Regime, eval_ek_fourier, eval_ek_lattice
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
    zero_brackets,
)

__version__ = "0.1.0"

__all__ = [
    "LogComplex",
    "PredictedCounts",
    "Regime",
    "WeightPair",
    "ZeroCountReport",
    "audit",
    "bernoulli",
    "corner_derivatives",
    "count_arc_zeros",
    "count_side_zeros",
    "eval_ek_fourier",
    "eval_ek_lattice",
    "expected_boundary_counts",
    "gamma_k",
    "interior_zero_hunt",
    "predicted_counts",
    "stabilization_point",
    "zero_brackets",
    "__version__",
]
