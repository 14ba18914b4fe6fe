"""The sigmoid's saturation slope.

A SaturationSlope is the scale factor omega such that every shifted sigmoid
sigma(w*(x - c)) with w >= omega is within tolerance of its limit outside a
collar of half-width h around its center.  For the logistic sigmoid the
sharp choice is omega = ln(N-1)/h with tolerance 1/N: since
1 - sigma(t) = 1/(1 + e^t) and sigma(-t) = 1/(1 + e^t), both are at most
1/(1 + (N-1)) = 1/N once t >= ln(N-1), and sigma is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sigmoid import sigmoid

__all__ = [
    "SaturationSlope",
    "sigmoid_saturation_slope",
    "boundary_residual",
]


@dataclass(frozen=True)
class SaturationSlope:
    omega: float
    h: float
    tol: float

    def __post_init__(self) -> None:
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.h <= 0.0 or self.tol <= 0.0:
            raise ValueError("h and tol must be positive")


def sigmoid_saturation_slope(h: float, n: int) -> SaturationSlope:
    """Sharp sigmoid-specific slope omega = ln(N-1)/h with tol = 1/N.

    The boundary is tight: 1 - sigmoid(omega*h) = 1/(1 + (N-1)) = 1/N.
    Requires N >= 3 so that ln(N-1) > 0.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if h <= 0.0:
        raise ValueError("h must be positive")
    return SaturationSlope(omega=math.log(n - 1.0) / h, h=h, tol=1.0 / n)


def boundary_residual(slope: SaturationSlope) -> float:
    """1 - sigmoid(omega * h): distance from saturation at the collar edge."""
    return 1.0 - sigmoid(slope.omega * slope.h)
