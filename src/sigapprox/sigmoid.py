"""Numerically stable logistic sigmoid and its derivatives.

The nth derivative uses the closed form

    sigma^(n)(x) = sum_{k=1}^{n+1} (-1)^(k+1) (k-1)! S(n+1, k) sigma(x)^k

with S(.,.) a Stirling number of the second kind.  The coefficients are
exact integers, and the sum is taken exactly, in rationals, over the
double s = sigma(-|x|) and rounded once.  Its terms reach about 1e35 at
n = 30 and cancel almost entirely, so a sum in doubles lost digits to that
cancellation: near x = 0, where s is near 1/2, n = 30 at x = 0.001 gave
-2.1478e15 for -2.0288e15, 5.9% off.  Summed exactly, the one error left
is the rounding of s, about an ulp, which the polynomial carries into the
result: within a relative 1e-11 of mpmath for n = 1..30 at 22 values of
x in +-[0.001, 40].  No relative bound holds close to a nonzero root of
sigma^(n).  The sum is taken at -|x|, where s <= 1/2: for x > 0,
s would be sigma(x) near 1, whose rounding error is far larger against the
small 1 - sigma(x) that the result depends on.  The reflection
sigma(x) = 1 - sigma(-x) gives, for n >= 1,

    sigma^(n)(x) = (-1)^(n+1) sigma^(n)(-x),

so sigma^(n) is odd in x for even n >= 2 and vanishes at 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import exp, factorial

from .stirling import stirling_row

__all__ = [
    "MAX_DERIVATIVE_ORDER",
    "finite_sigmoid",
    "sigmoid",
    "sigmoid_nth_derivative",
]

# The orders that the tests check against mpmath.  The exact sum keeps its
# digits beyond them too (within a relative 2e-13 at n = 40 and 50 near
# x = 0), but its cost grows with n: n + 1 rational terms whose integer
# coefficients (k-1)! * S(n+1, k) reach 37 digits at n = 30.
MAX_DERIVATIVE_ORDER = 30


def _require_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"input must be finite, got {x!r}")
    return x


def sigmoid(x: float) -> float:
    """Logistic sigmoid, stable over the full double range: `finite_sigmoid`
    behind the input guard.  x is converted to float, and NaN and +-inf
    raise ValueError, as in the derivatives."""
    return finite_sigmoid(_require_finite(x))


def finite_sigmoid(t: float) -> float:
    """The sigmoid kernel, for a float t its caller knows to be finite.

    For t >= 0 this evaluates 1/(1 + e^-t); for t < 0 it evaluates
    e^t/(1 + e^t).  Neither branch exponentiates a large positive argument,
    so there is no overflow anywhere.  With no conversion and no range
    test, t = +-inf gives 1.0 and 0.0, the limits of sigma, and NaN gives
    NaN."""
    if t >= 0.0:
        return 1.0 / (1.0 + exp(-t))
    e = exp(t)
    return e / (1.0 + e)


def sigmoid_nth_derivative(n: int, x: float) -> float:
    """nth derivative of the sigmoid via the Stirling closed form.

    n = 0 returns sigmoid(x) itself.  Orders above MAX_DERIVATIVE_ORDER are
    rejected.  For n >= 1 the sum is taken exactly over the double
    sigma(-|x|), rounded once and reflected (module docstring), and an
    even order n >= 2 gives exactly 0.0 at x = 0.
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order {n} exceeds the supported maximum "
            f"{MAX_DERIVATIVE_ORDER}"
        )
    x = _require_finite(x)
    if n == 0:
        return finite_sigmoid(x)
    if x == 0.0 and n % 2 == 0:
        return 0.0
    s = Fraction(finite_sigmoid(-abs(x)))
    row = stirling_row(n + 1)
    acc = sum((-1) ** (k + 1) * factorial(k - 1) * row[k] * s**k for k in range(1, n + 2))
    value = float(acc)
    return -value if x > 0.0 and n % 2 == 0 else value
