"""Uniform grids: the partition of the left-widened interval
[a - (b-a)/N, b], and `uniform_grid`, the sampling grid of [a, b] that
validation, the samples CSV and the bound estimators all walk.

The partition has N+2 points x_k = a + (k-1)*h for k = 0..N+1 with
h = (b-a)/N, so x_0 = a - h, x_1 = a and x_{N+1} = b.  Points come from the
closed formula (one multiply each), not cumulative addition: no drift.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

__all__ = ["UniformPartition", "unif_part", "select_index", "uniform_grid"]


@dataclass(frozen=True)
class UniformPartition:
    a: float
    b: float
    n_intervals: int
    points: tuple[float, ...] = field(repr=False)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_intervals


def unif_part(a: float, b: float, n: int) -> UniformPartition:
    """The N+2 equally spaced points on [a - h, b], h = (b - a)/N, all
    finite: an interval so wide that a - h overflows is refused."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if a >= b:
        raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    h = (b - a) / n
    if math.isinf(a - h):
        raise ValueError(f"[{a!r}, {b!r}] is too wide for N = {n}: x_0 = a - h overflows")
    # a + N*h can miss b by an ulp, leaving b outside the last cell
    points = tuple(a + (k - 1) * h for k in range(n + 1)) + (b,)
    return UniformPartition(a=a, b=b, n_intervals=n, points=points)


def select_index(p: UniformPartition, x: float) -> int:
    """max{i in 1..N : points[i] <= x}, so that x lies in [x_i, x_{i+1}].

    A bisection of the stored points x_1..x_N, which are nondecreasing, so
    floating-point ties at a knot and repeated points both resolve to the
    largest such i.
    """
    x = float(x)
    if not (p.a <= x <= p.b):
        raise ValueError(f"x={x!r} outside [{p.a!r}, {p.b!r}]")
    return bisect_right(p.points, x, 1, p.n_intervals + 1) - 1


def uniform_grid(a: float, b: float, n: int) -> Iterator[float]:
    """a + (b - a)*j/(n - 1) for j = 0..n-2, then b itself, n >= 2: the
    closed formula at j = n-1 can miss b by an ulp either way.
    Nondecreasing: every operation rounds monotonically, and at j = n-2 the
    formula stays below b unless n - 1 nears 1/ulp(1).  ValueError when
    (b - a)*(n - 2), and with it a grid point, is not finite."""
    if not math.isfinite((b - a) * (n - 2)):
        raise ValueError(f"[{a!r}, {b!r}] is too wide for a grid of n = {n} points")
    return chain((a + (b - a) * j / (n - 1) for j in range(n - 1)), (b,))
