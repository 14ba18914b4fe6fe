"""The benchmark's workloads and the seeded inputs drawn for them.

Each workload carries its expression twice: as text for the library and
the CLI, and as a plain `math` function that the checks use to re-evaluate
f without the library's parser or evaluator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# deep-estimated: sixteen terms sin(om_k*x + ph_k)/k with om_k = 0.09k and
# ph_k = 0.005k.  Every argument stays in [0, pi/2] on [0, 1], so each term
# is increasing and concave there: sup|f| is f(1) and sup|f'| is f'(0).
DEEP_TERMS = tuple(
    (k, f"{9 * k / 100:.2f}", f"{5 * k / 1000:.3f}") for k in range(1, 17)
)
DEEP_TEXT = " + ".join(f"sin({om}*x + {ph})/{k}" for k, om, ph in DEEP_TERMS)
_DEEP = tuple((k, float(om), float(ph)) for k, om, ph in DEEP_TERMS)


def _wiggly(x: float) -> float:
    return abs(x - 0.3) + 0.3 * math.sin(6 * math.pi * x) + 0.2 * x * (1 - x)


def _deep(x: float) -> float:
    return sum(math.sin(om * x + ph) / k for k, om, ph in _DEEP)


def _large(x: float) -> float:
    return math.sin(2 * math.pi * x) + 0.5 * x


@dataclass(frozen=True)
class Workload:
    """One fixed approximation task and how much of it a round exercises.

    `lipschitz` and `sup` are handed to the library; None makes it estimate
    them.  `analytic_lipschitz` and `analytic_sup` are the true values (or,
    where the workload supplies them, the derived bounds) that README.md
    works out by hand.  `grid` None means the CLI default max(10001, 10 N).
    """

    name: str
    text: str
    plain: Callable[[float], float]
    a: float
    b: float
    eps: float
    lipschitz: Optional[float]
    sup: Optional[float]
    analytic_lipschitz: float
    analytic_sup: float
    grid: Optional[int] = None
    queries: int = 4096
    explain_points: int = 32
    naive_points: int = 8
    check_points: int = 64

    def grid_size(self, n: int) -> int:
        return self.grid if self.grid is not None else max(10_001, 10 * n)

    def cli_flags(self) -> list[str]:
        flags = ["--fn", self.text, "--a", repr(self.a), "--b", repr(self.b),
                 "--eps", repr(self.eps)]
        if self.lipschitz is not None:
            flags += ["--lipschitz", repr(self.lipschitz)]
        if self.sup is not None:
            flags += ["--sup", repr(self.sup)]
        return flags


WIGGLY_L = 1.0 + 1.8 * math.pi + 0.2
LARGE_L = 2.0 * math.pi + 0.5

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wiggly",
            text="abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)",
            plain=_wiggly,
            a=0.0, b=1.0, eps=0.01,
            lipschitz=WIGGLY_L, sup=1.05,
            analytic_lipschitz=WIGGLY_L, analytic_sup=1.05,
        ),
        Workload(
            name="deep-estimated",
            text=DEEP_TEXT,
            plain=_deep,
            a=0.0, b=1.0, eps=0.01,
            lipschitz=None, sup=None,
            analytic_lipschitz=sum(om / k * math.cos(ph) for k, om, ph in _DEEP),
            analytic_sup=sum(math.sin(om + ph) / k for k, om, ph in _DEEP),
        ),
        Workload(
            name="large-n",
            text="sin(2*pi*x) + 0.5*x",
            plain=_large,
            a=0.0, b=1.0, eps=7.5e-4,
            lipschitz=LARGE_L, sup=1.5,
            analytic_lipschitz=LARGE_L, analytic_sup=1.5,
            grid=20_001,
            explain_points=16,
            naive_points=4,
        ),
    )
}


def rng_for(seed: int, purpose: str) -> random.Random:
    """One independent stream per purpose, so that adding draws for one
    purpose leaves every other input of the same seed unchanged."""
    return random.Random(f"{seed}/{purpose}")


def query_points(w: Workload, seed: int) -> list[float]:
    """Uniform points of [a, b] in the order they are drawn."""
    rng = rng_for(seed, "queries")
    return [rng.uniform(w.a, w.b) for _ in range(w.queries)]


def explain_points(w: Workload, seed: int, n: int) -> list[float]:
    """One uniform point in each of `w.explain_points` equal strata of
    [a + 3h, b], h = (b - a)/n.  Their cell index is at least 3, where the
    proof's surrogate is defined, and the strata keep the surrogate's O(i)
    cost nearly the same for every seed."""
    rng = rng_for(seed, "explain")
    lo = w.a + 3.0 * (w.b - w.a) / n
    width = (w.b - lo) / w.explain_points
    return [lo + width * (j + rng.random()) for j in range(w.explain_points)]
