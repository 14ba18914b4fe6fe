"""Independent oracles shared by the test suite.

These deliberately avoid the library's own code paths: set partitions are
enumerated by brute force, and derivatives come from nested central
differences evaluated in high-precision arithmetic (mpmath), so agreement
with the closed-form implementations is meaningful.  The one exception is
`reference_G`, which defines what "bit-identical" means for the evaluator
and so must use the library's own sigmoid.  The grid references spell the
grid formula out rather than calling the library's generator, the
network document's layout is whatever the json module makes of it, N
is the paper's formula in rational arithmetic, written out apart from the
recipe code, and the samples CSV is what a second, separate walk of the
grid writes.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional

import mpmath as mp

from sigapprox.engine import validate
from sigapprox.export import write_samples
from sigapprox.sigmoid import sigmoid


def set_partitions(items: list) -> Iterator[list[list]]:
    """All partitions of `items` into nonempty blocks, by brute force."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def count_partitions(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks (enumerated)."""
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def bell_number(n: int) -> int:
    """Bell numbers: enumeration up to n = 8, Bell triangle beyond."""
    if n <= 8:
        return sum(1 for _ in set_partitions(list(range(n))))
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def mp_sigmoid(t: mp.mpf) -> mp.mpf:
    return 1 / (1 + mp.e ** (-t))


def nested_central_derivative(n: int, x: float, dps: int = 60) -> float:
    """nth derivative of the logistic sigmoid at x by n nested central
    differences with one Richardson extrapolation per level, computed with
    `dps` decimal digits so roundoff never surfaces."""
    with mp.workdps(dps):
        h = mp.mpf("1e-6")

        def richardson(f: Callable[[mp.mpf], mp.mpf]) -> Callable[[mp.mpf], mp.mpf]:
            def df(t: mp.mpf) -> mp.mpf:
                d1 = (f(t + h) - f(t - h)) / (2 * h)
                d2 = (f(t + h / 2) - f(t - h / 2)) / h
                return (4 * d2 - d1) / 3

            return df

        f: Callable[[mp.mpf], mp.mpf] = mp_sigmoid
        for _ in range(n):
            f = richardson(f)
        return float(f(mp.mpf(x)))


def richardson_diff(f: Callable[[float], float], x: float, h: float = 1e-3) -> float:
    """Double-precision Richardson-extrapolated central difference."""

    def d(step: float) -> float:
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def reference_G(g, x: float) -> float:
    """G(x) by the naive O(N) sum: every unit, ascending center order, no
    cutoffs and no early exit.  `engine.evaluate` must return the same
    double at every finite x."""
    pts = g.partition.points
    centers = [pts[0]] + list(pts[2:])
    coeffs = [g.coeff0] + list(g.coeffs)
    acc = 0.0
    for c, center in zip(coeffs, centers):
        acc += c * sigmoid(g.w * (x - center))
    return acc


def reference_uniform_grid(a: float, b: float, grid_size: int) -> list[float]:
    """The uniform sampling grid of [a, b], written out as a list: the
    closed formula at every point but the last, which is b itself."""
    xs = [a + (b - a) * j / (grid_size - 1) for j in range(grid_size - 1)]
    xs.append(b)
    return xs


def reference_validation_grid(a: float, b: float, grid_size: int, points) -> list[float]:
    """The points `validate` must visit: the uniform grid plus the partition
    points strictly inside (a, b), built in memory, de-duplicated and sorted."""
    xs = reference_uniform_grid(a, b, grid_size)
    xs.extend(p for p in points if a < p < b)
    return sorted(set(xs))


def leftmost_sup(err: Callable[[float], float], xs) -> tuple[float, float]:
    """(max of err over xs, the first x attaining it)."""
    sup, argmax = -1.0, None
    for x in xs:
        e = err(x)
        if e > sup:
            sup, argmax = e, x
    return sup, argmax


def reference_network_json(doc: dict[str, Any]) -> str:
    """The network document as json.dump lays it out with indent=2, plus a
    final newline: `write_network_document` must write these bytes."""
    out = io.StringIO()
    json.dump(doc, out, indent=2)
    out.write("\n")
    return out.getvalue()


def exact_recipe_n(
    a: float,
    b: float,
    epsilon: float,
    m_f: float,
    m_sigma: float,
    lipschitz: Optional[float] = None,
    modulus_override: Optional[float] = None,
) -> int:
    """N = floor(max(3, 2(b - a)/delta, 1/eta)) + 1 in exact rational
    arithmetic over the given numbers, with eta = eps/(M_f + 2 M_sigma + 2)
    and delta = modulus_override or eta/L."""
    eta = Fraction(epsilon) / (Fraction(m_f) + 2 * Fraction(m_sigma) + 2)
    if modulus_override is not None:
        delta = Fraction(modulus_override)
    else:
        delta = eta / Fraction(lipschitz)
    best = max(Fraction(3), 2 * (Fraction(b) - Fraction(a)) / delta, 1 / eta)
    return math.floor(best) + 1


def reference_samples_csv(g, spec, epsilon: float, grid_size: int):
    """(report, CSV text) from two walks of the grid, as `approximate
    --out-samples` once made them: `validate` without a row sink, then
    `write_samples`, which evaluates f and G again at every uniform point."""
    report = validate(g, spec, epsilon, grid_size)
    out = io.StringIO()
    write_samples(g, spec, grid_size, out)
    return report, out.getvalue()
