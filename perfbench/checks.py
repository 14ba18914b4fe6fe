"""Correctness checks, each computed apart from the library.

Every function returns a list of failure messages; an empty list means the
check held.  They take plain values, so the tests can hand them perturbed
ones and see them rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

ULP = 2.0 ** -52
M_SIGMA = 1.0
SAMPLES_HEADER = "x,f,g,abs_err"


def f_tolerance(fx: float) -> float:
    """Room for the library and the plain copy to round differently."""
    return 1e-12 * (1.0 + abs(fx))


def exact_n(a: float, b: float, eps: float, m_f: float, lipschitz: float) -> int:
    """N = floor(max(3, 2(b - a)/delta, 1/eta)) + 1 in rational arithmetic,
    eta = eps/(M_f + 2 M_sigma + 2), delta = eta/L."""
    eta = Fraction(eps) / (Fraction(m_f) + 2 * Fraction(M_SIGMA) + 2)
    delta = eta / Fraction(lipschitz)
    best = max(Fraction(3), 2 * (Fraction(b) - Fraction(a)) / delta, 1 / eta)
    return math.floor(best) + 1


def recipe_failures(
    a: float, b: float, eps: float, m_f: float, lipschitz: float,
    n: int, h: float, w: float,
) -> list[str]:
    """N as rational arithmetic gives it from the bounds, h = (b - a)/N to
    an ulp, and w*h = ln(N - 1) to rounding."""
    out = []
    want = exact_n(a, b, eps, m_f, lipschitz)
    if n != want:
        out.append(f"N = {n}, rational arithmetic gives {want}")
    if n < 3:
        return out
    exact_h = (Fraction(b) - Fraction(a)) / n
    if abs(Fraction(h) - exact_h) > exact_h * Fraction(ULP):
        out.append(f"h = {h!r} is not (b - a)/N = {float(exact_h)!r}")
    ln = math.log(n - 1)
    if abs(w * h - ln) > 4.0 * ULP * ln:
        out.append(f"w*h = {w * h!r} differs from ln(N-1) = {ln!r}")
    return out


def f_failures(
    plain: Callable[[float], float], pairs: Iterable[tuple[float, float]]
) -> list[str]:
    """(x, f(x) as the library computed it) against the plain copy."""
    out = []
    for x, fx in pairs:
        want = plain(x)
        if not abs(fx - want) <= f_tolerance(want):
            out.append(f"f({x!r}) = {fx!r}, plain copy gives {want!r}")
    return out


def coefficient_failures(
    plain: Callable[[float], float],
    points: Sequence[float],
    coeff0: float,
    coeffs: Sequence[float],
    ks: Iterable[int],
) -> list[str]:
    """Unit k >= 2 has output weight f(x_k) - f(x_{k-1}); the x_0 unit has
    f(a) = f(x_1)."""
    out = []
    want0 = plain(points[1])
    if not abs(coeff0 - want0) <= f_tolerance(want0):
        out.append(f"coefficient of the x_0 unit is {coeff0!r}, f(a) = {want0!r}")
    for k in ks:
        fk, fprev = plain(points[k]), plain(points[k - 1])
        got = coeffs[k - 2]
        if not abs(got - (fk - fprev)) <= f_tolerance(fk) + f_tolerance(fprev):
            out.append(f"coefficient of unit {k} is {got!r}, f differences give "
                       f"{fk - fprev!r}")
    return out


def naive_sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def naive_g(units: Sequence[dict], x: float) -> float:
    """The O(N) sum over every unit of a network document, no windowing."""
    acc = 0.0
    for u in units:
        acc += u["output_coefficient"] * naive_sigmoid(
            u["hidden_weight"] * x + u["hidden_bias"])
    return acc


def naive_g_tolerance(units: Sequence[dict], x: float) -> float:
    """How far a correct windowed evaluation may sit from the naive sum.

    Units more than 37/w to the right of x contribute below |c| e^-37 each,
    a geometric series because w*h = ln(N-1): at most max|c| e^-37
    (N-1)/(N-2) in all.  Summing n terms rounds by at most n ulp of sum|c|,
    and forming w*x + bias instead of w*(x - x_k) moves each argument by a
    few ulp of |w x| + |bias|, which sigma' <= 1/4 turns into at most that
    much of |c|.
    """
    n = len(units)
    coeffs = [abs(u["output_coefficient"]) for u in units]
    total = sum(coeffs)
    w = abs(units[0]["hidden_weight"])
    bias = max(abs(u["hidden_bias"]) for u in units)
    tail = max(coeffs) * math.exp(-37.0) * (n - 1) / max(n - 2, 1)
    return tail + ULP * total * (n + 1 + w * abs(x) + bias)


def naive_g_failures(
    units: Sequence[dict], pairs: Iterable[tuple[float, float]]
) -> list[str]:
    """(x, G(x) from the library) against the naive sum over `units`."""
    out = []
    for x, gx in pairs:
        want = naive_g(units, x)
        tol = naive_g_tolerance(units, x)
        if not abs(gx - want) <= tol:
            out.append(f"G({x!r}) = {gx!r}, naive sum gives {want!r} (tol {tol:.3g})")
    return out


def sup_failures(
    points: Iterable[tuple[float, float, float]], sup: float, eps: float
) -> list[str]:
    """At sampled grid points (x, G(x), plain f(x)), |G - f| stays at or
    below the reported sup, and the sup is below eps."""
    out = []
    if not sup < eps:
        out.append(f"sup error {sup!r} is not below eps = {eps!r}")
    for x, gx, fx in points:
        err = abs(gx - fx)
        if not err <= sup + f_tolerance(fx):
            out.append(f"|G - f| = {err!r} at x = {x!r} exceeds the reported "
                       f"sup {sup!r}")
    return out


def decomposition_failures(
    eps: float, m_f: float, i1: float, i2: float, gx: float, fx: float
) -> list[str]:
    """The proof's split at one point: I1 <= (1 + M_f) eta,
    I2 <= (2 M_sigma + 1) eta, and I1 + I2 >= |G - f|."""
    out = []
    eta = eps / (m_f + 2.0 * M_SIGMA + 2.0)
    if not i1 <= (1.0 + m_f) * eta:
        out.append(f"I1 = {i1!r} exceeds (1 + M_f) eta = {(1.0 + m_f) * eta!r}")
    if not i2 <= (2.0 * M_SIGMA + 1.0) * eta:
        out.append(f"I2 = {i2!r} exceeds (2 M_sigma + 1) eta = "
                   f"{(2.0 * M_SIGMA + 1.0) * eta!r}")
    err = abs(gx - fx)
    if not i1 + i2 >= err - f_tolerance(fx) - 4.0 * ULP * (abs(gx) + i1 + i2):
        out.append(f"I1 + I2 = {i1 + i2!r} is below |G - f| = {err!r}")
    return out


def document_failures(doc: dict, n: int, w: float) -> list[str]:
    """A network document of N + 1 units that share the slope w."""
    out = []
    units = doc.get("units", [])
    if len(units) != n + 1:
        out.append(f"document has {len(units)} units, want N + 1 = {n + 1}")
    if any(u["hidden_weight"] != w for u in units):
        out.append(f"units do not all share the hidden weight w = {w!r}")
    if doc.get("metadata", {}).get("N") != n:
        out.append(f"document metadata N = {doc.get('metadata', {}).get('N')!r}, "
                   f"want {n}")
    return out


def round_trip_failures(pairs: Iterable[tuple[float, float, float]]) -> list[str]:
    """(x, G(x), reloaded G(x)) must agree bit for bit."""
    return [
        f"reloaded G({x!r}) = {after!r}, original {before!r}"
        for x, before, after in pairs
        if before.hex() != after.hex()
    ]


def samples_failures(
    lines: Iterable[str],
    a: float,
    b: float,
    grid: int,
    eps: float,
    sup: float,
    plain: Callable[[float], float],
    rows_to_check: Iterable[int],
) -> list[str]:
    """The samples CSV, read line by line: a header and `grid` ascending
    rows from a to b, each abs_err equal to |g - f| of its own columns and
    below eps and the reported sup; f at `rows_to_check` matches the plain
    copy."""
    it = iter(lines)
    header = next(it, "").rstrip("\n")
    if header != SAMPLES_HEADER:
        return [f"samples header is {header!r}, want {SAMPLES_HEADER!r}"]
    check = set(rows_to_check)
    f_pairs = []
    count = bad = 0
    first = prev = None
    ascending = True
    worst = 0.0
    for line in it:
        x, fx, gx, err = map(float, line.split(","))
        if first is None:
            first = x
        elif not x > prev:
            ascending = False
        if err != abs(gx - fx):
            bad += 1
        worst = max(worst, err)
        if count in check:
            f_pairs.append((x, fx))
        prev = x
        count += 1
    if count != grid:
        return [f"samples have {count} rows, the grid has {grid}"]
    out = []
    if first != a or prev != b:
        out.append(f"samples span [{first!r}, {prev!r}], want [{a!r}, {b!r}]")
    if not ascending:
        out.append("sample x values are not strictly ascending")
    if bad:
        out.append(f"{bad} rows have abs_err != |g - f|")
    if not worst < eps:
        out.append(f"a sample error {worst!r} is not below eps = {eps!r}")
    if not worst <= sup:
        out.append(f"a sample error {worst!r} exceeds the reported sup {sup!r}")
    return out + f_failures(plain, f_pairs)


def parse_cli_output(stdout: str) -> dict[str, str]:
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return values


def cli_failures(
    returncode: int, stdout: str, n: int, sup: float, grid_points: int,
    estimated: bool,
) -> list[str]:
    """`approximate` exits 0, prints pass = True and agrees with the library
    run on N, the validation grid and sup_error."""
    out = []
    if returncode != 0:
        out.append(f"approximate exited with {returncode}")
    v = parse_cli_output(stdout)
    if v.get("pass") != "True":
        out.append(f"approximate printed pass = {v.get('pass')!r}")
    if v.get("N") != str(n):
        out.append(f"approximate printed N = {v.get('N')!r}, library gave {n}")
    if v.get("grid_size") != str(grid_points):
        out.append(f"approximate printed grid_size = {v.get('grid_size')!r}, "
                   f"library gave {grid_points}")
    if v.get("sup_error") != repr(sup):
        out.append(f"approximate printed sup_error = {v.get('sup_error')!r}, "
                   f"library gave {sup!r}")
    source = "estimated" if estimated else "supplied"
    for key in ("M_f_source", "L_source"):
        if v.get(key) != source:
            out.append(f"approximate printed {key} = {v.get(key)!r}, want {source}")
    return out


def estimate_failures(
    m_f: float, m_f_source: str, lipschitz: Optional[float], lipschitz_source: str,
    analytic_sup: float, analytic_lipschitz: float,
) -> list[str]:
    """Estimated bounds are labelled so and are not below the true values."""
    out = []
    if m_f_source != "estimated" or lipschitz_source != "estimated":
        out.append(f"bounds labelled {m_f_source!r} and {lipschitz_source!r}, "
                   "want 'estimated'")
    if not m_f >= analytic_sup:
        out.append(f"estimated M_f = {m_f!r} is below sup|f| = {analytic_sup!r}")
    if lipschitz is None or not lipschitz >= analytic_lipschitz:
        out.append(f"estimated L = {lipschitz!r} is below sup|f'| = "
                   f"{analytic_lipschitz!r}")
    return out
