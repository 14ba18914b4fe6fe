"""Constructive single-hidden-layer approximation with a sup-norm certificate.

Given a target error eps, a bound M_f >= sup|f| on [a, b], a bound
M_sigma >= sup|sigma|, and a Lipschitz constant L, the recipe is

    eta   = eps / (M_f + 2*M_sigma + 2)
    delta = eta / L
    N     = floor(max(3, 2*(b-a)/delta, 1/eta)) + 1
    h     = (b-a)/N
    w     = ln(N-1)/h        (the minimal sufficient slope)

and the approximant on the widened uniform grid x_0..x_{N+1} is

    G(x) = f(a)*sigma(w*(x - x_0))
         + sum_{k=2}^{N+1} (f(x_k) - f(x_{k-1})) * sigma(w*(x - x_k)),

a network of N+1 units whose output weights are forward differences of f.
The sup error on [a, b] is provably below eps; `validate` measures it on a
grid, and `error_decomposition` exposes the proof's I1/I2 split through the
local surrogate L_i that pretends all far sigmoids are saturated.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import sub
from typing import Callable, Iterator, Optional

from .expressions import FunctionSpec, estimate_lipschitz, estimate_sup
from .limits import sigmoid_saturation_slope
from .partition import UniformPartition, select_index, unif_part, uniform_grid
# The unit loop `_window_sum`, which `evaluate` and `validate` call, and
# `surrogate_L` pass the sigmoid only finite arguments (see `evaluate`'s
# docstring), so this module's name `sigmoid` is the kernel without the
# input guard.  They call it through this module-level name:
# wrapping `engine.sigmoid` counts the sigmoid calls per G, as the
# benchmark's probe and the lookahead tests do.
from .sigmoid import finite_sigmoid as sigmoid

__all__ = [
    "Recipe",
    "SigmoidApproximant",
    "ErrorReport",
    "DecompositionReport",
    "RecipeError",
    "SurrogateNotApplicableError",
    "compute_eta",
    "compute_recipe",
    "unit_centers",
    "build_approximant",
    "evaluate",
    "validate",
    "surrogate_L",
    "error_decomposition",
]

_MAX = sys.float_info.max

DEFAULT_N_CAP = 10_000_000
M_SIGMA = 1.0  # sup |sigma| of the logistic sigmoid

# Fast-path saturation cutoffs for the shared-slope evaluation.  For
# arguments above POS_CUTOFF the sigmoid is exactly 1.0 in double
# (1/(1 + e^-t) rounds to 1.0 once e^-t < 2^-53, i.e. t > ~36.75); below
# NEG_CUTOFF exp underflows to exactly 0.0 (around t < -745.2), so both
# shortcuts are bit-identical to evaluating the sigmoid.
POS_CUTOFF = 37.0
NEG_CUTOFF = -747.0

# `evaluate`'s lookahead: the bound 2*exp(-w*gap) on the ratio of
# neighbouring sigmoids is inflated by LOOKAHEAD_SLACK to cover the
# rounding of t, of w*gap and of exp, and it is trusted only while the
# running sum is at least LOOKAHEAD_FLOOR * max(1, cmax), where the
# absolute errors of underflowing sigmoids are negligible against its ulp.
LOOKAHEAD_SLACK = 1.0 + 2.0**-20
LOOKAHEAD_FLOOR = 2.0**-1000

SUPPLIED = "supplied"
ESTIMATED = "estimated"
OVERRIDE = "override"


class RecipeError(ValueError):
    """Invalid or unattainable recipe parameters."""


class SurrogateNotApplicableError(ValueError):
    """The local surrogate is only defined for cell indices i >= 3."""


@dataclass(frozen=True)
class Recipe:
    """Certified parameter bundle for one approximation run.

    `n_candidates` holds the three operands of the floor in the N formula,
    3, 2*(b-a)/delta and 1/eta, as exact rationals over the input doubles,
    so floor(max(n_candidates)) + 1 == n holds exactly.  eta, delta, h and
    w are the doubles computed from the same inputs.
    """

    epsilon: float
    m_f: float
    m_sigma: float
    eta: float
    delta: float
    n: int
    h: float
    w: float
    a: float
    b: float
    lipschitz: Optional[float]
    n_candidates: tuple[Fraction, Fraction, Fraction]
    m_f_source: str = SUPPLIED
    lipschitz_source: str = SUPPLIED


@dataclass(frozen=True)
class ErrorReport:
    grid_size: int
    sup_error: float
    argmax_x: float
    target_epsilon: float
    passed: bool


@dataclass(frozen=True)
class DecompositionReport:
    x: float
    index_i: int
    i1: float
    i2: float
    i1_bound: float
    i2_bound: float


def compute_eta(epsilon: float, m_f: float, m_sigma: float) -> float:
    """eta = eps / (M_f + 2*M_sigma + 2); the denominator is >= 2, so
    eta <= eps/2."""
    if not 0.0 < epsilon < math.inf:
        raise RecipeError("epsilon must be positive and finite")
    if m_f < 0.0 or m_sigma < 0.0:
        raise RecipeError("M_f and M_sigma must be nonnegative")
    return epsilon / (m_f + 2.0 * m_sigma + 2.0)


def _exact(name: str, value: float) -> Fraction:
    """`value` as an exact rational; an estimated bound can be inf or nan."""
    if not math.isfinite(value):
        raise RecipeError(f"{name} = {value!r} is not finite")
    return Fraction(value)


def compute_recipe(spec: FunctionSpec, epsilon: float) -> Recipe:
    """Derive (eta, delta, N, h, w) for the target function and error.

    Missing M_f / L are filled in by the grid estimators; a supplied
    modulus_override replaces delta = eta/L entirely, and an estimated
    L of 0 (f constant at every sample) takes delta = b - a.  N above
    DEFAULT_N_CAP is rejected with the required value in the message: the
    requested epsilon is too small for desk-scale validation.  So is an
    interval too narrow or too wide for h and w to be representable, and
    an estimated bound that is not finite.
    """
    if not 0.0 < epsilon < math.inf:
        raise RecipeError("epsilon must be positive and finite")
    a, b = spec.interval.a, spec.interval.b

    if spec.sup_bound is not None:
        m_f, m_f_source = float(spec.sup_bound), SUPPLIED
    else:
        m_f, m_f_source = estimate_sup(spec), ESTIMATED

    eta = compute_eta(epsilon, m_f, M_SIGMA)
    # N is floored exactly over the input doubles: any N > max(...) meets
    # the proof's hypothesis, and a rounded candidate can miss an integer
    q_eta = Fraction(epsilon) / (_exact("M_f", m_f) + 2 * Fraction(M_SIGMA) + 2)

    lipschitz: Optional[float]
    if spec.modulus_override is not None:
        delta = float(spec.modulus_override)
        q_delta = Fraction(delta)
        lipschitz, lipschitz_source = None, OVERRIDE
    else:
        if spec.lipschitz is not None:
            lipschitz, lipschitz_source = float(spec.lipschitz), SUPPLIED
        else:
            lipschitz, lipschitz_source = estimate_lipschitz(spec), ESTIMATED
        if lipschitz == 0.0:
            # f sampled constant (a supplied L is positive): every pair of
            # points of [a, b] lies within delta = b - a, and the candidate
            # 2(b - a)/delta is exactly 2
            delta, q_delta = b - a, Fraction(b) - Fraction(a)
        else:
            delta = eta / lipschitz
            q_delta = q_eta / _exact("L", lipschitz)

    candidates = (Fraction(3), 2 * (Fraction(b) - Fraction(a)) / q_delta, 1 / q_eta)
    n = math.floor(max(candidates)) + 1
    if n > DEFAULT_N_CAP:
        raise RecipeError(
            f"required N = {Decimal(n):.3e} exceeds the cap {DEFAULT_N_CAP}; "
            "epsilon is too small for this configuration"
        )
    h = (b - a) / n
    if 0.0 < h < math.inf:
        w = sigmoid_saturation_slope(h, n).omega
    else:
        w = 0.0 if h else math.inf  # the limits of ln(N - 1)/h
    if not 0.0 < w < math.inf:
        width = "wide" if h == math.inf else "narrow"
        raise RecipeError(
            f"[{a!r}, {b!r}] is too {width} for N = {n}: "
            f"h = {h!r} gives the slope w = {w!r}"
        )
    return Recipe(
        epsilon=float(epsilon),
        m_f=m_f,
        m_sigma=M_SIGMA,
        eta=eta,
        delta=delta,
        n=n,
        h=h,
        w=w,
        a=a,
        b=b,
        lipschitz=lipschitz,
        n_candidates=candidates,
        m_f_source=m_f_source,
        lipschitz_source=lipschitz_source,
    )


def unit_centers(partition: UniformPartition) -> tuple[float, ...]:
    """Centers of G's units in output order: x_0 for the f(a) unit, then
    x_2..x_{N+1}.  x_1 = a carries no unit of its own."""
    pts = partition.points
    return (pts[0],) + pts[2:]


@dataclass(frozen=True)
class SigmoidApproximant:
    """The network G: shared slope w, centers from the widened partition,
    output weights = forward differences of f (coeffs[j] belongs to
    k = j + 2), plus f(a) on the unit centered at x_0.

    Every G, built, loaded or put together by hand, has 0 < w < inf, N
    forward differences and finite output weights; the constructor raises
    RecipeError naming the slope, the count or the first bad unit.
    `evaluate`'s exact early exit and the sigmoid-window cutoffs assume
    all three.

    `built_from` is (spec, f(x_k) for k = 1..N+1) as `build_approximant`
    computed them, so `validate` against that same spec need not evaluate
    f at the knots again.  Only `build_approximant` sets it: it is no
    parameter of the constructor, and a G from anywhere else has None.  It
    takes no part in repr, == or hash."""

    w: float
    partition: UniformPartition
    coeff0: float
    coeffs: tuple[float, ...] = field(repr=False)
    built_from: Optional[tuple[FunctionSpec, array]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def check_slope(w: float) -> None:
        """Raise RecipeError unless 0 < w < inf."""
        if not 0.0 < w < math.inf:
            raise RecipeError(f"hidden_weight {w!r} is not positive and finite")

    def __post_init__(self) -> None:
        self.check_slope(self.w)
        n = self.partition.n_intervals
        if len(self.coeffs) != n:
            raise RecipeError(f"N = {n} needs {n} forward differences, got {len(self.coeffs)}")
        if not (math.isfinite(self.coeff0) and all(map(math.isfinite, self.coeffs))):
            coeffs = self.unit_coeffs
            u = next(u for u, c in enumerate(coeffs) if not math.isfinite(c))
            raise RecipeError(
                f"unit {u} has output_coefficient {coeffs[u]!r} at "
                f"x_{u + 1 if u else 0} = {self.centers[u]!r}, which is not finite"
            )

    @property
    def unit_count(self) -> int:
        return self.partition.n_intervals + 1

    def coeff(self, k: int) -> float:
        """Output weight of the unit centered at x_k, k in {2..N+1}."""
        return self.coeffs[k - 2]

    @cached_property
    def centers(self) -> tuple[float, ...]:
        """Unit centers in output order; see `unit_centers`."""
        return unit_centers(self.partition)

    @cached_property
    def unit_coeffs(self) -> tuple[float, ...]:
        """Output weights in the order of `centers`: f(a), then coeffs."""
        return (self.coeff0,) + self.coeffs

    @cached_property
    def _prefix(self) -> array:
        # prefix[u] = left-fold of unit coefficients 0..u; identical to the
        # naive ascending accumulation when every skipped sigmoid is 1.0.
        # Packed doubles, 8 bytes each against 32 for a float in a tuple:
        # `evaluate` and `surrogate_L` read one entry per call.  The centers
        # and coefficients stay tuples, because the bisect and the unit
        # loop read many entries per call, and each read from an array
        # makes a new float object.
        return array("d", accumulate(self.unit_coeffs))

    @cached_property
    def _cmax(self) -> float:
        # bound on every coefficient that can sit right of x in `evaluate`
        return max(map(abs, self.coeffs), default=0.0)

    @cached_property
    def _kernel(self) -> tuple:
        """The per-network constants of `evaluate` and `validate`, read in
        one go: w, centers and unit coefficients (tuples), prefix sums
        (packed doubles, see `_prefix`), tail = cmax*D, the window offsets
        POS_CUTOFF/w and NEG_CUTOFF/w, cmax, the lookahead's floor, the
        unit count (the unit loop's bound, so that no G pays a `len` call)
        and the range [xlo, xhi] of x that needs no check beyond being in
        it.
        D = min(1, 2*exp(-w*gap)*LOOKAHEAD_SLACK) with gap the smallest
        difference of consecutive centers, taken from the stored doubles.
        The range is [-MAX, MAX] unless the window offsets exceed MAX/4,
        which takes w below about 1.7e-305; it is then empty, and every x
        goes through `_check_window`."""
        w = self.w
        centers = self.centers
        gap = min(map(sub, islice(centers, 1, None), centers))
        d = min(1.0, 2.0 * math.exp(-w * gap) * LOOKAHEAD_SLACK)
        cmax = self._cmax
        floor = LOOKAHEAD_FLOOR * max(1.0, cmax)
        neg = NEG_CUTOFF / w
        xlo, xhi = (-_MAX, _MAX) if neg >= -_MAX / 4 else (math.inf, -math.inf)
        return (w, centers, self.unit_coeffs, self._prefix, cmax * d,
                POS_CUTOFF / w, neg, cmax, floor, len(centers), xlo, xhi)


def build_approximant(spec: FunctionSpec, recipe: Recipe) -> SigmoidApproximant:
    """Construct G for the recipe: one f evaluation at each partition point
    in [a, b], x_1..x_{N+1}.  x_0 = a - h is a unit center only.

    f is finite at every point, but a forward difference of two finite
    values can overflow; `SigmoidApproximant` then raises RecipeError
    naming the unit, x_k and the value."""
    a, b = spec.interval.a, spec.interval.b
    if (a, b) != (recipe.a, recipe.b):
        raise RecipeError("recipe interval does not match the function spec")
    p = unif_part(a, b, recipe.n)
    # doubles in an array take 8 bytes each, a tuple of floats 32
    values = array("d", map(spec, islice(p.points, 1, None)))
    coeffs = tuple(map(sub, islice(values, 1, None), values))
    g = SigmoidApproximant(w=recipe.w, partition=p, coeff0=values[0], coeffs=coeffs)
    object.__setattr__(g, "built_from", (spec, values))
    return g


def _check_window(x: float, centers: tuple[float, ...], lo: int, stop: float) -> None:
    """Raise ValueError unless x is finite and x - c is finite for every
    center c in the window centers[lo:hi] that `_window_sum` visits from lo
    to stop, hi = bisect_right(centers, stop).  Centers ascend, so x - c is
    largest at lo and smallest at hi - 1."""
    if not -_MAX <= x <= _MAX:
        raise ValueError("x must be finite")
    hi = bisect_right(centers, stop)
    if lo < hi and not (x - centers[lo] <= _MAX and x - centers[hi - 1] >= -_MAX):
        raise ValueError(f"x = {x!r} is too far from the unit centers: "
                         "x - c overflows for a unit in the sigmoid window")


def evaluate(g: SigmoidApproximant, x: float) -> float:
    """G(x), bit-identical to the naive sum over all units in ascending
    center order.  Evaluation outside [a, b] is permitted; the certificate
    only covers the inside.

    `evaluate` finds the start of x's sigmoid window with one bisection of
    the centers and passes it to `_window_sum`, the one copy of the unit
    loop, which finds the window's end itself.  `validate` calls the same
    loop, with window starts it walks along its ascending points instead
    of bisecting at each one.

    Three shortcuts skip units without changing a bit of the result:

    - Units with argument above POS_CUTOFF have sigma == 1.0 exactly; they
      are folded in through the precomputed prefix sums.
    - Units with argument below NEG_CUTOFF have sigma == 0.0 exactly and
      are never visited.
    - In between, the loop leaves early once the remaining tail cannot
      change the sum.  After adding unit u with argument t = w*(x - c_u)
      and sigmoid s_u, it stops when t < 0 and tail * s_u < ulp(acc)/8.
      Here tail = cmax * D, where cmax = max|coeffs| over the forward
      differences (unit 0, the f(a) unit, is leftmost and never in the
      tail), D = min(1, 2*exp(-w*gap)*(1 + 2^-20)), and gap is the
      smallest difference of consecutive centers.  With the paper's slope
      w*h = ln(N-1), D is about 2/(N-1).

    Why the stop is exact.  Centers ascend, so every later unit has a
    coefficient of modulus at most cmax and an argument at most t - w*gap.
    For t <= 0 the sigmoid lies between e^t/2 and e^t, so

        sigma(t - d) <= e^(t-d) <= 2*e^-d * sigma(t):

    the next sigmoid is at most D * s_u and each later one is no larger
    (up to rounding).  D = 1 is plain monotonicity, which is all the rule
    uses when w*gap < ln 2: N = 3, where w*h = ln 2, or a hand-built
    network with a small slope.  The computed values differ from the exact
    ones by rounding: t by at most about 747 * 2^-52 < 2e-13 absolute, so
    the ratio of neighbouring e^t by a relative 4e-13; w*gap, exp and the
    sigmoid by a few ulps.  The factor 1 + 2^-20 in D covers all of them,
    so every later product |c| * s is at most tail * s_u, which is below
    ulp(acc)/8, times 1 + a few ulps; the factor-2 margin between ulp/8 and
    ulp/4 absorbs the rounding of the products.  Each later product is
    therefore below a quarter of the float spacing on either side of acc
    (at a power of two the spacing below is ulp/2), so acc + c*s rounds
    back to acc, acc never changes again, and returning early gives the
    same double as the full loop.

    Near underflow the relative bounds do not hold: a sigmoid below 2^-1022
    (t below about -708), D or a product that small is rounded to a
    multiple of 2^-1074 and so carries an absolute error of up to 2^-1074
    besides its relative one.  Carried through the argument above, these
    add at most 2^-1071 * max(1, cmax) to a later product.  So the exit
    branch trusts tail only while |acc| >= 2^-1000 * max(1, cmax), where
    ulp(acc) >= 2^-1053 * max(1, cmax) and the addition is below
    2^-18 * ulp(acc).  Below that floor it stops only when
    cmax * s_u < ulp(acc)/8, the rule with D = 1, which needs nothing but
    monotonicity.  The guard sits inside the exit branch, so it costs
    nothing per unit, and since tail <= cmax the loop never visits more
    units than the D = 1 rule would.  When acc is 0 or subnormal,
    ulp(acc)/8 is 0 or underflows, so the loop never leaves early there.

    Why every t is finite.  The loop calls the sigmoid kernel, which has
    no input guard, so the guard is here, once per call: x must be finite.
    The centers are finite (`unif_part` refuses a partition that is not)
    and 0 < w < inf (`SigmoidApproximant` refuses any other slope).  The
    window keeps t within about [-747, 37]: a visited center c lies
    between fl(x - pos) and fl(x - neg), with pos = POS_CUTOFF/w and
    neg = NEG_CUTOFF/w, and since x is itself a double, the double nearest
    x - pos lies within pos of it.  So -2*|neg| <= x - c <= 2*pos, and
    t = w*(x - c) lies in [-1494, 74] up to rounding.  When ulp(x)/4
    exceeds both offsets, both ends of the window round to x, only units
    with c == x are visited, and t = 0.  The bound on x - c keeps it
    finite while |neg| <= MAX/4.  A smaller slope, below about 1.7e-305,
    leaves the window wider than the doubles, so `_check_window` refuses
    an x at which x - c overflows for a unit in the window; the guarded
    sigmoid refused such an x as well, once the loop reached that unit.
    """
    kernel = g._kernel
    _, centers, _, _, _, pos, neg, _, _, _, xlo, xhi = kernel
    x = float(x)
    lo = bisect_left(centers, x - pos)
    stop = x - neg
    if not xlo <= x <= xhi:
        _check_window(x, centers, lo, stop)
    return _window_sum(kernel, x, lo, stop)


def _window_sum(kernel: tuple, x: float, lo: int, stop: float) -> float:
    """G(x) from the window that starts at lo, the first center at or above
    fl(x - pos), and ends before the first center above stop = fl(x - neg):
    the prefix sum of the units left of lo, then the unit loop with its
    exact early exit (see `evaluate`).  This is the only copy of the loop.

    The loop finds the window's end itself.  It tests each center against
    stop before that unit's sigmoid, and the centers ascend, so it visits
    the units of centers[lo:hi] with hi = bisect_right(centers, stop), in
    order, and no other: the window of two bisections, with the same
    sigmoid calls and the same double.  The lookahead exit almost always
    leaves before stop (about 6 units visited against a window of about
    68 at N = 99,487), so one comparison per visited unit costs less than
    a bisection of all the centers."""
    w, centers, coeffs, prefix, tail, _, _, cmax, floor, end, _, _ = kernel
    sig = sigmoid
    ulp = math.ulp
    acc = prefix[lo - 1] if lo > 0 else 0.0
    for u in range(lo, end):
        c = centers[u]
        if c > stop:
            break
        t = w * (x - c)
        s = sig(t)
        acc += coeffs[u] * s
        if t < 0.0 and tail * s < ulp(acc) / 8:
            if abs(acc) >= floor or cmax * s < ulp(acc) / 8:
                break
    return acc


def _with_knots(
    grid: Iterator[float], knots: Iterator[tuple[float, Optional[float]]]
) -> Iterator[tuple[float, bool, Optional[float]]]:
    """Merge the ascending grid and the ascending (x, f(x) or None) knots
    into (x, True, None) for each grid point and (x, False, f(x) or None)
    for each knot; a knot equal to a grid point comes after it.  The grid
    ends at b and every knot lies below b, so no knot is left over."""
    knot, known = next(knots, (math.inf, None))
    for x in grid:
        while knot < x:
            yield knot, False, known
            knot, known = next(knots, (math.inf, None))
        yield x, True, None


def validate(
    g: SigmoidApproximant,
    spec: FunctionSpec,
    epsilon: float,
    grid_size: int,
    row: Optional[Callable[[float, float, float], object]] = None,
) -> ErrorReport:
    """Measure sup |G - f| on a uniform grid of [a, b] with the partition
    knots inside (a, b) merged in, so the estimate cannot alias the mesh.
    Pass iff the measured sup is below epsilon.  Ties on the sup go to the
    leftmost point.  The grid is streamed: memory is O(1) in grid_size.

    f and G are evaluated once per distinct point, except that a knot
    takes f from the build when `spec` is the very object G was built from
    (see `SigmoidApproximant.built_from`); f is then evaluated only at the
    distinct uniform-grid points.  If `row` is given, it is called as
    row(x, f(x), G(x)) for each of the grid_size uniform-grid points in
    ascending order, a repeated point included (with the values already
    computed) and the knots left out; the report is the same with or
    without it.

    A G that evaluates to inf or nan fails: the first point where |G - f|
    is not finite gives sup_error and argmax_x, and no later point
    replaces it.

    The start of G's sigmoid window is walked, not bisected.  lo starts at
    0, and at each distinct point x it moves right while
    centers[lo] < fl(x - pos).  The distinct points strictly ascend and
    rounding is monotone, so fl(x - pos) never decreases from one point to
    the next: every center left of lo passed the test at an earlier point
    and passes it again.  The centers ascend, so the walk stops at the
    first center that fails the test, which is
    bisect_left(centers, x - pos): the start `evaluate` bisects.  The end
    is the same stop = fl(x - neg) that `evaluate` passes, and the unit
    loop finds it (see `_window_sum`).  `_check_window` runs under the
    same condition as there, and G(x) comes from the same loop, so it is
    the double `evaluate` returns.  lo never moves left, so the walk costs
    O(N + points) comparisons in all, where bisecting costs O(log N) at
    every point."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    a, b = spec.interval.a, spec.interval.b
    built = g.built_from
    values = built[1] if built is not None and built[0] is spec else repeat(None)
    knots = ((p, v) for p, v in zip(islice(g.partition.points, 1, None), values) if a < p < b)
    kernel = g._kernel
    _, centers, _, _, _, pos, neg, _, _, end, xlo, xhi = kernel
    lo = 0
    sup = -1.0
    argmax = a
    count = 0
    prev = fx = gx = math.nan
    for x, on_grid, known in _with_knots(uniform_grid(a, b, grid_size), knots):
        # equal points arrive together, so skipping repeats visits the
        # points of sorted(set(grid + knots)) in that order
        if x != prev:
            prev = x
            count += 1
            fx = spec(x) if known is None else known
            start = x - pos
            while lo < end and centers[lo] < start:
                lo += 1
            stop = x - neg
            if not xlo <= x <= xhi:
                _check_window(x, centers, lo, stop)
            gx = _window_sum(kernel, x, lo, stop)
            err = abs(gx - fx)
            # `not <=` is also true for nan; once sup is inf or nan it stays
            if not err <= sup and math.isfinite(sup):
                sup = err
                argmax = x
        if on_grid and row is not None:
            row(x, fx, gx)
    return ErrorReport(
        grid_size=count,
        sup_error=sup,
        argmax_x=argmax,
        target_epsilon=float(epsilon),
        passed=sup < epsilon,
    )


def surrogate_L(g: SigmoidApproximant, i: int, x: float) -> float:
    """The proof's local surrogate for x in [x_i, x_{i+1}], i >= 3:

        L_i(x) = f(a) + sum_{k=2}^{i-1} (f(x_k) - f(x_{k-1}))
               + (f(x_i) - f(x_{i-1})) * sigma(w*(x - x_i))
               + (f(x_{i+1}) - f(x_i)) * sigma(w*(x - x_{i+1}))

    i.e. every step left of the cell is fully on, every step right is fully
    off, and only the two boundary units keep their true sigmoid value.
    """
    n = g.partition.n_intervals
    if i < 3:
        raise SurrogateNotApplicableError(
            f"surrogate is defined only for i >= 3, got i={i}"
        )
    if i > n:
        raise ValueError(f"i={i} exceeds the number of cells N={n}")
    pts = g.partition.points
    if not (pts[i] <= x <= pts[i + 1]):
        raise ValueError(f"x={x!r} not in cell [{pts[i]!r}, {pts[i + 1]!r}]")
    # the left-to-right fold of coeff0 and coeff(2)..coeff(i-1), i.e. of
    # unit coefficients 0..i-2.  x and both centers lie in one cell of
    # finite points, so x - c is finite, and w * (x - c) overflows only
    # far beyond the cutoffs, where the kernel's 1.0 and 0.0 are exact
    acc = g._prefix[i - 2]
    acc += g.coeff(i) * sigmoid(g.w * (x - pts[i]))
    acc += g.coeff(i + 1) * sigmoid(g.w * (x - pts[i + 1]))
    return acc


def error_decomposition(
    g: SigmoidApproximant, spec: FunctionSpec, recipe: Recipe, x: float
) -> DecompositionReport:
    """Split |G(x) - f(x)| into I1 = |G - L_i| (far-sigmoid saturation
    error) and I2 = |L_i - f| (local reconstruction error), with the proof's
    strict bounds (1 + M_f)*eta and (2*M_sigma + 1)*eta.

    Only defined where select_index yields i >= 3; smaller i raises
    SurrogateNotApplicableError and the diagnostic is skipped.
    """
    i = select_index(g.partition, x)
    li = surrogate_L(g, i, x)
    gx = evaluate(g, x)
    fx = spec(x)
    return DecompositionReport(
        x=float(x),
        index_i=i,
        i1=abs(gx - li),
        i2=abs(li - fx),
        i1_bound=(1.0 + recipe.m_f) * recipe.eta,
        i2_bound=(2.0 * recipe.m_sigma + 1.0) * recipe.eta,
    )
