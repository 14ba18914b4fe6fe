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
`validate` evaluates G, through `evaluate`, only where it might move the
sup: at a knot it first tries the one-unit closed form, at a grid point
the surrogate's two-unit sum, and skips G where that sits provably below
the running sup.
One walk over the partition points merges the knots into its grid and
finds each grid point's two units.
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
from itertools import accumulate, islice
from operator import sub
from typing import Callable, Iterator, Optional

from .expressions import FunctionSpec, estimate_lipschitz, estimate_sup
from .limits import sigmoid_saturation_slope
from .partition import UniformPartition, select_index, unif_part, uniform_grid
# `evaluate`'s unit loop and `surrogate_L` pass the sigmoid only finite
# arguments (see `evaluate`'s docstring), so this module's name `sigmoid`
# is the kernel without the input guard.  They call it through this
# module-level name: wrapping `engine.sigmoid` counts the sigmoid calls per
# G, as the benchmark's probe and the lookahead tests do.
from .sigmoid import finite_sigmoid as sigmoid

__all__ = [
    "Recipe",
    "SigmoidApproximant",
    "ErrorReport",
    "DecompositionReport",
    "RecipeError",
    "SurrogateNotApplicableError",
    "compute_recipe",
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

    eta = epsilon / (m_f + 2.0 * M_SIGMA + 2.0)  # M_f >= 0, so eta <= eps/2
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

    @cached_property
    def centers(self) -> tuple[float, ...]:
        """Centers of G's units in output order: x_0 for the f(a) unit, then
        x_2..x_{N+1}.  x_1 = a carries no unit of its own."""
        pts = self.partition.points
        return (pts[0],) + pts[2:]

    @cached_property
    def unit_coeffs(self) -> tuple[float, ...]:
        """Output weights in the order of `centers`: f(a), then coeffs."""
        return (self.coeff0,) + self.coeffs

    @cached_property
    def _kernel(self) -> tuple:
        """The one record of G's derived constants, computed once for
        `evaluate`, `validate` and `surrogate_L`: w, centers and unit
        coefficients (tuples, since the bisect and the unit loop read many
        entries per call, and each read from an array makes a new float),
        prefix sums (packed doubles, 8 bytes each against 32 for a float in
        a tuple; a reader takes one per call), tail = cmax*D, the window
        offsets POS_CUTOFF/w and NEG_CUTOFF/w, cmax, the lookahead's floor,
        the unit count (the unit loop's bound, so that no G pays a `len`
        call), the range [xlo, xhi] of x that needs no check beyond being
        in it, and s(G).

        gap is the smallest difference of consecutive centers, taken from
        the stored doubles; with e = exp(-w*gap), D = min(1, 2*e*LOOKAHEAD_SLACK)
        and q = e*LOOKAHEAD_SLACK.  The range is [-MAX, MAX] unless the
        window offsets exceed MAX/4, which takes w below about 1.7e-305; it
        is then empty, and every x goes through `evaluate`'s guard.  s(G)
        bounds |G(x_k) - Q_k| at a knot whose window leaves out unit 0 (see
        `validate`): with W = ceil(1600/(w*gap)) + 1 units at most in a
        window and gamma_n = n*2^-53/(1 - n*2^-53),

            s = (2*cmax*q/(1 - q) + gamma_{4W+8}*(max|P| + 2*W*cmax)
                 + 2^-1000) * (1 + 2^-30),

        or inf where that proof does not hold: q >= 1, an empty range, or
        terms that overflow."""
        w = self.w
        centers = self.centers
        prefix = array("d", accumulate(self.unit_coeffs))
        wg = w * min(map(sub, islice(centers, 1, None), centers))
        e = math.exp(-wg)
        q = e * LOOKAHEAD_SLACK
        # bound on every coefficient that can sit right of x in `evaluate`
        cmax = max(map(abs, self.coeffs), default=0.0)
        neg = NEG_CUTOFF / w
        xlo, xhi = (-_MAX, _MAX) if neg >= -_MAX / 4 else (math.inf, -math.inf)
        slack = math.inf
        if q < 1.0 and xlo < math.inf:
            span = math.ceil(1600.0 / wg) + 1
            n = (4 * span + 8) * 2.0**-53
            slack = (2.0 * cmax * q / (1.0 - q)
                     + n / (1.0 - n) * (max(map(abs, prefix)) + 2.0 * span * cmax)
                     + 2.0**-1000) * (1.0 + 2.0**-30)
        return (w, centers, self.unit_coeffs, prefix,
                cmax * min(1.0, 2.0 * e * LOOKAHEAD_SLACK), POS_CUTOFF / w, neg,
                cmax, LOOKAHEAD_FLOOR * max(1.0, cmax), len(centers), xlo, xhi, slack)


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


def evaluate(g: SigmoidApproximant, x: float) -> float:
    """G(x), bit-identical to the naive sum over all units in ascending
    center order.  Evaluation outside [a, b] is permitted; the certificate
    only covers the inside.  The one function that computes G at a point:
    `validate` calls it at every point it cannot skip.

    The sum runs over x's sigmoid window.  It starts at lo, the first
    center at or above fl(x - pos), pos = POS_CUTOFF/w, found by one
    bisection of the centers, and ends before the first center above
    stop = fl(x - neg), neg = NEG_CUTOFF/w: the prefix sum of the units
    left of lo, then the unit loop with its exact early exit.

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

    The loop finds the window's end itself.  It tests each center against
    stop before that unit's sigmoid, and the centers ascend, so it visits
    the units of centers[lo:hi] with hi = bisect_right(centers, stop), in
    order, and no other: the window of two bisections, with the same
    sigmoid calls and the same double.  The lookahead exit almost always
    leaves before stop (about 6 units visited against a window of about
    68 at N = 99,487), so one comparison per visited unit costs less than
    a second bisection.

    Why every t is finite.  The sigmoid kernel has no input guard, so the
    guard is here, once per call.  The centers are finite (`unif_part`) and
    0 < w < inf (`SigmoidApproximant`).  A visited center c lies between
    fl(x - pos) and fl(x - neg), each within its offset of the exact value
    since x is a double, so -2*|neg| <= x - c <= 2*pos and t = w*(x - c)
    lies in [-1494, 74] up to rounding (when ulp(x)/4 exceeds both offsets,
    only units with c == x are visited, and t = 0).  That keeps x - c
    finite while |neg| <= MAX/4, so a finite x in the kernel's range
    [xlo, xhi] needs no check.  Outside it (every x, once w is below about
    1.7e-305), x must be finite and x - c must not overflow on
    centers[lo:hi]; it is largest at lo and smallest at hi - 1, so two
    subtractions decide.  The guarded sigmoid refused such an x as well.
    """
    w, centers, coeffs, prefix, tail, pos, neg, cmax, floor, end, xlo, xhi, _ = g._kernel
    x = float(x)
    lo = bisect_left(centers, x - pos)
    stop = x - neg
    if not xlo <= x <= xhi:
        if not -_MAX <= x <= _MAX:
            raise ValueError("x must be finite")
        hi = bisect_right(centers, stop)
        if lo < hi and not (x - centers[lo] <= _MAX and x - centers[hi - 1] >= -_MAX):
            raise ValueError(f"x = {x!r} is too far from the unit centers: "
                             "x - c overflows for a unit in the sigmoid window")
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


def _walk_points(
    grid: Iterator[float], points: tuple[float, ...], a: float
) -> Iterator[tuple[float, int, bool]]:
    """Merge the ascending grid of [a, b] with the partition points above
    a, x_0 left out, through one pointer k.  Before each grid point x,
    yield (x_k, k - 1, True) for each point x_k below x: a knot and its
    unit u = k - 1.  Pass over a point equal to x, then yield
    (x, k - 2, False) with k the first point above x: v = k - 2 is the
    grid skip's unit (see `validate`).  The grid ends at b, so every point
    below b comes out as a knot and no point at or above b does."""
    k = bisect_right(points, a, 1)
    n = len(points)
    p = points[k] if k < n else math.inf
    for x in grid:
        while p <= x:
            if p < x:
                yield p, k - 1, True
            k += 1
            p = points[k] if k < n else math.inf
        yield x, k - 2, False


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

    f is evaluated once per distinct point, except that a knot takes f
    from the build when `spec` is the very object G was built from (see
    `SigmoidApproximant.built_from`); f is then evaluated only at the
    distinct uniform-grid points.  G is evaluated once per distinct point,
    except at a point whose error provably sits below the running sup (see
    below): a knot, or, when `row` is None, a uniform-grid point.  If `row`
    is given, it is called as row(x, f(x), G(x)) for each of the grid_size
    uniform-grid points in ascending order, a repeated point included (with
    the values already computed) and the knots left out, so G is evaluated
    at every grid point for its row; the report is the same with or
    without it.

    A G that evaluates to inf or nan fails: the first point where |G - f|
    is not finite gives sup_error and argmax_x, and no later point
    replaces it.

    G at a point that is not skipped is `evaluate(g, x)`, its double or its
    ValueError.  The proofs below speak of lo, the start of x's window in
    `evaluate`: the first center at or above fl(x - pos), pos = POS_CUTOFF/w.
    `validate` keeps no window state: both skips read x alone.

    The knots are the partition points inside the spec's (a, b), x_0
    left out: x_0, G's a - h, is a unit center only.  One pointer k over
    the ascending points (`_walk_points`) merges them into the grid and
    gives each grid point its units (below).  It starts at the first point
    above a, searched from x_1.  Before each grid point x it hands on every
    point below x as a knot, passes over a point equal to x, which the
    grid point stands for, and stops at the first point above x.  Knot x_k
    with k >= 2 is the center of unit u = k - 1.  x_1, G's own a, has no
    unit and gets u = 0; it is a knot only when the spec's interval starts
    left of it.  A knot's f from the build is entry u of `built_from`.

    Skipping G at a knot.  At knot x_k with unit u, the unit's argument is
    t = w*(x_k - c_u) = 0 exactly and sigma(0) = 1/2 exactly.  The skip
    needs 0 < u and centers[0] < fl(x_k - pos), that is lo > 0: unit 0,
    whose coefficient f(a) is not bounded by cmax, lies left of the
    window (x_1 never passes, since there u = 0).  c_u = x_k is at or above
    fl(x_k - pos), so lo <= u as well, and the computed G(x_k) is the fold
    of P[lo-1], then c_j*s_j for the window's units j = lo..u-1, then
    fl(c_u/2), then the units right of x_k that the loop visits, where P
    is G's prefix sums and c its unit coefficients.  Its closed form is
    Q_k = fl(P[u-1] + fl(c_u/2)): P[u-1] continues the same fold from
    P[lo-1] with every s_j taken as 1.  Every unit in the window has
    |c_j| <= cmax = max|coeffs|, and

        |G(x_k) - Q_k| <= 2*cmax*q/(1 - q) + R <= s(G)

    (`SigmoidApproximant._kernel` states s(G)), with eps = 2^-53 and:

    - The tails.  Centers ascend at least gap apart, so the m-th unit on
      either side has |t| >= m*w*gap up to rounding, and both 1 - s_j
      (left) and s_j (right) are at most e^-|t| up to rounding, since
      sigma(-t) <= e^-t for t >= 0.  With q = e^(-w*gap)*(1 + 2^-20) the
      m-th term is at most cmax*q^m: |t| <= 1600 in the window (see
      `evaluate`), so the rounding of t, of w*gap, of exp and of the
      sigmoid moves e^-|t| by a relative 1e-12 at most, far inside
      (1 + 2^-20)^m.  Each side sums to at most cmax*q/(1 - q).
    - The rounding.  A window spans at most 1568/w, so it holds at most
      W = ceil(1600/(w*gap)) + 1 units, and E = max|P| + 2*W*cmax bounds
      every partial sum below.  The fold in G rounds at most W additions,
      each by at most eps*E; P[u-1] continues its fold from P[lo-1] with at
      most W additions, each rounded by eps times a prefix sum; Q_k adds
      one more.  A computed sigmoid lies within 3 eps of the exact one at
      its computed t, so a tail unit's product c_j*s_j, and a left one's
      1 - s_j, add at most 4 eps*cmax: 2 eps*E over the whole window.  That
      is (2W + 3)*eps*E in all, below gamma_{4W+8}*E, where gamma_n =
      n*eps/(1 - n*eps); the margin leaves room for the grid points' one
      addition more (below) and for the roundings each partial sum
      carries.  A sigmoid or a product near underflow adds an absolute
      2^-1074 besides (times cmax for the sigmoid), which the same term and
      2^-1000 cover.
    - s(G) is computed with about ten roundings of positive terms, which
      its factor 1 + 2^-30 covers.

    So a knot is skipped when fl(|Q_k - f(x_k)|) < cut, where
    cut = fl(fl(sup*(1 - 2^-50)) - s(G)) is set whenever sup changes.  Then
    the |G - f| validate would have computed is strictly below sup: cut > 0
    gives sup > s(G) >= 2^-1000, so the product is normal and
    fl(sup*(1 - 2^-50)) <= sup*(1 - 7 eps); with y = |Q_k - f(x_k)|,
    y*(1 - eps) <= fl(y) < (fl(sup*(1 - 2^-50)) - s(G))*(1 + eps), and
    fl(|G - f|) <= (y + s(G))*(1 + eps) < sup*(1 + eps)^2*(1 - 7 eps)
    /(1 - eps) < sup.  A skipped point can neither become the sup nor tie
    it, and the sup only grows, so the report is bit for bit that of
    evaluating G there.  cut is negative until the first point, nan once
    sup is nan and inf once sup is inf, when no later point changes the
    report.  Where the proof does not hold, s(G) = inf and cut is never
    above any error, so every knot is evaluated as before:
    - q >= 1, as with a small hand-built slope or repeated centers;
    - w below about 1.7e-305, where the kernel's range is empty and
      `evaluate` checks every x and may refuse it, while the proof takes
      G(x_k) to be computed;
    - the terms of s(G) overflow, as when the prefix sums do.
    With the paper's slope, w*gap is about ln(N - 1), so q is about
    1/(N - 1) and s(G) is about 2*cmax/N: on the benchmark's large-n
    network (N = 99,487) it is 1.4e-9, against a sup of 4.83e-5.

    Skipping G at a grid point.  Without `row`, a uniform-grid point x
    takes the same test with the proof's two-unit surrogate in place of
    Q_k.  With v the last unit whose center is at or below x, so that
    c_v <= x < c_{v+1} (x_1, G's a, is no center: on [x_1, x_2) v = 0),
    and s_j the computed sigma(w*(x - c_j)),

        G~(x) = fl(fl(P[v-1] + fl(c_v*s_v)) + fl(c_{v+1}*s_{v+1})),

    the sum `surrogate_L(g, v + 1, x)` takes, on the same doubles.  v
    comes from the pointer that merges the knots, which stops at x_k, the
    first point above x.  For k >= 2, x_k = c_{k-1} is the first center
    above x, and c_{k-2} (x_{k-1}, or x_0 when k = 2) is at or below it,
    so v = k - 2.  k = 1, a grid point left of G's a, gives v = -1, where
    the test below fails, as it would for the true v <= 0, since it needs
    v > 0.  k never moves left, so the one walk costs O(N + points)
    comparisons in all, knots and units together.  G is skipped when
    0 < v < end - 1 (unit v + 1 exists: at x = b = x_{N+1} it does not),
    centers[0] < fl(x - pos), as at a knot, and fl(|G~(x) - f(x)|) < cut.
    c_{v+1} > x >= fl(x - pos), so lo <= v + 1, and |G(x) - G~(x)| <= s(G)
    holds as at a knot in both cases:

    - lo <= v.  Unit v is in the window (c_v <= x <= fl(x - neg)), and so
      is v + 1 unless its center lies past the window's end.  G's fold
      then adds the same two doubles fl(c_j*s_j), from the same t and the
      same sigmoid, and they cancel in the difference.  Past the end, t is
      below about -745, so s_{v+1} is 0 or subnormal: the underflow term.
    - lo = v + 1.  Then c_v < fl(x - pos), so s_v is exactly 1.0, the fact
      `evaluate`'s prefix read relies on, and G~'s fl(P[v-1] + c_v) is
      P[v], where G's fold starts.  Both then add fl(c_{v+1}*s_{v+1}), or
      G does not and s_{v+1} underflows, so |G - G~| is at most the right
      tail and the rounding of G's later additions, within the bounds
      below.  With the paper's slope, pos = 37h/ln(N - 1) >= h, so this
      case never arises on a network the recipe builds.
    - The tails.  On the left x - c_j >= c_v - c_j >= (v - j)*gap, on the
      right c_j - x > c_j - c_{v+1} >= (j - v - 1)*gap, so the m-th unit
      on either side again has |t| >= m*w*gap, and each side sums to at
      most cmax*q/(1 - q).  lo > 0 keeps unit 0 out of the window.
    - The rounding.  G~ rounds one addition more than Q_k, by at most
      eps*E, and its products are G's own: (2W + 4)*eps*E in all, still
      below gamma_{4W+8}*E, so s(G) needs no widening.

    The cut argument above then holds with y = |G~(x) - f(x)|.  Where
    s(G) = inf the test never passes, and G~ raises nothing on the way:
    an x - c that overflows gives t = +-inf, whose sigmoid is 1.0 or 0.0.
    With `row` every grid point is evaluated, since its row carries G's
    own double.  The walk costs two sigmoid calls at each grid point, a
    fraction of the window's (about 6 units, see `evaluate`): on the
    benchmark's wiggly network (N = 6,924) G runs at 477 of its 76,163
    points without `row`, against 69,243 with it."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    a, b = spec.interval.a, spec.interval.b
    built = g.built_from
    known = built[1] if built is not None and built[0] is spec else None
    w, centers, coeffs, prefix, _, pos, _, _, _, end, _, _, slack = g._kernel
    first = centers[0]
    sig = sigmoid
    sup = cut = -1.0
    argmax = a
    count = 0
    prev = fx = gx = math.nan
    for x, v, knot in _walk_points(uniform_grid(a, b, grid_size), g.partition.points, a):
        # equal points arrive together, so skipping repeats visits the
        # points of sorted(set(grid + knots)) in that order
        if x != prev:
            prev = x
            count += 1
            # lo > 0: unit 0 lies left of x's window in `evaluate`
            clear = 0 < v and first < x - pos
            if knot:
                fx = spec(x) if known is None else known[v]
                if clear and abs(prefix[v - 1] + coeffs[v] * 0.5 - fx) < cut:
                    continue
            else:
                fx = spec(x)
                if row is None and clear and v < end - 1 and abs(
                    prefix[v - 1] + coeffs[v] * sig(w * (x - centers[v]))
                    + coeffs[v + 1] * sig(w * (x - centers[v + 1])) - fx
                ) < cut:
                    continue
            gx = evaluate(g, x)
            err = abs(gx - fx)
            # `not <=` is also true for nan; once sup is inf or nan it stays
            if not err <= sup and math.isfinite(sup):
                sup = err
                argmax = x
                cut = sup * (1.0 - 2.0**-50) - slack
        if not knot and row is not None:
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
    # the left-to-right fold of unit coefficients 0..i-2; coeffs[k - 2] is
    # x_k's.  x and both centers lie in one cell of finite points, so
    # x - c is finite, and w * (x - c) overflows only far beyond the
    # cutoffs, where the kernel's 1.0 and 0.0 are exact
    acc = g._kernel[3][i - 2]
    acc += g.coeffs[i - 2] * sigmoid(g.w * (x - pts[i]))
    acc += g.coeffs[i - 1] * sigmoid(g.w * (x - pts[i + 1]))
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
