import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from sigapprox.engine import (
    DEFAULT_N_CAP,
    Recipe,
    RecipeError,
    SigmoidApproximant,
    SurrogateNotApplicableError,
    build_approximant,
    compute_eta,
    compute_recipe,
    error_decomposition,
    evaluate,
    surrogate_L,
    validate,
)
from sigapprox.expressions import EvalDomainError, FunctionSpec
from sigapprox.partition import select_index
from sigapprox.sigmoid import sigmoid

from oracles import (
    exact_recipe_n,
    leftmost_sup,
    reference_G,
    reference_validation_grid,
)

WIGGLY = "abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)"
WIGGLY_L = 1.0 + 1.8 * math.pi + 0.2

# Analytically true Lipschitz constants and sup bounds on [0, 1].  The
# constant function gets L = 1: its true modulus is 0, but the recipe
# requires a positive L and any upper bound is valid.
SUITE = [
    ("x", 1.0, 1.0),
    ("x^2", 2.0, 1.0),
    ("abs(x-0.3)", 1.0, 0.7),
    ("sin(6*pi*x)", 6.0 * math.pi, 1.0),
    ("3", 1.0, 3.0),
    (WIGGLY, WIGGLY_L, 1.05),
]


def make_spec(text, lipschitz, sup):
    return FunctionSpec.from_text(text, 0, 1, lipschitz=lipschitz, sup_bound=sup)


def manual_recipe(a, b, n, w=None, eta=0.01, m_f=1.0, m_sigma=1.0):
    h = (b - a) / n
    if w is None:
        w = math.log(n - 1.0) / h
    return Recipe(
        epsilon=eta * (m_f + 2 * m_sigma + 2),
        m_f=m_f,
        m_sigma=m_sigma,
        eta=eta,
        delta=eta,
        n=n,
        h=h,
        w=w,
        a=a,
        b=b,
        lipschitz=1.0,
        n_candidates=(3.0, float(n), 1.0 / eta),
    )


def test_compute_eta_values():
    assert compute_eta(0.01, 1.05, 1.0) == pytest.approx(0.01 / 5.05, rel=1e-15)
    assert compute_eta(1.0, 0.0, 0.0) == 0.5
    assert compute_eta(0.1, 2.0, 1.0) == pytest.approx(0.1 / 6.0, rel=1e-15)
    with pytest.raises(RecipeError):
        compute_eta(0.0, 1.0, 1.0)


def test_recipe_identity_hand_arithmetic():
    spec = make_spec("x", 1.0, 1.0)
    r = compute_recipe(spec, 0.2)
    assert r.eta == pytest.approx(0.04, rel=1e-15)
    assert r.delta == pytest.approx(0.04, rel=1e-15)
    # the double 0.2 is just above 1/5, so eta and delta are just above
    # 1/25, 2(b-a)/delta is just below 50 and the exact floor gives 50
    assert r.n == 50
    assert r.h == 1.0 / 50.0
    assert r.w == pytest.approx(50.0 * math.log(49.0), rel=1e-12)
    assert r.m_f_source == "supplied"
    assert r.lipschitz_source == "supplied"


def test_recipe_wiggly():
    spec = make_spec(WIGGLY, WIGGLY_L, 1.05)
    r = compute_recipe(spec, 0.01)
    assert r.eta == pytest.approx(1.9802e-3, rel=1e-4)
    assert r.delta == pytest.approx(2.889e-4, rel=1e-3)
    assert 6921 <= r.n <= 6927
    assert r.w == pytest.approx(math.log(r.n - 1.0) * r.n, rel=1e-6)


def test_recipe_records_candidates():
    spec = make_spec("x", 1.0, 1.0)
    r = compute_recipe(spec, 0.2)
    eta = Fraction(0.2) / 5
    assert r.n_candidates == (3, 2 / eta, 1 / eta)
    assert all(type(c) is Fraction for c in r.n_candidates)
    assert r.n == math.floor(max(r.n_candidates)) + 1
    assert max(r.n_candidates) < 50 == r.n


def test_recipe_floor_is_exact_at_integer_boundary():
    # the candidate 2(b-a)/delta is 62307 + 7.5e-13, which rounds to
    # 62307.0 in doubles; flooring that gave N = 62307, not above it
    spec = FunctionSpec.from_text(
        "x", -0.5624576209573853, 0.4375423790426147,
        lipschitz=1.0, sup_bound=0.2200099103722164,
    )
    r = compute_recipe(spec, 0.00013545861332987357)
    assert r.n == 62308
    assert 62307 < max(r.n_candidates) < 62307 + Fraction(1, 10**12)


def _nudge(x, ulps):
    toward = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


@given(
    a=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-3, max_value=1e3),
    m_f=st.floats(min_value=0.0, max_value=1e3),
    lipschitz=st.floats(min_value=1e-3, max_value=1e3),
    k=st.integers(min_value=4, max_value=10**6),
    ulps=st.integers(min_value=-4, max_value=4),
    binding=st.sampled_from(["L", "override", "eta"]),
)
def test_recipe_n_is_exact_floor_near_integers(a, width, m_f, lipschitz, k, ulps, binding):
    # inputs a few ulps from making the binding candidate the integer k
    b = a + width
    assume(a < b)
    delta = None
    if binding == "L":
        eps = _nudge(2.0 * (b - a) * lipschitz * (m_f + 4.0) / k, ulps)
    elif binding == "override":
        eps = 2.0 * (m_f + 4.0) / k
        delta = _nudge(2.0 * (b - a) / k, ulps)
        lipschitz = None
    else:
        eps = _nudge((m_f + 4.0) / k, ulps)
        lipschitz = min(lipschitz, 0.25 / (b - a))
    want = exact_recipe_n(a, b, eps, m_f, 1.0, lipschitz=lipschitz, modulus_override=delta)
    assume(want <= DEFAULT_N_CAP)
    spec = FunctionSpec.from_text(
        "x", a, b, lipschitz=lipschitz, sup_bound=m_f, modulus_override=delta
    )
    r = compute_recipe(spec, eps)
    assert r.n == want
    eta = Fraction(eps) / (Fraction(m_f) + 4)
    q_delta = Fraction(delta) if delta is not None else eta / Fraction(lipschitz)
    exact = (Fraction(3), 2 * (Fraction(b) - Fraction(a)) / q_delta, 1 / eta)
    assert r.n_candidates == exact
    assert all(r.n > c for c in exact)
    assert r.n - 1 <= max(exact)


@pytest.mark.parametrize("estimator", ["estimate_sup", "estimate_lipschitz"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_recipe_non_finite_estimate_raises(monkeypatch, estimator, value):
    monkeypatch.setattr(f"sigapprox.engine.{estimator}", lambda spec: value)
    spec = FunctionSpec.from_text("x", 0, 1)
    with pytest.raises(RecipeError, match="is not finite"):
        compute_recipe(spec, 0.1)


def test_recipe_too_wide_interval_raises():
    # delta = 1e308 keeps N small while b - a overflows to inf, so h = inf
    spec = FunctionSpec.from_text("x", -1e308, 1e308, sup_bound=1.0,
                                  modulus_override=1e308)
    with pytest.raises(RecipeError, match="too wide"):
        compute_recipe(spec, 0.2)


def test_recipe_cap_message_stays_short_for_huge_n():
    # 2(b-a)/delta is about 1e309: N is printed to four digits, not 310
    spec = make_spec("x", 1.0, 1e308)
    with pytest.raises(RecipeError, match=r"N = 1\.000e\+309 exceeds") as info:
        compute_recipe(spec, 0.2)
    assert len(str(info.value)) < 100


def test_recipe_rejects_bad_inputs():
    spec = make_spec("x", 1.0, 1.0)
    with pytest.raises(RecipeError):
        compute_recipe(spec, 0.0)
    with pytest.raises(RecipeError):
        compute_recipe(spec, -0.1)
    for eps in (math.inf, math.nan):
        with pytest.raises(RecipeError):
            compute_recipe(spec, eps)


def test_recipe_cap_reports_required_n():
    spec = make_spec("x", 1.0, 1.0)
    with pytest.raises(RecipeError, match=r"N = \d+"):
        compute_recipe(spec, 1e-9)


@pytest.mark.parametrize(
    "a,b,sup,match",
    [
        (0.0, 1.0, 1e308, "exceeds the cap"),      # 1/eta overflows
        (-1e308, 1e308, 1.0, "exceeds the cap"),   # b - a overflows
        (0.0, 1.0, 1e300, "exceeds the cap"),      # huge but finite N
        (0.0, 5e-324, 1.0, "too narrow"),          # h underflows to 0
        (0.0, 1e-320, 1.0, "too narrow"),          # w overflows
    ],
)
def test_recipe_extreme_inputs_raise_recipe_error(a, b, sup, match):
    spec = FunctionSpec.from_text("x", a, b, lipschitz=1.0, sup_bound=sup)
    with pytest.raises(RecipeError, match=match):
        compute_recipe(spec, 0.2)


def test_decomposition_at_right_endpoint_n1919():
    # N = 1919 on [0, 1]: a + N*h is 0.9999999999999999, so x = b lies in a
    # cell only because x_{N+1} is b itself
    spec = make_spec("sin(6*pi*x)", 6.0 * math.pi, 1.0)
    r = manual_recipe(0.0, 1.0, 1919)
    g = build_approximant(spec, r)
    assert g.partition.points[-1] == 1.0
    assert error_decomposition(g, spec, r, 1.0).index_i == 1919


def test_recipe_modulus_override():
    spec = FunctionSpec.from_text("x", 0, 1, sup_bound=1.0, modulus_override=0.04)
    r = compute_recipe(spec, 0.2)
    assert r.delta == 0.04
    assert r.lipschitz is None
    assert r.lipschitz_source == "override"
    # the double 0.04 is just above 1/25, so 2(b-a)/delta is just below 50
    assert r.n == 50


def test_exact_recipe_n_matches_double_path():
    spec = make_spec(WIGGLY, WIGGLY_L, 1.05)
    r = compute_recipe(spec, 0.01)
    assert exact_recipe_n(
        0, 1, Fraction(1, 100), Fraction(21, 20), 1, lipschitz=WIGGLY_L
    ) == r.n


def test_build_identity_coefficients():
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    assert g.coeff0 == 0.0
    assert g.coeffs == (0.25, 0.25, 0.25, 0.25)
    assert g.unit_count == 5


def test_build_constant_coefficients():
    spec = make_spec("3", 1.0, 3.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    assert g.coeff0 == 3.0
    assert g.coeffs == (0.0, 0.0, 0.0, 0.0)


def test_build_square_coefficients():
    spec = make_spec("x^2", 2.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    assert g.coeffs == (0.0625, 0.1875, 0.3125, 0.4375)


def test_build_rejects_non_finite_f():
    spec = FunctionSpec.from_text("1/(x - 0.5)", 0, 1, lipschitz=1.0, sup_bound=1.0)
    with pytest.raises(EvalDomainError):
        build_approximant(spec, manual_recipe(0.0, 1.0, 4))


def test_telescoping():
    for text, lipschitz, sup in SUITE:
        spec = make_spec(text, lipschitz, sup)
        r = compute_recipe(spec, 0.2)
        g = build_approximant(spec, r)
        total = g.coeff0
        for c in g.coeffs:
            total += c
        fb = spec(1.0)
        assert abs(total - fb) <= r.n * 4 * math.ulp(max(1.0, abs(fb)))


def test_evaluate_constant_near_left_endpoint():
    spec = make_spec("3", 1.0, 3.0)
    r = compute_recipe(spec, 0.5)
    g = build_approximant(spec, r)
    v = evaluate(g, 0.0)
    assert abs(v - 3.0) <= 3.0 * (1.0 / r.n) + 1e-12


def test_evaluate_identity_midpoint():
    spec = make_spec("x", 1.0, 1.0)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    assert abs(evaluate(g, 0.5) - 0.5) < 0.2


def test_evaluate_far_right_telescopes_to_f_b():
    spec = make_spec("x^2", 2.0, 1.0)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    total = g.coeff0
    for c in g.coeffs:
        total += c
    assert evaluate(g, 1.0 + 1.0) == pytest.approx(total, abs=1e-12)


def test_evaluate_rejects_non_finite_x():
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        evaluate(g, math.inf)


def _bits(v):
    return v.hex()


def _crossing(g, lo, hi, level):
    """x in [lo, hi] where G passes `level`, by bisection on the evaluator
    (G is increasing in the cases used here)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if evaluate(g, mid) < level:
            lo = mid
        else:
            hi = mid
    return lo


def _around(x, steps=40):
    """x, its float neighbours and a few nearby points."""
    out = [x]
    up = down = x
    for _ in range(steps):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out += [up, down]
    out += [x + d for d in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)]
    return out


def test_fast_path_bit_identical():
    rng = random.Random(42)
    for text, lipschitz, sup, eps in [
        ("sin(6*pi*x)", 6.0 * math.pi, 1.0, 0.5),
        ("x", 1.0, 1.0, 0.2),
    ]:
        spec = make_spec(text, lipschitz, sup)
        r = compute_recipe(spec, eps)
        assert r.n <= 1000
        g = build_approximant(spec, r)
        for _ in range(10_000):
            x = rng.uniform(-0.5, 1.5)
            assert _bits(evaluate(g, x)) == _bits(reference_G(g, x))

    # inputs that stress the early exit from the sigmoid window
    cases = []
    # G crosses 0, so the running sum is tiny or exactly 0 near the root
    g = build_approximant(make_spec("x - 0.5", 1.0, 0.5), manual_recipe(0, 1, 300))
    cases.append((g, _around(_crossing(g, 0.3, 0.7, 0.0))))
    g = build_approximant(make_spec("0", 1.0, 0.0), manual_recipe(0, 1, 200))
    cases.append((g, [rng.uniform(-0.2, 1.2) for _ in range(200)]))
    # constant f: every forward difference is 0, so cmax = 0
    g = build_approximant(make_spec("3", 1.0, 3.0), manual_recipe(0, 1, 200))
    assert g._cmax == 0.0
    cases.append((g, [rng.uniform(-0.2, 1.2) for _ in range(500)]))
    # abs kink: the largest coefficients lie right of every x < 0.5
    g = build_approximant(make_spec("x + 3*abs(x-0.5)", 4.0, 1.5),
                          manual_recipe(0, 1, 300))
    assert max(map(abs, g.coeffs[:140])) < g._cmax
    cases.append((g, [rng.uniform(0.3, 0.5) for _ in range(1000)]))
    # G near the powers of two 1 and 2, approached from both sides
    g = build_approximant(make_spec("x + 1", 1.0, 2.0), manual_recipe(0, 1, 300))
    near = _around(_crossing(g, 0.0, 0.1, 1.0)) + _around(_crossing(g, 0.9, 1.0, 2.0))
    cases.append((g, near + [rng.uniform(-0.02, 0.02) for _ in range(300)]
                  + [rng.uniform(0.98, 1.02) for _ in range(300)]))
    # x outside [a, b], near and far
    cases.append((g, [-1e6, -10.0, -0.5, -0.01, 1.01, 1.5, 10.0, 1e6]))
    # coefficients spread over ~25 binades with random signs
    g = build_approximant(make_spec("x", 1.0, 1.0), manual_recipe(0, 1, 300))
    coeffs = tuple(rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-80, 5)
                   for _ in g.coeffs)
    g = SigmoidApproximant(w=g.w, partition=g.partition, coeff0=1.0, coeffs=coeffs)
    cases.append((g, [rng.uniform(-0.1, 1.1) for _ in range(2000)]))
    # slowly decaying sigmoids (w*h = 0.02) and forward differences within a
    # few binades of ulp(G): tail products sit near the rounding threshold,
    # where a smaller margin than ulp/8 changes the result
    p = g.partition
    for _ in range(20):
        coeffs = tuple(rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-58, -48)
                       for _ in p.points[2:])
        g = SigmoidApproximant(w=0.02 / p.h, partition=p,
                               coeff0=rng.choice((0.5, 1.0, 2.0)), coeffs=coeffs)
        cases.append((g, [rng.uniform(-0.1, 1.1) for _ in range(100)]))
    for g, xs in cases:
        for x in xs:
            assert _bits(evaluate(g, x)) == _bits(reference_G(g, x)), x


def test_validate_zero_function():
    spec = make_spec("0", 1.0, 0.0)
    r = compute_recipe(spec, 0.1)
    g = build_approximant(spec, r)
    rep = validate(g, spec, 0.1, 501)
    assert rep.sup_error == 0.0
    assert rep.passed


def test_validate_identity_passes():
    spec = make_spec("x", 1.0, 1.0)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    rep = validate(g, spec, 0.2, 2001)
    assert rep.passed
    assert rep.grid_size >= 2001
    assert 0.0 <= rep.argmax_x <= 1.0


def test_validate_grid_flags():
    spec = make_spec("x", 1.0, 1.0)
    # eps 0.198 gives N = floor(10/0.198) + 1 = 51; at eps 0.2 the exact
    # floor gives N = 50, whose knots 2j/100 would all land on the grid
    r = compute_recipe(spec, 0.198)
    g = build_approximant(spec, r)
    rep = validate(g, spec, 0.2, 101)
    # N = 51: the 50 knots inside (0, 1) sit near k/51, away from the grid j/100
    assert r.n == 51
    assert rep.grid_size == 151
    assert rep.grid_size == len(reference_validation_grid(0.0, 1.0, 101, g.partition.points))
    with pytest.raises(ValueError):
        validate(g, spec, 0.2, 1)


GRID_SIZES = {
    "N+1": lambda n: n + 1,
    "2N+1": lambda n: 2 * n + 1,
    "cli-default": lambda n: max(10_001, 10 * n),
}


@pytest.mark.parametrize("grid", sorted(GRID_SIZES))
@pytest.mark.parametrize(
    "text,a,b,lipschitz,sup",
    [("sin(6*pi*x)", 0.0, 1.0, 6.0 * math.pi, 1.0), ("x", -2.0, 3.0, 1.0, 3.0)],
)
def test_validate_matches_reference_grid(text, a, b, lipschitz, sup, grid):
    spec = FunctionSpec.from_text(text, a, b, lipschitz=lipschitz, sup_bound=sup)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    size = GRID_SIZES[grid](r.n)
    xs = reference_validation_grid(a, b, size, g.partition.points)
    knots_inside = r.n - 1
    if grid != "cli-default":
        # many knots land exactly on grid points, so de-duplication matters
        assert len(xs) < size + knots_inside
    sup_error, argmax = leftmost_sup(lambda x: abs(evaluate(g, x) - spec(x)), xs)
    rep = validate(g, spec, 0.2, size)
    assert rep.grid_size == len(xs)
    assert rep.sup_error == sup_error
    assert rep.argmax_x == argmax


def test_validate_single_cell_two_point_grid():
    spec = make_spec("x^2", 2.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 1, w=5.0))
    xs = reference_validation_grid(0.0, 1.0, 2, g.partition.points)
    assert xs == [0.0, 1.0]
    sup_error, argmax = leftmost_sup(lambda x: abs(evaluate(g, x) - spec(x)), xs)
    rep = validate(g, spec, 1.0, 2)
    assert (rep.grid_size, rep.sup_error, rep.argmax_x) == (2, sup_error, argmax)


def test_validate_reports_leftmost_tie():
    # G == f == 0 everywhere, so every point ties and the first one wins
    spec = make_spec("0", 1.0, 0.0)
    g = build_approximant(spec, compute_recipe(spec, 0.1))
    rep = validate(g, spec, 0.1, 11)
    assert (rep.sup_error, rep.argmax_x) == (0.0, 0.0)


def test_surrogate_constant():
    spec = make_spec("3", 1.0, 3.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 10))
    pts = g.partition.points
    for i in (3, 5, 10):
        x = 0.5 * (pts[i] + pts[i + 1])
        assert surrogate_L(g, i, x) == pytest.approx(3.0, rel=1e-15)


def test_surrogate_identity_at_knot():
    spec = make_spec("x", 1.0, 1.0)
    r = manual_recipe(0.0, 1.0, 10, w=1e6)
    g = build_approximant(spec, r)
    pts = g.partition.points
    h = g.partition.h
    x = pts[5]
    # x4 + h*sigma(0) + h*sigma(-w*h); the last term is negligible at huge w
    expected = pts[4] + h * 0.5 + h * sigmoid(-r.w * h)
    assert surrogate_L(g, 5, x) == pytest.approx(expected, rel=1e-12)
    assert surrogate_L(g, 5, x) == pytest.approx(pts[4] + h / 2.0, rel=1e-9)


def test_surrogate_direct_substitution_i3():
    spec = make_spec("x^2", 2.0, 1.0)
    r = manual_recipe(0.0, 1.0, 10)
    g = build_approximant(spec, r)
    pts = g.partition.points
    x = pts[3]
    f = spec
    expected = (
        f(pts[1])
        + (f(pts[2]) - f(pts[1]))
        + (f(pts[3]) - f(pts[2])) * 0.5
        + (f(pts[4]) - f(pts[3])) * sigmoid(-g.w * g.partition.h)
    )
    assert surrogate_L(g, 3, x) == pytest.approx(expected, rel=1e-13)


def test_surrogate_matches_reference_fold():
    spec = make_spec(WIGGLY, WIGGLY_L, 1.05)
    r = compute_recipe(spec, 0.05)
    assert r.n >= 1000
    g = build_approximant(spec, r)
    pts = g.partition.points
    for i in (3, 4, 5, 17, r.n // 2, r.n - 1, r.n):
        x = 0.5 * (pts[i] + pts[i + 1])
        acc = g.coeff0
        for k in range(2, i):
            acc += g.coeff(k)
        acc += g.coeff(i) * sigmoid(g.w * (x - pts[i]))
        acc += g.coeff(i + 1) * sigmoid(g.w * (x - pts[i + 1]))
        assert _bits(surrogate_L(g, i, x)) == _bits(acc)


def test_surrogate_rejects_small_index():
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 10))
    with pytest.raises(SurrogateNotApplicableError):
        surrogate_L(g, 2, 0.15)
    with pytest.raises(ValueError):
        surrogate_L(g, 11, 0.95)


def test_decomposition_zero_function():
    spec = make_spec("0", 1.0, 0.0)
    r = compute_recipe(spec, 0.1)
    g = build_approximant(spec, r)
    d = error_decomposition(g, spec, r, 0.5)
    assert d.i1 == 0.0 and d.i2 == 0.0


def test_decomposition_identity_bounds():
    spec = make_spec("x", 1.0, 1.0)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    d = error_decomposition(g, spec, r, 0.5)
    assert d.i1 < d.i1_bound == (1.0 + 1.0) * r.eta
    assert d.i2 < d.i2_bound == 3.0 * r.eta


def test_decomposition_triangle_inequality():
    rng = random.Random(3)
    spec = make_spec(WIGGLY, WIGGLY_L, 1.05)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    checked = 0
    while checked < 50:
        x = rng.uniform(0.0, 1.0)
        if select_index(g.partition, x) < 3:
            continue
        d = error_decomposition(g, spec, r, x)
        gap = abs(evaluate(g, x) - spec(x))
        slack = 8 * math.ulp(max(1.0, abs(evaluate(g, x)), abs(spec(x))))
        assert gap <= d.i1 + d.i2 + slack
        assert d.i1 < d.i1_bound
        assert d.i2 < d.i2_bound
        checked += 1


def test_slope_monotonicity():
    for text, lipschitz, sup in SUITE:
        spec = make_spec(text, lipschitz, sup)
        r = compute_recipe(spec, 0.2)
        g1 = build_approximant(spec, r)
        g2 = build_approximant(
            spec,
            Recipe(
                epsilon=r.epsilon,
                m_f=r.m_f,
                m_sigma=r.m_sigma,
                eta=r.eta,
                delta=r.delta,
                n=r.n,
                h=r.h,
                w=2.0 * r.w,
                a=r.a,
                b=r.b,
                lipschitz=r.lipschitz,
                n_candidates=r.n_candidates,
            ),
        )
        s1 = validate(g1, spec, 0.2, 801).sup_error
        s2 = validate(g2, spec, 0.2, 801).sup_error
        assert s2 <= s1 + 2.0 * r.eta


def test_certificate_suite_small():
    for text, lipschitz, sup in SUITE:
        spec = make_spec(text, lipschitz, sup)
        r = compute_recipe(spec, 0.2)
        g = build_approximant(spec, r)
        rep = validate(g, spec, 0.2, 2001)
        assert rep.passed, (text, rep)


def test_overestimated_bounds_still_certify():
    spec = FunctionSpec.from_text("x", 0, 1, lipschitz=2.0, sup_bound=2.0)
    r = compute_recipe(spec, 0.2)
    g = build_approximant(spec, r)
    assert validate(g, spec, 0.2, 2001).passed
