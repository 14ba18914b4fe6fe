import dataclasses
import math
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sigapprox import engine
from sigapprox.engine import (
    DEFAULT_N_CAP,
    NEG_CUTOFF,
    POS_CUTOFF,
    Recipe,
    RecipeError,
    SigmoidApproximant,
    SurrogateNotApplicableError,
    build_approximant,
    compute_recipe,
    error_decomposition,
    evaluate,
    surrogate_L,
    validate,
)
from sigapprox.expressions import EvalDomainError, FunctionSpec
from sigapprox.partition import UniformPartition, select_index, unif_part
from sigapprox.sigmoid import finite_sigmoid, sigmoid

from oracles import (
    exact_recipe_n,
    leftmost_sup,
    reference_G,
    reference_uniform_grid,
    reference_validate,
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


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_epsilon_must_be_positive_and_finite(eps):
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, compute_recipe(spec, 0.2))
    message = "^epsilon must be positive and finite$"
    with pytest.raises(RecipeError, match=message):
        compute_recipe(spec, eps)
    with pytest.raises(ValueError, match=message):
        validate(g, spec, eps, 11)


def test_only_the_build_sets_built_from():
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, compute_recipe(spec, 0.2))
    assert g.built_from[0] is spec
    params = [f.name for f in dataclasses.fields(SigmoidApproximant) if f.init]
    assert params == ["w", "partition", "coeff0", "coeffs"]
    # forged f values at every knot would make validate measure |G - forged|
    forged = (spec, array("d", [0.0] * g.unit_count))
    with pytest.raises(TypeError):
        SigmoidApproximant(w=g.w, partition=g.partition, coeff0=g.coeff0,
                           coeffs=g.coeffs, built_from=forged)
    # replace refuses the init=False field: ValueError up to 3.12,
    # TypeError from 3.13
    with pytest.raises((ValueError, TypeError)):
        dataclasses.replace(g, built_from=forged)
    by_hand = SigmoidApproximant(w=g.w, partition=g.partition, coeff0=g.coeff0, coeffs=g.coeffs)
    assert by_hand.built_from is None and dataclasses.replace(g).built_from is None
    assert validate(by_hand, spec, 0.2, 11) == validate(g, spec, 0.2, 11)


@pytest.mark.parametrize("text", ["1", "0*x"])
def test_constant_f_with_estimated_bounds_takes_delta_b_minus_a(text):
    # 0.7 - 0.1 is a rounded double: the candidate must still be exactly 2
    spec = FunctionSpec.from_text(text, 0.1, 0.7)
    r = compute_recipe(spec, 0.5)
    assert (r.lipschitz, r.lipschitz_source) == (0.0, "estimated")
    assert r.delta == 0.7 - 0.1
    q_eta = Fraction(0.5) / (Fraction(r.m_f) + 2 * Fraction(r.m_sigma) + 2)
    assert r.n_candidates == (Fraction(3), Fraction(2), 1 / q_eta)
    assert r.n == math.floor(1 / q_eta) + 1 == (11 if text == "1" else 9)


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


def test_build_rejects_an_overflowing_forward_difference():
    # f is finite everywhere, but f(x_2) - f(x_1) = -1e308 - 1e308 is not
    spec = FunctionSpec.from_text("1e308*cos(4*pi*x)", 0, 1, lipschitz=1.0, sup_bound=1.0)
    with pytest.raises(RecipeError, match=r"^unit 1 has output_coefficient -inf "
                       r"at x_2 = 0\.25, which is not finite$"):
        build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    # the first bad k is named, not the first k
    spec = FunctionSpec.from_text("1.3e308*cos(8*pi*x)*sqrt(abs(x))", 0, 1,
                                  lipschitz=1.0, sup_bound=1.0)
    with pytest.raises(RecipeError, match=r"^unit 5 has output_coefficient -inf at x_6 = 0\.625, "):
        build_approximant(spec, manual_recipe(0.0, 1.0, 8))


def test_build_set_up_folds_match_the_loops_they_replace():
    spec = make_spec("sin(2*pi*x) + 0.5*x + 1e-3*abs(x-0.3)", 2 * math.pi + 0.6, 1.6)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 20_000))
    values = array("d", map(spec, g.partition.points))
    coeffs = tuple(values[k] - values[k - 1] for k in range(2, 20_002))
    assert [c.hex() for c in g.coeffs] == [c.hex() for c in coeffs]
    prefix = []
    acc = 0.0
    for c in g.unit_coeffs:
        acc += c
        prefix.append(acc)
    assert [v.hex() for v in g._kernel[3]] == [v.hex() for v in prefix]


def test_g_holds_at_most_104_bytes_per_unit():
    # the prefix sums are packed doubles, 8 bytes a unit: G takes about 96
    # bytes a unit here, and took 120 with the prefix a tuple of floats
    spec = FunctionSpec.from_text("x", 0, 1, lipschitz=1, sup_bound=1)
    recipe = compute_recipe(spec, 4e-4)
    assert recipe.n == 25_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_approximant(spec, recipe)
        evaluate(g, 0.5)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert size / g.unit_count <= 104


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
    assert _cmax(g) == 0.0
    cases.append((g, [rng.uniform(-0.2, 1.2) for _ in range(500)]))
    # abs kink: the largest coefficients lie right of every x < 0.5
    g = build_approximant(make_spec("x + 3*abs(x-0.5)", 4.0, 1.5),
                          manual_recipe(0, 1, 300))
    assert max(map(abs, g.coeffs[:140])) < _cmax(g)
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
    cases += _lookahead_cases(rng)
    for g, xs in cases:
        for x in xs:
            assert _bits(evaluate(g, x)) == _bits(reference_G(g, x)), x


def _cmax(g):
    """max |coeffs|: the bound on every coefficient right of x in the exit
    rule of `evaluate`, from the forward differences themselves."""
    return max(map(abs, g.coeffs), default=0.0)


def _lookahead_d(g):
    """The lookahead factor D = tail / cmax of `evaluate`'s exit rule."""
    return g._kernel[4] / _cmax(g)


def _lookahead_cases(rng):
    """Networks and points where the one-unit lookahead of the exit rule
    decides: small N, the units around x_0 and x_2, next sigmoids that
    underflow, and huge coefficients against a running sum near 0."""
    cases = []
    # the paper's slope at N = 3 (w*h = ln 2, D clamped to 1) and N = 4
    # (w*h = ln 3, D just above 2/3)
    for n, d in ((3, 1.0), (4, 2.0 / 3.0)):
        g = build_approximant(make_spec("sin(6*pi*x) + x", 8 * math.pi, 2.0),
                              manual_recipe(0, 1, n))
        assert _lookahead_d(g) == pytest.approx(d, rel=1e-5)
        cases.append((g, [rng.uniform(-1.0, 2.0) for _ in range(2000)]))
    # left of x_0 the f(a) unit is the first with t < 0, and the next
    # center x_2 lies 2h further right
    g = build_approximant(make_spec("x + 3", 1.0, 4.0), manual_recipe(0, 1, 300))
    x0, x2 = g.centers[0], g.centers[1]
    assert x2 - x0 == pytest.approx(2 * g.partition.h)
    cases.append((g, [rng.uniform(x0 - 40 / g.w, x2 + 2 / g.w) for _ in range(2000)]
                  + _around(x0) + _around(x2)))
    # w*gap near and above 745: the sigmoid after the first negative one is
    # subnormal or underflows to 0, and D is tiny or 0
    p = unif_part(0.0, 1.0, 12)
    for wh in (700.0, 720.0, 740.0, 745.0, 746.0, 800.0):
        coeffs = tuple(rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-30, 30)
                       for _ in p.points[2:])
        g = SigmoidApproximant(w=wh / p.h, partition=p, coeff0=1.0, coeffs=coeffs)
        assert _lookahead_d(g) < 1e-300
        xs = [rng.uniform(-0.2, 1.2) for _ in range(300)]
        xs += [c + rng.uniform(-1.0, 1.0) / g.w for c in g.centers for _ in range(20)]
        cases.append((g, xs))
    # coefficients near 2^1000 that cancel in pairs: the running sum comes
    # near 0 while the next products are huge, below and above the floor
    # 2^-1000 * cmax where the exit falls back to the D = 1 rule
    p = unif_part(0.0, 1.0, 40)
    for wh in (math.log(39.0), 5.0, 30.0):
        big = [2.0 ** rng.uniform(990, 1000) for _ in range(20)]
        coeffs = []
        for c in big:
            coeffs += [c, -c * (1 + rng.choice((0.0, 2.0**-52, 2.0**-30)))]
        g = SigmoidApproximant(w=wh / p.h, partition=p, coeff0=-coeffs[0] / 2,
                               coeffs=tuple(coeffs))
        xs = [rng.uniform(-0.2, 1.2) for _ in range(1000)]
        xs += [c + rng.uniform(-30.0, 30.0) / g.w for c in g.centers for _ in range(25)]
        cases.append((g, xs))
    # huge coefficients right of x and O(1) ones left of it: the exit
    # comes where those units' sigmoids are subnormal, with the running
    # sum far below the floor
    p = unif_part(0.0, 1.0, 60)
    for wh in (0.8, 2.0, 5.0, 20.0, 100.0, 700.0):
        split = rng.randrange(5, 55)
        big = 2.0 ** rng.uniform(1000, 1023)
        coeffs = tuple(rng.uniform(-1.0, 1.0) * (big if j >= split else 1.0)
                       for j in range(60))
        g = SigmoidApproximant(w=wh / p.h, partition=p, coeff0=1.0, coeffs=coeffs)
        xs = [g.centers[rng.randrange(split + 1, 61)] - rng.uniform(700, 750) / g.w
              for _ in range(300)]
        cases.append((g, xs))
    return cases


def _window_rule_calls(g, x, d=1.0, cmax=None):
    """(G(x), sigmoid calls) under `evaluate`'s window and exit rule with
    the lookahead factor d: stop after a unit with t < 0 once
    cmax * d * s < ulp(acc)/8, and, while |acc| is below 2^-1000 *
    max(1, cmax), only once cmax * s < ulp(acc)/8 as well.  d = 1 is the
    rule without the lookahead.  cmax defaults to `_cmax(g)`, an O(N)
    pass that a caller at many points saves by passing it."""
    w, centers, coeffs = g.w, g.centers, g.unit_coeffs
    cmax = _cmax(g) if cmax is None else cmax
    lo = bisect_left(centers, x - POS_CUTOFF / w)
    hi = bisect_right(centers, x - NEG_CUTOFF / w)
    acc = g._kernel[3][lo - 1] if lo > 0 else 0.0
    for u in range(lo, hi):
        t = w * (x - centers[u])
        s = sigmoid(t)
        acc += coeffs[u] * s
        if t < 0.0 and cmax * d * s < math.ulp(acc) / 8:
            if abs(acc) >= 2.0**-1000 * max(1.0, cmax) or cmax * s < math.ulp(acc) / 8:
                return acc, u - lo + 1
    return acc, hi - lo


def test_lookahead_calls_fewer_sigmoids_on_the_worked_example(monkeypatch):
    # counted the way the benchmark's probe counts: by wrapping the
    # engine's `sigmoid` while `evaluate` runs.  `evaluate` calls the kernel
    # through that module-level name, so the count is the number of units
    # the window rule visits
    spec = make_spec(WIGGLY, WIGGLY_L, 1.05)
    g = build_approximant(spec, compute_recipe(spec, 0.01))
    assert g.partition.n_intervals == 6924
    gap = min(c2 - c1 for c1, c2 in zip(g.centers, g.centers[1:]))
    d = min(1.0, 2.0 * math.exp(-g.w * gap) * (1.0 + 2.0**-20))
    cmax = _cmax(g)
    rng = random.Random(5)
    xs = [rng.uniform(0.0, 1.0) for _ in range(4000)]
    calls = []
    count = [0]

    def counted(t):
        count[0] += 1
        return sigmoid(t)

    monkeypatch.setattr(engine, "sigmoid", counted)
    for x in xs:
        count[0] = 0
        gx = evaluate(g, x)
        calls.append(count[0])
        want, old_calls = _window_rule_calls(g, x, 1.0, cmax)
        assert _bits(gx) == _bits(want)
        assert count[0] == _window_rule_calls(g, x, d, cmax)[1] <= old_calls
    monkeypatch.undo()
    old_mean = sum(_window_rule_calls(g, x, 1.0, cmax)[1] for x in xs) / len(xs)
    mean = sum(calls) / len(calls)
    assert 0 < mean <= 8.2 < 8.8 <= old_mean


# intervals for the window-start networks: ordinary, four ulps wide (its
# N + 1 centers repeat five doubles) and very wide; "uneven" is [0, 1]
# with points 0.5 + 4*u^3, u = (k - 1)/N - 1/2, so that the guess from
# the mean spacing lands far left of x's window above 0.5 and far right
# of it below
_WINDOW_START_INTERVALS = {
    "ordinary": (0.0, 1.0),
    "ulps": (1.0, 1.0 + 4 * 2.0**-52),
    "wide": (-1e300, 1e300),
    "uneven": (0.0, 1.0),
}


def _window_start_network(n, kind):
    """A hand-built network of n intervals at the paper's slope on one of
    `_WINDOW_START_INTERVALS`, with random forward differences."""
    rng = random.Random(n)
    p = unif_part(*_WINDOW_START_INTERVALS[kind], n)
    if kind == "uneven":
        points = tuple(0.5 + 4.0 * ((k - 1) / n - 0.5) ** 3 for k in range(n + 2))
        p = UniformPartition(a=0.0, b=1.0, n_intervals=n, points=points[:-1] + (1.0,))
    return SigmoidApproximant(w=math.log(n - 1) / p.h, partition=p, coeff0=0.5,
                              coeffs=tuple(rng.uniform(-1.0, 1.0) / n for _ in range(n)))


def _window_start_points(g, rng):
    """Distinct points where `evaluate`'s window start is hard to get
    right: every 97th center and the 40 at each end, 0 to 3 ulps either
    side, as they are and shifted by pos, so that fl(x - pos) falls on or
    next to a center; random points of [a, b]; and points beyond
    x_0 - 747/w and b + 37/w."""
    w, centers, p = g.w, g.centers, g.partition
    pos = POS_CUTOFF / w
    xs = []
    for c in set(centers[::97] + centers[:40] + centers[-40:]):
        xs += _around(c, steps=3)[:7] + _around(c + pos, steps=3)[:7]
    xs += [rng.uniform(p.a, p.b) for _ in range(2000)]
    xs += [centers[0] + k * NEG_CUTOFF / w for k in (1.0, 1.5, 4.0)]
    xs += [p.b + k * pos for k in (1.0, 1.5, 4.0)]
    return sorted(set(xs))


@pytest.mark.parametrize("kind", sorted(_WINDOW_START_INTERVALS))
@pytest.mark.parametrize("above", [False, True])
def test_evaluate_starts_the_window_where_bisect_left_does(above, kind, monkeypatch):
    # N just below N_ARITH bisects, N = N_ARITH guesses; either way the
    # result's bits and the sigmoid calls, counted by wrapping the engine's
    # `sigmoid`, are those of the window from two bisections
    g = _window_start_network(engine.N_ARITH - 1 + above, kind)
    centers = g.centers
    r = (len(centers) - 3) / (centers[-2] - centers[1]) if above else None
    assert g._kernel[13:] == (centers[1], r, len(centers) - 3.0)
    xs = _window_start_points(g, random.Random(34))
    d, cmax = _lookahead_d(g), _cmax(g)
    count = [0]

    def counted(t):
        count[0] += 1
        return sigmoid(t)

    monkeypatch.setattr(engine, "sigmoid", counted)
    got = []
    for x in xs:
        count[0] = 0
        got.append((evaluate(g, x), count[0]))
    monkeypatch.undo()
    for x, (gx, calls) in zip(xs, got):
        want, want_calls = _window_rule_calls(g, x, d, cmax)
        assert (_bits(gx), calls) == (_bits(want), want_calls), x
    # the naive sum over all N + 1 units, at a few of the points and all
    # of those beyond the ends
    for x in xs[::max(1, len(xs) // 20)] + xs[:3] + xs[-3:]:
        assert _bits(evaluate(g, x)) == _bits(reference_G(g, x)), x


@pytest.mark.parametrize("c1, top", [(0.0, 0.0), (0.0, 5e-324), (-1e308, 1e308)])
def test_the_window_start_guess_is_off_where_r_is_not_finite(c1, top):
    # N_ARITH intervals whose centers x_1..x_{N-1} span 0, the least
    # double, or more than MAX: r would divide by 0, overflow or be 0
    n = engine.N_ARITH
    points = (-1.5e308, c1, c1) + (top,) * (n - 2) + (1.5e308,)
    p = UniformPartition(a=c1, b=1.5e308, n_intervals=n, points=points)
    g = SigmoidApproximant(w=1.0, partition=p, coeff0=0.5, coeffs=(0.25,) * n)
    assert g._kernel[13:] == (c1, None, n - 2.0)
    for x in (-2.0, 0.0, 5e-324, 0.5, 40.0, 800.0):
        assert _bits(evaluate(g, x)) == _bits(reference_G(g, x)), x


@pytest.mark.parametrize("above", [False, True])
def test_evaluate_bisects_at_few_random_points_above_n_arith(above, monkeypatch):
    g = _window_start_network(engine.N_ARITH - 1 + above, "ordinary")
    rng = random.Random(7)
    xs = [rng.uniform(0.0, 1.0) for _ in range(5000)]
    count = [0]

    def counted(*args):
        count[0] += 1
        return bisect_left(*args)

    monkeypatch.setattr(engine, "bisect_left", counted)
    for x in xs:
        evaluate(g, x)
    if above:
        assert count[0] < len(xs) / 100
    else:
        assert count[0] == len(xs)


@pytest.mark.parametrize("w", [1e-300, 1.0, 1e300])
def test_evaluate_passes_the_kernel_only_finite_arguments(w, monkeypatch):
    big = sys.float_info.max
    rng = random.Random(13)
    p = unif_part(0.0, 1.0, 8)
    g = SigmoidApproximant(w=w, partition=p, coeff0=0.5,
                           coeffs=tuple(rng.uniform(-1.0, 1.0) for _ in range(8)))
    xs = []
    for x in (big, -big, 1e308, -1e308, p.a - 747.0 / w, p.b + 37.0 / w):
        xs += [x, math.nextafter(x, math.copysign(math.inf, x))]
    xs += [y for c in g.centers for y in _around(c, steps=3)]
    xs += [rng.uniform(-2.0, 3.0) for _ in range(500)]
    seen = []

    def recorded(t):
        seen.append(t)
        return finite_sigmoid(t)

    # wrapped as the benchmark's probe wraps it
    monkeypatch.setattr(engine, "sigmoid", recorded)
    compared = 0
    for x in xs:
        if math.isinf(x):  # the next double outward from +-MAX
            with pytest.raises(ValueError, match="^x must be finite$"):
                evaluate(g, x)
            continue
        gx = evaluate(g, x)
        try:
            want = reference_G(g, x)
        except ValueError:  # w * (x - c) overflows for some unit
            continue
        assert _bits(gx) == _bits(want), x
        compared += 1
    assert seen and all(map(math.isfinite, seen))
    assert compared > 500


def test_evaluate_refuses_an_x_whose_distance_to_a_center_overflows():
    # with w = 1e-308 the sigmoid window holds every unit, and x - x_0
    # overflows at x = MAX: the guarded sigmoid raised there as well
    big = sys.float_info.max
    p = unif_part(-0.7e308, 0.7e308, 4)
    g = SigmoidApproximant(w=1e-308, partition=p, coeff0=1.0, coeffs=(1.0,) * 4)
    assert g._kernel[10:12] == (math.inf, -math.inf)
    for x in (0.0, 7e307, -7e307, p.a, p.b, -1e308):
        assert _bits(evaluate(g, x)) == _bits(reference_G(g, x))
    for x in (big, -big, 1e308, -1.1e308):
        with pytest.raises(ValueError, match="^input must be finite"):
            reference_G(g, x)
        with pytest.raises(ValueError, match="too far from the unit centers"):
            evaluate(g, x)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^x must be finite$"):
            evaluate(g, x)


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


@st.composite
def _shifted_interval(draw, p):
    """An interval for the spec that differs from G's [a, b] = [x_1, x_{N+1}]
    at one end or both: an end moves by -2h to 3h, or a lands on x_0 or
    x_2 and b on x_N.  x_0 = a - h is a unit center but never a knot, and
    x_1 = a is a knot without a unit of its own once the spec starts left
    of it."""
    def end(x, near):
        if draw(st.booleans()):
            return draw(st.sampled_from(near))
        steps = st.one_of(st.integers(-4, 6).map(lambda k: k / 2), st.floats(-2.0, 3.0))
        return x + draw(steps) * p.h

    a, b = p.a, p.b
    side = draw(st.sampled_from(["a", "b", "both"]))
    if side != "b":
        a = end(a, (p.points[0], p.points[2]))
    if side != "a":
        b = end(b, (p.points[-2],))
    assume(a < b)
    return a, b


@st.composite
def _walk_cases(draw):
    """(G, spec, grid_size) for validating against the reference that
    evaluates G at every point.  Intervals are ordinary, a few ulps wide,
    where partition and grid points repeat, or nearly as wide as the
    doubles.  G is built from f or made by hand, with slopes below about
    1.7e-305 among them, which send every point through `evaluate`'s guard.
    Apart from the widest intervals, the spec's may differ from G's (see
    `_shifted_interval`)."""
    shape = draw(st.sampled_from(["ordinary", "ulps", "small-w", "huge"]))
    if shape == "huge":
        # x - x_0 at x = b, b - a + h, overflows for some and not others
        n = draw(st.integers(3, 6))
        a, b = -draw(st.floats(0.6e308, 0.85e308)), draw(st.floats(0.6e308, 0.85e308))
        grid = draw(st.integers(2, 3))  # a larger grid's spacing overflows
    else:
        n = draw(st.integers(3, 40 if shape == "small-w" else 2000))
        a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 10.0))
        if shape == "ulps":
            b = a
            for _ in range(draw(st.integers(1, 6))):
                b = math.nextafter(b, math.inf)
        else:
            b = a + draw(st.floats(1e-3, 10.0))
        # coarser than the partition, then up to ten points a cell
        grid = draw(st.one_of(st.integers(2, n), st.integers(n, 10 * n)))
    if shape in ("ordinary", "ulps") and draw(st.booleans()):
        spec = FunctionSpec.from_text(WIGGLY, a, b, lipschitz=WIGGLY_L, sup_bound=2.0)
        g = build_approximant(spec, manual_recipe(a, b, n))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        p = unif_part(a, b, n)
        if shape == "small-w":
            w = draw(st.floats(5e-324, 1.6e-305))
        elif shape == "huge":
            w = draw(st.floats(5e-324, 2e-308))  # the window holds every unit
        else:
            w = draw(st.floats(0.1, 40.0)) / p.h
        g = SigmoidApproximant(w=w, partition=p, coeff0=rng.uniform(-1.0, 1.0),
                               coeffs=tuple(rng.uniform(-1.0, 1.0) for _ in range(n)))
        spec = FunctionSpec.from_text("x", a, b, lipschitz=1.0, sup_bound=1.0)
    if shape != "huge" and draw(st.booleans()):
        a, b = draw(_shifted_interval(g.partition))
        spec = FunctionSpec.from_text(spec.text, a, b, lipschitz=spec.lipschitz,
                                      sup_bound=spec.sup_bound)
    return g, spec, grid


def _validation(validator, g, spec, grid, with_rows=True):
    """The report's fields, or the ValueError's message, and the row
    calls (none without `with_rows`), with every float as its .hex()."""
    rows = []
    sink = lambda x, fx, gx: rows.append((x.hex(), fx.hex(), gx.hex()))  # noqa: E731
    try:
        report = validator(g, spec, 0.05, grid, row=sink if with_rows else None)
    except ValueError as exc:
        return str(exc), rows
    fields = dataclasses.astuple(report)
    return tuple(v.hex() if type(v) is float else v for v in fields), rows


def _overflowing_case():
    # x - x_0 overflows at x = b, so `evaluate`'s guard refuses b
    p = unif_part(-0.8e308, 0.8e308, 3)
    g = SigmoidApproximant(w=1e-320, partition=p, coeff0=0.5, coeffs=(0.25, -0.5, 1.0))
    return g, FunctionSpec.from_text("x", p.a, p.b, lipschitz=1.0, sup_bound=1.0), 3


def _left_of_x0_network():
    """N = 4 on [0, 1] at w*h = ln 3.  Against a spec whose interval starts
    left of x_0 = -0.25, x_0 is a unit center inside it but no knot, and
    x_1 = 0 is a knot without a unit."""
    p = unif_part(0.0, 1.0, 4)
    return SigmoidApproximant(w=math.log(3.0) / p.h, partition=p, coeff0=0.5,
                              coeffs=(0.1, -0.2, 0.3, 0.1))


def test_validate_merges_x_1_but_not_x_0_when_the_spec_starts_left_of_both():
    g = _left_of_x0_network()
    spec = FunctionSpec.from_text("x", -1.0, 1.0, lipschitz=1.0, sup_bound=1.0)
    rep = validate(g, spec, 0.5, 2)
    # -1 and 1, then the knots x_1..x_4 = 0, 0.25, 0.5, 0.75
    assert rep.grid_size == 6
    assert rep == reference_validate(g, spec, 0.5, 2)


@settings(max_examples=60, deadline=None)
@given(_walk_cases())
@example(_overflowing_case())
def test_validate_reports_what_a_walk_that_evaluates_g_everywhere_reports(case):
    g, spec, grid = case
    got = _validation(validate, g, spec, grid)
    assert got == _validation(reference_validate, g, spec, grid)
    assert isinstance(got[0], tuple) or "too far from the unit centers" in got[0]
    assert _validation(validate, g, spec, grid, with_rows=False) == (got[0], [])


KNOT_FNS = ["sin(2*pi*x) + 0.5*x", WIGGLY, "x^2 - 3*x", "exp(x)*cos(9*x)"]


@st.composite
def _knot_networks(draw, max_n=2000):
    """(G, text, a, b) for the knot bound: G built from f = scale*(text) at
    the paper's slope times a factor from 1e-6 to 3, or at w*h from 40 to
    700, where a point of a cell can lie more than POS_CUTOFF/w right of
    its left center, or made by hand with coefficients of magnitude scale,
    from 1e-300 to 1e300, and f(a) up to 1e16 times larger, where the
    rounding of the prefix sums outweighs the tails."""
    n = draw(st.integers(3, max_n))
    a = draw(st.floats(-5.0, 5.0))
    b = a + draw(st.floats(1e-3, 10.0))
    p = unif_part(a, b, n)
    factors = st.sampled_from([1e-6, 0.01, 0.3, 1.0, 1.0, 3.0])
    wh = draw(st.one_of(factors.map(lambda k: math.log(n - 1.0) * k), st.floats(40.0, 700.0)))
    e = draw(st.integers(-300, 300))
    text = f"{10.0**e!r}*({draw(st.sampled_from(KNOT_FNS))})"
    if draw(st.booleans()):
        spec = FunctionSpec.from_text(text, a, b, lipschitz=1.0, sup_bound=1.0)
        return build_approximant(spec, manual_recipe(a, b, n, w=wh / p.h)), text, a, b
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = tuple(rng.uniform(-1.0, 1.0) * 10.0**e for _ in range(n))
    coeff0 = rng.uniform(-1.0, 1.0) * 10.0 ** min(300, e + draw(st.integers(0, 16)))
    return SigmoidApproximant(w=wh / p.h, partition=p, coeff0=coeff0, coeffs=coeffs), text, a, b


@settings(max_examples=80, deadline=None)
@given(_knot_networks())
def test_g_at_a_knot_is_its_closed_form_within_the_knot_slack(case):
    # `validate` skips G at a knot x_k whose window leaves out unit 0 on the
    # bound |G(x_k) - (P[u-1] + c_u/2)| <= s(G), u = k - 1
    g = case[0]
    slack = g._kernel[12]
    gap = min(c2 - c1 for c1, c2 in zip(g.centers, g.centers[1:]))
    # q >= 1 turns the skip off; so does an overflow in the slack's terms
    assert slack == math.inf or math.exp(-g.w * gap) * (1.0 + 2.0**-20) < 1.0
    pos = POS_CUTOFF / g.w
    for u in range(1, g.unit_count):
        x = g.centers[u]
        if bisect_left(g.centers, x - pos) == 0:
            continue
        q = g._kernel[3][u - 1] + g.unit_coeffs[u] * 0.5
        assert abs(evaluate(g, x) - q) <= slack, (u, x)


@settings(max_examples=60, deadline=None)
@given(_knot_networks(), st.data())
def test_validate_skips_knots_as_a_walk_that_evaluates_them_would_report(case, data):
    # a spec equal to G's but not the one it was built from: f is evaluated
    # again at every knot, and the grid is no finer than the partition, so
    # most points are knots and the skip decides their fate
    g, text, a, b = case
    grid = data.draw(st.integers(2, g.partition.n_intervals + 1))
    spec = FunctionSpec.from_text(text, a, b, lipschitz=1.0, sup_bound=1.0)
    got = _validation(validate, g, spec, grid)
    assert got == _validation(reference_validate, g, spec, grid)


def _counted_evaluations(monkeypatch):
    count = [0]
    real = engine.evaluate

    def counted(g, x):
        count[0] += 1
        return real(g, x)

    monkeypatch.setattr(engine, "evaluate", counted)
    return count


def test_validate_evaluates_g_at_few_knots_of_the_papers_network(monkeypatch):
    spec = make_spec("sin(2*pi*x) + 0.5*x", 2.0 * math.pi + 0.5, 1.5)
    g = build_approximant(spec, compute_recipe(spec, 0.015))
    assert g.partition.n_intervals == 4975
    count = _counted_evaluations(monkeypatch)
    rep = validate(g, spec, 0.015, 501)
    # the grid's 501 points, and under 1% of the 4,974 knots
    assert count[0] < 501 + 0.01 * 4974
    assert g._kernel[12] < 1e-3 * rep.sup_error
    monkeypatch.undo()
    assert rep == reference_validate(g, spec, 0.015, 501)


# q = e^(-w*gap)*(1 + 2^-20) >= 1 once w*gap <= ln(1 + 2^-20) = 9.54e-7
@pytest.mark.parametrize("wh", [1e-12, 9e-7])
def test_validate_evaluates_g_at_every_point_where_q_reaches_1(wh, monkeypatch):
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 300, w=wh * 300))
    assert g._kernel[12] == math.inf
    count = _counted_evaluations(monkeypatch)
    rep = validate(g, spec, 0.5, 101)
    assert count[0] == rep.grid_size > 101


def _f_a_unit_case():
    """G(x) = sigma(w*(x - x_0)) with w*h = 2 on [0, 1], N = 10, and f
    linear from G(a) to 1 at x_2 = 0.1, then 1: the error is 3e-6 at a and
    sigma(-4) = 0.018 at x_2, the sup.  The f(a) unit is in every window."""
    p = unif_part(0.0, 1.0, 10)
    g = SigmoidApproximant(w=2.0 / p.h, partition=p, coeff0=1.0, coeffs=(0.0,) * 10)
    spec = FunctionSpec.from_text("1 - 0.1192*(1 - 10*x + abs(1 - 10*x))/2", 0.0, 1.0,
                                  lipschitz=2.0, sup_bound=1.0)
    return g, spec


def test_validate_evaluates_g_at_a_knot_whose_window_holds_the_f_a_unit():
    # there Q_2 = P[0] = 1 = f(x_2), but the f(a) unit's sigmoid is
    # 1 - 0.018, not 1, so skipping x_2 would miss the sup
    g, spec = _f_a_unit_case()
    rep = validate(g, spec, 0.5, 2)
    assert rep == reference_validate(g, spec, 0.5, 2)
    assert rep.argmax_x == g.partition.points[2] and 0.0179 < rep.sup_error < 0.0181


def test_validate_evaluates_g_at_a_grid_point_whose_window_holds_the_f_a_unit():
    # the grid of 11 points passes through x_2 = 0.1, where the two-unit
    # sum is G~ = P[0] = 1 = f(0.1) for the same reason
    g, spec = _f_a_unit_case()
    assert 0.1 == g.partition.points[2] == g.centers[1]
    rep = validate(g, spec, 0.5, 11)
    assert rep == reference_validate(g, spec, 0.5, 11)
    assert rep.argmax_x == 0.1 and 0.0179 < rep.sup_error < 0.0181


def test_validate_evaluates_g_at_every_knot_where_evaluate_guards_x(monkeypatch):
    # w*h = 1.6, so q < 1, but w is below 1.7e-305, where the kernel's
    # range is empty and every x goes through `evaluate`'s guard
    p = unif_part(-0.8e308, 0.8e308, 100)
    rng = random.Random(3)
    g = SigmoidApproximant(w=1e-306, partition=p, coeff0=0.5,
                           coeffs=tuple(rng.uniform(-1.0, 1.0) for _ in range(100)))
    assert math.exp(-g.w * p.h) < 0.25 and g._kernel[10:12] == (math.inf, -math.inf)
    assert g._kernel[12] == math.inf
    spec = FunctionSpec.from_text("x", p.a, p.b, lipschitz=1.0, sup_bound=1.0)
    want = _validation(reference_validate, g, spec, 2)
    count = _counted_evaluations(monkeypatch)
    assert _validation(validate, g, spec, 2) == want
    assert count[0] == want[0][0] == 2 + 99


def _two_unit_sum(g, v, x):
    """G~(x) = P[v-1] + c_v*sigma(w*(x - c_v)) + c_{v+1}*sigma(w*(x - c_{v+1})),
    the proof's surrogate that `validate` tries at a grid point x with
    c_v <= x < c_{v+1}, left to right."""
    centers, coeffs = g.centers, g.unit_coeffs
    acc = g._kernel[3][v - 1]
    acc += coeffs[v] * sigmoid(g.w * (x - centers[v]))
    acc += coeffs[v + 1] * sigmoid(g.w * (x - centers[v + 1]))
    return acc


def _sign_flip_network():
    """w*h = 1, so q = e^-1*(1 + 2^-20), with weights -1 left of unit 48
    and +1 from it on.  At x = c_48 both tails push G above G~, by 0.66 in
    all, where one tail's cmax*q/(1 - q) is 0.58; unit 0 lies outside the
    window, which reaches 37 units left."""
    p = unif_part(0.0, 1.0, 64)
    g = SigmoidApproximant(w=1.0 / p.h, partition=p, coeff0=0.0,
                           coeffs=(-1.0,) * 47 + (1.0,) * 17)
    return g, "x", 0.0, 1.0


@settings(max_examples=80, deadline=None)
@given(_knot_networks(), st.integers(0, 2**32))
@example(_sign_flip_network(), 0)
def test_g_at_a_grid_point_is_its_two_unit_surrogate_within_the_knot_slack(case, seed):
    # `validate` skips G at a grid point x in [c_v, c_{v+1}) whose window
    # leaves out unit 0 on the bound |G(x) - G~(x)| <= s(G), also where the
    # window starts at v + 1
    g = case[0]
    slack = g._kernel[12]
    centers, pos = g.centers, POS_CUTOFF / g.w
    rng = random.Random(seed)
    cells = range(1, g.unit_count - 1)
    if len(cells) > 64:
        cells = rng.sample(cells, 16)
    for v in cells:
        left, right = centers[v], centers[v + 1]
        for x in (left, rng.uniform(left, right), math.nextafter(right, -math.inf)):
            if not (left <= x < right and centers[0] < x - pos):
                continue
            assert bisect_right(centers, x) - 1 == v
            approx = _two_unit_sum(g, v, x)
            if v >= 2:
                assert _bits(approx) == _bits(surrogate_L(g, v + 1, x))
            assert abs(evaluate(g, x) - approx) <= slack, (v, x)


def _tiny_interval_case():
    spec = FunctionSpec.from_text("x", 0.0, 1e-300, lipschitz=1.0, sup_bound=1.0)
    return build_approximant(spec, manual_recipe(0.0, 1e-300, 50)), "x", 0.0, 1e-300, 201


def _huge_interval_case():
    # w = ln(49)/h is about 1e-298, above the 1.7e-305 where the range ends
    spec = FunctionSpec.from_text("x", -1e300, 1e300, lipschitz=1.0, sup_bound=1.0)
    return build_approximant(spec, manual_recipe(-1e300, 1e300, 50)), "x", -1e300, 1e300, 201


def _q_reaches_1_case():
    spec = make_spec("x", 1.0, 1.0)
    return build_approximant(spec, manual_recipe(0.0, 1.0, 300, w=1e-12 * 300)), "x", 0.0, 1.0, 401


def _tiny_slope_case():
    p = unif_part(-0.8e308, 0.8e308, 100)
    rng = random.Random(3)
    g = SigmoidApproximant(w=1e-306, partition=p, coeff0=0.5,
                           coeffs=tuple(rng.uniform(-1.0, 1.0) for _ in range(100)))
    return g, "x", p.a, p.b, 3  # a finer grid's spacing overflows


@st.composite
def _grid_validations(draw):
    """(G, text, a, b, grid) from `_knot_networks` with grids from 2 to
    4N + 1 points: most points are uniform-grid points, and without rows
    the grid skip decides their fate.  [a, b] may differ from G's (see
    `_shifted_interval`)."""
    g, text, a, b = draw(_knot_networks(max_n=300))
    if draw(st.booleans()):
        a, b = draw(_shifted_interval(g.partition))
    return g, text, a, b, draw(st.integers(2, 4 * g.partition.n_intervals + 1))


@settings(max_examples=40, deadline=None)
@given(_grid_validations())
@example(_tiny_interval_case())
@example(_huge_interval_case())
@example(_q_reaches_1_case())
@example(_tiny_slope_case())
@example((_left_of_x0_network(), "x", -0.3, 0.9, 13))
def test_validate_without_rows_skips_grid_points_as_a_walk_that_evaluates_them_would_report(
    case,
):
    g, text, a, b, grid = case
    spec = FunctionSpec.from_text(text, a, b, lipschitz=1.0, sup_bound=1.0)
    want = _validation(reference_validate, g, spec, grid)
    assert _validation(validate, g, spec, grid, with_rows=False) == (want[0], [])
    # rows make G run at every grid point; the report stays the same
    assert _validation(validate, g, spec, grid) == want


def test_validate_tries_the_two_units_around_each_grid_point(monkeypatch):
    # dyadic points: the grid of 129 points of [0, 1] holds every center
    # x_1..x_65, and the two units are the last center at or below x and
    # the first above it, at x = c_v too
    p = unif_part(0.0, 1.0, 64)
    rng = random.Random(11)
    g = SigmoidApproximant(w=math.log(63.0) / p.h, partition=p, coeff0=0.5,
                           coeffs=tuple(rng.uniform(-0.02, 0.02) for _ in range(64)))
    spec = FunctionSpec.from_text("0.5 + x/64", 0.0, 1.0, lipschitz=1.0, sup_bound=1.0)
    xs = reference_uniform_grid(0.0, 1.0, 129)
    centers, pos = g.centers, POS_CUTOFF / g.w
    assert set(centers[1:]) <= set(xs)
    want = []
    for x in xs:
        v = bisect_right(centers, x) - 1
        if 0 < v < len(centers) - 1 and centers[0] < x - pos:
            want += [g.w * (x - centers[v]), g.w * (x - centers[v + 1])]
    calls, inside = [], [False]
    real = engine.evaluate

    def evaluated(g, x):
        inside[0] = True
        try:
            return real(g, x)
        finally:
            inside[0] = False

    def recorded(t):
        if not inside[0]:
            calls.append(t)
        return sigmoid(t)

    monkeypatch.setattr(engine, "evaluate", evaluated)
    monkeypatch.setattr(engine, "sigmoid", recorded)
    rep = validate(g, spec, 0.5, 129)
    monkeypatch.undo()
    assert calls == want and len(want) > 2 * 100
    assert min(want[::2]) == 0.0 and max(want[1::2]) < 0.0
    assert rep == reference_validate(g, spec, 0.5, 129)


@pytest.mark.parametrize("wh", [40.0, 90.0, 700.0])
def test_validate_skips_grid_points_whose_window_starts_right_of_their_left_unit(
    wh, monkeypatch
):
    # w*h > POS_CUTOFF: at a grid point x in [c_v, c_{v+1}) more than
    # POS_CUTOFF/w right of c_v, `evaluate`'s window starts at v + 1 and
    # sigma(w*(x - c_v)) is exactly 1.0, so the two-unit sum starts where
    # G's fold does.  No recipe network has such points
    p = unif_part(0.0, 1.0, 50)
    rng = random.Random(int(wh))
    g = SigmoidApproximant(w=wh / p.h, partition=p, coeff0=0.5,
                           coeffs=tuple(rng.uniform(-0.1, 0.1) for _ in range(50)))
    spec = FunctionSpec.from_text("x", 0.0, 1.0, lipschitz=1.0, sup_bound=1.0)
    centers, pos = g.centers, POS_CUTOFF / g.w
    late = []
    for x in reference_uniform_grid(0.0, 1.0, 1000):
        v = bisect_right(centers, x) - 1
        if 0 < v < len(centers) - 1 and bisect_left(centers, x - pos) == v + 1:
            assert sigmoid(g.w * (x - centers[v])) == 1.0
            late.append(x)
    evaluated = []
    real = engine.evaluate
    monkeypatch.setattr(engine, "evaluate", lambda g, x: evaluated.append(x) or real(g, x))
    want = _validation(reference_validate, g, spec, 1000)
    assert _validation(validate, g, spec, 1000, with_rows=False) == (want[0], [])
    assert len(late) > 50 and len(set(late) - set(evaluated)) > 0.9 * len(late)
    assert _validation(validate, g, spec, 1000) == want


def test_validate_evaluates_g_at_under_1_percent_of_wigglys_points_without_rows(monkeypatch):
    # the benchmark's wiggly workload: N = 6,924 and the CLI's default grid
    spec = make_spec(WIGGLY, WIGGLY_L, 1.05)
    g = build_approximant(spec, compute_recipe(spec, 0.01))
    n = g.partition.n_intervals
    assert n == 6924
    count = _counted_evaluations(monkeypatch)
    rep = validate(g, spec, 0.01, 10 * n)
    assert rep.grid_size == 10 * n + n - 1  # the grid and the knots x_2..x_N
    assert count[0] < 0.01 * rep.grid_size
    count[0] = 0
    rows = []
    assert validate(g, spec, 0.01, 10 * n, row=lambda x, fx, gx: rows.append(x)) == rep
    assert len(rows) == 10 * n <= count[0] < 10 * n + 0.01 * (n - 1)


@pytest.mark.parametrize("text, lipschitz, sup", SUITE)
def test_validate_reports_the_same_with_and_without_rows(text, lipschitz, sup):
    spec = make_spec(text, lipschitz, sup)
    g = build_approximant(spec, compute_recipe(spec, 0.05))
    for grid in (2, 101, 4 * g.partition.n_intervals + 1):
        rows = []
        rep = validate(g, spec, 0.05, grid, row=lambda x, fx, gx: rows.append(x))
        assert validate(g, spec, 0.05, grid) == rep and len(rows) == grid


def _kernel_networks():
    spec = make_spec("sin(2*pi*x) + 0.5*x", 2.0 * math.pi + 0.5, 1.5)
    built = build_approximant(spec, compute_recipe(spec, 0.05))
    n3 = build_approximant(make_spec("x*x", 2.0, 1.0), manual_recipe(0.0, 1.0, 3))
    p = unif_part(0.0, 1.0, 300)
    q_reaches_1 = SigmoidApproximant(w=1e-12 * 300, partition=p, coeff0=0.5,
                                     coeffs=tuple(0.01 * k for k in range(300)))
    p = unif_part(-0.8e308, 0.8e308, 100)
    tiny_w = SigmoidApproximant(w=1e-306, partition=p, coeff0=0.5, coeffs=(0.25,) * 100)
    p = unif_part(0.0, 1.0, 4)
    overflow = SigmoidApproximant(w=math.log(3.0) / p.h, partition=p, coeff0=1e308,
                                  coeffs=(1e308,) * 4)
    return {"built": built, "n3": n3, "q_reaches_1": q_reaches_1,
            "tiny_w": tiny_w, "overflow": overflow}


@pytest.mark.parametrize("name, finite", [("built", True), ("n3", True), ("q_reaches_1", False),
                                          ("tiny_w", False), ("overflow", False)])
def test_kernel_constants_match_a_recomputation_from_centers_and_coefficients(name, finite):
    # bit for bit, s(G) included: the skip in `validate` rests on its value
    g = _kernel_networks()[name]
    w, centers, coeffs = g.w, g.centers, g.unit_coeffs
    prefix, acc = [], 0.0
    for c in coeffs:
        acc += c
        prefix.append(acc)
    wg = w * min(c2 - c1 for c1, c2 in zip(centers, centers[1:]))
    cmax = max(abs(c) for c in coeffs[1:])
    tail = cmax * min(1.0, 2.0 * math.exp(-wg) * (1.0 + 2.0**-20))
    floor = 2.0**-1000 * max(1.0, cmax)
    big = sys.float_info.max
    lo, hi = (-big, big) if -747.0 / w >= -big / 4 else (math.inf, -math.inf)
    q = math.exp(-wg) * (1.0 + 2.0**-20)
    slack = math.inf
    if q < 1.0 and lo == -big:
        span = math.ceil(1600.0 / wg) + 1
        gamma = (4 * span + 8) * 2.0**-53 / (1.0 - (4 * span + 8) * 2.0**-53)
        slack = (2.0 * cmax * q / (1.0 - q)
                 + gamma * (max(map(abs, prefix)) + 2.0 * span * cmax)
                 + 2.0**-1000) * (1.0 + 2.0**-30)
    got = g._kernel
    assert got[1] is centers and got[2] is coeffs and got[9] == len(centers)
    assert list(map(_bits, got[3])) == list(map(_bits, prefix))
    doubles = (w, tail, 37.0 / w, -747.0 / w, cmax, floor, lo, hi, slack)
    assert list(map(_bits, got[:1] + got[4:9] + got[10:13])) == list(map(_bits, doubles))
    # below N_ARITH intervals the window-start guess is off
    assert got[13:] == (centers[1], None, len(centers) - 3.0)
    assert math.isfinite(slack) == finite
    if name == "overflow":
        assert math.isinf(prefix[-1]) and q < 1.0 and lo == -big


def _zero_networks():
    """Networks with f(a) = 0 and every forward difference 0.  tail is 0
    and the running sum stays 0, where ulp(0)/8 underflows, so the
    lookahead never leaves the loop and only the window's end stops it.
    Dyadic centers with neg = NEG_CUTOFF/w = -1/4 exactly, and the paper's
    slope at N = 300."""
    yield SigmoidApproximant(w=-NEG_CUTOFF * 4.0, partition=unif_part(0.0, 1.0, 16),
                             coeff0=0.0, coeffs=(0.0,) * 16)
    p = unif_part(0.0, 1.0, 300)
    yield SigmoidApproximant(w=math.log(299.0) / p.h, partition=p,
                             coeff0=0.0, coeffs=(0.0,) * 300)


def _window_width(g, x):
    """The number of units in x's sigmoid window, found by bisecting the
    centers at both ends, apart from the unit loop that finds the end."""
    centers = g.centers
    return (bisect_right(centers, x - NEG_CUTOFF / g.w)
            - bisect_left(centers, x - POS_CUTOFF / g.w))


def _stop_on_a_center(g):
    """Points x with fl(x - neg) equal to a center, so that the loop's
    last unit sits exactly at its stop."""
    neg = NEG_CUTOFF / g.w
    out = []
    for c in g.centers:
        out += [x for x in _around(c + neg, steps=2) if x - neg == c]
    return out


@pytest.mark.parametrize("g", list(_zero_networks()))
def test_evaluate_visits_exactly_the_window_the_bisections_bound(g, monkeypatch):
    centers = g.centers
    reach, pos = -NEG_CUTOFF / g.w, POS_CUTOFF / g.w
    landing = _stop_on_a_center(g)
    assert len(landing) >= 3
    xs = landing + [y for c in centers for y in _around(c, steps=1)[:3]]
    # left of x_0, where the window holds the first units or none, and
    # right of b, where it runs to the last unit or lies past it
    x0, b = centers[0], centers[-1]
    xs += [x0 - reach / 2, x0 - reach, x0 - 2 * reach, b + pos / 2, b + 2 * pos, b + reach]
    rng = random.Random(17)
    xs += [rng.uniform(x0 - 2 * reach, b + 2 * pos) for _ in range(500)]
    count = [0]

    def counted(t):
        count[0] += 1
        return sigmoid(t)

    monkeypatch.setattr(engine, "sigmoid", counted)
    widths = []
    for x in xs:
        count[0] = 0
        assert evaluate(g, x) == 0.0
        assert count[0] == _window_width(g, x), x
        widths.append(count[0])
    assert min(widths) == 0 and max(widths) > 3


@pytest.mark.parametrize("g", list(_zero_networks()))
def test_validate_visits_exactly_the_window_the_bisections_bound(g, monkeypatch):
    # the interval reaches past both ends of G's, so the knots bring in
    # every center but x_0; the grid starts left of x_0, at an x whose stop
    # is a center, and ends right of b
    a = min(_stop_on_a_center(g))
    b = g.centers[-1] + 3 * POS_CUTOFF / g.w
    assert a < g.centers[0] and a - NEG_CUTOFF / g.w in g.centers
    spec = FunctionSpec.from_text("0", a, b, lipschitz=1.0, sup_bound=1.0)
    grid = 997
    count = [0]
    rows = []

    def counted(t):
        count[0] += 1
        return sigmoid(t)

    def sink(x, fx, gx):
        # the calls since the last row belong to the distinct points after it
        rows.append((x, count[0]))
        count[0] = 0

    monkeypatch.setattr(engine, "sigmoid", counted)
    validate(g, spec, 1.0, grid, row=sink)
    monkeypatch.undo()
    # x_0 = a - h is a center but never a knot
    points = reference_validation_grid(a, b, grid, g.partition.points[1:])
    assert set(g.centers[1:]) <= set(points)
    assert len(rows) == grid
    prev = -math.inf
    for x, calls in rows:
        assert calls == sum(_window_width(g, p) for p in points if prev < p <= x), x
        prev = x


def _hand_network(coeffs, wh=math.log(3.0), coeff0=0.0):
    p = unif_part(0.0, 1.0, len(coeffs))
    return SigmoidApproximant(w=wh / p.h, partition=p, coeff0=coeff0, coeffs=tuple(coeffs))


@pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
def test_a_network_needs_a_positive_finite_slope(w):
    p = unif_part(0.0, 1.0, 4)
    with pytest.raises(RecipeError, match=f"^hidden_weight {w!r} is not positive and finite$"):
        SigmoidApproximant(w=w, partition=p, coeff0=0.0, coeffs=(0.25,) * 4)


@pytest.mark.parametrize("count", [0, 3, 5])
def test_a_network_needs_one_weight_per_forward_difference(count):
    p = unif_part(0.0, 1.0, 4)
    with pytest.raises(RecipeError, match=f"^N = 4 needs 4 forward differences, got {count}$"):
        SigmoidApproximant(w=4.0, partition=p, coeff0=0.0, coeffs=(0.25,) * count)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("unit,k,center", [(0, 0, r"-0\.25"), (2, 3, r"0\.5")])
def test_a_network_needs_finite_output_weights(unit, k, center, value):
    coeffs = [0.25] * 5
    coeffs[unit] = value
    with pytest.raises(RecipeError, match=f"^unit {unit} has output_coefficient {value!r} "
                       f"at x_{k} = {center}, which is not finite$"):
        _hand_network(coeffs[1:], coeff0=coeffs[0])


def test_the_network_where_the_oracle_and_evaluate_disagreed_cannot_be_made():
    # on it `evaluate` and `reference_G` would disagree at x = 0.3: 0.25
    # against nan, since the oracle multiplies inf by a sigmoid of 0.0
    with pytest.raises(RecipeError, match=r"^unit 3 has output_coefficient inf "
                       r"at x_4 = 0\.75, which is not finite$"):
        _hand_network([0.25, 0.25, math.inf, -math.inf], wh=1000.0)


def test_validate_fails_a_network_that_evaluates_to_nan(monkeypatch):
    # as a network with a +inf and a -inf weight would, G is nan at every
    # point; no such network can be made, so `evaluate` is replaced
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    monkeypatch.setattr(engine, "evaluate", lambda g, x: math.nan)
    rep = validate(g, spec, 0.2, 11)
    assert rep.passed is False
    assert math.isnan(rep.sup_error)
    assert rep.argmax_x == 0.0


def test_validate_keeps_the_first_infinite_error(monkeypatch):
    # G is finite left of x = 0.56, inf up to 0.81 and nan beyond, as when
    # a steep network's +inf and then -inf unit wake; no such network can
    # be made, so `evaluate` is replaced
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    real = engine.evaluate
    monkeypatch.setattr(engine, "evaluate", lambda g, x: (
        real(g, x) if x < 0.56 else math.inf if x < 0.81 else math.nan))
    xs = reference_validation_grid(0.0, 1.0, 101, g.partition.points)
    errs = [abs(engine.evaluate(g, x) - spec(x)) for x in xs]
    first = next(i for i, e in enumerate(errs) if not math.isfinite(e))
    assert errs[first] == math.inf and any(map(math.isnan, errs[first:]))
    assert max(errs[:first]) > 0.0
    rep = validate(g, spec, 0.2, 101)
    assert (rep.sup_error, rep.argmax_x, rep.passed) == (math.inf, xs[first], False)


def test_validate_a_later_finite_error_does_not_replace_nan(monkeypatch):
    # a G that is nan at one point only cannot be built from weights, so
    # `evaluate` is replaced for the walk
    spec = make_spec("0", 1.0, 0.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 4))
    monkeypatch.setattr(
        engine, "evaluate", lambda g, x: {0.5: math.nan, 0.75: 3.0}.get(x, 0.0)
    )
    rep = validate(g, spec, 0.1, 5)
    assert math.isnan(rep.sup_error)
    assert (rep.argmax_x, rep.passed) == (0.5, False)


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
        # coeffs[k - 2] is the output weight of the unit centered at x_k
        for k in range(2, i):
            acc += g.coeffs[k - 2]
        acc += g.coeffs[i - 2] * sigmoid(g.w * (x - pts[i]))
        acc += g.coeffs[i - 1] * sigmoid(g.w * (x - pts[i + 1]))
        assert _bits(surrogate_L(g, i, x)) == _bits(acc)


def test_surrogate_takes_the_limits_of_sigma_where_its_argument_overflows():
    # w * (x - c) = +-6.25e308 overflows; the boundary units' sigmoids are 1
    # and 0, as at any argument beyond the cutoffs
    p = unif_part(0.0, 1e10, 8)
    g = SigmoidApproximant(w=1e300, partition=p, coeff0=1.0,
                           coeffs=tuple(float(k) for k in range(2, 10)))
    x = 0.5 * (p.points[3] + p.points[4])
    assert surrogate_L(g, 3, x) == g._kernel[3][1] + g.coeffs[1]


def test_surrogate_rejects_small_index():
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 10))
    with pytest.raises(SurrogateNotApplicableError):
        surrogate_L(g, 2, 0.15)
    with pytest.raises(ValueError):
        surrogate_L(g, 11, 0.95)


def test_surrogate_rejects_x_outside_its_cell():
    spec = make_spec("x", 1.0, 1.0)
    g = build_approximant(spec, manual_recipe(0.0, 1.0, 10))
    pts = g.partition.points
    for x in (math.nextafter(pts[3], -math.inf), 0.35, math.nextafter(pts[4], math.inf)):
        with pytest.raises(ValueError, match=rf"^x={x!r} not in cell \[{pts[3]!r}, {pts[4]!r}\]$"):
            surrogate_L(g, 3, x)


def test_build_refuses_a_recipe_for_another_interval():
    spec = make_spec("x", 1.0, 1.0)
    for a, b in ((0.0, 2.0), (-1.0, 1.0)):
        with pytest.raises(RecipeError, match="^recipe interval does not match the function spec$"):
            build_approximant(spec, manual_recipe(a, b, 10))


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
