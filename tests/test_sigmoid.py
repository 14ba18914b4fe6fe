import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sigapprox.sigmoid import (
    MAX_DERIVATIVE_ORDER,
    finite_sigmoid,
    sigmoid,
    sigmoid_nth_derivative,
)

from oracles import (
    mp_sigmoid_derivative,
    nested_central_derivative,
    richardson_diff,
    sigmoid_deriv1,
    sigmoid_deriv2,
)


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_value_at_zero():
    assert sigmoid(0.0) == 0.5


def test_large_positive_no_overflow():
    v = sigmoid(710.0)
    assert 0.0 < v <= 1.0


def test_large_negative_no_underflow_to_garbage():
    v = sigmoid(-710.0)
    assert 0.0 <= v < 1e-300


def test_open_interval_bounds():
    for x in [i * 0.5 for i in range(-72, 73)]:
        assert 0.0 < sigmoid(x) < 1.0


def test_monotone_on_grid():
    xs = [i * 0.25 for i in range(-120, 121)]
    vals = [sigmoid(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=-36.0, max_value=36.0))
def test_symmetry(x):
    s = sigmoid(x) + sigmoid(-x)
    assert ulps_apart(s, 1.0) <= 1.0


def test_alternate_forms_agree():
    # e^x/(1+e^x) against the branchy implementation, across |x| <= 30
    for i in range(-300, 301):
        x = i * 0.1
        direct = math.exp(x) / (1.0 + math.exp(x))
        assert ulps_apart(sigmoid(x), direct) <= 2.0


def test_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            sigmoid(bad)
        with pytest.raises(ValueError):
            sigmoid_nth_derivative(2, bad)


def test_deriv1_at_zero_against_finite_differences():
    for h in (1e-4, 5e-5):
        fd = richardson_diff(sigmoid, 0.0, h)
        assert sigmoid_deriv1(0.0) == 0.25
        assert abs(fd - 0.25) < 1e-10


def test_deriv1_even_and_bounded():
    for x in (0.3, 1.7, 5.0, 12.0):
        assert sigmoid_deriv1(x) == sigmoid_deriv1(-x) or ulps_apart(
            sigmoid_deriv1(x), sigmoid_deriv1(-x)
        ) <= 2.0
        assert 0.0 < sigmoid_deriv1(x) <= 0.25
    assert sigmoid_deriv1(10.0) < 1e-4


def test_deriv2_signs_and_zero():
    assert sigmoid_deriv2(0.0) == 0.0
    assert sigmoid_deriv2(1.0) < 0.0
    assert sigmoid_deriv2(-1.0) > 0.0
    assert ulps_apart(abs(sigmoid_deriv2(1.0)), sigmoid_deriv2(-1.0)) <= 2.0


def test_nth_order_zero_is_sigmoid():
    for x in (-7.0, -0.4, 0.0, 2.3, 30.0):
        assert sigmoid_nth_derivative(0, x) == sigmoid(x)


def test_nth_order_one_matches_product_formula():
    # the closed form evaluates s - s^2, which cancels for s near 1, so a
    # relative tolerance is the right comparison against the product form
    for i in range(-30, 31):
        x = i * 0.3
        assert sigmoid_nth_derivative(1, x) == pytest.approx(
            sigmoid_deriv1(x), rel=1e-11
        )


def test_nth_order_five_against_high_precision_oracle():
    closed = sigmoid_nth_derivative(5, 0.7)
    oracle = nested_central_derivative(5, 0.7)
    assert closed == pytest.approx(oracle, rel=1e-5)


def test_consistency_with_differencing_previous_order():
    for n in range(1, 7):
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            fd = richardson_diff(lambda t: sigmoid_nth_derivative(n - 1, t), x)
            closed = sigmoid_nth_derivative(n, x)
            assert closed == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_derivatives_vanish_far_out():
    for n in range(1, 7):
        for x in (40.0, -40.0):
            assert abs(sigmoid_nth_derivative(n, x)) < 1e-12


@pytest.mark.parametrize("x", [2.0, 20.0, 37.0, 50.0, 700.0])
def test_nth_derivative_right_of_zero_against_mpmath(x):
    # the closed form summed at x itself lost every digit here: n = 25 at
    # x = 20 gave -5.8e12 for 1.92e-9, n = 30 at x = 50 gave -2.7e20
    for n in range(1, MAX_DERIVATIVE_ORDER + 1):
        oracle = mp_sigmoid_derivative(n, x)
        assert sigmoid_nth_derivative(n, x) == pytest.approx(oracle, rel=1e-8), n


@pytest.mark.parametrize("x", [v for x in (0.001, 0.1, 0.25, 0.5, 2.0, 20.0) for v in (x, -x)])
def test_nth_derivative_near_zero_against_mpmath(x):
    # summed in doubles, the terms of up to 1e35 cancelled to 5.9% off at
    # n = 30, x = 0.001 and 4.3e-4 at n = 29, x = -0.5
    for n in range(1, MAX_DERIVATIVE_ORDER + 1):
        oracle = mp_sigmoid_derivative(n, x)
        assert sigmoid_nth_derivative(n, x) == pytest.approx(oracle, rel=1e-9), n


def test_nth_derivative_reflects_about_zero():
    for n in range(1, MAX_DERIVATIVE_ORDER + 1):
        for x in (0.3, 2.0, 45.0):
            sign = -1.0 if n % 2 == 0 else 1.0
            assert sigmoid_nth_derivative(n, x) == sign * sigmoid_nth_derivative(n, -x)


def test_even_derivatives_vanish_at_zero():
    for n in range(2, MAX_DERIVATIVE_ORDER + 1, 2):
        assert sigmoid_nth_derivative(n, 0.0) == 0.0
        assert sigmoid_nth_derivative(n, -0.0) == 0.0
    assert sigmoid_nth_derivative(0, 0.0) == 0.5
    assert sigmoid_nth_derivative(1, 0.0) == 0.25


def test_order_cap():
    sigmoid_nth_derivative(MAX_DERIVATIVE_ORDER, 0.5)
    with pytest.raises(ValueError):
        sigmoid_nth_derivative(MAX_DERIVATIVE_ORDER + 1, 0.5)
    with pytest.raises(ValueError):
        sigmoid_nth_derivative(-1, 0.5)


def guarded_sigmoid(x):
    """The sigmoid as it read with a separate finiteness helper: float(x),
    math.isfinite, then the branch on the sign."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"input must be finite, got {x!r}")
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    t = math.exp(x)
    return t / (1.0 + t)


def test_bit_identical_to_the_guarded_formula():
    tiny = 5e-324
    edges = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308,
             -2.2250738585072014e-308, 708.0, -708.0, 745.0, -745.0,
             745.2, -745.2, 746.0, -746.0, sys.float_info.max, -sys.float_info.max,
             36.7, -36.7, 37.0, -37.0, 1.0, -1.0]
    rng = random.Random(7)
    sweep = [rng.uniform(-800.0, 800.0) for _ in range(20_000)]
    sweep += [rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-1074, 1023) for _ in range(5000)]
    for x in edges + sweep:
        assert sigmoid(x).hex() == guarded_sigmoid(x).hex(), x
        # the kernel without the guard gives the same double
        assert finite_sigmoid(x).hex() == sigmoid(x).hex(), x
    assert math.copysign(1.0, sigmoid(-0.0)) == 1.0
    # the limits of sigma, which `surrogate_L` relies on when w * (x - c)
    # overflows
    assert (finite_sigmoid(math.inf), finite_sigmoid(-math.inf)) == (1.0, 0.0)


def range_tested_sigmoid(x):
    """The sigmoid as it read with its own copy of the kernel's two
    formulas, whose range tests also turned NaN and +-inf away."""
    x = float(x)
    if 0.0 <= x <= sys.float_info.max:
        return 1.0 / (1.0 + math.exp(-x))
    if -sys.float_info.max <= x < 0.0:
        t = math.exp(x)
        return t / (1.0 + t)
    raise ValueError(f"input must be finite, got {x!r}")


FORCED = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
          37.0, -37.0, 745.0, -745.0, sys.float_info.max, -sys.float_info.max]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_bit_identical_to_the_range_tested_formula(x):
    assert sigmoid(x).hex() == range_tested_sigmoid(x).hex()


for _x in FORCED:
    test_bit_identical_to_the_range_tested_formula = example(_x)(
        test_bit_identical_to_the_range_tested_formula
    )


@pytest.mark.parametrize(
    "x", [0, 3, -3, 800, -800, 10**300, True, False, Fraction(1, 3), Fraction(-7, 2)]
)
def test_non_float_inputs_are_converted(x):
    assert sigmoid(x).hex() == sigmoid(float(x)).hex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_message(bad):
    with pytest.raises(ValueError) as got:
        sigmoid(bad)
    assert str(got.value) == f"input must be finite, got {bad!r}"
    for reference in (guarded_sigmoid, range_tested_sigmoid):
        with pytest.raises(ValueError) as want:
            reference(bad)
        assert str(got.value) == str(want.value)
    # the derivatives guard their input once and call the kernel
    for derivative in (sigmoid_deriv1, sigmoid_deriv2,
                       lambda x: sigmoid_nth_derivative(3, x)):
        with pytest.raises(ValueError, match=f"^input must be finite, got {bad!r}$"):
            derivative(bad)
