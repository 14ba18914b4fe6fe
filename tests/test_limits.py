import math

import pytest

from sigapprox.limits import SaturationSlope, boundary_residual, sigmoid_saturation_slope
from sigapprox.sigmoid import sigmoid


def test_sigmoid_saturation_slope_examples():
    s = sigmoid_saturation_slope(1.0, 3)
    assert s.omega == pytest.approx(math.log(2.0), rel=1e-15)
    residual = boundary_residual(s)
    assert abs(residual - 1.0 / 3.0) <= 2 * math.ulp(1.0)

    s = sigmoid_saturation_slope(1.0 / 6925.0, 6925)
    assert s.omega == pytest.approx(61237.0, rel=2e-4)

    s = sigmoid_saturation_slope(0.5, 101)
    assert s.omega == pytest.approx(2.0 * math.log(100.0), rel=1e-12)
    assert abs(boundary_residual(s) - 1.0 / 101.0) <= 2 * math.ulp(1.0)


def test_sigmoid_saturation_slope_preconditions():
    with pytest.raises(ValueError):
        sigmoid_saturation_slope(1.0, 2)
    with pytest.raises(ValueError):
        sigmoid_saturation_slope(0.0, 10)
    # ln(4)/inf = 0.0
    with pytest.raises(ValueError, match="^omega must be positive$"):
        sigmoid_saturation_slope(math.inf, 5)
    with pytest.raises(ValueError, match="^h and tol must be positive$"):
        SaturationSlope(omega=1.0, h=0.0, tol=0.25)


def test_monotone_sharpening():
    s = sigmoid_saturation_slope(0.1, 10)
    for t in (0.1, 0.2, 0.5, 1.0, 3.0):
        w1 = s.omega
        w2 = 2.0 * s.omega
        assert 1.0 - sigmoid(w2 * t) <= 1.0 - sigmoid(w1 * t)


def test_saturation_soundness_sampled():
    for h in (0.01, 0.1, 1.0):
        for n in (3, 10, 100, 1000):
            s = sigmoid_saturation_slope(h, n)
            bound = 1.0 / n
            for j in range(100):
                t = h * (1.0 + 1e-6) * 10.0 ** (2.0 * j / 99.0)
                assert 1.0 - sigmoid(s.omega * t) <= bound
                assert sigmoid(-s.omega * t) <= bound
