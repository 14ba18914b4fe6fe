import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sigapprox.partition import select_index, unif_part, uniform_grid


def linear_scan_index(points, n, x):
    best = None
    for i in range(1, n + 1):
        if points[i] <= x:
            best = i
    return best if best is not None else 1


def test_printed_example_exact():
    p = unif_part(0.0, 1.0, 4)
    assert p.points == (-0.25, 0.0, 0.25, 0.5, 0.75, 1.0)


def test_single_interval():
    assert unif_part(0.0, 1.0, 1).points == (-1.0, 0.0, 1.0)


def test_integer_partition():
    assert unif_part(-2.0, 3.0, 5).points == (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)


def test_preconditions():
    with pytest.raises(ValueError):
        unif_part(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        unif_part(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        unif_part(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        unif_part(0.0, math.inf, 4)
    # b - a is finite but x_0 = a - h is not, or b - a overflows
    big = sys.float_info.max
    for a, b, n in ((-1.7e308, 0.0, 4), (-big, big, 4), (-big, 0.0, 10**6)):
        with pytest.raises(ValueError, match=r"is too wide for N = \d+: x_0 = a - h overflows$"):
            unif_part(a, b, n)
    for a, b, n in ((-0.7e308, 0.7e308, 4), (-big / 4, big / 4, 1)):
        assert all(map(math.isfinite, unif_part(a, b, n).points))


interval_strategy = st.tuples(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=1, max_value=500),
)


@given(interval_strategy)
@example((-339.0, 850.8328782254695, 25))
def test_invariants(params):
    a, width, n = params
    b = a + width
    p = unif_part(a, b, n)
    h = (b - a) / n
    # the closed formula bit for bit, then b itself
    want = [a + (k - 1) * h for k in range(n + 1)] + [b]
    assert list(map(float.hex, p.points)) == list(map(float.hex, want))
    assert p.points[0] == a - h
    assert p.points[1] == a
    # How far a gap strays from h follows from that formula.  With
    # u = 2^-53, x_k = fl(a + fl((k - 1)*h)) rounds twice, so it lies
    # within e_k = u*(|(k - 1)*h| + |x_k|) of a + (k - 1)*h exactly (h is
    # at least 2e-6, so no rounding here is subnormal, and x_1 = a + 0.0
    # is exact).  b stands in for x_{N+1} = a + N*h: h = fl(fl(b - a)/N),
    # so b - (a + N*h) is within e_{N+1} = u*(N*h + fl(b - a)).  A gap
    # x_{k+1} - x_k, taken exactly, is then within e_k + e_{k+1} of h.
    # e_k grows with |(k - 1)*h|, which exceeds max(|a|, |b|) when
    # a < 0 < b, as in the example above.
    u = Fraction(1, 2**53)
    xs = list(map(Fraction, p.points))
    errs = [u * (abs((k - 1) * Fraction(h)) + abs(xs[k])) for k in range(n + 1)]
    errs.append(u * (n * Fraction(h) + Fraction(b - a)))
    for k in range(n + 1):
        assert p.points[k + 1] > p.points[k]
        assert abs(xs[k + 1] - xs[k] - Fraction(h)) <= errs[k] + errs[k + 1]


def test_last_point_is_b_where_closed_formula_misses():
    # a + N*h is 0.9999999999999999 here
    assert 0.0 + 1919 * (1.0 / 1919) < 1.0
    p = unif_part(0.0, 1.0, 1919)
    assert p.points[-1] == 1.0
    assert p.points[-2] < p.points[-1]
    assert select_index(p, 1.0) == 1919


def test_select_index_at_b_regression():
    # a + N*h misses b here, as hypothesis found for the round trip below
    a, b, n = 0.0, 48.60131310179116, 91
    p = unif_part(a, b, n)
    i = select_index(p, b)
    assert i == n
    assert p.points[i] <= b <= p.points[i + 1]


def test_uniform_grid_points():
    assert list(uniform_grid(0.0, 1.0, 5)) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert list(uniform_grid(-2.0, 3.0, 2)) == [-2.0, 3.0]
    xs = list(uniform_grid(0.1, 0.7, 1001))
    assert xs == [0.1 + (0.7 - 0.1) * j / 1000 for j in range(1001)]
    assert xs == sorted(xs)


def test_uniform_grid_ends_at_b():
    # the closed formula at j = n-1 gives 0.8999999999999999 here
    assert 0.2 + (0.9 - 0.2) * 7 / 7 < 0.9
    assert list(uniform_grid(0.2, 0.9, 8))[-1] == 0.9
    # and 1.9000000000000001 here, outside [a, b]
    assert 0.1 + (1.9 - 0.1) * 10000 / 10000 > 1.9
    xs = list(uniform_grid(0.1, 1.9, 10_001))
    assert xs[-1] == 1.9
    assert max(xs) == 1.9
    assert xs == sorted(xs)


@pytest.mark.parametrize(
    "a, b, n", [(0.0, 1e305, 10_001), (-1.7e308, 1.7e308, 1000), (-1.7e308, 1.7e308, 2)]
)
def test_uniform_grid_refuses_an_overflowing_step(a, b, n):
    # b - a or (b - a)*j overflows before any grid point does
    with pytest.raises(ValueError) as exc:
        uniform_grid(a, b, n)
    assert str(exc.value) == f"[{a!r}, {b!r}] is too wide for a grid of n = {n} points"


def test_uniform_grid_keeps_the_widest_finite_step():
    xs = list(uniform_grid(0.0, 1e304, 10_001))
    assert xs == [0.0 + (1e304 - 0.0) * j / 10_000 for j in range(10_000)] + [1e304]
    assert all(map(math.isfinite, xs))


def test_uniform_grid_unchanged_on_unit_interval():
    for n in (2, 3, 10_001, 20_001, 69_240):
        assert list(uniform_grid(0.0, 1.0, n)) == [0.0 + (1.0 - 0.0) * j / (n - 1) for j in range(n)]


def test_select_index_examples():
    p = unif_part(0.0, 1.0, 4)
    assert select_index(p, 0.6) == 3
    assert select_index(p, 0.0) == 1
    assert select_index(p, 1.0) == 4  # clamped at the right endpoint


def test_select_index_out_of_range():
    p = unif_part(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        select_index(p, -0.01)
    with pytest.raises(ValueError):
        select_index(p, 1.01)


def test_select_index_matches_linear_scan():
    rng = random.Random(7)
    for a, b, n in [(0.0, 1.0, 4), (-2.0, 3.0, 17), (0.1, 0.2, 99), (-5.0, -1.0, 250)]:
        p = unif_part(a, b, n)
        for _ in range(1000):
            x = rng.uniform(a, b)
            i = select_index(p, x)
            assert i == linear_scan_index(p.points, n, x)
            assert p.points[i] <= x <= p.points[i + 1]


# a few ulps wide, so that neighbouring points round to the same double
crowded_strategy = st.builds(
    lambda a, ulps, n: (a, ulps * math.ulp(a), n),
    st.floats(min_value=1.0, max_value=1e300),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=200),
)


@given(st.one_of(interval_strategy, crowded_strategy), st.floats(min_value=0.0, max_value=1.0))
def test_select_index_matches_brute_force(params, frac):
    a, width, n = params
    p = unif_part(a, a + width, n)
    inside = min(max(p.a + frac * (p.b - p.a), p.a), p.b)
    for x in (p.a, p.b, inside, *p.points[1:]):
        assert select_index(p, x) == linear_scan_index(p.points, n, x)


def test_select_index_with_repeated_points():
    # h = 0.08 is under half an ulp of a = 1e16: the 52 points round to
    # x_0..x_13 = a, x_14..x_38 = a + 2 and x_39..x_51 = a + 4 = b
    p = unif_part(1e16, 1e16 + 4, 50)
    assert sorted(set(p.points)) == [1e16, 1e16 + 2, 1e16 + 4]
    assert [select_index(p, x) for x in (1e16, 1e16 + 2, 1e16 + 4)] == [13, 38, 50]


@given(interval_strategy, st.floats(min_value=0.0, max_value=1.0))
def test_select_index_round_trip(params, frac):
    a, width, n = params
    b = a + width
    p = unif_part(a, b, n)
    x = a + frac * (b - a)
    x = min(max(x, a), b)
    i = select_index(p, x)
    assert 1 <= i <= n
    assert p.points[i] <= x <= p.points[i + 1]
