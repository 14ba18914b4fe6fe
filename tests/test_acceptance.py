"""End-to-end acceptance gate: one test per criterion, each printing a
PASS line when all of its assertions hold."""

import math
import random
from fractions import Fraction
from math import factorial

import pytest

from sigapprox.engine import (
    build_approximant,
    compute_recipe,
    error_decomposition,
    evaluate,
    validate,
)
from sigapprox.expressions import FunctionSpec
from sigapprox.export import (
    approximant_from_document,
    read_network_document,
    to_network_document,
    write_network_document,
    write_samples,
)
from sigapprox.limits import sigmoid_saturation_slope
from sigapprox.partition import select_index, unif_part
from sigapprox.sigmoid import sigmoid, sigmoid_nth_derivative
from sigapprox.stirling import stirling2

from oracles import (
    count_partitions,
    exact_recipe_n,
    nested_central_derivative,
    reference_uniform_grid,
    reference_validation_grid,
    richardson_diff,
)

WIGGLY = "abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)"
WIGGLY_L = 1.0 + 1.8 * math.pi + 0.2

SUITE = [
    ("x", 1.0, 1.0),
    ("x^2", 2.0, 1.0),
    ("abs(x-0.3)", 1.0, 0.7),
    ("sin(6*pi*x)", 6.0 * math.pi, 1.0),
    ("3", 1.0, 3.0),
    (WIGGLY, WIGGLY_L, 1.05),
]


def test_criterion_1_worked_example_reproduction():
    spec = FunctionSpec.from_text(WIGGLY, 0, 1, lipschitz=WIGGLY_L, sup_bound=1.05)
    recipe = compute_recipe(spec, 0.01)

    assert recipe.eta == pytest.approx(1.9802e-3, rel=1e-4)
    assert recipe.delta == pytest.approx(2.889e-4, rel=1e-3)
    assert 6921 <= recipe.n <= 6927

    rational_n = exact_recipe_n(
        0, 1, Fraction(1, 100), Fraction(21, 20), 1, lipschitz=WIGGLY_L
    )
    assert rational_n == recipe.n

    assert recipe.w == pytest.approx(math.log(recipe.n - 1.0) * recipe.n, rel=1e-6)
    assert recipe.w == pytest.approx(6.12e4, rel=2e-3)

    g = build_approximant(spec, recipe)
    report = validate(g, spec, 0.01, 20_001)
    assert report.passed
    assert report.sup_error < 0.01
    print(
        f"\nACCEPTANCE 1: PASS  (N={recipe.n}, w={recipe.w:.1f}, "
        f"sup_error={report.sup_error:.3e} < 0.01)"
    )


def test_criterion_2_partition_oracle():
    assert unif_part(0.0, 1.0, 4).points == (-0.25, 0.0, 0.25, 0.5, 0.75, 1.0)

    rng = random.Random(20260823)
    for _ in range(50):
        a = rng.uniform(-100.0, 100.0)
        b = a + rng.uniform(1e-3, 100.0)
        n = rng.randint(1, 400)
        p = unif_part(a, b, n)
        h = (b - a) / n
        assert len(p.points) == n + 2
        assert p.points[0] == a - h
        assert p.points[1] == a
        tol = 2 * math.ulp(max(abs(a), abs(b), h))
        assert abs(p.points[-1] - b) <= tol
        for lo, hi in zip(p.points, p.points[1:]):
            assert hi > lo
            assert abs((hi - lo) - h) <= tol
    print("\nACCEPTANCE 2: PASS  (exact printed partition + 50 random invariants)")


def test_criterion_3_derivative_formula_vs_oracles():
    for n in range(1, 7):
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            closed = sigmoid_nth_derivative(n, x)
            oracle = nested_central_derivative(n, x)
            assert closed == pytest.approx(oracle, rel=1e-5, abs=1e-8)
            fd_prev = richardson_diff(lambda t: sigmoid_nth_derivative(n - 1, t), x)
            assert closed == pytest.approx(fd_prev, rel=1e-6, abs=1e-8)
    d2_zero = sigmoid_nth_derivative(2, 0.0)
    assert abs(d2_zero) <= 2 * math.ulp(0.25)
    print("\nACCEPTANCE 3: PASS  (orders 1..6 vs nested central differences)")


def test_criterion_4_stirling_exactness():
    for n in range(2, 21):
        for k in range(2, n + 1):
            assert factorial(k) * stirling2(n + 1, k) + factorial(k - 1) * stirling2(
                n + 1, k - 1
            ) == factorial(k - 1) * stirling2(n + 2, k)
    for n in range(21):
        for k in range(n + 1):
            assert stirling2(n + 1, k) == k * stirling2(n, k) + (
                stirling2(n, k - 1) if k >= 1 else 0
            )
    assert stirling2(4, 2) == 7
    for n in range(9):
        for k in range(n + 1):
            assert stirling2(n, k) == count_partitions(n, k)
    print("\nACCEPTANCE 4: PASS  (recurrence, factorial identity, enumeration)")


def test_criterion_5_saturation_lemma():
    for h in (0.01, 0.1, 1.0):
        for n in (3, 10, 100, 1000):
            slope = sigmoid_saturation_slope(h, n)
            omega = slope.omega
            bound = 1.0 / n
            for j in range(100):
                t = h * (1.0 + 1e-6) * 10.0 ** (2.0 * j / 99.0)
                assert 1.0 - sigmoid(omega * t) <= bound
                assert sigmoid(omega * -t) <= bound
            residual = 1.0 - sigmoid(omega * h)
            # the residual is a difference of values near 1, so "2 ulps"
            # means 2 ulps at that scale
            assert abs(residual - bound) <= 2 * math.ulp(1.0)
    print("\nACCEPTANCE 5: PASS  (saturation bounds and tight boundary residual)")


def test_criterion_6_certificate_suite():
    rng = random.Random(6)
    for text, lipschitz, sup in SUITE:
        for eps in (0.2, 0.05):
            spec = FunctionSpec.from_text(text, 0, 1, lipschitz=lipschitz, sup_bound=sup)
            recipe = compute_recipe(spec, eps)
            g = build_approximant(spec, recipe)
            report = validate(g, spec, eps, max(2001, 2 * recipe.n))
            assert report.passed, (text, eps, report)

            checked = 0
            while checked < 50:
                x = rng.uniform(0.0, 1.0)
                if select_index(g.partition, x) < 3:
                    continue
                d = error_decomposition(g, spec, recipe, x)
                assert d.i1 < d.i1_bound, (text, eps, x, d)
                assert d.i2 < d.i2_bound, (text, eps, x, d)
                gx, fx = evaluate(g, x), spec(x)
                slack = 8 * math.ulp(max(1.0, abs(gx), abs(fx)))
                assert abs(gx - fx) <= d.i1 + d.i2 + slack
                checked += 1
    print("\nACCEPTANCE 6: PASS  (6 functions x 2 tolerances, I1/I2 bounds hold)")


def test_criterion_7_limit_witnesses():
    for k in range(1, 13):
        eps = 10.0**-k
        threshold = math.log(1.0 / eps)
        for j in range(200):
            x = threshold + 10.0 ** (-3.0 + 6.0 * j / 199.0)
            assert abs(sigmoid(x) - 1.0) < eps
            assert abs(sigmoid(-x)) < eps
    print("\nACCEPTANCE 7: PASS  (epsilon-N witnesses for eps = 1e-1..1e-12)")


def test_criterion_8_export_round_trip(tmp_path):
    spec = FunctionSpec.from_text(WIGGLY, 0, 1, lipschitz=WIGGLY_L, sup_bound=1.05)
    recipe = compute_recipe(spec, 0.05)
    g = build_approximant(spec, recipe)

    path = tmp_path / "network.json"
    write_network_document(to_network_document(g, recipe, spec), path)
    rebuilt = approximant_from_document(read_network_document(path))
    rng = random.Random(8)
    for _ in range(1000):
        x = rng.uniform(0.0, 1.0)
        a = evaluate(g, x)
        b = evaluate(rebuilt, x)
        assert abs(a - b) <= 2 * math.ulp(max(abs(a), abs(b), 1e-300))

    csv_path = tmp_path / "samples.csv"
    grid = 2001
    write_samples(g, spec, grid, csv_path)
    rows = csv_path.read_text().strip().split("\n")[1:]
    assert len(rows) == grid
    xs = reference_uniform_grid(0.0, 1.0, grid)
    assert [float(r.split(",")[0]) for r in rows] == xs
    max_err = max(float(r.split(",")[3]) for r in rows)
    assert max_err == max(abs(evaluate(g, x) - spec(x)) for x in xs)
    # validation sees the same grid with the partition knots merged in
    report = validate(g, spec, 0.05, grid)
    assert report.grid_size == len(reference_validation_grid(0.0, 1.0, grid, g.partition.points))
    assert report.sup_error >= max_err
    print("\nACCEPTANCE 8: PASS  (network document and CSV round trips)")
