import json
import math
import random

import pytest

from sigapprox.engine import build_approximant, compute_recipe, evaluate, validate
from sigapprox.expressions import FunctionSpec
from sigapprox.export import (
    SAMPLES_HEADER,
    approximant_from_document,
    read_network_document,
    to_network_document,
    write_network_document,
    write_samples,
)

from oracles import leftmost_sup, reference_uniform_grid, reference_validation_grid

WIGGLY = "abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)"


def pipeline(text, lipschitz, sup, eps):
    spec = FunctionSpec.from_text(text, 0, 1, lipschitz=lipschitz, sup_bound=sup)
    recipe = compute_recipe(spec, eps)
    return spec, recipe, build_approximant(spec, recipe)


def test_constant_document_shape():
    spec, recipe, g = pipeline("3", 1.0, 3.0, 0.5)
    doc = to_network_document(g, recipe, spec)
    assert doc["format_version"] == "1"
    assert doc["activation"] == "sigmoid"
    assert len(doc["units"]) == recipe.n + 1
    coeffs = [u["output_coefficient"] for u in doc["units"]]
    assert coeffs[0] == 3.0
    assert all(c == 0.0 for c in coeffs[1:])
    assert doc["metadata"]["source_expression"] == "3"


def test_identity_document_coefficients():
    from sigapprox.engine import Recipe

    spec = FunctionSpec.from_text("x", 0, 1, lipschitz=1.0, sup_bound=1.0)
    recipe = Recipe(
        epsilon=0.2, m_f=1.0, m_sigma=1.0, eta=0.04, delta=0.04,
        n=4, h=0.25, w=math.log(3.0) / 0.25, a=0.0, b=1.0,
        lipschitz=1.0, n_candidates=(3.0, 4.0, 25.0),
    )
    g = build_approximant(spec, recipe)
    doc = to_network_document(g, recipe, spec)
    assert [u["output_coefficient"] for u in doc["units"]] == [0.0, 0.25, 0.25, 0.25, 0.25]


def test_biases_exactly_minus_w_times_centers():
    spec, recipe, g = pipeline("x^2", 2.0, 1.0, 0.2)
    doc = to_network_document(g, recipe, spec)
    pts = g.partition.points
    centers = [pts[0]] + list(pts[2:])
    for unit, c in zip(doc["units"], centers):
        assert unit["hidden_bias"] == -g.w * c
        assert unit["hidden_weight"] == g.w


def test_round_trip_through_disk(tmp_path):
    spec, recipe, g = pipeline(WIGGLY, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.2)
    path = tmp_path / "network.json"
    write_network_document(to_network_document(g, recipe, spec), path)
    doc = read_network_document(path)
    rebuilt = approximant_from_document(doc)
    rng = random.Random(11)
    for _ in range(1000):
        x = rng.uniform(0.0, 1.0)
        a = evaluate(g, x)
        b = evaluate(rebuilt, x)
        assert abs(a - b) <= 2 * math.ulp(max(abs(a), abs(b), 1e-300))


def test_document_validation_errors():
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    doc = to_network_document(g, recipe, spec)
    bad = dict(doc, format_version="2")
    with pytest.raises(ValueError):
        approximant_from_document(bad)
    bad = dict(doc, activation="relu")
    with pytest.raises(ValueError):
        approximant_from_document(bad)
    bad = dict(doc, units=doc["units"][:-1])
    with pytest.raises(ValueError):
        approximant_from_document(bad)


def test_document_is_plain_json(tmp_path):
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    path = tmp_path / "network.json"
    write_network_document(to_network_document(g, recipe, spec), path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    # shortest round-trip decimal serialization is lossless
    assert doc["units"][0]["hidden_weight"] == g.w


def test_samples_row_count(tmp_path):
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    path = tmp_path / "samples.csv"
    rows = write_samples(g, spec, 2, path)
    assert rows == 2
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == SAMPLES_HEADER


def test_samples_zero_function(tmp_path):
    spec, recipe, g = pipeline("0", 1.0, 0.0, 0.1)
    path = tmp_path / "samples.csv"
    write_samples(g, spec, 50, path)
    lines = path.read_text().strip().split("\n")[1:]
    assert all(float(line.split(",")[3]) == 0.0 for line in lines)


def test_samples_max_error_matches_validate(tmp_path):
    spec, recipe, g = pipeline(WIGGLY, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.2)
    path = tmp_path / "samples.csv"
    grid = 2001
    write_samples(g, spec, grid, path)
    lines = path.read_text().strip().split("\n")[1:]
    max_err = max(float(line.split(",")[3]) for line in lines)

    def err(x):
        return abs(evaluate(g, x) - spec(x))

    assert max_err == max(map(err, reference_uniform_grid(0.0, 1.0, grid)))
    # validate covers the samples' grid plus the knots, so its sup is the
    # larger one whenever a knot beats every grid point
    report = validate(g, spec, 0.2, grid)
    xs = reference_validation_grid(0.0, 1.0, grid, g.partition.points)
    assert (report.sup_error, report.argmax_x) == leftmost_sup(err, xs)
    assert report.sup_error >= max_err


def test_samples_rejects_small_grid(tmp_path):
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    with pytest.raises(ValueError):
        write_samples(g, spec, 1, tmp_path / "s.csv")
