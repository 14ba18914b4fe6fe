import io
import json
import math
import random

import pytest

from sigapprox.engine import Recipe, build_approximant, compute_recipe, evaluate, validate
from sigapprox.expressions import FunctionSpec
from sigapprox.export import (
    SAMPLES_HEADER,
    approximant_from_document,
    read_network_document,
    samples_file,
    to_network_document,
    write_network_document,
    write_samples,
)

from oracles import (
    leftmost_sup,
    reference_network_json,
    reference_samples_csv,
    reference_uniform_grid,
    reference_validation_grid,
)

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


def hand_pipeline(text, a, b, n):
    """G for f on [a, b] with N fixed by hand: w = ln 3 / h, the bounds are
    nominal."""
    spec = FunctionSpec.from_text(text, a, b, lipschitz=1.0, sup_bound=1.0)
    h = (b - a) / n
    recipe = Recipe(
        epsilon=0.2, m_f=1.0, m_sigma=1.0, eta=0.04, delta=0.04,
        n=n, h=h, w=math.log(3.0) / h, a=a, b=b,
        lipschitz=1.0, n_candidates=(float(n), float(n), float(n)),
    )
    return spec, recipe, build_approximant(spec, recipe)


def hand_document(text, a, b, n):
    """The document of `hand_pipeline`'s G."""
    spec, recipe, g = hand_pipeline(text, a, b, n)
    return to_network_document(g, recipe, spec)


def test_identity_document_coefficients():
    doc = hand_document("x", 0.0, 1.0, 4)
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
        assert evaluate(rebuilt, x).hex() == evaluate(g, x).hex()


def wiggly_document():
    # the paper's worked example, N = 6924
    spec, recipe, g = pipeline(WIGGLY, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.01)
    assert recipe.n == 6924
    return to_network_document(g, recipe, spec)


def n1_document():
    return hand_document("x^2", 0.0, 1.0, 1)


def negative_zero_bias_document():
    # x_2 = 0 on [-1, 1] with N = 2, so its bias is -w * 0.0 = -0.0
    doc = hand_document("x", -1.0, 1.0, 2)
    assert math.copysign(1.0, doc["units"][1]["hidden_bias"]) == -1.0
    return doc


def infinite_coefficient_document():
    # f(a) = -1e308 and f(b) = 1e308, so f(x_2) - f(x_1) overflows
    doc = hand_document("1e308*sin(pi*(x-0.5))", 0.0, 1.0, 1)
    assert doc["units"][1]["output_coefficient"] == math.inf
    return doc


def non_ascii_document():
    doc = n1_document()
    doc["metadata"]["source_expression"] = "sin(2πx) · ½ — \U0001d453"
    return doc


DOCUMENTS = [
    wiggly_document,
    n1_document,
    negative_zero_bias_document,
    infinite_coefficient_document,
    non_ascii_document,
]


@pytest.mark.parametrize("make_doc", DOCUMENTS, ids=lambda f: f.__name__)
def test_writer_matches_json_layout(make_doc, tmp_path):
    doc = make_doc()
    want = reference_network_json(doc)
    out = io.StringIO()
    write_network_document(doc, out)
    assert out.getvalue() == want
    path = tmp_path / "network.json"
    write_network_document(doc, path)
    assert path.read_bytes() == want.encode("utf-8")


def test_writer_matches_json_on_edited_units():
    doc = hand_document("x", 0.0, 1.0, 3)
    units = doc["units"]
    units[0]["output_coefficient"] = -math.inf
    units[1]["output_coefficient"] = math.nan
    units[1]["hidden_bias"] = 3
    units[2]["hidden_weight"] = 2.5
    out = io.StringIO()
    write_network_document(doc, out)
    assert out.getvalue() == reference_network_json(doc)
    assert "-Infinity" in out.getvalue() and "NaN" in out.getvalue()


@pytest.mark.parametrize(
    "unit",
    [
        {"hidden_weight": 1.0, "hidden_bias": 0.0, "output_coefficient": 0.0, "extra": 1},
        {"hidden_bias": 0.0, "hidden_weight": 1.0, "output_coefficient": 0.0},
        {"hidden_weight": 1.0, "hidden_bias": 0.0},
    ],
    ids=["extra-key", "reordered", "missing-key"],
)
def test_writer_rejects_other_unit_layouts(unit):
    doc = n1_document()
    doc["units"][1] = unit
    with pytest.raises(ValueError, match="unit 1"):
        write_network_document(doc, io.StringIO())


def test_loader_rejects_tampered_biases():
    spec, recipe, g = pipeline(WIGGLY, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.2)
    doc = to_network_document(g, recipe, spec)
    approximant_from_document(doc)
    k = len(doc["units"]) // 2
    bias = doc["units"][k]["hidden_bias"]
    for tampered in (math.nextafter(bias, math.inf), bias * (1 + 1e-9)):
        units = [dict(u) for u in doc["units"]]
        units[k]["hidden_bias"] = tampered
        with pytest.raises(ValueError, match=f"unit {k} has hidden_bias"):
            approximant_from_document(dict(doc, units=units))


def test_loader_rejects_positive_zero_for_negative_zero_bias():
    doc = negative_zero_bias_document()
    approximant_from_document(doc)
    units = [dict(u) for u in doc["units"]]
    units[1]["hidden_bias"] = 0.0
    with pytest.raises(ValueError, match="unit 1 has hidden_bias"):
        approximant_from_document(dict(doc, units=units))


def test_loader_rejects_a_second_weight():
    doc = n1_document()
    units = [dict(u) for u in doc["units"]]
    units[1]["hidden_weight"] = math.nextafter(units[1]["hidden_weight"], 0.0)
    with pytest.raises(ValueError, match="unit 1 has hidden_weight"):
        approximant_from_document(dict(doc, units=units))


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


# the f of each benchmark workload at a larger eps, so N stays small
DEEP = " + ".join(f"sin({9 * k / 100:.2f}*x + {5 * k / 1000:.3f})/{k}" for k in range(1, 17))
FUSED_CASES = {
    # (f, a, b, L, sup_bound, eps, grid, N or None, validation grid_size or None)
    "wiggly": (WIGGLY, 0.0, 1.0, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.2, 501, None, None),
    "deep-estimated": (DEEP, 0.0, 1.0, None, None, 0.2, 301, None, None),
    "large-n": ("sin(2*pi*x) + 0.5*x", 0.0, 1.0, 2 * math.pi + 0.5, 1.5, 0.05, 401, None, None),
    # 46 of the 49 knots k/50 land on a grid point j/100
    "knots-on-grid": ("x", 0.0, 1.0, 1.0, 1.0, 0.2, 101, 50, 104),
    # 1001 uniform points but only a few distinct doubles in [1, 1 + 1e-14]
    "repeated-points": ("x", 1.0, 1.00000000000001, 1.0, 1.0, 0.2, 1001, None, 46),
    "grid-2": (WIGGLY, 0.0, 1.0, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.2, 2, None, None),
}


def fused_samples(g, spec, epsilon, grid_size, path):
    """The CLI's single walk: validate, with its rows going to samples_file."""
    with samples_file(path) as row:
        report = validate(g, spec, epsilon, grid_size, row)
    return report, path.read_text(encoding="utf-8")


def check_fused_walk(g, spec, epsilon, grid_size, tmp_path):
    path = tmp_path / "samples.csv"
    report, text = fused_samples(g, spec, epsilon, grid_size, path)
    assert (report, text) == reference_samples_csv(g, spec, epsilon, grid_size)
    assert report == validate(g, spec, epsilon, grid_size)
    a, b = spec.interval.a, spec.interval.b
    xs = reference_validation_grid(a, b, grid_size, g.partition.points)
    sup = leftmost_sup(lambda x: abs(evaluate(g, x) - spec(x)), xs)
    assert (report.grid_size, report.sup_error, report.argmax_x) == (len(xs), *sup)
    assert text.count("\n") == grid_size + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.csv"]
    return report


@pytest.mark.parametrize("case", FUSED_CASES, ids=list(FUSED_CASES))
def test_validation_rows_match_two_walks(case, tmp_path):
    text, a, b, lipschitz, sup, eps, grid, n, grid_size = FUSED_CASES[case]
    spec = FunctionSpec.from_text(text, a, b, lipschitz=lipschitz, sup_bound=sup)
    g = build_approximant(spec, compute_recipe(spec, eps))
    report = check_fused_walk(g, spec, eps, grid, tmp_path)
    if n is not None:
        assert g.partition.n_intervals == n
    if grid_size is not None:
        assert report.grid_size == grid_size


@pytest.mark.parametrize("grid", [2, 7])
def test_validation_rows_single_cell(grid, tmp_path):
    spec, recipe, g = hand_pipeline("x^2", 0.0, 1.0, 1)
    check_fused_walk(g, spec, 1.0, grid, tmp_path)


def test_validation_rows_reuse_values_at_repeated_points():
    spec = FunctionSpec.from_text("x", 1.0, 1.00000000000001, lipschitz=1.0, sup_bound=1.0)
    g = build_approximant(spec, compute_recipe(spec, 0.2))
    calls, rows = [], []

    class Counted(FunctionSpec):
        def __call__(self, x):
            calls.append(x)
            return super().__call__(x)

    counted = Counted(spec.ast, spec.interval, spec.lipschitz, spec.sup_bound)
    report = validate(g, counted, 0.2, 1001, lambda *r: rows.append(r))
    assert len(calls) == report.grid_size == 46
    assert [r[0] for r in rows] == reference_uniform_grid(1.0, 1.00000000000001, 1001)


def test_samples_file_removes_its_temporary_file_on_error(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("kept\n")
    with pytest.raises(RuntimeError):
        with samples_file(path) as row:
            row(0.0, 1.0, 1.0)
            raise RuntimeError("validation stopped")
    assert path.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]


def test_samples_file_unwritable_directory_raises_on_entry(tmp_path):
    sink = samples_file(tmp_path / "missing" / "samples.csv")
    with pytest.raises(FileNotFoundError):
        sink.__enter__()
    assert list(tmp_path.iterdir()) == []
