import dataclasses
import io
import json
import math
import random
import re
from fractions import Fraction

import pytest

from sigapprox.engine import (
    ErrorReport,
    Recipe,
    RecipeError,
    build_approximant,
    compute_recipe,
    evaluate,
    validate,
)
from sigapprox.expressions import EvalDomainError, FunctionSpec
from sigapprox.export import (
    SAMPLES_HEADER,
    approximant_from_document,
    read_network_document,
    samples_file,
    to_network_document,
    write_network,
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


def overflowing_pipeline():
    """G with w = 1e300 on [1e10, 2e10] and N = 2: every bias -w * x_k
    overflows to -inf, which JSON spells -Infinity."""
    spec, recipe, _ = hand_pipeline("x", 1e10, 2e10, 2)
    recipe = dataclasses.replace(recipe, w=1e300)
    g = build_approximant(spec, recipe)
    assert [-g.w * c for c in g.centers] == [-math.inf] * 3
    return spec, recipe, g


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
    """f = 1e308*sin(pi*(x - 0.5)) on [0, 1] with N = 1: f(a) = -1e308 and
    f(b) = 1e308, so the one forward difference overflows to inf.  No G
    can hold that weight, so the document is written out by hand, as
    older builds wrote it."""
    text = "1e308*sin(pi*(x-0.5))"
    with pytest.raises(RecipeError, match=r"^unit 1 has output_coefficient inf at x_2 = 1\.0, "):
        hand_pipeline(text, 0.0, 1.0, 1)
    doc = hand_document("x", 0.0, 1.0, 1)
    doc["metadata"]["source_expression"] = text
    doc["units"][0]["output_coefficient"] = -1e308
    doc["units"][1]["output_coefficient"] = math.inf
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: pipeline(WIGGLY, 1.0 + 1.8 * math.pi + 0.2, 1.05, 0.01),
        lambda: hand_pipeline("x^2", 0.0, 1.0, 1),
        lambda: hand_pipeline("x", -1.0, 1.0, 2),
        overflowing_pipeline,
    ],
    ids=["wiggly", "n1", "negative-zero-bias", "overflowing-bias"],
)
def test_write_network_matches_the_document_writer(make, tmp_path):
    spec, recipe, g = make()
    want = io.StringIO()
    doc = to_network_document(g, recipe, spec)
    write_network_document(doc, want)
    assert want.getvalue() == reference_network_json(doc)
    out = io.StringIO()
    write_network(g, recipe, spec, out)
    assert out.getvalue() == want.getvalue()
    path = tmp_path / "network.json"
    write_network(g, recipe, spec, path)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_writer_refuses_a_document_with_no_units(tmp_path):
    doc = n1_document()
    del doc["units"]
    out = io.StringIO()
    with pytest.raises(ValueError, match="^a network document needs units$"):
        write_network_document(doc, out)
    assert out.getvalue() == ""
    with pytest.raises(ValueError, match="^a network document needs units$"):
        write_network_document(doc, tmp_path / "net.json")
    assert list(tmp_path.iterdir()) == []


def test_writer_lays_out_empty_units_as_json_does():
    doc = dict(n1_document(), units=[])
    out = io.StringIO()
    write_network_document(doc, out)
    assert out.getvalue() == reference_network_json(doc)
    assert '"units": [],' in out.getvalue()


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
        # iterates to the keys, but has no values
        ["hidden_weight", "hidden_bias", "output_coefficient"],
        1.0,
    ],
    ids=["extra-key", "reordered", "missing-key", "list-of-keys", "number"],
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_loader_rejects_a_non_finite_coefficient(value):
    doc = hand_document("x", 0.0, 1.0, 4)
    approximant_from_document(doc)
    units = [dict(u) for u in doc["units"]]
    units[3]["output_coefficient"] = value
    with pytest.raises(ValueError, match=f"unit 3 has output_coefficient {value!r}"):
        approximant_from_document(dict(doc, units=units))


def test_loader_rejects_the_overflowing_difference_build_can_make():
    with pytest.raises(ValueError, match="unit 1 has output_coefficient inf"):
        approximant_from_document(infinite_coefficient_document())


def test_loader_rejects_nan_literals_in_the_json_text():
    text = reference_network_json(hand_document("x", 0.0, 1.0, 4))
    approximant_from_document(read_network_document(io.StringIO(text)))
    text = text.replace('"output_coefficient": 0.25', '"output_coefficient": NaN', 1)
    doc = read_network_document(io.StringIO(text))
    with pytest.raises(ValueError, match="unit 1 has output_coefficient nan"):
        approximant_from_document(doc)


@pytest.mark.parametrize("recompute", [False, True],
                         ids=["biases-as-written", "biases-recomputed"])
@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_loader_names_the_slope(w, recompute):
    # the slope is refused before any bias is compared: nan would fail unit
    # 0's own weight check (nan != nan), and inf with the biases as written
    # its bias check (-w * x_0 = -inf * -0.25 is not 1.0986...)
    spec, recipe, g = hand_pipeline("x", 0.0, 1.0, 4)
    doc = to_network_document(g, recipe, spec)
    units = [dict(u, hidden_weight=w, **({"hidden_bias": -w * c} if recompute else {}))
             for u, c in zip(doc["units"], g.centers)]
    with pytest.raises(RecipeError, match=f"^hidden_weight {re.escape(repr(w))} "
                                          "is not positive and finite$"):
        approximant_from_document(dict(doc, units=units))


@pytest.mark.parametrize("scale", [-1.0, 0.0, math.inf])
def test_loader_refuses_a_slope_that_is_not_positive_and_finite(scale):
    # the weights and biases agree, so only the network type can refuse
    # them.  With the slope negated `evaluate` would give 0.68 at x = 0.5
    # where the sum over the units is 0.51; with w = 0 it divides by zero
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    assert recipe.n == 50
    doc = to_network_document(g, recipe, spec)
    w = scale * g.w
    units = [dict(u, hidden_weight=w, hidden_bias=-w * c)
             for u, c in zip(doc["units"], g.centers)]
    with pytest.raises(RecipeError, match=f"^hidden_weight {w!r} is not positive and finite$"):
        approximant_from_document(dict(doc, units=units))


@pytest.mark.parametrize("n,count", [(-1, 0), (0, 1)])
def test_loader_rejects_an_n_below_one(n, count):
    doc = hand_document("x", 0.0, 1.0, 4)
    doc["metadata"]["N"] = n
    doc["units"] = doc["units"][:count]
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        approximant_from_document(doc)


@pytest.mark.parametrize("n", [4.0, 4.9, True, "4", None])
def test_loader_rejects_an_n_that_is_not_an_int(n):
    # each of these once loaded as the document's 5-unit network (int(4.9) = 4)
    doc = hand_document("x", 0.0, 1.0, 4)
    doc["metadata"]["N"] = n
    with pytest.raises(ValueError, match=f"N must be an integer, got {n!r}"):
        approximant_from_document(doc)


def _unit_w1_document():
    """`hand_document`'s network with the slope 1.0, which True equals."""
    spec, recipe, g = hand_pipeline("x", 0.0, 1.0, 4)
    return to_network_document(dataclasses.replace(g, w=1.0), recipe, spec)


def _set(doc, where, key, value):
    record = doc["metadata"] if where == "metadata" else doc["units"][where]
    record[key] = value


def _drop(doc, where, key):
    del doc["units"][where][key]


def _replace_unit(doc, where, value):
    doc["units"][where] = value


@pytest.mark.parametrize("make,edit,message", [
    (None, lambda d: _set(d, 3, "output_coefficient", "0.5"),
     "unit 3 has output_coefficient '0.5', which is not a number"),
    (None, lambda d: _set(d, 4, "output_coefficient", True),
     "unit 4 has output_coefficient True, which is not a number"),
    (None, lambda d: _set(d, 2, "output_coefficient", None),
     "unit 2 has output_coefficient None, which is not a number"),
    (None, lambda d: _set(d, 2, "output_coefficient", [0.25]),
     r"unit 2 has output_coefficient \[0\.25\], which is not a number"),
    (None, lambda d: _set(d, 1, "output_coefficient", 10**400),
     "unit 1 has output_coefficient 1000+, which no double can hold$"),
    (None, lambda d: _set(d, 0, "hidden_weight", "4.39"),
     "unit 0 has hidden_weight '4.39', which is not a number"),
    (None, lambda d: _set(d, 2, "hidden_bias", None), "unit 2 has hidden_bias None"),
    (None, lambda d: _set(d, 2, "hidden_weight", [1.0]), r"unit 2 has hidden_weight \[1\.0\]"),
    (_unit_w1_document, lambda d: _set(d, 1, "hidden_weight", True),
     "unit 1 has hidden_weight True"),
    (_unit_w1_document, lambda d: _set(d, 0, "hidden_weight", True),
     "unit 0 has hidden_weight True, which is not a number"),
    (None, lambda d: _drop(d, 1, "output_coefficient"), "unit 1 has no output_coefficient"),
    (None, lambda d: _drop(d, 3, "hidden_bias"), "unit 3 has no hidden_bias"),
    (None, lambda d: _replace_unit(d, 3, [0.25]), r"unit 3 is \[0\.25\], not an object"),
    (None, lambda d: _replace_unit(d, 0, None), "unit 0 is None, not an object"),
    (None, lambda d: _set(d, "metadata", "a", "0"), "metadata has a '0', which is not a number"),
    (None, lambda d: _set(d, "metadata", "b", True), "metadata has b True, which is not a number"),
    (None, lambda d: d["metadata"].pop("b"), "metadata has no b"),
    (None, lambda d: d.pop("metadata"), "metadata is None, not an object"),
    (None, lambda d: d.update(units={}), "units is {}, not a list"),
])
def test_loader_accepts_only_numbers_where_numbers_belong(make, edit, message):
    # float() took strings and bools as numbers: with unit 3's coefficient
    # "0.5", unit 4's True and metadata a "0" this document loaded, and G
    # gave 0.5375 at x = 0.5 for the 0.4 of the network as built.  A null,
    # a list, a missing key or a unit that is not an object raised
    # TypeError or KeyError
    doc = (make or (lambda: hand_document("x", 0.0, 1.0, 4)))()
    approximant_from_document(doc)
    edit(doc)
    with pytest.raises(ValueError, match=f"^{message}"):
        approximant_from_document(doc)


def test_loader_takes_ints_as_the_numbers_they_are():
    spec, recipe, g = hand_pipeline("x", 0.0, 1.0, 4)
    doc = to_network_document(g, recipe, spec)
    doc["metadata"].update(a=0, b=1)
    doc["units"][2]["output_coefficient"] = 0
    g0 = approximant_from_document(doc)
    assert (g0.partition, g0.w) == (g.partition, g.w)
    assert g0.unit_coeffs == (0.0, 0.25, 0.0, 0.25, 0.25)
    assert type(g0.unit_coeffs[2]) is float


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


@pytest.mark.parametrize("doc,name", [([], "list"), (None, "NoneType"), ("x", "str")])
def test_a_document_that_is_not_an_object_is_refused_by_its_type(doc, name):
    with pytest.raises(ValueError, match=f"^the document is a {name}, not an object$"):
        approximant_from_document(doc)


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


def counted(spec, calls):
    """A spec like `spec` that appends each x it is evaluated at to `calls`."""

    class Counted(FunctionSpec):
        def __call__(self, x):
            calls.append(x)
            return super().__call__(x)

    return Counted(spec.ast, spec.interval, spec.lipschitz, spec.sup_bound,
                   spec.modulus_override, spec.text)


def test_validation_rows_reuse_values_at_repeated_points():
    spec = FunctionSpec.from_text("x", 1.0, 1.00000000000001, lipschitz=1.0, sup_bound=1.0)
    g = build_approximant(spec, compute_recipe(spec, 0.2))
    calls, rows = [], []
    report = validate(g, counted(spec, calls), 0.2, 1001, lambda *r: rows.append(r))
    assert len(calls) == report.grid_size == 46
    assert [r[0] for r in rows] == reference_uniform_grid(1.0, 1.00000000000001, 1001)


def check_three_networks(spec, recipe, epsilon, grid_size, calls, tmp_path):
    """G as built from `spec` (a `counted` spec), the same G with the built
    values dropped, and G reloaded from its document: equal networks, and
    the same report and samples CSV bytes from each.  Only the first takes
    f at the knots from the build."""
    g = build_approximant(spec, recipe)
    assert g.built_from[0] is spec
    assert list(g.built_from[1]) == [spec(x) for x in g.partition.points[1:]]
    dropped = dataclasses.replace(g)
    out = io.StringIO()
    write_network(g, recipe, spec, out)
    reloaded = approximant_from_document(read_network_document(io.StringIO(out.getvalue())))
    assert g == dropped == reloaded and hash(g) == hash(reloaded)
    assert repr(g) == repr(reloaded) and reloaded.built_from is None
    a, b = spec.interval.a, spec.interval.b
    distinct = len(set(reference_uniform_grid(a, b, grid_size)))
    path = tmp_path / "samples.csv"
    results = []
    for net in (g, dropped, reloaded):
        del calls[:]
        with samples_file(path) as row:
            report = validate(net, spec, epsilon, grid_size, row)
        results.append((report, path.read_bytes()))
        # f once per distinct point; the built G knows f at the knots
        assert len(calls) == (distinct if net is g else report.grid_size)
    assert results[0] == results[1] == results[2]
    assert results[0] == (validate(g, spec, epsilon, grid_size),
                          reference_samples_csv(g, spec, epsilon, grid_size)[1].encode())
    return results[0][0]


@pytest.mark.parametrize("case", FUSED_CASES, ids=list(FUSED_CASES))
def test_built_values_change_no_report_or_row(case, tmp_path):
    text, a, b, lipschitz, sup, eps, grid, n, grid_size = FUSED_CASES[case]
    calls = []
    spec = counted(FunctionSpec.from_text(text, a, b, lipschitz=lipschitz, sup_bound=sup), calls)
    report = check_three_networks(spec, compute_recipe(spec, eps), eps, grid, calls, tmp_path)
    if grid_size is not None:
        assert report.grid_size == grid_size


@pytest.mark.parametrize("grid", [2, 7])
def test_built_values_change_no_report_or_row_single_cell(grid, tmp_path):
    spec, recipe, _ = hand_pipeline("x^2", 0.0, 1.0, 1)
    calls = []
    check_three_networks(counted(spec, calls), recipe, 1.0, grid, calls, tmp_path)


def test_validate_against_another_spec_evaluates_f_at_the_knots(monkeypatch):
    spec = FunctionSpec.from_text("x", 0.0, 1.0, lipschitz=1.0, sup_bound=1.0)
    g = build_approximant(spec, compute_recipe(spec, 0.2))
    calls = []
    call = FunctionSpec.__call__

    def counting(self, x):
        calls.append(x)
        return call(self, x)

    monkeypatch.setattr(FunctionSpec, "__call__", counting)
    xs = reference_validation_grid(0.0, 1.0, 101, g.partition.points)
    # x*x: G is checked against a different f, so no built value may be used
    square = FunctionSpec.from_text("x*x", 0.0, 1.0)
    report = validate(g, square, 0.2, 101)
    sup, argmax = leftmost_sup(lambda x: abs(evaluate(g, x) - x * x), xs)
    assert report == ErrorReport(len(xs), sup, argmax, 0.2, sup < 0.2)
    assert calls == xs
    # an equal but distinct spec evaluates f at the knots too
    twin = FunctionSpec.from_text("x", 0.0, 1.0, lipschitz=1.0, sup_bound=1.0)
    assert twin == spec and twin is not spec
    del calls[:]
    assert validate(g, twin, 0.2, 101) == validate(g, spec, 0.2, 101)
    assert len(calls) == len(xs) + 101 == 205


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


# the README quick start's network, with L and M_f supplied
def quick_start():
    return pipeline("sin(6*pi*x)", 6 * math.pi, 1.0, 0.05)


def failing_document_write(path):
    """write_network_document of a document whose unit 3 has other keys:
    the writer raises after three units."""
    spec, recipe, g = quick_start()
    doc = to_network_document(g, recipe, spec)
    doc["units"][3] = {"a": 1}
    with pytest.raises(ValueError, match="unit 3 has keys"):
        write_network_document(doc, path)


def failing_network_write(path):
    """write_network with a recipe whose L is a Fraction: every unit is
    written, then the metadata is not JSON."""
    spec, recipe, g = quick_start()
    recipe = dataclasses.replace(recipe, lipschitz=Fraction(recipe.lipschitz))
    with pytest.raises(TypeError, match="Fraction"):
        write_network(g, recipe, spec, path)


def failing_samples_write(path):
    """write_samples of ln(0.5 - x), which is undefined from x = 0.5 on, so
    the rows stop half-way through the grid."""
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    undefined = FunctionSpec.from_text("ln(0.5-x)", 0, 1)
    with pytest.raises(EvalDomainError, match=r"at x=0\.5\b"):
        write_samples(g, undefined, 101, path)


@pytest.mark.parametrize(
    "fail",
    [failing_document_write, failing_network_write, failing_samples_write],
    ids=["write_network_document", "write_network", "write_samples"],
)
def test_a_path_write_that_fails_part_way_keeps_the_previous_file(fail, tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"old")
    fail(path)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    # a path that held nothing is not made
    fail(tmp_path / "new")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def _write_each(destination):
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    return {
        "write_network_document": lambda: write_network_document(
            to_network_document(g, recipe, spec), destination),
        "write_network": lambda: write_network(g, recipe, spec, destination),
        "write_samples": lambda: write_samples(g, spec, 11, destination),
    }


@pytest.mark.parametrize("writer", ["write_network_document", "write_network", "write_samples"])
def test_a_stream_is_written_through_and_left_open(writer, tmp_path):
    path = tmp_path / "out"
    _write_each(path)[writer]()
    out = io.StringIO()
    out.write("before\n")
    _write_each(out)[writer]()
    assert not out.closed
    out.write("after\n")
    assert out.getvalue() == "before\n" + path.read_text(encoding="utf-8") + "after\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_samples_file_takes_a_stream():
    spec, recipe, g = pipeline("x", 1.0, 1.0, 0.2)
    out = io.StringIO()
    with samples_file(out) as row:
        report = validate(g, spec, 0.2, 11, row)
    assert not out.closed
    assert (report, out.getvalue()) == reference_samples_csv(g, spec, 0.2, 11)
