"""Tests of the benchmark itself: shrunken smoke runs of every workload, and
each correctness check rejecting a deliberately perturbed value.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, checks, import_library
from perfbench.run import Bench
from perfbench.spans import Span, Tracer
from perfbench.workloads import DEEP_TERMS, DEEP_TEXT, WORKLOADS

lib = import_library()

END_TO_END = ["setup_s", "certify_s", "query_p50_us", "query_p99_us", "explain_s",
              "export_s", "reload_s", "cli_s", "peak_rss_mb", "cli_peak_rss_mb"]

SMALL = {
    "wiggly": dict(eps=0.2, grid=2001),
    "deep-estimated": dict(eps=0.2, grid=2001),
    "large-n": dict(eps=0.02, grid=2001),
}


def shrunk(name):
    return dataclasses.replace(WORKLOADS[name], queries=200, explain_points=4,
                               naive_points=2, check_points=8, **SMALL[name])


@pytest.fixture(scope="module")
def wiggly_small():
    w = shrunk("wiggly")
    spec = lib.FunctionSpec.from_text(w.text, w.a, w.b, lipschitz=w.lipschitz,
                                      sup_bound=w.sup)
    recipe = lib.compute_recipe(spec, w.eps)
    g = lib.build_approximant(spec, recipe)
    report = lib.validate(g, spec, w.eps, w.grid)
    return w, spec, recipe, g, report


# --- smoke runs -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_untraced(name):
    result = Bench(lib, shrunk(name), seed=3, seconds=0, trace=False,
                   min_rounds=1).run()
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (6, 0)
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_run_traced_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    bench = Bench(lib, shrunk("deep-estimated"), seed=3, seconds=0, trace=True,
                  min_rounds=2)
    result = bench.run()
    assert result["correct"] is True and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == per_layer
    assert result["metrics"]["sigmoid.calls_per_g"]["value"] > 0
    with open(bench.write_trace(), encoding="utf-8") as fh:
        trace = json.load(fh)
    assert {"certify", "engine.validate", "cli.startup"} <= set(trace["self_ms"])


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wiggly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- workload definitions ---------------------------------------------------

def _nodes(node):
    kids = [getattr(node, k) for k in ("operand", "left", "right") if hasattr(node, k)]
    return 1 + sum(_nodes(k) for k in kids)


def test_deep_workload_shape_and_analytic_bounds():
    assert _nodes(lib.parse(DEEP_TEXT)) >= 60
    # every sine argument stays in [0, pi/2] on [0, 1]: the derivation of
    # sup|f| = f(1) and sup|f'| = f'(0) rests on it
    assert all(float(om) + float(ph) <= math.pi / 2 for _, om, ph in DEEP_TERMS)
    w = WORKLOADS["deep-estimated"]
    assert w.analytic_sup == pytest.approx(w.plain(1.0), rel=1e-15)
    h = 1e-6
    assert w.analytic_lipschitz == pytest.approx((w.plain(h) - w.plain(-h)) / (2 * h),
                                                 rel=1e-8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plain_copy_matches_library(name):
    w = WORKLOADS[name]
    spec = lib.FunctionSpec.from_text(w.text, w.a, w.b)
    xs = [w.a + (w.b - w.a) * j / 97 for j in range(98)]
    assert checks.f_failures(w.plain, [(x, spec(x)) for x in xs]) == []


def test_supplied_recipes_have_the_documented_sizes():
    assert checks.exact_n(0.0, 1.0, 0.01, 1.05, WORKLOADS["wiggly"].lipschitz) == 6924
    w = WORKLOADS["large-n"]
    assert 9e4 <= checks.exact_n(w.a, w.b, w.eps, w.sup, w.lipschitz) <= 1.1e5


# --- each check rejects a perturbed value -----------------------------------

def test_recipe_check_rejects_wrong_n_and_slope(wiggly_small):
    w, _, r, _, _ = wiggly_small
    args = (w.a, w.b, w.eps, w.sup, w.lipschitz)
    assert checks.recipe_failures(*args, r.n, r.h, r.w) == []
    assert checks.recipe_failures(*args, r.n + 1, r.h, r.w)
    assert checks.recipe_failures(*args, r.n, r.h, r.w * (1 + 1e-12))
    assert checks.recipe_failures(*args, r.n, r.h * (1 + 1e-12), r.w)


def test_f_and_coefficient_checks_reject_perturbation(wiggly_small):
    w, spec, _, g, _ = wiggly_small
    pairs = [(x, spec(x)) for x in (0.1, 0.3, 0.77)]
    assert checks.f_failures(w.plain, pairs) == []
    assert checks.f_failures(w.plain, [(x, fx + 1e-9) for x, fx in pairs])
    pts, ks = g.partition.points, [2, 50, g.partition.n_intervals + 1]
    assert checks.coefficient_failures(w.plain, pts, g.coeff0, g.coeffs, ks) == []
    bent = list(g.coeffs)
    bent[48] += 1e-9
    assert checks.coefficient_failures(w.plain, pts, g.coeff0, bent, ks)
    assert checks.coefficient_failures(w.plain, pts, g.coeff0 + 1e-9, g.coeffs, [])


def test_naive_g_check_rejects_shifted_g(wiggly_small):
    _, spec, r, g, _ = wiggly_small
    units = lib.to_network_document(g, r, spec)["units"]
    pairs = [(x, lib.evaluate(g, x)) for x in (0.0, 0.31, 0.5, 1.0)]
    assert checks.naive_g_failures(units, pairs) == []
    assert checks.naive_g_failures(units, [(x, gx + 1e-9) for x, gx in pairs])


def test_sup_check_rejects_understated_sup_and_missed_eps(wiggly_small):
    w, _, _, g, report = wiggly_small
    pts = [(x, lib.evaluate(g, x), w.plain(x))
           for x in (report.argmax_x, 0.25, 0.9)]
    assert checks.sup_failures(pts, report.sup_error, w.eps) == []
    assert checks.sup_failures(pts, report.sup_error * 0.99, w.eps)
    assert checks.sup_failures(pts, report.sup_error, report.sup_error)


def test_decomposition_check_rejects_broken_budget(wiggly_small):
    w, spec, r, g, _ = wiggly_small
    x = 0.61
    d = lib.error_decomposition(g, spec, r, x)
    gx, fx = lib.evaluate(g, x), w.plain(x)
    eta = w.eps / (w.sup + 4.0)
    assert checks.decomposition_failures(w.eps, w.sup, d.i1, d.i2, gx, fx) == []
    assert checks.decomposition_failures(w.eps, w.sup, (1 + w.sup) * eta * 1.01,
                                         d.i2, gx, fx)
    assert checks.decomposition_failures(w.eps, w.sup, d.i1, 3 * eta * 1.01, gx, fx)
    assert checks.decomposition_failures(w.eps, w.sup, d.i1, d.i2, gx + 2 * (d.i1 + d.i2),
                                         fx)


def test_round_trip_checks_reject_broken_round_trip(wiggly_small):
    _, spec, r, g, _ = wiggly_small
    buf = io.StringIO()
    lib.write_network_document(lib.to_network_document(g, r, spec), buf)
    doc = lib.read_network_document(io.StringIO(buf.getvalue()))
    g2 = lib.approximant_from_document(doc)
    pairs = [(x, lib.evaluate(g, x), lib.evaluate(g2, x)) for x in (0.0, 0.4, 1.0)]
    assert checks.document_failures(doc, r.n, r.w) == []
    assert checks.round_trip_failures(pairs) == []
    x, before, after = pairs[1]
    assert checks.round_trip_failures([(x, before, math.nextafter(after, 2.0))])
    short = dict(doc, units=doc["units"][:-1])
    assert checks.document_failures(short, r.n, r.w)
    bent = dict(doc, units=[dict(doc["units"][0], hidden_weight=r.w * 2)]
                + doc["units"][1:])
    assert checks.document_failures(bent, r.n, r.w)


def test_samples_check_rejects_bad_rows(wiggly_small):
    w, spec, _, g, report = wiggly_small
    buf = io.StringIO()
    lib.write_samples(g, spec, w.grid, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    args = (w.a, w.b, w.grid, w.eps, report.sup_error, w.plain, [0, 7, w.grid - 1])
    assert checks.samples_failures(lines, *args) == []
    assert checks.samples_failures(lines[:-1], *args)
    x, fx, gx, err = lines[5].rstrip("\n").split(",")
    broken = lines[:5] + [f"{x},{fx},{gx},{float(err) * 2!r}\n"] + lines[6:]
    assert checks.samples_failures(broken, *args)
    shifted = lines[:7] + [f"{x},{float(fx) + 1e-6!r},{gx},{err}\n"] + lines[8:]
    assert checks.samples_failures(shifted, *args)
    assert checks.samples_failures(lines, w.a, w.b, w.grid, report.sup_error,
                                   report.sup_error, w.plain, [])


def test_cli_check_rejects_disagreement(wiggly_small):
    _, _, r, _, report = wiggly_small
    out = (f"N = {r.n}\nM_f_source = supplied\nL_source = supplied\n"
           f"grid_size = {report.grid_size}\nsup_error = {report.sup_error!r}\n"
           "pass = True\n")
    args = (r.n, report.sup_error, report.grid_size)
    assert checks.cli_failures(0, out, *args, estimated=False) == []
    assert checks.cli_failures(1, out, *args, estimated=False)
    assert checks.cli_failures(0, out.replace("True", "False"), *args, estimated=False)
    assert checks.cli_failures(0, out, r.n + 1, *args[1:], estimated=False)
    assert checks.cli_failures(0, out, r.n, report.sup_error * 2, report.grid_size,
                               estimated=False)
    assert checks.cli_failures(0, out, *args, estimated=True)


def test_estimate_check_rejects_low_or_unlabelled_bounds():
    w = WORKLOADS["deep-estimated"]
    good = (w.analytic_sup * 1.01, "estimated", w.analytic_lipschitz * 1.25, "estimated",
            w.analytic_sup, w.analytic_lipschitz)
    assert checks.estimate_failures(*good) == []
    assert checks.estimate_failures(good[0], "supplied", *good[2:])
    assert checks.estimate_failures(w.analytic_sup * 0.99, *good[1:])
    assert checks.estimate_failures(good[0], good[1], w.analytic_lipschitz * 0.99,
                                    *good[3:])


# --- tracing ----------------------------------------------------------------

def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [Span(0, "round", 0, 100, None), Span(1, "certify", 10, 60, 0),
               Span(2, "engine.validate", 20, 50, 1), Span(3, "cli", 60, 90, 0)]
    assert t.self_ns() == {"round": 20, "certify": 20, "engine.validate": 30, "cli": 30}
    with t.span("sweep", items=4):
        pass
    assert t.per_call_ns("sweep") == t.spans[-1].duration_ns / 4
