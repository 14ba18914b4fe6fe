import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from sigapprox import export
from sigapprox.cli import GRAMMAR_HELP, _emit, main
from sigapprox.engine import build_approximant, compute_recipe
from sigapprox.export import to_network_document, write_network_document
from sigapprox.expressions import FunctionSpec

from oracles import reference_uniform_grid

WIGGLY = "abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_lines(out):
    result = {}
    for line in out.strip().split("\n"):
        key, _, value = line.partition(" = ")
        result[key] = value
    return result


def test_recipe_identity(capsys):
    code, out, _ = run(
        capsys,
        ["recipe", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1"],
    )
    assert code == 0
    values = parse_lines(out)
    # the double 0.2 is just above 1/5, so 2(b-a)/delta is just below 50
    # and the exact floor gives N = 50
    assert values["N"] == "50"
    assert values["M_f_source"] == "supplied"
    assert float(values["eta"]) == 0.04


def test_recipe_wiggly_flags(capsys):
    code, out, _ = run(
        capsys,
        ["recipe", "--fn", WIGGLY, "--a", "0", "--b", "1", "--eps", "0.01",
         "--lipschitz", "6.8549", "--sup", "1.05"],
    )
    assert code == 0
    values = parse_lines(out)
    n = int(values["N"])
    assert 6921 <= n <= 6927
    assert float(values["w"]) == pytest.approx(n * math.log(n - 1.0), rel=1e-6)


def test_recipe_rejects_zero_eps(capsys):
    code, out, err = run(
        capsys, ["recipe", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0"]
    )
    assert code == 2
    assert out == ""
    assert "eps" in err


def test_recipe_rejects_bad_expression(capsys):
    code, _, err = run(
        capsys, ["recipe", "--fn", "1 +", "--a", "0", "--b", "1", "--eps", "0.1"]
    )
    assert code == 2
    assert "parse" in err


def test_recipe_estimator_domain_error_exits_3(capsys):
    code, _, err = run(
        capsys, ["recipe", "--fn", "ln(x)", "--a", "-1", "--b", "1", "--eps", "0.1"]
    )
    assert code == 3


def test_recipe_json_mode(capsys):
    code, out, _ = run(
        capsys,
        ["recipe", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    # exact floor: 2(b-a)/delta is just below 50 (see test_recipe_identity)
    assert doc["N"] == 50
    assert doc["eta"] == 0.04


@pytest.mark.parametrize("command", ["recipe", "approximate"])
@pytest.mark.parametrize("flag", ["--a", "--b", "--eps", "--lipschitz", "--sup", "--delta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flags_exit_2(capsys, command, flag, value):
    values = {"--a": "0", "--b": "1", "--eps": "0.2", "--lipschitz": "1", "--sup": "1"}
    values[flag] = value
    argv = [command, "--fn", "x"]
    for key, v in values.items():
        argv += [f"{key}={v}"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert flag in err and "finite" in err


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_small_grid_exits_2_before_building(capsys, monkeypatch, grid):
    def no_recipe(*args, **kwargs):
        raise AssertionError("the recipe must not be computed")

    monkeypatch.setattr("sigapprox.engine.compute_recipe", no_recipe)
    code, out, err = run(
        capsys,
        ["approximate", "--fn", "x", "--a", "0", "--b", "1", "--eps", "1e-5",
         "--lipschitz", "1", "--sup", "1", "--grid", grid],
    )
    assert code == 2
    assert out == ""
    assert "--grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["recipe", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1e308"],
        ["approximate", "--fn", "x", "--a=-1e308", "--b=1e308", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1"],
        ["recipe", "--fn", "x", "--a", "0", "--b", "5e-324", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1"],
        ["recipe", "--fn", "x", "--a", "0", "--b", "5e-324", "--eps", "0.2"],
        # estimated bounds near 1e308 ask for N of about 2.5e617
        ["recipe", "--fn", "1e308*x", "--a", "0", "--b", "1", "--eps", "0.1"],
        # differences of +-1e308 overflow, so the estimated L is inf
        ["recipe", "--fn", "1e308*sin(1000*x)", "--a", "0", "--b", "1",
         "--eps", "0.1"],
        # b - a overflows while delta keeps N small
        ["recipe", "--fn", "x", "--a=-1e308", "--b=1e308", "--eps", "0.2",
         "--sup", "1", "--delta", "1e308"],
    ],
    ids=["sup-1e308", "interval-overflow", "interval-underflow",
         "interval-underflow-estimated", "estimated-huge-n",
         "estimated-L-inf", "interval-too-wide"],
)
def test_recipe_overflow_exits_3(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert len(err) < 200


def test_non_finite_literal_exits_2(capsys):
    code, out, err = run(
        capsys,
        ["recipe", "--fn", "1e999*x", "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1"],
    )
    assert code == 2
    assert out == ""
    assert err == "error: cannot parse --fn: number '1e999' is not finite at position 0\n"


def test_sin_of_infinity_exits_3(capsys):
    code, out, err = run(
        capsys,
        # at x = 0, 1e300*1e300*x is inf*0 = nan, and sin(nan) is nan
        ["approximate", "--fn", "sin(1e300*1e300*x)", "--a", "0.5", "--b", "1",
         "--eps", "0.2", "--lipschitz", "1", "--sup", "1"],
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: sin of infinite value (at x=")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["approximate", "--fn", "0", "--a", "0", "--b", "1e305", "--eps", "2",
          "--sup", "1", "--delta", "1e305"],
         "[0.0, 1e+305] is too wide for a grid of n = 10001 points"),
        (["recipe", "--fn", "x", "--a=-1.7e308", "--b", "1.7e308", "--eps", "1"],
         "[-1.7e+308, 1.7e+308] is too wide for a grid of n = 1000 points"),
    ],
    ids=["validation-grid", "estimator-grid"],
)
def test_grid_step_overflow_exits_3_naming_the_grid(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_f_is_not_evaluated_left_of_a(capsys):
    # x_0 = a - h is a unit center only: sqrt is defined on all of [0, 1]
    code, out, err = run(
        capsys,
        ["approximate", "--fn", "sqrt(x)", "--a", "0", "--b", "1", "--eps", "0.5",
         "--sup", "1", "--delta", "0.1"],
    )
    assert (code, err) == (0, "")
    assert parse_lines(out)["pass"] == "True"


def test_overflowing_f_exits_3_naming_node_and_x(capsys):
    # the sup estimator's second grid point, 1e8/999, squares past 1e308/1e300
    code, out, err = run(
        capsys, ["recipe", "--fn", "1e300*x^2", "--a", "0", "--b", "1e8", "--eps", "0.2"])
    assert code == 3
    assert out == ""
    assert err == "error: overflow in (1e+300 * (x ^ 2.0)) (at x=100100.1001001001)\n"


def test_determinism(capsys):
    argv = ["recipe", "--fn", WIGGLY, "--a", "0", "--b", "1", "--eps", "0.05",
            "--lipschitz", "6.8549", "--sup", "1.05"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_approximate_pass_and_outputs(capsys, tmp_path):
    net = tmp_path / "net.json"
    csv = tmp_path / "samples.csv"
    code, out, _ = run(
        capsys,
        ["approximate", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1", "--grid", "501",
         "--out-network", str(net), "--out-samples", str(csv)],
    )
    assert code == 0
    values = parse_lines(out)
    assert values["pass"] == "True"
    assert float(values["sup_error"]) < 0.2
    assert net.exists() and csv.exists()
    doc = json.loads(net.read_text())
    assert len(doc["units"]) == int(values["N"]) + 1


def test_approximate_rejects_threads_flag(capsys):
    code, out, err = run(
        capsys,
        ["approximate", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1", "--grid", "301", "--threads", "4"],
    )
    assert code == 2
    assert out == ""
    assert "--threads" in err


def test_approximate_undersized_lipschitz_reports_sup(capsys):
    code, out, _ = run(
        capsys,
        ["approximate", "--fn", WIGGLY, "--a", "0", "--b", "1", "--eps", "0.05",
         "--lipschitz", "0.1", "--sup", "1.05", "--grid", "2001"],
    )
    assert code in (0, 1)
    values = parse_lines(out)
    assert "sup_error" in values
    if code == 1:
        assert values["pass"] == "False"


def test_derivative_values(capsys):
    code, out, _ = run(capsys, ["derivative", "--n", "0", "--x", "0"])
    assert code == 0 and parse_lines(out)["value"] == "0.5"
    code, out, _ = run(capsys, ["derivative", "--n", "2", "--x", "0"])
    assert code == 0 and float(parse_lines(out)["value"]) == 0.0
    code, out, _ = run(capsys, ["derivative", "--n", "1", "--x", "0"])
    assert code == 0 and parse_lines(out)["value"] == "0.25"


@pytest.mark.parametrize("n, x, expected", [("25", "20", 1.9186e-9),
                                            ("30", "50", -1.9287e-22),
                                            ("30", "0", 0.0)])
def test_derivative_keeps_its_digits_right_of_zero(capsys, n, x, expected):
    # the sum taken at x > 0 printed -5.8e12, -2.7e20 and -4.5e13 here
    code, out, _ = run(capsys, ["derivative", "--n", n, "--x", x])
    assert code == 0
    assert float(parse_lines(out)["value"]) == pytest.approx(expected, rel=1e-4)


def test_derivative_rejects_check_flag(capsys):
    # the finite-difference cross-check left the CLI; test_sigmoid.py checks
    # the derivatives against mpmath and against differencing
    code, out, err = run(capsys, ["derivative", "--n", "1", "--x", "0", "--check"])
    assert code == 2
    assert out == ""
    assert "--check" in err


def test_derivative_order_cap(capsys):
    code, _, _ = run(capsys, ["derivative", "--n", "31", "--x", "0"])
    assert code == 2


def test_stirling_value_and_row(capsys):
    code, out, _ = run(capsys, ["stirling", "--n", "4", "--k", "2"])
    assert code == 0 and parse_lines(out)["value"] == "7"
    code, out, _ = run(capsys, ["stirling", "--n", "0", "--k", "0"])
    assert code == 0 and parse_lines(out)["value"] == "1"
    code, out, _ = run(capsys, ["stirling", "--n", "5"])
    assert code == 0 and parse_lines(out)["row"] == "0,1,15,25,10,1"


# 5,000 digits, past the 4,300 that Python 3.11 converts by default
BIG = 10**4999 + 1
BIG_TEXT = "1" + "0" * 4998 + "1"


def test_stirling_prints_values_of_any_size(capsys, monkeypatch):
    monkeypatch.setattr("sigapprox.cli.stirling2", lambda n, k: BIG)
    monkeypatch.setattr("sigapprox.cli.stirling_row", lambda n: (0, BIG, 1))
    code, out, _ = run(capsys, ["stirling", "--n", "2", "--k", "1"])
    assert code == 0 and out == f"n = 2\nk = 1\nvalue = {BIG_TEXT}\n"
    code, out, _ = run(capsys, ["stirling", "--n", "2", "--k", "1", "--json"])
    assert code == 0 and out == f'{{"n": 2, "k": 1, "value": {BIG_TEXT}}}\n'
    code, out, _ = run(capsys, ["stirling", "--n", "2"])
    assert code == 0 and out == f"n = 2\nrow = 0,{BIG_TEXT},1\n"
    code, out, _ = run(capsys, ["stirling", "--n", "2", "--json"])
    assert code == 0 and out == f'{{"n": 2, "row": "0,{BIG_TEXT},1"}}\n'


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_stirling_flags_stay_under_the_digit_limit(capsys):
    # argparse converts the flags before any command lifts the limit
    code, out, err = run(capsys, ["stirling", "--n", BIG_TEXT])
    assert code == 2 and out == "" and "invalid int value" in err


class Unformattable:
    def __format__(self, spec):
        raise ValueError("no text")


def test_emit_formats_every_line_before_printing_any(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    _emit([("n", 3), ("value", BIG)], False)
    assert capsys.readouterr().out == f"n = 3\nvalue = {BIG_TEXT}\n"
    _emit([("n", 3), ("value", BIG)], True)
    assert capsys.readouterr().out == f'{{"n": 3, "value": {BIG_TEXT}}}\n'
    with pytest.raises(ValueError, match="no text"):
        _emit([("n", 3), ("value", BIG), ("bad", Unformattable())], False)
    assert capsys.readouterr().out == ""
    with pytest.raises(TypeError):
        _emit([("n", 3), ("bad", object())], True)
    assert capsys.readouterr().out == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# Runs the CLI with the arguments given, then prints its own peak RSS as
# a last line "VmHWM_kB = <kB>".
PEAK_RSS_CHILD = """
import sys
from sigapprox.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(f"VmHWM_kB = {peak}")
sys.exit(code)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_stirling_of_a_large_n_in_bounded_memory():
    # the child's own high-water mark, which exec starts afresh: the
    # ru_maxrss of os.wait4 keeps the forking parent's across fork and exec,
    # so it read pytest's peak once that passed the bound
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "stirling", "--n", "1500", "--k", "3"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    values = parse_lines(proc.stdout)
    assert values["value"] == str((3**1500 - 3 * 2**1500 + 3) // 6)
    peak = int(values["VmHWM_kB"])
    assert peak < 64 * 1024, f"peak RSS {peak} kB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_validate_streams_a_large_grid_in_bounded_memory():
    # the child peaks near 17 MB, and at 33 MB when `validate` holds the
    # grid's 400,001 points in a list
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "approximate", "--fn", "x", "--a", "0",
         "--b", "1", "--eps", "0.05", "--lipschitz", "1", "--sup", "1", "--grid", "400001"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    values = parse_lines(proc.stdout)
    # N = 200: the grid and the 24 knots it does not pass through
    assert (values["N"], values["grid_size"], values["pass"]) == ("200", "400025", "True")
    peak = int(values["VmHWM_kB"])
    assert peak < 24 * 1024, f"peak RSS {peak} kB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_write_network_streams_a_large_network_in_bounded_memory(tmp_path):
    # N = 100,000.  The network adds nothing to the child's peak, which
    # the build and validation set; holding the biases in a list adds
    # 4 MB, and a dict per unit 23 MB
    argv = [sys.executable, "-c", PEAK_RSS_CHILD, "approximate", "--fn", "x", "--a", "0",
            "--b", "1", "--eps", "1e-4", "--lipschitz", "1", "--sup", "1", "--grid", "11"]
    net = tmp_path / "net.json"
    peaks = []
    for extra in ([], ["--out-network", str(net)]):
        proc = subprocess.run(argv + extra, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        values = parse_lines(proc.stdout)
        assert values["N"] == "100000"
        peaks.append(int(values["VmHWM_kB"]))
    assert net.read_text().count('"output_coefficient"') == 100_001
    assert peaks[1] - peaks[0] < 2 * 1024, f"peak RSS {peaks[0]} kB, {peaks[1]} kB when writing"


def test_saturation_values(capsys):
    code, out, _ = run(capsys, ["saturation", "--h", "1", "--n", "3"])
    assert code == 0
    values = parse_lines(out)
    assert float(values["omega"]) == pytest.approx(math.log(2.0), rel=1e-15)
    assert float(values["residual"]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    code, out, _ = run(capsys, ["saturation", "--h", "0.5", "--n", "101"])
    assert float(parse_lines(out)["omega"]) == pytest.approx(9.2103, rel=1e-4)

    code, out, _ = run(
        capsys, ["saturation", "--h", str(1.0 / 6925.0), "--n", "6925"]
    )
    assert float(parse_lines(out)["omega"]) == pytest.approx(61237.0, rel=2e-4)


def test_saturation_rejects_small_n(capsys):
    code, _, _ = run(capsys, ["saturation", "--h", "1", "--n", "2"])
    assert code == 2


@pytest.mark.parametrize("argv", [["derivative", "--n", "2", "--x"],
                                  ["saturation", "--n", "3", "--h"]])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_x_and_h_exit_2(capsys, argv, value):
    *argv, flag = argv
    code, out, err = run(capsys, argv + [f"{flag}={value}"])
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be finite, got {float(value)!r}\n"


def test_saturation_n_too_large_for_a_double_exits_2(capsys):
    # float(n) used to raise OverflowError, which left a traceback and exit 1
    code, out, err = run(capsys, ["saturation", "--n", "1" + "0" * 400, "--h", "1"])
    assert (code, out) == (2, "")
    assert err == f"error: --n must be at most {sys.float_info.max!r}, the largest double\n"
    # the largest double itself is accepted
    code, out, _ = run(capsys, ["saturation", "--n", str(int(sys.float_info.max)), "--h", "1"])
    assert code == 0
    assert float(parse_lines(out)["omega"]) == pytest.approx(math.log(sys.float_info.max))


def test_saturation_slope_overflow_exits_3(capsys):
    code, out, err = run(capsys, ["saturation", "--n", "5", "--h", "1e-320"])
    assert (code, out) == (3, "")
    assert err == "error: omega = ln(N - 1)/h overflows for h = 1e-320\n"


@pytest.mark.parametrize(("flags", "message"), [
    (["--a", "1", "--b", "1"], "need --a < --b, got 1.0 >= 1.0"),
    (["--a", "0", "--b", "1", "--sup", "-0.5"], "--sup must be nonnegative"),
    (["--a", "0", "--b", "1", "--delta", "0"], "--delta must be positive"),
    (["--a", "0", "--b", "1", "--delta", "-1"], "--delta must be positive"),
])
def test_bad_interval_and_bound_flags_exit_2(capsys, flags, message):
    code, out, err = run(capsys, ["recipe", "--fn", "x", "--eps", "0.1", *flags])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [["--n", "-1"], ["--n", "3", "--k", "-1"],
                                   ["--n", "-1", "--k", "0"]])
def test_negative_stirling_flags_exit_2(capsys, flags):
    code, out, err = run(capsys, ["stirling", *flags])
    assert (code, out, err) == (2, "", "error: --n and --k must be nonnegative\n")


@pytest.mark.parametrize("h", ["0", "-0.5"])
def test_saturation_rejects_h_at_or_below_0(capsys, h):
    code, out, err = run(capsys, ["saturation", "--n", "5", "--h", h])
    assert (code, out, err) == (2, "", "error: --h must be positive\n")


def _approximate(fn, *flags):
    return ["approximate", "--fn", fn, "--a", "0", "--b", "1", "--eps", "0.5", *flags]


@pytest.mark.parametrize("opener", ["(", "sin("])
def test_an_f_nested_past_the_recursion_limit_exits_2(capsys, opener):
    fn = opener * 300 + "x" + ")" * 300
    code, out, err = run(capsys, _approximate(fn, "--lipschitz", "1", "--sup", "1"))
    assert (code, out) == (2, "")
    # the position is that of the token the parser reached
    m = re.fullmatch(r"error: cannot parse --fn: expression nests too deeply "
                     r"at position (\d+)\n", err)
    assert m and fn[int(m[1]):].startswith(opener), err


# past the recursion limit on every supported Python: the closures take
# two frames a level to build on 3.11 and one on 3.12 and later
@pytest.mark.parametrize("terms", [1500, 5000])
def test_a_sum_too_long_to_evaluate_exits_3(capsys, terms):
    # parsed by a loop, but its closures nest one level per term
    fn = "+".join(["x"] * terms)
    bounds = ["--lipschitz", "1", "--sup", "1"]
    code, out, err = run(capsys, _approximate(fn, *bounds))
    assert (code, out, err) == (3, "", "error: expression nests too deeply to evaluate\n")
    code, out, err = run(capsys, _approximate(fn))
    assert (code, out, err) == (3, "", "error: expression nests too deeply to evaluate\n")
    # with both bounds supplied, the recipe never evaluates f
    code, out, err = run(capsys, ["recipe", *_approximate(fn, *bounds)[1:]])
    assert (code, err) == (0, "")
    assert parse_lines(out)["M_f_source"] == "supplied"


def test_grammar_help_lists_the_functions():
    assert "functions: abs, sin, cos, exp, ln, sqrt;" in GRAMMAR_HELP


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


def test_stdout_stderr_separation():
    proc = subprocess.run(
        [sys.executable, "-m", "sigapprox.cli", "recipe", "--fn", "x",
         "--a", "0", "--b", "1", "--eps", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "eps" in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, code", [
    (["recipe", "--fn", "x", "--a", "-1e-3", "--b", "1", "--eps", "0.5"], 0),
    (["approximate", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.5"], 0),
    (["approximate", "--fn", "sin(200*x)", "--a", "0", "--b", "1", "--eps", "0.5"], 1),
])
def test_a_closed_stdout_ends_the_run_quietly_with_its_own_code(argv, code, unbuffered):
    # stdout is a pipe whose reader is gone, as with `| head -0`: printing
    # the report raises BrokenPipeError, at print with PYTHONUNBUFFERED and
    # at the interpreter's last flush without it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sigapprox.cli", *argv, "--lipschitz", "1", "--sup", "1"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def approximate_argv(fn, tmp_path, *extra, eps="0.2", grid="101"):
    return ["approximate", "--fn", fn, "--a", "0", "--b", "1", "--eps", eps,
            "--lipschitz", "1", "--sup", "1", "--grid", grid,
            "--out-samples", str(tmp_path / "samples.csv"), *extra]


def test_approximate_evaluates_f_once_per_point(capsys, monkeypatch, tmp_path):
    calls = []
    evaluate_ast = FunctionSpec.__call__

    def counted(spec, x):
        calls.append(x)
        return evaluate_ast(spec, x)

    monkeypatch.setattr(FunctionSpec, "__call__", counted)
    code, out, _ = run(capsys, approximate_argv(
        WIGGLY, tmp_path, "--out-network", str(tmp_path / "net.json"), grid="2001"))
    assert code == 0
    values = parse_lines(out)
    # the N + 1 partition points in [a, b] to build G, then each distinct
    # uniform-grid point: validation takes the knots' f values from the build
    distinct = len(set(reference_uniform_grid(0.0, 1.0, 2001)))
    assert len(calls) == int(values["N"]) + 1 + distinct == 2052
    assert min(calls) == 0.0 and max(calls) == 1.0
    assert int(values["grid_size"]) == 2004
    assert len((tmp_path / "samples.csv").read_text().splitlines()) == 2002


def test_approximate_writes_the_network_straight_from_g(capsys, monkeypatch, tmp_path):
    spec = FunctionSpec.from_text(WIGGLY, 0.0, 1.0, lipschitz=1.0, sup_bound=1.0)
    recipe = compute_recipe(spec, 0.2)
    want = io.StringIO()
    write_network_document(to_network_document(build_approximant(spec, recipe), recipe, spec), want)

    def no_records(*args, **kwargs):
        raise AssertionError("the CLI must not build the unit records")

    monkeypatch.setattr("sigapprox.export.to_network_document", no_records)
    path = tmp_path / "net.json"
    code, out, _ = run(capsys, approximate_argv(WIGGLY, tmp_path, "--out-network", str(path)))
    assert code == 0
    assert int(parse_lines(out)["N"]) == recipe.n
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_approximate_failed_validation_still_writes_samples(capsys, tmp_path):
    argv = ["approximate", "--fn", "sin(40*x)", "--a", "0", "--b", "1",
            "--eps", "0.5", "--sup", "1", "--delta", "100", "--grid", "101",
            "--out-samples", str(tmp_path / "samples.csv")]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert parse_lines(out)["pass"] == "False"
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "x,f,g,abs_err" and len(lines) == 102
    assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_approximate_exit_3_leaves_samples_path_alone(capsys, tmp_path, existing):
    path = tmp_path / "samples.csv"
    if existing is not None:
        path.write_text(existing)
    # G builds (no knot k/50 is 0.37) and validation then meets x = 0.37
    code, out, err = run(capsys, approximate_argv("1/(x-0.37)", tmp_path))
    assert code == 3
    assert out == ""
    assert err == "error: division by zero (at x=0.37)\n"
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert path.read_text() == existing
        assert [p.name for p in tmp_path.iterdir()] == ["samples.csv"]


def test_network_with_an_infinite_weight_exits_3(capsys, tmp_path):
    # f is finite, but f(0.25) - f(0) = -1e308 - 1e308 overflows; G would
    # be nan, and validation used to pass it with sup_error = -1.0
    argv = ["approximate", "--fn", "1e308*cos(4*pi*x)", "--a", "0", "--b", "1",
            "--eps", "2", "--sup", "1", "--delta", "1", "--grid", "11",
            "--out-samples", str(tmp_path / "samples.csv"),
            "--out-network", str(tmp_path / "net.json")]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == ("error: unit 1 has output_coefficient -inf at x_2 = 0.25, "
                   "which is not finite\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_samples_path_exits_2_before_any_work(capsys, monkeypatch, tmp_path):
    def no_recipe(*args, **kwargs):
        raise AssertionError("the recipe must not be computed")

    monkeypatch.setattr("sigapprox.engine.compute_recipe", no_recipe)
    path = tmp_path / "missing" / "samples.csv"
    argv = ["approximate", "--fn", "x", "--a", "0", "--b", "1", "--eps", "0.2",
            "--lipschitz", "1", "--sup", "1", "--out-samples", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_network_path_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "net.json"
    code, out, err = run(capsys, approximate_argv(
        "x", tmp_path, "--out-network", str(path)))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"
    # the samples CSV takes its place only when every output succeeds
    assert list(tmp_path.iterdir()) == []


def test_failed_network_write_keeps_both_previous_outputs(capsys, monkeypatch, tmp_path):
    net, samples = tmp_path / "net.json", tmp_path / "samples.csv"
    net.write_text("previous network\n")
    samples.write_text("previous samples\n")
    write_units = export._write_units

    def two_then_full(units):
        for i, unit in enumerate(units):
            if i == 2:
                raise OSError(28, "No space left on device")
            yield unit

    monkeypatch.setattr("sigapprox.export._write_units",
                        lambda fh, units: write_units(fh, two_then_full(units)))
    code, out, err = run(capsys, approximate_argv(WIGGLY, tmp_path, "--out-network", str(net)))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {net}: No space left on device\n"
    assert net.read_text() == "previous network\n"
    assert samples.read_text() == "previous samples\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "samples.csv"]


@pytest.mark.parametrize("fn", ["1", "0*x"])
def test_constant_f_with_estimated_bounds_passes(capsys, fn):
    code, out, err = run(capsys, ["approximate", "--fn", fn, "--a", "0", "--b", "1",
                                  "--eps", "0.5"])
    assert (code, err) == (0, "")
    values = parse_lines(out)
    assert (values["L"], values["L_source"], values["delta"]) == ("0.0", "estimated", "1.0")
    assert values["N"] == ("11" if fn == "1" else "9")
    assert values["pass"] == "True"


def test_supplied_zero_lipschitz_exits_2(capsys):
    code, out, err = run(capsys, ["approximate", "--fn", "1", "--a", "0", "--b", "1",
                                  "--eps", "0.5", "--lipschitz", "0"])
    assert (code, out, err) == (2, "", "error: --lipschitz must be positive\n")


def refuse_f(monkeypatch):
    def no_f(spec, x):
        raise AssertionError("f must not be evaluated")

    monkeypatch.setattr(FunctionSpec, "__call__", no_f)


QUICK = ["approximate", "--fn", WIGGLY, "--a", "0", "--b", "1", "--eps", "0.2",
         "--lipschitz", "1", "--sup", "1", "--grid", "101"]


@pytest.mark.parametrize("samples", ["out.txt", "sub/../out.txt", "link.txt"])
def test_one_path_for_both_outputs_exits_2_before_f(capsys, monkeypatch, tmp_path, samples):
    refuse_f(monkeypatch)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(tmp_path / "out.txt")
    net = tmp_path / "out.txt"
    code, out, err = run(capsys, QUICK + ["--out-network", str(net),
                                          "--out-samples", str(tmp_path / samples)])
    assert code == 2
    assert out == ""
    assert err == f"error: --out-network and --out-samples name one path: {net}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("flag", ["--out-network", "--out-samples"])
def test_directory_output_exits_2_before_f(capsys, monkeypatch, tmp_path, flag):
    refuse_f(monkeypatch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(capsys, QUICK + [flag, str(out_dir)])
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} {out_dir} is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("flags", [["--out-network", ""], ["--out-samples", ""],
                                   ["--out-network", "", "--out-samples", ""],
                                   ["--out-network", "net.json", "--out-samples", ""]])
def test_an_empty_output_path_exits_2_before_f(capsys, monkeypatch, tmp_path, flags):
    # an unset path variable in a script must not pass for "no output"
    refuse_f(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, QUICK + flags)
    empty = flags[flags.index("") - 1]
    assert (code, out, err) == (2, "", f"error: {empty} is an empty path\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("a", ["-1e-3", "-1E+2", "-2.5e-1"])
def test_a_negative_value_in_scientific_notation_parses(capsys, a):
    code, out, err = run(capsys, ["recipe", "--fn", "x", "--a", a, "--b", "1",
                                  "--eps", "0.5", "--lipschitz", "1", "--sup", "1"])
    assert (code, err) == (0, "")
    values = parse_lines(out)
    assert float(values["h"]) == (1.0 - float(a)) / int(values["N"])
    code, out, err = run(capsys, ["derivative", "--x", a, "--n", "1"])
    assert (code, err) == (0, "")
    assert parse_lines(out)["x"] == repr(float(a))


def test_a_negative_infinity_value_reaches_the_finiteness_check(capsys):
    code, out, err = run(capsys, ["recipe", "--fn", "x", "--a", "-inf", "--b", "1",
                                  "--eps", "0.5", "--lipschitz", "1", "--sup", "1"])
    assert (code, out, err) == (2, "", "error: --a must be finite, got -inf\n")


def test_a_flag_with_a_flag_for_its_value_still_exits_2(capsys):
    code, out, err = run(capsys, ["recipe", "--fn", "x", "--a", "--b", "1", "--eps", "0.5"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --a: expected one argument\n")
