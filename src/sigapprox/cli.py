"""Command-line front end.

Exit codes: 0 success / certificate pass, 1 validation failure, 2 usage or
parse error, 3 numeric / domain error.  Reports go to stdout, diagnostics
to stderr.  All floats are printed with shortest round-trip representation,
so identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator, Optional

from . import engine, export
from .expressions import FUNCTIONS, ExprError, FunctionSpec
from .limits import boundary_residual, sigmoid_saturation_slope
from .sigmoid import MAX_DERIVATIVE_ORDER, sigmoid_nth_derivative
from .stirling import stirling2, stirling_row

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAMMAR_HELP = (
    "expression grammar: expr := term (('+'|'-') term)*; "
    "term := factor (('*'|'/') factor)*; "
    "factor := '-' factor | base ('^' factor)?; "
    "base := number | 'x' | 'pi' | ident '(' expr ')' | '(' expr ')'; "
    f"functions: {', '.join(FUNCTIONS)}; "
    "'^' exponents must be constant; no implicit multiplication"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    r"""An ArgumentParser that takes every token float() reads, such as
    -1e-3 or -inf, for a value.  argparse's own test for a negative number,
    ^-\d+$|^-\d*\.\d+$, has no exponent, so `--a -1e-3` failed with
    "expected one argument"; no sigapprox option looks like a number."""

    def _parse_optional(self, arg_string: str) -> Any:
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@contextmanager
def _any_digits() -> Iterator[None]:
    """Let ints of any size convert to decimal text in the block.  Python's
    digit limit guards the parsing of untrusted text; the flags are parsed
    before any command runs, so they stay under it."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(lines: list[tuple[str, Any]], as_json: bool) -> None:
    """Print the lines, all formatted before the first is printed.  A reader
    that closed stdout early ends the output quietly: fd 1 then points at
    the null device, so the interpreter's last flush cannot raise again."""
    with _any_digits():
        if as_json:
            text = json.dumps(dict(lines))
        else:
            text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _check_finite(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value!r}")


def _build_spec(args: argparse.Namespace) -> FunctionSpec:
    _check_finite(args, "a", "b", "eps", "lipschitz", "sup", "delta")
    if args.a >= args.b:
        raise UsageError(f"need --a < --b, got {args.a!r} >= {args.b!r}")
    if args.eps <= 0.0:
        raise UsageError("--eps must be positive")
    if args.lipschitz is not None and args.lipschitz <= 0.0:
        raise UsageError("--lipschitz must be positive")
    if args.sup is not None and args.sup < 0.0:
        raise UsageError("--sup must be nonnegative")
    if args.delta is not None and args.delta <= 0.0:
        raise UsageError("--delta must be positive")
    try:
        return FunctionSpec.from_text(
            args.fn,
            args.a,
            args.b,
            lipschitz=args.lipschitz,
            sup_bound=args.sup,
            modulus_override=args.delta,
        )
    except ExprError as exc:
        raise UsageError(f"cannot parse --fn: {exc}") from exc


def _recipe_lines(recipe: engine.Recipe) -> list[tuple[str, Any]]:
    return [
        ("epsilon", recipe.epsilon),
        ("M_f", recipe.m_f),
        ("M_f_source", recipe.m_f_source),
        ("M_sigma", recipe.m_sigma),
        ("L", recipe.lipschitz),
        ("L_source", recipe.lipschitz_source),
        ("eta", recipe.eta),
        ("delta", recipe.delta),
        ("N", recipe.n),
        ("h", recipe.h),
        ("w", recipe.w),
    ]


def cmd_recipe(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    recipe = engine.compute_recipe(spec, args.eps)
    _emit(_recipe_lines(recipe), args.json)
    return EXIT_OK


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """Report an OSError raised in the block as path being unwritable."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an empty path or a directory for either output flag, and one
    path for both."""
    outputs = {"--out-network": args.out_network, "--out-samples": args.out_samples}
    for flag, path in outputs.items():
        if path == "":
            raise UsageError(f"{flag} is an empty path")
        if path and os.path.isdir(path):
            raise UsageError(f"{flag} {path} is a directory")
    if args.out_network and args.out_samples and (
        os.path.realpath(args.out_network) == os.path.realpath(args.out_samples)
    ):
        raise UsageError(
            f"--out-network and --out-samples name one path: {args.out_network}"
        )


def cmd_approximate(args: argparse.Namespace) -> int:
    if args.grid is not None and args.grid < 2:
        raise UsageError("--grid must be at least 2")
    _check_outputs(args)
    spec = _build_spec(args)
    # validation's walk writes the samples: the file opens before f is
    # evaluated and takes its place only if every step below succeeds
    samples = export.samples_file(args.out_samples) if args.out_samples else nullcontext()
    with _writing(args.out_samples), samples as row:
        recipe = engine.compute_recipe(spec, args.eps)
        g = engine.build_approximant(spec, recipe)
        grid = args.grid if args.grid is not None else max(10_001, 10 * recipe.n)
        report = engine.validate(g, spec, args.eps, grid, row)
        if args.out_network:
            with _writing(args.out_network):
                export.write_network(g, recipe, spec, args.out_network)
    lines = _recipe_lines(recipe) + [
        ("grid_size", report.grid_size),
        ("sup_error", report.sup_error),
        ("argmax_x", report.argmax_x),
        ("target_epsilon", report.target_epsilon),
        ("pass", report.passed),
    ]
    _emit(lines, args.json)
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def cmd_derivative(args: argparse.Namespace) -> int:
    if args.n < 0 or args.n > MAX_DERIVATIVE_ORDER:
        raise UsageError(f"--n must lie in 0..{MAX_DERIVATIVE_ORDER}")
    _check_finite(args, "x")
    value = sigmoid_nth_derivative(args.n, args.x)
    _emit([("n", args.n), ("x", args.x), ("value", value)], args.json)
    return EXIT_OK


def cmd_stirling(args: argparse.Namespace) -> int:
    if args.n < 0 or (args.k is not None and args.k < 0):
        raise UsageError("--n and --k must be nonnegative")
    if args.k is not None:
        value: Any = stirling2(args.n, args.k)
        lines = [("n", args.n), ("k", args.k), ("value", value)]
    else:
        with _any_digits():
            row = ",".join(map(str, stirling_row(args.n)))
        lines = [("n", args.n), ("row", row)]
    _emit(lines, args.json)
    return EXIT_OK


def cmd_saturation(args: argparse.Namespace) -> int:
    if args.n < 3:
        raise UsageError("--n must be at least 3")
    if args.n > sys.float_info.max:
        raise UsageError(f"--n must be at most {sys.float_info.max!r}, the largest double")
    _check_finite(args, "h")
    if args.h <= 0.0:
        raise UsageError("--h must be positive")
    slope = sigmoid_saturation_slope(args.h, args.n)
    if slope.omega == math.inf:
        raise ValueError(f"omega = ln(N - 1)/h overflows for h = {args.h!r}")
    lines = [
        ("h", slope.h),
        ("n", args.n),
        ("omega", slope.omega),
        ("tol", slope.tol),
        ("residual", boundary_residual(slope)),
    ]
    _emit(lines, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigapprox",
        description=(
            "Certified single-hidden-layer sigmoid approximation of "
            "continuous functions on an interval. " + GRAMMAR_HELP
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fn_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fn", required=True, help="target function of x")
        p.add_argument("--a", type=float, required=True, help="left endpoint")
        p.add_argument("--b", type=float, required=True, help="right endpoint")
        p.add_argument("--eps", type=float, required=True, help="target sup error")
        p.add_argument("--lipschitz", type=float, help="Lipschitz bound for f")
        p.add_argument("--sup", type=float, help="bound on sup |f|")
        p.add_argument("--delta", type=float, help="explicit continuity modulus")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_recipe = sub.add_parser("recipe", help="print the certified parameters")
    add_fn_flags(p_recipe)
    p_recipe.set_defaults(func=cmd_recipe)

    p_approx = sub.add_parser(
        "approximate", help="build, validate and optionally export the network"
    )
    add_fn_flags(p_approx)
    p_approx.add_argument("--grid", type=int, help="validation grid size")
    p_approx.add_argument("--out-network", help="write the network document (JSON)")
    p_approx.add_argument("--out-samples", help="write sample rows (CSV)")
    p_approx.set_defaults(func=cmd_approximate)

    p_deriv = sub.add_parser("derivative", help="nth derivative of the sigmoid")
    p_deriv.add_argument("--n", type=int, required=True)
    p_deriv.add_argument("--x", type=float, required=True)
    p_deriv.add_argument("--json", action="store_true")
    p_deriv.set_defaults(func=cmd_derivative)

    p_stir = sub.add_parser(
        "stirling", help="Stirling numbers of the second kind (exact)"
    )
    p_stir.add_argument("--n", type=int, required=True)
    p_stir.add_argument("--k", type=int)
    p_stir.add_argument("--json", action="store_true")
    p_stir.set_defaults(func=cmd_stirling)

    p_sat = sub.add_parser(
        "saturation", help="sufficient slope for sigmoid saturation"
    )
    p_sat.add_argument("--h", type=float, required=True, help="collar half-width")
    p_sat.add_argument("--n", type=int, required=True, help="partition size N")
    p_sat.add_argument("--json", action="store_true")
    p_sat.set_defaults(func=cmd_saturation)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
