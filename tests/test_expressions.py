import math
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sigapprox import expressions
from sigapprox.engine import compute_recipe
from sigapprox.expressions import (
    OPS,
    Binary,
    Const,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    FunctionSpec,
    Interval,
    LexError,
    Pi,
    Unary,
    UnknownIdentifierError,
    Var,
    estimate_lipschitz,
    estimate_sup,
    evaluate_ast,
    format_ast,
    parse,
)
from sigapprox.partition import unif_part

from oracles import reference_evaluate_ast, reference_validation_grid

WIGGLY = "abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)"


def test_parse_variable():
    assert parse("x") == Var()


def test_two_hundred_nested_parentheses_parse():
    # a nesting level is four parser frames, so 200 levels stay under
    # Python's default recursion limit of 1000
    assert parse("(" * 200 + "x" + ")" * 200) == Var()
    want = Var()
    for _ in range(200):
        want = Unary("sin", want)
    assert parse("sin(" * 200 + "x" + ")" * 200) == want


@pytest.mark.parametrize("opener", ["(", "sin("])
def test_nesting_past_the_recursion_limit_is_a_syntax_error(opener):
    text = opener * 300 + "x" + ")" * 300

    def nested(extra):
        return parse(text) if extra == 0 else nested(extra - 1)

    # the token the parser reached when the limit stopped it, at any stack
    # depth of the caller: the limit can strike between "sin" and its "("
    for extra in range(8):
        with pytest.raises(ExprSyntaxError,
                           match="^expression nests too deeply at position") as exc:
            nested(extra)
        assert text[exc.value.position:].startswith(opener), extra


def test_nesting_that_reaches_the_limit_at_the_end_of_input_is_a_syntax_error():
    # for one depth near the limit, at one of four stack offsets (a level
    # is four frames), the limit strikes after the end of input was read
    with pytest.raises(ExprSyntaxError) as exc:
        parse("(" * 1000)
    limit = exc.value.position

    def nested(extra, text):
        return parse(text) if extra == 0 else nested(extra - 1, text)

    for extra in range(4):
        for depth in range(limit - 3, limit + 4):
            with pytest.raises(ExprSyntaxError):
                nested(extra, "(" * depth)


def test_a_sum_too_deep_to_evaluate_raises_expr_error_at_each_call():
    # the parser loops over the terms; the closures nest one level per term
    spec = FunctionSpec.from_text("+".join(["x"] * 5000), 0, 1)
    for _ in range(2):
        with pytest.raises(ExprError, match="^expression nests too deeply to evaluate$") as exc:
            spec(0.5)
        assert type(exc.value) is ExprError


def test_a_sum_built_at_one_depth_and_called_deeper_raises_expr_error():
    # the closures are built by the first call; a later call from a deeper
    # stack can reach the recursion limit while running them
    spec = FunctionSpec.from_text("+".join(["x"] * 200), 0, 1)
    assert spec(0.5) == 100.0

    def at_depth(n, fn):
        return fn() if n == 0 else at_depth(n - 1, fn)

    # the deepest n at which a call still runs, found by the same frames
    # the call below takes, however a Python version counts them
    lo, hi = 0, sys.getrecursionlimit()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            at_depth(mid, lambda: None)
            lo = mid
        except RecursionError:
            hi = mid
    with pytest.raises(ExprError, match="^expression nests too deeply to evaluate$"):
        at_depth(lo - 50, lambda: spec(0.5))
    assert spec(0.5) == 100.0


def test_parse_wiggly_structure():
    ast = parse(WIGGLY)
    assert isinstance(ast, Binary) and ast.op == "add"
    # left association: ((abs(...) + 0.3*sin(...)) + 0.2*x*(1-x))
    left = ast.left
    assert isinstance(left, Binary) and left.op == "add"
    assert left.left == Unary("abs", Binary("sub", Var(), Const(0.3)))
    sin_term = left.right
    assert isinstance(sin_term, Binary) and sin_term.op == "mul"
    assert sin_term.right == Unary(
        "sin", Binary("mul", Binary("mul", Const(6.0), Pi()), Var())
    )


def test_incomplete_expression_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1 +")
    assert exc.value.position == 3


def test_unclosed_parenthesis():
    with pytest.raises(ExprSyntaxError, match=r"^expected '\)' at position 2$"):
        parse("(x")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse("2*foo(x)")
    assert exc.value.name == "foo"
    assert exc.value.position == 2


def test_lex_error():
    with pytest.raises(LexError) as exc:
        parse("1 + $x")
    assert exc.value.position == 4


@pytest.mark.parametrize(("text", "position"), [("1e999*x", 0), ("x + 2E+400", 4)])
def test_non_finite_literal_is_a_syntax_error(text, position):
    # float() would read the literal as inf
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.position == position
    assert "not finite" in str(exc.value)


def test_largest_finite_literal_parses():
    assert parse("1.7976931348623157e308") == Const(1.7976931348623157e308)


def test_unary_minus_binds_looser_than_pow():
    assert parse("-x^2") == Unary("neg", Binary("pow", Var(), Const(2.0)))


def test_pow_right_associative():
    assert parse("2^3^2") == Binary(
        "pow", Const(2.0), Binary("pow", Const(3.0), Const(2.0))
    )


def test_pow_requires_constant_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("2^x")
    parse("x^(1+1)")  # constant expression exponents are fine


@pytest.mark.parametrize("text,position", [
    ("2^x", 1), ("x^2^x", 3), ("2^3^x", 3), ("2^(1+x)", 1), ("2^-x", 1), ("2^sin(x)", 1),
    ("(2^x)^2", 2), ("x^x^2", 1), ("2^(x-x)", 1), ("x^(2^x)", 4),
])
def test_an_exponent_with_x_is_refused_at_its_caret(text, position):
    # the innermost '^' whose exponent reads x, once that exponent is parsed
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    want = f"exponent of '^' must be a constant expression at position {position}"
    assert str(exc.value) == want
    assert exc.value.position == position


def test_a_900_deep_pow_chain_parses_without_rescanning_its_exponents(monkeypatch):
    # a '^' that walked its whole exponent would parse the chain in cubic time
    calls = []
    step = expressions._operands
    monkeypatch.setattr(expressions, "_operands", lambda node: calls.append(node) or step(node))
    node = parse("2^" * 900 + "1")
    assert calls == []
    for _ in range(900):
        assert node.op == "pow" and node.left == Const(2.0)
        node = node.right
    assert node == Const(1.0)


@pytest.mark.parametrize("space", [" ", "\t", "\n", " \t\n"])
def test_trailing_whitespace_makes_no_tokens(space):
    assert expressions._tokenize("x" + space) == [("ident", "x", 0), ("eof", "", 1 + len(space))]
    assert parse("x" + space) == Var()


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2 x")


def test_eval_wiggly_at_kink():
    ast = parse(WIGGLY)
    expected = 0.3 * math.sin(1.8 * math.pi) + 0.2 * 0.3 * 0.7
    assert evaluate_ast(ast, 0.3) == pytest.approx(expected, rel=1e-14)


def test_eval_variable():
    assert evaluate_ast(parse("x"), 7.0) == 7.0


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate_ast(parse("1/x"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate_ast(parse("ln(x)"), -1.0)
    with pytest.raises(EvalDomainError):
        evaluate_ast(parse("sqrt(x)"), -4.0)
    with pytest.raises(EvalDomainError):
        evaluate_ast(parse("x^(-1)"), 0.0)


@pytest.mark.parametrize("op", ["sin", "cos"])
def test_trig_of_infinity_is_a_domain_error(op):
    ast = parse(f"{op}(1e300*1e300*x)")
    with pytest.raises(EvalDomainError) as exc:
        evaluate_ast(ast, -0.5)
    assert exc.value.node == ast
    assert exc.value.x == -0.5
    assert op in str(exc.value)


@pytest.mark.parametrize(
    "text, x, culprit",
    [
        ("exp(x)*exp(x)", 400.0, "(exp(x) * exp(x))"),
        # the product overflows first; the sum of inf and 1 only carries it
        ("1 + 1e300*x*1e300", 1.0, "((1e+300 * x) * 1e+300)"),
        # inf - inf is nan: the left product is the first to leave the range
        ("exp(x)*exp(x) - exp(x)*exp(x)", 400.0, "(exp(x) * exp(x))"),
        ("x*1e308 + x*1e308", 1.0, "((x * 1e+308) + (x * 1e+308))"),
    ],
)
def test_overflowing_result_names_the_first_node_that_overflowed(text, x, culprit):
    spec = FunctionSpec.from_text(text, 0.0, 1000.0)
    assert not math.isfinite(evaluate_ast(spec.ast, x))
    with pytest.raises(EvalDomainError) as exc:
        spec(x)
    assert format_ast(exc.value.node) == culprit
    assert exc.value.x == x
    assert str(exc.value) == f"overflow in {culprit} (at x={x!r})"


def counted_ops(monkeypatch):
    """Replace every `OPS` call by one that appends the op's name to the
    returned list, for closures built from here on."""
    calls = []
    for name, (arity, symbol, fn, message) in list(OPS.items()):
        def counted(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setitem(OPS, name, (arity, symbol, counted, message))
    return calls


@pytest.mark.parametrize("last, x", [("ln(x-2)", 0.5), ("1e300*x*1e300", 1.0)])
def test_naming_the_failing_node_takes_one_walk(monkeypatch, last, x):
    # 399 sums, then sub and ln or two products: 401 op nodes.  Evaluating
    # every subtree to find the node would make about 80,000 calls
    calls = counted_ops(monkeypatch)
    spec = FunctionSpec.from_text("+".join(["x"] * 399 + [last]), 0.0, 1.0)
    with pytest.raises(EvalDomainError) as exc:
        spec(x)
    assert len(calls) <= 2 * 401
    node = exc.value.node
    if last.startswith("ln"):
        with pytest.raises(EvalDomainError) as want:
            reference_evaluate_ast(spec.ast, x)
        assert node is want.value.node
        assert str(exc.value) == str(want.value) == "ln of non-positive value (at x=0.5)"
    else:
        # the last term is the first node to leave the range: its operands
        # and the 399 terms before it are finite
        assert node is spec.ast.right
        assert math.isinf(reference_evaluate_ast(node, x))
        assert math.isfinite(reference_evaluate_ast(node.left, x))
        assert math.isfinite(reference_evaluate_ast(spec.ast.left, x))
        assert str(exc.value) == "overflow in ((1e+300 * x) * 1e+300) (at x=1.0)"
    assert exc.value.x == x


def test_an_op_with_no_message_lets_its_own_error_through():
    # an int too large for a float: the product raises OverflowError itself
    with pytest.raises(OverflowError) as exc:
        evaluate_ast(parse("x*2"), 10**400)
    assert type(exc.value) is OverflowError


def test_finite_result_through_an_infinite_intermediate_is_kept():
    spec = FunctionSpec.from_text("1/(1e300*x*1e300)", 0.0, 1.0)
    assert spec(1.0) == 0.0


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    for a, b in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="^interval endpoints must be finite$"):
            Interval(a, b)
    with pytest.raises(ValueError, match="^sup_bound must be nonnegative when supplied$"):
        FunctionSpec.from_text("x", 0, 1, sup_bound=-0.5)
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError, match="^modulus_override must be positive when supplied$"):
            FunctionSpec.from_text("x", 0, 1, modulus_override=delta)
    with pytest.raises(ValueError):
        FunctionSpec.from_text("x", 0, 1, lipschitz=-1.0)


@pytest.mark.parametrize("field", ["lipschitz", "sup_bound", "modulus_override"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_function_spec_rejects_non_finite_bounds(field, value):
    with pytest.raises(ValueError, match="finite"):
        FunctionSpec.from_text("x", 0, 1, **{field: value})


# --- round trip ----------------------------------------------------------

constants = st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const)
leaves = st.one_of(constants, st.just(Pi()), st.just(Var()))


def unary_nodes(children):
    return st.tuples(
        st.sampled_from(["neg", "abs", "sin", "cos", "exp", "ln", "sqrt"]), children
    ).map(lambda t: Unary(*t))


def binary_nodes(children):
    plain = st.tuples(
        st.sampled_from(["add", "sub", "mul", "div"]), children, children
    ).map(lambda t: Binary(*t))
    powers = st.tuples(children, st.one_of(constants, st.just(Pi()))).map(
        lambda t: Binary("pow", t[0], t[1])
    )
    return st.one_of(plain, powers)


asts = st.recursive(
    leaves, lambda ch: st.one_of(unary_nodes(ch), binary_nodes(ch)), max_leaves=20
)


@given(asts)
def test_parse_print_round_trip(ast):
    assert parse(format_ast(ast)) == ast


# --- the operator table against the reference evaluator ------------------

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan]
any_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
any_leaves = st.one_of(any_floats.map(Const), st.just(Pi()), st.just(Var()))
any_asts = st.recursive(
    any_leaves, lambda ch: st.one_of(unary_nodes(ch), binary_nodes(ch)), max_leaves=20
)


def outcome(evaluate, ast, x):
    """The result's hex, or the exception's type, text and node."""
    try:
        return evaluate(ast, x).hex()
    except Exception as exc:
        return type(exc), str(exc), id(getattr(exc, "node", None))


@settings(max_examples=500)
@given(any_asts, any_floats)
def test_evaluate_matches_the_reference(ast, x):
    assert outcome(evaluate_ast, ast, x) == outcome(reference_evaluate_ast, ast, x)


# subtrees with no x, which the closure builder folds into one constant
constant_asts = st.recursive(
    st.one_of(any_floats.map(Const), st.just(Pi())),
    lambda ch: st.one_of(unary_nodes(ch), binary_nodes(ch)),
    max_leaves=20,
)


@given(constant_asts, any_floats)
def test_evaluate_constant_subtrees_matches_the_reference(ast, x):
    assert outcome(evaluate_ast, ast, x) == outcome(reference_evaluate_ast, ast, x)
    # and as an operand of an op that holds x
    for tree in (Binary("add", ast, Var()), Binary("div", Var(), ast)):
        assert outcome(evaluate_ast, tree, x) == outcome(reference_evaluate_ast, tree, x)


def test_a_subtree_with_no_x_is_evaluated_when_the_closures_are_built(monkeypatch):
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    monkeypatch.setitem(OPS, "mul", (2, "*", mul, None))
    spec = FunctionSpec.from_text("2*pi*x", 0.0, 1.0)
    xs = [0.0, 0.25, 1.0 / 3.0, 1.0]
    values = [spec(x) for x in xs]
    assert calls[0] == (2.0, math.pi)
    assert len(calls) == 1 + len(xs)
    assert values == [2.0 * math.pi * x for x in xs]


@pytest.mark.parametrize(
    "text", ["1/(1-1)", "ln(0)", "exp(1000)", "(0-8)^(1/3)",
             "1/(1-1) + x", "x*ln(0)", "exp(1000) - sin(x)", "x^((0-8)^(1/3))"])
def test_a_raising_subtree_with_no_x_raises_at_each_call(text):
    ast = parse(text)
    _, value = expressions._closure(ast)  # building raises nothing and folds nothing
    assert value is None
    for x in (0.0, -0.5, 0.75, math.inf):
        got = outcome(evaluate_ast, ast, x)
        assert got == outcome(reference_evaluate_ast, ast, x)
        assert got[0] is EvalDomainError and got[1].endswith(f"(at x={x!r})")


# the benchmark's three expressions with their interval, eps, bounds and grid
BENCHMARK_EXPRESSIONS = [
    (WIGGLY, 0.01, 1.0 + 1.8 * math.pi + 0.2, 1.05, None),
    ("sin(0.09*x + 0.005)/1 + sin(0.18*x + 0.010)/2 + sin(0.27*x + 0.015)/3 + "
     "sin(0.36*x + 0.020)/4 + sin(0.45*x + 0.025)/5 + sin(0.54*x + 0.030)/6 + "
     "sin(0.63*x + 0.035)/7 + sin(0.72*x + 0.040)/8 + sin(0.81*x + 0.045)/9 + "
     "sin(0.90*x + 0.050)/10 + sin(0.99*x + 0.055)/11 + sin(1.08*x + 0.060)/12 + "
     "sin(1.17*x + 0.065)/13 + sin(1.26*x + 0.070)/14 + sin(1.35*x + 0.075)/15 + "
     "sin(1.44*x + 0.080)/16",
     0.01, None, None, None),
    ("sin(2*pi*x) + 0.5*x", 7.5e-4, 2.0 * math.pi + 0.5, 1.5, 20_001),
]


@pytest.mark.parametrize("text, eps, lipschitz, sup, grid", BENCHMARK_EXPRESSIONS,
                         ids=["wiggly", "deep-estimated", "large-n"])
def test_benchmark_expressions_match_the_reference_on_their_grids(text, eps, lipschitz, sup, grid):
    spec = FunctionSpec.from_text(text, 0.0, 1.0, lipschitz=lipschitz, sup_bound=sup)
    n = compute_recipe(spec, eps).n
    size = grid if grid is not None else max(10_001, 10 * n)
    xs = reference_validation_grid(0.0, 1.0, size, unif_part(0.0, 1.0, n).points)
    for x in xs[::7]:
        assert spec(x).hex() == reference_evaluate_ast(spec.ast, x).hex()


@pytest.mark.parametrize(
    "text, x, expected",
    [
        ("ln(x)", 0.0, "ln of non-positive value"),
        ("ln(x)", -0.0, "ln of non-positive value"),
        ("ln(x)", -math.inf, "ln of non-positive value"),
        ("sqrt(x)", -0.0, (-0.0).hex()),
        ("sqrt(x)", -1e-320, "sqrt of negative value"),
        ("1/x", -0.0, "division by zero"),
        ("x/0", math.nan, "division by zero"),
        ("x/1e-10", 1e300, math.inf.hex()),
        ("x^(1/3)", -8.0, "power outside real domain"),
        ("x^(-1)", 0.0, "power outside real domain"),
        ("x^400", 10.0, "power outside real domain"),
        ("exp(x)", 710.0, "exp overflow"),
        ("sin(x)", math.inf, "sin of infinite value"),
        ("ln(x) + sqrt(x)", math.nan, math.nan.hex()),
    ],
)
def test_evaluate_edge_cases(text, x, expected):
    ast = parse(text)
    got = outcome(evaluate_ast, ast, x)
    assert got == outcome(reference_evaluate_ast, ast, x)
    if isinstance(got, str):
        assert got == expected
    else:
        assert got[:2] == (EvalDomainError, f"{expected} (at x={x!r})")


def test_function_spec_pickles_before_and_after_a_call():
    spec = FunctionSpec.from_text(WIGGLY, 0, 1, lipschitz=7.0)
    xs = [j / 7 for j in range(8)]
    before = pickle.loads(pickle.dumps(spec))
    values = [spec(x).hex() for x in xs]
    # the first call built the closure, which the pickled state leaves out
    after = pickle.loads(pickle.dumps(spec))
    for copy in (before, after):
        assert copy == spec
        assert [copy(x).hex() for x in xs] == values
        assert pickle.loads(pickle.dumps(copy)) == spec


# --- estimators ----------------------------------------------------------


def test_estimate_lipschitz_identity():
    spec = FunctionSpec.from_text("x", 0, 1)
    assert estimate_lipschitz(spec) == pytest.approx(1.25, rel=1e-12)


def test_estimate_lipschitz_wiggly_brackets_true_bound():
    spec = FunctionSpec.from_text(WIGGLY, 0, 1)
    est = estimate_lipschitz(spec)
    assert 6.85 <= est <= 1.25 * 6.86


def test_estimate_lipschitz_sine():
    spec = FunctionSpec.from_text("sin(x)", 0, math.pi)
    est = estimate_lipschitz(spec)
    assert 1.0 <= est <= 1.25 * 1.0001


def test_estimate_sup_values():
    assert estimate_sup(FunctionSpec.from_text("x", 0, 1)) == pytest.approx(1.01)
    assert estimate_sup(FunctionSpec.from_text("-2", 0, 1)) == pytest.approx(2.02)
    assert estimate_sup(FunctionSpec.from_text(WIGGLY, 0, 1)) <= 1.05


def test_estimator_conservative_on_analytic_corpus():
    cases = [
        ("x", 1.0, 1.0),
        ("x^2", 2.0, 1.0),
        ("sin(6*pi*x)", None, 1.0),  # true L = 6*pi checked separately
        (WIGGLY, None, None),
    ]
    for text, true_l, true_sup in cases:
        spec = FunctionSpec.from_text(text, 0, 1)
        if true_l is not None:
            assert estimate_lipschitz(spec) >= true_l
        if true_sup is not None:
            assert estimate_sup(spec) >= true_sup
    sin_spec = FunctionSpec.from_text("sin(6*pi*x)", 0, 1)
    assert estimate_lipschitz(sin_spec) >= 6 * math.pi


@pytest.mark.parametrize("a,b", [(0.0, 5e-324), (-1e308, 1e308)])
def test_estimate_lipschitz_rejects_degenerate_step(a, b):
    # the step (b - a)/10^4 underflows to 0 or overflows to inf
    with pytest.raises(ValueError, match="step"):
        estimate_lipschitz(FunctionSpec.from_text("x", a, b))


def test_estimator_propagates_domain_errors():
    spec = FunctionSpec.from_text("ln(x)", -1, 1)
    with pytest.raises(EvalDomainError):
        estimate_sup(spec)
