import math

import pytest
from hypothesis import given, strategies as st

from sigapprox.expressions import (
    Binary,
    Const,
    EvalDomainError,
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

WIGGLY = "abs(x-0.3) + 0.3*sin(6*pi*x) + 0.2*x*(1-x)"


def test_parse_variable():
    assert parse("x") == Var()


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


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
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
