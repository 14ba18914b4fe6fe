"""A small arithmetic expression language for target functions of one variable.

Grammar (documented and stable):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | 'x' | 'pi' | ident '(' expr ')' | '(' expr ')'

'+'/'-' and '*'/'/' are left-associative, '^' is right-associative and binds
tighter than unary minus.  Implicit multiplication is not supported.  The
exponent of '^' must be a constant expression (no 'x'), which keeps the
Lipschitz estimator sane.  Functions: abs, sin, cos, exp, ln, sqrt.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Union

from .partition import uniform_grid

__all__ = [
    "ExprError",
    "LexError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "Const",
    "Pi",
    "Var",
    "Unary",
    "Binary",
    "Node",
    "Interval",
    "FunctionSpec",
    "parse",
    "evaluate_ast",
    "format_ast",
    "estimate_lipschitz",
    "estimate_sup",
]

FUNCTIONS = ("abs", "sin", "cos", "exp", "ln", "sqrt")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")


class ExprError(ValueError):
    """Base class for expression language errors."""


class LexError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r} at position {position}")
        self.name = name
        self.position = position


class EvalDomainError(ExprError):
    """A subexpression left the real domain (division by zero, ln of a
    non-positive number, ...).  Carries the offending node and input."""

    def __init__(self, message: str, node: "Node", x: float):
        super().__init__(f"{message} (at x={x!r})")
        self.node = node
        self.x = x


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or one of FUNCTIONS
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of BINARY_OPS
    left: "Node"
    right: "Node"


Node = Union[Const, Pi, Var, Unary, Binary]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise LexError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Unary("neg", self.factor())
        node = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exponent = self.factor()
            if _contains_var(exponent):
                raise ExprSyntaxError(
                    "exponent of '^' must be a constant expression", pos
                )
            node = Binary("pow", node, exponent)
        return node

    def base(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {val!r} is not finite", pos)
            return Const(value)
        if kind == "ident":
            if val == "x":
                return Var()
            if val == "pi":
                return Pi()
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(val, arg)
            raise UnknownIdentifierError(val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = val if val else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", pos)


def _contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Unary):
        return _contains_var(node.operand)
    if isinstance(node, Binary):
        return _contains_var(node.left) or _contains_var(node.right)
    return False


def parse(text: str) -> Node:
    """Parse `text` into an AST; raises LexError / ExprSyntaxError /
    UnknownIdentifierError with the offending position."""
    return _Parser(text).parse()


def evaluate_ast(node: Node, x: float) -> float:
    """Evaluate with standard real semantics.  Leaving the real domain
    raises EvalDomainError rather than returning a non-finite number."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Pi):
        return math.pi
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        v = evaluate_ast(node.operand, x)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return abs(v)
        if node.op == "sin":
            try:
                return math.sin(v)
            except ValueError:
                raise EvalDomainError("sin of infinite value", node, x) from None
        if node.op == "cos":
            try:
                return math.cos(v)
            except ValueError:
                raise EvalDomainError("cos of infinite value", node, x) from None
        if node.op == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise EvalDomainError("exp overflow", node, x) from None
        if node.op == "ln":
            if v <= 0.0:
                raise EvalDomainError("ln of non-positive value", node, x)
            return math.log(v)
        if node.op == "sqrt":
            if v < 0.0:
                raise EvalDomainError("sqrt of negative value", node, x)
            return math.sqrt(v)
        raise AssertionError(f"unknown unary op {node.op!r}")
    if isinstance(node, Binary):
        lv = evaluate_ast(node.left, x)
        rv = evaluate_ast(node.right, x)
        if node.op == "add":
            return lv + rv
        if node.op == "sub":
            return lv - rv
        if node.op == "mul":
            return lv * rv
        if node.op == "div":
            if rv == 0.0:
                raise EvalDomainError("division by zero", node, x)
            return lv / rv
        if node.op == "pow":
            try:
                out = lv**rv
            except (OverflowError, ZeroDivisionError, ValueError):
                raise EvalDomainError("power outside real domain", node, x) from None
            if isinstance(out, complex) or not math.isfinite(out):
                raise EvalDomainError("power outside real domain", node, x)
            return out
        raise AssertionError(f"unknown binary op {node.op!r}")
    raise AssertionError(f"unknown node {node!r}")


_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def format_ast(node: Node) -> str:
    """Render an AST back to source text; parse(format_ast(t)) == t.

    Subexpressions are parenthesized unconditionally, which keeps the
    round-trip structural without precedence bookkeeping.
    """
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Pi):
        return "pi"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{format_ast(node.operand)})"
        return f"{node.op}({format_ast(node.operand)})"
    if isinstance(node, Binary):
        sym = _OP_SYMBOL[node.op]
        return f"({format_ast(node.left)} {sym} {format_ast(node.right)})"
    raise AssertionError(f"unknown node {node!r}")


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.a >= self.b:
            raise ValueError(f"need a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class FunctionSpec:
    """A target function: parsed expression, interval, and optional
    user-supplied bounds.  Missing bounds are filled in by the estimators
    when a recipe is computed."""

    ast: Node
    interval: Interval
    lipschitz: Optional[float] = None
    sup_bound: Optional[float] = None
    modulus_override: Optional[float] = None
    text: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("lipschitz", "sup_bound", "modulus_override"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite when supplied")
        if self.lipschitz is not None and self.lipschitz <= 0.0:
            raise ValueError("lipschitz must be positive when supplied")
        if self.sup_bound is not None and self.sup_bound < 0.0:
            raise ValueError("sup_bound must be nonnegative when supplied")
        if self.modulus_override is not None and self.modulus_override <= 0.0:
            raise ValueError("modulus_override must be positive when supplied")

    @classmethod
    def from_text(
        cls,
        text: str,
        a: float,
        b: float,
        lipschitz: Optional[float] = None,
        sup_bound: Optional[float] = None,
        modulus_override: Optional[float] = None,
    ) -> "FunctionSpec":
        return cls(
            ast=parse(text),
            interval=Interval(float(a), float(b)),
            lipschitz=lipschitz,
            sup_bound=sup_bound,
            modulus_override=modulus_override,
            text=text,
        )

    def __call__(self, x: float) -> float:
        return evaluate_ast(self.ast, x)


# Deliberate over-approximation factors: the construction only needs upper
# bounds, and larger bounds merely increase the neuron count.  The 1.25
# slack on L also covers central differences straddling an abs() kink.
LIPSCHITZ_SAFETY = 1.25
SUP_SAFETY = 1.01
ESTIMATOR_SAMPLES = 1000  # grid points sampled by both estimators


def estimate_lipschitz(spec: FunctionSpec) -> float:
    """Grid maximum of |f'| by central differences, times a safety factor.

    Step size is (b - a)/(10*ESTIMATOR_SAMPLES).  Used only when
    spec.lipschitz is absent; the result is an estimate, not a certified
    bound.
    """
    a, b = spec.interval.a, spec.interval.b
    step = (b - a) / (10.0 * ESTIMATOR_SAMPLES)
    if not 0.0 < step < math.inf:
        raise ValueError(f"no finite-difference step fits [{a!r}, {b!r}]")
    best = 0.0
    for x in uniform_grid(a, b, ESTIMATOR_SAMPLES):
        slope = abs(spec(x + step) - spec(x - step)) / (2.0 * step)
        if slope > best:
            best = slope
    return best * LIPSCHITZ_SAFETY


def estimate_sup(spec: FunctionSpec) -> float:
    """Grid maximum of |f| (endpoints included), times a safety factor."""
    a, b = spec.interval.a, spec.interval.b
    best = 0.0
    for x in uniform_grid(a, b, ESTIMATOR_SAMPLES):
        v = abs(spec(x))
        if v > best:
            best = v
    return best * SUP_SAFETY
