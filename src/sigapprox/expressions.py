"""A small arithmetic expression language for target functions of one variable.

Grammar (documented and stable):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | 'x' | 'pi' | ident '(' expr ')' | '(' expr ')'

'+'/'-' and '*'/'/' are left-associative, '^' is right-associative and binds
tighter than unary minus.  Implicit multiplication is not supported.  The
exponent of '^' must be a constant expression (no 'x'), which keeps the
Lipschitz estimator sane.  Functions: abs, sin, cos, exp, ln, sqrt.  Every
reader below takes the operators from one table, `OPS`.

f is evaluated by closures: each `FunctionSpec` turns its AST once, on
its first call, into closures, and every later call of f runs them with
no type dispatch.  Only an op node gets a closure.  A subtree that holds
no x is folded into its value when the closures are built, and an op's
closure reads a constant operand, and x beside one, in place: `c*x` is
one call, fn(c, x), and `2*pi*x` multiplies 2 by pi once, not at every
call.  Any other x operand, as in sin(x) or x*g(x), is the closure
`lambda x: x`, which the benchmark's expressions do not have.
An op's closure is one line around the op's `OPS` call, such as
`lambda x: fn(a(x), b)`, and catches nothing.  A fold makes the same
`OPS` calls on the same doubles, so every value of f comes from the same
float operations, in the same order, as a walk of the tree, and is the
same double.  A subtree whose fold raises, such as 1/(1-1), is left
unfolded: its closure makes the raising call again at each call of f.
`evaluate_ast(node, x)` builds the closures of `node` and calls them:
the library has one evaluator.

Errors are caught in one place, the `try` of `FunctionSpec.__call__` (and
of `evaluate_ast`), which adds no frame while f succeeds.  When f raises,
or its value is not finite, `_failure` walks the tree once, in a loop
with a value stack, making each op's `OPS` call on the same doubles in
the same order.  The first call that raises names its node in an
EvalDomainError with the op's message and x; an op with no message lets
its own error through.  With no call raising, the first node whose value
is not finite is named as an overflow.  So the failing node costs at
most twice the calls of one evaluation.

The benchmark's wiggly, deep-estimated and large-n expressions make 10,
79 and 4 closure calls per call of f.  Over 10,000 points of [0, 1]
(minimum of 15 passes, 4 alternating process pairs pinned to one CPU;
Python 3.11.7, 2 cores), a call of f takes 0.52-0.62, 3.71-4.12 and
0.26-0.29 us, where closures that each held a handler took 0.62-0.69,
4.25-4.80 and 0.29-0.34 us.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Union

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
    op: str  # a key of OPS with arity 1
    operand: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of OPS with arity 2
    left: "Node"
    right: "Node"


Node = Union[Const, Pi, Var, Unary, Binary]


def _real_pow(base: float, exponent: float) -> float:
    """base ** exponent; ValueError where that is complex or not finite."""
    out = base**exponent
    if isinstance(out, complex) or not math.isfinite(out):
        raise ValueError(out)
    return out


# The operator table: node op name -> (arity, spelling in source text,
# call, message).  When the call raises one of _DOMAIN_ERRORS, f raises
# EvalDomainError(message), or lets the exception through if message is
# None (`_failure` finds the call).  `/`, log and sqrt raise on exactly the
# inputs outside their domain: x/0.0 and x/-0.0, log of zero or below,
# sqrt below -0.0 (sqrt(-0.0) is -0.0).  nan passes through all three.
OPS: dict[str, tuple[int, str, Callable[..., float], Optional[str]]] = {
    "neg": (1, "-", operator.neg, None),
    "abs": (1, "abs", abs, None),
    "sin": (1, "sin", math.sin, "sin of infinite value"),
    "cos": (1, "cos", math.cos, "cos of infinite value"),
    "exp": (1, "exp", math.exp, "exp overflow"),
    "ln": (1, "ln", math.log, "ln of non-positive value"),
    "sqrt": (1, "sqrt", math.sqrt, "sqrt of negative value"),
    "add": (2, "+", operator.add, None),
    "sub": (2, "-", operator.sub, None),
    "mul": (2, "*", operator.mul, None),
    "div": (2, "/", operator.truediv, "division by zero"),
    "pow": (2, "^", _real_pow, "power outside real domain"),
}
_DOMAIN_ERRORS = (ValueError, OverflowError, ZeroDivisionError)
# a function is spelled as its own name
FUNCTIONS = tuple(name for name, (_, symbol, _, _) in OPS.items() if symbol == name)
_BINARY_OP = {symbol: name for name, (arity, symbol, _, _) in OPS.items() if arity == 2}

# every character falls in exactly one group, so the matches tile the text
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<space>\s+)"
    r"|(?P<bad>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise LexError(f"unexpected character {m.group()!r}", m.start())
        if kind != "space":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.xs = 0  # x tokens read so far: an exponent must read none
        # sums and products.  Partials, not methods that call _left_assoc:
        # each level then costs one Python frame, as a loop of its own
        # would, so nested parentheses reach the recursion limit no sooner
        self.term = partial(self._left_assoc, self.factor, "*/")
        self.expr = partial(self._left_assoc, self.term, "+-")

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

    def _left_assoc(self, operand: Callable[[], Node], symbols: str) -> Node:
        """operand (symbol operand)*, grouped from the left."""
        node = operand()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in symbols:
                return node
            self.advance()
            node = Binary(_BINARY_OP[val], node, operand())

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Unary("neg", self.factor())
        node = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            xs = self.xs
            exponent = self.factor()
            if self.xs != xs:
                raise ExprSyntaxError(
                    "exponent of '^' must be a constant expression", pos
                )
            node = Binary(_BINARY_OP[val], node, exponent)
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
                self.xs += 1
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


def parse(text: str) -> Node:
    """Parse `text` into an AST; raises LexError / ExprSyntaxError /
    UnknownIdentifierError with the offending position (for nesting past
    the recursion limit, that of the next token, or of the function name
    whose "(" is next)."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        # the limit can strike after the end of input was read, or between
        # a function's name and its "(", whatever the caller's stack depth
        tokens, i = parser.tokens, min(parser.i, len(parser.tokens) - 1)
        if i and tokens[i][1] == "(" and tokens[i - 1][1] in FUNCTIONS:
            i -= 1
        raise ExprSyntaxError("expression nests too deeply", tokens[i][2]) from None


def _operands(node: Node) -> tuple[Node, ...]:
    """The operands of `node`, left to right: none for a leaf."""
    kind = type(node)
    return (node.operand,) if kind is Unary else (node.left, node.right) if kind is Binary else ()


# an op node's closure by its operands' shape, a letter each: "c" is a
# constant and "x" is x beside one, both read in place, and "f" is a
# closure, called.  Each makes its op's one `OPS` call and catches nothing
_SHAPES = {
    "f": lambda fn, a: lambda x: fn(a(x)),
    "xc": lambda fn, a, b: lambda x: fn(x, b),
    "cx": lambda fn, a, b: lambda x: fn(a, x),
    "cf": lambda fn, a, b: lambda x: fn(a, b(x)),
    "fc": lambda fn, a, b: lambda x: fn(a(x), b),
    "ff": lambda fn, a, b: lambda x: fn(a(x), b(x)),
}


def _closure(node: Node) -> tuple[Callable[[float], float], Optional[float]]:
    """(x -> the value of `node` at x, that value if it is folded, else None).

    A subtree that holds no Var is folded here into its value, by the
    `OPS` calls that its closures would make on the same doubles, so into
    the same double.  Op nodes get closures, one `OPS` call each, and
    folded constants are their operands, as is x beside a constant; any
    other x is the closure `lambda x: x`.  A subtree whose fold raises is
    not folded: its closure makes the raising call again at each call.
    No closure catches an error; `_failure` names the node."""
    if type(node) is Var:
        return (lambda x: x), None
    if type(node) is Pi or type(node) is Const:
        value = math.pi if type(node) is Pi else node.value
        return (lambda x: value), value
    fn = OPS[node.op][2]
    closures, values = zip(*[_closure(child) for child in _operands(node)])
    if None not in values:
        try:
            value = fn(*values)
        except _DOMAIN_ERRORS:
            return (lambda x: fn(*values)), None
        return (lambda x: value), value
    beside = values.count(None) < len(values)  # a constant beside x or a closure
    shape = "".join("c" if value is not None else "x" if beside and type(child) is Var else "f"
                    for child, value in zip(_operands(node), values))
    return _SHAPES[shape](fn, *[c if v is None else v for c, v in zip(closures, values)]), None


def evaluate_ast(node: Node, x: float) -> float:
    """Evaluate with standard real semantics, each op by its `OPS` entry.
    Leaving the real domain (division by zero, ln or sqrt outside its
    domain, exp or '^' overflowing, sin or cos of infinity) raises
    EvalDomainError.  Other arithmetic can overflow to inf or nan here;
    `FunctionSpec` checks the result.  Builds the closures for `node` on
    every call: `FunctionSpec` builds them once and keeps them."""
    try:
        return _closure(node)[0](x)
    except _DOMAIN_ERRORS:
        raise _failure(node, x) from None


def _failure(root: Node, x: float) -> Exception:
    """The error of `root` at x, where its closures raised or gave a value
    that is not finite.  One walk, with no recursion, takes the nodes in
    the order the closures finish them and makes each op's `OPS` call on
    its operands' values: the same doubles, in the same order.  The first
    call that raises gives EvalDomainError(message, node, x), or its own
    error if the op has no message.  If none raises, the first node whose
    value is not finite gives EvalDomainError("overflow in ...")."""
    order, pending = [], [root]
    while pending:  # each node before its right subtree, then its left
        order.append(pending.pop())
        pending += _operands(order[-1])
    values, stack = [], []
    for node in reversed(order):  # operands left to right, then the node
        if type(node) is Unary or type(node) is Binary:
            arity, _, fn, message = OPS[node.op]
            try:
                stack[-arity:] = [fn(*stack[-arity:])]
            except _DOMAIN_ERRORS as error:
                return error if message is None else EvalDomainError(message, node, x)
        else:
            stack.append(x if type(node) is Var else math.pi if type(node) is Pi else node.value)
        values.append((node, stack[-1]))
    node = next(node for node, value in values if not math.isfinite(value))
    return EvalDomainError(f"overflow in {format_ast(node)}", node, x)


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
    sym = OPS[node.op][1]
    return f"({format_ast(node.left)} {sym} {format_ast(node.right)})"


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.a >= self.b:
            raise ValueError(f"need a < b, got [{self.a!r}, {self.b!r}]")


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

    @cached_property
    def _evaluate(self) -> Callable[[float], float]:
        """The closure of `ast`, built on the first call of f."""
        return _closure(self.ast)[0]

    def __getstate__(self) -> dict:
        # the closure does not pickle; the copy builds its own on demand
        state = dict(self.__dict__)
        state.pop("_evaluate", None)
        return state

    def __call__(self, x: float) -> float:
        """f(x) by the closure of `ast`: the value, or the exception, that
        `evaluate_ast` gives.  A result that is not finite raises
        EvalDomainError("overflow ...") carrying the first node, in
        evaluation order, whose value is not finite.  Only the result is
        checked: a finite result reached through an infinite intermediate,
        such as 1/(1e300*x*1e300) = 0.0 at x = 1, is returned as it is.
        A tree too deep to build or run the closures, or to name the node,
        at this call's stack depth, such as a 1,500-term sum, raises
        ExprError."""
        try:
            try:
                value = self._evaluate(x)
                if math.isfinite(value):
                    return value
            except _DOMAIN_ERRORS:
                pass
            # inside the outer try: format_ast recurses as deep as the tree
            raise _failure(self.ast, x)
        except RecursionError:
            raise ExprError("expression nests too deeply to evaluate") from None


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
