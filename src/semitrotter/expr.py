"""Parser and evaluator for scalar real functions of one variable.

Used for potentials V(x) and observable coefficient functions y_m(x).
The grammar covers real literals, the variable ``x``, the constant ``pi``,
unary negation, the binary operators ``+ - * / ^`` and calls to
``sin``, ``cos``, ``exp``, ``tanh``.

Precedence (tightest first): ``^`` (right-assoc), unary minus,
``* /`` (left-assoc), ``+ -`` (left-assoc).

ASTs are immutable after parsing.
The function set is fixed; all members are entire or periodic, so a
periodic expression evaluated on a periodic grid stays consistent with
the boundary conditions (the parser itself does not verify periodicity).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
}


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Runtime evaluation failure (division by zero, domain error)."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The free variable x."""


@dataclass(frozen=True)
class Pi:
    """The constant pi."""


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Pi | Neg | BinOp | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character {source[bad]!r}", _byte_offset(source, bad)
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    def _peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError(
                "unexpected end of input", _byte_offset(self.source, len(self.source))
            )
        self.index += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            pos = tok[2] if tok is not None else len(self.source)
            raise ExprSyntaxError(f"expected {op!r}", _byte_offset(self.source, pos))
        self.index += 1

    def parse(self) -> Expr:
        e = self._sum()
        tok = self._peek()
        if tok is not None:
            raise ExprSyntaxError(
                f"trailing input {tok[1]!r}", _byte_offset(self.source, tok[2])
            )
        return e

    def _sum(self) -> Expr:
        e = self._product()
        while (tok := self._peek()) is not None and tok[1] in ("+", "-"):
            self.index += 1
            e = BinOp(tok[1], e, self._product())
        return e

    def _product(self) -> Expr:
        e = self._unary()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self.index += 1
            e = BinOp(tok[1], e, self._unary())
        return e

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.index += 1
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.index += 1
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Expr:
        kind, text, pos = self._next()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "x":
                return Var()
            if text == "pi":
                return Pi()
            if text in FUNCTIONS:
                self._expect_op("(")
                arg = self._sum()
                self._expect_op(")")
                return Call(text, arg)
            raise ExprSyntaxError(
                f"unknown identifier {text!r}", _byte_offset(self.source, pos)
            )
        if text == "(":
            e = self._sum()
            self._expect_op(")")
            return e
        raise ExprSyntaxError(
            f"unexpected token {text!r}", _byte_offset(self.source, pos)
        )


def parse_expr(source: str) -> Expr:
    """Parse source text into an expression AST.

    Raises ExprSyntaxError (with byte offset) on malformed input or
    unknown identifiers.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source).parse()


def eval_expr(e: Expr, x: float) -> float:
    """Evaluate an AST at a point. Raises ExprEvalError on 1/0 or 0^negative."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Neg):
        return -eval_expr(e.operand, x)
    if isinstance(e, Call):
        try:
            return FUNCTIONS[e.func](eval_expr(e.arg, x))
        except OverflowError as exc:
            raise ExprEvalError(f"overflow in {e.func}") from exc
    if isinstance(e, BinOp):
        a = eval_expr(e.left, x)
        b = eval_expr(e.right, x)
        try:
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return a / b
            # math.pow keeps the result real and raises on 0^negative
            # and on negative base with fractional exponent
            return math.pow(a, b)
        except ZeroDivisionError as exc:
            raise ExprEvalError("division by zero") from exc
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"domain error in {a!r} {e.op} {b!r}") from exc
    raise TypeError(f"not an Expr node: {e!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return 5


def to_source(e: Expr) -> str:
    """Render an AST back to parseable text.

    Parenthesization is strict enough that parse_expr(to_source(e))
    reconstructs a structurally identical AST.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        if e.op == "^":
            if _prec(e.left) <= p:
                left = f"({left})"
            if _prec(e.right) < p:
                right = f"({right})"
        else:
            if _prec(e.left) < p:
                left = f"({left})"
            if _prec(e.right) <= p:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an Expr node: {e!r}")
