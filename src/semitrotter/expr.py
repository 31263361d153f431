"""Reader and evaluator for scalar real functions of one variable.

Used for potentials V(x), observable coefficients y_m(x) and config
numbers. The grammar is Python's arithmetic with ``^`` for ``**``:
``parse_expr`` reads the text with ``ast.parse`` and allows only
int and float literals (not bool or complex), the names ``x`` and ``pi``,
unary ``-`` and ``+``, the binary ``+ - * / **`` and a call of ``sin``,
``cos``, ``exp`` or ``tanh`` on one positional argument. Any other node
is an ExprSyntaxError; the text is never evaluated or compiled by Python.
Precedence is Python's (tightest first): ``^`` (right-assoc), unary
minus, ``* /`` (left-assoc), ``+ -`` (left-assoc).

ASTs are immutable after parsing.
The function set is fixed; all members are entire or periodic, so a
periodic expression evaluated on a periodic grid stays consistent with
the boundary conditions (the parser itself does not verify periodicity).
"""

from __future__ import annotations

import ast
import math
import operator
import warnings
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

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# math.pow keeps the result real and raises on 0^negative and on a negative base with a
# fractional exponent
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow}


def _python_text(source: str) -> tuple[str, list[int]]:
    """The source as one line of Python in parentheses, and the source byte offset of each column.

    ``^`` becomes ``**``; a blank, which Python ends a line at or refuses,
    becomes a space; the leading zeros of a number, as in ``007``, which
    ``float`` reads and Python refuses, are dropped. A typed ``**``, a ``#``,
    an unmatched ``)`` and a character that is not printable ASCII are errors.
    """
    text, where = ["("], [0]
    offset = depth = 0
    for i, c in enumerate(source):
        depth += (c == "(") - (c == ")")
        if depth < 0 or c == "#" or c == text[-1] == "*" or not (c.isspace() or c.isascii() and c.isprintable()):
            raise ExprSyntaxError(f"unexpected character {c!r}", offset)
        in_word = text[-1][-1].isalnum() or text[-1][-1] in "._"
        if not (c == "0" and source[i + 1: i + 2].isdecimal() and not in_word):
            text.append("**" if c == "^" else " " if c.isspace() else c)
            where += [offset] * len(text[-1])
        offset += len(c.encode("utf-8"))
    return "".join(text) + ")", where + [offset, offset]  # the closing parenthesis and the end


def parse_expr(source: str) -> Expr:
    """Parse source text into an expression AST.

    Raises ExprSyntaxError (with the UTF-8 byte offset in ``source``) on malformed input,
    on a node outside the grammar, such as an unknown identifier, and on too deep nesting.
    """
    text, where = _python_text(source)

    def convert(node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return Num(float(str(node.value)))  # an integer past the float range reads inf, not OverflowError
        if isinstance(node, ast.Name) and node.id in ("x", "pi"):
            return Var() if node.id == "x" else Pi()
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = convert(node.operand)
            return Neg(operand) if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return BinOp(_BINOPS[type(node.op)], convert(node.left), convert(node.right))
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in FUNCTIONS  # only a Name has an id
                and len(node.args) == 1 and not node.keywords):
            return Call(node.func.id, convert(node.args[0]))
        start, end = where[node.col_offset], where[node.end_col_offset]
        raise ExprSyntaxError(f"{source.encode('utf-8')[start:end].decode('utf-8')!r} is not allowed", start)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SyntaxWarning on texts such as 1if, which convert refuses
            tree = ast.parse(text, mode="eval")
        return convert(tree.body)
    except SyntaxError as exc:  # exc.offset counts characters from 1; text is ASCII
        raise ExprSyntaxError(exc.msg, where[min((exc.offset or 1) - 1, len(text))]) from exc
    except (RecursionError, MemoryError) as exc:  # MemoryError: the parser's own nesting limit
        raise ExprSyntaxError("expression nested too deeply", 0) from exc


def eval_expr(e: Expr, x: float) -> float:
    """Evaluate an AST at a point. Raises ExprEvalError on 1/0, 0^negative, overflow, sin(inf) or deep nesting."""
    try:
        return _eval(e, x)
    except RecursionError as exc:
        raise ExprEvalError("expression nested too deeply to evaluate") from exc


def _eval(e: Expr, x: float) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Neg):
        return -_eval(e.operand, x)
    if isinstance(e, Call):
        try:
            return FUNCTIONS[e.func](_eval(e.arg, x))
        except (OverflowError, ValueError) as exc:  # ValueError: sin or cos of inf
            raise ExprEvalError(f"overflow or domain error in {e.func}") from exc
    if isinstance(e, BinOp):
        a = _eval(e.left, x)
        b = _eval(e.right, x)
        try:
            return _ARITHMETIC[e.op](a, b)
        except ZeroDivisionError as exc:
            raise ExprEvalError("division by zero") from exc
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"domain error in {a!r} {e.op} {b!r}") from exc
    raise TypeError(f"not an Expr node: {e!r}")
