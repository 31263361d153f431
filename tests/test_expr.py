"""Parser and evaluator tests."""

import math
import random

import pytest

from semitrotter.expr import Call, ExprEvalError, ExprSyntaxError, Var, eval_expr, parse_expr


def test_parse_cos_x():
    e = parse_expr("cos(x)")
    assert e == Call("cos", Var())


def test_parse_identity():
    assert parse_expr("x") == Var()


def test_double_angle_at_zero():
    e = parse_expr("2*sin(x)^2 - 1")
    assert eval_expr(e, 0.0) == pytest.approx(-1.0)


def test_eval_basics():
    assert eval_expr(parse_expr("cos(x)"), 0.0) == 1.0
    assert eval_expr(parse_expr("pi"), 3.0) == pytest.approx(math.pi)
    assert eval_expr(parse_expr("exp(x)"), 1.0) == pytest.approx(math.e)
    assert eval_expr(parse_expr("tanh(x)"), 0.0) == 0.0


def test_precedence():
    assert eval_expr(parse_expr("2+3*4"), 0.0) == 14.0
    assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0
    assert eval_expr(parse_expr("(2^3)^2"), 0.0) == 64.0
    assert eval_expr(parse_expr("-2^2"), 0.0) == -4.0  # ^ binds tighter than unary -
    assert eval_expr(parse_expr("2^-1"), 0.0) == 0.5
    assert eval_expr(parse_expr("10-4-3"), 0.0) == 3.0  # left associative
    assert eval_expr(parse_expr("16/4/2"), 0.0) == 2.0


def test_unary_minus():
    assert eval_expr(parse_expr("-x"), 2.0) == -2.0
    assert eval_expr(parse_expr("--x"), 2.0) == 2.0
    assert eval_expr(parse_expr("3*-2"), 0.0) == -6.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1+$2")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(x")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 2")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("cos(y)")
    assert "y" in str(err.value)
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("log(x)")


def test_eval_errors():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("1/x"), 0.0)
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("x^-1"), 0.0)  # 0^negative
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("(-4)^(1/2)"), 0.0)  # stays real-valued
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("sin(1e200*1e200)"), 0.0)  # sin of inf


_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh}


def _random_text(rng: random.Random, depth: int) -> str:
    """Random source text over the whole grammar; literals are floats, as in the parser."""
    if depth == 0:
        return rng.choice(["x", "pi", f"{rng.uniform(0, 5):.3f}", f"{rng.randint(1, 9)}.", ".5", "2e-1"])
    kind = rng.randrange(6)
    sub = lambda: _random_text(rng, depth - 1)
    if kind < 2:
        space = rng.choice(["", " "])
        return f"{sub()}{space}{rng.choice('+-*/')}{space}{sub()}"
    if kind == 2:
        return f"-{sub()}"
    if kind == 3:
        return f"{rng.choice(sorted(_FUNCTIONS))}({sub()})"
    if kind == 4:
        return f"({sub()})"
    return f"{sub()}^{rng.choice([sub(), str(rng.randint(0, 3)) + '.', '-1.'])}"


def test_random_text_matches_python_eval():
    """parse + eval agrees with Python's eval of the same text, ^ read as **, on 1000 texts.

    The precedence rules are Python's: ^ binds tighter than unary minus and is
    right associative, so -2^2 = -4, 2^3^2 = 512 and 2^-1 = 0.5 in both. A text
    Python cannot evaluate to a real number must raise ExprEvalError.
    """
    rng = random.Random(2024)
    checked = 0
    for _ in range(1000):
        text = _random_text(rng, rng.randint(1, 5))
        x = rng.uniform(-math.pi, math.pi)
        try:
            expected = eval(text.replace("^", "**"), {"__builtins__": {}}, dict(_FUNCTIONS, x=x, pi=math.pi))
        except (ZeroDivisionError, OverflowError, ValueError, TypeError):  # TypeError: complex into math
            expected = None
        if isinstance(expected, complex):
            expected = None
        if expected is None:
            with pytest.raises(ExprEvalError):
                eval_expr(parse_expr(text), x)
            continue
        got = eval_expr(parse_expr(text), x)
        assert got == expected or (math.isnan(got) and math.isnan(expected)), text
        checked += 1
    assert checked > 500  # most random texts evaluate cleanly
