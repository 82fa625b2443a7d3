import math

import numpy as np
import pytest

from fbsdelab.expressions import ExpressionError, parse_expression, time_derivative


def test_arithmetic_and_precedence():
    e = parse_expression("1 + 2*3 - 4/2")
    assert e() == 5.0
    assert parse_expression("2^3^2")() == 512.0          # right-associative
    assert parse_expression("2**3*4")() == 32.0
    assert parse_expression("-2^2")() == -4.0            # unary minus binds looser
    assert parse_expression("(1+2)*(3+4)")() == 21.0


def test_variables_and_functions():
    e = parse_expression("exp(-t) * sin(x) + tanh(t*x)")
    t, x = 0.3, 1.2
    assert e(t, x) == pytest.approx(math.exp(-t) * math.sin(x) + math.tanh(t * x), rel=1e-15)
    assert parse_expression("cos(0)")() == 1.0
    assert parse_expression("ln(e)")() == pytest.approx(1.0, rel=1e-15)
    assert parse_expression("pi")() == pytest.approx(math.pi)


def test_vectorized_evaluation():
    e = parse_expression("x^2 + t")
    x = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(e(0.5, x), x ** 2 + 0.5)


def test_scalar_arguments_evaluate_like_arrays():
    # a negative base under a fractional power is NaN, never complex, whether
    # the arguments are Python floats, numpy scalars or arrays
    cases = [("(t-0.5)^0.5", 0.0, 0.0), ("t^x", -0.5, 0.5), ("(0-1)^0.5", 0.0, 0.0)]
    with np.errstate(invalid="ignore"):
        for text, t, x in cases:
            e = parse_expression(text)
            for args in [(t, x), (np.float64(t), np.float64(x)), (np.array([t]), np.array([x]))]:
                value = e(*args)
                assert np.isrealobj(value) and np.all(np.isnan(value)), (text, args)


def test_time_derivative_helper_falls_back_to_differences():
    fn = lambda t: math.exp(2.0 * t)
    assert time_derivative(fn, 0.5, span=1.0) == pytest.approx(2 * math.exp(1.0), rel=1e-7)
    # one-sided at the ends of the span
    assert time_derivative(fn, 0.0, span=1.0) == pytest.approx(2.0, rel=1e-5)
    assert time_derivative(fn, 1.0, span=1.0) == pytest.approx(2 * math.exp(2.0), rel=1e-5)
    # an expression tree takes the same differences
    e = parse_expression("exp(2*t)")
    assert time_derivative(e, 0.5, span=1.0) == pytest.approx(2 * math.exp(1.0), rel=1e-8)
    assert time_derivative(e, 0.0, span=1.0) == pytest.approx(2.0, rel=1e-5)
    assert time_derivative(e, 1.0, span=1.0) == pytest.approx(2 * math.exp(2.0), rel=1e-5)


@pytest.mark.parametrize("bad, column", [
    ("1+", 3),
    ("2*(1+3", 7),
    ("exp 3", 5),
    ("sin(x))", 7),
    ("foo(2)", 1),
    ("1..2", 1),
])
def test_parse_errors_carry_position(bad, column):
    with pytest.raises(ExpressionError) as err:
        parse_expression(bad)
    assert err.value.position + 1 == column


def test_uses():
    e = parse_expression("t + x")
    assert e.uses("t") and e.uses("x")
    assert not parse_expression("2*t").uses("x")
