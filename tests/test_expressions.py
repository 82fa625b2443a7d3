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


def test_exact_time_derivative():
    e = parse_expression("exp(2*t) + x*cos(t)")
    t, x = 0.7, 1.5
    expected = 2.0 * math.exp(2 * t) - x * math.sin(t)
    assert float(e.dt(t, x)) == pytest.approx(expected, rel=1e-14)
    # power with constant exponent avoids log(a) at a <= 0
    p = parse_expression("t^3")
    assert float(p.dt(2.0)) == pytest.approx(12.0, rel=1e-14)


def test_time_derivative_helper_falls_back_to_differences():
    fn = lambda t: math.exp(2.0 * t)
    assert time_derivative(fn, 0.5, span=1.0) == pytest.approx(2 * math.exp(1.0), rel=1e-7)
    # one-sided at the ends of the span
    assert time_derivative(fn, 0.0, span=1.0) == pytest.approx(2.0, rel=1e-5)
    assert time_derivative(fn, 1.0, span=1.0) == pytest.approx(2 * math.exp(2.0), rel=1e-5)
    # exact path for expression trees
    e = parse_expression("exp(2*t)")
    assert time_derivative(e, 0.5, span=1.0) == pytest.approx(2 * math.exp(1.0), rel=1e-14)


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
