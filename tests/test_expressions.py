import math
import warnings

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


# float.hex of each expression at (t, x) = (0.3, -1.7) and (0.0, 2.5), recorded
# with the hand-written parser this module had before Python's parser read it
RECORDED = [
    ("1 + 2*3 - 4/2", ("0x1.4000000000000p+2", "0x1.4000000000000p+2")),
    ("x - t - 1", ("-0x1.8000000000000p+1", "0x1.8000000000000p+0")),
    ("t*x/3", ("-0x1.5c28f5c28f5c3p-3", "0x0.0p+0")),
    ("-t", ("-0x1.3333333333333p-2", "-0x0.0p+0")),
    ("2^3^2", ("0x1.0000000000000p+9", "0x1.0000000000000p+9")),
    ("2**3**2", ("0x1.0000000000000p+9", "0x1.0000000000000p+9")),
    ("2^3*4", ("0x1.0000000000000p+5", "0x1.0000000000000p+5")),
    ("2**-3*x", ("-0x1.b333333333333p-3", "0x1.4000000000000p-2")),
    ("-2^2", ("-0x1.0000000000000p+2", "-0x1.0000000000000p+2")),
    ("2^-3", ("0x1.0000000000000p-3", "0x1.0000000000000p-3")),
    ("--x", ("-0x1.b333333333333p+0", "0x1.4000000000000p+1")),
    ("-x^2", ("-0x1.71eb851eb851ep+1", "-0x1.9000000000000p+2")),
    ("(t-x)^2", ("0x1.0000000000000p+2", "0x1.9000000000000p+2")),
    ("t^x", ("0x1.ef88d0dbd9b43p+2", "0x0.0p+0")),
    ("exp(-t)*sin(x)", ("-0x1.78232cae37086p-1", "0x1.326af0dcfcab1p-1")),
    ("ln(t + 2)", ("0x1.aa73108717b69p-1", "0x1.62e42fefa39efp-1")),
    ("cos(x)/tanh(t + 0.1)", ("-0x1.5b3fa72c16443p-2", "-0x1.01384e0dbed6bp+3")),
    ("exp(ln(2))", ("0x1.0000000000000p+1", "0x1.0000000000000p+1")),
    ("pi*x", ("-0x1.55ce26e06bfeep+2", "0x1.f6a7a2955385ep+2")),
    ("e^x", ("0x1.7622c78a98a07p-3", "0x1.85d6fd931e0bap+3")),
    ("2*pi - e", ("0x1.c84ec1d7402c7p+1", "0x1.c84ec1d7402c7p+1")),
    (".5*x + 5.", ("0x1.099999999999ap+2", "0x1.9000000000000p+2")),
    ("1e-3*t + 1E+3", ("0x1.f40009d495183p+9", "0x1.f400000000000p+9")),
    ("2.5e2/x - 1e+0", ("-0x1.281e1e1e1e1e2p+7", "0x1.8c00000000000p+6")),
    ("  x*t  ", ("-0x1.051eb851eb852p-1", "0x0.0p+0")),
    # NaN or inf, never complex and never ZeroDivisionError
    ("x^t", ("nan", "0x1.0000000000000p+0")),
    ("(t-0.5)^0.5", ("nan", "nan")),
    ("x^0.5", ("nan", "0x1.94c583ada5b53p+0")),
    ("(0-1)^0.5", ("nan", "nan")),
    ("1/t", ("0x1.aaaaaaaaaaaabp+1", "inf")),
    ("1/0", ("inf", "inf")),
    ("ln(x)", ("nan", "0x1.d5240f0e0e078p-1")),
]


@pytest.mark.parametrize("text, recorded", RECORDED, ids=[text for text, _ in RECORDED])
def test_values_match_recorded(text, recorded):
    points = [(0.3, -1.7), (0.0, 2.5)]
    e = parse_expression(text)
    ts, xs = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    with np.errstate(all="ignore"):
        values = {
            "float": [e(t, x) for t, x in points],
            "float64": [e(np.float64(t), np.float64(x)) for t, x in points],
            "array": list(np.broadcast_to(e(ts, xs), ts.shape)),
        }
    for kind, got in values.items():
        assert all(np.isrealobj(v) for v in got), (kind, got)
        assert tuple(float.hex(float(v)) for v in got) == recorded, kind


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
    ("2*(1+3", 3),     # the unclosed '('
    ("exp 3", 5),
    ("sin(x))", 7),
    ("foo(2)", 1),
    ("1..2", 3),       # the second '.'
    ("2^^3", 3),       # a column into the text as written, before ^ becomes **
    ("x // 2", 3),     # an operator outside the grammar, not the construct it joins
    ("(x) // 2", 5),
    ("t and x", 3),
    ("x if t else 1", 3),
    ("t < x", 3),      # outside the alphabet
])
def test_parse_errors_carry_position(bad, column):
    with pytest.raises(ExpressionError) as err:
        parse_expression(bad)
    assert err.value.position + 1 == column


@pytest.mark.parametrize("bad, message", [
    ("x // 2", "unexpected '//' (column 3 of 'x // 2')"),
    ("(x)//(2)", "unexpected '//' (column 4 of '(x)//(2)')"),
    ("t or x or 1", "unexpected 'or' (column 3 of 't or x or 1')"),
    ("x is not t", "unexpected 'is not' (column 3 of 'x is not t')"),
    ("x.real", "unexpected 'x.real' (column 1 of 'x.real')"),
])
def test_operator_outside_the_grammar_is_quoted(bad, message):
    with pytest.raises(ExpressionError) as err:
        parse_expression(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [
    "+x", "t < x", "x if t else 1", "x // 2", "x % 2", "x @ x", "t[0]", "x.real",
    "__import__('os')", "exp(x, 2)", "exp(x=1)", "2(3)", "(t)(x)",
    "1j", "0x1f", "1_000", "True", '"s"', '"\\d"', "[x]", "1, 2", "lambda: 1", "(t := 1)",
    "1if t else 2", "01", "1\xa0+ 2", "x # 1", "\uff58", "exp", "exp()",
])
def test_outside_the_grammar_rejected_without_warning(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_surrounding_whitespace_accepted():
    assert parse_expression("  x*t\t")(2.0, 3.0) == 6.0
    with pytest.raises(ExpressionError) as err:
        parse_expression("  1 +")
    assert err.value.position + 1 == 6


def test_uses():
    e = parse_expression("t + x")
    assert e.uses("t") and e.uses("x")
    assert not parse_expression("2*t").uses("x")
