"""Tiny closed-form expression language for problem coefficients.

Config files describe coefficients declaratively (``sigma = 1 + 0.1*tanh(x)``)
instead of shipping opaque callbacks, so an experiment file is a complete,
reproducible record.  The grammar is deliberately small:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?          # right-associative power
    unary   := '-' unary | atom
    atom    := NUMBER | 'pi' | 'e' | 't' | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := exp | ln | sin | cos | tanh

``**`` is accepted as a synonym for ``^``.  Evaluation is vectorized over
numpy arrays.  Time derivatives are exact: every node propagates a dual
number (value, d/dt), which the backward solvers use where a coefficient's
time slope is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ExpressionError(ValueError):
    """Parse failure, with the offset of the offending token."""

    def __init__(self, message: str, position: int, text: str):
        self.position = position
        self.text = text
        super().__init__(f"{message} (column {position + 1} of {text!r})")


_FUNCS = {
    "exp": np.exp,
    "ln": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
}

# d/du of each primitive, expressed in terms of u and f(u)
_FUNC_DERIVS = {
    "exp": lambda u, fu: fu,
    "ln": lambda u, fu: 1.0 / u,
    "sin": lambda u, fu: np.cos(u),
    "cos": lambda u, fu: -np.sin(u),
    "tanh": lambda u, fu: 1.0 - fu * fu,
}

_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}


@dataclass(frozen=True)
class Expr:
    """A parsed expression tree.

    ``op`` is one of 'num', 'var', '+', '-', '*', '/', '^', 'neg' or a
    function name; ``args`` holds child nodes, ``value`` the literal for
    'num' and the variable name for 'var'.
    """

    op: str
    args: tuple = ()
    value: float | str | None = None
    source: str = ""

    def __call__(self, t=0.0, x=0.0):
        return self._eval(t, x)

    def _eval(self, t, x):
        op = self.op
        if op == "num":
            return self.value
        if op == "var":   # numpy floats, as in arrays: (-0.5) ** 0.5 is NaN, not complex
            v = t if self.value == "t" else x
            return np.float64(v) if type(v) in (int, float) else v
        if op == "neg":
            return -self.args[0]._eval(t, x)
        if op in _FUNCS:
            return _FUNCS[op](self.args[0]._eval(t, x))
        a = self.args[0]._eval(t, x)
        b = self.args[1]._eval(t, x)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == "^":
            return a ** b
        raise AssertionError(f"unknown op {op!r}")

    def dt(self, t=0.0, x=0.0):
        """Exact d/dt at (t, x) via dual-number propagation."""
        return self._dual(t, x)[1]

    def _dual(self, t, x):
        op = self.op
        if op == "num":
            return self.value, 0.0
        if op == "var":
            v = self._eval(t, x)
            return v, (np.ones_like if self.value == "t" else np.zeros_like)(np.asarray(v, dtype=float))
        if op == "neg":
            v, d = self.args[0]._dual(t, x)
            return -v, -d
        if op in _FUNCS:
            u, du = self.args[0]._dual(t, x)
            fu = _FUNCS[op](u)
            return fu, _FUNC_DERIVS[op](u, fu) * du
        a, da = self.args[0]._dual(t, x)
        b, db = self.args[1]._dual(t, x)
        if op == "+":
            return a + b, da + db
        if op == "-":
            return a - b, da - db
        if op == "*":
            return a * b, da * b + a * db
        if op == "/":
            return a / b, (da * b - a * db) / (b * b)
        if op == "^":
            v = a ** b
            # general power rule; avoid log(a) when the exponent is constant
            if _is_constant(self.args[1]):
                return v, b * a ** (b - 1.0) * da
            return v, v * (db * np.log(a) + b * da / a)
        raise AssertionError(f"unknown op {op!r}")

    def uses(self, name: str) -> bool:
        if self.op == "var":
            return self.value == name
        return any(a.uses(name) for a in self.args)

    def __repr__(self):
        return f"Expr({self.source!r})"


def _is_constant(node: Expr) -> bool:
    if node.op == "num":
        return True
    if node.op == "var":
        return False
    return all(_is_constant(a) for a in node.args)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ExpressionError(message, self.pos, self.text)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def parse(self) -> Expr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            if self.take("+"):
                node = Expr("+", (node, self.term()))
            elif self.take("-"):
                node = Expr("-", (node, self.term()))
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            if self.take("*"):
                node = Expr("*", (node, self.factor()))
            elif self.take("/"):
                node = Expr("/", (node, self.factor()))
            else:
                return node

    def factor(self) -> Expr:
        # python convention: -2^2 = -(2^2), and 2^-3 works
        if self.take("-"):
            return Expr("neg", (self.factor(),))
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        self.skip_ws()
        if self.text.startswith("**", self.pos):
            self.pos += 2
            return Expr("^", (node, self.factor()))
        if self.peek() == "^":
            self.pos += 1
            return Expr("^", (node, self.factor()))
        return node

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of expression")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.identifier()
        self.error(f"unexpected {ch!r}")

    def number(self) -> Expr:
        start = self.pos
        seen_exp = False
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isdigit() or c == ".":
                self.pos += 1
            elif c in "eE" and not seen_exp and self.pos + 1 < len(self.text) \
                    and (self.text[self.pos + 1].isdigit() or self.text[self.pos + 1] in "+-"):
                seen_exp = True
                self.pos += 1
                if self.text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        token = self.text[start:self.pos]
        try:
            return Expr("num", value=np.float64(token))
        except ValueError:
            self.pos = start
            self.error(f"bad number {token!r}")

    def identifier(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if name in ("t", "x"):
            return Expr("var", value=name)
        if name in _CONSTANTS:
            return Expr("num", value=_CONSTANTS[name])
        if name in _FUNCS:
            if not self.take("("):
                self.error(f"function {name!r} requires parentheses")
            arg = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return Expr(name, (arg,))
        self.pos = start
        self.error(f"unknown name {name!r}")


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into an expression tree over variables t and x."""
    node = _Parser(text).parse()
    object.__setattr__(node, "source", text)
    return node


def time_derivative(fn, t, span: float = 1.0):
    """d/dt of a scalar function of time.

    Exact when ``fn`` is an expression tree (or anything exposing ``.dt``);
    central finite differences otherwise, falling back to one-sided steps
    at the ends of [0, span].
    """
    if hasattr(fn, "dt"):
        return fn.dt(t, 0.0)
    h = 1e-6 * max(1.0, abs(t))
    lo, hi = t - h, t + h
    if lo < 0.0:
        return (fn(t + h) - fn(t)) / h
    if hi > span:
        return (fn(t) - fn(t - h)) / h
    return (fn(hi) - fn(lo)) / (2.0 * h)

