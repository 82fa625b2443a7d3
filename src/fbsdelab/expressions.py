"""Tiny closed-form expression language for problem coefficients.

Config files describe coefficients declaratively (``sigma = 1 + 0.1*tanh(x)``)
instead of shipping opaque callbacks, so an experiment file is a complete,
reproducible record.  The grammar is deliberately small:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?           # right-associative; -2^2 = -(2^2)
    atom    := NUMBER | 'pi' | 'e' | 't' | 'x' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := exp | ln | sin | cos | tanh

``**`` is accepted as a synonym for ``^``.  Python's own parser reads the
text, with ``^`` spelled ``**`` (the same precedence and associativity), behind
a whitelist that admits exactly this grammar: numbers are plain decimals
(``2``, ``0.5``, ``.5``, ``5.``, ``1e-3``), and every other construct Python
knows is an ``ExpressionError`` with its column in the text as written (an
operator's own, for ``x // 2``), as is nesting too deep to parse.  Each
expression is compiled once into a function of (t, x) that sees only the five
functions, the two constants and its own literals.  Evaluation is vectorized
over numpy arrays.  A coefficient's time slope comes from ``time_derivative``,
which differences any function of time, expression or not.
"""

from __future__ import annotations

import ast
import math
import re
import warnings

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

_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)

# Python reads some text that no node records (comments, line joins, Unicode
# names it normalises to ASCII), so the grammar's alphabet is checked first.
_OUTSIDE_ALPHABET = re.compile(r"[^ \t0-9A-Za-z.+\-*/^()]")

_DECIMAL = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class Expr:
    """A compiled expression over the variables t and x."""

    def __init__(self, source: str, fn, names: frozenset):
        self.source = source
        self._fn = fn
        self._names = names
        self._t, self._x = "t" in names, "x" in names

    def __call__(self, t=0.0, x=0.0):
        # numpy floats, as in arrays: (-0.5) ** 0.5 is NaN, not complex
        if self._t and type(t) in (int, float):
            t = np.float64(t)
        if self._x and type(x) in (int, float):
            x = np.float64(x)
        return self._fn(t, x)

    def uses(self, name: str) -> bool:
        return name in self._names

    def __repr__(self):
        return f"Expr({self.source!r})"


def parse_expression(text: str) -> Expr:
    """Parse ``text`` into a compiled expression over variables t and x."""
    body = text.strip()
    lead = len(text) - len(text.lstrip())
    # column in ``text`` of each character of ``src``, and of its end
    cols = [lead + i for i, ch in enumerate(body) for _ in range(1 + (ch == "^"))]
    cols.append(lead + len(body))
    src = body.replace("^", "**")

    def fail(message, k):
        raise ExpressionError(message, cols[k], text)

    def segment(node):
        return text[cols[node.col_offset]:cols[node.end_col_offset]]

    def reject(node):
        # a construct of two or more operands (a // b, a and b, a if b else c) is
        # reported at its operator: the text between the first two, less spaces and parentheses
        operands = sorted((child for child in ast.iter_child_nodes(node)
                           if hasattr(child, "col_offset")), key=lambda child: child.col_offset)
        if len(operands) < 2:
            fail(f"unexpected {segment(node)!r}", node.col_offset)
        gap = src[operands[0].end_col_offset:operands[1].col_offset]
        k = operands[1].col_offset - len(gap.lstrip(" \t)"))
        operator = text[cols[k]:cols[operands[1].col_offset]].rstrip(" \t(")
        fail(f"unexpected {operator!r}", k)

    bad = _OUTSIDE_ALPHABET.search(src)
    if bad:
        fail(f"unexpected {bad.group()!r}", bad.start())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a literal Python warns about is an error
            tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        fail(exc.msg, exc.offset - 1 if exc.offset else len(src))   # offset 0: end of input
    except RecursionError:
        fail("nested too deeply", 0)

    names = set()
    namespace = {"__builtins__": {}, **_FUNCS, **_CONSTANTS}

    def admit(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            node.left, node.right = admit(node.left), admit(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node.operand = admit(node.operand)
        elif isinstance(node, ast.Call):
            if getattr(node.func, "id", None) not in _FUNCS:
                fail(f"unknown function {segment(node.func)!r}", node.func.col_offset)
            if len(node.args) != 1 or node.keywords:
                fail(f"function {node.func.id!r} takes one argument", node.col_offset)
            node.args[0] = admit(node.args[0])
        elif isinstance(node, ast.Name):
            if node.id not in ("t", "x", *_CONSTANTS):
                fail(f"unknown name {node.id!r}", node.col_offset)
            names.add(node.id)
        elif isinstance(node, ast.Constant) and _DECIMAL.fullmatch(segment(node)):
            # a name, not a constant: Python would fold (0-1)**0.5 to complex
            name = f"_{len(namespace)}"
            namespace[name] = np.float64(segment(node))
            return ast.copy_location(ast.Name(name, ast.Load()), node)
        else:
            reject(node)
        return node

    fn = ast.parse("lambda t, x: 0", mode="eval")
    try:
        fn.body.body = admit(tree.body)
        code = compile(fn, "<expression>", "eval")
    except RecursionError:
        fail("nested too deeply", 0)
    return Expr(text, eval(code, namespace), frozenset(names - _CONSTANTS.keys()))


def time_derivative(fn, t, span: float = 1.0):
    """d/dt of a scalar function of time by central differences.

    The step is 1e-6 relative (absolute below |t| = 1); at the ends of
    [0, span] the difference is one-sided.
    """
    h = 1e-6 * max(1.0, abs(t))
    lo, hi = t - h, t + h
    if lo < 0.0:
        return (fn(t + h) - fn(t)) / h
    if hi > span:
        return (fn(t) - fn(t - h)) / h
    return (fn(hi) - fn(lo)) / (2.0 * h)

