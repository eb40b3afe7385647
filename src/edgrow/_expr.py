"""Tiny expression grammar for rate-sequence definitions.

Kernel configs may define the separable factors b_k and a_j as strings such
as ``"k"``, ``"1 + 3/k"`` or ``"(k+2)^2 / (k+1)"``.  The grammar is
deliberately restricted to rational functions of a single integer variable
with real coefficients: numbers, one variable (spelled ``k``, ``j``, ``l``
or ``n``), ``+ - * /``, integer powers via ``^`` (or ``**``) and
parentheses.  Precedence and associativity are Python's: ``-k^2`` is
``-(k^2)``, ``2^-1`` is ``1/2`` and ``k/2/2`` is ``(k/2)/2``.  An exponent is
an integer literal with optional signs, also in parentheses (``k^(2)``,
``k^(-1)``).

The text is split into numbers, variable names and operators by ``_TOKEN``,
so spellings only Python knows (comments, ``1_0``, ``0x1``, ``True``,
``1j``, strings, attributes, calls) never get further.  The tokens are
rebuilt as Python source, each number as a placeholder name, and read by
:func:`ast.parse`; in one pass, each node of the grammar becomes a closure
that evaluates it on an array, and anything else is rejected.  Nothing is
compiled or run as Python.  A number keeps its own text: a value is
``float`` of it and an exponent ``int`` of it.  Every failure, including
input nested too deeply for the parser, is a :class:`RateExpressionError`.

The tree of closures is at most ``_MAX_DEPTH = 100`` nodes deep (a
``k+k+...`` chain of 100 terms, or 99 operators nested in one another);
anything deeper is rejected while it is built.  Building and evaluating
recurse once per level, so with this cap neither comes near the
interpreter's recursion limit, and what is accepted does not depend on how
deep the caller's stack is.
"""

from __future__ import annotations

import ast
import operator
import re
from typing import Callable, Union

import numpy as np

__all__ = ["RateExpressionError", "compile_rational"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>[A-Za-z_]\w*)"
    r"|(?P<op>\*\*|[()+\-*/^]))"
)

_VAR_NAMES = {"k", "j", "l", "n"}
_SIGNS = ("+", "-")
_BINARY = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv
}
_MAX_DEPTH = 100


class RateExpressionError(ValueError):
    """Raised when a rate expression does not fit the rational grammar."""


def _tokenize(text: str) -> list[tuple[str, str]]:
    """``(kind, token)`` pairs of ``text``; the kind is ``num``, ``var`` or ``op``."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise RateExpressionError(f"unexpected character {text[pos]!r}")
        tokens.append((match.lastgroup, match.group(match.lastgroup)))
        pos = match.end()
    return tokens


def _python_source(text: str) -> tuple[str, dict]:
    """``text`` as Python source, with the map from placeholder names to numbers.

    A sign that follows two signs is folded into the one before it (both
    are unary), so a run of signs nests no deeper than two.
    """
    source: list[str] = []
    numbers: dict = {}
    for kind, tok in _tokenize(text):
        if kind == "num":
            name = f"_{len(numbers)}"
            numbers[name] = tok
            source.append(name)
        elif kind == "var" and tok not in _VAR_NAMES:
            raise RateExpressionError(
                f"unknown symbol {tok!r}; the only variable is the cluster index"
            )
        elif tok in _SIGNS and len(source) >= 2 and source[-1] in _SIGNS and source[-2] in _SIGNS:
            source[-1] = "+" if source[-1] == tok else "-"
        else:
            source.append("**" if tok == "^" else tok)
    return " ".join(source), numbers


def _node(node: ast.AST, numbers: dict, depth: int = 1) -> Callable[[np.ndarray], np.ndarray]:
    """The map that evaluates a parsed grammar node at ``depth`` in the tree."""
    if depth > _MAX_DEPTH:
        raise RateExpressionError(f"nested deeper than {_MAX_DEPTH} levels")
    match node:
        case ast.Name(id=name) if name in _VAR_NAMES:
            return lambda x: x
        case ast.Name(id=name):
            value = float(numbers[name])
            return lambda x: np.full_like(x, value, dtype=float)
        case ast.UnaryOp(op=ast.UAdd(), operand=operand):
            return _node(operand, numbers, depth + 1)
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            inner = _node(operand, numbers, depth + 1)
            return lambda x: -inner(x)
        case ast.BinOp(left=left, op=ast.Pow(), right=right):
            base, power = _node(left, numbers, depth + 1), _exponent(right, numbers, depth + 1)
            return lambda x: base(x) ** power
        case ast.BinOp(left=left, op=op, right=right) if type(op) in _BINARY:
            apply = _BINARY[type(op)]
            lhs, rhs = _node(left, numbers, depth + 1), _node(right, numbers, depth + 1)
            return lambda x: apply(lhs(x), rhs(x))
    raise RateExpressionError(f"{type(node).__name__} is not part of the grammar")


def _exponent(node: ast.AST, numbers: dict, depth: int) -> int:
    """The value of an integer literal with optional signs."""
    if depth > _MAX_DEPTH:
        raise RateExpressionError(f"nested deeper than {_MAX_DEPTH} levels")
    match node:
        case ast.UnaryOp(op=ast.UAdd(), operand=operand):
            return _exponent(operand, numbers, depth + 1)
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            return -_exponent(operand, numbers, depth + 1)
        case ast.Name(id=name) if name in numbers:
            try:
                return int(numbers[name])
            except ValueError:
                pass
    raise RateExpressionError("exponent must be an integer")


def _parse(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluating map of a rate expression, on float arrays."""
    try:
        source, numbers = _python_source(text)
        return _node(ast.parse(source, mode="eval").body, numbers)
    except SyntaxError as exc:
        reason = exc.msg
    except (RecursionError, MemoryError):
        reason = "nested too deeply"
    except RateExpressionError as exc:
        reason = str(exc)
    raise RateExpressionError(f"rate expression {text!r}: {reason}")


def compile_rational(
    expression: Union[str, float, int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a rational expression of one integer index into a vectorized map.

    Numbers are accepted directly and become constant maps.
    """
    if isinstance(expression, (int, float)):
        value = float(expression)
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    evaluate = _parse(str(expression))
    return lambda x: evaluate(np.asarray(x, dtype=float))
