"""Render ASTs back to concrete syntax.

Parenthesization reads the parser's precedence table, so reparsing the
output reproduces a structurally equal tree: a child is bracketed when it
binds more weakly than its position requires.
"""

from __future__ import annotations

from ..errors import depth_guard
from ..numerics import number_text
from .nodes import (
    ATOMS,
    Aggregate,
    And,
    Arith,
    BotConst,
    Compare,
    Cond,
    ElemEq,
    Exists,
    Forall,
    Ifp,
    Implies,
    Leq,
    Literal,
    Node,
    Not,
    One,
    Or,
    Sum,
    Zero,
)
from .parser import COMPARISON, PRECEDENCE, PREFIX, PRIMARY, UNARY

__all__ = ["to_text"]


def _call(name: str, args: tuple[str, ...]) -> str:
    return f"{name}({', '.join(args)})"


def _braces(vars_: tuple[str, ...], guard: Node) -> str:
    return "{" + ", ".join(vars_) + " : " + _render(guard)[0] + "}"


def _fmt(node: Node, ctx: int) -> str:
    text, prec = _render(node)
    if prec < ctx:
        return f"({text})"
    return text


def _binary(op: str, left: Node, right: Node) -> tuple[str, int]:
    prec = PRECEDENCE[op]
    if op == "implies":  # right associative
        return f"{_fmt(left, prec + 1)} implies {_fmt(right, prec)}", prec
    # left associative; comparisons do not associate at all
    left_ctx = prec + 1 if prec == COMPARISON else prec
    return f"{_fmt(left, left_ctx)} {op} {_fmt(right, prec + 1)}", prec


_OPERATOR = {Implies: "implies", Or: "or", And: "and", Leq: "<="}

_CONSTANT = {Zero: "0", One: "1", BotConst: "bot"}


def _render(node: Node) -> tuple[str, int]:
    word = _OPERATOR.get(type(node))
    if word is not None:
        return _binary(word, node.left, node.right)
    word = _CONSTANT.get(type(node))
    if word is not None:
        return word, PRIMARY
    if isinstance(node, Arith) and node.op == "-" and type(node.left) is Zero:
        return f"-{_fmt(node.right, UNARY)}", UNARY
    if isinstance(node, (Arith, Compare)):
        return _binary(node.op, node.left, node.right)
    if isinstance(node, Not):
        return f"not {_fmt(node.body, PREFIX)}", PREFIX
    if isinstance(node, (Exists, Forall)):
        word = "exists" if isinstance(node, Exists) else "forall"
        return f"{word} {node.var} {_fmt(node.body, PREFIX)}", PREFIX
    if isinstance(node, ElemEq):
        return f"{node.left} = {node.right}", COMPARISON
    if type(node) in ATOMS:
        return _call(node.name, node.args), PRIMARY
    if isinstance(node, Literal):
        return number_text(node.value), PRIMARY
    if isinstance(node, Cond):
        # the branches extend over a full term, so arithmetic brackets a conditional
        branch = PRECEDENCE["+"]
        text = f"if {_render(node.test)[0]} then {_fmt(node.then, branch)} else {_fmt(node.otherwise, branch)}"
        return text, COMPARISON
    if isinstance(node, Sum):
        return f"sum {_braces(node.vars, node.guard)} {_fmt(node.body, UNARY)}", PRIMARY
    if isinstance(node, Aggregate):
        head = f"{node.kind} {_braces(node.vars, node.guard)}"
        if node.body is None:
            return head, PRIMARY
        return f"{head} {_fmt(node.body, UNARY)}", PRIMARY
    if isinstance(node, Ifp):
        head = _call(node.name, node.vars)
        return f"ifp ({head} <- {_render(node.body)[0]}) ({', '.join(node.applied)})", PRIMARY
    raise TypeError(f"cannot print node of type {type(node).__name__}")


@depth_guard
def to_text(node: Node) -> str:
    """Concrete syntax for an AST; ``parse(to_text(e)) == e``."""
    return _render(node)[0]
