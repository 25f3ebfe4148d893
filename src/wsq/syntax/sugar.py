"""Expansion of sugar forms into the core grammar.

The sugar comparisons reduce to ``<=`` and negation under the total
order; rational literals expand to ``{0, 1, +, -, *, /}`` combinations
of depth logarithmic in the numerator and denominator;
``count``/``avg`` reduce to summation, and ``min``/``max`` reduce to an
average over the tuples achieving the extremum, guarded by a universally
quantified comparison with a renamed copy of the scope.

Conditionals are core, but ``expand_cond=True`` additionally rewrites
them into the count-ratio form ``n*t + (1-n)*e`` where ``n`` is 1 or 0
depending on the test.  That form agrees with the conditional whenever
the branch not taken is defined; an undefined untaken branch poisons the
product, so the flag is off by default.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import depth_guard
from .nodes import (
    Aggregate,
    And,
    Arith,
    BotConst,
    Compare,
    Cond,
    ElemEq,
    Forall,
    Implies,
    Leq,
    Literal,
    Node,
    Not,
    One,
    Sum,
    Zero,
    all_var_names,
    fresh_var,
    map_children,
    substitute,
)

__all__ = ["desugar", "literal_term"]


def _nat_term(n: int) -> Node:
    """A term of depth O(log n) denoting n, which must be positive.

    Reads the binary digits of n from the top: each further digit doubles
    the term so far as ``(1 + 1) * t`` and adds 1 if the digit is set.
    """
    term: Node = One()
    for digit in bin(n)[3:]:
        term = Arith("*", Arith("+", One(), One()), term)
        if digit == "1":
            term = Arith("+", term, One())
    return term


def literal_term(value: Fraction) -> Node:
    """A core term with empty vocabulary denoting the given rational."""
    n, d = value.numerator, value.denominator
    if n == 0:
        num: Node = Zero()
    elif n > 0:
        num = _nat_term(n)
    else:
        num = Arith("-", Zero(), _nat_term(-n))
    if d == 1:
        return num
    return Arith("/", num, _nat_term(d))


@depth_guard
def desugar(node: Node, *, expand_cond: bool = False) -> Node:
    """Rewrite an expression into the core grammar.

    Generic atoms are left in place (their kind is a property of the
    target structure, not of the syntax).  Fresh variables introduced for
    the min/max guards avoid every name in the input.  Each node object is
    rewritten once and a node without sugar below it is returned as it
    is, so a subtree shared in the input stays shared in the output,
    including the renamed copy of a min/max scope.  Rebuilt nodes keep
    their ``span``.
    """
    return _desugar(node, {}, all_var_names(node), expand_cond)


def _desugar(n: Node, done: dict[int, Node], used: set[str], expand_cond: bool) -> Node:
    out = done.get(id(n))
    if out is None:
        out = done[id(n)] = _rewrite(n, done, used, expand_cond)
    return out


def _rewrite(n: Node, done: dict[int, Node], used: set[str], expand_cond: bool) -> Node:
    def go(child: Node) -> Node:
        return _desugar(child, done, used, expand_cond)

    if isinstance(n, Compare):
        left, right = go(n.left), go(n.right)
        if n.op == "<=":
            return Leq(left, right)
        if n.op == ">=":
            return Leq(right, left)
        if n.op == "<":
            return Not(Leq(right, left))
        if n.op == ">":
            return Not(Leq(left, right))
        eq = And(Leq(left, right), Leq(right, left))
        return eq if n.op == "=" else Not(eq)

    if isinstance(n, BotConst):
        return Arith("/", One(), Zero())
    if isinstance(n, Literal):
        return literal_term(n.value)

    if isinstance(n, Aggregate):
        guard = go(n.guard)
        if n.kind == "count":
            return Sum(n.vars, guard, One())
        body = go(n.body)
        if n.kind == "avg":
            return _avg(n.vars, guard, body)
        renames = {v: fresh_var(v, used) for v in n.vars}
        guard_copy = substitute(guard, renames)
        body_copy = substitute(body, renames)
        if n.kind == "max":
            cmp = Leq(body_copy, body)
        else:
            cmp = Leq(body, body_copy)
        selector = Implies(guard_copy, cmp)
        for v in reversed([renames[v] for v in n.vars]):
            selector = Forall(v, selector)
        return _avg(n.vars, And(guard, selector), body)

    if isinstance(n, Cond) and expand_cond:
        test, then, other = go(n.test), go(n.then), go(n.otherwise)
        v = fresh_var("c", used)
        picked = Arith("/", Sum((v,), test, One()), Sum((v,), ElemEq(v, v), One()))
        return Arith("+", Arith("*", picked, then), Arith("*", Arith("-", One(), picked), other))

    return map_children(n, go)


def _avg(vars_, guard, body):
    return Arith("/", Sum(vars_, guard, body), Sum(vars_, guard, One()))
