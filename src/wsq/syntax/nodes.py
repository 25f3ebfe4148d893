"""AST node types for formulas and weight terms.

Core formula constructors: element equality, relation atoms, term
comparison by ``<=``, the Boolean connectives, and the two quantifiers.
Core term constructors: the constants 0 and 1, weight atoms, the four
arithmetic operators, the conditional, bounded summation, and the
inflationary fixed-point operator.  On top of the core, the parser
produces sugar nodes (rational literals, ``bot``, the derived comparison
operators, and the count/avg/min/max aggregates) which the evaluator
understands natively and :func:`wsq.syntax.sugar.desugar` eliminates.

Nodes are frozen dataclasses compared structurally; the optional source
``span`` is excluded from comparisons so that parsing a pretty-printed
tree reproduces an equal tree.  A generic :class:`Atom` stands for an
``ident(vars)`` occurrence whose relation-vs-weight kind is only decided
against a concrete structure at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

__all__ = [
    "Span",
    "Node",
    "Formula",
    "Term",
    "Expr",
    "ElemEq",
    "RelAtom",
    "Leq",
    "Compare",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "Zero",
    "One",
    "Literal",
    "BotConst",
    "WeightAtom",
    "Atom",
    "Arith",
    "Cond",
    "Sum",
    "Aggregate",
    "Ifp",
    "children",
    "walk",
    "syntactic_kind",
    "all_var_names",
    "substitute",
    "fresh_var",
]

Span = tuple[int, int]  # 1-based (line, column) of the node's first token


@dataclass(frozen=True)
class Node:
    span: Optional[Span] = field(default=None, compare=False, repr=False, kw_only=True)


class Formula(Node):
    pass


class Term(Node):
    pass


Expr = Node  # a formula, a term, or a generic atom


# -- formulas ---------------------------------------------------------------


@dataclass(frozen=True)
class ElemEq(Formula):
    """Equality between two element variables."""

    left: str
    right: str


@dataclass(frozen=True)
class RelAtom(Formula):
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Leq(Formula):
    """Core comparison of two terms under the total order with bot lowest."""

    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Compare(Formula):
    """Sugar comparison: one of ``< > >= = !=`` between terms."""

    op: str
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


# -- terms ------------------------------------------------------------------


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Literal(Term):
    """Sugar: an exact rational constant other than 0 and 1."""

    value: Fraction


@dataclass(frozen=True)
class BotConst(Term):
    """Sugar: the undefined constant, definable as 1/0."""


@dataclass(frozen=True)
class WeightAtom(Term):
    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Atom(Node):
    """An ``ident(vars)`` whose kind is resolved against a structure.

    Survives parsing only where neither a formula nor a term is forced
    by the surrounding syntax (in practice: at the query root).
    """

    name: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Arith(Term):
    op: str  # one of + - * /
    left: Term
    right: Term


@dataclass(frozen=True)
class Cond(Term):
    test: Formula
    then: Term
    otherwise: Term


@dataclass(frozen=True)
class Sum(Term):
    """Summation of ``body`` over all bindings of ``vars`` satisfying ``guard``."""

    vars: tuple[str, ...]
    guard: Formula
    body: Term


@dataclass(frozen=True)
class Aggregate(Term):
    """Sugar: count/avg/min/max over a definable set; count has no body."""

    kind: str
    vars: tuple[str, ...]
    guard: Formula
    body: Optional[Term]


@dataclass(frozen=True)
class Ifp(Term):
    """Inflationary fixed point of ``body`` over weight symbol ``name``.

    ``vars`` are bound in ``body`` (as is the symbol ``name`` itself);
    the result is the fixed-point table read at ``applied``.
    """

    name: str
    vars: tuple[str, ...]
    body: Term
    applied: tuple[str, ...]


# -- structural helpers -------------------------------------------------------

_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    ElemEq: (),
    RelAtom: (),
    Leq: ("left", "right"),
    Compare: ("left", "right"),
    Not: ("body",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Implies: ("left", "right"),
    Exists: ("body",),
    Forall: ("body",),
    Zero: (),
    One: (),
    Literal: (),
    BotConst: (),
    WeightAtom: (),
    Atom: (),
    Arith: ("left", "right"),
    Cond: ("test", "then", "otherwise"),
    Sum: ("guard", "body"),
    Aggregate: ("guard", "body"),
    Ifp: ("body",),
}


def children(node: Node) -> tuple[Node, ...]:
    """Sub-expressions of a node in a fixed order (used for paths)."""
    out = []
    for name in _CHILD_FIELDS[type(node)]:
        child = getattr(node, name)
        if child is not None:
            out.append(child)
    return tuple(out)


def walk(node: Node, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Node]]:
    """Preorder traversal yielding ``(path, node)`` pairs.

    A path is the sequence of child indices from the root, usable to
    point at a subterm of a generated (position-free) expression.
    """
    yield path, node
    for i, child in enumerate(children(node)):
        yield from walk(child, path + (i,))


def syntactic_kind(node: Node) -> str:
    """``"formula"``, ``"term"``, or ``"unknown"`` for a generic atom."""
    if isinstance(node, Formula):
        return "formula"
    if isinstance(node, Term):
        return "term"
    return "unknown"


def all_var_names(node: Node) -> set[str]:
    """Every variable name occurring in the expression, free or bound.

    Each node object is visited once, so a subtree shared between several
    parents costs one visit.
    """
    out: set[str] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        stack.extend(children(n))
        if isinstance(n, ElemEq):
            out.update((n.left, n.right))
        elif isinstance(n, (RelAtom, WeightAtom, Atom)):
            out.update(n.args)
        elif isinstance(n, (Exists, Forall)):
            out.add(n.var)
        elif isinstance(n, (Sum, Aggregate)):
            out.update(n.vars)
        elif isinstance(n, Ifp):
            out.update(n.vars)
            out.update(n.applied)
    return out


def fresh_var(base: str, used: set[str]) -> str:
    """A variable name not in ``used``; the name is recorded there."""
    candidate = base
    counter = 0
    while candidate in used:
        counter += 1
        candidate = f"{base}_{counter}"
    used.add(candidate)
    return candidate


def substitute(node: Node, mapping: dict[str, str]) -> Node:
    """Rename free variable occurrences, avoiding capture.

    Binders whose variables clash with a substituted name are renamed to
    fresh variables first.  Only element variables are touched; weight
    symbols bound by ``ifp`` are not variables.
    """
    if not mapping:
        return node

    used = all_var_names(node) | set(mapping.values()) | set(mapping)

    def subst_tuple(args: tuple[str, ...], m: dict[str, str]) -> tuple[str, ...]:
        return tuple(m.get(a, a) for a in args)

    def go(n: Node, m: dict[str, str]) -> Node:
        if not m:
            return n
        if isinstance(n, ElemEq):
            return ElemEq(m.get(n.left, n.left), m.get(n.right, n.right))
        if isinstance(n, RelAtom):
            return RelAtom(n.name, subst_tuple(n.args, m))
        if isinstance(n, WeightAtom):
            return WeightAtom(n.name, subst_tuple(n.args, m))
        if isinstance(n, Atom):
            return Atom(n.name, subst_tuple(n.args, m))
        if isinstance(n, (Exists, Forall)):
            bound, body, m2 = _under_binder((n.var,), n.body, m)
            return type(n)(bound[0], go(body, m2))
        if isinstance(n, Sum):
            bound, pair, m2 = _under_binder(n.vars, (n.guard, n.body), m)
            guard, body = pair
            return Sum(bound, go(guard, m2), go(body, m2))
        if isinstance(n, Aggregate):
            scope = (n.guard, n.body) if n.body is not None else (n.guard,)
            bound, scope2, m2 = _under_binder(n.vars, scope, m)
            guard = go(scope2[0], m2)
            body = go(scope2[1], m2) if n.body is not None else None
            return Aggregate(n.kind, bound, guard, body)
        if isinstance(n, Ifp):
            applied = subst_tuple(n.applied, m)
            bound, body, m2 = _under_binder(n.vars, n.body, m)
            return Ifp(n.name, bound, go(body, m2), applied)
        if isinstance(n, Leq):
            return Leq(go(n.left, m), go(n.right, m))
        if isinstance(n, Compare):
            return Compare(n.op, go(n.left, m), go(n.right, m))
        if isinstance(n, Not):
            return Not(go(n.body, m))
        if isinstance(n, (And, Or, Implies)):
            return type(n)(go(n.left, m), go(n.right, m))
        if isinstance(n, Arith):
            return Arith(n.op, go(n.left, m), go(n.right, m))
        if isinstance(n, Cond):
            return Cond(go(n.test, m), go(n.then, m), go(n.otherwise, m))
        return n  # leaves: Zero, One, Literal, BotConst

    def _under_binder(bound_vars, scope, m):
        """Drop bound names from the mapping; rename binders that would capture."""
        m2 = {k: v for k, v in m.items() if k not in bound_vars}
        captured = [v for v in bound_vars if v in m2.values()]
        if not captured:
            return tuple(bound_vars), scope, m2
        renames = {v: fresh_var(v, used) for v in captured}
        new_bound = tuple(renames.get(v, v) for v in bound_vars)
        if isinstance(scope, tuple):
            scope = tuple(go(part, renames) if part is not None else None for part in scope)
        else:
            scope = go(scope, renames)
        return new_bound, scope, m2

    return go(node, dict(mapping))
