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

The constructors hold the grammar the parser accepts and raise a one-line
:class:`UsageError` for a node that breaks it, so every pass sees only
well-formed trees: operators are keys of ``numerics.ARITH`` and
``numerics.ORDER``, only ``count`` has no body, binders bind distinct
variables, a fixed point is applied to as many as it binds, and each
child is of the sort (``Formula`` or ``Term``) its field's annotation names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional

from ..errors import UsageError, depth_guard
from ..numerics import ARITH, ORDER

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
    "AGGREGATES",
    "ATOMS",
    "LEAVES",
    "children",
    "map_children",
    "bound_vars",
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


def _refuse(node: Node) -> None:
    """Raise for the fault an inline check found: a repeated bound variable,
    or else the first child not of the sort its field's annotation names."""
    bound = getattr(node, "vars", ())
    for i, var in enumerate(bound):
        if var in bound[:i]:
            raise UsageError(f"duplicate variable {var!r} in binder")
    for f in fields(node):
        sort, accepted = _SORTS.get(f.type, ("", object))
        value = getattr(node, f.name)
        if not isinstance(value, accepted):
            raise UsageError(f"{type(node).__name__}.{f.name} must be a {sort}, not {type(value).__name__}")


def _distinct(names: tuple[str, ...]) -> bool:
    return len(set(names)) == len(names)


def _formulas(node) -> None:
    if not (isinstance(node.left, _FORMULA) and isinstance(node.right, _FORMULA)):
        _refuse(node)


def _terms(node) -> None:
    if not (isinstance(node.left, _TERM) and isinstance(node.right, _TERM)):
        _refuse(node)


def _formula_body(node) -> None:
    if not isinstance(node.body, _FORMULA):
        _refuse(node)


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

    left: Term
    right: Term

    __post_init__ = _terms


@dataclass(frozen=True)
class Compare(Formula):
    """Sugar comparison: one of ``< > >= = !=`` between terms."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in ORDER:
            raise UsageError(f"unknown comparison operator {self.op!r}")
        _terms(self)


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    __post_init__ = _formula_body


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    __post_init__ = _formulas


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    __post_init__ = _formulas


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    __post_init__ = _formulas


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    __post_init__ = _formula_body


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula

    __post_init__ = _formula_body


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

    def __post_init__(self):
        if self.op not in ARITH:
            raise UsageError(f"unknown arithmetic operator {self.op!r}")
        _terms(self)


@dataclass(frozen=True)
class Cond(Term):
    test: Formula
    then: Term
    otherwise: Term

    def __post_init__(self):
        if not (isinstance(self.test, _FORMULA) and isinstance(self.then, _TERM) and isinstance(self.otherwise, _TERM)):
            _refuse(self)


@dataclass(frozen=True)
class Sum(Term):
    """Summation of ``body`` over all bindings of ``vars`` satisfying ``guard``."""

    vars: tuple[str, ...]
    guard: Formula
    body: Term

    def __post_init__(self):
        if not (isinstance(self.guard, _FORMULA) and isinstance(self.body, _TERM) and _distinct(self.vars)):
            _refuse(self)


@dataclass(frozen=True)
class Aggregate(Term):
    """Sugar: count/avg/min/max over a definable set; count has no body."""

    kind: str
    vars: tuple[str, ...]
    guard: Formula
    body: Optional[Term]

    def __post_init__(self):
        if self.kind not in AGGREGATES:
            raise UsageError(f"unknown aggregate {self.kind!r}")
        if (self.body is None) != (self.kind == "count"):
            raise UsageError("'count' takes no body" if self.body is not None else f"'{self.kind}' needs a body")
        if not (isinstance(self.guard, _FORMULA) and isinstance(self.body, _OPTIONAL_TERM) and _distinct(self.vars)):
            _refuse(self)


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

    def __post_init__(self):
        if len(self.applied) != len(self.vars):
            raise UsageError(f"fixed point binds {len(self.vars)} variables but is applied to {len(self.applied)}")
        if not (isinstance(self.body, _TERM) and _distinct(self.vars)):
            _refuse(self)


# -- structural helpers -------------------------------------------------------

# a field's annotation as a sort's name and the node types it takes: a generic
# atom stands for either sort (the compiler resolves it per site)
_FORMULA, _TERM, _OPTIONAL_TERM = (Formula, Atom), (Term, Atom), (Term, Atom, type(None))
_SORTS = {"Formula": ("formula", _FORMULA), "Term": ("term", _TERM), "Optional[Term]": ("term", _OPTIONAL_TERM)}

# each node type's children: the fields its annotations give a sort, in order
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    kind: tuple(f.name for f in fields(kind) if f.type in _SORTS)
    for kind in (*Formula.__subclasses__(), *Term.__subclasses__(), Atom)
}
# each binder type's field of bound variables
_BINDER_FIELD = {kind: f.name for kind in _CHILD_FIELDS for f in fields(kind) if f.name in ("var", "vars")}

AGGREGATES = ("count", "avg", "min", "max")

# symbol occurrences: relation, weight and generic atoms
ATOMS = frozenset((RelAtom, WeightAtom, Atom))
# node types without children: the atoms, element equality and the constants
LEAVES = frozenset(kind for kind, names in _CHILD_FIELDS.items() if not names)


def children(node: Node) -> tuple[Node, ...]:
    """Sub-expressions of a node in a fixed order (used for paths)."""
    out = []
    for name in _CHILD_FIELDS[type(node)]:
        child = getattr(node, name)
        if child is not None:
            out.append(child)
    return tuple(out)


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """``node`` with ``fn`` applied to each child, rebuilt with its ``span``.

    ``node`` itself comes back when no child changed, so a pass built on
    this keeps the sharing of its input.
    """
    changed = {}
    for name in _CHILD_FIELDS[type(node)]:
        child = getattr(node, name)
        if child is not None:
            new = fn(child)
            if new is not child:
                changed[name] = new
    return replace(node, **changed) if changed else node


def bound_vars(node: Node) -> tuple[str, ...]:
    """The element variables a node binds in its children (not ``ifp``'s symbol)."""
    name = _BINDER_FIELD.get(type(node))
    if name is None:
        return ()
    bound = getattr(node, name)
    return (bound,) if name == "var" else bound


def walk(node: Node, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], Node]]:
    """Preorder traversal yielding ``(path, node)`` pairs.

    A path is the sequence of child indices from the root, usable to
    point at a subterm of a generated (position-free) expression.  A
    subtree shared between several parents is yielded once per path that
    reaches it, on purpose: every path is a distinct position, and the
    tree-size census counts positions.  The nodes to come wait on a list,
    not on the Python stack, so no depth is too deep.
    """
    stack = [(path, node)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack += reversed([(path + (i,), child) for i, child in enumerate(children(node))])


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
        kind = type(n)
        if kind is ElemEq:
            out.update((n.left, n.right))
        elif kind in ATOMS:
            out.update(n.args)
        else:
            out.update(bound_vars(n))
            if kind is Ifp:
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


@depth_guard
def substitute(node: Node, mapping: dict[str, str]) -> Node:
    """Rename free variable occurrences, avoiding capture.

    A binder of a variable that some name is renamed to gets a fresh
    name, added to the same simultaneous renaming.  Only element
    variables are touched; weight symbols bound by ``ifp`` are not
    variables.  Each node object is rewritten once per renaming in force
    and returned as it is when nothing in it changes, so sharing is
    preserved; rebuilt nodes keep their ``span``.
    """
    if not mapping:
        return node
    used = all_var_names(node) | set(mapping.values()) | set(mapping)
    memo: dict[frozenset, dict[int, Node]] = {}  # rewritten node objects per renaming
    return _substitute(node, dict(mapping), memo.setdefault(frozenset(mapping.items()), {}), memo, used)


def _rename(names: tuple[str, ...], m: dict[str, str]) -> tuple[str, ...]:
    return tuple(m.get(v, v) for v in names)


def _substitute(n: Node, m: dict[str, str], done: dict[int, Node], memo: dict, used: set[str]) -> Node:
    if not m:
        return n
    out = done.get(id(n))
    if out is not None:
        return out
    kind, fields = type(n), {}
    if kind is ElemEq:
        fields["left"], fields["right"] = _rename((n.left, n.right), m)
    elif kind in ATOMS:
        fields["args"] = _rename(n.args, m)
    elif kind is Ifp:
        fields["applied"] = _rename(n.applied, m)
    inner, done_inner = m, done
    bound = bound_vars(n)
    if bound:
        inner = {k: v for k, v in m.items() if k not in bound}
        targets = set(inner.values())
        inner.update((v, fresh_var(v, used)) for v in bound if v in targets)
        if inner != m:
            done_inner = memo.setdefault(frozenset(inner.items()), {})
        name, renamed = _BINDER_FIELD[kind], _rename(bound, inner)
        fields[name] = renamed[0] if name == "var" else renamed
    out = map_children(n, lambda c: _substitute(c, inner, done_inner, memo, used))
    changed = {k: v for k, v in fields.items() if v != getattr(n, k)}
    done[id(n)] = out = replace(out, **changed) if changed else out
    return out
