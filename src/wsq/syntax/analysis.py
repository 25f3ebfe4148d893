"""Binding and vocabulary analysis of expressions.

``free_vars`` follows the binding structure that
:func:`wsq.syntax.nodes.bound_vars` reports: a binder's free variables
are those of its children minus the variables it binds, and a
fixed-point term adds its applied tuple.

``vocabulary_of`` collects the relation and weight symbols an expression
uses, with occurrences of a symbol bound by an enclosing fixed point
reported separately as *intensional*.  Generic atoms (kind unresolved
until evaluation) are reported in their own bucket.

``check_scalar_fragment`` enforces the scalar restriction: no
multiplication where both factors contain an intensional occurrence and
no division by a subterm containing one.  A symbol occurrence counts as
intensional iff some enclosing fixed point binds that name (innermost
binding wins for resolution, but any ifp binder makes the occurrence
intensional).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import UsageError, depth_guard
from .nodes import (
    ATOMS,
    LEAVES,
    Aggregate,
    Arith,
    Atom,
    Cond,
    ElemEq,
    Ifp,
    Node,
    RelAtom,
    Span,
    Sum,
    WeightAtom,
    bound_vars,
    children,
)

__all__ = [
    "free_vars",
    "ExprVocabulary",
    "vocabulary_of",
    "Violation",
    "check_scalar_fragment",
]


@depth_guard
def free_vars(node: Node) -> frozenset:
    """The exact set of free variables of an expression.

    A node object shared by several parents is visited once, so the cost
    follows the number of distinct node objects, not the tree size.
    """
    return _free_vars(node, {})


def _free_vars(n: Node, done: dict[int, frozenset]) -> frozenset:
    kind = type(n)
    if kind in ATOMS:
        return frozenset(n.args)
    if kind is ElemEq:
        return frozenset((n.left, n.right))
    out = done.get(id(n))
    if out is not None:
        return out
    out = frozenset()
    for child in children(n):
        sub = _free_vars(child, done)
        out = out | sub if out else sub  # no copy of the first non-empty set
    bound = bound_vars(n)
    if bound:
        out = out.difference(bound)
    if kind is Ifp:
        out = out.union(n.applied)
    done[id(n)] = out
    return out


@dataclass
class ExprVocabulary:
    """Symbols used by an expression, by kind, each with its arity.

    ``generic`` holds atoms whose relation-vs-weight kind is undecided;
    ``intensional`` holds fixed-point-bound weight symbols (excluded from
    the extensional buckets).
    """

    relations: dict[str, int] = field(default_factory=dict)
    weights: dict[str, int] = field(default_factory=dict)
    generic: dict[str, int] = field(default_factory=dict)
    intensional: dict[str, int] = field(default_factory=dict)


@depth_guard
def vocabulary_of(node: Node) -> ExprVocabulary:
    """Collect the symbols of an expression; errors on inconsistent use.

    A name used with two arities, or as both a relation and a weight
    function, cannot be interpreted by any single structure and raises
    :class:`UsageError`.  A node object shared by several parents is
    visited once per set of enclosing fixed-point binders, since a second
    visit would record the same symbols again.
    """
    out = ExprVocabulary()
    # inner nodes visited so far, per set of enclosing fixed-point binders
    seen: dict[frozenset, set[int]] = {}
    _vocabulary(node, {}, seen.setdefault(frozenset(), set()), seen, out)
    return out


def _record(out: ExprVocabulary, bucket: str, name: str, arity: int) -> None:
    rel, wt, gen = out.relations.get(name), out.weights.get(name), out.generic.get(name)
    for known in (rel, wt, gen):
        if known is not None and known != arity:
            raise UsageError(f"symbol {name!r} used with arities {known} and {arity}")
    if bucket == "generic":
        # a generic occurrence is compatible with either known kind
        if rel is None and wt is None and gen is None:
            out.generic[name] = arity
        return
    if bucket == "relation":
        if wt is not None:
            raise UsageError(f"symbol {name!r} used as both relation and weight function")
        out.relations[name] = arity
    else:
        if rel is not None:
            raise UsageError(f"symbol {name!r} used as both relation and weight function")
        out.weights[name] = arity
    out.generic.pop(name, None)


def _vocabulary(n: Node, binders: dict[str, int], visited: set[int], seen: dict, out: ExprVocabulary) -> None:
    kind = type(n)
    if kind is RelAtom:
        if n.name in binders:
            raise UsageError(f"symbol {n.name!r} is bound as a weight function here but used as a relation")
        _record(out, "relation", n.name, len(n.args))
        return
    if kind is WeightAtom or kind is Atom:
        if n.name in binders:
            if len(n.args) != binders[n.name]:
                arity = binders[n.name]
                raise UsageError(f"symbol {n.name!r} bound with arity {arity} but used with arity {len(n.args)}")
            out.intensional[n.name] = binders[n.name]
            return
        _record(out, "weight" if kind is WeightAtom else "generic", n.name, len(n.args))
        return
    if kind in LEAVES or id(n) in visited:
        return
    visited.add(id(n))
    if kind is Ifp:
        arity = len(n.vars)
        prev = out.intensional.get(n.name)
        if prev is not None and prev != arity:
            raise UsageError(f"intensional symbol {n.name!r} bound with arities {prev} and {arity}")
        out.intensional[n.name] = arity
        inner = {**binders, n.name: arity}
        _vocabulary(n.body, inner, seen.setdefault(frozenset(inner.items()), set()), seen, out)
        return
    for child in children(n):
        _vocabulary(child, binders, visited, seen, out)


@dataclass(frozen=True)
class Violation:
    """One scalar-fragment breach: which operator, where in the tree."""

    op: str  # '*' or '/'
    path: tuple[int, ...]
    span: Optional[Span]

    def describe(self) -> str:
        where = f"line {self.span[0]}, column {self.span[1]}" if self.span else f"path {list(self.path)}"
        if self.op == "*":
            return f"multiplication of two intensional subterms at {where}"
        return f"division by an intensional subterm at {where}"


def _contains_intensional(node: Node, binders: frozenset, memo: dict[frozenset, dict]) -> bool:
    """Intensional occurrence in *term position* within ``node``.

    Occurrences inside formula contexts (summation guards, conditional
    tests, comparison operands) only select values; they never feed a
    magnitude into the enclosing product or divisor, so they do not make
    the term intensional-carrying.  This keeps fragment membership
    stable under aggregate desugaring, whose introduced divisors are
    counts.  ``memo`` keeps the answer per set of binders and inner node
    object, so a shared subtree is looked into once.
    """
    kind = type(node)
    if kind is WeightAtom or kind is Atom:
        return node.name in binders
    if kind not in (Arith, Cond, Sum, Aggregate, Ifp):
        return False
    known = memo.setdefault(binders, {})
    out = known.get(id(node))
    if out is None:
        inner = binders | {node.name} if kind is Ifp else binders
        # the first child of a conditional, sum or aggregate is its test or guard
        parts = children(node)[1:] if kind in (Cond, Sum, Aggregate) else children(node)
        out = any(_contains_intensional(p, inner, memo) for p in parts)
        known[id(node)] = out
    return out


@depth_guard
def check_scalar_fragment(node: Node) -> list[Violation]:
    """All scalar-restriction breaches; an empty list means the term qualifies.

    A node object shared by several parents is visited once per set of
    enclosing fixed-point binders, so a breach inside a shared subtree is
    reported once, at the first path that reaches it.
    """
    violations: list[Violation] = []
    seen: dict[frozenset, set[int]] = {}
    _breaches(node, frozenset(), seen.setdefault(frozenset(), set()), (), seen, {}, violations)
    return violations


def _breaches(
    n: Node, binders: frozenset, visited: set[int], path: tuple[int, ...], seen: dict, memo: dict, violations: list
) -> None:
    kind = type(n)
    if kind in LEAVES or id(n) in visited:
        return
    visited.add(id(n))
    if kind is Arith and n.op == "*":
        if all(_contains_intensional(side, binders, memo) for side in (n.left, n.right)):
            violations.append(Violation("*", path, n.span))
    elif kind is Arith and n.op == "/":
        if _contains_intensional(n.right, binders, memo):
            violations.append(Violation("/", path, n.span))
    elif kind is Ifp:
        binders = binders | {n.name}
        visited = seen.setdefault(binders, set())
    for i, child in enumerate(children(n)):
        _breaches(child, binders, visited, path + (i,), seen, memo, violations)
