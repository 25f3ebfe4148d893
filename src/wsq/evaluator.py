"""Evaluation of expressions on weighted structures.

The semantics is total on well-formed inputs: formulas evaluate to a
Boolean, terms to an exact rational or ``bot``.  If the structure does
not interpret every extensional symbol an expression uses (same name,
kind, and arity), the expression defaults to false for formulas and
``bot`` for terms rather than erroring.  Genuine misuse (unbound free
variables, assignments outside the universe, a symbol used at two
arities) raises :class:`UsageError` instead.

The fixed-point operator iterates synchronously from the all-undefined
table: each round computes still-undefined entries against the previous
round's table, and an entry, once defined, never changes.  That makes
the iteration inflationary and forces stabilization within ``|A|**k``
rounds; both properties are checked on every run, not only under test.
Resource budgets (fixed-point table cells, summands per summation node,
and the bit bound ``numerics.MAX_BITS`` on every arithmetic result and
every sum or average an aggregate builds) convert runaway evaluations
into :class:`ResourceError` rather than wrong answers.

Each call compiles the expression once: a single pass turns the tree
into closures over the structure, settling there the kind of every
generic atom, every comparison operator, literal values and the table
each symbol reads, and computing free variables bottom-up.  Variables
live in slots numbered by nesting level, the caller's assignment from
slot 0, so a binder that reuses an outer name needs no save and restore.
Binders of the same variables in one scope share one inner scope, so a
node object reached twice under them compiles to one closure and one
memo table (below); a summation so shared is one node for
``max_summands``, whose budget bounds each run of it.

Values are unboxed inside the engine: a term's closure returns a bare
:class:`~fractions.Fraction`, or ``None`` for ``bot``, and a fixed
point's live table holds Fractions.  Constants, literals and weights are
unboxed where they are read (a weight's ``frac`` is a slot).  Arithmetic,
the comparisons, ``max`` and ``min`` call the rules of :mod:`wsq.numerics`
on ``Fraction | None``, the ones :class:`ExtRational` boxes, and every
arithmetic result passes its bit check.  A zero operand is settled at
compile time: ``<``, ``<=``, ``>`` or ``>=`` with ``0`` on either side
is a sign test of the other side's numerator, ``bot`` below 0, and ``0 * t`` or
``t * 0`` runs ``t`` and gives ``None`` if it is ``None``, else 0, so
``t``'s fixed-point reads are recorded and its errors raised; either
keeps the memo decision of its node.  A ``sum`` or ``avg`` takes its
first summand as the accumulator, and the bit bound is checked on every
accumulator value, the first included.  Values are boxed into
:class:`ExtRational` only where they leave the engine: in the result of
:func:`evaluate` and in the entries of the :class:`FixpointTable` that
:func:`ifp_iterate` returns.

The same pass decides coverage where it reads the tables: a use is
uncovered when the structure lacks its symbol at that kind and arity, a
relation atom names the symbol of an enclosing fixed point, an
intensional use has the wrong arity, or one fixed-point symbol is bound
at two arities.  Every misuse leaves such a use, so only an uncovered
expression is walked again with ``vocabulary_of``, to raise the misuse
error; an uncovered expression without misuse takes the default.

Sums, aggregates and quantifiers compile through one routine, and only
the loop over the bindings is each kind's own.  It draws the bindings
out of the top-level conjuncts of the guard (for ``forall``, of the
antecedent of an implication body) that are an extensional ``R(..)`` or
``w(..) != bot`` and come before the first conjunct that can raise (one
with arithmetic, a summation, an aggregate or a fixed point).  The one
naming the most bound variables among those whose bound variables, by
first mention, lead the binder (``e(x, y)`` or ``e(x, z)`` under
``{x, y}``, not ``e(y, x)``) draws them together from its support.
Each later variable, in binder order, is drawn from the intersection of
the supports of the usable conjuncts that name it last, looked up by
the earlier and outer variables: the triangle guard ``e(x, y) and
e(y, z) and e(z, x)`` draws ``(x, y)`` from ``e`` and ``z`` from the
successors of ``y`` that are predecessors of ``x``.  A variable no such
conjunct names runs over the universe.  Every candidate satisfies the
conjuncts it was drawn from, so a binder tests only the residual: the
other top-level conjuncts, in their order (the flat triangle count
tests none).  A drawn conjunct cannot raise, reads no fixed point and
holds no memo, so skipping its test changes no value and no error.
Every conjunct is still compiled, so the whole guard decides coverage,
unbound names and the memo key.  A support index keeps the drawn values
in dicts keyed in universe order, which a draw iterates and a filter
tests.  So the candidates come in the order of
``product(universe, repeat=k)``, and the first undefined summand and the
first summand over budget are the same as under full enumeration.  An
index is built on first use and shared by every binder of the call that
reads the same symbol with the same pattern of drawn, looked-up and
repeated positions; a binder that never runs builds none.

A fixed point tracks dependencies: while the body runs for a tuple, the
lookups of its symbol record the entries they found missing.  A tuple
that stays undefined is computed again only in the round after one of
those entries is defined; a tuple that read no missing entry stays
undefined for good.  This is the semi-naive strategy, and it leaves
every round's table, and so ``FixpointTable.rounds``, as the naive
iteration has them.

A summation, aggregate or quantifier that sits inside a binder looping
over variables it does not read is memoised by the values of its free
variables, so it is computed once per distinct binding rather than once
per iteration of the loops around it.  Compound terms and comparisons
(arithmetic, conditionals, ``<=`` and the other comparisons) are hoisted
out of such loops the same way, except a leaf-op-leaf node such as
``wt(x, y) + 1``, whose operation costs about as much as the lookup a
memo would make; one routine makes both decisions.  A memo keeps values
only: a run that raises stores nothing, so the first error is the one
the unmemoised evaluation raises.  A fixed point's table is memoised the
same way, by the free variables of its body other than the bound tuple,
and not by the tuple it is read at.  Memo tables never live inside a
fixed-point body: there the intensional table grows between rounds, and
the semi-naive tracking needs every missing entry a tuple's computation
reads.  The cost is that a binder or nested fixed point in such a body
that ignores the body's tuple, such as ``exists z F(z) != bot`` in a
body over ``F(x)``, is computed again for every tuple rather than once
per round.  Nothing is cached across calls: closures, support indexes
and memo tables belong to one call, which keeps evaluation a pure
function of its inputs and safe to run from several threads on shared
structures and expressions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import EvalLimits, ResourceError, UsageError, depth_guard
from . import numerics
from .numerics import ARITH, BOT, ORDER, ExtRational, fits, gt, lt
from .structures import WeightedStructure
from .syntax.analysis import vocabulary_of
from .syntax.nodes import (
    LEAVES,
    Aggregate,
    And,
    Arith,
    Atom,
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
    RelAtom,
    Sum,
    WeightAtom,
    Zero,
    children,
    syntactic_kind,
)

__all__ = ["Value", "EvalLimits", "FixpointTable", "evaluate", "ifp_iterate"]

Value = Union[bool, ExtRational]

# a compiled node: reads variable values from the slot list, returns a
# formula's bool or a term's unboxed value, a Fraction or None for bot
Compiled = Callable[[list], Union[bool, Fraction, None]]

# candidate values of a binder's slots under the slot list
Bindings = Callable[[list], Iterable[tuple]]


# ``t op 0`` as a test of the sign of t's numerator (a Fraction's
# denominator is positive), given t's closure; bot is below 0
_SIGN = {
    "<": lambda t: lambda env: (v := t(env)) is None or v.numerator < 0,
    "<=": lambda t: lambda env: (v := t(env)) is None or v.numerator <= 0,
    ">": lambda t: lambda env: (v := t(env)) is not None and v.numerator > 0,
    ">=": lambda t: lambda env: (v := t(env)) is not None and v.numerator >= 0,
}

# ``0 op t`` is ``t op' 0``
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

# "no value yet" in memo tables and max/min, where None is a value (bot)
_MISSING = object()

# the value of 0, of an empty sum and of 0 times a defined value
_ZERO = Fraction(0)


@dataclass
class FixpointTable:
    """Result of a fixed-point run: defined entries and the stabilization index.

    ``rounds`` is the least i with F(i) = F(i+1); undefined tuples are
    absent from ``entries``.
    """

    entries: dict[tuple, ExtRational]
    rounds: int


def _span(lo: int, hi: int) -> int:
    """Bitmask of the slots ``lo .. hi-1``."""
    return (1 << hi) - (1 << lo)


def _tuple_getter(slots: Sequence[int]) -> Callable[[list], tuple]:
    """Function reading the given slots of an environment as a tuple."""
    if not slots:
        return lambda env: ()
    if len(slots) == 1:
        (slot,) = slots
        return lambda env: (env[slot],)
    return operator.itemgetter(*slots)


def _constant(value) -> Compiled:
    return lambda env: value


# the closures of the fixed constants; a literal carries its value
_CONSTANT = {Zero: _constant(_ZERO), One: _constant(Fraction(1)), BotConst: _constant(None)}

# nodes whose evaluation can raise a ResourceError (bit bound and budgets)
_RAISING = (Arith, Sum, Aggregate, Ifp)


def _conjuncts(f: Node) -> list[Node]:
    """The top-level conjuncts of a formula, in evaluation order."""
    out: list[Node] = []
    stack = [f]
    while stack:
        n = stack.pop()
        if type(n) is And:
            stack.append(n.right)
            stack.append(n.left)
        else:
            out.append(n)
    return out


def _support_index(indexes: dict, signature: tuple, table, rank: dict) -> dict:
    """The support index of one symbol under one argument pattern, built
    into ``indexes`` on first use.

    ``signature`` is the symbol and, per argument position, ``-1`` if
    the position is looked up (bound outside the binder or drawn before),
    else the number of the drawn slot it holds (repeated slots repeat
    the number).  The index maps the values at the looked-up positions
    to a dict keyed by the distinct values of the drawn slots in universe
    order, which ``rank`` gives: each element's position in the universe.
    """
    index = indexes.get(signature)
    if index is not None:
        return index
    roles = signature[1]
    first = [roles.index(r) for r in range(max(roles) + 1)]
    repeats = [(i, first[role]) for i, role in enumerate(roles) if role >= 0 and i != first[role]]
    outside = _tuple_getter([i for i, role in enumerate(roles) if role < 0])
    drawn = _tuple_getter(first)
    if len(first) == 1:
        (position,) = first
        order = lambda t: rank[t[position]]
    else:
        order = lambda t: [rank[t[i]] for i in first]
    # in the order of the drawn values, so each dict's keys are sorted
    index = indexes[signature] = {}
    for t in sorted(table, key=order):
        if not repeats or all(t[i] == t[j] for i, j in repeats):
            index.setdefault(outside(t), {})[drawn(t)] = None
    return index


def _both(left: Compiled, right: Compiled) -> Compiled:
    """The conjunction of two formula closures, ``left`` tested first."""
    return lambda env: left(env) and right(env)


def _level(lo: int, hi: int, candidates: Callable[[list], Iterable[tuple]], inner: Optional[Callable]):
    """Bindings that extend a prefix by each candidate value of the slots
    ``lo .. hi-1`` and then by ``inner``'s bindings of the later slots, if
    any; the slots are written before ``inner`` looks up its candidates."""
    if inner is None:
        return lambda env, prefix: [prefix + sub for sub in candidates(env)]

    def level(env, prefix):
        for sub in candidates(env):
            env[lo:hi] = sub
            yield from inner(env, prefix + sub)

    return level


def _quantify(n: Union[Exists, Forall], lo: int, bindings: Bindings, test, body) -> Compiled:
    """The loop of a quantifier over the bindings of its slot ``lo``."""
    if type(n) is Exists:

        def exists(env):
            for (elem,) in bindings(env):
                env[lo] = elem
                if test is None or test(env):
                    return True
            return False

        return exists
    check = body if test is None else (lambda env: not test(env) or body(env))

    def forall(env):
        for (elem,) in bindings(env):
            env[lo] = elem
            if not check(env):
                return False
        return True

    return forall


class _Cell:
    """The live table of one fixed point of the given arity and, while the
    body runs for one tuple, the set of missing entries it has read."""

    __slots__ = ("table", "reads", "arity")

    def __init__(self, arity: int):
        self.table: dict[tuple, Fraction] = {}
        self.reads: set = set()
        self.arity = arity


class _Scope:
    """What compiling a node depends on besides the node itself.

    A scope binds ``vars_`` to the slots from ``outer.top`` upward (the
    root scope from 0); ``slots`` maps every variable in scope to its
    slot and ``top`` is the next free one.  ``cells`` maps each
    intensional symbol to the :class:`_Cell` of its fixed point; ``inner``
    holds the scopes of this scope's binders by their variables;
    ``shared`` holds the nodes already compiled in this scope by identity.
    """

    __slots__ = ("slots", "top", "cells", "inner", "shared")

    def __init__(self, outer: Optional[_Scope], vars_: tuple, cells: dict):
        lo = outer.top if outer else 0
        self.slots = dict(outer.slots if outer else {})
        self.slots.update(zip(vars_, range(lo, lo + len(vars_))))
        self.top = lo + len(vars_)
        self.cells = cells
        self.inner: dict[tuple, _Scope] = {}
        self.shared: dict[int, tuple[Compiled, int]] = {}


class _Compiler:
    """One compile pass: AST nodes to closures over one structure.

    :meth:`compile` returns a node's closure together with the bitmask of
    the slots it reads, which are its free variables.  The root scope
    binds the caller's assignment; a name read out of scope goes into
    ``unbound``.  ``rank`` gives each element's position in the universe;
    ``indexes`` holds the support indexes built so far, and ``units`` the
    universe as 1-tuples once a binder runs a slot over it.  Every binder
    compiles through :meth:`_binder`.
    ``covered`` turns false at the first uncovered use (see the module
    docstring); ``arities`` holds each fixed-point symbol's arity.
    """

    def __init__(self, structure: WeightedStructure, limits: EvalLimits, env: Optional[Mapping]):
        self.structure = structure
        self.universe = structure.universe
        self.rank = {elem: i for i, elem in enumerate(self.universe)}
        self.limits = limits
        self.env = dict(env or {})
        self.root = _Scope(None, tuple(self.env), {})
        self.size = self.root.top
        self.unbound: set[str] = set()
        self.indexes: dict[tuple, dict] = {}
        self.units: Optional[list] = None
        self.raising: dict[int, bool] = {}
        self.covered = True
        self.arities: dict[str, int] = {}

    def compile(self, n: Node, scope: _Scope, term: Optional[bool] = False) -> tuple[Compiled, int]:
        """``term`` is true at a term position, where a generic atom must not
        read a relation table, false at a formula position, where it must
        not read a weight or fixed-point table, and ``None`` at the root."""
        if type(n) in LEAVES:
            # cheaper to compile again than to keep in the cache
            if type(n) is Atom:
                return self._atom(n, scope, term)
            return _COMPILE[type(n)](self, n, scope)
        done = scope.shared.get(id(n))
        if done is None:
            done = scope.shared[id(n)] = _COMPILE[type(n)](self, n, scope)
        return done

    def environment(self) -> list:
        """The slot list holding the caller's assignment."""
        if self.unbound:
            raise UsageError(f"unbound variables: {', '.join(sorted(self.unbound))}")
        for var, val in self.env.items():
            if val not in self.rank:
                raise UsageError(f"assignment {var}={val!r} is not a universe element")
        return [*self.env.values()] + [None] * (self.size - self.root.top)

    # -- variables and binders -------------------------------------------

    def _slot(self, scope: _Scope, var: str) -> int:
        if var not in scope.slots:
            self.unbound.add(var)  # environment() raises before a closure runs
        return scope.slots.get(var, 0)

    def _slots(self, scope: _Scope, args: tuple) -> tuple[list, int]:
        slots = [self._slot(scope, a) for a in args]
        mask = 0
        for slot in slots:
            mask |= 1 << slot
        return slots, mask

    def _bind(self, scope: _Scope, vars_: tuple) -> tuple[_Scope, int, int]:
        """The scope of the binders of ``vars_`` in ``scope``, binding them
        to the slots ``lo .. hi-1`` from ``scope.top``: binders that run at
        once are nested, so siblings can share slots and compiled nodes."""
        inner = scope.inner.get(vars_)
        if inner is None:
            inner = scope.inner[vars_] = _Scope(scope, vars_, scope.cells)
            self.size = max(self.size, inner.top)
        return inner, scope.top, inner.top

    def _memo(self, fn: Compiled, mask: int, scope: _Scope, *parts: Node) -> Compiled:
        """``fn`` memoised by the slots in ``mask`` when an enclosing binder
        loops over a slot outside ``mask``, no fixed point encloses the
        node and not all its ``parts`` (a compound node's operands) are
        leaves, whose operation costs about a memo lookup; else ``fn``."""
        leaves = parts and LEAVES.issuperset(map(type, parts))
        if leaves or scope.cells or not _span(self.root.top, scope.top) & ~mask:
            return fn
        memo: dict = {}
        slots = []
        rest = mask
        while rest:
            low = rest & -rest
            slots.append(low.bit_length() - 1)
            rest ^= low
        key = operator.itemgetter(*slots) if slots else (lambda env: None)

        def memoised(env):
            k = key(env)
            value = memo.get(k, _MISSING)
            if value is _MISSING:
                value = memo[k] = fn(env)
            return value

        return memoised

    # -- binding enumeration ------------------------------------------

    def _bindings(self, lo: int, hi: int, draw: tuple) -> Bindings:
        """Candidate values of the slots ``lo .. hi-1`` under the ``draw``
        of :meth:`_support_conjuncts`.

        The candidates are the bindings that satisfy every drawn conjunct
        and come in the order of ``product(universe, repeat=hi-lo)``.  The
        leading slots are drawn together from the support of one guard
        conjunct, and each later slot from the intersection of the
        supports of the conjuncts that name it last (see the module
        docstring); a slot no usable conjunct names runs over the universe.
        The binder tests only the residual, the guard's other conjuncts.
        """
        universe, k = self.universe, hi - lo
        head, mid, tails = draw
        if head is None and not any(tails):
            return lambda env: product(universe, repeat=k)
        if mid == hi:
            return self._support(head, lo, hi)
        bindings = None
        for slot in reversed(range(mid, hi)):
            bindings = _level(slot, slot + 1, self._candidates(tails[slot - mid], slot), bindings)
        if head is not None:
            bindings = _level(lo, mid, self._support(head, lo, mid), bindings)
        return lambda env: bindings(env, ())

    def _residual(self, conjuncts: list, scope: _Scope) -> tuple[Optional[Compiled], int]:
        """The closure testing the residual ones of ``conjuncts``, as
        :meth:`_support_conjuncts` lists them, in their order (``None`` if
        there are none), and the bitmask of the slots the guard reads.
        Every conjunct is compiled, so the whole guard decides coverage,
        unbound names and the memo key."""
        test, mask = None, 0
        for conj, residual in conjuncts:
            fn, m = self.compile(conj, scope)
            mask |= m
            if residual:
                test = fn if test is None else _both(test, fn)
        return test, mask

    def _candidates(self, conjs: list, slot: int) -> Bindings:
        """The values, as 1-tuples in universe order, that ``slot`` takes
        in the supports of all of ``conjs`` under the earlier slots."""
        if not conjs:
            if self.units is None:
                self.units = [(elem,) for elem in self.universe]
            units = self.units
            return lambda env: units
        first = self._support(conjs[0], slot, slot + 1)
        if len(conjs) == 1:
            return first
        filters = [self._support(c, slot, slot + 1) for c in conjs[1:]]

        def candidates(env):
            out = first(env)
            for support in filters:
                found = support(env)
                out = [sub for sub in out if sub in found]
            return out

        return candidates

    def _support(self, chosen: tuple, lo: int, hi: int):
        """Lookup of the support of the ``chosen`` conjunct, which names the
        slots ``lo .. hi-1`` in slot order, by the values of its other slots:
        their value tuples as the keys of a dict, in universe order."""
        name, table, slots = chosen
        bound, roles, found = [], [], []
        for slot in slots:
            if not lo <= slot < hi:
                bound.append(slot)
                roles.append(-1)
            elif slot in found:
                roles.append(found.index(slot))
            else:
                roles.append(len(found))
                found.append(slot)
        signature = (name, tuple(roles))
        key = _tuple_getter(bound)
        indexes, rank = self.indexes, self.rank  # not self: no cycle with the compiler
        box: list = [None]

        def lookup(env):
            index = box[0]
            if index is None:
                index = box[0] = _support_index(indexes, signature, table, rank)
            return index.get(key(env), ())

        return lookup

    def _support_conjuncts(self, scope: _Scope, lo: int, hi: int, guard: Optional[Node]):
        """How the guard's bindings of the slots ``lo .. hi-1`` are drawn,
        and the guard's top-level conjuncts in their order, each paired
        with whether it is residual: not enforced by the draw.

        The draw is the head, or ``None``; the slot ``mid`` after the
        ones it draws; and per slot from ``mid`` on, the list of
        conjuncts that name it last, each as ``(symbol, table, argument
        slots)``.  Usable conjuncts are extensional ``R(..)`` and
        ``w(..) != bot`` up to the first conjunct whose evaluation can
        raise: skipping a binding must not skip an error.  The head is
        the one that names the most bound slots, the earliest among
        equals, among those whose bound slots by first mention are the
        leading ones in slot order (otherwise their support order is not
        the product's).  A usable conjunct that is neither the head nor
        in a list is residual.
        """
        conjs = _conjuncts(guard) if guard is not None else []
        residual = [True] * len(conjs)
        head, first, mid, named = None, None, lo, []
        for i, conj in enumerate(conjs):
            found = self._support_of(conj, scope)
            if found is None:
                if self._raises(conj):
                    break
                continue
            slots = [self._slot(scope, a) for a in found[2]]
            mentioned = []  # the bound slots, by first mention
            for slot in slots:
                if lo <= slot < hi and slot not in mentioned:
                    mentioned.append(slot)
            if not mentioned:
                continue
            chosen = (found[0], found[1], slots)
            named.append((max(mentioned), chosen, i))
            if mentioned == list(range(lo, lo + len(mentioned))) and lo + len(mentioned) > mid:
                head, first, mid = chosen, i, lo + len(mentioned)
        for last, _, i in named:
            if last >= mid or i == first:
                residual[i] = False
        tails = [[chosen for last, chosen, _ in named if last == slot] for slot in range(mid, hi)]
        return (head, mid, tails), list(zip(conjs, residual))

    def _support_of(self, n: Node, scope: _Scope):
        """``(symbol, table, args)`` if ``n`` holds only on the support of an
        extensional table: ``R(..)`` or ``w(..) != bot``; else ``None``.
        A symbol the structure lacks has empty support."""
        if type(n) is Compare and n.op == "!=":
            if type(n.right) is BotConst:
                atom = n.left
            elif type(n.left) is BotConst:
                atom = n.right
            else:
                return None
            if type(atom) not in (WeightAtom, Atom) or atom.name in scope.cells:
                return None
            if type(atom) is Atom and self._reads_relation(atom, scope):
                return None
            return atom.name, self.structure.weights.get(atom.name, {}), atom.args
        if type(n) is RelAtom or (type(n) is Atom and self._reads_relation(n, scope)):
            return n.name, self.structure.relations.get(n.name, frozenset()), n.args
        return None

    def _reads_relation(self, n: Atom, scope: _Scope) -> bool:
        """Whether a generic atom reads a relation table rather than a
        weight table or a fixed point's."""
        return n.name not in scope.cells and n.name in self.structure.vocabulary.relations

    def _raises(self, n: Node) -> bool:
        """Whether ``n`` contains arithmetic, a summation, aggregate or fixed
        point, whose bit bound or budgets can raise :class:`ResourceError`."""
        known = self.raising.get(id(n))
        if known is None:
            known = type(n) in _RAISING or any(self._raises(c) for c in children(n))
            self.raising[id(n)] = known
        return known

    # -- formulas -----------------------------------------------------

    def _elem_eq(self, n: ElemEq, scope):
        a, b = self._slot(scope, n.left), self._slot(scope, n.right)
        return (lambda env: env[a] == env[b]), (1 << a) | (1 << b)

    def _rel_atom(self, n, scope):
        slots, mask = self._slots(scope, n.args)
        if n.name in scope.cells or self.structure.vocabulary.relations.get(n.name) != len(slots):
            self.covered = False
        table = self.structure.relations.get(n.name)
        if table is None or not slots:
            return _constant(table is not None and () in table), mask
        if len(slots) == 1:
            (a,) = slots
            return (lambda env: (env[a],) in table), mask
        key = operator.itemgetter(*slots)
        return (lambda env: key(env) in table), mask

    def _compare(self, n: Union[Leq, Compare], scope):
        op = "<=" if type(n) is Leq else n.op
        left, right = n.left, n.right
        lf, lm = self.compile(left, scope, term=True)
        rf, rm = self.compile(right, scope, term=True)
        if op in ("=", "!=") and (type(left) is BotConst or type(right) is BotConst):
            # comparing with bot is a definedness test
            t = rf if type(left) is BotConst else lf
            if op == "=":
                fn = lambda env: t(env) is None
            else:
                fn = lambda env: t(env) is not None
        elif op in _FLIP and (type(left) is Zero or type(right) is Zero):
            # comparing with 0 is a sign test
            fn = _SIGN[_FLIP[op]](rf) if type(left) is Zero else _SIGN[op](lf)
        else:
            test = ORDER[op]
            fn = lambda env: test(lf(env), rf(env))
        return self._memo(fn, lm | rm, scope, left, right), lm | rm

    def _not(self, n: Not, scope):
        body, mask = self.compile(n.body, scope)
        return (lambda env: not body(env)), mask

    def _and(self, n: And, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        return _both(lf, rf), lm | rm

    def _or(self, n: Or, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        return (lambda env: lf(env) or rf(env)), lm | rm

    def _implies(self, n: Implies, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        return (lambda env: not lf(env) or rf(env)), lm | rm

    # -- terms ----------------------------------------------------------

    def _constant_term(self, n: Union[Zero, One, BotConst, Literal], scope):
        fn = _CONSTANT.get(type(n))
        return fn or _constant(Fraction(n.value)), 0

    def _weight_atom(self, n, scope):
        slots, mask = self._slots(scope, n.args)
        cell = scope.cells.get(n.name)
        if cell is not None:
            if cell.arity != len(slots):
                self.covered = False
            if len(slots) == 1:
                (a,) = slots

                def intensional(env):
                    value = cell.table.get((env[a],))
                    if value is None:
                        cell.reads.add((env[a],))
                    return value

                return intensional, mask
            key = _tuple_getter(slots)

            def intensional(env):
                k = key(env)
                value = cell.table.get(k)
                if value is None:
                    cell.reads.add(k)
                return value

            return intensional, mask
        if self.structure.vocabulary.weights.get(n.name) != len(slots):
            self.covered = False
        table = self.structure.weights.get(n.name)
        if table is None or not slots:
            return _constant(None if table is None else table.get((), BOT).frac), mask
        if len(slots) == 1:
            (a,) = slots

            def extensional(env):
                value = table.get((env[a],))
                return value if value is None else value.frac

            return extensional, mask
        key = _tuple_getter(slots)

        def extensional(env):
            value = table.get(key(env))
            return value if value is None else value.frac

        return extensional, mask

    def _atom(self, n: Atom, scope, term: Optional[bool]):
        """A generic atom as a relation or weight atom; ``term`` as for :meth:`compile`."""
        text = f"{n.name}({', '.join(n.args)})"
        if self._reads_relation(n, scope):
            if term:
                raise UsageError(f"relation atom {text} used as a term")
            return self._rel_atom(n, scope)
        if term is False and (n.name in scope.cells or n.name in self.structure.vocabulary.weights):
            raise UsageError(f"weight atom {text} used as a formula")
        return self._weight_atom(n, scope)

    def _arith(self, n: Arith, scope):
        op = ARITH[n.op]
        lf, lm = self.compile(n.left, scope, term=True)
        rf, rm = self.compile(n.right, scope, term=True)
        overflow = f"'{n.op}' result exceeds {numerics.MAX_BITS} bits"

        if n.op == "*" and (type(n.left) is Zero or type(n.right) is Zero):
            # 0 times a defined value is 0; the other operand still runs, so
            # its fixed-point reads are recorded and its errors raised
            t = rf if type(n.left) is Zero else lf
            fn = lambda env: None if t(env) is None else _ZERO
        else:

            def fn(env):
                value = op(lf(env), rf(env))
                if not fits(value):
                    raise ResourceError(overflow)
                return value

        return self._memo(fn, lm | rm, scope, n.left, n.right), lm | rm

    def _cond(self, n: Cond, scope):
        test, tm = self.compile(n.test, scope)
        then, thm = self.compile(n.then, scope, term=True)
        other, om = self.compile(n.otherwise, scope, term=True)
        mask = tm | thm | om
        fn = lambda env: then(env) if test(env) else other(env)
        return self._memo(fn, mask, scope, n.test, n.then, n.otherwise), mask

    def _binder(self, n: Union[Exists, Forall, Sum, Aggregate], scope):
        """A quantifier, summation or aggregate.  Every kind draws its
        bindings, tests its guard's residual, compiles its body and is
        memoised the same way; only the loop over the bindings is its own."""
        folding = type(n) in (Sum, Aggregate)
        if folding:
            vars_, guard, body = n.vars, n.guard, n.body
        elif type(n) is Exists:
            vars_, guard, body = (n.var,), n.body, None
        elif type(n.body) is Implies:
            # forall x (a -> b) holds wherever a fails
            vars_, guard, body = (n.var,), n.body.left, n.body.right
        else:
            vars_, guard, body = (n.var,), None, n.body
        inner, lo, hi = self._bind(scope, vars_)
        draw, conjuncts = self._support_conjuncts(inner, lo, hi, guard)
        bindings = self._bindings(lo, hi, draw)
        test, mask = self._residual(conjuncts, inner)
        if body is not None:
            body, body_mask = self.compile(body, inner, term=folding)
            mask |= body_mask
        mask &= ~_span(lo, hi)
        loop = (self._fold if folding else _quantify)(n, lo, bindings, test, body)
        return self._memo(loop, mask, scope), mask

    def _fold(self, n: Union[Sum, Aggregate], lo: int, bindings: Bindings, test, body) -> Compiled:
        """The loop of a summation, as kind ``sum``, or an aggregate, whose
        slots start at ``lo``: one pass over the bindings that pass
        ``test``, with running accumulators."""
        hi = lo + len(n.vars)
        kind = "sum" if type(n) is Sum else n.kind
        limit = self.limits.max_summands
        overflow = f"{'summation' if kind == 'sum' else 'aggregate'} exceeds {limit} summands"
        too_long = f"'{kind}' result exceeds {numerics.MAX_BITS} bits"
        counting, additive = kind == "count", kind in ("sum", "avg")
        better = gt if kind == "max" else lt

        def fold(env):
            count = 0
            acc = _ZERO
            best = _MISSING
            for combo in bindings(env):
                env[lo:hi] = combo
                if test is not None and not test(env):
                    continue
                count += 1
                if count > limit:
                    raise ResourceError(overflow)
                if additive:
                    value = body(env)
                    if value is None:
                        return None
                    acc = value if count == 1 else acc + value
                    if not fits(acc):
                        raise ResourceError(too_long)
                elif not counting:
                    value = body(env)
                    if best is _MISSING or better(value, best):
                        best = value
            if kind == "sum":
                return acc
            if counting:
                return Fraction(count)
            if kind == "avg":
                if count == 0:
                    return None
                acc /= count
                if not fits(acc):
                    raise ResourceError(too_long)
                return acc
            return None if best is _MISSING else best

        return fold

    def _ifp(self, n: Ifp, scope):
        run, mask = self.fixpoint(n, scope)
        table = self._memo(lambda env: run(env)[0], mask, scope)
        slots, am = self._slots(scope, n.applied)
        applied = _tuple_getter(slots)
        return (lambda env: table(env).get(applied(env))), mask | am

    def fixpoint(self, n: Ifp, scope: _Scope):
        """Closure running the fixed point ``n`` to stabilization, and the
        bitmask of the slots the run reads.  The closure returns the
        defined entries, unboxed, and the rounds."""
        cell = _Cell(len(n.vars))
        if self.arities.setdefault(n.name, cell.arity) != cell.arity:
            self.covered = False
        inner = _Scope(scope, n.vars, {**scope.cells, n.name: cell})  # never shared: a new cell
        lo, hi = scope.top, inner.top
        self.size = max(self.size, hi)
        step, mask = self.compile(n.body, inner, term=True)
        universe, k = self.universe, hi - lo
        cells, limit = len(universe) ** k, self.limits.max_fixpoint_cells

        def run(env) -> tuple[dict, int]:
            if cells > limit:
                raise ResourceError(f"fixed-point table needs {cells} cells, budget is {limit}")
            table: dict[tuple, Fraction] = {}
            cell.table = table
            keys = list(product(universe, repeat=k))
            rank = {key: i for i, key in enumerate(keys)}
            # missing entry -> undefined tuples whose last computation read it
            waiting: dict[tuple, list] = {}
            pending = keys
            rounds = 0
            while True:
                additions: dict[tuple, Fraction] = {}
                for key in pending:
                    env[lo:hi] = key
                    cell.reads = reads = set()
                    value = step(env)
                    if value is not None:
                        additions[key] = value
                    else:
                        for entry in reads:
                            waiting.setdefault(entry, []).append(key)
                if not additions:
                    break
                # always-on discipline checks: entries are write-once and the
                # iteration stabilizes within |A|**k rounds
                for key in additions:
                    if key in table:
                        raise AssertionError("inflationary invariant violated: entry redefined")
                table.update(additions)
                rounds += 1
                if rounds > cells:
                    raise AssertionError("fixed point failed to stabilize within |A|**k rounds")
                woken = {
                    key
                    for entry in additions
                    for key in waiting.pop(entry, ())
                    if key not in table
                }
                pending = sorted(woken, key=rank.__getitem__)
            return table, rounds

        return run, mask & ~_span(lo, hi)


_COMPILE = {
    ElemEq: _Compiler._elem_eq,
    RelAtom: _Compiler._rel_atom,
    Leq: _Compiler._compare,
    Compare: _Compiler._compare,
    Not: _Compiler._not,
    And: _Compiler._and,
    Or: _Compiler._or,
    Implies: _Compiler._implies,
    Exists: _Compiler._binder,
    Forall: _Compiler._binder,
    Zero: _Compiler._constant_term,
    One: _Compiler._constant_term,
    Literal: _Compiler._constant_term,
    BotConst: _Compiler._constant_term,
    WeightAtom: _Compiler._weight_atom,
    Arith: _Compiler._arith,
    Cond: _Compiler._cond,
    Sum: _Compiler._binder,
    Aggregate: _Compiler._binder,
    Ifp: _Compiler._ifp,
}


@depth_guard
def evaluate(
    e: Node,
    structure: WeightedStructure,
    env: Optional[Mapping[str, str]] = None,
    limits: Optional[EvalLimits] = None,
) -> Value:
    """Value of an expression on a structure under a variable assignment.

    Returns a Boolean for formulas and an :class:`ExtRational` for
    terms.  A generic root atom resolves against the structure's
    vocabulary; if it resolves to neither kind the term default ``bot``
    applies.  Below the root a generic atom that reads a relation must
    stand for a formula, and one that reads a weight for a term.  An
    expression nested past the Python stack raises :class:`ResourceError`
    through :func:`wsq.errors.depth_guard`.
    """
    compiler = _Compiler(structure, limits or EvalLimits(), env)
    fn, _ = compiler.compile(e, compiler.root, term=None)
    slots = compiler.environment()
    if not compiler.covered:
        vocabulary_of(e)  # raises on misuse
        return False if syntactic_kind(e) == "formula" else BOT
    value = fn(slots)
    if value is None:
        return BOT
    return value if type(value) is bool else ExtRational(value)


@depth_guard
def ifp_iterate(
    name: str,
    vars_: Sequence[str],
    body: Node,
    structure: WeightedStructure,
    env: Optional[Mapping[str, str]] = None,
    limits: Optional[EvalLimits] = None,
) -> FixpointTable:
    """Run one fixed-point iteration to stabilization and return its table.

    ``body`` may use ``name`` as a weight symbol of arity ``len(vars_)``;
    every other symbol must be interpreted by the structure.  The
    arguments must make a well-formed :class:`Ifp` node.
    """
    n = Ifp(name, tuple(vars_), body, tuple(vars_))
    compiler = _Compiler(structure, limits or EvalLimits(), env)
    run, _ = compiler.fixpoint(n, compiler.root)
    slots = compiler.environment()
    if not compiler.covered:
        vocabulary_of(n)  # raises on misuse
        raise UsageError("fixed-point body uses symbols the structure does not interpret")
    table, rounds = run(slots)
    return FixpointTable({key: ExtRational(value) for key, value in table.items()}, rounds)
