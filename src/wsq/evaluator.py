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

A query is compiled once into a plan (:func:`prepare`): a single pass
turns the tree into closures against a vocabulary, each symbol's kind
and arity, and the names of the caller's variables, settling there the
kind of every generic atom, every comparison operator, literal values
and which table each symbol reads, and computing free variables
bottom-up.  A plan runs on any structure of its vocabulary
(:meth:`Plan.run`).  The closures receive one list of slots per run.
Variables live in slots numbered by nesting level, the caller's
assignment from slot 0, so a binder that reuses an outer name needs no
save and restore.  A run's own state fills the slots counted from the
end of the list (-1, -2, ...), so one compile numbers both: the universe and each element's position in it, the tables the query
reads and the values of nullary weights, the budgets of the
:class:`EvalLimits` passed, memo tables, support indexes and the live
tables of fixed points.
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
index is built on first use and shared by every binder of the run that
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
per round.

:func:`evaluate` keeps the plans of its latest 32 distinct keys, least
recently used first out; a key is the query, the vocabulary and the
sorted tuple of the assignment's names, so one plan serves every order
of the same names and an equal query built or parsed anew
finds the plan of the first (a node hashes and compares in time linear
in its objects).  A plan holds closures and slot numbers, nothing of a
structure and nothing a run writes: memo tables, support indexes,
fixed-point tables, the tables read and the budgets are made or read
again by every run.  So evaluation stays a pure function of its inputs,
a kept plan never holds a structure alive, and several threads may run
one plan on shared or separate structures at once; the cache itself is
guarded by a lock.  :func:`purge` empties it.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import EvalLimits, ResourceError, UsageError, depth_guard
from . import numerics
from .numerics import ARITH, BOT, ORDER, ExtRational, fits, gt, lt
from .structures import Vocabulary, WeightedStructure
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

__all__ = ["Value", "EvalLimits", "FixpointTable", "Plan", "evaluate", "ifp_iterate", "prepare", "purge"]

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

# the tables of a symbol a structure lacks
_NO_TUPLES: frozenset = frozenset()
_NO_VALUES: Mapping = {}

# the first run-state slots of every plan, from the end of the slot list
_UNIVERSE, _RANK, _UNITS, _INDEXES, _SUMMANDS, _CELLS = range(-1, -7, -1)


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


class _Scope:
    """What compiling a node depends on besides the node itself.

    A scope binds ``vars_`` to the slots from ``outer.top`` upward (the
    root scope from 0); ``slots`` maps every variable in scope to its
    slot and ``top`` is the next free one.  ``cells`` maps each
    intensional symbol to its fixed point's table slot, reads slot and
    arity; ``inner`` holds the scopes of this scope's binders by their
    variables; ``shared`` holds the nodes already compiled in this scope
    by identity.
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
    """One compile pass: AST nodes to closures over a vocabulary.

    :meth:`compile` returns a node's closure together with the bitmask of
    the slots it reads, which are its free variables.  The root scope
    binds the caller's variable ``names``; a name read out of scope goes
    into ``unbound``.  Every binder compiles through :meth:`_binder`.
    ``covered`` turns false at the first uncovered use (see the module
    docstring); ``arities`` holds each fixed-point symbol's arity.

    Variable slots are numbered from 0, and ``top`` is the most the
    binders have taken.  The closures read everything a run owns from
    negative slots, counted from the end of the list; ``state`` is how
    many.  The first six hold the universe, each element's position in
    it, the universe as 1-tuples if a binder runs a slot over it (then
    ``uses_units`` is true), the support indexes built so far, and the
    budgets of summands and of fixed-point cells (``_UNIVERSE`` to
    ``_CELLS``).  Then come, in the order the compile takes them, one
    slot per memo table (listed in ``memos``), per symbol table a run
    reads (``tables`` maps its kind and name to the slot), per support
    index, and per fixed point's table and set of reads.
    """

    def __init__(self, vocabulary: Vocabulary, names: tuple):
        self.vocabulary = vocabulary
        self.names = names
        self.root = _Scope(None, names, {})
        self.top = self.root.top
        self.state = -_CELLS
        self.memos: list[int] = []
        self.tables: dict[tuple[str, str], int] = {}
        self.uses_units = False
        self.unbound: set[str] = set()
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

    def plan(self, e: Node, fn: Compiled) -> Plan:
        """The plan running ``fn``, the closure compiled from ``e``."""
        if self.unbound:
            raise UsageError(f"unbound variables: {', '.join(sorted(self.unbound))}")
        return Plan(e, self, fn)

    # -- run state ------------------------------------------------------

    def _state(self) -> int:
        """A fresh slot of the run state, counted from the end."""
        self.state += 1
        return -self.state

    def _table(self, kind: str, name: str) -> int:
        """The slot of a run's ``relation`` or ``weight`` table of ``name``,
        or for kind ``constant`` of the unboxed value of a nullary weight."""
        slot = self.tables.get((kind, name))
        if slot is None:
            slot = self.tables[kind, name] = self._state()
        return slot

    # -- variables and binders -------------------------------------------

    def _slot(self, scope: _Scope, var: str) -> int:
        if var not in scope.slots:
            self.unbound.add(var)  # plan() raises before a closure runs
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
            self.top = max(self.top, inner.top)
        return inner, scope.top, inner.top

    def _memo(self, fn: Compiled, mask: int, scope: _Scope, *parts: Node) -> Compiled:
        """``fn`` memoised by the slots in ``mask`` when an enclosing binder
        loops over a slot outside ``mask``, no fixed point encloses the
        node and not all its ``parts`` (a compound node's operands) are
        leaves, whose operation costs about a memo lookup; else ``fn``.
        The memo table is a run's, in a slot of its own."""
        leaves = parts and LEAVES.issuperset(map(type, parts))
        if leaves or scope.cells or not _span(self.root.top, scope.top) & ~mask:
            return fn
        table = self._state()
        self.memos.append(table)
        slots = []
        rest = mask
        while rest:
            low = rest & -rest
            slots.append(low.bit_length() - 1)
            rest ^= low
        key = operator.itemgetter(*slots) if slots else (lambda env: None)

        def memoised(env):
            memo = env[table]
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
        k = hi - lo
        head, mid, tails = draw
        if head is None and not any(tails):
            return lambda env: product(env[_UNIVERSE], repeat=k)
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
            self.uses_units = True
            return lambda env: env[_UNITS]
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
        box = self._state()

        def lookup(env):
            index = env[box]
            if index is None:
                index = env[box] = _support_index(env[_INDEXES], signature, env[table], env[_RANK])
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
        """``(symbol, table slot, args)`` if ``n`` holds only on the support
        of an extensional table: ``R(..)`` or ``w(..) != bot``; else ``None``.
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
            return atom.name, self._table("weight", atom.name), atom.args
        if type(n) is RelAtom or (type(n) is Atom and self._reads_relation(n, scope)):
            return n.name, self._table("relation", n.name), n.args
        return None

    def _reads_relation(self, n: Atom, scope: _Scope) -> bool:
        """Whether a generic atom reads a relation table rather than a
        weight table or a fixed point's."""
        return n.name not in scope.cells and n.name in self.vocabulary.relations

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
        if n.name in scope.cells or self.vocabulary.relations.get(n.name) != len(slots):
            self.covered = False
        table = self._table("relation", n.name)
        if not slots:
            return (lambda env: () in env[table]), mask
        if len(slots) == 1:
            (a,) = slots
            return (lambda env: (env[a],) in env[table]), mask
        key = operator.itemgetter(*slots)
        return (lambda env: key(env) in env[table]), mask

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
        return fn or _constant(n.value), 0

    def _weight_atom(self, n, scope):
        slots, mask = self._slots(scope, n.args)
        cell = scope.cells.get(n.name)
        if cell is not None:
            table, reads, arity = cell
            if arity != len(slots):
                self.covered = False
            if len(slots) == 1:
                (a,) = slots

                def intensional(env):
                    value = env[table].get((env[a],))
                    if value is None:
                        env[reads].add((env[a],))
                    return value

                return intensional, mask
            key = _tuple_getter(slots)

            def intensional(env):
                k = key(env)
                value = env[table].get(k)
                if value is None:
                    env[reads].add(k)
                return value

            return intensional, mask
        if self.vocabulary.weights.get(n.name) != len(slots):
            self.covered = False
        if not slots:
            value = self._table("constant", n.name)
            return (lambda env: env[value]), mask
        table = self._table("weight", n.name)
        if len(slots) == 1:
            (a,) = slots

            def extensional(env):
                value = env[table].get((env[a],))
                return value if value is None else value.frac

            return extensional, mask
        key = _tuple_getter(slots)

        def extensional(env):
            value = env[table].get(key(env))
            return value if value is None else value.frac

        return extensional, mask

    def _atom(self, n: Atom, scope, term: Optional[bool]):
        """A generic atom as a relation or weight atom; ``term`` as for :meth:`compile`."""
        text = f"{n.name}({', '.join(n.args)})"
        if self._reads_relation(n, scope):
            if term:
                raise UsageError(f"relation atom {text} used as a term")
            return self._rel_atom(n, scope)
        if term is False and (n.name in scope.cells or n.name in self.vocabulary.weights):
            raise UsageError(f"weight atom {text} used as a formula")
        return self._weight_atom(n, scope)

    def _arith(self, n: Arith, scope):
        op = ARITH[n.op]
        lf, lm = self.compile(n.left, scope, term=True)
        rf, rm = self.compile(n.right, scope, term=True)
        symbol = n.op

        if n.op == "*" and (type(n.left) is Zero or type(n.right) is Zero):
            # 0 times a defined value is 0; the other operand still runs, so
            # its fixed-point reads are recorded and its errors raised
            t = rf if type(n.left) is Zero else lf
            fn = lambda env: None if t(env) is None else _ZERO
        else:

            def fn(env):
                value = op(lf(env), rf(env))
                if not fits(value):
                    raise ResourceError(f"'{symbol}' result exceeds {numerics.MAX_BITS} bits")
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
        noun = "summation" if kind == "sum" else "aggregate"
        counting, additive = kind == "count", kind in ("sum", "avg")
        better = gt if kind == "max" else lt

        def fold(env):
            limit = env[_SUMMANDS]
            count = 0
            acc = _ZERO
            best = _MISSING
            for combo in bindings(env):
                env[lo:hi] = combo
                if test is not None and not test(env):
                    continue
                count += 1
                if count > limit:
                    raise ResourceError(f"{noun} exceeds {limit} summands")
                if additive:
                    value = body(env)
                    if value is None:
                        return None
                    acc = value if count == 1 else acc + value
                    if not fits(acc):
                        raise ResourceError(f"'{kind}' result exceeds {numerics.MAX_BITS} bits")
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
                    raise ResourceError(f"'{kind}' result exceeds {numerics.MAX_BITS} bits")
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
        k = len(n.vars)
        if self.arities.setdefault(n.name, k) != k:
            self.covered = False
        cell = (table_slot, reads_slot, _) = (self._state(), self._state(), k)
        inner = _Scope(scope, n.vars, {**scope.cells, n.name: cell})  # never shared: new slots
        lo, hi = scope.top, inner.top
        self.top = max(self.top, hi)
        step, mask = self.compile(n.body, inner, term=True)

        def run(env) -> tuple[dict, int]:
            cells, limit = len(env[_UNIVERSE]) ** k, env[_CELLS]
            if cells > limit:
                raise ResourceError(f"fixed-point table needs {cells} cells, budget is {limit}")
            table: dict[tuple, Fraction] = {}
            env[table_slot] = table
            keys = list(product(env[_UNIVERSE], repeat=k))
            rank = {key: i for i, key in enumerate(keys)}
            # missing entry -> undefined tuples whose last computation read it
            waiting: dict[tuple, list] = {}
            pending = keys
            rounds = 0
            while True:
                additions: dict[tuple, Fraction] = {}
                for key in pending:
                    env[lo:hi] = key
                    env[reads_slot] = reads = set()
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


class Plan:
    """A query compiled once against a vocabulary and the names of the
    caller's variables, to run on any structure of that vocabulary.

    A plan holds the closures and the layout of a run's slot list (see
    :class:`_Compiler`), nothing of a structure and nothing a run writes:
    :meth:`run` makes the slot list, so one plan serves many structures
    and threads at once.  ``covered`` tells whether the vocabulary
    interprets every symbol the query uses as the query uses it.
    """

    __slots__ = ("expr", "vocabulary", "names", "fn", "covered", "size", "memos", "tables", "uses_units")

    def __init__(self, expr: Node, compiler: _Compiler, fn: Callable[[list], object]):
        self.expr = expr
        self.vocabulary = compiler.vocabulary
        self.names = compiler.names
        self.fn = fn
        self.covered = compiler.covered
        self.size = compiler.top + compiler.state
        self.memos = tuple(compiler.memos)
        self.tables = tuple(compiler.tables.items())
        self.uses_units = compiler.uses_units

    @depth_guard
    def run(
        self,
        structure: WeightedStructure,
        env: Optional[Mapping[str, str]] = None,
        limits: Optional[EvalLimits] = None,
    ) -> Value:
        """Value of the query on ``structure`` under ``env``, which assigns
        exactly the plan's variable names, as :func:`evaluate` gives it."""
        slots = self._slots(structure, env, limits)
        if slots is None:
            return False if syntactic_kind(self.expr) == "formula" else BOT
        value = self.fn(slots)
        if value is None:
            return BOT
        return value if type(value) is bool else ExtRational(value)

    def _slots(self, structure: WeightedStructure, env: Optional[Mapping], limits: Optional[EvalLimits]):
        """The slot list of one run: the assignment, the variable slots of
        the binders, then the run state; ``None`` if the structure does not
        cover the query and the query has no misuse to raise."""
        if structure.vocabulary != self.vocabulary:
            raise UsageError("the structure's vocabulary is not the one the plan was prepared for")
        env = env or {}
        if len(env) != len(self.names) or any(var not in env for var in self.names):
            raise UsageError(f"the plan assigns {list(self.names)}, not {list(env)}")
        universe = structure.universe
        rank = {elem: i for i, elem in enumerate(universe)}
        for var in self.names:
            if env[var] not in rank:
                raise UsageError(f"assignment {var}={env[var]!r} is not a universe element")
        if not self.covered:
            vocabulary_of(self.expr)  # raises on misuse
            return None
        limits = limits or EvalLimits()
        slots = [env[var] for var in self.names] + [None] * (self.size - len(self.names))
        slots[_UNIVERSE], slots[_RANK], slots[_INDEXES] = universe, rank, {}
        slots[_SUMMANDS], slots[_CELLS] = limits.max_summands, limits.max_fixpoint_cells
        if self.uses_units:
            slots[_UNITS] = [(elem,) for elem in universe]
        for slot in self.memos:
            slots[slot] = {}
        relations, weights = structure.relations, structure.weights
        for (kind, name), slot in self.tables:
            if kind == "relation":
                slots[slot] = relations.get(name, _NO_TUPLES)
            elif kind == "weight":
                slots[slot] = weights.get(name, _NO_VALUES)
            else:
                slots[slot] = weights.get(name, _NO_VALUES).get((), BOT).frac
        return slots


@depth_guard
def prepare(e: Node, vocabulary: Vocabulary, names: Sequence[str] = ()) -> Plan:
    """Compile ``e`` once for the structures of ``vocabulary`` and the
    assignments to the variables ``names``.

    Raises the errors :func:`evaluate` raises before it reads a
    structure: a generic atom at a position of the wrong kind, and
    unbound variables.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise UsageError(f"variable names repeat: {list(names)}")
    compiler = _Compiler(vocabulary, names)
    fn, _ = compiler.compile(e, compiler.root, term=None)
    return compiler.plan(e, fn)


# the plans of the latest evaluate calls by query, vocabulary and variable
# names, least recently used first
_PLANS: OrderedDict = OrderedDict()
_PLANS_LOCK = threading.Lock()
_PLANS_HELD = 32


def purge() -> None:
    """Forget every plan :func:`evaluate` keeps, so that each query is
    compiled again on its next call."""
    with _PLANS_LOCK:
        _PLANS.clear()


def _plan(e: Node, vocabulary: Vocabulary, names: tuple) -> Plan:
    """The kept plan of ``e`` for ``vocabulary`` and ``names``, or a new one."""
    key = (e, vocabulary, names)
    hash(e)  # a new query's nodes are hashed outside the lock
    with _PLANS_LOCK:
        kept = _PLANS.get(key)
        if kept is not None:
            _PLANS.move_to_end(kept[0])  # the kept key: no second comparison of the queries
            return kept[1]
    plan = prepare(e, vocabulary, names)
    with _PLANS_LOCK:
        # a thread that made the same plan meanwhile keeps its own
        kept = _PLANS.setdefault(key, (key, plan))
        if len(_PLANS) > _PLANS_HELD:
            _PLANS.popitem(last=False)
    return kept[1]


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
    through :func:`wsq.errors.depth_guard`.  The same as
    ``prepare(e, structure.vocabulary, env).run(structure, env, limits)``,
    with the plan kept for the next call (see the module docstring).
    """
    return _plan(e, structure.vocabulary, tuple(sorted(env or ()))).run(structure, env, limits)


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
    compiler = _Compiler(structure.vocabulary, tuple(env or ()))
    run, _ = compiler.fixpoint(n, compiler.root)
    plan = compiler.plan(n, run)
    slots = plan._slots(structure, env, limits)
    if slots is None:
        raise UsageError("fixed-point body uses symbols the structure does not interpret")
    table, rounds = plan.fn(slots)
    return FixpointTable({key: ExtRational(value) for key, value in table.items()}, rounds)
