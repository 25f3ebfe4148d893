"""Evaluation of expressions on weighted structures.

The semantics is total on well-formed inputs: formulas evaluate to a
Boolean, terms to an exact rational or ``bot``.  If the structure does
not interpret every extensional symbol an expression uses (same name,
kind, and arity), the expression defaults to false for formulas and
``bot`` for terms rather than erroring.  Genuine misuse (unbound free
variables, assignments outside the universe, a symbol used at two
arities) raises :class:`UsageError` instead.

The fixed-point operator iterates synchronously from the all-undefined
table: each round recomputes every still-undefined entry against the
previous round's table, and an entry, once defined, never changes.  That
makes the iteration inflationary and forces stabilization within
``|A|**k`` rounds; both properties are checked on every run, not only
under test.  Resource budgets (fixed-point table cells, summands per
summation node) convert runaway evaluations into :class:`ResourceError`
rather than wrong answers.

Each call compiles the expression once: a single pass turns the tree
into closures over the structure, settling there the kind of every
generic atom, every comparison operator, literal values and the table
each symbol reads, and computing free variables bottom-up.  Variables
live in numbered slots, one per binder occurrence, so a binder that
reuses an outer name needs no save and restore.  A node object reached
twice under the same binders compiles to one closure.

A summation, aggregate or quantifier that sits inside a binder looping
over variables it does not read is memoised by the values of its free
variables, so it is computed once per distinct binding rather than once
per iteration of the loops around it.  A fixed point's table is memoised
the same way, by the free variables of its body other than the bound
tuple, and not by the tuple it is applied to.  Memo tables inside a
fixed-point body are cleared at the start of every round, because the
intensional table they may read grows between rounds.  Nothing is cached
across calls: closures and memo tables belong to one call, which keeps
evaluation a pure function of its inputs and safe to run from several
threads on shared structures and expressions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import ResourceError, UsageError
from .numerics import BOT, ONE, ZERO, ExtRational, rational
from .structures import WeightedStructure
from .syntax.analysis import covered_by, vocabulary_of
from .syntax.nodes import (
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
    syntactic_kind,
)

__all__ = ["Value", "EvalLimits", "FixpointTable", "evaluate", "ifp_iterate"]

Value = Union[bool, ExtRational]

# a compiled node: reads variable values from the slot list, returns its value
Compiled = Callable[[list], Value]

_MISSING = object()

_ORDER = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@dataclass
class EvalLimits:
    """Budgets that turn oversized evaluations into resource errors."""

    max_fixpoint_cells: int = 10**6
    max_summands: int = 10**6


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


_ZERO_FN, _ONE_FN, _BOT_FN = _constant(ZERO), _constant(ONE), _constant(BOT)


class _Scope:
    """What compiling a node depends on besides the node itself.

    A new scope starts at every binder.  ``slots`` maps the variables
    bound so far to their slots; ``cells`` maps each intensional symbol
    to the holder of its fixed point's live table; ``loops`` is the
    bitmask of slots that enclosing binders loop over; ``memos`` lists
    the memo tables to clear at each round of the innermost enclosing
    fixed point (``None`` outside any); ``shared`` holds the nodes already
    compiled in this scope by object identity.
    """

    __slots__ = ("slots", "cells", "loops", "memos", "shared")

    def __init__(self, slots: dict, cells: dict, loops: int, memos: Optional[list]):
        self.slots = slots
        self.cells = cells
        self.loops = loops
        self.memos = memos
        self.shared: dict[int, tuple[Compiled, int]] = {}


class _Compiler:
    """One compile pass: AST nodes to closures over one structure.

    :meth:`compile` returns a node's closure together with the bitmask of
    the slots it reads, which are its free variables.  Variables free in
    the whole expression get slots on first use, recorded in ``free``.
    """

    def __init__(self, structure: WeightedStructure, limits: EvalLimits):
        self.structure = structure
        self.universe = structure.universe
        self.limits = limits
        self.free: dict[str, int] = {}
        self.size = 0
        self.root = _Scope({}, {}, 0, None)

    def compile(self, n: Node, scope: _Scope) -> tuple[Compiled, int]:
        if type(n) in _LEAVES:
            # cheaper to compile again than to keep in the cache
            return _COMPILE[type(n)](self, n, scope)
        done = scope.shared.get(id(n))
        if done is None:
            done = scope.shared[id(n)] = _COMPILE[type(n)](self, n, scope)
        return done

    def environment(self, env: Optional[Mapping[str, str]]) -> list:
        """The slot list for a caller's assignment of the free variables."""
        env = dict(env or {})
        missing = self.free.keys() - env.keys()
        if missing:
            raise UsageError(f"unbound variables: {sorted(missing)}")
        universe = set(self.universe)
        for var, val in env.items():
            if val not in universe:
                raise UsageError(f"assignment {var}={val!r} is not a universe element")
        slots: list = [None] * self.size
        for var, slot in self.free.items():
            slots[slot] = env[var]
        return slots

    # -- variables and binders -------------------------------------------

    def _slot(self, scope: _Scope, var: str) -> int:
        slot = scope.slots.get(var)
        if slot is None:
            slot = self.free.get(var)
            if slot is None:
                slot = self.free[var] = self.size
                self.size += 1
        return slot

    def _slots(self, scope: _Scope, args: tuple) -> tuple[list, int]:
        slots = [self._slot(scope, a) for a in args]
        mask = 0
        for slot in slots:
            mask |= 1 << slot
        return slots, mask

    def _bind(self, scope: _Scope, vars_: tuple) -> tuple[_Scope, int, int]:
        """A scope binding ``vars_`` to fresh consecutive slots ``lo .. hi-1``."""
        lo = self.size
        self.size += len(vars_)
        hi = self.size
        slots = dict(scope.slots)
        slots.update(zip(vars_, range(lo, hi)))
        return _Scope(slots, scope.cells, scope.loops | _span(lo, hi), scope.memos), lo, hi

    def _memo(self, fn: Compiled, mask: int, scope: _Scope) -> Compiled:
        """``fn`` memoised by the slots in ``mask`` when an enclosing binder
        loops over a slot outside ``mask``; otherwise ``fn`` itself."""
        if not scope.loops & ~mask:
            return fn
        memo: dict = {}
        if scope.memos is not None:
            scope.memos.append(memo)
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

    # -- formulas -----------------------------------------------------

    def _elem_eq(self, n: ElemEq, scope):
        a, b = self._slot(scope, n.left), self._slot(scope, n.right)
        return (lambda env: env[a] == env[b]), (1 << a) | (1 << b)

    def _rel_atom(self, n, scope):
        slots, mask = self._slots(scope, n.args)
        table = self.structure.relations.get(n.name)
        if table is None or not slots:
            return _constant(table is not None and () in table), mask
        if len(slots) == 1:
            (a,) = slots
            return (lambda env: (env[a],) in table), mask
        key = operator.itemgetter(*slots)
        return (lambda env: key(env) in table), mask

    def _order(self, op: str, left: Node, right: Node, scope):
        lf, lm = self.compile(left, scope)
        rf, rm = self.compile(right, scope)
        if op in ("=", "!=") and (type(left) is BotConst or type(right) is BotConst):
            # comparing with bot is a definedness test
            t = rf if type(left) is BotConst else lf
            if op == "=":
                return (lambda env: t(env).is_bot), lm | rm
            return (lambda env: not t(env).is_bot), lm | rm
        test = _ORDER[op]
        return (lambda env: test(lf(env), rf(env))), lm | rm

    def _leq(self, n: Leq, scope):
        return self._order("<=", n.left, n.right, scope)

    def _compare(self, n: Compare, scope):
        return self._order(n.op, n.left, n.right, scope)

    def _not(self, n: Not, scope):
        body, mask = self.compile(n.body, scope)
        return (lambda env: not body(env)), mask

    def _and(self, n: And, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        return (lambda env: lf(env) and rf(env)), lm | rm

    def _or(self, n: Or, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        return (lambda env: lf(env) or rf(env)), lm | rm

    def _implies(self, n: Implies, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        return (lambda env: not lf(env) or rf(env)), lm | rm

    def _quantifier(self, n, scope):
        inner, lo, _ = self._bind(scope, (n.var,))
        body, mask = self.compile(n.body, inner)
        mask &= ~(1 << lo)
        universe = self.universe
        if type(n) is Exists:

            def quantify(env):
                for elem in universe:
                    env[lo] = elem
                    if body(env):
                        return True
                return False

        else:

            def quantify(env):
                for elem in universe:
                    env[lo] = elem
                    if not body(env):
                        return False
                return True

        return self._memo(quantify, mask, scope), mask

    # -- terms ----------------------------------------------------------

    def _zero(self, n, scope):
        return _ZERO_FN, 0

    def _one(self, n, scope):
        return _ONE_FN, 0

    def _literal(self, n: Literal, scope):
        return _constant(rational(n.value)), 0

    def _bot(self, n, scope):
        return _BOT_FN, 0

    def _weight_atom(self, n, scope):
        slots, mask = self._slots(scope, n.args)
        holder = scope.cells.get(n.name)
        if holder is not None:
            key = _tuple_getter(slots)
            return (lambda env: holder[0].get(key(env), BOT)), mask
        table = self.structure.weights.get(n.name)
        if table is None or not slots:
            return _constant(BOT if table is None else table.get((), BOT)), mask
        if len(slots) == 1:
            (a,) = slots
            return (lambda env: table.get((env[a],), BOT)), mask
        key = operator.itemgetter(*slots)
        return (lambda env: table.get(key(env), BOT)), mask

    def _atom(self, n: Atom, scope):
        if n.name not in scope.cells and n.name in self.structure.vocabulary.relations:
            return self._rel_atom(n, scope)
        return self._weight_atom(n, scope)

    def _arith(self, n: Arith, scope):
        (lf, lm), (rf, rm) = self.compile(n.left, scope), self.compile(n.right, scope)
        op = _ARITH[n.op]
        return (lambda env: op(lf(env), rf(env))), lm | rm

    def _cond(self, n: Cond, scope):
        test, tm = self.compile(n.test, scope)
        then, thm = self.compile(n.then, scope)
        other, om = self.compile(n.otherwise, scope)
        return (lambda env: then(env) if test(env) else other(env)), tm | thm | om

    def _sum(self, n: Sum, scope):
        inner, lo, hi = self._bind(scope, n.vars)
        guard, gm = self.compile(n.guard, inner)
        body, bm = self.compile(n.body, inner)
        mask = (gm | bm) & ~_span(lo, hi)
        universe, k, limit = self.universe, hi - lo, self.limits.max_summands

        def total(env):
            acc = Fraction(0)
            count = 0
            for combo in product(universe, repeat=k):
                env[lo:hi] = combo
                if guard(env):
                    count += 1
                    if count > limit:
                        raise ResourceError(f"summation exceeds {limit} summands")
                    value = body(env).frac
                    if value is None:
                        return BOT
                    acc += value
            return ExtRational(acc)

        return self._memo(total, mask, scope), mask

    def _aggregate(self, n: Aggregate, scope):
        inner, lo, hi = self._bind(scope, n.vars)
        guard, mask = self.compile(n.guard, inner)
        body = None
        if n.body is not None:
            body, bm = self.compile(n.body, inner)
            mask |= bm
        mask &= ~_span(lo, hi)
        universe, k, limit, kind = self.universe, hi - lo, self.limits.max_summands, n.kind

        def aggregate(env):
            count = 0
            acc = Fraction(0)
            best: Optional[ExtRational] = None
            for combo in product(universe, repeat=k):
                env[lo:hi] = combo
                if not guard(env):
                    continue
                count += 1
                if count > limit:
                    raise ResourceError(f"aggregate exceeds {limit} summands")
                if kind == "count":
                    continue
                value = body(env)
                if kind == "avg":
                    if value.is_bot:
                        return BOT
                    acc += value.frac
                elif kind == "max":
                    if best is None or value > best:
                        best = value
                elif best is None or value < best:  # min
                    best = value
            if kind == "count":
                return rational(count)
            if kind == "avg":
                return BOT if count == 0 else ExtRational(acc / count)
            return BOT if best is None else best

        return self._memo(aggregate, mask, scope), mask

    def _ifp(self, n: Ifp, scope):
        run, mask = self.fixpoint(n.name, n.vars, n.body, scope)
        table = self._memo(lambda env: run(env).entries, mask, scope)
        slots, am = self._slots(scope, n.applied)
        applied = _tuple_getter(slots)
        return (lambda env: table(env).get(applied(env), BOT)), mask | am

    def fixpoint(self, name: str, vars_: tuple, body: Node, scope: _Scope):
        """Closure running the fixed point of ``body`` over ``name(vars_)``
        to stabilization, and the bitmask of the slots the run reads."""
        holder: list = [None]
        memos: list = []
        inner, lo, hi = self._bind(scope, vars_)
        inner.cells = {**scope.cells, name: holder}
        inner.memos = memos
        step, mask = self.compile(body, inner)
        universe, k = self.universe, hi - lo
        cells, limit = len(universe) ** k, self.limits.max_fixpoint_cells

        def run(env) -> FixpointTable:
            if cells > limit:
                raise ResourceError(f"fixed-point table needs {cells} cells, budget is {limit}")
            table: dict[tuple, ExtRational] = {}
            holder[0] = table
            keys = list(product(universe, repeat=k))
            rounds = 0
            while True:
                for memo in memos:
                    memo.clear()
                additions: dict[tuple, ExtRational] = {}
                for key in keys:
                    if key in table:
                        continue
                    env[lo:hi] = key
                    value = step(env)
                    if not value.is_bot:
                        additions[key] = value
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
            return FixpointTable(table, rounds)

        return run, mask & ~_span(lo, hi)


_LEAVES = frozenset((ElemEq, RelAtom, Zero, One, Literal, BotConst, WeightAtom, Atom))

_COMPILE = {
    ElemEq: _Compiler._elem_eq,
    RelAtom: _Compiler._rel_atom,
    Leq: _Compiler._leq,
    Compare: _Compiler._compare,
    Not: _Compiler._not,
    And: _Compiler._and,
    Or: _Compiler._or,
    Implies: _Compiler._implies,
    Exists: _Compiler._quantifier,
    Forall: _Compiler._quantifier,
    Zero: _Compiler._zero,
    One: _Compiler._one,
    Literal: _Compiler._literal,
    BotConst: _Compiler._bot,
    WeightAtom: _Compiler._weight_atom,
    Atom: _Compiler._atom,
    Arith: _Compiler._arith,
    Cond: _Compiler._cond,
    Sum: _Compiler._sum,
    Aggregate: _Compiler._aggregate,
    Ifp: _Compiler._ifp,
}


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
    applies.
    """
    compiler = _Compiler(structure, limits or EvalLimits())
    fn, _ = compiler.compile(e, compiler.root)
    slots = compiler.environment(env)
    if not covered_by(vocabulary_of(e), structure):
        return False if syntactic_kind(e) == "formula" else BOT
    return fn(slots)


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
    every other symbol must be interpreted by the structure.
    """
    vars_ = tuple(vars_)
    compiler = _Compiler(structure, limits or EvalLimits())
    run, _ = compiler.fixpoint(name, vars_, body, compiler.root)
    slots = compiler.environment(env)
    if not covered_by(vocabulary_of(Ifp(name, vars_, body, vars_)), structure):
        raise UsageError("fixed-point body uses symbols the structure does not interpret")
    return run(slots)
