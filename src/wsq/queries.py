"""Generators for the built-in query templates.

Each generator returns an AST (not text), so templates compose and the
pretty-printer can render them for inspection.  Templates over networks
use the vocabulary of :mod:`wsq.fnn`; the edge test is the definedness
of the edge weight, written ``wt(y, x) != bot``.

Available templates and their parameters are listed in
:data:`BUILTINS`; :func:`builtin_query` resolves CLI references like
``builtin:eval d=2 i=1``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .errors import UsageError
from .fnn import BIAS, INP, LE_IN, LE_OUT, WT
from .numerics import parse_count
from .syntax.nodes import (
    Aggregate,
    And,
    Arith,
    BotConst,
    Compare,
    Cond,
    ElemEq,
    Exists,
    Expr,
    Forall,
    Ifp,
    Implies,
    Leq,
    Literal,
    Not,
    One,
    Or,
    RelAtom,
    Sum,
    Term,
    WeightAtom,
    Zero,
)

__all__ = [
    "make_basic",
    "make_eval",
    "make_eval_node",
    "make_useless",
    "make_integrate_2_1",
    "make_squaring",
    "BUILTINS",
    "builtin_query",
]


def _edge(y: str, x: str) -> Compare:
    return Compare("!=", WeightAtom(WT, (y, x)), BotConst())


def _relu(t: Term) -> Cond:
    # the 0 * t in the else branch keeps the result undefined when t is
    return Cond(Compare(">=", t, Zero()), t, Arith("*", Zero(), t))


def _int_literal(i: int) -> Term:
    if i == 1:
        return One()
    return Literal(Fraction(i))


def _and_all(*formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def _or_all(*formulas):
    out = formulas[0]
    for f in formulas[1:]:
        out = Or(out, f)
    return out


# ---------------------------------------------------------------------------
# Basic weighted-graph and counting queries
# ---------------------------------------------------------------------------


def _triangle(x: str, y: str, z: str):
    return _and_all(_edge(x, y), _edge(y, z), _edge(z, x))


def _wt_sum(x: str, y: str, z: str) -> Term:
    return Arith(
        "+",
        Arith("+", WeightAtom(WT, (x, y)), WeightAtom(WT, (y, z))),
        WeightAtom(WT, (z, x)),
    )


def make_basic(name: str) -> Expr:
    """One of ``edges_count``, ``triangles_count``, ``min_wt_triangle``,
    ``weights_count``.

    ``min_wt_triangle(x, y, z)`` holds on the ordered triangles whose
    weight sum is minimal among all triangles; ``weights_count`` counts
    edge weights plus defined biases of a network.
    """
    if name == "edges_count":
        return Sum(("x", "y"), _edge("x", "y"), One())
    if name == "triangles_count":
        return Sum(("x", "y", "z"), _triangle("x", "y", "z"), One())
    if name == "min_wt_triangle":
        bound = Forall(
            "x1",
            Forall(
                "y1",
                Forall(
                    "z1",
                    Implies(
                        _triangle("x1", "y1", "z1"),
                        Leq(_wt_sum("x", "y", "z"), _wt_sum("x1", "y1", "z1")),
                    ),
                ),
            ),
        )
        return And(_triangle("x", "y", "z"), bound)
    if name == "weights_count":
        edges = Sum(("x", "y"), _edge("x", "y"), One())
        biases = Sum(("x",), Compare("!=", WeightAtom(BIAS, ("x",)), BotConst()), One())
        return Arith("+", edges, biases)
    raise UsageError(f"unknown basic query {name!r}")


# ---------------------------------------------------------------------------
# Bounded-depth evaluation
# ---------------------------------------------------------------------------


def _eval_term(depth: int, var: str, edge_guard: Callable[[str, str], Expr]) -> Term:
    """The depth-bounded evaluation term with free variable ``var``.

    Level j binds its summation variable as ``y{j}``, so nesting never
    captures.  A node deeper than the bound evaluates to bot: the base
    case reads ``inp``, which is undefined off the input nodes, and the
    rectifier template propagates that undefinedness upward.  The levels
    are built from the inputs up in a loop, so any depth builds.
    """
    term = WeightAtom(INP, (var if depth == 0 else "y1",))
    for level in range(1, depth + 1):
        outer = var if level == depth else f"y{level + 1}"
        term = _node_value(outer, f"y{level}", term, edge_guard)
    return term


def _node_value(var: str, inner: str, prev: Term, edge_guard: Callable[[str, str], Expr]) -> Term:
    """The value of node ``var``: its input if defined, else its bias plus
    the weighted sum of the rectified values ``prev`` of its in-neighbours
    ``inner``, the sources of the edges that ``edge_guard`` admits."""
    summand = Arith("*", WeightAtom(WT, (inner, var)), _relu(prev))
    return Cond(
        Compare("!=", WeightAtom(INP, (var,)), BotConst()),
        WeightAtom(INP, (var,)),
        Arith("+", WeightAtom(BIAS, (var,)), Sum((inner,), edge_guard(inner, var), summand)),
    )


def _output_position(var: str, i: int):
    """``var`` is the i-th output node under the output order (1-based)."""
    rank = Aggregate("count", ("y0",), RelAtom(LE_OUT, ("y0", var)), None)
    return And(RelAtom(LE_OUT, (var, var)), Compare("=", rank, _int_literal(i)))


def make_eval(d: int, i: Optional[int] = None) -> Expr:
    """Evaluation at bounded depth ``d``.

    Without ``i``: the open term in one free variable ``x``, equal to the
    value computed at a node of depth at most ``d`` of a network with
    input, and bot at deeper nodes.  With ``i`` (1-based): the closed
    term reading the i-th output; an out-of-range ``i`` gives bot via the
    empty average.
    """
    if d < 0:
        raise UsageError("depth must be nonnegative")
    term = _eval_term(d, "x", _edge)
    if i is None:
        return term
    if i < 1:
        raise UsageError("output index is 1-based")
    return Aggregate("avg", ("x",), _output_position("x", i), term)


def make_eval_node(closed: bool = True) -> Expr:
    """Depth-unbounded evaluation via the inflationary fixed point.

    The fixed point defines each node's value once all its in-neighbours
    are defined, mirroring the bounded-depth construction without the
    bound.  ``closed=True`` (the default) averages over the output nodes
    (selected by reflexivity of the output order), which for a
    single-output network is the network value; ``closed=False`` returns
    the open per-node term in ``x``.
    """
    body = _node_value("x", "y", WeightAtom("F", ("y",)), _edge)
    node_term = Ifp("F", ("x",), body, ("x",))
    if not closed:
        return node_term
    return Aggregate("avg", ("x",), RelAtom(LE_OUT, ("x", "x")), node_term)


def make_useless(d: int) -> Expr:
    """Edges with no effect on any output at the recorded input.

    Open formula in ``x0, y0``: the pair is an edge, and at every output
    node the depth-``d`` value of the network equals the value of the
    network with that edge removed (the edge guard inside the evaluation
    term gets the extra conjunct rejecting the deleted pair).
    """
    if d < 0:
        raise UsageError("depth must be nonnegative")

    def pruned_edge(y: str, x: str):
        return And(_edge(y, x), Not(And(ElemEq(y, "x0"), ElemEq(x, "y0"))))

    plain = _eval_term(d, "x", _edge)
    pruned = _eval_term(d, "x", pruned_edge)
    same_everywhere = Forall(
        "x",
        Implies(RelAtom(LE_OUT, ("x", "x")), Compare("=", plain, pruned)),
    )
    return And(_edge("x0", "y0"), same_everywhere)


# ---------------------------------------------------------------------------
# Squaring blow-up
# ---------------------------------------------------------------------------


def make_squaring() -> Expr:
    """Iterated squaring along the edge relation; open term in ``x``.

    On a path with d edges the sink evaluates to 2**(2**d) whatever the
    weights are, which is why the scalar fragment rejects this term.
    """
    partial = Sum(("y",), _edge("y", "x"), WeightAtom("F", ("y",)))
    body = Cond(
        Exists("y", _edge("y", "x")),
        Arith("*", partial, partial),
        Literal(Fraction(2)),
    )
    return Ifp("F", ("x",), body, ("x",))


# ---------------------------------------------------------------------------
# Exact integration for one hidden layer, one input
# ---------------------------------------------------------------------------


def _eq(a: Term, b: Term):
    return Compare("=", a, b)


_LO = WeightAtom("lo", ())
_HI = WeightAtom("hi", ())


class _Family:
    """One syntactic family of integration grid points.

    ``member(z)`` says element z indexes a grid point of this family and
    ``value(z)`` is its coordinate.  Families are ranked; a coordinate
    already produced by an earlier family is suppressed so every grid
    value has exactly one owning family.  Both return one object per
    variable name.
    """

    def __init__(self, member: Callable[[str], Expr], value: Callable[[str], Term]):
        self.member = cache(member)
        self.value = cache(value)


class _Integration:
    """The subterms of one integration template.

    Every builder returns one object per distinct argument, so equal
    subterms of the template are one object and the template is a DAG.
    """

    def __init__(self):
        self.zero = Zero()
        self.in_node = cache(lambda z: RelAtom(LE_IN, (z, z)))
        self.out_node = cache(lambda z: RelAtom(LE_OUT, (z, z)))
        self.in_weight_sum = cache(self._in_weight_sum)
        self.kink = cache(self._kink)
        self.depth2_value = cache(self._depth2_value)
        self.lt = cache(lambda a, b: Compare("<", a, b))
        self.families = self._families()
        self.multiplicity = cache(self._multiplicity)
        self.strictly_between = cache(self._strictly_between)

    def _in_weight_sum(self, z: str) -> Term:
        # total weight into z; on a conforming network this is the single
        # input-to-hidden weight
        return Sum(("w",), _edge("w", z), WeightAtom(WT, ("w", z)))

    def _kink(self, z: str) -> Term:
        return Arith("/", Arith("-", self.zero, WeightAtom(BIAS, (z,))), self.in_weight_sum(z))

    def _families(self) -> list[_Family]:
        zero, kink = self.zero, self.kink
        lo_bound = _Family(self.in_node, lambda z: _LO)
        at_zero = _Family(
            lambda z: _and_all(
                self.in_node(z),
                Leq(_LO, zero),
                Leq(zero, _HI),
                Not(_eq(zero, _LO)),
                Not(_eq(zero, _HI)),
            ),
            lambda z: zero,
        )
        kinks = _Family(
            lambda z: _and_all(
                Not(self.in_node(z)),
                Not(self.out_node(z)),
                Not(_eq(self.in_weight_sum(z), zero)),
                Leq(_LO, kink(z)),
                Leq(kink(z), _HI),
                Not(_eq(kink(z), _LO)),
                Not(_eq(kink(z), _HI)),
                Not(_eq(kink(z), zero)),
            ),
            kink,
        )
        hi_bound = _Family(
            lambda z: And(self.out_node(z), Not(_eq(_HI, _LO))),
            lambda z: _HI,
        )
        return [lo_bound, at_zero, kinks, hi_bound]

    def _depth2_value(self, theta: Term) -> Term:
        """The network value at input ``theta``, unrolled for depth two.

        Valid on networks with one input node, one optional hidden layer
        and one output node; elsewhere the value is unspecified.
        """
        raw_hidden = Cond(
            self.in_node("yi"),
            theta,
            Arith(
                "+",
                WeightAtom(BIAS, ("yi",)),
                Arith("*", self.in_weight_sum("yi"), _relu(theta)),
            ),
        )
        contributions = Sum(
            ("yi",),
            _edge("yi", "xo"),
            Arith("*", WeightAtom(WT, ("yi", "xo")), _relu(raw_hidden)),
        )
        at_output = Cond(
            self.in_node("xo"),
            theta,
            Arith("+", WeightAtom(BIAS, ("xo",)), contributions),
        )
        return Sum(("xo",), self.out_node("xo"), at_output)

    def _multiplicity(self, fam: _Family, z: str) -> Term:
        same = And(fam.member("zc"), _eq(fam.value("zc"), fam.value(z)))
        return Aggregate("count", ("zc",), same, None)

    def _strictly_between(self, v1: Term, v2: Term):
        cases = [
            _and_all(fam.member("z3"), self.lt(v1, fam.value("z3")), self.lt(fam.value("z3"), v2))
            for fam in self.families
        ]
        return Exists("z3", _or_all(*cases))


def make_integrate_2_1() -> Expr:
    """Closed term for the exact integral of a one-hidden-layer network.

    Target structures are networks of input and output dimension 1 and
    depth at most 2, expanded by weight constants ``lo <= hi``.  The
    integration grid consists of lo, hi, zero, and the positive-side
    kinks ``-bias(h) / wt(in, h)`` of the hidden nodes, each clipped to
    the interval and deduplicated across families; adjacent grid points
    (no grid value strictly between) contribute a trapezoid
    ``(b - a) * (f(a) + f(b)) / 2``, divided by the index multiplicity of
    each endpoint so coinciding hidden kinks are not double counted.  On
    structures outside the target class the value is unspecified.

    The term is a DAG: within one call, equal subterms such as the kink
    of ``z3`` or the network value at a grid point are one object.  The
    16 sibling ``sum {z1, z2}`` binders share one scope, so
    :func:`wsq.evaluate` compiles and memoises each such object once for
    all of them.  It prints as the tree it stands for.
    """
    parts = _Integration()
    fams = parts.families
    pieces: list[Term] = []
    for fam1 in fams:
        for fam2 in fams:
            v1 = fam1.value("z1")
            v2 = fam2.value("z2")
            adjacent = _and_all(
                fam1.member("z1"),
                fam2.member("z2"),
                parts.lt(v1, v2),
                Not(parts.strictly_between(v1, v2)),
            )
            area = Arith(
                "*",
                Arith("-", v2, v1),
                Arith("+", parts.depth2_value(v1), parts.depth2_value(v2)),
            )
            denom = Arith(
                "*",
                Literal(Fraction(2)),
                Arith("*", parts.multiplicity(fam1, "z1"), parts.multiplicity(fam2, "z2")),
            )
            pieces.append(Sum(("z1", "z2"), adjacent, Arith("/", area, denom)))

    total = pieces[0]
    for piece in pieces[1:]:
        total = Arith("+", total, piece)
    vars(parts).clear()  # its caches hold its bound methods: leave no reference cycle behind
    return total


# ---------------------------------------------------------------------------
# CLI-facing registry
# ---------------------------------------------------------------------------

BUILTINS: dict[str, dict] = {
    "edges_count": {"params": (), "make": lambda: make_basic("edges_count")},
    "triangles_count": {"params": (), "make": lambda: make_basic("triangles_count")},
    "min_wt_triangle": {"params": (), "make": lambda: make_basic("min_wt_triangle")},
    "weights_count": {"params": (), "make": lambda: make_basic("weights_count")},
    "eval": {"params": ("d", "i"), "required": ("d",), "make": make_eval},
    "eval_node": {"params": (), "make": make_eval_node},
    "useless": {"params": ("d",), "required": ("d",), "make": make_useless},
    "integrate_2_1": {"params": (), "make": make_integrate_2_1},
    "squaring": {"params": (), "make": make_squaring},
}


def builtin_query(reference: str) -> Expr:
    """Resolve ``"name k=v ..."`` (the text after ``builtin:``) to an AST."""
    parts = reference.split()
    if not parts:
        raise UsageError("empty builtin reference")
    name, *args = parts
    spec = BUILTINS.get(name)
    if spec is None:
        raise UsageError(f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}")
    params: dict[str, int] = {}
    for arg in args:
        key, sep, value = arg.partition("=")
        if not sep or key not in spec["params"]:
            raise UsageError(f"builtin {name!r} takes parameters {spec['params']}, got {arg!r}")
        try:
            params[key] = parse_count(value)
        except ValueError as exc:
            raise UsageError(f"parameter {key!r} {exc}") from exc
    for required in spec.get("required", ()):
        if required not in params:
            raise UsageError(f"builtin {name!r} requires parameter {required!r}")
    return spec["make"](**params)
