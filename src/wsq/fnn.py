"""Feedforward ReLU networks encoded as weighted structures.

A network is a weighted structure over the vocabulary
``{wt(2), bias(1), le_in(2), le_out(2)}``: ``wt`` holds edge weights
(an edge exists iff its weight is defined), ``bias`` is defined exactly
on non-input nodes, and ``le_in``/``le_out`` are reflexive linear orders
on the input and output node sets.

Value semantics: a node's raw value is its bias plus the weighted sum of
the ReLU of its in-neighbours' raw values; consumers apply the ReLU, so
output nodes (which have no consumers) report their raw value with no
activation, and even a raw input is rectified by the nodes reading it.

This module provides validation, the direct forward oracle, the
edge-padding transformation, and an exact piecewise-linear representation
(:class:`Pwl`) for single-input single-output networks, which serves as
the oracle for integration and the zero test.

Validation derives the graph data once (neighbour lists, a topological
order, the input/output orders ranked and checked by each member's number
of predecessors), and :class:`FnnStructure` keeps them.  The network
oracles compute on bare ``Fraction``s (``None`` for bot) and box the node
values once at the end; :func:`forward` reads the kept graph and builds no structure.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Mapping, Sequence

from .errors import LoadError, ResourceError, UsageError
from .numerics import BOT, ExtRational, as_rational, rational
from .structures import Vocabulary, WeightedStructure, read_json, universe_problems, weight_reader

__all__ = [
    "WT",
    "BIAS",
    "LE_IN",
    "LE_OUT",
    "INP",
    "FnnStructure",
    "validate_fnn",
    "with_input",
    "forward",
    "node_values",
    "pad",
    "without_edge",
    "Pwl",
    "to_pwl",
    "pwl_integral",
    "zero_query",
    "DEFAULT_MAX_PWL_PIECES",
    "fnn_from_json",
    "fnn_to_json",
    "load_fnn",
    "save_fnn",
]

WT = "wt"
BIAS = "bias"
LE_IN = "le_in"
LE_OUT = "le_out"
INP = "inp"

DEFAULT_MAX_PWL_PIECES = 10**6


# ---------------------------------------------------------------------------
# Validation and the structure view
# ---------------------------------------------------------------------------


def _topological(universe: Sequence[str], succs: dict[str, Sequence[str]]) -> list[str]:
    """Kahn's algorithm: sources in universe order, a node that becomes ready
    next.  Nodes on a cycle of ``succs``, or after one, are left out."""
    pending = dict.fromkeys(universe, 0)
    for v in universe:
        for x in succs[v]:
            pending[x] += 1
    ready = [v for v in reversed(universe) if not pending[v]]
    order: list[str] = []
    while ready:
        v = ready.pop()
        order.append(v)
        for x in succs[v]:
            pending[x] -= 1
            if not pending[x]:
                ready.append(x)
    return order


def _cycle(universe: Sequence[str], succs: dict[str, Sequence[str]], order: list[str]) -> str:
    """The nodes of one cycle of ``succs``, as text, given the ``order`` in
    which :func:`_topological` left some nodes out."""
    done = set(order)
    # a node left out waits on another node left out, so each of them has
    # such a predecessor, and walking back along them must come round a cycle
    back = {x: u for u in universe if u not in done for x in succs[u]}
    v = next(v for v in universe if v not in done)
    walked: dict[str, None] = {}
    while v not in walked:
        walked[v] = None
        v = back[v]
    path = list(walked)
    cycle = path[path.index(v) :]
    return ", ".join(repr(u) for u in reversed(cycle))


def _linear_order(pairs: frozenset, members: Sequence[str], label: str) -> tuple[tuple, list[str]]:
    """Rank ``members`` under ``pairs``, a reflexive linear order on exactly them.

    Returns the members from least to greatest and the violations (the
    order is meaningful only when there are none).  A reflexive, total and
    antisymmetric relation is transitive exactly when no two members have
    the same number of predecessors, so sorting by that count both ranks
    the members and checks transitivity, in O(n^2) for n members.
    """
    out: list[str] = []
    domain = {a for a, _ in pairs} | {b for _, b in pairs}
    stray = domain.difference(members)
    if stray:
        out.append(f"{label}: defined on non-{label.split('_')[1]} nodes {sorted(stray)}")
    missing = set(members) - domain
    if missing:
        out.append(f"{label}: not defined on {sorted(missing)}")
    if out:
        return (), out
    # one message per kind of defect: its first pair and how many there are
    defects: dict[str, list] = {}

    def note(wording: str, a: str, b: str) -> None:
        defects.setdefault(wording, [(a, b), 0])[1] += 1

    for i, a in enumerate(members):
        if (a, a) not in pairs:
            note("missing reflexive pair ({0},{1})", a, a)
        for b in members[i + 1 :]:
            has_ab, has_ba = (a, b) in pairs, (b, a) in pairs
            if not (has_ab or has_ba):
                note("{0} and {1} are incomparable", a, b)
            elif has_ab and has_ba:
                note("{0} and {1} violate antisymmetry", a, b)
    for wording, (pair, count) in defects.items():
        more = f" (and {count - 1} more pairs)" if count > 1 else ""
        out.append(f"{label}: {wording.format(*pair)}{more}")
    if out:
        return (), out
    preds = dict.fromkeys(members, 0)
    for _, b in pairs:
        preds[b] += 1
    order = tuple(sorted(members, key=preds.__getitem__))
    for a, b in zip(order, order[1:]):
        if preds[a] == preds[b]:
            if (a, b) not in pairs:
                a, b = b, a
            # a <= b makes a a predecessor of b but not of itself, so with
            # equal counts some w <= a is not <= b: then b <= w <= a, not b <= a
            w = next(w for w in members if (w, a) in pairs and (w, b) not in pairs)
            out.append(f"{label}: transitivity fails on ({b},{w},{a})")
            break
    return order, out


def _graph(s: WeightedStructure, given: Container[str] = ()) -> tuple[dict, dict, list[str]]:
    """In- and out-neighbours in universe order, without the edges into
    ``given`` nodes, and :func:`_topological`'s order of the nodes of ``s``."""
    rank = {v: i for i, v in enumerate(s.universe)}
    ins: dict[str, list[str]] = {v: [] for v in s.universe}
    outs: dict[str, list[str]] = {v: [] for v in s.universe}
    for u, v in sorted(s.weights[WT], key=lambda e: (rank[e[0]], rank[e[1]])):
        if v not in given:
            ins[v].append(u)
            outs[u].append(v)
    return ins, outs, _topological(s.universe, outs)


def _derive(s: WeightedStructure) -> tuple[list[str], tuple]:
    """The network-condition violations of ``s`` and, valid only when there
    are none, its graph data: in- and out-neighbours (in universe order), a
    topological order, and the inputs and outputs ranked by their orders."""
    out = universe_problems(s.universe)
    voc = s.vocabulary
    for name, arity in ((WT, 2), (BIAS, 1)):
        if voc.weights.get(name) != arity:
            out.append(f"vocabulary: weight symbol {name}({arity}) required")
    for name in (LE_IN, LE_OUT):
        if voc.relations.get(name) != 2:
            out.append(f"vocabulary: relation symbol {name}(2) required")
    if out:
        return out, ()

    ins, outs, order = _graph(s)
    if len(order) < len(s.universe):
        out.append(f"acyclic: weight graph has a cycle through {_cycle(s.universe, outs, order)}")
        return out, ()

    for v in s.universe:
        has_bias = (v,) in s.weights[BIAS]
        if not ins[v] and has_bias:
            out.append(f"bias iff input: input node {v} must not have a bias")
        if ins[v] and not has_bias:
            out.append(f"bias iff input: non-input node {v} must have a bias")
    inputs, problems = _linear_order(s.relations[LE_IN], [v for v in ins if not ins[v]], LE_IN)
    out += problems
    outputs, problems = _linear_order(s.relations[LE_OUT], [v for v in outs if not outs[v]], LE_OUT)
    out += problems
    in_neighbors = {v: tuple(us) for v, us in ins.items()}
    out_neighbors = {v: tuple(xs) for v, xs in outs.items()}
    return out, (in_neighbors, out_neighbors, tuple(order), inputs, outputs)


def validate_fnn(s: WeightedStructure) -> list[str]:
    """Check the network conditions on a weighted structure.

    Returns violation messages (empty list = valid network): the required
    vocabulary, acyclicity of the weight graph, bias defined exactly on
    non-input nodes, and the two linear-order conditions.
    """
    return _derive(s)[0]


class FnnStructure:
    """Validated view of a network structure with derived graph data.

    Construction validates the network conditions and keeps the data the
    validation derived: neighbour tuples, a topological ``order`` of the
    nodes, the input/output orders, and node depths (length of the longest
    path from an input).  ``edges`` is the structure's read-only ``wt``.
    """

    def __init__(self, structure: WeightedStructure):
        problems, graph = _derive(structure)
        if problems:
            raise UsageError("not a valid FNN: " + "; ".join(problems))
        self.structure = structure
        self.edges: Mapping[tuple[str, str], ExtRational] = structure.weights[WT]
        self.in_neighbors, self.out_neighbors, self.order, self.input_nodes, self.output_nodes = graph
        self.depths: dict[str, int] = {}
        for v in self.order:
            preds = self.in_neighbors[v]
            self.depths[v] = 1 + max(self.depths[u] for u in preds) if preds else 0

    @property
    def input_dim(self) -> int:
        return len(self.input_nodes)

    @property
    def output_dim(self) -> int:
        return len(self.output_nodes)

    @property
    def depth(self) -> int:
        return max(self.depths.values())

    def bias(self, v: str) -> ExtRational:
        return self.structure.weights[BIAS].get((v,), BOT)


def _inputs(net: FnnStructure, values: Sequence) -> dict[str, ExtRational]:
    """``values`` checked as an input vector of ``net``, keyed by input node."""
    values = [as_rational(v) for v in values]
    if any(v is None or v.is_bot for v in values):
        raise UsageError("network inputs must be defined rationals")
    if len(values) != net.input_dim:
        raise UsageError(f"expected {net.input_dim} input values, got {len(values)}")
    return dict(zip(net.input_nodes, values))


def with_input(net: FnnStructure, values: Sequence) -> WeightedStructure:
    """Expand a network by the unary ``inp`` function carrying an input vector.

    ``values[i]`` is attached to the i-th input node under ``le_in``; all
    other nodes are left undefined.  Values are ints, Fractions or defined
    ExtRationals, not bools.
    """
    table = {(u,): r for u, r in _inputs(net, values).items()}
    return net.structure.expand(weights={INP: (1, table)})


def _values(s: WeightedStructure, order: Sequence[str], ins: Mapping, given: Mapping) -> dict[str, ExtRational]:
    """Raw node values on ``Fraction | None``: ``given``'s, or bias plus the weighted
    sum of rectified in-neighbour values; a missing bias or an undefined
    in-neighbour makes a node undefined.  Boxed only on return."""
    wt, bias = s.weights[WT], s.weights[BIAS]
    values: dict[str, Fraction | None] = {v: r.frac for v, r in given.items()}
    for v in order:
        if v in given:
            continue
        total = bias[(v,)].frac if (v,) in bias else None
        for u in ins[v]:
            x = values[u]
            if total is None or x is None:
                total = None
                break
            if x > 0:
                total += wt[(u, v)].frac * x
        values[v] = total
    return {v: BOT if x is None else ExtRational(x) for v, x in values.items()}


def node_values(s: WeightedStructure) -> dict[str, ExtRational]:
    """Raw value of every node of a network-with-input structure.

    Follows the evaluation recursion directly on the weight graph: a
    node with a defined ``inp`` entry reports it, every other node
    reports bias plus the weighted sum of rectified in-neighbour values.
    Works on any acyclic structure interpreting ``wt(2)``, ``bias(1)`` and
    ``inp(1)`` (for example a network with an edge deleted), with ``bot``
    propagating where the recursion is not grounded.  Nodes are computed
    in topological order without recursion, so depth costs no stack.
    """
    for name, arity in ((WT, 2), (BIAS, 1), (INP, 1)):
        if s.vocabulary.weights.get(name) != arity:
            raise UsageError(f"structure does not interpret weight symbol {name}({arity})")
    # a node with a defined inp entry reports it and reads no in-neighbour
    given = {v: r for (v,), r in s.weights[INP].items()}
    ins, outs, order = _graph(s, given)
    if len(order) < len(s.universe):
        raise UsageError(f"weight graph has a cycle through {_cycle(s.universe, outs, order)}")
    values = _values(s, order, ins, given)
    return {v: values[v] for v in s.universe}


def forward(net: FnnStructure, values: Sequence) -> list[ExtRational]:
    """Evaluate the network function exactly; outputs follow ``le_out``."""
    table = _values(net.structure, net.order, net.in_neighbors, _inputs(net, values))
    return [table[v] for v in net.output_nodes]


def without_edge(s: WeightedStructure, edge: tuple[str, str]) -> WeightedStructure:
    """Remove one edge (set its weight to ``bot``) from any ``wt`` structure.

    The result may violate the strict network conditions (a node can lose
    all in-edges while keeping its bias); :func:`node_values` still
    evaluates it under the same recursion.
    """
    edge = tuple(edge)
    if WT not in s.weights or edge not in s.weights[WT]:
        raise UsageError(f"no edge {edge!r} to remove")
    wt = {k: v for k, v in s.weights[WT].items() if k != edge}
    return WeightedStructure(s.universe, s.vocabulary, s.relations, {**s.weights, WT: wt})


def pad(net: FnnStructure, edge: tuple[str, str], k: int) -> FnnStructure:
    """Replace an edge by a chain of ``k`` weight-1, bias-0 relay nodes.

    The relayed value is already rectified, so rectifying it again at each
    relay is the identity and the computed function is unchanged, while
    every path through the edge gets longer by ``k``.  Input/output nodes
    and their orders are untouched.
    """
    u, v = edge = tuple(edge)
    if edge not in net.edges:
        raise UsageError(f"{edge!r} is not an edge of the network")
    if k < 1:
        raise UsageError("relay count must be at least 1")
    taken = set(net.structure.universe)
    relays = []
    for i in range(1, k + 1):
        name = f"{u}_{v}_pad{i}"
        while name in taken:
            name += "x"
        taken.add(name)
        relays.append(name)

    wt = dict(net.structure.weights[WT])
    del wt[edge]
    chain = [u] + relays + [v]
    for a, b in zip(chain, chain[1:]):
        wt[(a, b)] = rational(1)
    wt[(relays[-1], v)] = net.edges[edge]
    bias = dict(net.structure.weights[BIAS])
    for r in relays:
        bias[(r,)] = rational(0)

    s = net.structure
    weights = {**s.weights, WT: wt, BIAS: bias}
    return FnnStructure(WeightedStructure(s.universe + tuple(relays), s.vocabulary, s.relations, weights))


# ---------------------------------------------------------------------------
# Exact piecewise-linear functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pwl:
    """Continuous piecewise-linear function R -> R in canonical form.

    ``breakpoints`` are strictly increasing; ``pieces[i]`` is the
    ``(slope, intercept)`` of the affine piece left of ``breakpoints[i]``
    (the last piece extends to +inf).  Adjacent pieces agree at the shared
    breakpoint and have distinct slopes, so equal functions have equal
    representations.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise UsageError("a piecewise-linear function needs one piece more than breakpoints")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise UsageError("breakpoints must be strictly increasing")
        for i, x in enumerate(self.breakpoints):
            (s1, t1), (s2, t2) = self.pieces[i], self.pieces[i + 1]
            if s1 * x + t1 != s2 * x + t2:
                raise UsageError("pieces must agree at breakpoints")
            if s1 == s2:
                raise UsageError("canonical form requires distinct adjacent slopes")

    @classmethod
    def make(cls, breakpoints: Sequence[Fraction], pieces: Sequence[tuple[Fraction, Fraction]]) -> "Pwl":
        """Build in canonical form, merging collinear adjacent pieces."""
        bps: list[Fraction] = []
        ps: list[tuple[Fraction, Fraction]] = [tuple(pieces[0])]
        for x, piece in zip(breakpoints, pieces[1:]):
            piece = tuple(piece)
            if piece == ps[-1]:
                continue
            bps.append(x)
            ps.append(piece)
        return cls(tuple(bps), tuple(ps))

    @classmethod
    def identity(cls) -> "Pwl":
        return cls((), ((Fraction(1), Fraction(0)),))

    def _piece_at(self, x: Fraction) -> tuple[Fraction, Fraction]:
        return self.pieces[bisect_left(self.breakpoints, x)]

    def at(self, x: Fraction) -> Fraction:
        s, t = self._piece_at(Fraction(x))
        return s * Fraction(x) + t

    @property
    def is_zero(self) -> bool:
        return self.pieces == ((Fraction(0), Fraction(0)),)

    @classmethod
    def affine(cls, terms: Sequence[tuple[Fraction, "Pwl"]], offset: Fraction = Fraction(0)) -> "Pwl":
        """Exact affine combination ``offset + sum(c * p)``."""
        merged = sorted({x for _, p in terms for x in p.breakpoints})
        pieces = []
        for x in _interval_reps(merged):
            slope = Fraction(0)
            inter = Fraction(offset)
            for c, p in terms:
                s, t = p._piece_at(x)
                slope += c * s
                inter += c * t
            pieces.append((slope, inter))
        return cls.make(merged, pieces)

    def relu(self) -> "Pwl":
        """Pointwise ``max(0, .)``, splitting pieces at their zero crossings."""
        cuts = set(self.breakpoints)
        bounds = [None, *self.breakpoints, None]
        for i, (s, t) in enumerate(self.pieces):
            if s == 0:
                continue
            root = -t / s
            lo, hi = bounds[i], bounds[i + 1]
            if (lo is None or lo < root) and (hi is None or root < hi):
                cuts.add(root)
        new_bps = sorted(cuts)
        pieces = []
        for x in _interval_reps(new_bps):
            if self.at(x) > 0:
                pieces.append(self._piece_at(x))
            else:
                pieces.append((Fraction(0), Fraction(0)))
        return Pwl.make(new_bps, pieces)

    def integral(self, a: Fraction, b: Fraction) -> Fraction:
        """Exact integral over [a, b] via trapezoids on the pieces."""
        a, b = Fraction(a), Fraction(b)
        if a > b:
            raise UsageError("integration bounds must satisfy a <= b")
        points = [a] + [x for x in self.breakpoints if a < x < b] + [b]
        total = Fraction(0)
        for l, r in zip(points, points[1:]):
            total += (self.at(l) + self.at(r)) * (r - l) / 2
        return total


def _interval_reps(breakpoints: Sequence[Fraction]) -> list[Fraction]:
    """One interior sample point per interval of the partition given by breakpoints."""
    if not breakpoints:
        return [Fraction(0)]
    reps = [breakpoints[0] - 1]
    for a, b in zip(breakpoints, breakpoints[1:]):
        reps.append((a + b) / 2)
    reps.append(breakpoints[-1] + 1)
    return reps


def to_pwl(net: FnnStructure, max_pieces: int = DEFAULT_MAX_PWL_PIECES) -> Pwl:
    """Exact piecewise-linear form of a 1-input 1-output network.

    Built by composing per-node representations bottom-up: rectification
    splits pieces at zero crossings, affine combination merges breakpoint
    sets.  Piece counts can grow exponentially with depth, so the build
    aborts with :class:`ResourceError` beyond ``max_pieces``.
    """
    if net.input_dim != 1 or net.output_dim != 1:
        raise UsageError("piecewise-linear analysis needs input and output dimension 1")
    node_pwl: dict[str, Pwl] = {}
    relu_pwl: dict[str, Pwl] = {}

    def check(p: Pwl) -> Pwl:
        if len(p.pieces) > max_pieces:
            raise ResourceError(f"piecewise-linear representation exceeds {max_pieces} pieces")
        return p

    for v in net.order:
        preds = net.in_neighbors[v]
        if not preds:
            node_pwl[v] = Pwl.identity()
        else:
            terms = []
            for u in preds:
                if u not in relu_pwl:
                    relu_pwl[u] = check(node_pwl[u].relu())
                terms.append((net.edges[(u, v)].frac, relu_pwl[u]))
            node_pwl[v] = check(Pwl.affine(terms, net.bias(v).frac))
    return node_pwl[net.output_nodes[0]]


def pwl_integral(p: Pwl, a: ExtRational, b: ExtRational) -> ExtRational:
    """Exact integral of a piecewise-linear function over defined bounds."""
    if a.is_bot or b.is_bot:
        raise UsageError("integration bounds must be defined")
    return ExtRational(p.integral(a.frac, b.frac))


def zero_query(net: FnnStructure, max_pieces: int = DEFAULT_MAX_PWL_PIECES) -> bool:
    """Whether a 1-input 1-output network computes the constant zero function."""
    return to_pwl(net, max_pieces).is_zero


# ---------------------------------------------------------------------------
# Convenience file format
# ---------------------------------------------------------------------------


def fnn_from_json(doc: dict) -> FnnStructure:
    """Compile the network-file dict form into a validated network.

    Expected shape::

        {"nodes": [{"name": "u"}, {"name": "v", "bias": "1"}],
         "edges": [{"from": "u", "to": "v", "weight": "3"}],
         "input_order": ["u"], "output_order": ["v"]}

    ``le_in``/``le_out`` are materialized as reflexive linear orders on
    the listed nodes.  The compiled structure must satisfy the network
    conditions (bias present exactly off the input nodes, orders covering
    exactly the input/output sets).  Each distinct weight text is parsed once
    per load, and nothing is kept after it.
    """
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise LoadError("network file must be an object with a 'nodes' key")

    def listed(key: str) -> list:
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise LoadError(f"'{key}' must be a list")
        return entries

    read = weight_reader()
    known: dict[str, None] = {}  # the node names, in file order
    bias: dict = {}
    for entry in listed("nodes"):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise LoadError("each node entry needs a 'name' string")
        name = entry["name"]
        if name in known:
            raise LoadError(f"duplicate node {name!r}")
        known[name] = None
        if "bias" in entry:
            bias[(name,)] = read(entry["bias"], f"bias of {name}")

    wt: dict = {}
    for entry in listed("edges"):
        try:
            u, v, raw = entry["from"], entry["to"], entry["weight"]
        except (TypeError, KeyError) as exc:
            raise LoadError("each edge entry needs 'from', 'to' and 'weight'") from exc
        if not isinstance(u, str) or not isinstance(v, str):
            raise LoadError("edge endpoints 'from' and 'to' must be node names")
        if u not in known or v not in known:
            raise LoadError(f"edge ({u},{v}) references unknown nodes")
        if (u, v) in wt:
            raise LoadError(f"duplicate edge ({u},{v})")
        wt[(u, v)] = read(raw, f"weight of ({u},{v})")

    def order_pairs(label):
        order = listed(label)
        if not all(isinstance(name, str) for name in order) or len(set(order)) != len(order):
            raise LoadError(f"'{label}' must be a list of distinct node names")
        for name in order:
            if name not in known:
                raise LoadError(f"'{label}' references unknown node {name!r}")
        return frozenset((a, b) for i, a in enumerate(order) for b in order[i:])

    # every name, endpoint and value is checked above, so the tables need no second check
    orders = {LE_IN: order_pairs("input_order"), LE_OUT: order_pairs("output_order")}
    vocabulary = Vocabulary({LE_IN: 2, LE_OUT: 2}, {WT: 2, BIAS: 1})
    structure = WeightedStructure(tuple(known), vocabulary, orders, {WT: wt, BIAS: bias})
    try:
        return FnnStructure(structure)
    except UsageError as exc:
        raise LoadError(str(exc)) from exc


def fnn_to_json(net: FnnStructure) -> dict:
    """Serialize back to the network-file dict form."""
    nodes = []
    for v in net.structure.universe:
        entry: dict = {"name": v}
        b = net.bias(v)
        if not b.is_bot:
            entry["bias"] = str(b)
        nodes.append(entry)
    edges = [
        {"from": u, "to": v, "weight": str(w)}
        for (u, v), w in sorted(net.edges.items())
    ]
    return {
        "nodes": nodes,
        "edges": edges,
        "input_order": list(net.input_nodes),
        "output_order": list(net.output_nodes),
    }


def load_fnn(path: str) -> FnnStructure:
    """Load a network file; any unreadable or malformed file is a :class:`LoadError`."""
    return fnn_from_json(read_json(path))


def save_fnn(net: FnnStructure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fnn_to_json(net), fh, indent=2)
        fh.write("\n")
