"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain inputs: a
validated network built with ``randgen.build_fnn``, a weighted structure,
or a query AST.  The workloads serialise them (network and structure
JSON, query text) before they reach the program under test, and keep the
generated objects to compute the expected answers.

Shapes are fixed by the caller and only the values come from the seed:
network layers have an exact fan-in, so the number of paths into a node,
which sets the cost of the bounded evaluation templates, is the same for
every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

import randgen
from wsq.structures import WeightedStructure
from wsq.syntax.nodes import (
    Aggregate,
    And,
    Arith,
    BotConst,
    Compare,
    Cond,
    Exists,
    Forall,
    Ifp,
    Implies,
    RelAtom,
    Sum,
    WeightAtom,
    Zero,
    children,
)


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, item), so items do not shift each other."""
    return random.Random("/".join(str(x) for x in (seed, *labels)))


def weight(rng: random.Random, mag: int = 4) -> Fraction:
    """A nonzero rational with numerator and denominator up to ``mag``."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, mag), rng.randint(1, mag))


def value(rng: random.Random, mag: int = 4) -> Fraction:
    return Fraction(rng.randint(-mag, mag), rng.randint(1, mag))


def input_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [value(rng, 6) for _ in range(n)]


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def _connect(rng, sources, targets, fan_in, edges):
    """Give every target exactly ``min(fan_in, len(sources))`` in-edges and
    every source at least one out-edge."""
    k = min(fan_in, len(sources))
    for j, v in enumerate(targets):
        first = sources[j % len(sources)]
        others = rng.sample([u for u in sources if u != first], k - 1)
        for u in [first, *others]:
            edges[(u, v)] = weight(rng)
    for i, u in enumerate(sources[len(targets):], start=len(targets)):
        if not any(e[0] == u for e in edges):
            v = targets[i % len(targets)]
            edges[(u, v)] = weight(rng)


def layered_parts(rng, depth: int, width: int, fan_in: int = 2, n_in: int | None = None, n_out: int = 1):
    """Nodes, edges and biases of a layered network: ``n_in`` inputs,
    ``depth - 1`` hidden layers of ``width`` nodes, ``n_out`` outputs, and
    edges only between adjacent layers."""
    layers = [[f"n0_{j}" for j in range(n_in or width)]]
    for i in range(1, depth):
        layers.append([f"n{i}_{j}" for j in range(width)])
    layers.append([f"out{j}" for j in range(n_out)])
    edges: dict = {}
    for sources, targets in zip(layers[:-1], layers[1:-1]):
        _connect(rng, sources, targets, fan_in, edges)
    # output j reads the last-layer nodes whose index is j modulo n_out
    for i, u in enumerate(layers[-2]):
        edges[(u, layers[-1][i % n_out])] = weight(rng)
    biases = {v: value(rng) for layer in layers[1:] for v in layer}
    nodes = [v for layer in layers for v in layer]
    return nodes, edges, biases


def layered_net(rng, depth: int, width: int, fan_in: int = 2, n_in: int | None = None, n_out: int = 1):
    """The validated network of :func:`layered_parts`."""
    return randgen.build_fnn(*layered_parts(rng, depth, width, fan_in, n_in, n_out))


def network_doc(nodes, edges, biases) -> dict:
    """The network-file form of :func:`layered_parts` output, with inputs and
    outputs ordered as ``randgen.build_fnn`` orders them.  Building it skips
    the validation a network object would do, whose cost is cubic in the
    number of inputs."""
    targets = {v for _, v in edges}
    sources = {u for u, _ in edges}
    return {
        "nodes": [{"name": v, **({"bias": str(biases[v])} if v in biases else {})} for v in nodes],
        "edges": [{"from": u, "to": v, "weight": str(w)} for (u, v), w in edges.items()],
        "input_order": [v for v in nodes if v not in targets],
        "output_order": [v for v in nodes if v not in sources],
    }


def one_hidden_net(rng, hidden: int, kinks_within: int = 4):
    """One input, ``hidden`` hidden nodes, one output: the target class of
    ``make_integrate_2_1``.  Every hidden node's kink ``-bias / weight`` is
    a distinct nonzero point inside ``(-kinks_within, kinks_within)``, so an
    integration interval that covers it sees a grid of fixed size."""
    names = [f"h{i}" for i in range(hidden)]
    grid = [Fraction(k, 8) for k in range(-8 * kinks_within + 1, 8 * kinks_within) if k]
    edges, biases = {}, {}
    for h, kink in zip(names, rng.sample(grid, hidden)):
        edges[("u", h)] = weight(rng, 6)
        edges[(h, "o")] = weight(rng, 6)
        biases[h] = -kink * edges[("u", h)]
    biases["o"] = value(rng, 6)
    return randgen.build_fnn(["u", *names, "o"], edges, biases)


# ---------------------------------------------------------------------------
# Weighted graphs
# ---------------------------------------------------------------------------


def graph(rng, size: int, density: float) -> WeightedStructure:
    """A weighted digraph ``wt`` plus the symbol pool of ``randgen``
    (``p/1, e/2, flag/0, f/1, w/2, cst/0``), so both the query catalogue
    and random expressions find every symbol interpreted.  ``p``, the
    sources of the catalogue's path sum, holds a fifth of the elements, so
    the fixed point's cost varies little from graph to graph."""
    universe = [f"v{i}" for i in range(size)]
    pairs = [(a, b) for a in universe for b in universe]
    wt = {(a, b): Fraction(rng.randint(1, 9), rng.randint(1, 3)) for a, b in pairs if a != b and rng.random() < density}
    e = [t for t in pairs if rng.random() < density]
    w = {t: value(rng, 8) for t in pairs if rng.random() < 0.6}
    f = {(a,): value(rng, 8) for a in universe if rng.random() < 0.8}
    p = [(a,) for a in sorted(rng.sample(universe, round(0.2 * size)))]
    return WeightedStructure.build(
        universe,
        relations={"p": (1, p), "e": (2, e), "flag": (0, [()] if rng.random() < 0.5 else [])},
        weights={"wt": (2, wt), "w": (2, w), "f": (1, f), "cst": (0, {(): value(rng, 8)})},
    )


def _edge(y, x):
    return Compare("!=", WeightAtom("wt", (y, x)), BotConst())


def _path_sum():
    # first-reached distance from the p-nodes: F(x) is defined in the
    # round after some in-neighbour is, so the fixed point runs BFS rounds
    body = Cond(
        RelAtom("p", ("x",)),
        Zero(),
        Aggregate(
            "min",
            ("y",),
            And(_edge("y", "x"), Compare("!=", WeightAtom("F", ("y",)), BotConst())),
            Arith("+", WeightAtom("F", ("y",)), WeightAtom("wt", ("y", "x"))),
        ),
    )
    return Ifp("F", ("x",), body, ("x",))


def catalogue() -> dict:
    """Fixed FO(SUM)/IFP(SUM) queries over :func:`graph` structures."""
    dist = _path_sum()
    return {
        "wsum": Sum(("x", "y"), _edge("x", "y"), WeightAtom("wt", ("x", "y"))),
        "triangles": Aggregate(
            "count", ("x", "y", "z"), And(And(_edge("x", "y"), _edge("y", "z")), _edge("z", "x")), None
        ),
        "alternation": Aggregate(
            "count",
            ("x",),
            Forall("y", Implies(_edge("x", "y"), Exists("z", And(_edge("y", "z"), _edge("z", "x"))))),
            None,
        ),
        "aggregates": Arith(
            "-",
            Arith(
                "+",
                Aggregate(
                    "avg",
                    ("x", "y"),
                    And(RelAtom("e", ("x", "y")), Compare("!=", WeightAtom("w", ("x", "y")), BotConst())),
                    WeightAtom("w", ("x", "y")),
                ),
                Aggregate("max", ("x",), Compare("!=", WeightAtom("f", ("x",)), BotConst()), WeightAtom("f", ("x",))),
            ),
            Aggregate("min", ("x", "y"), _edge("x", "y"), WeightAtom("wt", ("x", "y"))),
        ),
        "path_sum": Sum(("x",), Compare("!=", dist, BotConst()), dist),
    }


def _binder_weight(node, acc: int = 0) -> int:
    """Largest number of variables bound along one root-to-leaf path; a
    fixed point counts its variables twice (keys times rounds)."""
    if isinstance(node, (Sum, Aggregate)):
        acc += len(node.vars)
    elif isinstance(node, (Exists, Forall)):
        acc += 1
    elif isinstance(node, Ifp):
        acc += 2 * len(node.vars)
    return max([acc, *(_binder_weight(child, acc) for child in children(node))])


def random_query(rng, kind: str, max_binders: int = 2):
    """A ``randgen.random_expression`` in free variable ``x`` whose nesting of
    binders stays within ``max_binders``, so its cost is polynomial of
    bounded degree in the universe size."""
    while True:
        expr = randgen.random_expression(rng, rng.randint(2, 4), kind, ("x",))
        if _binder_weight(expr) <= max_binders:
            return expr
