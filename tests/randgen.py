"""Seeded random structures, expressions, and networks for the test suite."""

import random
from fractions import Fraction

from wsq.fnn import BIAS, LE_IN, LE_OUT, WT, FnnStructure
from wsq.structures import Vocabulary, WeightedStructure
from wsq.syntax.nodes import (
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
    Not,
    One,
    Or,
    RelAtom,
    Sum,
    WeightAtom,
    Zero,
    map_children,
)

ELEMENTS = ("a", "b", "c", "d")

# fixed pool shared by random structures and random expressions
REL_POOL = {"p": 1, "e": 2, "flag": 0}
WEIGHT_POOL = {"f": 1, "w": 2, "cst": 0}
IFP_SYMBOL = "F"


def rand_fraction(rng: random.Random, mag: int = 8) -> Fraction:
    return Fraction(rng.randint(-mag, mag), rng.randint(1, mag))


def random_structure(rng: random.Random, max_size: int = 4, drop_prob: float = 0.15, density: float = 0.7):
    """A structure over the shared pool; sometimes one symbol is dropped
    so the uninterpreted-vocabulary default gets exercised.  A weight is
    defined on each tuple with probability ``density``."""
    size = rng.randint(1, max_size)
    universe = ELEMENTS[:size]
    relations = {}
    for name, arity in REL_POOL.items():
        if rng.random() < drop_prob:
            continue
        tuples = [t for t in _tuples(universe, arity) if rng.random() < 0.4]
        relations[name] = (arity, tuples)
    weights = {}
    for name, arity in WEIGHT_POOL.items():
        if rng.random() < drop_prob:
            continue
        table = {t: rand_fraction(rng) for t in _tuples(universe, arity) if rng.random() < density}
        weights[name] = (arity, table)
    return WeightedStructure.build(universe, relations, weights)


def random_full_structure(rng: random.Random, min_size: int = 3, max_size: int = 8):
    """A structure of ``min_size`` to ``max_size`` elements interpreting
    every pool symbol, with every weight defined, so that a quantifier's
    answer can turn on any of its candidates."""
    universe = [f"e{i}" for i in range(rng.randint(min_size, max_size))]
    relations = {
        name: (arity, [t for t in _tuples(universe, arity) if rng.random() < 0.5]) for name, arity in REL_POOL.items()
    }
    weights = {
        name: (arity, {t: rand_fraction(rng) for t in _tuples(universe, arity)}) for name, arity in WEIGHT_POOL.items()
    }
    return WeightedStructure.build(universe, relations, weights)


def isomorphic_copy(rng: random.Random, s: WeightedStructure):
    """A copy of ``s`` under a random renaming of its elements, listing
    its universe in a random order, and the renaming as a dict."""
    names = [f"m{i}" for i in range(len(s.universe))]
    rng.shuffle(names)
    rename = dict(zip(s.universe, names))
    rng.shuffle(names)

    def move(t):
        return tuple(rename[elem] for elem in t)

    relations = {
        name: (s.vocabulary.relations[name], [move(t) for t in table]) for name, table in s.relations.items()
    }
    weights = {
        name: (s.vocabulary.weights[name], {move(t): v for t, v in table.items()}) for name, table in s.weights.items()
    }
    return WeightedStructure.build(names, relations, weights), rename


def with_weight_override(s: WeightedStructure, name: str, arity: int, table: dict) -> WeightedStructure:
    """``s`` with the weight symbol ``name`` shadowed or added, sharing ``table``.

    The table reference is stored as it is, so a test can re-run a fixed
    point round by round outside the evaluator.
    """
    relations = {k: v for k, v in s.relations.items() if k != name}
    rel_voc = {k: v for k, v in s.vocabulary.relations.items() if k != name}
    vocab = Vocabulary(relations=rel_voc, weights={**s.vocabulary.weights, name: arity})
    return WeightedStructure(s.universe, vocab, relations, {**s.weights, name: table})


def _tuples(universe, arity):
    if arity == 0:
        return [()]
    out = [()]
    for _ in range(arity):
        out = [t + (e,) for t in out for e in universe]
    return out


def random_expression(
    rng: random.Random, depth: int, kind: str, scope: tuple, ifp_depth: int = 0, generic: float = 0.0
):
    """A well-formed random formula or term of the given depth budget.

    ``scope`` lists variables that may occur free;
    binders extend it.  Fixed points nest at most twice and use the
    dedicated symbol so relation names never collide with it.  With
    ``generic`` above 0, each relation and weight atom (reads of the
    fixed-point symbol too) becomes a generic :class:`Atom` with that
    probability, so generic atoms stand at formula and term positions
    alike.  Those draws come after the expression's, so ``generic=0``
    leaves the draws as they were.
    """
    if kind == "formula":
        e = _random_formula(rng, depth, scope, ifp_depth)
    else:
        e = _random_term(rng, depth, scope, ifp_depth)
    return _generic_atoms(rng, e, generic) if generic else e


def _generic_atoms(rng, e, share):
    if type(e) in (RelAtom, WeightAtom):
        return Atom(e.name, e.args) if rng.random() < share else e
    return map_children(e, lambda child: _generic_atoms(rng, child, share))


def _var(rng, scope):
    return rng.choice(scope)


def _fresh(rng, scope):
    for name in ("x", "y", "z", "u", "v"):
        if name not in scope:
            return name
    return f"v{len(scope)}"


def _rel_atom(rng, scope):
    name = rng.choice(list(REL_POOL))
    arity = REL_POOL[name]
    return RelAtom(name, tuple(_var(rng, scope) for _ in range(arity)))


def _leaf_term(rng, scope, ifp_depth):
    roll = rng.random()
    if roll < 0.08:
        return Zero()
    if roll < 0.16:
        return One()
    if roll < 0.24:
        value = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        if value == 1:
            return One()
        return Literal(value)
    if roll < 0.30:
        return BotConst()
    if ifp_depth > 0 and roll < 0.55:
        return WeightAtom(IFP_SYMBOL, (_var(rng, scope),))
    name = rng.choice(list(WEIGHT_POOL))
    arity = WEIGHT_POOL[name]
    return WeightAtom(name, tuple(_var(rng, scope) for _ in range(arity)))


def _random_formula(rng, depth, scope, ifp_depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.3:
            return ElemEq(_var(rng, scope), _var(rng, scope))
        if roll < 0.6:
            return _rel_atom(rng, scope)
        return Leq(_leaf_term(rng, scope, ifp_depth), _leaf_term(rng, scope, ifp_depth))
    choice = rng.random()
    if choice < 0.15:
        return Not(_random_formula(rng, depth - 1, scope, ifp_depth))
    if choice < 0.45:
        cls = rng.choice((And, Or, Implies))
        return cls(
            _random_formula(rng, depth - 1, scope, ifp_depth),
            _random_formula(rng, depth - 1, scope, ifp_depth),
        )
    if choice < 0.6:
        var = _fresh(rng, scope)
        cls = rng.choice((Exists, Forall))
        return cls(var, _random_formula(rng, depth - 1, scope + (var,), ifp_depth))
    if choice < 0.8:
        return Leq(
            _random_term(rng, depth - 1, scope, ifp_depth),
            _random_term(rng, depth - 1, scope, ifp_depth),
        )
    op = rng.choice(("<", ">", ">=", "=", "!="))
    return Compare(
        op,
        _random_term(rng, depth - 1, scope, ifp_depth),
        _random_term(rng, depth - 1, scope, ifp_depth),
    )


def _binder_vars(rng, scope):
    count = 1 if rng.random() < 0.75 else 2
    added = []
    for _ in range(count):
        var = _fresh(rng, scope + tuple(added))
        added.append(var)
    return tuple(added)


def _random_term(rng, depth, scope, ifp_depth):
    if depth <= 0:
        return _leaf_term(rng, scope, ifp_depth)
    choice = rng.random()
    if choice < 0.3:
        op = rng.choice(("+", "-", "*", "/"))
        return Arith(
            op,
            _random_term(rng, depth - 1, scope, ifp_depth),
            _random_term(rng, depth - 1, scope, ifp_depth),
        )
    if choice < 0.45:
        return Cond(
            _random_formula(rng, depth - 1, scope, ifp_depth),
            _random_term(rng, depth - 1, scope, ifp_depth),
            _random_term(rng, depth - 1, scope, ifp_depth),
        )
    if choice < 0.7:
        bound = _binder_vars(rng, scope)
        inner = scope + bound
        return Sum(
            bound,
            _random_formula(rng, depth - 1, inner, ifp_depth),
            _random_term(rng, depth - 1, inner, ifp_depth),
        )
    if choice < 0.9:
        kind = rng.choice(("count", "avg", "min", "max"))
        bound = _binder_vars(rng, scope)
        inner = scope + bound
        body = None if kind == "count" else _random_term(rng, depth - 1, inner, ifp_depth)
        return Aggregate(kind, bound, _random_formula(rng, depth - 1, inner, ifp_depth), body)
    if ifp_depth >= 2:
        return _leaf_term(rng, scope, ifp_depth)
    var = _fresh(rng, scope)
    body = _random_term(rng, depth - 1, (var,) + scope, ifp_depth + 1)
    applied = _var(rng, scope)
    return Ifp(IFP_SYMBOL, (var,), body, (applied,))


def random_dag(rng: random.Random, scope: tuple):
    """A random term that reuses subterm objects, so it is a DAG.

    ``shared`` (over ``scope`` and a fresh ``y``) sits under sibling
    binders of ``y``, under binders of other variables (``{y, z}``, and
    ``{y}`` nested in ``{z}`` or in another ``{y}``) and in the bodies of
    sibling fixed points over ``y``, whose common ``step`` reads their
    symbol.  ``outer`` (over ``scope`` only) sits under most of them.  A
    random subset of these pieces, combined by arithmetic, is returned.
    It draws its pieces from ``random_expression`` and leaves that
    function's draws as they are: ``perfbench/corpora.py`` relies on them.
    """
    y = _fresh(rng, scope)
    z = _fresh(rng, scope + (y,))
    inner = scope + (y,)
    outer = random_expression(rng, 1, "term", scope)
    shared = random_expression(rng, 2, "term", inner)
    guard = random_expression(rng, 1, "formula", inner)
    step = random_expression(rng, 1, "term", inner, ifp_depth=1)
    under_z = Sum((z,), random_expression(rng, 1, "formula", scope + (z,)), Arith("*", outer, shared))
    pieces = [
        Sum((y,), guard, Arith("+", shared, outer)),
        Aggregate(rng.choice(("avg", "min", "max")), (y,), guard, shared),
        Cond(Exists(y, And(guard, Leq(shared, outer))), outer, Sum((y,), Not(guard), shared)),
        Sum((y, z), guard, Arith("-", shared, outer)),
        Sum((z,), RelAtom("p", (z,)), Arith("-", outer, Sum((y,), guard, shared))),
        Sum((y,), guard, Arith("*", shared, Sum((y,), guard, shared))),
        Ifp(IFP_SYMBOL, (y,), Cond(guard, step, shared), (rng.choice(scope),)),
        Ifp(IFP_SYMBOL, (y,), Arith("+", step, under_z), (rng.choice(scope),)),
    ]
    rng.shuffle(pieces)
    out = pieces[0]
    for piece in pieces[1 : rng.randint(2, len(pieces))]:
        out = Arith(rng.choice("+-*"), out, piece)
    return out


# ---------------------------------------------------------------------------
# Random networks
# ---------------------------------------------------------------------------


def build_fnn(nodes, edges, biases) -> FnnStructure:
    """Assemble a network structure, deriving the orders from the degrees."""
    in_deg = {v: 0 for v in nodes}
    out_deg = {v: 0 for v in nodes}
    for u, v in edges:
        in_deg[v] += 1
        out_deg[u] += 1
    inputs = [v for v in nodes if in_deg[v] == 0]
    outputs = [v for v in nodes if out_deg[v] == 0]
    order_in = [(a, b) for i, a in enumerate(inputs) for b in inputs[i:]]
    order_out = [(a, b) for i, a in enumerate(outputs) for b in outputs[i:]]
    structure = WeightedStructure.build(
        nodes,
        relations={LE_IN: (2, order_in), LE_OUT: (2, order_out)},
        weights={WT: (2, edges), BIAS: (1, {(v,): b for v, b in biases.items()})},
    )
    return FnnStructure(structure)


def random_fnn(rng: random.Random, max_depth: int = 4, max_width: int = 4, mag: int = 1000):
    """A layered network with random skip connections.

    Every non-input node draws at least one in-edge from an earlier
    layer, so layer index bounds node depth.  Weight and bias numerators
    and denominators go up to ``mag``.
    """
    depth = rng.randint(1, max_depth)
    layers = [[f"n{0}_{j}" for j in range(rng.randint(1, max_width))]]
    for i in range(1, depth + 1):
        layers.append([f"n{i}_{j}" for j in range(rng.randint(1, max_width))])
    nodes = [v for layer in layers for v in layer]
    earlier: list[str] = []
    edges = {}
    for i, layer in enumerate(layers):
        if i > 0:
            for v in layer:
                sources = [rng.choice(earlier)]
                for u in earlier:
                    if rng.random() < 0.3:
                        sources.append(u)
                for u in dict.fromkeys(sources):
                    edges[(u, v)] = rand_fraction(rng, mag)
        earlier.extend(layer)
    biases = {v: rand_fraction(rng, mag) for layer in layers[1:] for v in layer}
    return build_fnn(nodes, edges, biases)


def random_n11(rng: random.Random, max_depth: int = 6, max_width: int = 3, mag: int = 8):
    """A random 1-input 1-output network of depth at most ``max_depth``."""
    depth = rng.randint(1, max_depth)
    layers = [["n0"]]
    for i in range(1, depth):
        layers.append([f"n{i}_{j}" for j in range(rng.randint(1, max_width))])
    layers.append(["out"])
    nodes = [v for layer in layers for v in layer]
    edges = {}
    for i in range(1, len(layers)):
        pool = [v for layer in layers[:i] for v in layer]
        for v in layers[i]:
            sources = [rng.choice(pool)]
            for u in pool:
                if rng.random() < 0.3:
                    sources.append(u)
            for u in dict.fromkeys(sources):
                edges[(u, v)] = rand_fraction(rng, mag)
    # everything except the sink needs a way forward
    for i in range(len(layers) - 1):
        for u in layers[i]:
            if not any(key[0] == u for key in edges):
                target_layer = layers[rng.randint(i + 1, len(layers) - 1)]
                edges[(u, rng.choice(target_layer))] = rand_fraction(rng, mag)
    biases = {v: rand_fraction(rng, mag) for layer in layers[1:] for v in layer}
    return build_fnn(nodes, edges, biases)


def random_n211(rng: random.Random, mag: int = 10):
    """A random one-hidden-layer network with one input and one output."""
    hidden = [f"h{i}" for i in range(rng.randint(0, 4))]
    nodes = ["u"] + hidden + ["o"]
    edges = {}
    for h in hidden:
        edges[("u", h)] = rand_fraction(rng, mag)
        edges[(h, "o")] = rand_fraction(rng, mag)
    if not hidden or rng.random() < 0.3:
        edges[("u", "o")] = rand_fraction(rng, mag)
    biases = {v: rand_fraction(rng, mag) for v in hidden + ["o"]}
    return build_fnn(nodes, edges, biases)


def path_net(d: int) -> FnnStructure:
    """A bias-0, weight-1 path with ``d`` edges from source to sink."""
    nodes = [f"n{i}" for i in range(d + 1)]
    edges = {(f"n{i}", f"n{i+1}"): Fraction(1) for i in range(d)}
    biases = {f"n{i}": Fraction(0) for i in range(1, d + 1)}
    return build_fnn(nodes, edges, biases)


def random_input(rng: random.Random, mag: int = 1000) -> Fraction:
    return Fraction(rng.randint(-mag, mag), rng.randint(1, mag))
