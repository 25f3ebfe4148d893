"""The four benchmark workloads.

Each workload's ``setup(seed, tracer, scratch, root)`` generates its corpus,
loads what the operations reuse, computes every expected answer with an
oracle that does not go through the code being timed, and returns a
:class:`Workload`.  The measuring loop runs ``workload.round(r)`` over and
over: a round holds every shape of the workload in fixed proportions, and
round ``r`` uses input variant ``r % variants``, so every run sees the same
mix of shapes whatever its seed and length.

The multiplicities in the schedules put the median and the 90th
percentile of operation latency in the middle of a block of
equal-shaped operations, and the shapes next to each block in cost order
cost about half or twice as much.  So the percentiles stay on
one shape when the machine's speed or the drawn inputs vary, and each
reads the median latency of its shape over the run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import corpora
import randgen
import ref_eval
from wsq.evaluator import evaluate, ifp_iterate
from wsq.fnn import (
    BIAS,
    INP,
    WT,
    fnn_from_json,
    fnn_to_json,
    forward,
    node_values,
    pad,
    pwl_integral,
    to_pwl,
    with_input,
    without_edge,
)
from wsq.numerics import ExtRational, rational
from wsq.queries import (
    builtin_query,
    make_eval,
    make_eval_node,
    make_integrate_2_1,
    make_squaring,
    make_useless,
)
from wsq.structures import WeightedStructure, structure_from_json, structure_to_json
from wsq.syntax import check_scalar_fragment, free_vars, parse, to_text, tokenize, vocabulary_of, walk

VARIANTS = 8  # input variants of the in-process workloads


def render(value) -> str:
    """The CLI's plain rendering of a formula or term value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, Fraction):
        return "bot" if value is None else str(rational(value))
    return str(value)


@dataclass
class Op:
    """One operation: ``run(tracer)`` returns the answer as text, which must
    equal ``expected``.  ``replay`` is the in-process form a traced run uses
    when ``run`` starts a process.  ``census`` returns exact counts for the
    per-layer metrics."""

    kind: str
    bucket: str
    run: Callable
    expected: str
    replay: Optional[Callable] = None
    census: Optional[Callable[[], dict]] = None


@dataclass
class Workload:
    variants: list  # lists of Op, one per input variant
    notes: dict = field(default_factory=dict)
    cleanup: Optional[Callable[[], None]] = None
    warm_each_kind: bool = True
    speed_probe: str = "kernel"  # which run.SPEED_PROBES entry follows the machine's speed

    def warmup(self) -> list:
        """The first operation of each kind, run once during set-up."""
        if not self.warm_each_kind:
            return []
        return list({op.kind: op for op in reversed(self.variants[0])}.values())

    def round(self, r: int) -> list:
        return self.variants[r % len(self.variants)]

    def close(self) -> None:
        if self.cleanup is not None:
            self.cleanup()


def _load_net(tr, net):
    """Serialise a generated network and load it through the public loader."""
    doc = fnn_to_json(net)
    return tr.call("fnn", "fnn_from_json", fnn_from_json, doc, attrs={"inputs": net.input_dim})


def _ifp_counts(body, structure) -> dict:
    table = ifp_iterate("F", ("x",), body, structure)
    return {"evaluator.ifp_rounds": table.rounds, "evaluator.ifp_cells": len(table.entries)}


def _build(schedule, make_op, variants: int = VARIANTS) -> list:
    """Expand ``[(kind, params, copies), ...]`` into ``variants`` rounds;
    copy ``c`` of a shape in variant ``v`` gets its own seeded inputs."""
    rounds = []
    for v in range(variants):
        ops = []
        for kind, params, copies in schedule:
            ops.extend(make_op(kind, params, v, c) for c in range(copies))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# net_bounded: bounded-depth templates, no fixed point
# ---------------------------------------------------------------------------

NET_BOUNDED = [
    # (template, (depth or hidden width, width), copies per round), in
    # order of cost; 22 operations a round
    ("eval", (2, 3), 1),
    ("eval", (2, 6), 1),
    ("useless", (2, 4), 1),
    ("eval", (3, 3), 1),
    ("eval", (3, 4), 1),
    ("useless", (3, 3), 1),
    ("eval", (3, 6), 1),
    ("useless", (3, 4), 1),
    ("eval", (4, 4), 5),  # the median: 8 cheaper, 9 dearer
    ("useless", (4, 4), 1),
    ("integrate", (2, 0), 1),
    ("eval", (5, 4), 1),
    ("integrate", (4, 0), 1),
    ("eval", (5, 6), 1),
    ("integrate", (8, 0), 3),  # the 90th percentile: 18 cheaper, 1 dearer
    ("integrate", (12, 0), 1),
]


def setup_net_bounded(seed: int, tr, scratch: Path, root: Path) -> Workload:
    nets = {}

    def network(kind, params, v):
        key = (kind, params, v)
        if key not in nets:
            rng = corpora.rng_for(seed, "net", *key)
            if kind == "integrate":
                built = corpora.one_hidden_net(rng, params[0])
            else:
                built = corpora.layered_net(rng, params[0], params[1])
            nets[key] = (built, _load_net(tr, built))
        return nets[key]

    def make_op(kind, params, v, c):
        built, net = network(kind, params, v)
        rng = corpora.rng_for(seed, "input", kind, params, v, c)
        if kind == "integrate":
            # the interval covers every kink of the network
            lo, hi = -5 - abs(corpora.value(rng)), 5 + abs(corpora.value(rng))
            p = to_pwl(built)
            expected = render(pwl_integral(p, rational(lo), rational(hi)))
            consts = {"lo": (0, {(): lo}), "hi": (0, {(): hi})}

            def run(tr):
                q = tr.call("queries", "make_integrate_2_1", make_integrate_2_1)
                s = tr.call("structures", "expand", net.structure.expand, weights=consts)
                return render(tr.call("evaluator", "evaluate", evaluate, q, s))

            census = lambda: {"fnn.pwl_pieces": len(p.pieces)}
            return Op(kind, f"h{params[0]}", run, expected, census=census)

        d = params[0]
        x = corpora.input_vector(rng, built.input_dim)
        if kind == "eval":
            expected = render(forward(built, x)[0])

            def run(tr):
                q = tr.call("queries", "make_eval", make_eval, d, 1)
                s = tr.call("structures", "with_input", with_input, net, x)
                return render(tr.call("evaluator", "evaluate", evaluate, q, s))

            return Op(kind, f"d{d}", run, expected)

        edge = rng.choice(sorted(built.edges))
        plain = with_input(built, x)
        before = node_values(plain)
        after = node_values(without_edge(plain, edge))
        expected = render(all(before[o] == after[o] for o in built.output_nodes))
        env = {"x0": edge[0], "y0": edge[1]}

        def run(tr):
            q = tr.call("queries", "make_useless", make_useless, d)
            s = tr.call("structures", "with_input", with_input, net, x)
            return render(tr.call("evaluator", "evaluate", evaluate, q, s, env))

        return Op(kind, f"d{d}", run, expected)

    return Workload(_build(NET_BOUNDED, make_op))


# ---------------------------------------------------------------------------
# net_fixpoint: the fixed-point templates
# ---------------------------------------------------------------------------

NET_FIXPOINT = [
    # eval_node: (depth, width, outputs); eval_node_pad: (relays, outputs);
    # squaring: (path length,).  In order of cost; 25 operations a round
    ("squaring", (4,), 1),
    ("squaring", (6,), 1),
    ("squaring", (8,), 1),
    ("squaring", (10,), 1),
    ("eval_node", (4, 4, 1), 2),
    ("eval_node", (6, 6, 1), 2),
    ("eval_node", (4, 16, 1), 1),
    ("eval_node", (8, 8, 1), 6),  # the median: 9 cheaper, 10 dearer
    ("eval_node_pad", (20, 2), 1),
    ("eval_node", (8, 12, 1), 1),
    ("eval_node", (12, 8, 1), 1),
    ("eval_node", (10, 12, 1), 1),
    ("eval_node", (6, 16, 2), 1),
    ("eval_node_pad", (40, 2), 4),  # the 90th percentile: 20 cheaper, 1 dearer
    ("eval_node_pad", (60, 3), 1),
]


def _a_bucket(n: int) -> str:
    for limit in (24, 48, 96, 128):
        if n <= limit:
            return f"A{limit}"
    return "A256"


def setup_net_fixpoint(seed: int, tr, scratch: Path, root: Path) -> Workload:
    nets = {}
    node_body = make_eval_node(closed=False).body
    square_body = make_squaring().body

    def network(kind, params, v, c):
        """One network per copy: a fixed point's cost varies by up to half
        from network to network, so each percentile block spans many."""
        key = (kind, params, v, c)
        if key in nets:
            return nets[key]
        rng = corpora.rng_for(seed, "net", *key)
        if kind == "squaring":
            built = randgen.path_net(params[0])
            nets[key] = (built, _load_net(tr, built))
        elif kind == "eval_node":
            built = corpora.layered_net(rng, *params[:2], n_out=params[2])
            nets[key] = (built, _load_net(tr, built))
        else:
            relays, outs = params
            built = corpora.layered_net(rng, 4, 4, n_out=outs)
            # relaying an edge into an output delays only that output, so
            # the fixed point's cost does not depend on which edge is drawn
            edge = rng.choice(sorted(e for e in built.edges if e[1] in built.output_nodes))
            net = _load_net(tr, built)
            padded = tr.call("fnn", "pad", pad, net, edge, relays)
            nets[key] = (built, padded)
        return nets[key]

    def make_op(kind, params, v, c):
        built, net = network(kind, params, v, c)
        if kind == "squaring":
            d = params[0]
            env = {"x": f"n{d}"}

            def run(tr):
                q = tr.call("queries", "make_squaring", make_squaring)
                return render(tr.call("evaluator", "evaluate", evaluate, q, net.structure, env))

            census = lambda: _ifp_counts(square_body, net.structure)
            return Op(kind, f"d{d}", run, str(2 ** (2**d)), census=census)

        rng = corpora.rng_for(seed, "input", kind, params, v, c)
        x = corpora.input_vector(rng, built.input_dim)
        # the unpadded network is the oracle for the padded one
        outputs = forward(built, x)
        expected = render(sum(o.frac for o in outputs) / len(outputs))

        def run(tr):
            q = tr.call("queries", "make_eval_node", make_eval_node)
            s = tr.call("structures", "with_input", with_input, net, x)
            return render(tr.call("evaluator", "evaluate", evaluate, q, s))

        census = lambda: _ifp_counts(node_body, with_input(net, x))
        return Op(kind, _a_bucket(len(net.structure.universe)), run, expected, census=census)

    return Workload(_build(NET_FIXPOINT, make_op))


# ---------------------------------------------------------------------------
# graph_fo: structure JSON and query text in, answer out
# ---------------------------------------------------------------------------

GRAPH_FO = [
    # catalogue query: (size, density); random: (size, formula or term);
    # builtin: (builtin reference,).  Random queries stay cheap (size 8,
    # at most two nested binders) so that, whatever the seed draws, they
    # sit below the median.  29 operations a round
    ("random", (8, "term"), 1),
    ("random", (8, "formula"), 1),
    ("wsum", (8, 0.3), 1),
    ("builtin", ("eval_node",), 1),
    ("builtin", ("squaring",), 1),
    ("triangles", (8, 0.3), 1),
    ("builtin", ("triangles_count",), 1),
    ("alternation", (12, 0.5), 1),
    ("aggregates", (16, 0.5), 1),
    ("builtin", ("useless d=2",), 1),
    ("builtin", ("eval d=3 i=1",), 1),
    ("path_sum", (8, 0.3), 1),
    ("triangles", (16, 0.5), 12),  # the median: 12 cheaper, 5 dearer
    ("path_sum", (16, 0.5), 4),  # the 90th percentile: 24 cheaper, 1 dearer
    # parsing the 46k-character integration template is dearest of all
    ("builtin", ("integrate_2_1",), 1),
]
# the reference evaluator takes 0.05-0.1 s on a 16-element graph, so the
# copies of these shapes in one variant share a few graphs
GRAPH_FO_SHARED = {("triangles", (16, 0.5)): 3, ("path_sum", (16, 0.5)): 2}
GRAPH_FO_VARIANTS = 4


def _text_census(text: str, expr) -> dict:
    return {"syntax.tokens": len(tokenize(text)), "syntax.ast_nodes": sum(1 for _ in walk(expr))}


def setup_graph_fo(seed: int, tr, scratch: Path, root: Path) -> Workload:
    catalogue = corpora.catalogue()
    path_body = catalogue["path_sum"].body.body

    ops = {}

    def make_op(kind, params, v, c):
        shared = GRAPH_FO_SHARED.get((kind, params))
        key = (kind, params, v, c if shared is None else c % shared)
        if key not in ops:
            ops[key] = graph_op(*key)
        return ops[key]

    def graph_op(kind, params, v, c):
        rng = corpora.rng_for(seed, "graph", kind, params, v, c)
        if kind == "builtin":
            size, density = 8, 0.3
        else:
            size = params[0]
            density = params[1] if kind != "random" else 0.4
        graph = corpora.graph(rng, size, density)
        doc = structure_to_json(graph)
        if kind == "builtin":
            expr = builtin_query(params[0])
            bucket = params[0].split()[0]
        elif kind == "random":
            expr = corpora.random_query(rng, params[1])
            bucket = f"A{size}"
        else:
            expr = catalogue[kind]
            bucket = f"A{size}"
        text = to_text(expr)
        env = {var: rng.choice(graph.universe) for var in ("x", "x0", "y0")}
        expected = render(ref_eval.ref_evaluate(expr, graph, env))

        def run(tr):
            s = tr.call("structures", "structure_from_json", structure_from_json, doc, attrs={"A": size})
            e = tr.call("syntax", "parse", parse, text, attrs={"chars": len(text)})
            tr.call("syntax", "free_vars", free_vars, e)
            tr.call("syntax", "vocabulary_of", vocabulary_of, e)
            tr.call("syntax", "check_scalar_fragment", check_scalar_fragment, e)
            return render(tr.call("evaluator", "evaluate", evaluate, e, s, env))

        def census():
            counts = _text_census(text, expr)
            if kind == "path_sum":
                counts.update(_ifp_counts(path_body, graph))
            return counts

        # catalogue and random queries are bucketed by graph size, printed
        # templates by name
        op_kind = "graph" if kind != "builtin" else "text"
        return Op(op_kind, bucket, run, expected, census=census)

    return Workload(_build(GRAPH_FO, make_op, GRAPH_FO_VARIANTS))


# ---------------------------------------------------------------------------
# cli: whole wsq processes on generated files
# ---------------------------------------------------------------------------

CLI = [
    # validate/forward: (inputs,); integrate/zero: (depth, width);
    # eval_net: (builtin reference,); eval_graph: (catalogue query,).  21
    # operations a round.  The first 17 cost at most twice the start-up and
    # import of wsq, and the median falls among them
    ("eval_graph", ("wsum",), 2),
    ("eval_graph", ("aggregates",), 2),
    ("eval_graph", ("alternation",), 1),
    ("eval_net", ("eval_node",), 2),
    ("eval_net", ("eval d=3 i=1",), 1),
    ("validate", (32,), 1),
    ("forward", (32,), 1),
    ("integrate", (4, 8), 1),
    ("zero", (4, 8), 1),
    ("validate", (64,), 1),
    ("forward", (64,), 1),
    ("integrate", (8, 12), 1),
    ("zero", (8, 12), 1),
    ("validate", (96,), 1),
    # loading, validating and evaluating a 128-input network: the 90th
    # percentile falls in the middle of these four
    ("forward", (128,), 4),
]


# fewer than VARIANTS: set-up builds the PWL and forward oracles of every
# variant's networks
CLI_VARIANTS = 4


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # the workload measures runs with a warm bytecode cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _process(argv, env, cwd):
    def run(tr):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=60)
        return f"{proc.returncode}:{proc.stdout.strip()}"

    return run


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup_cli(seed: int, tr, scratch: Path, root: Path) -> Workload:
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    env = child_env(root)
    python = sys.executable
    catalogue = corpora.catalogue()

    def write(path, doc) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    networks = {}

    def network(group, params, v):
        """One network file per shape and variant, shared by the commands
        that read it, with what its oracles need."""
        key = (group, params, v)
        if key not in networks:
            rng = corpora.rng_for(seed, "cli", *key)
            path = str(tmp / f"{group}-{'-'.join(map(str, params))}-{v}.fnn.json")
            if group == "wide":
                parts = corpora.layered_parts(rng, 2, 8, fan_in=8, n_in=params[0], n_out=2)
                write(path, corpora.network_doc(*parts))
                networks[key] = (path, parts)
            elif group == "deep":
                built = corpora.layered_net(rng, *params, fan_in=4, n_in=1)
                write(path, fnn_to_json(built))
                networks[key] = (path, to_pwl(built))
            else:
                built = corpora.layered_net(rng, 3, 4, n_in=2)
                write(path, fnn_to_json(built))
                networks[key] = (path, built)
        return networks[key]

    def command(argv):
        return _process([python, "-m", "wsq", *argv], env, root)

    def make_op(kind, params, v, c):
        rng = corpora.rng_for(seed, "cli", kind, params, v, c)
        if kind in ("validate", "forward"):
            n_in = params[0]
            path, (nodes, edges, biases) = network("wide", params, v)
            if kind == "validate":
                argv, expected = ["fnn", "validate", path], "ok"
            else:
                x = corpora.input_vector(rng, n_in)
                text = ",".join(str(xi) for xi in x)
                argv = ["fnn", "forward", path, f"--input={text}"]
                inputs = dict(zip(nodes[:n_in], x))
                plain = WeightedStructure.build(
                    nodes, weights={WT: (2, edges), BIAS: (1, {(u,): b for u, b in biases.items()}), INP: (1, {(u,): xi for u, xi in inputs.items()})}
                )
                values = node_values(plain)
                expected = " ".join(str(values[o]) for o in nodes if not any(e[0] == o for e in edges))

            def replay(tr):
                net = tr.call("fnn", "fnn_from_json", fnn_from_json, _read_json(path), attrs={"inputs": n_in})
                if kind == "validate":
                    return "0:ok"
                inputs = [ExtRational.parse(chunk) for chunk in text.split(",")]
                return "0:" + " ".join(str(o) for o in tr.call("fnn", "forward", forward, net, inputs))

            return Op(kind, f"in{n_in}", command(argv), "0:" + expected, replay)

        if kind in ("integrate", "zero"):
            path, p = network("deep", params, v)
            lo, hi = -1 - abs(corpora.value(rng, 8)), 1 + abs(corpora.value(rng, 8))
            if kind == "integrate":
                argv = ["fnn", "integrate", path, f"--lo={lo}", f"--hi={hi}"]
                expected = render(pwl_integral(p, rational(lo), rational(hi)))
            else:
                argv = ["fnn", "zero", path]
                expected = render(p.is_zero)

            def replay(tr):
                net = tr.call("fnn", "fnn_from_json", fnn_from_json, _read_json(path), attrs={"inputs": 1})
                pwl = tr.call("fnn", "to_pwl", to_pwl, net)
                if kind == "zero":
                    return "0:" + render(pwl.is_zero)
                bounds = ExtRational.parse(str(lo)), ExtRational.parse(str(hi))
                return "0:" + str(tr.call("fnn", "pwl_integral", pwl_integral, pwl, *bounds))

            census = lambda: {"fnn.pwl_pieces": len(p.pieces)}
            return Op(kind, f"d{params[0]}", command(argv), "0:" + expected, replay, census)

        if kind == "eval_net":
            reference = params[0]
            path, built = network("small", (), v)
            x = corpora.input_vector(rng, 2)
            text = ",".join(str(xi) for xi in x)
            argv = ["eval", path, "builtin:" + reference, f"--input={text}"]
            expected = render(forward(built, x)[0])

            def replay(tr):
                net = tr.call("fnn", "fnn_from_json", fnn_from_json, _read_json(path), attrs={"inputs": 2})
                q = tr.call("queries", "builtin_query", builtin_query, reference)
                inputs = [ExtRational.parse(chunk) for chunk in text.split(",")]
                s = tr.call("structures", "with_input", with_input, net, inputs)
                tr.call("syntax", "free_vars", free_vars, q)
                return "0:" + render(tr.call("evaluator", "evaluate", evaluate, q, s))

            census = None
            if reference == "eval_node":
                census = lambda: _ifp_counts(make_eval_node(closed=False).body, with_input(built, x))
            return Op(kind, reference.split()[0], command(argv), "0:" + expected, replay, census)

        graph = corpora.graph(rng, 8, 0.4)
        expr = catalogue[params[0]]
        text = to_text(expr)
        path = str(tmp / f"graph-{params[0]}-{v}-{c}.json")
        write(path, structure_to_json(graph))
        expected = render(ref_eval.ref_evaluate(expr, graph))

        def replay(tr):
            s = tr.call("structures", "structure_from_json", structure_from_json, _read_json(path), attrs={"A": 8})
            e = tr.call("syntax", "parse", parse, text, attrs={"chars": len(text)})
            tr.call("syntax", "free_vars", free_vars, e)
            return "0:" + render(tr.call("evaluator", "evaluate", evaluate, e, s))

        census = lambda: _text_census(text, expr)
        return Op(kind, "A8", command(["eval", path, text]), "0:" + expected, replay, census)

    try:
        rounds = _build(CLI, make_op, CLI_VARIANTS)
        # warm the bytecode cache of the package so every measured process
        # finds it, as an installed package would
        cache = Path(root / "src" / "wsq" / "__pycache__")
        had_cache = cache.is_dir() and any(cache.iterdir())
        subprocess.run([python, "-c", "import wsq.cli"], env=env, cwd=root, check=True, timeout=60)
        notes = {"bytecode_cache_warmed": True, "bytecode_cache_existed": had_cache}
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    # the import above is the warm-up: one more process per kind would
    # only repeat it
    return Workload(rounds, notes, lambda: shutil.rmtree(tmp, ignore_errors=True), warm_each_kind=False, speed_probe="process")


WORKLOADS = {
    "net_bounded": setup_net_bounded,
    "net_fixpoint": setup_net_fixpoint,
    "graph_fo": setup_graph_fo,
    "cli": setup_cli,
}
