"""Built-in query templates against their independent oracles."""

import hashlib
import random
from fractions import Fraction

import pytest

from randgen import (
    build_fnn,
    path_net,
    random_fnn,
    random_input,
    random_n211,
)
from wsq.errors import UsageError
from wsq.evaluator import _Compiler, evaluate
from wsq.fnn import forward, node_values, pwl_integral, to_pwl, with_input, without_edge
from wsq.numerics import BOT, rational
from wsq.queries import (
    BUILTINS,
    builtin_query,
    make_basic,
    make_eval,
    make_eval_node,
    make_integrate_2_1,
    make_squaring,
    make_useless,
)
from wsq.structures import WeightedStructure
from wsq.syntax import check_scalar_fragment, free_vars, parse, to_text
from wsq.syntax.nodes import children, walk


def k3():
    """Complete directed graph on three vertices, all weights 1, no loops."""
    table = {(a, b): 1 for a in "abc" for b in "abc" if a != b}
    return WeightedStructure.build(["a", "b", "c"], weights={"wt": (2, table)})


class TestBasics:
    def test_edges_count_on_edgeless_graph(self):
        s = WeightedStructure.build(["a", "b"], weights={"wt": (2, {})})
        assert evaluate(make_basic("edges_count"), s) == rational(0)

    def test_triangles_count_ordered_triples(self):
        assert evaluate(make_basic("triangles_count"), k3()) == rational(6)

    def test_weights_count_by_hand(self):
        net = build_fnn(
            ["u", "h", "o"],
            {("u", "h"): Fraction(1), ("h", "o"): Fraction(1)},
            {"h": Fraction(0), "o": Fraction(0)},
        )
        assert evaluate(make_basic("weights_count"), net.structure) == rational(4)

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            make_basic("nope")


class TestEvalAgainstForward:
    def test_random_nets_random_inputs(self):
        rng = random.Random(31)
        for _ in range(25):
            net = random_fnn(rng, max_depth=3, max_width=3, mag=30)
            closed = make_eval(net.depth, 1)
            for _ in range(3):
                r = [random_input(rng, 30) for _ in range(net.input_dim)]
                expanded = with_input(net, r)
                assert evaluate(closed, expanded) == forward(net, r)[0]

    def test_open_term_bot_above_depth(self):
        rng = random.Random(32)
        for _ in range(10):
            net = random_fnn(rng, max_depth=3, max_width=3, mag=10)
            if net.depth < 1:
                continue
            deepest = max(net.depths, key=net.depths.get)
            r = [random_input(rng, 10) for _ in range(net.input_dim)]
            expanded = with_input(net, r)
            shallow = make_eval(net.depths[deepest] - 1)
            assert evaluate(shallow, expanded, {"x": deepest}) is BOT


class TestEvalNode:
    def test_matches_forward_on_padded_clamp(self):
        from wsq.fnn import pad

        net = build_fnn(
            ["u", "h1", "h2", "o"],
            {
                ("u", "h1"): Fraction(1),
                ("u", "h2"): Fraction(1),
                ("h1", "o"): Fraction(1),
                ("h2", "o"): Fraction(-1),
            },
            {"h1": Fraction(0), "h2": Fraction(-1), "o": Fraction(0)},
        )
        deep = pad(net, ("u", "h1"), 4)
        assert deep.depth == 6
        assert evaluate(make_eval_node(), with_input(deep, [5])) == rational(1)

    def test_two_node_demo(self):
        net = build_fnn(["u", "v"], {("u", "v"): Fraction(3)}, {"v": Fraction(1)})
        assert evaluate(make_eval_node(), with_input(net, [2])) == rational(7)

    def test_in_scalar_fragment(self):
        assert check_scalar_fragment(make_eval_node()) == []


class TestUseless:
    def _check_net(self, net, r):
        """Query verdict must equal the delete-edge forward comparison."""
        expanded = with_input(net, r)
        baseline = [node_values(expanded)[o] for o in net.output_nodes]
        query = make_useless(net.depth)
        for edge in net.edges:
            got = evaluate(query, expanded, {"x0": edge[0], "y0": edge[1]})
            pruned = node_values(without_edge(expanded, edge))
            want = [pruned[o] for o in net.output_nodes] == baseline
            assert got is want, (edge, got, want)

    def test_dead_relu_edge_is_useless(self):
        # h2 sees bias -10 and input 1: its rectified value is 0
        net = build_fnn(
            ["u", "h1", "h2", "o"],
            {
                ("u", "h1"): Fraction(1),
                ("u", "h2"): Fraction(1),
                ("h1", "o"): Fraction(2),
                ("h2", "o"): Fraction(5),
            },
            {"h1": Fraction(0), "h2": Fraction(-10), "o": Fraction(0)},
        )
        expanded = with_input(net, [1])
        assert evaluate(make_useless(2), expanded, {"x0": "h2", "y0": "o"}) is True
        assert evaluate(make_useless(2), expanded, {"x0": "h1", "y0": "o"}) is False
        self._check_net(net, [1])

    def test_non_edge_is_not_useless(self):
        net = build_fnn(["u", "v"], {("u", "v"): Fraction(1)}, {"v": Fraction(0)})
        expanded = with_input(net, [1])
        assert evaluate(make_useless(1), expanded, {"x0": "v", "y0": "u"}) is False

    def test_random_nets_match_oracle(self):
        rng = random.Random(33)
        for _ in range(6):
            net = random_fnn(rng, max_depth=3, max_width=3, mag=5)
            r = [random_input(rng, 5) for _ in range(net.input_dim)]
            self._check_net(net, r)


INTEGRATE_TEXT_SHA256 = "32686165d86fdfac53b9937b33ed2cc82d18b988e9c63589e62c4f82f59751fb"


class TestIntegrate:
    def attach(self, net, lo, hi):
        return net.structure.expand(weights={"lo": (0, {(): lo}), "hi": (0, {(): hi})})

    def test_clamp_unit_area(self):
        net = build_fnn(
            ["u", "h1", "h2", "o"],
            {
                ("u", "h1"): Fraction(1),
                ("u", "h2"): Fraction(1),
                ("h1", "o"): Fraction(1),
                ("h2", "o"): Fraction(-1),
            },
            {"h1": Fraction(0), "h2": Fraction(-1), "o": Fraction(0)},
        )
        s = self.attach(net, 0, 2)
        assert evaluate(make_integrate_2_1(), s) == rational(3, 2)

    def test_degenerate_interval(self):
        rng = random.Random(34)
        net = random_n211(rng)
        s = self.attach(net, Fraction(7, 3), Fraction(7, 3))
        assert evaluate(make_integrate_2_1(), s) == rational(0)

    def test_relu_triangle(self):
        net = build_fnn(["u", "o"], {("u", "o"): Fraction(1)}, {"o": Fraction(0)})
        s = self.attach(net, -1, 1)
        assert evaluate(make_integrate_2_1(), s) == rational(1, 2)

    def test_random_nets_match_pwl(self):
        rng = random.Random(35)
        term = make_integrate_2_1()
        for _ in range(15):
            net = random_n211(rng)
            lo, hi = sorted(random_input(rng, 10) for _ in range(2))
            got = evaluate(term, self.attach(net, lo, hi))
            want = pwl_integral(to_pwl(net), rational(lo), rational(hi))
            assert got == want

    def test_closed_term(self):
        assert free_vars(make_integrate_2_1()) == set()

    def test_wide_nets_with_coinciding_kinks_match_pwl(self):
        # hidden layers up to width 7, and hidden nodes that share a kink,
        # each evaluated on a freshly built template
        rng = random.Random(47)
        for _ in range(8):
            hidden = [f"h{i}" for i in range(rng.randint(3, 7))]
            kinks = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(3)]
            edges, biases = {}, {"o": random_input(rng, 10)}
            for h in hidden:
                weight = random_input(rng, 10) or Fraction(1)
                edges[("u", h)] = weight
                edges[(h, "o")] = random_input(rng, 10)
                biases[h] = -rng.choice(kinks) * weight
            net = build_fnn(["u", *hidden, "o"], edges, biases)
            lo, hi = sorted(random_input(rng, 10) for _ in range(2))
            got = evaluate(make_integrate_2_1(), self.attach(net, lo, hi))
            assert got == pwl_integral(to_pwl(net), rational(lo), rational(hi))

    def test_dag_prints_as_the_tree(self):
        # the SHA-256 of the text the template printed when it was built as a tree
        text = to_text(make_integrate_2_1())
        assert hashlib.sha256(text.encode()).hexdigest() == INTEGRATE_TEXT_SHA256

    def test_template_is_a_dag(self):
        term = make_integrate_2_1()
        objects, stack = {}, [term]
        while stack:
            n = stack.pop()
            if id(n) not in objects:
                objects[id(n)] = n
                stack.extend(children(n))
        assert len(objects) <= 900
        # walk still visits a shared subtree once per position
        assert sum(1 for _ in walk(term)) == 8319

    def test_round_trips_through_text(self):
        term = make_integrate_2_1()
        assert parse(to_text(term)) == term

    def test_parsed_text_compiles_like_the_template(self, monkeypatch):
        # the parse shares equal subterms, so its 8 319 positions compile
        # like the built DAG: about 1 200 calls, not one per position
        calls = [0]
        compile_ = _Compiler.compile

        def counting_compile(self, *args, **kwargs):
            calls[0] += 1
            return compile_(self, *args, **kwargs)

        hidden = [f"h{i}" for i in range(8)]
        edges = {("u", h): Fraction(i + 1, 2) for i, h in enumerate(hidden)}
        edges.update({(h, "o"): Fraction((-1) ** i * (i + 2), 3) for i, h in enumerate(hidden)})
        biases = {h: Fraction(3 - i, 2) * edges[("u", h)] for i, h in enumerate(hidden)}
        net = build_fnn(["u", *hidden, "o"], edges, {**biases, "o": Fraction(1, 3)})
        query = parse(to_text(make_integrate_2_1()))
        monkeypatch.setattr(_Compiler, "compile", counting_compile)
        got = evaluate(query, self.attach(net, -5, 5))
        assert got == pwl_integral(to_pwl(net), rational(-5), rational(5))
        assert calls[0] <= 1500


class TestSquaring:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    def test_tower_growth(self, d):
        net = path_net(d)
        sink = f"n{d}"
        value = evaluate(make_squaring(), net.structure, {"x": sink})
        assert value == rational(2 ** (2**d))

    def test_weights_do_not_matter(self):
        nodes = ["n0", "n1", "n2"]
        net = build_fnn(
            nodes,
            {("n0", "n1"): Fraction(17, 3), ("n1", "n2"): Fraction(-4)},
            {"n1": Fraction(9), "n2": Fraction(-2, 7)},
        )
        assert evaluate(make_squaring(), net.structure, {"x": "n2"}) == rational(16)

    def test_not_in_scalar_fragment(self):
        assert len(check_scalar_fragment(make_squaring())) == 1


class TestTemplateDesugaring:
    def test_templates_survive_desugaring(self):
        from wsq.syntax import desugar

        clamp = build_fnn(
            ["u", "h1", "h2", "o"],
            {
                ("u", "h1"): Fraction(1),
                ("u", "h2"): Fraction(1),
                ("h1", "o"): Fraction(1),
                ("h2", "o"): Fraction(-1),
            },
            {"h1": Fraction(0), "h2": Fraction(-1), "o": Fraction(0)},
        )
        expanded = with_input(clamp, [Fraction(1, 2)])
        for template in (
            make_eval(2, 1),
            make_eval_node(),
            make_basic("weights_count"),
        ):
            assert evaluate(desugar(template), expanded) == evaluate(template, expanded)
        with_bounds = clamp.structure.expand(
            weights={"lo": (0, {(): 0}), "hi": (0, {(): 2})}
        )
        term = make_integrate_2_1()
        assert evaluate(desugar(term), with_bounds) == evaluate(term, with_bounds)


# the first 16 hex digits of the SHA-256 of each template's repr, as the
# templates were built before they shared one node-value construction
TEMPLATE_REPR_SHA256 = {
    "edges_count": "fe4f62bc79e8c10f",
    "triangles_count": "05c168b576e2fef0",
    "min_wt_triangle": "2eb221204a420873",
    "weights_count": "7b296868ec083e01",
    "eval d=0": "aec5b22d3209d554",
    "eval d=0 i=1": "e4b15188007d2aa4",
    "eval d=0 i=2": "69a234efdbb973b4",
    "eval d=1": "42953da61c0aee7d",
    "eval d=1 i=1": "c85a6c69ae3bae65",
    "eval d=1 i=2": "c7b1cb8b25d3a1a1",
    "eval d=2": "c17ea39d356a1deb",
    "eval d=2 i=1": "affa3b5e59f80958",
    "eval d=2 i=2": "160f8b7457bfdb89",
    "eval d=3": "04e1b6576bfb6955",
    "eval d=3 i=1": "a3241b2c3e75047f",
    "eval d=3 i=2": "3ffdc849b20e8d2c",
    "eval d=4": "cd8f373e64108351",
    "eval d=4 i=1": "601d8516f7e1aff2",
    "eval d=4 i=2": "7cf7c5b3ee62b07c",
    "eval_node closed=True": "c4ce37305bb1b65a",
    "eval_node closed=False": "cd2c19c70e6d7aa6",
    "useless d=0": "0830b5441abbf0be",
    "useless d=1": "5ff7b262b08f6ae6",
    "useless d=2": "3684082885e6c8ac",
    "useless d=3": "060bc2ebe4260807",
    "useless d=4": "18daf1be1c64f071",
    "integrate_2_1": "60fce5e362d49a5c",
    "squaring": "d1f1df3ef12996a3",
}


def _templates():
    """Every builtin template, under each parameter value pinned above."""
    for name, spec in BUILTINS.items():
        if name == "eval":
            for d in range(5):
                yield f"eval d={d}", make_eval(d)
                for i in (1, 2):
                    yield f"eval d={d} i={i}", make_eval(d, i)
        elif name == "useless":
            for d in range(5):
                yield f"useless d={d}", make_useless(d)
        elif name == "eval_node":
            for closed in (True, False):
                yield f"eval_node closed={closed}", make_eval_node(closed)
        else:
            yield name, spec["make"]()


class TestBuiltinRegistry:
    def test_parameter_parsing(self):
        e = builtin_query("eval d=2 i=1")
        assert free_vars(e) == set()

    def test_missing_required(self):
        with pytest.raises(UsageError, match="requires"):
            builtin_query("eval i=1")

    def test_unknown_name(self):
        with pytest.raises(UsageError, match="unknown builtin"):
            builtin_query("zzz")

    def test_unknown_parameter(self):
        with pytest.raises(UsageError, match="parameters"):
            builtin_query("squaring d=2")

    def test_templates_keep_their_trees(self):
        got = {label: hashlib.sha256(repr(e).encode()).hexdigest()[:16] for label, e in _templates()}
        assert got == TEMPLATE_REPR_SHA256

    def test_every_builtin_generates(self):
        for name, spec in BUILTINS.items():
            params = {p: 1 for p in spec.get("required", ())}
            spec["make"](**params)
