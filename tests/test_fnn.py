"""Networks: validation, forward oracle, padding, piecewise-linear analysis."""

import decimal
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from randgen import build_fnn, path_net, random_fnn, random_n11, random_n211
from wsq.errors import LoadError, ResourceError, UsageError
from wsq.fnn import (
    FnnStructure,
    Pwl,
    fnn_from_json,
    fnn_to_json,
    forward,
    load_fnn,
    node_values,
    pad,
    pwl_integral,
    save_fnn,
    to_pwl,
    validate_fnn,
    with_input,
    without_edge,
    zero_query,
)
from wsq.numerics import BOT, rational
from wsq.structures import WeightedStructure


def two_node():
    """u -> v with weight 3 and bias(v) = 1."""
    return build_fnn(["u", "v"], {("u", "v"): Fraction(3)}, {"v": Fraction(0) + 1})


def clamp_net():
    """relu(x) - relu(x - 1): 0 below 0, x on [0, 1], 1 above."""
    return build_fnn(
        ["u", "h1", "h2", "o"],
        {
            ("u", "h1"): Fraction(1),
            ("u", "h2"): Fraction(1),
            ("h1", "o"): Fraction(1),
            ("h2", "o"): Fraction(-1),
        },
        {"h1": Fraction(0), "h2": Fraction(-1), "o": Fraction(0)},
    )


class TestValidate:
    def test_two_node_path_ok(self):
        assert validate_fnn(two_node().structure) == []

    def test_self_loop_is_a_cycle(self):
        s = two_node().structure
        wt = dict(s.weights["wt"])
        wt[("v", "v")] = rational(1)
        broken = type(s)(s.universe, s.vocabulary, s.relations, {**s.weights, "wt": wt})
        assert any("acyclic" in v for v in validate_fnn(broken))

    def test_input_with_bias_rejected(self):
        s = two_node().structure
        bias = dict(s.weights["bias"])
        bias[("u",)] = rational(0)
        broken = type(s)(s.universe, s.vocabulary, s.relations, {**s.weights, "bias": bias})
        assert any("bias iff input" in v for v in validate_fnn(broken))

    def test_non_input_without_bias_rejected(self):
        s = two_node().structure
        broken = type(s)(s.universe, s.vocabulary, s.relations, {**s.weights, "bias": {}})
        assert validate_fnn(broken) == ["bias iff input: non-input node v must have a bias"]

    def test_order_on_wrong_nodes_rejected(self):
        s = two_node().structure
        rel = {**s.relations, "le_in": frozenset({("u", "u"), ("v", "v")})}
        broken = type(s)(s.universe, s.vocabulary, rel, s.weights)
        assert any("le_in" in v for v in validate_fnn(broken))

    def test_cycle_message_names_only_cycle_nodes(self):
        # c hangs below the cycle a <-> b and is not on it
        s = WeightedStructure.build(
            ["c", "a", "b"],
            relations={"le_in": (2, []), "le_out": (2, [])},
            weights={
                "wt": (2, {("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1}),
                "bias": (1, {("a",): 0, ("b",): 0, ("c",): 0}),
            },
        )
        message = "acyclic: weight graph has a cycle through 'a', 'b'"
        assert validate_fnn(s) == [message]
        with pytest.raises(UsageError) as error:
            FnnStructure(s)
        assert str(error.value) == f"not a valid FNN: {message}"
        with pytest.raises(UsageError) as error:
            node_values(s.expand(weights={"inp": (1, {})}))
        assert str(error.value) == "weight graph has a cycle through 'a', 'b'"

    def test_missing_vocabulary_reported(self):
        from wsq.structures import WeightedStructure

        s = WeightedStructure.build(["a"], weights={"wt": (2, {})})
        assert any("required" in v for v in validate_fnn(s))


def fan_in(inputs, le_in):
    """Every input feeds one output ``o``; ``le_in`` is taken as given."""
    return WeightedStructure.build(
        [*inputs, "o"],
        relations={"le_in": (2, le_in), "le_out": (2, [("o", "o")])},
        weights={"wt": (2, {(u, "o"): 1 for u in inputs}), "bias": (1, {("o",): 0})},
    )


def brute_force_order(members, pairs):
    """The listing of ``members`` whose ``i <= j`` pairs are exactly ``pairs``, or None."""
    for listing in itertools.permutations(members):
        if {(a, b) for i, a in enumerate(listing) for b in listing[i:]} == pairs:
            return listing
    return None


class TestOrderValidation:
    def test_missing_reflexive_pair(self):
        s = fan_in("ab", [("a", "b"), ("b", "b")])
        assert validate_fnn(s) == ["le_in: missing reflexive pair (a,a)"]

    def test_incomparable_pair(self):
        s = fan_in("ab", [("a", "a"), ("b", "b")])
        assert validate_fnn(s) == ["le_in: a and b are incomparable"]

    def test_antisymmetry(self):
        s = fan_in("ab", [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
        assert validate_fnn(s) == ["le_in: a and b violate antisymmetry"]

    def test_three_cycle_names_the_triple(self):
        # a <= b <= c <= a: reflexive, total and antisymmetric, not transitive
        s = fan_in("abc", [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "a")])
        assert validate_fnn(s) == ["le_in: transitivity fails on (b,c,a)"]
        with pytest.raises(UsageError, match=r"transitivity fails on \(b,c,a\)"):
            FnnStructure(s)

    def test_agrees_with_brute_force(self):
        rng = random.Random(5)
        valid = 0
        for _ in range(3000):
            inputs = [f"i{k}" for k in range(rng.randint(1, 4))]
            nodes = inputs + ["o"] if rng.random() < 0.1 else inputs
            if rng.random() < 0.5:
                # a linear order with a few pairs toggled
                listing = rng.sample(inputs, len(inputs))
                pairs = {(a, b) for i, a in enumerate(listing) for b in listing[i:]}
                pairs ^= {p for p in itertools.product(nodes, repeat=2) if rng.random() < 0.1}
            else:
                density = rng.random()
                pairs = {p for p in itertools.product(nodes, repeat=2) if rng.random() < density}
            expected = brute_force_order(inputs, pairs)
            s = fan_in(inputs, pairs)
            assert (validate_fnn(s) == []) == (expected is not None), sorted(pairs)
            if expected is not None:
                valid += 1
                assert FnnStructure(s).input_nodes == expected
        assert valid > 500

    def test_one_message_per_defect_kind(self):
        inputs = [f"i{k}" for k in range(300)]
        # the reflexive pairs but (i5, i5), plus i5 <= i6 and i1, i2 both ways
        pairs = {(a, a) for a in inputs if a != "i5"}
        pairs |= {("i5", "i6"), ("i1", "i2"), ("i2", "i1")}
        problems = validate_fnn(fan_in(inputs, pairs))
        assert problems == [
            "le_in: i0 and i1 are incomparable (and 44847 more pairs)",
            "le_in: i1 and i2 violate antisymmetry",
            "le_in: missing reflexive pair (i5,i5)",
        ]
        assert validate_fnn(fan_in(inputs[:60], {(a, a) for a in inputs[:60]})) == [
            "le_in: i0 and i1 are incomparable (and 1769 more pairs)"
        ]
        with pytest.raises(UsageError) as raised:
            FnnStructure(fan_in(inputs, pairs))
        assert len(str(raised.value)) < 200

    def test_784_inputs_load(self):
        inputs = [f"x{k}" for k in range(784)]
        random.Random(3).shuffle(inputs)
        doc = {
            "nodes": [{"name": v} for v in inputs] + [{"name": "o", "bias": "0"}],
            "edges": [{"from": v, "to": "o", "weight": "1"} for v in inputs],
            "input_order": inputs,
            "output_order": ["o"],
        }
        assert fnn_from_json(doc).input_nodes == tuple(inputs)


class TestForward:
    def test_hand_simulated_values(self):
        net = two_node()
        assert forward(net, [2]) == [rational(7)]   # 1 + 3 * relu(2)
        assert forward(net, [-2]) == [rational(1)]  # 1 + 3 * relu(-2)

    def test_clamp_at_five(self):
        assert forward(clamp_net(), [5]) == [rational(1)]

    def test_input_length_checked(self):
        with pytest.raises(UsageError):
            forward(two_node(), [1, 2])

    def test_undefined_input_rejected(self):
        with pytest.raises(UsageError, match="^network inputs must be defined rationals$"):
            forward(two_node(), [BOT])

    @pytest.mark.parametrize("value", [True, False, 0.5, "1", None])
    def test_non_rational_input_rejected(self, value):
        # a bool is not a number here, as in structure files and on the command line
        with pytest.raises(UsageError, match="^network inputs must be defined rationals$"):
            forward(two_node(), [value])
        with pytest.raises(UsageError, match="^network inputs must be defined rationals$"):
            with_input(two_node(), [value])

    def test_with_input_covers_exactly_inputs(self):
        expanded = with_input(two_node(), [rational(-1, 2)])
        assert expanded.weight("inp", ("u",)) == rational(-1, 2)
        assert expanded.weight("inp", ("v",)) is BOT

    def test_node_values_on_deleted_edge(self):
        # removing h1 -> o leaves the recursion grounded via bias
        net = clamp_net()
        expanded = without_edge(with_input(net, [5]), ("h1", "o"))
        values = node_values(expanded)
        assert values["o"] == rational(0) - rational(4)  # 0 - relu(5 - 1)

    def test_multi_output_order(self):
        net = build_fnn(
            ["u", "o1", "o2"],
            {("u", "o1"): Fraction(1), ("u", "o2"): Fraction(2)},
            {"o1": Fraction(0), "o2": Fraction(0)},
        )
        assert forward(net, [3]) == [rational(3), rational(6)]

    def test_node_values_bot_poisons_consumers(self):
        # an input node without an attached input value is undefined, and
        # that undefinedness propagates through the rectifier
        from wsq.structures import WeightedStructure

        s = WeightedStructure.build(
            ["a", "b"],
            weights={
                "wt": (2, {("a", "b"): 1}),
                "bias": (1, {("b",): 3}),
                "inp": (1, {}),
            },
        )
        values = node_values(s)
        assert values["a"] is BOT
        assert values["b"] is BOT

    def test_node_values_detects_cycles(self):
        from wsq.structures import WeightedStructure

        s = WeightedStructure.build(
            ["a", "b"],
            weights={
                "wt": (2, {("a", "b"): 1, ("b", "a"): 1}),
                "bias": (1, {("a",): 0, ("b",): 0}),
                "inp": (1, {}),
            },
        )
        with pytest.raises(UsageError, match="cycle"):
            node_values(s)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({"wt": (2, {("a", "b"): 1}), "bias": (1, {("b",): 1})}, "inp(1)"),
            ({"wt": (2, {("a", "b"): 1}), "bias": (1, {("b",): 1}), "inp": (2, {("a", "a"): 3})}, "inp(1)"),
            ({"wt": (3, {("a", "b", "b"): 1}), "bias": (1, {("b",): 1}), "inp": (1, {("a",): 3})}, "wt(2)"),
        ],
    )
    def test_symbols_of_the_wrong_arity_are_refused(self, weights, message):
        # a binary inp or a ternary wt is not read as a network with input
        with pytest.raises(UsageError, match=rf"^structure does not interpret weight symbol {re.escape(message)}$"):
            node_values(WeightedStructure.build(["a", "b"], weights=weights))


class TestUndefinedness:
    """An undefined in-neighbour or a missing bias leaves a node undefined,
    whatever the weight of the edge and the sign of the other in-neighbours."""

    @staticmethod
    def net():
        # inputs n, a; c1 reads a through weight 0, c2 reads n then a, d reads n
        return build_fnn(
            ["n", "a", "c1", "c2", "d"],
            {("a", "c1"): Fraction(0), ("n", "c2"): Fraction(1), ("a", "c2"): Fraction(1), ("n", "d"): Fraction(4)},
            {"c1": Fraction(1), "c2": Fraction(1), "d": Fraction(2)},
        )

    def test_forward_on_zero_weights_and_negative_in_neighbours(self):
        net = self.net()
        assert forward(net, [-2, 3]) == [rational(1), rational(4), rational(2)]
        assert node_values(with_input(net, [-2, 3])) == {"n": -2, "a": 3, "c1": 1, "c2": 4, "d": 2}

    def test_bot_in_neighbour_poisons_through_zero_weight_and_after_a_negative(self):
        s = self.net().structure.expand(weights={"inp": (1, {("n",): -2})})
        values = node_values(s)
        assert [values[v] for v in ("a", "c1", "c2")] == [BOT, BOT, BOT]
        assert values["d"] == rational(2)

    def test_missing_bias_is_bot_under_negative_in_neighbours(self):
        s = self.net().structure.expand(weights={"inp": (1, {("n",): -2, ("a",): -3})})
        bias = {t: b for t, b in s.weights["bias"].items() if t != ("d",)}
        s = WeightedStructure(s.universe, s.vocabulary, s.relations, {**s.weights, "bias": bias})
        assert node_values(s) == {"n": -2, "a": -3, "c1": 1, "c2": 1, "d": BOT}

    def test_forward_builds_no_structure(self, monkeypatch):
        import wsq.fnn

        def refuse(*args, **kwargs):
            raise AssertionError("forward must not build a structure")

        net = clamp_net()
        for name in ("with_input", "node_values"):
            monkeypatch.setattr(wsq.fnn, name, refuse)
        monkeypatch.setattr(WeightedStructure, "expand", refuse)
        assert forward(net, [Fraction(1, 2)]) == [rational(1, 2)]
        with pytest.raises(AssertionError, match="must not build"):
            with_input(net, [1])
        with pytest.raises(UsageError, match="^expected 1 input values, got 2$"):
            forward(net, [1, 2])


class TestNodeValuesIterative:
    def test_deep_padding_leaves_recursion_limit(self, monkeypatch):
        # 3 000 relays: far deeper than the interpreter's recursion limit
        net = clamp_net()
        padded = pad(net, ("u", "h1"), 3000)
        limit = sys.getrecursionlimit()

        def refuse(_):
            raise AssertionError("node_values must not change the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        for x in (Fraction(-1), Fraction(1, 2), Fraction(3)):
            assert forward(padded, [x]) == forward(net, [x])
        assert sys.getrecursionlimit() == limit

    def test_cycle_behind_a_node_is_named(self):
        from wsq.structures import WeightedStructure

        # c hangs below the cycle a <-> b; the message names a node on it
        s = WeightedStructure.build(
            ["c", "a", "b"],
            weights={
                "wt": (2, {("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1}),
                "bias": (1, {}),
                "inp": (1, {}),
            },
        )
        with pytest.raises(UsageError, match="cycle through '[ab]'"):
            node_values(s)

    def test_input_entry_cuts_a_cycle(self):
        from wsq.structures import WeightedStructure

        # an input node reports inp and reads no in-neighbour
        s = WeightedStructure.build(
            ["a", "b"],
            weights={
                "wt": (2, {("a", "b"): 2, ("b", "a"): 1}),
                "bias": (1, {("b",): 1}),
                "inp": (1, {("a",): 3}),
            },
        )
        assert node_values(s) == {"a": rational(3), "b": rational(7)}


class TestPad:
    def test_forward_unchanged_through_relay(self):
        net = two_node()
        padded = pad(net, ("u", "v"), 1)
        assert forward(padded, [2]) == forward(net, [2])

    def test_depth_grows_forward_stable(self):
        net = two_node()
        padded = pad(net, ("u", "v"), 4)
        assert padded.depth == net.depth + 4
        for x in (-1, 0, 2):
            assert forward(padded, [x]) == forward(net, [x])

    def test_orders_and_io_preserved(self):
        net = clamp_net()
        padded = pad(net, ("h1", "o"), 3)
        assert padded.input_nodes == net.input_nodes
        assert padded.output_nodes == net.output_nodes
        assert validate_fnn(padded.structure) == []

    def test_missing_edge_rejected(self):
        with pytest.raises(UsageError):
            pad(two_node(), ("v", "u"), 1)

    def test_pwl_identical_after_padding(self):
        net = clamp_net()
        padded = pad(net, ("u", "h2"), 5)
        assert to_pwl(padded) == to_pwl(net)


class TestPwl:
    def test_relu_shape(self):
        net = build_fnn(["u", "o"], {("u", "o"): Fraction(1)}, {"o": Fraction(0)})
        p = to_pwl(net)
        assert p.breakpoints == (Fraction(0),)
        assert p.pieces == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))

    def test_clamp_shape(self):
        p = to_pwl(clamp_net())
        assert p.breakpoints == (Fraction(0), Fraction(1))
        assert [p.at(x) for x in (-3, Fraction(1, 2), 9)] == [0, Fraction(1, 2), 1]

    def test_constant_net(self):
        net = build_fnn(["u", "o"], {("u", "o"): Fraction(0)}, {"o": Fraction(5)})
        p = to_pwl(net)
        assert p.breakpoints == () and p.pieces == ((Fraction(0), Fraction(5)),)

    def test_matches_forward_on_dense_samples(self):
        # over a thousand sample points across the nets, including every
        # breakpoint and the midpoints between consecutive samples
        rng = random.Random(5)
        total = 0
        for _ in range(10):
            net = random_n11(rng, max_depth=4)
            p = to_pwl(net)
            xs = {Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(60)}
            xs.update(p.breakpoints)
            for a, b in zip(sorted(xs), sorted(xs)[1:]):
                xs.add((a + b) / 2)
            for x in xs:
                assert forward(net, [x]) == [rational(p.at(x))]
            total += len(xs)
        assert total >= 1000

    def test_forward_matches_pwl_on_random_nets(self):
        # forward's oracle gate: 240 one-input networks, among them the zero
        # networks of test_c09 and networks whose two hidden nodes share a
        # kink, each sampled at random points, at every breakpoint and
        # between consecutive samples
        rng = random.Random(2418)
        kinks = 0
        for index in range(240):
            w, b = Fraction(rng.randint(1, 5)), Fraction(-rng.randint(1, 3))
            if index % 8 == 0:
                net = build_fnn(
                    ["u", "h1", "h2", "o"],
                    {("u", "h1"): w, ("u", "h2"): w, ("h1", "o"): Fraction(1), ("h2", "o"): Fraction(-1)},
                    {"h1": Fraction(0), "h2": Fraction(0), "o": Fraction(0)},
                )
            elif index % 8 == 1:
                # h2's pre-activation is 2 * h1's, so both kink at -b / w > 0
                net = build_fnn(
                    ["u", "h1", "h2", "o"],
                    {("u", "h1"): w, ("u", "h2"): 2 * w, ("h1", "o"): Fraction(1), ("h2", "o"): Fraction(1)},
                    {"h1": b, "h2": 2 * b, "o": Fraction(-1)},
                )
            else:
                net = random_n11(rng, max_depth=6)
            p = to_pwl(net)
            xs = {Fraction(rng.randint(-60, 60), rng.randint(1, 6)) for _ in range(8)}
            xs.update(p.breakpoints)
            ordered = sorted(xs)
            xs.update((a + c) / 2 for a, c in zip(ordered, ordered[1:]))
            for x in xs:
                assert forward(net, [x]) == [rational(p.at(x))]
            if index % 8 == 0:
                assert p.is_zero
            elif index % 8 == 1:
                assert p.breakpoints == (-b / w,)
            kinks += len(p.breakpoints)
        assert kinks >= 400

    def test_dimension_checked(self):
        multi = build_fnn(
            ["u1", "u2", "o"],
            {("u1", "o"): Fraction(1), ("u2", "o"): Fraction(1)},
            {"o": Fraction(0)},
        )
        with pytest.raises(UsageError):
            to_pwl(multi)

    def test_piece_budget(self):
        rng = random.Random(0)
        net = random_n11(rng, max_depth=5)
        with pytest.raises(ResourceError):
            to_pwl(net, max_pieces=1)

    def test_continuity_enforced(self):
        with pytest.raises(UsageError, match="agree"):
            Pwl((Fraction(0),), ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(5))))

    @pytest.mark.parametrize(
        "breakpoints,pieces,message",
        [
            ((Fraction(0),), ((Fraction(0), Fraction(0)),), "one piece more"),
            ((Fraction(1), Fraction(1)), ((0, 0), (1, -1), (2, -2)), "strictly increasing"),
            ((Fraction(0),), ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))), "distinct"),
        ],
    )
    def test_malformed_rejected(self, breakpoints, pieces, message):
        with pytest.raises(UsageError, match=message):
            Pwl(breakpoints, pieces)

    def test_invariants_survive_optimized_mode(self):
        code = (
            "from fractions import Fraction as F\n"
            "from wsq.errors import UsageError\n"
            "from wsq.fnn import Pwl\n"
            "try:\n"
            "    Pwl((F(0),), ((F(0), F(0)), (F(1), F(5))))\n"
            "except UsageError:\n"
            "    print('rejected')\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "rejected"


class TestIntegral:
    def test_relu_triangle(self):
        net = build_fnn(["u", "o"], {("u", "o"): Fraction(1)}, {"o": Fraction(0)})
        assert pwl_integral(to_pwl(net), rational(-1), rational(1)) == rational(1, 2)

    def test_clamp_area(self):
        assert pwl_integral(to_pwl(clamp_net()), rational(0), rational(2)) == rational(3, 2)

    def test_empty_interval(self):
        assert pwl_integral(to_pwl(clamp_net()), rational(7), rational(7)) == rational(0)

    def test_bad_bounds(self):
        p = to_pwl(clamp_net())
        with pytest.raises(UsageError):
            pwl_integral(p, rational(1), rational(0))
        with pytest.raises(UsageError):
            pwl_integral(p, BOT, rational(1))

    def test_additive_over_interval_split(self):
        rng = random.Random(11)
        for _ in range(20):
            net = random_n211(rng)
            p = to_pwl(net)
            a, b, c = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3))
            whole = pwl_integral(p, rational(a), rational(c))
            split = pwl_integral(p, rational(a), rational(b)) + pwl_integral(
                p, rational(b), rational(c)
            )
            assert whole == split


class TestZeroQuery:
    def test_syntactic_cancellation(self):
        net = build_fnn(
            ["u", "h1", "h2", "o"],
            {
                ("u", "h1"): Fraction(1),
                ("u", "h2"): Fraction(1),
                ("h1", "o"): Fraction(1),
                ("h2", "o"): Fraction(-1),
            },
            {"h1": Fraction(0), "h2": Fraction(0), "o": Fraction(0)},
        )
        assert zero_query(net)

    def test_relu_not_zero(self):
        net = build_fnn(["u", "o"], {("u", "o"): Fraction(1)}, {"o": Fraction(0)})
        assert not zero_query(net)

    def test_zero_output_weight_and_bias(self):
        net = build_fnn(
            ["u", "h", "o"],
            {("u", "h"): Fraction(7), ("h", "o"): Fraction(0)},
            {"h": Fraction(3), "o": Fraction(0)},
        )
        assert zero_query(net)
        for x in (-2, 0, 5):
            assert forward(net, [x]) == [rational(0)]


class TestFiles:
    def test_round_trip(self, tmp_path):
        net = clamp_net()
        path = tmp_path / "net.json"
        save_fnn(net, str(path))
        again = load_fnn(str(path))
        assert fnn_to_json(again) == fnn_to_json(net)
        assert forward(again, [Fraction(1, 2)]) == forward(net, [Fraction(1, 2)])

    def test_round_trip_past_pythons_digit_limit(self, tmp_path):
        # a 16 001-bit weight and bias, past the 4 300 digits Python prints by default
        big = str(decimal.Decimal(2**16000 + 1))
        doc = {
            "nodes": [{"name": "u"}, {"name": "v", "bias": f"-{big}/7"}],
            "edges": [{"from": "u", "to": "v", "weight": big}],
            "input_order": ["u"],
            "output_order": ["v"],
        }
        net = fnn_from_json(doc)
        assert net.edges[("u", "v")] == rational(2**16000 + 1)
        assert fnn_to_json(net) == doc
        path = tmp_path / "net.json"
        save_fnn(net, str(path))
        assert fnn_to_json(load_fnn(str(path))) == doc

    def test_loader_rejects_bias_on_input(self):
        from wsq.errors import LoadError

        doc = fnn_to_json(two_node())
        doc["nodes"][0]["bias"] = "1"
        with pytest.raises(LoadError):
            fnn_from_json(doc)

    def test_loader_rejects_unknown_edge_node(self):
        from wsq.errors import LoadError

        doc = fnn_to_json(two_node())
        doc["edges"].append({"from": "u", "to": "ghost", "weight": "1"})
        with pytest.raises(LoadError):
            fnn_from_json(doc)

    def test_loader_rejects_duplicate_edge(self):
        from wsq.errors import LoadError

        doc = fnn_to_json(two_node())
        doc["edges"].append(dict(doc["edges"][0]))
        with pytest.raises(LoadError):
            fnn_from_json(doc)

    def test_path_net_helper(self):
        net = path_net(3)
        assert net.depth == 3
        assert forward(net, [5]) == [rational(5)]


class TestMalformedJson:
    """A malformed network file is a load error with one line, exit 2."""

    BASE = {
        "nodes": [{"name": "u"}, {"name": "v", "bias": "1"}],
        "edges": [{"from": "u", "to": "v", "weight": "3"}],
        "input_order": ["u"],
        "output_order": ["v"],
    }

    @pytest.mark.parametrize(
        "change",
        [
            {"input_order": [["u"]]},
            {"nodes": [{"name": ["u"]}, {"name": "v", "bias": "1"}]},
            {"edges": [{"from": ["u"], "to": "v", "weight": "3"}]},
        ],
        ids=["order_entry", "node_name", "edge_endpoint"],
    )
    def test_load_error_and_exit_two(self, tmp_path, capsys, change):
        from wsq.cli import main

        doc = {**self.BASE, **change}
        with pytest.raises(LoadError):
            fnn_from_json(doc)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe{", b"[" * 100_000], ids=["missing", "undecodable", "deep"]
    )
    def test_unreadable_file_is_load_error(self, tmp_path, content):
        path = tmp_path / "net.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(LoadError, match="cannot read|not valid JSON"):
            load_fnn(str(path))

    @pytest.mark.parametrize(
        "raw, wording",
        [
            ("bot", "explicit 'bot' not allowed; omit the entry instead"),
            (1.5, "value must be a string or integer, got 1.5"),
            ("\u0663", "not a rational literal: '\u0663'"),
        ],
        ids=["bot", "float", "non_ascii_digit"],
    )
    def test_values_read_as_in_structure_files(self, raw, wording):
        from wsq.structures import structure_from_json

        doc = {**self.BASE, "nodes": [{"name": "u"}, {"name": "v", "bias": raw}]}
        with pytest.raises(LoadError) as net_error:
            fnn_from_json(doc)
        weights = {"f": {"arity": 1, "values": [{"tuple": ["a"], "value": raw}]}}
        with pytest.raises(LoadError) as structure_error:
            structure_from_json({"universe": ["a"], "weights": weights})
        assert str(net_error.value) == f"bias of v: {wording}"
        assert str(structure_error.value) == f"weight 'f': {wording}"

    def test_bad_sections_rejected(self):
        assert fnn_from_json(self.BASE).input_nodes == ("u",)
        for change in ({"nodes": 3}, {"edges": {"u": "v"}}, {"output_order": "v"}):
            with pytest.raises(LoadError):
                fnn_from_json({**self.BASE, **change})


class TestWeightTexts:
    """A network load parses each distinct weight text once and keeps nothing after it."""

    @staticmethod
    def doc(*biases, weights=("1", "1")) -> dict:
        """u feeds v and w, whose biases are ``biases``."""
        return {
            "nodes": [{"name": "u"}, {"name": "v", "bias": biases[0]}, {"name": "w", "bias": biases[1]}],
            "edges": [{"from": "u", "to": "v", "weight": weights[0]}, {"from": "u", "to": "w", "weight": weights[1]}],
            "input_order": ["u"],
            "output_order": ["v", "w"],
        }

    def test_a_text_an_int_a_bool_and_a_float_that_equal_one(self):
        net = fnn_from_json(self.doc("1", 1, weights=(1, "1")))
        assert [net.bias("v"), net.bias("w"), *net.edges.values()] == [rational(1)] * 4
        # True == 1 == 1.0 and they hash alike, so neither may be answered from the texts read before
        for raw in (True, 1.0):
            with pytest.raises(LoadError, match=f"^bias of w: value must be a string or integer, got {raw}$"):
                fnn_from_json(self.doc("1", raw))
            with pytest.raises(LoadError, match=rf"^weight of \(u,w\): value must be a string or integer, got {raw}$"):
                fnn_from_json(self.doc("1", "1", weights=("1", raw)))

    def test_a_bad_text_fails_where_it_first_occurs(self):
        with pytest.raises(LoadError, match=r"^bias of v: not a rational literal: 'x'$"):
            fnn_from_json(self.doc("x", "x", weights=("x", "x")))
        with pytest.raises(LoadError, match=r"^weight of \(u,v\): not a rational literal: 'x'$"):
            fnn_from_json(self.doc("1", "1", weights=("x", "x")))

    def test_each_distinct_text_is_parsed_once_per_load(self, parse_calls):
        doc = fnn_to_json(random_fnn(random.Random(5), max_depth=4, max_width=4, mag=2))
        values = [e["weight"] for e in doc["edges"]] + [n["bias"] for n in doc["nodes"] if "bias" in n]
        assert len(values) > 2 * len(set(values))
        parse_calls.clear()
        fnn_from_json(doc)
        assert sorted(parse_calls) == sorted(set(values))
        # nothing is kept between loads: the next load parses every text again
        fnn_from_json(doc)
        assert sorted(parse_calls) == sorted(list(set(values)) * 2)

    def test_random_networks_round_trip(self):
        rng = random.Random(19)
        for i in range(200):
            doc = fnn_to_json(random_fnn(rng, max_depth=3) if i % 2 else random_n11(rng))
            net = fnn_from_json(doc)
            assert json.dumps(fnn_to_json(net)) == json.dumps(doc)
            assert all(net.edges[(e["from"], e["to"])] == Fraction(e["weight"]) for e in doc["edges"])
            assert all(net.bias(n["name"]) == Fraction(n["bias"]) for n in doc["nodes"] if "bias" in n)


def test_random_networks_do_not_depend_on_the_hash_seed():
    # one Random seed gives one network in every process, so a failing randomized test reproduces
    code = (
        "import json, random\n"
        "from randgen import random_fnn, random_n11\n"
        "from wsq.fnn import fnn_to_json\n"
        "nets = [random_fnn(random.Random(5), max_depth=3), random_n11(random.Random(5))]\n"
        "print(json.dumps([fnn_to_json(net) for net in nets]))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, cwd=Path(__file__).parent,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(4)
    }
    assert len(outputs) == 1 and outputs.pop().startswith("[{")
