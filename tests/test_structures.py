"""Weighted structures: validation, lookups, expansion, file round-trips."""

import decimal
import json
import os
import subprocess
import sys
from fractions import Fraction
from operator import delitem, setitem
from pathlib import Path

import pytest

from wsq.errors import LoadError, UsageError
from wsq.numerics import BOT, ExtRational, rational
from wsq.structures import (
    Vocabulary,
    WeightedStructure,
    load_structure,
    save_structure,
    structure_from_json,
    structure_to_json,
    validate_structure,
)


@pytest.fixture
def triangle():
    """Directed 3-cycle with weights 1, 2, 3."""
    return WeightedStructure.build(
        ["v1", "v2", "v3"],
        weights={"wt": (2, {("v1", "v2"): 1, ("v2", "v3"): 2, ("v3", "v1"): 3})},
    )


class TestVocabulary:
    def test_name_clash_rejected(self):
        with pytest.raises(UsageError):
            Vocabulary(relations={"s": 1}, weights={"s": 2})

    def test_expansion_clash_rejected(self, triangle):
        with pytest.raises(UsageError):
            triangle.expand(weights={"wt": (2, {})})

    def test_zero_arity_allowed(self):
        voc = Vocabulary(relations={"flag": 0}, weights={"lo": 0})
        assert voc.relations["flag"] == 0 and voc.weights["lo"] == 0


class TestValidation:
    def test_well_formed(self, triangle):
        assert validate_structure(triangle) == []

    def test_empty_universe(self):
        s = WeightedStructure((), Vocabulary(), {}, {})
        assert any("nonempty" in v for v in validate_structure(s))

    def test_arity_mismatch_reported(self):
        s = WeightedStructure(
            ("a",),
            Vocabulary(relations={"e": 2}),
            {"e": frozenset({("a", "a", "a")})},
            {},
        )
        assert any("arity mismatch" in v for v in validate_structure(s))

    def test_foreign_element_reported(self):
        s = WeightedStructure(
            ("a",),
            Vocabulary(weights={"f": 1}),
            {},
            {"f": {("zz",): rational(1)}},
        )
        assert any("non-universe" in v for v in validate_structure(s))

    def test_bad_element_name(self):
        s = WeightedStructure(("a b",), Vocabulary(), {}, {})
        assert any("must match" in v for v in validate_structure(s))

    def test_generated_structures_always_validate(self):
        import random

        from randgen import random_fnn, random_structure

        rng = random.Random(77)
        for _ in range(30):
            assert validate_structure(random_structure(rng)) == []
            assert validate_structure(random_fnn(rng, max_depth=3).structure) == []


class TestLookups:
    def test_relation_membership(self):
        s = WeightedStructure.build(["v1", "v2"], relations={"edge": (2, [("v1", "v2")])})
        assert s.rel("edge", ("v1", "v2"))
        assert not s.rel("edge", ("v2", "v1"))

    def test_nullary_relation_as_flag(self):
        s = WeightedStructure.build(["v"], relations={"flag": (0, [()])})
        assert s.rel("flag", ())

    def test_weight_lookup_and_absence(self, triangle):
        assert triangle.weight("wt", ("v1", "v2")) == rational(1)
        assert triangle.weight("wt", ("v1", "v1")) is BOT

    def test_weight_constant(self):
        s = WeightedStructure.build(["v"], weights={"lo": (0, {(): -1})})
        assert s.weight("lo", ()) == rational(-1)

    def test_unknown_symbol_errors(self, triangle):
        with pytest.raises(UsageError):
            triangle.rel("nope", ())
        with pytest.raises(UsageError):
            triangle.weight("wt", ("v1",))

    def test_component_outside_universe_errors(self, triangle):
        s = WeightedStructure.build(["v1", "v2"], relations={"edge": (2, [("v1", "v2")])})
        with pytest.raises(UsageError, match="^tuple component 'zz' is not a universe element$"):
            s.rel("edge", ("v1", "zz"))
        with pytest.raises(UsageError, match="^tuple component 'zz' is not a universe element$"):
            triangle.weight("wt", ("zz", "v1"))

    def test_lookups_leave_the_structure_unchanged(self, triangle):
        before = dict(vars(triangle))
        triangle.weight("wt", ("v1", "v2"))
        with pytest.raises(UsageError):
            triangle.weight("wt", ("v1", "zz"))
        assert vars(triangle) == before


class TestBuildValues:
    @pytest.mark.parametrize(
        "value, name", [(True, "bool"), (False, "bool"), (0.5, "float"), ("1/2", "str"), (None, "NoneType")]
    )
    def test_rejects_what_is_not_a_rational(self, value, name):
        # a bool is not a number here, as in structure files (see weight_value)
        with pytest.raises(UsageError, match=f"^weight values must be rationals, got {name}$"):
            WeightedStructure.build(["v"], weights={"f": (1, {("v",): value})})
        with pytest.raises(UsageError, match=f"^weight values must be rationals, got {name}$"):
            WeightedStructure.build(["v"]).expand(weights={"g": (0, {(): value})})

    def test_rejects_a_repeated_element(self):
        # counted twice, the element would make sum {x : x = x} f(x) read 6
        with pytest.raises(UsageError, match="^universe: duplicate element 'a'$"):
            WeightedStructure.build(["a", "b", "a"], weights={"f": (1, {("a",): 3})})

    @pytest.mark.parametrize(
        "universe, message",
        [
            (["a b", "c"], "universe: element name 'a b' must match [A-Za-z0-9_]+"),
            ([], "universe: must be nonempty"),
            (["a", 1], "universe: element name 1 must match [A-Za-z0-9_]+"),
        ],
    )
    def test_rejects_a_universe_validation_rejects(self, universe, message):
        # build raises validate_structure's first problem, so a built structure saves and loads
        with pytest.raises(UsageError) as info:
            WeightedStructure.build(universe)
        assert str(info.value) == message
        assert validate_structure(WeightedStructure(tuple(universe), Vocabulary(), {}, {}))[0] == message

    def test_a_built_structure_saves_and_loads(self, tmp_path):
        s = WeightedStructure.build(
            ["n0", "N_1", "7"],
            relations={"e": (2, [("n0", "N_1"), ("7", "7")])},
            weights={"f": (1, {("N_1",): Fraction(-3, 4)}), "c": (0, {(): 5})},
        )
        assert validate_structure(s) == []
        path = tmp_path / "s.json"
        save_structure(s, str(path))
        assert load_structure(str(path)) == s

    def test_the_loader_lists_a_repeated_element_with_the_rest(self):
        doc = {"universe": ["a", "a", "b c"]}
        message = "invalid structure: universe: duplicate element 'a'; universe: element name 'b c' must match"
        with pytest.raises(LoadError, match=f"^{message}"):
            structure_from_json(doc)


class TestExpand:
    def test_adds_unary_weights(self, triangle):
        bigger = triangle.expand(weights={"inp": (1, {("v1",): rational(1, 2)})})
        assert bigger.weight("inp", ("v1",)) == rational(1, 2)
        assert bigger.weight("inp", ("v2",)) is BOT

    def test_adds_constants(self, triangle):
        bigger = triangle.expand(weights={"lo": (0, {(): 0}), "hi": (0, {(): 1})})
        assert bigger.weight("lo", ()) == rational(0)
        assert bigger.weight("hi", ()) == rational(1)

    def test_empty_expansion_is_identity(self, triangle):
        assert triangle.expand() == triangle

    def test_preserves_old_interpretations(self, triangle):
        bigger = triangle.expand(relations={"mark": (1, [("v2",)])})
        assert bigger.weight("wt", ("v2", "v3")) == triangle.weight("wt", ("v2", "v3"))
        assert set(bigger.vocabulary.weights) == {"wt"}
        assert set(bigger.vocabulary.relations) == {"mark"}

    def test_bot_values_are_dropped(self, triangle):
        bigger = triangle.expand(weights={"g": (1, {("v1",): BOT})})
        assert ("v1",) not in bigger.weights["g"]
        assert validate_structure(bigger) == []


class TestJson:
    def test_round_trip(self, tmp_path, triangle):
        s = triangle.expand(
            relations={"mark": (1, [("v1",)]), "flag": (0, [()])},
            weights={"lo": (0, {(): rational(-1, 2)})},
        )
        path = tmp_path / "s.json"
        save_structure(s, str(path))
        assert load_structure(str(path)) == s

    def test_round_trip_past_pythons_digit_limit(self, tmp_path):
        # 16 001 bits (4 817 digits), within the bit bound, past the 4 300
        # digits Python prints by default: written and read back in full
        big = Fraction(2**16000 + 1, 3)
        s = WeightedStructure.build(["a"], weights={"f": (1, {("a",): big}), "g": (0, {(): -(2**16000) - 1})})
        doc = structure_to_json(s)
        text = doc["weights"]["f"]["values"][0]["value"]
        assert text == f"{decimal.Decimal(2**16000 + 1)}/3"
        assert structure_from_json(doc) == s
        path = tmp_path / "s.json"
        save_structure(s, str(path))
        assert load_structure(str(path)) == s
        assert str(s.weight("g", ())) == str(decimal.Decimal(-(2**16000) - 1))

    def test_decimal_and_integer_values(self):
        s = structure_from_json(
            {
                "universe": ["a"],
                "weights": {"f": {"arity": 1, "values": [{"tuple": ["a"], "value": "0.25"}]},
                            "g": {"arity": 1, "values": [{"tuple": ["a"], "value": 7}]}},
            }
        )
        assert s.weight("f", ("a",)) == rational(1, 4)
        assert s.weight("g", ("a",)) == rational(7)

    def test_integer_value_beyond_the_digit_limit(self):
        # an int is already a number: no text conversion, so no digit limit
        big = 10 ** (sys.get_int_max_str_digits() + 700)
        weights = {"g": {"arity": 1, "values": [{"tuple": ["a"], "value": big}]}}
        s = structure_from_json({"universe": ["a"], "weights": weights})
        assert s.weight("g", ("a",)) == rational(big)

    def test_duplicate_tuple_with_different_values(self):
        with pytest.raises(LoadError, match="listed twice"):
            structure_from_json(
                {
                    "universe": ["a"],
                    "weights": {
                        "f": {
                            "arity": 1,
                            "values": [
                                {"tuple": ["a"], "value": "1"},
                                {"tuple": ["a"], "value": "2"},
                            ],
                        }
                    },
                }
            )

    def test_duplicate_tuple_same_value_ok(self):
        s = structure_from_json(
            {
                "universe": ["a"],
                "weights": {
                    "f": {
                        "arity": 1,
                        "values": [
                            {"tuple": ["a"], "value": "1"},
                            {"tuple": ["a"], "value": "1"},
                        ],
                    }
                },
            }
        )
        assert s.weight("f", ("a",)) == rational(1)

    def test_explicit_bot_rejected(self):
        with pytest.raises(LoadError, match="omit"):
            structure_from_json(
                {
                    "universe": ["a"],
                    "weights": {"f": {"arity": 1, "values": [{"tuple": ["a"], "value": "bot"}]}},
                }
            )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(LoadError, match=r"^invalid structure: relation e: arity mismatch in tuple \('a',\)$"):
            structure_from_json(
                {"universe": ["a"], "relations": {"e": {"arity": 2, "tuples": [["a"]]}}}
            )

    def test_invalid_structure_rejected(self):
        with pytest.raises(LoadError):
            structure_from_json({"universe": []})

    def test_serialized_form_is_sorted_and_stable(self, triangle):
        doc = structure_to_json(triangle)
        assert json.dumps(doc) == json.dumps(structure_to_json(triangle))
        assert doc["universe"] == ["v1", "v2", "v3"]


class TestMalformedJson:
    """A malformed structure file is a load error with one line, exit 2."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"universe": ["a"], "relations": [1]},
            {"universe": ["a"], "relations": {"e": {"arity": 2, "tuples": [[["a"], "a"]]}}},
            {
                "universe": ["a"],
                "weights": {"f": {"arity": 1, "values": [{"tuple": [["a"]], "value": "1"}]}},
            },
            {"universe": ["a"], "relations": {"e": {"arity": True, "tuples": [["a"]]}}},
            {"universe": ["a"], "weights": {"f": {"arity": 1.9, "values": []}}},
            {"universe": ["a"], "relations": {"e": {"arity": "2", "tuples": [["a", "a"]]}}},
            {"universe": ["a"], "weights": {"f": {"arity": -1, "values": []}}},
            {
                "universe": ["a"],
                "weights": {"f": {"arity": 1, "values": [{"tuple": ["a"], "value": "\u0663"}]}},
            },
        ],
        ids=[
            "relations_list",
            "relation_tuple_component",
            "weight_tuple_component",
            "arity_true",
            "arity_float",
            "arity_string",
            "arity_negative",
            "value_non_ascii_digit",
        ],
    )
    def test_load_error_and_exit_two(self, tmp_path, capsys, doc):
        from wsq.cli import main

        with pytest.raises(LoadError):
            structure_from_json(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "content", [None, b"\xff\xfe{", b"[" * 100_000], ids=["missing", "undecodable", "deep"]
    )
    def test_unreadable_file_is_load_error(self, tmp_path, content):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(LoadError, match="cannot read|not valid JSON"):
            load_structure(str(path))

    def test_bad_sections_rejected(self):
        for doc in (
            {"universe": ["a"], "weights": "f"},
            {"universe": ["a"], "relations": []},
            {"universe": ["a"], "relations": {"e": {"arity": "two"}}},
            {"universe": ["a"], "relations": {"e": {"arity": 1, "tuples": "a"}}},
            {"universe": ["a"], "weights": {"f": {"arity": 1, "values": 3}}},
        ):
            with pytest.raises(LoadError):
                structure_from_json(doc)


def _unary_doc(*values) -> dict:
    """A structure document whose unary weight ``f`` gives ``values`` to e0, e1, ..."""
    universe = [f"e{i}" for i in range(len(values))]
    entries = [{"tuple": [x], "value": v} for x, v in zip(universe, values)]
    return {"universe": universe, "weights": {"f": {"arity": 1, "values": entries}}}


class TestWeightTexts:
    """A load parses each distinct weight text once and keeps nothing after it."""

    def test_a_text_an_int_a_bool_and_a_float_that_equal_one(self):
        s = structure_from_json(_unary_doc("1", 1, "1", 1))
        assert [s.weight("f", (x,)) for x in s.universe] == [rational(1)] * 4
        # True == 1 == 1.0 and they hash alike, so neither may be answered from the texts read before
        for raw in (True, 1.0):
            with pytest.raises(LoadError, match=f"^weight 'f': value must be a string or integer, got {raw}$"):
                structure_from_json(_unary_doc("1", 1, "1", raw))

    def test_a_bad_text_fails_where_it_first_occurs(self):
        doc = _unary_doc("2", "1/0", "2", "1/0")
        doc["weights"]["g"] = {"arity": 1, "values": [{"tuple": ["e0"], "value": "1/0"}]}
        with pytest.raises(LoadError, match=r"^weight 'f': not a rational literal: '1/0'$"):
            structure_from_json(doc)
        doc["weights"] = {"g": doc["weights"]["g"], "f": doc["weights"]["f"]}
        with pytest.raises(LoadError, match=r"^weight 'g': not a rational literal: '1/0'$"):
            structure_from_json(doc)

    def test_two_texts_of_one_value_for_one_tuple(self):
        doc = _unary_doc("1/2", "0.5")
        doc["weights"]["f"]["values"][1]["tuple"] = ["e0"]
        s = structure_from_json(doc)
        assert s.weight("f", ("e0",)) == rational(1, 2) and s.weight("f", ("e1",)) is BOT
        doc["weights"]["f"]["values"][1]["value"] = "0.6"
        with pytest.raises(LoadError, match=r"^weight 'f': tuple \['e0'\] listed twice with different values$"):
            structure_from_json(doc)

    def test_each_distinct_text_is_parsed_once_per_load(self, parse_calls):
        s = WeightedStructure.build(
            [f"v{i}" for i in range(6)],
            weights={
                "wt": (2, {(f"v{i}", f"v{j}"): Fraction(i * j % 5, 3) for i in range(6) for j in range(6)}),
                "f": (1, {(f"v{i}",): Fraction(i % 3, 3) for i in range(6)}),
            },
        )
        doc = structure_to_json(s)
        values = [e["value"] for w in doc["weights"].values() for e in w["values"]]
        assert len(values) == 42 and len(set(values)) == 5
        parse_calls.clear()
        assert structure_from_json(doc) == s
        assert sorted(parse_calls) == sorted(set(values))
        # nothing is kept between loads: the next load parses every text again
        assert structure_from_json(doc) == s
        assert sorted(parse_calls) == sorted(list(set(values)) * 2)


class TestLoaderRoundTrip:
    """Loading keeps every value of random structures, however its text is written."""

    def test_random_structures(self):
        import random

        from randgen import random_full_structure, random_structure

        rng = random.Random(19)
        for i in range(200):
            s = random_structure(rng) if i % 2 else random_full_structure(rng)
            doc = structure_to_json(s)
            assert json.dumps(structure_to_json(structure_from_json(doc))) == json.dumps(doc)
            for w in doc["weights"].values():
                for e in w["values"]:
                    text, x = e["value"], Fraction(e["value"])
                    unreduced = f"{2 * x.numerator}/{2 * x.denominator}"
                    e["value"] = rng.choice([text, f" {text}\t", f"+{x}" if x >= 0 else text, unreduced])
            loaded = structure_from_json(doc)
            assert loaded == s
            for name, w in doc["weights"].items():
                for e in w["values"]:
                    assert loaded.weight(name, tuple(e["tuple"])) == ExtRational.parse(e["value"])


class TestBuildChecksTables:
    """build and expand check every table they add, as the loader does."""

    @pytest.mark.parametrize(
        "relations, weights, message",
        [
            ({"e": (1, [("zz",)])}, None, r"relation e: tuple \('zz',\) has non-universe components"),
            ({"e": (2, [("a",)])}, None, r"relation e: arity mismatch in tuple \('a',\)"),
            (None, {"f": (1, {("zz",): 1})}, r"weight f: tuple \('zz',\) has non-universe components"),
            (None, {"f": (1, {("a", "a"): 1})}, r"weight f: arity mismatch in tuple \('a', 'a'\)"),
        ],
        ids=["relation_outside", "relation_length", "weight_outside", "weight_length"],
    )
    def test_rejects_a_bad_tuple(self, relations, weights, message):
        with pytest.raises(UsageError, match=f"^{message}$"):
            WeightedStructure.build(["a"], relations, weights)
        with pytest.raises(UsageError, match=f"^{message}$"):
            WeightedStructure.build(["a"]).expand(relations, weights)

    def test_a_rejected_tuple_is_one_the_loader_rejects(self):
        # before, build accepted it and structure_to_json wrote a file
        # that the loader refused
        doc = {"universe": ["a"], "relations": {"e": {"arity": 1, "tuples": [["zz"]]}}}
        with pytest.raises(LoadError, match=r"^invalid structure: relation e: tuple \('zz',\) has non-universe"):
            structure_from_json(doc)
        with pytest.raises(UsageError, match=r"^relation e: tuple \('zz',\) has non-universe components$"):
            WeightedStructure.build(["a"], relations={"e": (1, [("zz",)])})

    @pytest.mark.parametrize("arity", [True, False])
    def test_rejects_a_bool_arity(self, tmp_path, arity):
        # before, build accepted True and save_structure wrote "arity": true,
        # which the loader rejects; the int arity saves and loads back
        with pytest.raises(UsageError, match=f"^bad arity for symbol 'e': {arity}$"):
            WeightedStructure.build(["a"], relations={"e": (arity, [("a",) * arity])})
        with pytest.raises(UsageError, match=f"^bad arity for symbol 'e': {arity}$"):
            Vocabulary(weights={"e": arity})
        s = WeightedStructure.build(["a"], relations={"e": (int(arity), [("a",) * arity])})
        path = tmp_path / "s.json"
        save_structure(s, str(path))
        assert f'"arity": {int(arity)}' in path.read_text()
        assert load_structure(str(path)) == s

    def test_problems_come_in_one_order_under_every_hash_seed(self):
        # a relation table is a frozenset, whose order follows the hash seed
        code = (
            "from wsq.errors import WsqError\n"
            "from wsq.structures import WeightedStructure, structure_from_json\n"
            "doc = {'universe': ['a', 'b'], 'relations': {'e': {'arity': 2, 'tuples': [['b', 'y'], ['a', 'z'], ['z', 'a']]}}}\n"
            "for make in (\n"
            "    lambda: WeightedStructure.build(['a', 'b'], relations={'e': (2, [('a', 'zz'), ('a',), ('b', 'yy')])}),\n"
            "    lambda: structure_from_json(doc),\n"
            "):\n"
            "    try:\n"
            "        make()\n"
            "    except WsqError as error:\n"
            "        print(error)\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in range(4)
        }
        assert outputs == {
            "relation e: tuple ('a', 'zz') has non-universe components\n"
            "invalid structure: relation e: tuple ('a', 'z') has non-universe components; "
            "relation e: tuple ('b', 'y') has non-universe components; "
            "relation e: tuple ('z', 'a') has non-universe components\n"
        }


def _made_by(how: str):
    """A structure made the way ``how`` names, with a weight table ``wt``."""
    from wsq.fnn import fnn_from_json, pad, with_input, without_edge

    doc = {
        "nodes": [{"name": "u"}, {"name": "v", "bias": "1"}],
        "edges": [{"from": "u", "to": "v", "weight": "3"}],
        "input_order": ["u"],
        "output_order": ["v"],
    }
    graph = WeightedStructure.build(["a", "b"], weights={"wt": (2, {("a", "b"): 3})})
    return {
        "build": lambda: graph,
        "expand": lambda: graph.expand(relations={"mark": (1, [("a",)])}),
        "structure_from_json": lambda: structure_from_json(structure_to_json(graph)),
        "fnn_from_json": lambda: fnn_from_json(doc).structure,
        "with_input": lambda: with_input(fnn_from_json(doc), [1]),
        "pad": lambda: pad(fnn_from_json(doc), ("u", "v"), 2).structure,
        "without_edge": lambda: without_edge(fnn_from_json(doc).structure, ("u", "v")),
    }[how]()


MAKERS = ["build", "expand", "structure_from_json", "fnn_from_json", "with_input", "pad", "without_edge"]


class TestReadOnly:
    """Every structure wsq hands out has read-only tables."""

    @pytest.mark.parametrize("how", MAKERS)
    def test_tables_refuse_writes(self, how):
        s = _made_by(how)
        writes = [
            lambda: setitem(s.weights, "g", {}),
            lambda: delitem(s.weights, "wt"),
            lambda: setitem(s.weights["wt"], ("a",), "junk"),
            lambda: delitem(s.weights["wt"], ("u", "v")),
            lambda: setitem(s.relations, "r", frozenset()),
            lambda: setitem(s.vocabulary.weights, "wt", 3),
            lambda: setitem(s.vocabulary.relations, "r", 1),
        ]
        before = structure_to_json(s)
        for write in writes:
            with pytest.raises(TypeError):
                write()
        assert structure_to_json(s) == before

    @pytest.mark.parametrize("how", MAKERS)
    def test_structures_are_not_hashable(self, how):
        with pytest.raises(TypeError, match="^unhashable type: 'WeightedStructure'$"):
            hash(_made_by(how))

    def test_network_edges_are_the_read_only_table(self):
        from wsq.fnn import load_fnn

        net = load_fnn(str(Path(__file__).parent / "data" / "two_node.fnn.json"))
        assert net.edges is net.structure.weights["wt"]
        with pytest.raises(TypeError):
            net.edges[("u", "v")] = rational(5)

    def test_a_junk_weight_cannot_be_written(self):
        # before, the write went through and f(x) + 1 ended in AttributeError
        from wsq.evaluator import evaluate
        from wsq.syntax import parse

        s = WeightedStructure.build(["a"], weights={"f": (1, {("a",): 2})})
        with pytest.raises(TypeError):
            s.weights["f"][("a",)] = "junk"
        assert evaluate(parse("f(x) + 1"), s, {"x": "a"}) == rational(3)

    def test_a_vocabulary_write_cannot_change_an_answer(self):
        # before, declaring wt as a 3-ary symbol made the query answer bot
        from wsq.evaluator import evaluate
        from wsq.syntax import parse

        graph = WeightedStructure.build(["a", "b"], weights={"wt": (2, {("a", "b"): 3})})
        with pytest.raises(TypeError):
            graph.vocabulary.weights["wt"] = 3
        assert evaluate(parse("sum {x, y : wt(x, y) != bot} wt(x, y)"), graph) == rational(3)
