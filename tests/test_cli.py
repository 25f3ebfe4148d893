"""Command-line interface: golden outputs, exit codes, REPL scripting."""

import decimal
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from randgen import path_net
from wsq.cli import Repl, main
from wsq.evaluator import EvalLimits
from wsq.fnn import save_fnn
from wsq.numerics import MAX_DIGITS

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

CLAMP = str(DATA / "clamp.fnn.json")
UNDECODABLE = b"\xff\xfe{"
DEEP = b"[" * 100_000
CANCEL = str(DATA / "cancel.fnn.json")
TWO_NODE = str(DATA / "two_node.fnn.json")
GRAPH = str(DATA / "graph.json")


def _digits(n: int) -> str:
    """``str(n)`` without Python's digit limit."""
    return str(decimal.Decimal(n))


def wsq(*args, stdin=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "wsq", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=timeout,
    )


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


# what FnnStructure says of graph.json, which has no network vocabulary
NOT_A_NETWORK = (
    "not a valid FNN: vocabulary: weight symbol bias(1) required; "
    "vocabulary: relation symbol le_in(2) required; vocabulary: relation symbol le_out(2) required"
)


def _structure_file_of(network_file: str, tmp_path) -> str:
    """The network of ``network_file`` saved as a structure file."""
    from wsq.fnn import fnn_from_json
    from wsq.structures import read_json, save_structure

    path = str(tmp_path / "net.structure.json")
    save_structure(fnn_from_json(read_json(network_file)).structure, path)
    return path


class TestEval:
    def test_eval_node_builtin_with_input(self):
        result = wsq("eval", CLAMP, "builtin:eval_node", "--input", "5")
        assert result.returncode == 0
        assert result.stdout == "1\n"

    def test_universe_count(self):
        result = wsq("eval", GRAPH, "count {x : x = x}")
        assert (result.returncode, result.stdout) == (0, "4\n")

    def test_bindings(self):
        result = wsq(
            "eval", GRAPH, "builtin:min_wt_triangle",
            "--bind", "x=a", "--bind", "y=b", "--bind", "z=c",
        )
        assert (result.returncode, result.stdout) == (0, "true\n")

    def test_json_mode_golden(self):
        result = wsq("eval", CLAMP, "builtin:weights_count", "--json")
        assert result.returncode == 0
        assert result.stdout == golden("eval_weights_json.txt")
        payload = json.loads(result.stdout)
        assert payload == {"kind": "term", "value": "7"}

    def test_plain_output_matches_library_rendering(self):
        from wsq import evaluate, load_structure, parse

        query_text = "sum {x, y : wt(x, y) != bot} wt(x, y)"
        result = wsq("eval", GRAPH, query_text)
        value = evaluate(parse(query_text), load_structure(GRAPH))
        assert result.stdout == f"{value}\n"

    def test_query_from_file(self, tmp_path):
        qfile = tmp_path / "q.wsq"
        qfile.write_text("count {x : x = x}")
        result = wsq("eval", GRAPH, str(qfile))
        assert (result.returncode, result.stdout) == (0, "4\n")

    def test_inline_query_wins_over_a_file_of_that_name(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "1").write_text("2")
        monkeypatch.chdir(tmp_path)
        assert main(["eval", GRAPH, "1"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_useless_edge_query_with_input_and_bindings(self):
        # at input 5 the h2 branch of the clamp is active: not useless
        result = wsq(
            "eval", CLAMP, "builtin:useless d=2",
            "--input", "5", "--bind", "x0=h2", "--bind", "y0=o",
        )
        assert (result.returncode, result.stdout) == (0, "false\n")
        # at input -1 every hidden unit is dead, so the edge drops out
        result = wsq(
            "eval", CLAMP, "builtin:useless d=2",
            "--input", "-1", "--bind", "x0=h2", "--bind", "y0=o",
        )
        assert (result.returncode, result.stdout) == (0, "true\n")


    def test_input_on_a_network_written_as_a_structure_file(self, tmp_path, capsys):
        path = _structure_file_of(CLAMP, tmp_path)
        assert main(["eval", CLAMP, "builtin:eval_node", "--input", "3"]) == 0
        from_network = capsys.readouterr()
        assert main(["eval", path, "builtin:eval_node", "--input", "3"]) == 0
        assert capsys.readouterr() == from_network == ("1\n", "")

    def test_input_on_a_structure_that_is_no_network_is_two(self, capsys):
        assert main(["eval", GRAPH, "builtin:eval_node", "--input", "3"]) == 2
        assert capsys.readouterr() == ("", f"error: {GRAPH}: {NOT_A_NETWORK}\n")


class TestExitCodes:
    def test_success_is_zero(self):
        assert wsq("eval", GRAPH, "1 + 1").returncode == 0

    def test_parse_error_is_one(self):
        result = wsq("eval", GRAPH, "1 +")
        assert result.returncode == 1
        assert "error" in result.stderr

    def test_literal_beyond_the_digit_limit_is_one(self, capsys):
        # one digit more than 2^MAX_BITS - 1 has
        text = "1 + " + "9" * (MAX_DIGITS + 1)
        assert main(["eval", GRAPH, text]) == 1
        message = f"number too long ({MAX_DIGITS + 1} characters) (line 1, column 5)"
        assert capsys.readouterr() == ("", f"error: query error: {message}\n")

    @pytest.mark.parametrize("where", ["input", "integrate_bound", "string_weight", "json_integer_weight"])
    def test_number_beyond_the_digit_limit_is_two(self, tmp_path, capsys, where):
        digits = "9" * (MAX_DIGITS + 1)
        too_long = f"number too long ({MAX_DIGITS + 1} characters)"
        if where == "input":
            argv, message = ["eval", CLAMP, "builtin:eval_node", "--input", digits], f"bad input value: {too_long}"
        elif where == "integrate_bound":
            argv, message = ["fnn", "integrate", CLAMP, "--lo", "0", "--hi", digits], f"bad input value: {too_long}"
        else:
            doc = json.loads(Path(GRAPH).read_text())
            doc["weights"]["wt"]["values"][0]["value"] = "@"
            path = tmp_path / "graph.json"
            as_string = where == "string_weight"
            path.write_text(json.dumps(doc).replace('"@"', f'"{digits}"' if as_string else digits))
            argv = ["eval", str(path), "1"]
            message = f"{path}: weight 'wt': {too_long}" if as_string else f"{path}: {too_long}"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_result_past_pythons_digit_limit_prints(self, tmp_path, capsys):
        # 2^(2^14) has 4 933 digits and half * half 5 800, past the 4 300
        # Python prints by default; within the bit bound, each prints in full
        path = tmp_path / "path14.json"
        save_fnn(path_net(14), str(path))
        half = "9" * 2900
        square = _digits((10**2900 - 1) ** 2)
        net = json.loads(Path(TWO_NODE).read_text())
        net["edges"][0]["weight"] = half
        (tmp_path / "big.fnn.json").write_text(json.dumps(net))
        # two layers of weight `half`: the slope of the one piece is their product
        net = {
            "nodes": [{"name": "u"}, {"name": "h", "bias": "0"}, {"name": "o", "bias": "0"}],
            "edges": [{"from": "u", "to": "h", "weight": half}, {"from": "h", "to": "o", "weight": half}],
            "input_order": ["u"],
            "output_order": ["o"],
        }
        (tmp_path / "steep.fnn.json").write_text(json.dumps(net))
        for argv, out in (
            (["eval", str(path), "builtin:squaring", "--bind", "x=n14"], _digits(2 ** 2**14)),
            (["eval", GRAPH, f"{half} * {half}", "--json"], json.dumps({"kind": "term", "value": square})),
            (["fnn", "forward", str(tmp_path / "big.fnn.json"), "--input", half], _digits((10**2900 - 1) ** 2 + 1)),
            (["fnn", "pwl", str(tmp_path / "steep.fnn.json")], f"breakpoints: 0\n[-inf, 0]: 0\n[0, +inf]: {square}*x"),
        ):
            assert main(argv) == 0
            assert capsys.readouterr() == (out + "\n", "")
        assert len(_digits(2 ** 2**14)) == 4933

    def test_number_beyond_the_bit_budget_is_four(self, tmp_path):
        # 2^(2^40) is out of reach: round 20 of the squaring passes 2^20 bits
        path = tmp_path / "path40.json"
        save_fnn(path_net(40), str(path))
        result = wsq("eval", str(path), "builtin:squaring", "--bind", "x=n40", timeout=20)
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == f"error: '*' result exceeds {2**20} bits\n"

    def test_structure_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"universe": []}')
        assert wsq("eval", str(bad), "1").returncode == 2

    def test_binding_without_an_element_is_two(self, capsys):
        assert main(["eval", GRAPH, "e(x,y)", "--bind", "x"]) == 2
        assert capsys.readouterr() == ("", "error: bindings are VAR=ELEMENT, got 'x'\n")

    def test_symbol_both_relation_and_weight_in_a_file_is_two(self, tmp_path, capsys):
        doc = {
            "universe": ["a"],
            "relations": {"e": {"arity": 1, "tuples": [["a"]]}},
            "weights": {"e": {"arity": 1, "values": [{"tuple": ["a"], "value": "1"}]}},
        }
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", str(path), "1"]) == 2
        message = f"error: {path}: symbol names used as both relation and weight: ['e']\n"
        assert capsys.readouterr() == ("", message)

    def test_unreadable_structure_is_two(self):
        assert wsq("eval", "/nonexistent.json", "1").returncode == 2

    def test_unbound_variables_is_three(self):
        result = wsq("eval", GRAPH, "wt(x, y)")
        assert result.returncode == 3
        assert "unbound" in result.stderr

    def test_resource_cap_is_four(self):
        result = wsq("eval", GRAPH, "sum {x, y : x = x} 1", "--max-summands", "3")
        assert result.returncode == 4

    @pytest.mark.parametrize(
        "args, wording",
        [
            (("eval", GRAPH, "sum {x : x = x} 1", "--max-summands", "-1"), "a non-negative integer"),
            (("eval", GRAPH, "1", "--max-fixpoint-cells", "-1"), "a non-negative integer"),
            (("fnn", "pwl", CLAMP, "--max-pwl-pieces", "-5"), "a non-negative integer"),
            (("eval", GRAPH, "sum {x : x = x} 1", "--max-summands", "\u0663"), "an integer"),
            (("eval", GRAPH, "sum {x : x = x} 1", "--max-summands", "1_0"), "an integer"),
            (("fnn", "pad", TWO_NODE, "--edge", "u,v", "--out", os.devnull, "--k", "\u0662"), "an integer"),
            (("fnn", "pad", TWO_NODE, "--edge", "u,v", "--out", os.devnull, "--k", "1_0"), "an integer"),
        ],
        ids=[
            "max_summands",
            "max_fixpoint_cells",
            "max_pwl_pieces",
            "max_summands_non_ascii_digit",
            "max_summands_underscore",
            "k_non_ascii_digit",
            "k_underscore",
        ],
    )
    def test_negative_budget_is_two(self, capsys, args, wording):
        # counts take ASCII digits only: int() would read both '\u0663' and '1_0'
        with pytest.raises(SystemExit) as exit_:
            main(list(args))
        assert exit_.value.code == 2
        message = f"argument {args[-2]}: takes {wording}, got '{args[-1]}'"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["\u0663", "1_0"], ids=["non_ascii_digit", "underscore"])
    def test_builtin_parameter_takes_ascii_digits(self, capsys, value):
        assert main(["eval", CLAMP, f"builtin:eval d={value} i=1", "--input", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: query error: parameter 'd' takes an integer, got '{value}'\n"

    @pytest.mark.parametrize("content", [UNDECODABLE, DEEP], ids=["undecodable", "deep"])
    @pytest.mark.parametrize(
        "command",
        [("eval", "{}", "1"), ("fnn", "validate", "{}"), ("fnn", "forward", "{}", "--input", "1")],
        ids=["eval", "fnn_validate", "fnn_forward"],
    )
    def test_unreadable_file_is_two(self, tmp_path, capsys, command, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        assert main([arg.format(path) for arg in command]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {path}: not valid JSON: ")
        assert "Traceback" not in err

    def test_missing_file_is_named_once(self, tmp_path, capsys):
        path = tmp_path / "nosuch.json"
        assert main(["eval", str(path), "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {path}: No such file or directory\n"
        assert err.count("nosuch.json") == 1

    def test_undecodable_query_file_is_one(self, tmp_path, capsys):
        path = tmp_path / "q.wsq"
        path.write_bytes(UNDECODABLE)
        assert main(["eval", GRAPH, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cannot read query file: ")
        assert err.startswith(f"error: cannot read query file: {path}: 'utf-8' codec can't decode")

    def test_text_that_parses_nowhere_reports_its_parse_error(self, tmp_path, monkeypatch, capsys):
        # no file of that name, or only a directory: the text's own error
        (tmp_path / "dird").mkdir()
        monkeypatch.chdir(tmp_path)
        for text in ("dird", "nosuch"):
            assert main(["eval", GRAPH, text]) == 1
            assert capsys.readouterr().err == (
                f"error: query error: a bare variable ('{text}') is not a query (line 1, column 1)\n"
            )

    @pytest.mark.parametrize(
        "query, message",
        [
            ("f(x) + sum {y : p(y)} f(y, y)", "symbol 'f' used with arities 1 and 2"),
            ("e(x, x) and e(x, x) = 1", "symbol 'e' used as both relation and weight function"),
        ],
        ids=["arities", "kinds"],
    )
    def test_symbol_misuse_is_one_for_eval_and_check(self, capsys, query, message):
        assert main(["eval", GRAPH, query, "--bind", "x=a"]) == 1
        assert capsys.readouterr() == ("", f"error: query error: {message}\n")
        assert main(["check", query]) == 1
        assert capsys.readouterr() == ("", f"error: query error: {message}\n")

    @pytest.mark.parametrize(
        "args",
        [
            ("fnn", "forward", CLAMP, "--input", "\u0663"),
            ("eval", CLAMP, "builtin:eval_node", "--input", "\u0663"),
        ],
        ids=["fnn_forward", "eval"],
    )
    def test_non_ascii_digit_input_is_two(self, capsys, args):
        assert main(list(args)) == 2
        err = capsys.readouterr().err
        assert err == "error: bad input value: not a rational literal: '\u0663'\n"

    @pytest.mark.parametrize("command", ["eval", "check"])
    @pytest.mark.parametrize(
        "query",
        ["(" * 2000 + "1" + ")" * 2000, " + ".join(["1"] * 3000), "builtin:eval d=400", "builtin:eval d=2000"],
        ids=["parentheses", "chain", "deep_template", "deeper_template"],
    )
    def test_deep_expression_is_four(self, command, query):
        args = ("eval", CLAMP, query, "--input", "5") if command == "eval" else ("check", query)
        result = wsq(*args)
        assert result.returncode == 4
        assert result.stderr == "error: expression too deeply nested\n"
        assert "Traceback" not in result.stderr


class TestCheck:
    def test_squaring_golden(self):
        result = wsq("check", "builtin:squaring")
        assert result.returncode == 0
        assert result.stdout == golden("check_squaring.txt")

    def test_eval_node_golden(self):
        result = wsq("check", "builtin:eval_node")
        assert result.returncode == 0
        assert result.stdout == golden("check_eval_node.txt")

    def test_plain_sum_is_scalar(self):
        result = wsq("check", "sum {x : x = x} 1")
        assert "in sIFP(SUM)" in result.stdout
        assert "NOT" not in result.stdout

    def test_parse_error_exit(self):
        assert wsq("check", "sum {x").returncode == 1

    def test_repeated_breach_reported_once(self, capsys):
        # the two products are one node object of the parse
        assert main(["check", "ifp (F(x) <- F(x) * F(x) + F(x) * F(x)) (x)"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "NOT in sIFP(SUM): multiplication of two intensional subterms at line 1, column 19"


class TestFnn:
    def test_validate_ok(self):
        result = wsq("fnn", "validate", CLAMP)
        assert (result.returncode, result.stdout) == (0, "ok\n")

    def test_validate_reports_violations(self, tmp_path):
        doc = json.loads(Path(CLAMP).read_text())
        doc["nodes"][0]["bias"] = "1"
        bad = tmp_path / "bad.fnn.json"
        bad.write_text(json.dumps(doc))
        result = wsq("fnn", "validate", str(bad))
        assert result.returncode == 2
        assert "bias iff input" in result.stdout

    def test_validate_names_a_transitivity_witness(self, tmp_path):
        from wsq.structures import WeightedStructure, save_structure

        # a <= b <= c <= a over three inputs feeding one output
        s = WeightedStructure.build(
            ["a", "b", "c", "o"],
            relations={
                "le_in": (2, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "a")]),
                "le_out": (2, [("o", "o")]),
            },
            weights={"wt": (2, {(u, "o"): 1 for u in "abc"}), "bias": (1, {("o",): 0})},
        )
        path = tmp_path / "cyclic_order.json"
        save_structure(s, str(path))
        result = wsq("fnn", "validate", str(path))
        assert result.returncode == 2
        assert result.stdout == "le_in: transitivity fails on (b,c,a)\n"

    def test_forward(self):
        result = wsq("fnn", "forward", TWO_NODE, "--input", "2")
        assert (result.returncode, result.stdout) == (0, "7\n")

    def test_pwl_golden(self):
        result = wsq("fnn", "pwl", CLAMP)
        assert result.stdout == golden("fnn_pwl_clamp.txt")

    def test_integrate(self):
        result = wsq("fnn", "integrate", CLAMP, "--lo", "0", "--hi", "2")
        assert (result.returncode, result.stdout) == (0, "3/2\n")

    def test_zero(self):
        assert wsq("fnn", "zero", CANCEL).stdout == "true\n"
        assert wsq("fnn", "zero", CLAMP).stdout == "false\n"

    def test_pad_round_trip(self, tmp_path):
        out = tmp_path / "padded.fnn.json"
        result = wsq("fnn", "pad", TWO_NODE, "--edge", "u,v", "--k", "3", "--out", str(out))
        assert result.returncode == 0
        before = wsq("fnn", "forward", TWO_NODE, "--input", "2").stdout
        after = wsq("fnn", "forward", str(out), "--input", "2").stdout
        assert before == after == "7\n"

    def test_resource_cap_is_four(self):
        result = wsq("fnn", "pwl", CLAMP, "--max-pwl-pieces", "1")
        assert result.returncode == 4

    @pytest.mark.parametrize(
        "command, extra", [("integrate", ("--lo", "0", "--hi", "2")), ("zero", ())]
    )
    def test_piece_cap_reaches_every_pwl_command(self, capsys, command, extra):
        assert main(["fnn", command, CLAMP, *extra, "--max-pwl-pieces", "1"]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("validate", ()),
            ("forward", ("--input", "5")),
            ("pad", ("--edge", "u,v", "--k", "2", "--out", "x")),
        ],
    )
    def test_piece_cap_only_where_pieces_are_built(self, capsys, command, extra):
        with pytest.raises(SystemExit) as exit_:
            main(["fnn", command, TWO_NODE, *extra, "--max-pwl-pieces", "1"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --max-pwl-pieces 1" in capsys.readouterr().err

    def test_pad_edge_without_a_comma_is_two(self, tmp_path, capsys):
        args = ["fnn", "pad", TWO_NODE, "--edge", "a", "--k", "2", "--out", str(tmp_path / "x.json")]
        assert main(args) == 2
        assert capsys.readouterr() == ("", "error: --edge takes FROM,TO\n")

    def test_pwl_prints_a_negative_intercept(self, tmp_path, capsys):
        doc = json.loads(Path(TWO_NODE).read_text())
        doc["nodes"][1]["bias"] = "-3"
        doc["edges"][0]["weight"] = "1"
        path = tmp_path / "shifted.fnn.json"
        path.write_text(json.dumps(doc))
        assert main(["fnn", "pwl", str(path)]) == 0
        assert capsys.readouterr().out == "breakpoints: 0\n[-inf, 0]: -3\n[0, +inf]: x - 3\n"

    def test_pad_to_unwritable_path_is_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        args = ["fnn", "pad", TWO_NODE, "--edge", "u,v", "--k", "2", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


class TestRepl:
    def test_script_session(self):
        script = "\n".join(
            [
                f":load {GRAPH}",
                "count {x : x = x}",
                ":let t = 1/0",
                "t",
                ":check builtin:squaring",
                "nonsense here",
                "count {x : x = x}",
                ":quit",
            ]
        )
        result = wsq("repl", stdin=script + "\n")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert f"loaded structure {GRAPH} (4 elements)" in lines
        assert lines.count("4") == 2  # errors do not kill the loop
        assert "bot" in lines
        assert any("NOT in sIFP(SUM)" in line for line in lines)
        assert any(line.startswith("error:") for line in lines)

    def test_structure_argument_and_set(self):
        script = "\n".join(
            [
                ":set format json",
                "count {x : x = x}",
                ":quit",
            ]
        )
        result = wsq("repl", GRAPH, stdin=script + "\n")
        assert '{"kind": "term", "value": "4"}' in result.stdout

    def test_network_input_via_set(self):
        script = "\n".join(
            [
                f":load {CLAMP}",
                ":set input 5",
                "builtin:eval_node",
                ":quit",
            ]
        )
        result = wsq("repl", stdin=script + "\n")
        assert "1" in result.stdout.splitlines()

    @pytest.mark.parametrize(
        "line, message",
        [
            (":set max-summands abc", "error: max-summands takes an integer, got 'abc'"),
            (":set max-fixpoint-cells 1.5", "error: max-fixpoint-cells takes an integer, got '1.5'"),
            (":set max-summands -3", "error: max-summands takes a non-negative integer, got '-3'"),
            (
                ":set max-fixpoint-cells -1",
                "error: max-fixpoint-cells takes a non-negative integer, got '-1'",
            ),
            (":set input 1,x", "error: bad input value: not a rational literal: 'x'"),
            (":set max-pwl-pieces 5", "error: unknown option 'max-pwl-pieces'"),
            (":set max-summands \u0663", "error: max-summands takes an integer, got '\u0663'"),
            (":set max-fixpoint-cells 1_0", "error: max-fixpoint-cells takes an integer, got '1_0'"),
        ],
    )
    def test_bad_set_value_keeps_the_session(self, line, message):
        script = "\n".join([f":load {CLAMP}", line, "count {x : x = x}", ":quit"])
        out = io.StringIO()
        assert Repl(io.StringIO(script + "\n"), out).run() == 0
        assert out.getvalue().splitlines()[1:] == [message, "4"]

    @pytest.mark.parametrize("content", [UNDECODABLE, DEEP], ids=["undecodable", "deep"])
    def test_bad_load_keeps_the_session(self, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        script = "\n".join([f":load {GRAPH}", f":load {path}", "count {x : x = x}", ":quit"])
        out = io.StringIO()
        assert Repl(io.StringIO(script + "\n"), out).run() == 0
        lines = out.getvalue().splitlines()
        assert lines[1].startswith(f"error: {path}: not valid JSON: ")
        assert lines[2:] == ["4"]

    def test_too_long_numbers_keep_the_session(self):
        half = "9" * 2900
        script = [f":load {CLAMP}", f":set input {'9' * (MAX_DIGITS + 1)}", f"{half} * {half}", "count {x : x = x}"]
        out = io.StringIO()
        assert Repl(io.StringIO("\n".join(script) + "\n"), out).run() == 0
        assert out.getvalue().splitlines()[1:] == [
            f"error: bad input value: number too long ({MAX_DIGITS + 1} characters)",
            _digits((10**2900 - 1) ** 2),
            "4",
        ]

    def test_input_via_set_on_a_network_written_as_a_structure_file(self, tmp_path):
        path = _structure_file_of(CLAMP, tmp_path)
        script = "\n".join([":set input 3", f":load {path}", ":set input 3", "builtin:eval_node"])
        out = io.StringIO()
        assert Repl(io.StringIO(script + "\n"), out).run() == 0
        assert out.getvalue().splitlines() == [
            "error: load a network before :set input",
            f"loaded structure {path} (4 elements)",
            "ok",
            "1",
        ]

    def test_input_via_set_on_a_structure_that_is_no_network(self):
        script = "\n".join([f":load {GRAPH}", ":set input 3", "count {x : x = x}"])
        out = io.StringIO()
        assert Repl(io.StringIO(script + "\n"), out).run() == 0
        assert out.getvalue().splitlines()[1:] == [f"error: {GRAPH}: {NOT_A_NETWORK}", "4"]

    def test_misused_commands_keep_the_session(self):
        script = [
            ":bogus",
            ":let = 1",
            ":set format xml",
            "count {x : x = x}",
            f":load{GRAPH}",
            f":load {GRAPH}",
            ":letx = 1",
            ":setformat json",
            " + ".join(["1"] * 3000),
            "count {x : x = x}",
            "x",
        ]
        out = io.StringIO()
        assert Repl(io.StringIO("\n".join(script) + "\n"), out).run() == 0
        assert out.getvalue().splitlines() == [
            "unknown command ':bogus'; :help lists commands",
            "error: :let NAME = QUERY",
            "error: format is plain or json",
            "error: no structure loaded (:load PATH)",
            f"unknown command ':load{GRAPH}'; :help lists commands",
            f"loaded structure {GRAPH} (4 elements)",
            "unknown command ':letx'; :help lists commands",
            "unknown command ':setformat'; :help lists commands",
            "error: expression too deeply nested",
            "4",
            "error: a bare variable ('x') is not a query (line 1, column 1)",
        ]

    def test_unbound_variables_are_reported_once(self):
        script = "\n".join([f":load {GRAPH}", "wt(x, y)", ":quit"])
        out = io.StringIO()
        assert Repl(io.StringIO(script + "\n"), out).run() == 0
        assert out.getvalue().splitlines()[1:] == ["error: unbound variables: x, y"]


class TestBudgets:
    """Each ``EvalLimits`` field is one ``wsq eval`` flag and one REPL ``:set`` key."""

    def test_fields(self):
        assert [f.name for f in fields(EvalLimits)] == ["max_fixpoint_cells", "max_summands"]
        assert EvalLimits() == EvalLimits(max_fixpoint_cells=10**6, max_summands=10**6)

    def test_eval_flags(self, capsys, monkeypatch):
        with pytest.raises(SystemExit):
            main(["eval", "--help"])
        assert sorted(set(re.findall(r"--max-[a-z-]+", capsys.readouterr().out))) == [
            "--max-fixpoint-cells",
            "--max-summands",
        ]
        seen = []
        # cli imports evaluate when the command runs, so patch it at its source
        monkeypatch.setattr("wsq.evaluator.evaluate", lambda query, structure, env, limits: seen.append(limits) or True)
        assert main(["eval", GRAPH, "1"]) == 0
        assert main(["eval", GRAPH, "1", "--max-fixpoint-cells", "7", "--max-summands", "8"]) == 0
        assert seen == [EvalLimits(), EvalLimits(max_fixpoint_cells=7, max_summands=8)]

    def test_repl_keys(self):
        out = io.StringIO()
        repl = Repl(io.StringIO(":help\n:set max-fixpoint-cells 7\n:set max-summands 8\n"), out)
        assert repl.run() == 0
        assert "  :set max-fixpoint-cells N | max-summands N" in out.getvalue().splitlines()
        assert repl.limits == EvalLimits(max_fixpoint_cells=7, max_summands=8)
