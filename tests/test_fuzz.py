"""Fuzzing the command line: mutated query text, mutated structure and
network documents, and mutated bytes of their files must end in an answer
or a documented exit code (0-4), never in an exception."""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wsq.cli import main

STRUCTURE = {
    "universe": ["a", "b", "c"],
    "relations": {"e": {"arity": 2, "tuples": [["a", "b"], ["b", "c"]]}},
    "weights": {
        "w": {
            "arity": 2,
            "values": [{"tuple": ["a", "b"], "value": "1/2"}, {"tuple": ["b", "c"], "value": 3}],
        },
        "f": {"arity": 1, "values": [{"tuple": ["a"], "value": "-2"}]},
    },
}

NETWORK = {
    "nodes": [{"name": "u"}, {"name": "h", "bias": "-1"}, {"name": "o", "bias": "0"}],
    "edges": [
        {"from": "u", "to": "h", "weight": "1"},
        {"from": "h", "to": "o", "weight": "-1/2"},
        {"from": "u", "to": "o", "weight": "2"},
    ],
    "input_order": ["u"],
    "output_order": ["o"],
}

QUERIES = [
    "sum {x, y : e(x, y)} w(x, y)",
    "max {x : f(x) != bot} f(x)",
    "forall x (e(x, x) -> exists y w(x, y) != bot)",
    "ifp (F(x) <- if not exists y e(y, x) then 1 else sum {y : e(y, x)} F(y)) (x)",
    "count {x, y : wt(x, y) != bot and le_in(x, x)}",
    "builtin:eval_node",
    "builtin:eval d=2 i=1",
]

TOKENS = [
    " ", "(", ")", "{", "}", ",", ":", "sum", "count", "avg", "min", "exists",
    "forall", "ifp", "F", "G", "x", "y", "z", "e", "w", "f", "wt", "bias", "bot",
    "not", "and", "or", "->", "<-", "=", "!=", "<=", "<", "+", "-", "*", "/",
    "0", "1", "1/2", "2.5", "if", "then", "else", "builtin:", "d=", "9",
]

KEYS = [
    "universe", "relations", "weights", "arity", "tuples", "values", "tuple", "value",
    "nodes", "edges", "name", "bias", "from", "to", "weight", "input_order",
    "output_order", "e", "w", "u", "o",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["a", "b", "u", "h", "o", "1/2", "bot", "x y", "", "-1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=5,
)


def _places(node, out):
    """Every (container, key) pair below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _places(child, out)
    return out


@st.composite
def mutated_documents(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        places = _places(doc, [])
        if not places:
            break
        container, key = places[draw(st.integers(0, len(places) - 1))]
        action = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
        if action == "replace":
            container[key] = draw(json_values)
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, draw(json_values))
        else:
            container[draw(st.sampled_from(KEYS))] = draw(json_values)
    return doc


@st.composite
def mutated_queries(draw):
    text = draw(st.sampled_from(QUERIES))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        end = draw(st.integers(at, min(len(text), at + 4)))
        text = text[:at] + draw(st.sampled_from(["", *TOKENS])) + text[end:]
    return text


def run(argv):
    """Return code of ``wsq`` on ``argv``, run in-process with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def documents():
    return mutated_documents(STRUCTURE) | mutated_documents(NETWORK)


LIMITS = ["--max-summands", "40", "--max-fixpoint-cells", "30"]


@settings(max_examples=150, deadline=None)
@given(doc=documents(), query=mutated_queries())
def test_eval_never_raises(tmp_path_factory, doc, query):
    path = tmp_path_factory.getbasetemp() / "fuzz_eval.json"
    path.write_text(json.dumps(doc))
    assert run(["eval", *LIMITS, "--", str(path), query]) in range(5)


@settings(max_examples=150, deadline=None)
@given(query=mutated_queries())
def test_check_never_raises(query):
    assert run(["check", "--", query]) in range(5)


@settings(max_examples=150, deadline=None)
@given(doc=documents())
def test_fnn_validate_never_raises(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_validate.json"
    path.write_text(json.dumps(doc))
    assert run(["fnn", "validate", str(path)]) in range(5)


@st.composite
def mutated_files(draw):
    """The bytes of a structure or network file, with bytes inserted or
    replaced (any byte value, 0x80-0xff included) and a run of ``[`` in
    front, which can make the file undecodable or nested too deeply."""
    data = bytearray(json.dumps(draw(st.sampled_from([STRUCTURE, NETWORK]))).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data) - 1))
        chunk = draw(st.binary(min_size=1, max_size=3))
        if draw(st.booleans()):
            data[at : at + len(chunk)] = chunk
        else:
            data[at:at] = chunk
    prefix = b"[" * draw(st.sampled_from([0, 0, 1, 500, 100_000]))
    return prefix + bytes(data)


@settings(max_examples=150, deadline=None)
@given(data=mutated_files(), query=st.sampled_from(QUERIES))
def test_file_bytes_never_raise(tmp_path_factory, data, query):
    path = tmp_path_factory.getbasetemp() / "fuzz_bytes.json"
    path.write_bytes(data)
    assert run(["eval", *LIMITS, "--", str(path), query]) in range(5)
    assert run(["fnn", "validate", str(path)]) in range(5)
