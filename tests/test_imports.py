"""No module under ``src/wsq`` imports a name it never uses, defines a
private name nothing refers to, or stores an attribute nothing reads.
The network side of the package and a ``wsq fnn`` process never load the
query side (syntax, evaluator, query templates), and the lazy package
gives the same public names as the eager one did, and every syntax node
type has a compile route in the evaluator.

No linter ships with the toolchain, so these are small ``ast`` checks.
Package ``__init__.py`` files are skipped by the import check: they
import names to re-export them.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import wsq

SRC = Path(__file__).resolve().parent.parent / "src" / "wsq"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "from typing import Optional, Union\n"
        "import json, os.path\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return os.path.join('Union', 'json')\n"
    )
    assert _unused_imports(source) == ["Union (line 2)", "json (line 3)"]


SYNTAX = sorted((SRC / "syntax").glob("*.py"))


def _outside_functions(tree: ast.AST):
    """``ast.walk`` that does not enter function bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo += [c for c in ast.iter_child_nodes(node) if not isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _wsq_imports(path: Path, walk=ast.walk) -> list[str]:
    """The ``wsq`` modules a module imports, relative imports resolved;
    with ``walk=_outside_functions``, those it imports when it loads."""
    package = ["wsq", *path.parent.relative_to(SRC).parts]
    out = []
    for node in walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            out.append(".".join(base + ([node.module] if node.module else [])))
    return [name for name in out if name == "wsq" or name.startswith("wsq.")]


@pytest.mark.parametrize("path", SYNTAX, ids=lambda p: p.name)
def test_syntax_imports_only_syntax_and_errors(path):
    # the syntax package stays loadable without structures, networks or the
    # evaluator; it reads and writes number text through numerics, which
    # imports nothing of the package
    allowed = ("wsq.syntax", "wsq.errors", "wsq.numerics")
    outside = [name for name in _wsq_imports(path) if ".".join(name.split(".")[:2]) not in allowed]
    assert outside == []
    assert _wsq_imports(SRC / "numerics.py") == []


# Python's integer digit limit, which numerics alone works around
_DIGIT_LIMIT = ("get_int_max_str_digits", "set_int_max_str_digits")


def _number_rules(source: str) -> list[str]:
    """Where a module imports ``decimal``, names Python's integer digit
    limit, or assigns a bit bound (``MAX_BITS`` or ``_MAX_BITS``), by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "decimal" for a in node.names):
            found.append((node.lineno, "import decimal"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "decimal":
            found.append((node.lineno, "import decimal"))
        elif name in _DIGIT_LIMIT:
            found.append((node.lineno, name))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in (t for top in targets for t in ast.walk(top)):
                if getattr(target, "id", getattr(target, "attr", None)) in ("MAX_BITS", "_MAX_BITS"):
                    found.append((node.lineno, "bit bound"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_only_numerics_holds_the_number_rules(path):
    # the bit bound and number text are numerics' alone; no module sets
    # Python's digit limit, and numerics does not read it either
    found = _number_rules(path.read_text(encoding="utf-8"))
    if path.name == "numerics.py":
        assert sorted(set(site.split(" (")[0] for site in found)) == ["bit bound", "import decimal"]
    else:
        assert found == []


def test_the_number_rule_check_sees_each_rule():
    source = (
        "import sys, decimal\n"
        "from decimal import Decimal\n"
        "from . import numerics\n"
        "limit = sys.get_int_max_str_digits()\n"
        "numerics.MAX_BITS = 8\n"
        "_MAX_BITS: int = 2**20\n"
        "x = [set_int_max_str_digits]\n"
    )
    assert _number_rules(source) == [
        "import decimal (line 1)",
        "import decimal (line 2)",
        "get_int_max_str_digits (line 4)",
        "bit bound (line 5)",
        "bit bound (line 6)",
        "set_int_max_str_digits (line 7)",
    ]


# the texts of the node constructors' refusals, which only nodes.py holds
GRAMMAR_MESSAGES = (
    "unknown arithmetic operator",
    "unknown comparison operator",
    "unknown aggregate",
    "needs a body",
    "takes no body",
    "duplicate variable",
    "is applied to",
)


def _grammar_messages(source: str) -> list[str]:
    """Where a string in a module, an f-string's parts and docstrings
    included, holds a grammar message, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [f"{text} (line {node.lineno})" for text in GRAMMAR_MESSAGES if text in node.value]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_only_nodes_holds_the_grammar(path):
    # the node constructors refuse a malformed tree; the parser reports
    # their text and no other pass checks a node's shape again
    found = _grammar_messages(path.read_text(encoding="utf-8"))
    if path == SRC / "syntax" / "nodes.py":
        assert sorted(set(site.split(" (")[0] for site in found)) == sorted(GRAMMAR_MESSAGES)
    else:
        assert found == []


def test_the_grammar_rule_check_sees_a_planted_message():
    source = (
        "# duplicate variable, in a comment, is no message\n"
        "def check(vars_):\n"
        "    for var in vars_:\n"
        "        raise UsageError(f\"duplicate variable {var!r} in binder\")\n"
    )
    assert _grammar_messages(source) == ["duplicate variable (line 4)"]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _stack_rules(source: str) -> list[str]:
    """Where a module names ``RecursionError`` or deletes a nested function
    by name, by the top-level definition that holds it."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", f"line {top.lineno}")
        inner = [n for f in ast.walk(top) if isinstance(f, _FUNCTIONS) for n in ast.walk(f) if n is not f]
        nested = {n.name for n in inner if isinstance(n, _FUNCTIONS[:2])}
        for node in ast.walk(top):
            if getattr(node, "id", getattr(node, "attr", None)) == "RecursionError":
                found.append(f"RecursionError in {where}")
            elif isinstance(node, ast.Delete):
                names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                found += [f"del {name} in {where}" for name in names if name in nested]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_only_errors_holds_the_stack_rule(path):
    # errors.depth_guard alone turns a RecursionError into a resource error;
    # read_json's clause is about JSON nesting in a file (exit 2). A pass
    # recurses through module-level helpers, so no closure needs deleting.
    expected = {"errors.py": ["RecursionError in depth_guard"], "structures.py": ["RecursionError in read_json"]}
    assert _stack_rules(path.read_text(encoding="utf-8")) == expected.get(path.name, [])


def test_the_stack_rule_check_sees_each_rule():
    source = (
        "import builtins\n"
        "def f(e):\n"
        "    def go(n):\n"
        "        return go(n)\n"
        "    try:\n"
        "        return go(e)\n"
        "    except RecursionError:\n"
        "        raise\n"
        "    finally:\n"
        "        del go\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        del x\n"
        "        return builtins.RecursionError\n"
        "    def n(self):\n"
        "        def a(): pass\n"
        "        def b(): pass\n"
        "        del a, b\n"
        "del f\n"
    )
    assert _stack_rules(source) == [
        "RecursionError in C",
        "RecursionError in f",
        "del a in C",
        "del b in C",
        "del go in f",
    ]


def test_the_layering_check_resolves_relative_imports():
    assert _wsq_imports(SRC / "syntax" / "parser.py") == ["wsq.errors", "wsq.numerics", "wsq.syntax.nodes"]
    assert "wsq.structures" in _wsq_imports(SRC / "evaluator.py")


# what a network command needs never loads the front end of the query language
QUERY_SIDE = ("wsq.syntax", "wsq.evaluator", "wsq.queries")
NETWORK_SIDE = ["errors.py", "numerics.py", "structures.py", "fnn.py"]


def _query_side(names: list[str]) -> list[str]:
    return [name for name in names if name.startswith(QUERY_SIDE)]


@pytest.mark.parametrize("name", NETWORK_SIDE)
def test_network_side_imports_nothing_of_the_query_side(name):
    assert _query_side(_wsq_imports(SRC / name)) == []


def test_cli_imports_the_query_side_only_inside_functions():
    path = SRC / "cli.py"
    assert _query_side(_wsq_imports(path, _outside_functions)) == []
    assert sorted(set(_query_side(_wsq_imports(path)))) == ["wsq.evaluator", "wsq.queries", "wsq.syntax"]


def test_the_load_time_walk_skips_function_bodies():
    tree = ast.parse("import a\ndef f():\n    import b\nclass C:\n    def g(self):\n        import c\n")
    found = [n.names[0].name for n in _outside_functions(tree) if isinstance(n, ast.Import)]
    assert found == ["a"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["-c", "import wsq"], ("wsq.errors", *QUERY_SIDE, "wsq.fnn")),
        (["-c", "import wsq.fnn"], QUERY_SIDE),
        (["-m", "wsq", "fnn", "validate", str(TESTS / "data" / "clamp.fnn.json")], QUERY_SIDE),
        (["-m", "wsq", "check", "sum {x : e(x, x)} 1"], ("wsq.evaluator", "wsq.queries")),
        (["-m", "wsq", "eval", str(TESTS / "data" / "graph.json"), "sum {x : x = x} 1"], ("wsq.queries",)),
    ],
    ids=["import wsq", "import wsq.fnn", "fnn validate", "check", "eval"],
)
def test_a_process_loads_only_what_it_runs(argv, absent):
    # -X importtime names every module the process imports, on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "wsq" in loaded
    assert sorted(name for name in loaded if name.startswith(absent)) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _dead_names(defining: dict[str, str], readers: list[str]) -> list[str]:
    """Private functions, classes and module constants defined in the
    ``defining`` sources (label to text) that no source in ``readers``
    names, and attributes stored on ``self`` there that none reads.

    A name counts as named when it is loaded, read as an attribute,
    imported, or passed as a string to a call (``monkeypatch.setattr``,
    ``getattr``); a ``__slots__`` entry does not count.
    """
    found: dict[tuple, str] = {}
    for label, source in defining.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name) and _is_private(name.id):
                        found.setdefault(("name", name.id), f"{label}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name):
                found.setdefault(("name", node.name), f"{label}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.setdefault(("attribute", node.attr), f"{label}:{node.lineno}")
    names, attributes = set(), set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Call):
                attributes.update(a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    named = {"name": names | attributes, "attribute": attributes}
    return [f"{where} {name}" for (kind, name), where in found.items() if name not in named[kind]]


def test_no_dead_private_names_or_attributes():
    defining = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8") for p in sorted(SRC.rglob("*.py"))}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.rglob("*.py"))]
    assert _dead_names(defining, [*defining.values(), *tests]) == []


def test_the_dead_name_check_sees_leftovers():
    source = (
        "_USED, _UNUSED = 1, 2\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Box:\n"
        "    __slots__ = ('kept', 'loops', 'patched')\n"
        "    def __init__(self):\n"
        "        self.kept = _helper()\n"
        "        self.loops = 0\n"
        "        self.loops |= 1\n"
        "        self.patched = None\n"
        "    def _read(self):\n"
        "        return self.kept\n"
    )
    test = "from m import _Box\nbox = _Box()\nbox._read()\nassert getattr(box, 'patched') is None\n"
    assert _dead_names({"m.py": source}, [source, test]) == ["m.py:1 _UNUSED", "m.py:4 _orphan", "m.py:10 loops"]


# ``from wsq import *`` before the package became lazy: each name by the
# module the package imported it from, and the submodules those imports loaded
PUBLIC = {
    "errors": "LoadError ParseError ResourceError UsageError WsqError",
    "evaluator": "EvalLimits FixpointTable Value evaluate ifp_iterate",
    "fnn": "FnnStructure Pwl fnn_from_json fnn_to_json forward load_fnn node_values pad pwl_integral"
    " save_fnn to_pwl validate_fnn with_input without_edge zero_query",
    "numerics": "BOT ExtRational arith compare rational sum_all",
    "queries": "BUILTINS builtin_query make_basic make_eval make_eval_node make_integrate_2_1"
    " make_squaring make_useless",
    "structures": "Vocabulary WeightedStructure load_structure save_structure structure_from_json"
    " structure_to_json validate_structure",
    "syntax": "check_scalar_fragment desugar free_vars parse to_text vocabulary_of",
}


class TestPublicSurface:
    def test_star_import_gives_the_same_names(self):
        expected = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names.split())])
        assert len(expected) == 59
        assert sorted(wsq.__all__) == expected
        namespace = {}
        exec("from wsq import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == expected

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_each_name_is_its_modules_object(self, module):
        source = importlib.import_module(f"wsq.{module}")
        assert getattr(wsq, module) is source
        for name in PUBLIC[module].split():
            assert getattr(wsq, name) is getattr(source, name), name

    def test_dir_and_version(self):
        assert set(wsq.__all__) | {"__version__"} <= set(dir(wsq))
        assert wsq.__version__ == "0.1.0"

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'wsq' has no attribute 'no_such_name'$"):
            wsq.no_such_name
        assert not hasattr(wsq, "cli_main")

    @pytest.mark.parametrize(
        "names, touch",
        [
            ("__import__('wsq').__all__", "getattr(sys.modules['wsq'], n)"),
            # the eager package failed here in most runs, with a deadlock in the import system
            ("['syntax', 'evaluator', 'queries', 'syntax.parser']", "importlib.import_module('wsq.' + n)"),
        ],
        ids=["names", "modules"],
    )
    def test_threads_that_first_touch_different_names_get_the_same_objects(self, names, touch):
        # a fresh process, so every thread's first access loads the modules
        script = (
            "import importlib, sys, threading\n"
            f"names = {names}\n"
            "assert [m for m in sys.modules if m.startswith('wsq.')] == []\n"
            "barrier, seen = threading.Barrier(4), [None] * 4\n"
            "def touch(i):\n"
            "    barrier.wait()\n"
            "    order = names[i * len(names) // 4 :] + names[: i * len(names) // 4]\n"
            f"    seen[i] = {{n: {touch} for n in order}}\n"
            "threads = [threading.Thread(target=touch, args=(i,)) for i in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            f"assert all(s[n] is {touch} for s in seen for n in names)\n"
            "print('same')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "same\n", "")


class TestCompileRoutes:
    def test_every_node_type_has_one_compile_route(self):
        # a generic atom is settled by the compiler's leaf branch; every
        # other node type compiles through its entry in the dispatch table
        from wsq import evaluator
        from wsq.syntax import nodes

        assert nodes.Atom not in evaluator._COMPILE
        assert {*evaluator._COMPILE, nodes.Atom} == set(nodes._CHILD_FIELDS)
