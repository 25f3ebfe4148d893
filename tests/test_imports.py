"""No module under ``src/wsq`` imports a name it never uses, defines a
private name nothing refers to, or stores an attribute nothing reads.

No linter ships with the toolchain, so these are small ``ast`` checks.
Package ``__init__.py`` files are skipped by the import check: they
import names to re-export them.
"""

import ast
from pathlib import Path

import pytest

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


def _wsq_imports(path: Path) -> list[str]:
    """The ``wsq`` modules a module imports, relative imports resolved."""
    package = ["wsq", *path.parent.relative_to(SRC).parts]
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            out.append(".".join(base + ([node.module] if node.module else [])))
    return [name for name in out if name == "wsq" or name.startswith("wsq.")]


@pytest.mark.parametrize("path", SYNTAX, ids=lambda p: p.name)
def test_syntax_imports_only_syntax_and_errors(path):
    # the syntax package stays loadable without structures or numerics
    allowed = ("wsq.syntax", "wsq.errors")
    outside = [name for name in _wsq_imports(path) if ".".join(name.split(".")[:2]) not in allowed]
    assert outside == []


def test_the_layering_check_resolves_relative_imports():
    assert _wsq_imports(SRC / "syntax" / "parser.py") == ["wsq.errors", "wsq.syntax.nodes"]
    assert "wsq.structures" in _wsq_imports(SRC / "evaluator.py")


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
