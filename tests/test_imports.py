"""No module under ``src/wsq`` imports a name it never uses.

No linter ships with the toolchain, so this is a small ``ast`` check.
Package ``__init__.py`` files are skipped: they import names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wsq"
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
