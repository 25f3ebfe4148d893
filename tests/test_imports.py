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
