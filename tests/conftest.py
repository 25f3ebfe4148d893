"""Shared test setup: the ``python`` child processes the tests start import ``wsq`` from ``src``.

``pythonpath = ["src"]`` in ``pyproject.toml`` reaches only the pytest
process itself, so ``src`` also goes on ``PYTHONPATH`` for its children.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def parse_calls(monkeypatch) -> list:
    """The texts ``ExtRational.parse`` is called on during the test, in call order."""
    from wsq.numerics import ExtRational

    texts = []
    parse = ExtRational.parse
    monkeypatch.setattr(ExtRational, "parse", staticmethod(lambda text: texts.append(text) or parse(text)))
    return texts
