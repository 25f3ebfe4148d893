"""Exception hierarchy shared across the package, and the evaluation budgets.

Semantic undefinedness is a *value* (``wsq.numerics.BOT``), never an
exception.  Exceptions are reserved for misuse of the API, malformed input
files, and exceeded resource budgets (:class:`EvalLimits`, kept here so the
command line reads its fields without loading the evaluator), the Python
stack included (:func:`depth_guard`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps


class WsqError(Exception):
    """Base class for all package-specific errors."""


class UsageError(WsqError):
    """A caller violated an operation's precondition.

    Examples: unknown symbol, arity mismatch in a direct lookup, unbound
    free variables at evaluation time, expanding a structure with a
    clashing symbol name.
    """


class ParseError(WsqError):
    """Lexical or syntactic error in query text.

    Carries a 1-based (line, column) position when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class LoadError(WsqError):
    """A structure or network file violates its file-format contract."""


class ResourceError(WsqError):
    """A configured resource budget was exceeded.

    Raised instead of returning a wrong or truncated answer.
    """


# The ResourceError text for an expression nested past the Python stack.
TOO_DEEP = "expression too deeply nested"


def depth_guard(fn):
    """``fn`` with a ``RecursionError`` that escapes it raised as
    ``ResourceError(TOO_DEEP)``; every public pass over an expression
    wears it, the one rule for input nested past the Python stack."""

    @wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise ResourceError(TOO_DEEP) from None

    return guarded


@dataclass
class EvalLimits:
    """Budgets that turn oversized evaluations into resource errors."""

    max_fixpoint_cells: int = 10**6
    max_summands: int = 10**6
