"""Exact-arithmetic queries over weighted finite structures.

The package implements two query languages over finite structures whose
symbols include weight functions into the extended rationals: first-order
logic with a summation operator, and its extension by an inflationary
fixed-point operator.  Feedforward ReLU networks are first-class citizens
encoded as weighted structures, with independent forward and
piecewise-linear oracles cross-checking the logical semantics.

Quick start::

    >>> import wsq
    >>> s = wsq.WeightedStructure.build(
    ...     ["a", "b"], weights={"wt": (2, {("a", "b"): 3})})
    >>> wsq.evaluate(wsq.parse("sum {x, y : wt(x, y) != bot} wt(x, y)"), s)
    ExtRational('3')

Importing the package is lazy: a name loads its submodule on first use.
"""

import importlib as _importlib
import threading as _threading

# the submodule each public name is read from; a submodule is its own entry
_EXPORTS = {
    "errors": "EvalLimits LoadError ParseError ResourceError UsageError WsqError",
    "evaluator": "FixpointTable Value evaluate ifp_iterate",
    "fnn": "FnnStructure Pwl fnn_from_json fnn_to_json forward load_fnn node_values pad"
    " pwl_integral save_fnn to_pwl validate_fnn with_input without_edge zero_query",
    "numerics": "BOT ExtRational arith compare rational sum_all",
    "queries": "BUILTINS builtin_query make_basic make_eval make_eval_node make_integrate_2_1"
    " make_squaring make_useless",
    "structures": "Vocabulary WeightedStructure load_structure save_structure structure_from_json"
    " structure_to_json validate_structure",
    "syntax": "check_scalar_fragment desugar free_vars parse to_text vocabulary_of",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"

# one first import at a time: concurrent ones can deadlock in the syntax package
_LOCK = _threading.RLock()


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _LOCK:
        module = _importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
