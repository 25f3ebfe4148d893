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
"""

from .errors import LoadError, ParseError, ResourceError, UsageError, WsqError
from .evaluator import EvalLimits, FixpointTable, Value, evaluate, ifp_iterate
from .fnn import (
    FnnStructure,
    Pwl,
    fnn_from_json,
    fnn_to_json,
    forward,
    load_fnn,
    node_values,
    pad,
    pwl_integral,
    save_fnn,
    to_pwl,
    validate_fnn,
    with_input,
    without_edge,
    zero_query,
)
from .numerics import BOT, ExtRational, arith, compare, rational, sum_all
from .queries import (
    BUILTINS,
    builtin_query,
    make_basic,
    make_eval,
    make_eval_node,
    make_integrate_2_1,
    make_squaring,
    make_useless,
)
from .structures import (
    Vocabulary,
    WeightedStructure,
    load_structure,
    save_structure,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from .syntax import (
    check_scalar_fragment,
    desugar,
    free_vars,
    parse,
    to_text,
    vocabulary_of,
)

__version__ = "0.1.0"
