"""Independent naive evaluator used as the semantics oracle in tests.

Deliberately written against the engine's grain: arithmetic works on
``Fraction | None`` (None for the undefined value) with its own helper
functions, quantifiers and sums materialize full assignment lists, and
fixed points thread a symbol-to-table mapping through the recursion
instead of expanding the structure.  Only the AST node classes, the
``UsageError`` type and the raw structure data are shared with the
package.
"""

from fractions import Fraction
from itertools import product

from wsq.errors import UsageError
from wsq.syntax.nodes import (
    Aggregate,
    And,
    Arith,
    Atom,
    BotConst,
    Compare,
    Cond,
    ElemEq,
    Exists,
    Forall,
    Formula,
    Ifp,
    Implies,
    Leq,
    Literal,
    Not,
    One,
    Or,
    RelAtom,
    Sum,
    WeightAtom,
    Zero,
    children,
)


def add(a, b):
    return None if a is None or b is None else a + b


def sub(a, b):
    return None if a is None or b is None else a - b


def mul(a, b):
    return None if a is None or b is None else a * b


def div(a, b):
    if a is None or b is None or b == 0:
        return None
    return a / b


def leq(a, b):
    """Total order with the undefined value below every rational."""
    if a is None:
        return True
    if b is None:
        return False
    return a <= b


def collect_symbols(expr):
    """(relations, weights, generics) used extensionally, name -> arity."""
    rels, wts, gens = {}, {}, {}

    def go(n, bound):
        if isinstance(n, RelAtom):
            rels[n.name] = len(n.args)
        elif isinstance(n, (WeightAtom, Atom)):
            if n.name not in bound:
                target = wts if isinstance(n, WeightAtom) else gens
                target[n.name] = len(n.args)
        if isinstance(n, Ifp):
            go(n.body, bound | {n.name})
        else:
            for child in children(n):
                go(child, bound)

    go(expr, frozenset())
    return rels, wts, gens


def positions(n):
    """(child, "formula" | "term") for each child of ``n``."""
    if isinstance(n, (Not, And, Or, Implies, Exists, Forall)):
        return [(c, "formula") for c in children(n)]
    if isinstance(n, Cond):
        return [(n.test, "formula"), (n.then, "term"), (n.otherwise, "term")]
    if isinstance(n, (Sum, Aggregate)):
        body = [] if n.body is None else [(n.body, "term")]
        return [(n.guard, "formula")] + body
    return [(c, "term") for c in children(n)]


def check_generic_atoms(structure, expr):
    """Reject a generic atom below the root that reads a table of the other
    kind: a relation in a term position, a weight or fixed point in a formula
    position.  Decided from the text, before any value is computed; a
    shared subterm is looked at once per position kind and binders."""
    voc = structure.vocabulary
    seen = set()

    def go(n, position, bound):
        if (id(n), position, bound) in seen:
            return
        seen.add((id(n), position, bound))
        if isinstance(n, Atom) and position is not None:
            text = f"{n.name}({', '.join(n.args)})"
            if n.name not in bound and n.name in voc.relations:
                if position == "term":
                    raise UsageError(f"relation atom {text} used as a term")
            elif position == "formula" and (n.name in bound or n.name in voc.weights):
                raise UsageError(f"weight atom {text} used as a formula")
        inner = bound | {n.name} if isinstance(n, Ifp) else bound
        for child, kind in positions(n):
            go(child, kind, inner)

    go(expr, None, frozenset())


def structure_covers(structure, expr):
    rels, wts, gens = collect_symbols(expr)
    voc = structure.vocabulary
    if any(voc.relations.get(n) != a for n, a in rels.items()):
        return False
    if any(voc.weights.get(n) != a for n, a in wts.items()):
        return False
    for name, arity in gens.items():
        if voc.relations.get(name) != arity and voc.weights.get(name) != arity:
            return False
    return True


def weight_of(structure, fps, name, key):
    if name in fps:
        return fps[name].get(key)
    table = structure.weights.get(name)
    if table is None:
        return None
    value = table.get(key)
    return None if value is None else value.frac


def ref_evaluate(expr, structure, env=None):
    """Value of ``expr`` on ``structure``: bool, Fraction, or None.

    Implements the same semantics as ``wsq.evaluator.evaluate`` from
    scratch, including the default for uninterpreted vocabularies and the
    ``UsageError`` for a generic atom read as the wrong kind.
    """
    env = dict(env or {})
    check_generic_atoms(structure, expr)
    if not structure_covers(structure, expr):
        return False if isinstance(expr, Formula) else None
    universe = list(structure.universe)

    def ev(n, env, fps):
        if isinstance(n, ElemEq):
            return env[n.left] == env[n.right]
        if isinstance(n, RelAtom):
            return tuple(env[a] for a in n.args) in structure.relations.get(n.name, ())
        if isinstance(n, (WeightAtom, Atom)):
            key = tuple(env[a] for a in n.args)
            if isinstance(n, Atom) and n.name not in fps:
                if n.name in structure.vocabulary.relations:
                    return key in structure.relations[n.name]
            return weight_of(structure, fps, n.name, key)
        if isinstance(n, Leq):
            return leq(ev(n.left, env, fps), ev(n.right, env, fps))
        if isinstance(n, Compare):
            a, b = ev(n.left, env, fps), ev(n.right, env, fps)
            below, above = leq(a, b), leq(b, a)
            return {
                "<": below and not above,
                ">": above and not below,
                ">=": above,
                "=": below and above,
                "!=": not (below and above),
            }[n.op]
        if isinstance(n, Not):
            return not ev(n.body, env, fps)
        if isinstance(n, And):
            return ev(n.left, env, fps) and ev(n.right, env, fps)
        if isinstance(n, Or):
            return ev(n.left, env, fps) or ev(n.right, env, fps)
        if isinstance(n, Implies):
            return not ev(n.left, env, fps) or ev(n.right, env, fps)
        if isinstance(n, (Exists, Forall)):
            results = [ev(n.body, {**env, n.var: e}, fps) for e in universe]
            return any(results) if isinstance(n, Exists) else all(results)

        if isinstance(n, Zero):
            return Fraction(0)
        if isinstance(n, One):
            return Fraction(1)
        if isinstance(n, Literal):
            return n.value
        if isinstance(n, BotConst):
            return None
        if isinstance(n, Arith):
            op = {"+": add, "-": sub, "*": mul, "/": div}[n.op]
            return op(ev(n.left, env, fps), ev(n.right, env, fps))
        if isinstance(n, Cond):
            taken = n.then if ev(n.test, env, fps) else n.otherwise
            return ev(taken, env, fps)
        if isinstance(n, (Sum, Aggregate)):
            values = []
            for combo in product(universe, repeat=len(n.vars)):
                scope = {**env, **dict(zip(n.vars, combo))}
                if ev(n.guard, scope, fps):
                    values.append(
                        ev(n.body, scope, fps) if getattr(n, "body", None) is not None else None
                    )
            if isinstance(n, Sum):
                total = Fraction(0)
                for v in values:
                    total = add(total, v)
                return total
            if n.kind == "count":
                return Fraction(len(values))
            if not values:
                return None
            if n.kind == "avg":
                total = Fraction(0)
                for v in values:
                    total = add(total, v)
                return div(total, Fraction(len(values)))
            best = values[0]
            for v in values[1:]:
                higher = leq(best, v)
                if (n.kind == "max" and higher and not leq(v, best)) or (
                    n.kind == "min" and not higher
                ):
                    best = v
            return best
        if isinstance(n, Ifp):
            keys = list(product(universe, repeat=len(n.vars)))
            table = {key: None for key in keys}
            while True:
                updated = {
                    key: (
                        table[key]
                        if table[key] is not None
                        else ev(n.body, {**env, **dict(zip(n.vars, key))}, {**fps, n.name: table})
                    )
                    for key in keys
                }
                if updated == table:
                    break
                table = updated
            return table[tuple(env[a] for a in n.applied)]
        raise TypeError(f"reference evaluator cannot handle {type(n).__name__}")

    return ev(expr, env, {})


def normalize(value):
    """Shared comparison form for engine and reference results."""
    if isinstance(value, bool):
        return ("formula", value)
    frac = value if isinstance(value, Fraction) or value is None else value.frac
    return ("term", frac)
