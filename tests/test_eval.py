"""Semantics engine: quantifiers, summation, fixed points, defaults, guards."""

import functools
import itertools
import operator
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

from randgen import (
    build_fnn,
    isomorphic_copy,
    path_net,
    random_dag,
    random_expression,
    random_fnn,
    random_full_structure,
    random_input,
    random_structure,
    with_weight_override,
)
from ref_eval import normalize, ref_evaluate, structure_covers
import wsq.evaluator
import wsq.numerics
from wsq.errors import ResourceError, UsageError
from wsq.evaluator import EvalLimits, _Compiler, evaluate, ifp_iterate
from wsq.fnn import forward, pwl_integral, to_pwl, with_input
from wsq.numerics import ARITH, BOT, ORDER, ExtRational, arith, compare, rational
from wsq.queries import (
    make_basic,
    make_eval,
    make_eval_node,
    make_integrate_2_1,
    make_squaring,
    make_useless,
)
from wsq.structures import WeightedStructure
from wsq.syntax import (
    ExprVocabulary,
    check_scalar_fragment,
    children,
    desugar,
    free_vars,
    parse,
    substitute,
    to_text,
    vocabulary_of,
    walk,
)
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
    Ifp,
    Implies,
    Leq,
    Not,
    One,
    Or,
    RelAtom,
    Sum,
    WeightAtom,
    Zero,
    map_children,
)
from wsq.syntax.parser import COMPARISON, PRECEDENCE


@pytest.fixture
def two_triangle_graph():
    """Four vertices, a directed 3-cycle of weight 6 and one of weight 9."""
    return WeightedStructure.build(
        ["a", "b", "c", "d"],
        weights={
            "wt": (
                2,
                {
                    ("a", "b"): 1,
                    ("b", "c"): 2,
                    ("c", "a"): 3,
                    ("b", "d"): 3,
                    ("d", "a"): 5,
                },
            )
        },
    )


def two_node_net():
    return build_fnn(["u", "v"], {("u", "v"): Fraction(3)}, {"v": Fraction(1)})


def clamp_net():
    return build_fnn(
        ["u", "h1", "h2", "o"],
        {
            ("u", "h1"): Fraction(1),
            ("u", "h2"): Fraction(1),
            ("h1", "o"): Fraction(1),
            ("h2", "o"): Fraction(-1),
        },
        {"h1": Fraction(0), "h2": Fraction(-1), "o": Fraction(0)},
    )


class TestFormulaSemantics:
    def test_min_weight_triangle_matches_brute_force(self, two_triangle_graph):
        s = two_triangle_graph
        query = make_basic("min_wt_triangle")

        def wt(a, b):
            return s.weights["wt"].get((a, b))

        def is_triangle(a, b, c):
            return all(w is not None for w in (wt(a, b), wt(b, c), wt(c, a)))

        triangles = {
            (a, b, c): wt(a, b).frac + wt(b, c).frac + wt(c, a).frac
            for a, b, c in product(s.universe, repeat=3)
            if is_triangle(a, b, c)
        }
        least = min(triangles.values())
        hits = set()
        for a, b, c in product(s.universe, repeat=3):
            if evaluate(query, s, {"x": a, "y": b, "z": c}):
                hits.add((a, b, c))
        assert hits == {t for t, w in triangles.items() if w == least}
        assert hits == {("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")}

    def test_quantifiers(self, two_triangle_graph):
        s = two_triangle_graph
        assert evaluate(parse("forall x exists y wt(x, y) != bot"), s) is True
        assert evaluate(parse("forall x wt(x, x) != bot"), s) is False
        assert evaluate(parse("exists x wt(x, x) != bot"), s) is False

    def test_comparison_total_on_bot(self, two_triangle_graph):
        s = two_triangle_graph
        assert evaluate(parse("wt(x, x) <= wt(x, x)"), s, {"x": "a"}) is True
        assert evaluate(parse("wt(x, x) = bot"), s, {"x": "a"}) is True
        assert evaluate(parse("bot <= 0 - 1000000"), s) is True


class TestTermSemantics:
    def test_weights_count_on_small_net(self):
        net = build_fnn(
            ["u", "h", "o"],
            {("u", "h"): Fraction(2), ("h", "o"): Fraction(5)},
            {"h": Fraction(1), "o": Fraction(0)},
        )
        assert evaluate(make_basic("weights_count"), net.structure) == rational(4)

    def test_missing_symbol_defaults(self, two_triangle_graph):
        s = two_triangle_graph
        assert evaluate(parse("price(x, y)"), s, {"x": "a", "y": "b"}) is BOT
        assert evaluate(parse("exists x price(x, x) <= 0"), s) is False

    def test_division_by_zero_value(self, two_triangle_graph):
        assert evaluate(parse("1/0"), two_triangle_graph) is BOT

    def test_sum_with_bot_summand(self, two_triangle_graph):
        # wt is partial, so summing it over all pairs hits undefined entries
        term = parse("sum {x, y : x = x} wt(x, y)")
        assert evaluate(term, two_triangle_graph) is BOT

    def test_empty_sum(self, two_triangle_graph):
        assert evaluate(parse("sum {x : not x = x} 1"), two_triangle_graph) == rational(0)

    def test_values_leave_the_engine_boxed(self, two_triangle_graph):
        # the engine computes on bare Fractions and None; callers get bool,
        # ExtRational or BOT
        s = two_triangle_graph
        for text in ("1 + 1", "7", "wt(x, y)", "sum {y : wt(x, y) != bot} wt(x, y)", "max {y : y = y} wt(x, y)"):
            value = evaluate(parse(text), s, {"x": "b", "y": "c"})
            assert type(value) is ExtRational and type(value.frac) is Fraction, text
        for text in ("1/0", "wt(x, x)", "min {y : y = y} wt(x, y)", "ifp (F(z) <- F(z)) (x)"):
            assert evaluate(parse(text), s, {"x": "b"}) is BOT, text
        for text in ("wt(x, y) != bot", "1 <= 0", "exists y wt(x, y) = 2"):
            assert type(evaluate(parse(text), s, {"x": "b", "y": "c"})) is bool, text
        table = ifp_iterate("F", ("x",), parse("sum {y : wt(x, y) != bot} wt(x, y)"), s)
        assert table.entries and all(type(v) is ExtRational for v in table.entries.values())
        assert table.entries[("b",)] == rational(5)


class TestEvalTemplates:
    def test_eval_matches_forward_on_clamp(self):
        net = clamp_net()
        s = with_input(net, [Fraction(1, 2)])
        value = evaluate(make_eval(2), s, {"x": "o"})
        assert value == rational(1, 2)
        assert [value] == forward(net, [Fraction(1, 2)])

    def test_eval_bot_beyond_depth(self):
        net = clamp_net()
        s = with_input(net, [Fraction(1, 2)])
        assert evaluate(make_eval(1), s, {"x": "o"}) is BOT
        assert evaluate(make_eval(0), s, {"x": "h1"}) is BOT

    def test_eval_base_case_is_input_lookup(self):
        net = two_node_net()
        s = with_input(net, [5])
        assert evaluate(make_eval(0), s, {"x": "u"}) == rational(5)

    def test_deep_template_on_shallow_net(self):
        # 40 levels of the rectifier template, each sharing its subterm
        net = clamp_net()
        r = [Fraction(1, 2)]
        assert evaluate(make_eval(40, 1), with_input(net, r)) == forward(net, r)[0]

    def test_desugared_template_stays_shared(self):
        def distinct(node):
            seen, stack = set(), [node]
            while stack:
                n = stack.pop()
                if id(n) not in seen:
                    seen.add(id(n))
                    stack.extend(children(n))
            return len(seen)

        native = make_eval(10, 1)
        core = desugar(native)
        assert distinct(core) < 2 * distinct(native)
        s = with_input(clamp_net(), [Fraction(1, 2)])
        assert evaluate(core, s) == evaluate(native, s) == rational(1, 2)

    def test_closed_eval_out_of_range_index(self):
        net = two_node_net()
        s = with_input(net, [2])
        assert evaluate(make_eval(1, 1), s) == rational(7)
        assert evaluate(make_eval(1, 2), s) is BOT


class TestIfp:
    def test_eval_node_table_and_rounds(self):
        net = two_node_net()
        s = with_input(net, [2])
        body = make_eval_node(closed=False).body
        table = ifp_iterate("F", ("x",), body, s)
        assert table.entries == {("u",): rational(2), ("v",): rational(7)}
        assert table.rounds == 2

    def test_never_defined_body_stabilizes_immediately(self, two_triangle_graph):
        table = ifp_iterate("F", ("x",), parse("1/0"), two_triangle_graph)
        assert table.entries == {}
        assert table.rounds == 0

    def test_squaring_path(self):
        net = path_net(3)
        assert evaluate(make_squaring(), net.structure, {"x": "n3"}) == rational(2**8)

    def test_squaring_single_node(self):
        net = path_net(0)
        assert evaluate(make_squaring(), net.structure, {"x": "n0"}) == rational(2)

    def test_rounds_bounded_by_table_size(self):
        # a path forces one new entry per round: the bound is tight
        net = path_net(5)
        s = with_input(net, [1])
        body = make_eval_node(closed=False).body
        table = ifp_iterate("F", ("x",), body, s)
        assert table.rounds == 6 == len(net.structure.universe)

    def test_shadowing_inner_binder_wins(self, two_triangle_graph):
        # outer F maps everything to 1; inner F recomputes from 10
        inner = "ifp (F(y) <- 10) (x)"
        outer = f"ifp (F(x) <- 1 + 0 * {inner}) (x)"
        plain = evaluate(parse(outer), two_triangle_graph, {"x": "a"})
        assert plain == rational(1)
        # the inner table is consulted, not the outer one being built
        nested = parse("ifp (F(x) <- ifp (F(y) <- 7) (x)) (x)")
        assert evaluate(nested, two_triangle_graph, {"x": "a"}) == rational(7)

    def test_extensional_symbol_shadowed_by_binder(self):
        s = WeightedStructure.build(["a"], weights={"F": (1, {("a",): 100})})
        assert evaluate(parse("F(x)"), s, {"x": "a"}) == rational(100)
        assert evaluate(parse("ifp (F(x) <- 3) (x)"), s, {"x": "a"}) == rational(3)

    def test_zero_arity_fixed_point(self, two_triangle_graph):
        assert evaluate(parse("ifp (F() <- 5) ()"), two_triangle_graph) == rational(5)

    def test_binary_fixed_point_shortest_path(self):
        s = WeightedStructure.build(
            ["a", "b", "c"], weights={"w": (2, {("a", "b"): 2, ("b", "c"): 5})}
        )
        q = parse(
            "ifp (F(x, y) <- if w(x, y) != bot then w(x, y) "
            "else min {z : F(x, z) != bot and F(z, y) != bot} (F(x, z) + F(z, y))) (x, y)"
        )
        assert evaluate(q, s, {"x": "a", "y": "c"}) == rational(7)
        assert evaluate(q, s, {"x": "c", "y": "a"}) is BOT
        assert normalize(evaluate(q, s, {"x": "a", "y": "c"})) == normalize(
            ref_evaluate(q, s, {"x": "a", "y": "c"})
        )

    def test_repeated_applied_variables(self):
        s = WeightedStructure.build(["a", "b"], weights={"w": (2, {("a", "b"): 2})})
        q = parse("ifp (F(x, y) <- w(x, y)) (x, x)")
        assert evaluate(q, s, {"x": "a"}) is BOT

    def test_nested_binders_shadowing_one_variable(self):
        s = WeightedStructure.build(["a", "b"], weights={"f": (1, {("a",): 1, ("b",): 10})})
        q = parse("sum {x : x = x} (f(x) + sum {x : x = x} f(x))")
        # inner sum is 11 under either outer binding: (1+11) + (10+11)
        assert evaluate(q, s) == rational(33)
        assert normalize(ref_evaluate(q, s)) == ("term", rational(33).frac)


class TestUsageErrors:
    def test_unbound_variable(self, two_triangle_graph):
        with pytest.raises(UsageError, match="unbound"):
            evaluate(parse("wt(x, y)"), two_triangle_graph, {"x": "a"})

    def test_unbound_variables_are_listed_as_on_the_command_line(self, two_triangle_graph):
        with pytest.raises(UsageError, match="^unbound variables: x, y$"):
            evaluate(parse("wt(x, y)"), two_triangle_graph)

    def test_assignment_outside_universe(self, two_triangle_graph):
        with pytest.raises(UsageError, match="universe"):
            evaluate(parse("wt(x, y)"), two_triangle_graph, {"x": "a", "y": "zz"})

    @pytest.mark.parametrize(
        "q",
        [
            Sum(("y",), ElemEq("y", "y"), Arith("+", WeightAtom("wt", ("y", "v")), WeightAtom("wt", ("u", "y")))),
            Arith("+", Ifp("F", ("y",), One(), ("u",)), Ifp("G", ("y", "z"), One(), ("v", "v"))),
        ],
        ids=["binder_body", "ifp_applied"],
    )
    def test_names_read_only_below_the_root_are_listed(self, q, two_triangle_graph):
        # a name out of scope gets no slot, wherever it is read
        with pytest.raises(UsageError, match="^unbound variables: u, v$"):
            evaluate(q, two_triangle_graph)
        with pytest.raises(UsageError, match="^unbound variables: u$"):
            evaluate(q, two_triangle_graph, {"v": "a"})

    def test_unbound_variables_come_before_the_universe_check(self, two_triangle_graph):
        with pytest.raises(UsageError, match="^unbound variables: y$"):
            evaluate(parse("wt(x, y)"), two_triangle_graph, {"x": "zz"})

    def test_unread_assignment_outside_universe(self, two_triangle_graph):
        for run in (
            lambda env: evaluate(One(), two_triangle_graph, env),
            lambda env: ifp_iterate("F", ("x",), One(), two_triangle_graph, env),
        ):
            with pytest.raises(UsageError, match="^assignment q='zz' is not a universe element$"):
                run({"x": "a", "q": "zz"})

    def test_assigned_variable_rebound_by_the_query_is_shadowed(self, two_triangle_graph):
        s = two_triangle_graph
        q = parse("wt(x, y) + sum {x : x = x} count {y : wt(x, y) != bot}")
        env = {"y": "b", "x": "a"}
        assert evaluate(q, s, env) == rational(1 + 5)
        assert normalize(evaluate(q, s, env)) == normalize(ref_evaluate(q, s, env))
        table = ifp_iterate("F", ("x",), parse("sum {y : wt(x, y) != bot} wt(x, y)"), s, env)
        assert table.entries == {("a",): rational(1), ("b",): rational(5), ("c",): rational(3), ("d",): rational(5)}

    @pytest.mark.parametrize(
        "build",
        [
            lambda e: evaluate(Exists("x", e), _WEIGHT_ONLY),
            lambda e: evaluate(Not(e), _WEIGHT_ONLY, {"x": "b"}),
            lambda e: evaluate(Sum(("x",), e, One()), _WEIGHT_ONLY),
        ],
        ids=["exists_body", "not_body", "sum_guard"],
    )
    def test_weight_atom_in_formula_position(self, build):
        # f(a) = 0 and f(b) is undefined: as a formula either would be truthy
        with pytest.raises(UsageError, match=r"^weight atom f\(x\) used as a formula$"):
            build(Atom("f", ("x",)))

    def test_generic_atom_reads_by_position(self):
        s = _WEIGHT_ONLY
        assert evaluate(Atom("f", ("x",)), s, {"x": "a"}) == rational(0)
        assert evaluate(Atom("f", ("x",)), s, {"x": "b"}) is BOT
        assert evaluate(Sum(("x",), ElemEq("x", "x"), Atom("f", ("x",))), s) is BOT
        # a symbol the structure lacks takes the default
        assert evaluate(Exists("x", Atom("g", ("x",))), s) is False
        # a fixed point's symbol reads a weight table
        body = Cond(Atom("F", ("x",)), One(), Zero())
        with pytest.raises(UsageError, match=r"^weight atom F\(x\) used as a formula$"):
            ifp_iterate("F", ("x",), body, s)

    def test_ifp_iterate_on_an_uncovered_body(self, two_triangle_graph):
        s = two_triangle_graph
        with pytest.raises(UsageError, match="^symbol 'wt' used with arities 2 and 1$"):
            ifp_iterate("F", ("x",), parse("wt(x, x) + wt(x)"), s)
        with pytest.raises(UsageError, match="^fixed-point body uses symbols the structure does not interpret$"):
            ifp_iterate("F", ("x",), parse("price(x) + F(x)"), s)

    def test_inconsistent_arities(self, two_triangle_graph):
        with pytest.raises(UsageError, match="arities"):
            evaluate(parse("wt(x, x) + sum {y : y = y} wt(y, y, y)"), two_triangle_graph, {"x": "a"})

    def test_covered_query_skips_the_vocabulary_walk(self, monkeypatch, two_triangle_graph):
        calls = []
        original = wsq.evaluator.vocabulary_of

        def spy(e):
            calls.append(e)
            return original(e)

        monkeypatch.setattr(wsq.evaluator, "vocabulary_of", spy)
        s = two_triangle_graph
        assert evaluate(parse("sum {x, y : wt(x, y) != bot} wt(x, y)"), s) == rational(14)
        assert ifp_iterate("F", ("x",), parse("if F(x) = bot then 1 else F(x)"), s).rounds == 1
        assert calls == []
        # an uncovered query is walked once: for its misuse, or before its default
        assert evaluate(parse("price(x)"), s, {"x": "a"}) is BOT
        with pytest.raises(UsageError, match="arities"):
            evaluate(parse("wt(x, x) + wt(x)"), s, {"x": "a"})
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "build",
        [
            lambda e: evaluate(Sum(("x", "y"), RelAtom("e", ("x", "y")), e), _RELATION_ONLY),
            lambda e: evaluate(Arith("+", e, One()), _RELATION_ONLY, {"x": "a", "y": "b"}),
            lambda e: ifp_iterate("F", ("x", "y"), e, _RELATION_ONLY),
        ],
        ids=["sum_body", "arith_operand", "ifp_body"],
    )
    def test_relation_atom_in_term_position(self, build):
        # the API can put a generic atom anywhere; one that reads a relation
        # cannot stand for a term
        with pytest.raises(UsageError, match=r"^relation atom e\(x, y\) used as a term$"):
            build(Atom("e", ("x", "y")))

    @pytest.mark.parametrize(
        "case, message",
        [
            (lambda: (Exists("x", Atom("f", ("x",))), _WEIGHT_ONLY, {}), r"^weight atom f\(x\) used as a formula$"),
            (lambda: (Sum(("x",), Atom("f", ("x",)), One()), _WEIGHT_ONLY, {}), r"^weight atom f\(x\) used as a formula$"),
            (lambda: (Not(Atom("f", ("x",))), _WEIGHT_ONLY, {"x": "b"}), r"^weight atom f\(x\) used as a formula$"),
            (
                lambda: (Ifp("F", ("x",), Cond(Atom("F", ("x",)), One(), Zero()), ("x",)), _WEIGHT_ONLY, {"x": "a"}),
                r"^weight atom F\(x\) used as a formula$",
            ),
            (
                lambda: (Sum(("x", "y"), RelAtom("e", ("x", "y")), Atom("e", ("x", "y"))), _RELATION_ONLY, {}),
                r"^relation atom e\(x, y\) used as a term$",
            ),
        ],
        ids=["exists_body", "sum_guard", "not_body", "ifp_test", "sum_body"],
    )
    def test_reference_rejects_what_evaluate_rejects(self, case, message):
        # the oracle used to take these for uncovered uses and answer False or 0
        q, s, env = case()
        for run in (evaluate, ref_evaluate):
            with pytest.raises(UsageError, match=message):
                run(q, s, env)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Arith("^", One(), One()), "unknown arithmetic operator '^'"),
            (lambda: Compare("~", One(), One()), "unknown comparison operator '~'"),
            (lambda: Aggregate("avg", ("x",), ElemEq("x", "x"), None), "'avg' needs a body"),
            (lambda: Aggregate("median", ("x",), ElemEq("x", "x"), One()), "unknown aggregate 'median'"),
            (lambda: Aggregate("count", ("x",), ElemEq("x", "x"), One()), "'count' takes no body"),
            (lambda: Ifp("F", ("x",), One(), ("x", "x")), "fixed point binds 1 variables but is applied to 2"),
            (lambda: Sum(("x", "x"), ElemEq("x", "x"), One()), "duplicate variable 'x' in binder"),
        ],
        ids=["arith_op", "compare_op", "avg_without_body", "unknown_aggregate", "count_with_body", "ifp_arity", "duplicate_var"],
    )
    def test_a_node_the_parser_never_builds_is_refused(self, build, message):
        # the constructor refuses it, so no pass ever sees it; the texts are
        # the parser's
        with pytest.raises(UsageError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "run, message",
        [
            # evaluate answered ExtRational('0'), a term's value for a formula
            (lambda s: evaluate(And(One(), Zero()), s), "And.left must be a formula, not One"),
            # answered True
            (lambda s: evaluate(Sum(("x",), _P, _P), s), "Sum.body must be a term, not RelAtom"),
            # answered True
            (lambda s: evaluate(Cond(One(), ElemEq("x", "x"), One()), s, {"x": "a"}), "Cond.test must be a formula, not One"),
            # answered True, since w(a) = 1
            (lambda s: evaluate(Exists("x", WeightAtom("w", ("x",))), s), "Exists.body must be a formula, not WeightAtom"),
            # filled its table with 1 and 0
            (lambda s: ifp_iterate("F", ("x",), _P, s), "Ifp.body must be a term, not RelAtom"),
            (lambda s: evaluate(Aggregate("max", ("x",), One(), One()), s), "Aggregate.guard must be a formula, not One"),
            (lambda s: evaluate(Not("p(x)"), s), "Not.body must be a formula, not str"),
        ],
        ids=["and_of_terms", "sum_of_a_formula", "cond_on_a_term", "exists_of_a_weight", "ifp_iterate_of_a_formula", "guard", "not_a_node"],
    )
    def test_a_child_of_the_wrong_sort_is_refused(self, run, message):
        s = WeightedStructure.build(["a", "b"], relations={"p": (1, [("a",)])}, weights={"w": (1, {("a",): 1})})
        with pytest.raises(UsageError) as exc:
            run(s)
        assert str(exc.value) == message

    def test_coverage_agrees_with_vocabulary_of_and_reference(self):
        rng = random.Random(25)
        outcomes = {"misuse": 0, "default": 0, "value": 0}
        for _ in range(400):
            s = random_structure(rng)
            kind = "formula" if rng.random() < 0.5 else "term"
            e = _mutate_symbols(rng, random_expression(rng, rng.randint(0, 4), kind, ("x", "y")))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            try:
                vocabulary_of(e)
            except UsageError as exc:
                outcomes["misuse"] += 1
                with pytest.raises(UsageError) as raised:
                    evaluate(e, s, env)
                assert str(raised.value) == str(exc)
                continue
            outcomes["value" if structure_covers(s, e) else "default"] += 1
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env))
        assert min(outcomes.values()) >= 20, outcomes


_RELATION_ONLY = WeightedStructure.build(["a", "b"], relations={"e": (2, [("a", "b"), ("b", "b")])})

_WEIGHT_ONLY = WeightedStructure.build(["a", "b"], weights={"f": (1, {("a",): 0})})

_P = RelAtom("p", ("x",))


def _generic_outcomes(e, s, fixpoints):
    """What each generic atom in ``e`` resolves to on ``s``, where the
    symbols in ``fixpoints`` are bound by enclosing fixed points."""
    if type(e) is Atom:
        if e.name in fixpoints:
            return ["fixpoint"]
        voc = s.vocabulary
        return ["relation" if e.name in voc.relations else "weight" if e.name in voc.weights else "nothing"]
    inner = fixpoints | {e.name} if type(e) is Ifp else fixpoints
    return [outcome for child in children(e) for outcome in _generic_outcomes(child, s, inner)]


_MUTANT_NAMES = ("p", "e", "flag", "f", "w", "cst", "F", "q")


def _mutate_symbols(rng, e):
    """``e`` with some atoms given another name or arity and some fixed
    points another symbol or arity, so that uses go uncovered and symbols
    get misused in each way the evaluator must tell apart.  Sometimes the
    whole expression becomes a generic atom, the only place the parser
    leaves one."""
    if rng.random() < 0.1:
        name = rng.choice(_MUTANT_NAMES)
        return Atom(name, ("x", "y", "x")[: rng.randint(0, 3)])

    def go(n):
        n = map_children(n, go)
        if type(n) in (RelAtom, WeightAtom) and rng.random() < 0.3:
            args, roll = n.args, rng.random()
            if roll < 0.3:
                args = args[:-1]
            elif roll < 0.6:
                args = args + args[:1]
            name = rng.choice(_MUTANT_NAMES) if rng.random() < 0.7 else n.name
            return type(n)(name, args)
        if type(n) is Ifp and rng.random() < 0.3:
            if rng.random() < 0.5:
                return Ifp(rng.choice(("F", "G", "e", "w")), n.vars, n.body, n.applied)
            return Ifp(n.name, n.vars + ("t",), n.body, n.applied + n.applied[:1])
        return n

    return go(e)


class TestOperatorTables:
    """Every operator token of the grammar has one meaning, in the numerics
    tables, and the evaluator, ``ExtRational`` and ``arith``/``compare``
    agree on it."""

    def test_every_grammar_operator_has_an_evaluator_entry(self):
        arithmetic = {op for op, prec in PRECEDENCE.items() if prec > COMPARISON}
        comparisons = {op for op, prec in PRECEDENCE.items() if prec == COMPARISON}
        assert arithmetic == set(ARITH)
        assert comparisons == set(ORDER)
        assert {op for op, prec in PRECEDENCE.items() if prec < COMPARISON} == {"and", "or", "implies"}

    def test_arith_accepts_exactly_the_arithmetic_tokens(self):
        a, b = rational(7, 3), rational(-2, 5)
        for op in [*PRECEDENCE, "**", "//", "%", "", "+-"]:
            if op in ARITH:
                assert arith(op, a, b) == ExtRational(ARITH[op](a.frac, b.frac))
                assert arith(op, a, BOT) is BOT
            else:
                with pytest.raises(ValueError, match="unknown operator"):
                    arith(op, a, b)

    def test_evaluator_boxes_and_functions_agree(self):
        # w(x) op w(y), w(x) op 0 and 0 op w(y) for every grammar operator,
        # over bot, 0, small and large signed rationals: the evaluator,
        # ExtRational's operator, arith/compare and the reference agree
        rng = random.Random(26)
        boxed = {
            "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
            "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "=": operator.eq, "!=": operator.ne,
        }
        three_way = {"<": [-1], "<=": [-1, 0], ">": [1], ">=": [0, 1], "=": [0], "!=": [-1, 1]}
        assert set(boxed) == set(ARITH) | set(ORDER)
        zero = rational(0)
        forms = {
            "w(x) {} w(y)": lambda a, b: (a, b),
            "w(x) {} 0": lambda a, b: (a, zero),
            "0 {} w(y)": lambda a, b: (zero, b),
        }
        queries = [(op, parse(form.format(op)), pick) for op in boxed for form, pick in forms.items()]

        def draw():
            roll, sign = rng.random(), rng.choice((-1, 1))
            if roll < 0.2:
                return BOT
            if roll < 0.35:
                return zero
            if roll < 0.7:
                return rational(sign * rng.randint(1, 9), rng.randint(1, 4))
            return rational(sign * rng.randint(1, 10**40), rng.randint(1, 10**40))

        for _ in range(150):
            a, b = draw(), draw()
            weights = {(k,): v for k, v in (("p", a), ("q", b)) if not v.is_bot}
            s = WeightedStructure.build(["p", "q"], weights={"w": (1, weights)})
            for op, q, pick in queries:
                left, right = pick(a, b)
                got = evaluate(q, s, {"x": "p", "y": "q"})
                if op in ARITH:
                    assert got == boxed[op](left, right) == arith(op, left, right), (op, q, a, b)
                    assert (got is BOT) == (boxed[op](left, right) is BOT) == (arith(op, left, right) is BOT)
                else:
                    assert got == boxed[op](left, right) == (compare(left, right) in three_way[op]), (op, q, a, b)
                if not left.is_bot:
                    # a Fraction on the left: ExtRational's reflected operator
                    assert boxed[op](left.frac, right) == got, (op, q, a, b)
                assert normalize(got) == normalize(ref_evaluate(q, s, {"x": "p", "y": "q"})), (op, q, a, b)


class TestResourceGuards:
    @pytest.mark.parametrize(
        "query, text",
        [
            ("sum {x, y : x = x} 1", "summation exceeds 3 summands"),
            ("count {x, y : x = x}", "aggregate exceeds 3 summands"),
            ("avg {x, y : x = x} 1", "aggregate exceeds 3 summands"),
            ("min {x, y : x = x} 1", "aggregate exceeds 3 summands"),
            ("max {x, y : x = x} 1", "aggregate exceeds 3 summands"),
        ],
        ids=["sum", "count", "avg", "min", "max"],
    )
    def test_summand_budget(self, two_triangle_graph, query, text):
        limits = EvalLimits(max_summands=3)
        with pytest.raises(ResourceError, match=f"^{text}$"):
            evaluate(parse(query), two_triangle_graph, limits=limits)

    def test_fixpoint_cell_budget(self, two_triangle_graph):
        limits = EvalLimits(max_fixpoint_cells=2)
        with pytest.raises(ResourceError, match="cells"):
            evaluate(parse("ifp (F(x, y) <- 1) (x, x)"), two_triangle_graph, {"x": "a"}, limits)

    @pytest.mark.parametrize(
        "query, value",
        [
            ("255 * 1", rational(255)),
            ("256 * 1", "'*' result exceeds 8 bits"),
            ("1 / 255", rational(1, 255)),
            ("1 / 256", "'/' result exceeds 8 bits"),
            ("256 / 0", BOT),
            ("128 + 127", rational(255)),
            ("128 + 128", "'+' result exceeds 8 bits"),
            ("1 / 251 - 1 / 241", "'-' result exceeds 8 bits"),
            ("sum {x, y : wt(x, y) != bot} (wt(x, y) / 255)", rational(14, 255)),
            ("sum {x, y : wt(x, y) != bot} (1 / (wt(x, y) + 250))", "'sum' result exceeds 8 bits"),
            ("avg {x, y : wt(x, y) != bot} (wt(x, y) / 255)", "'avg' result exceeds 8 bits"),
        ],
    )
    def test_bit_budget(self, two_triangle_graph, monkeypatch, query, value):
        # every arithmetic result and every running sum is checked, numerator
        # and denominator: a sum of fractions can double the denominator;
        # parsed before the bound drops, which a literal 256 would not fit
        q = parse(query)
        monkeypatch.setattr(wsq.numerics, "MAX_BITS", 8)
        if isinstance(value, str):
            with pytest.raises(ResourceError) as exc:
                evaluate(q, two_triangle_graph)
            assert str(exc.value) == value
        else:
            assert evaluate(q, two_triangle_graph) == value

    @pytest.mark.parametrize("terms", [600, 3000])
    def test_a_chain_past_the_stack_is_a_resource_error(self, two_triangle_graph, terms):
        # the parser reads the chain in a loop; the compiler recurses on it
        with pytest.raises(ResourceError) as exc:
            evaluate(parse(" + ".join(["1"] * terms)), two_triangle_graph)
        assert str(exc.value) == "expression too deeply nested"

    DEEP = {
        "chain": lambda: functools.reduce(lambda t, _: Arith("+", t, One()), range(2999), One()),
        "nots": lambda: functools.reduce(lambda f, _: Not(f), range(3000), RelAtom("e", ("x", "x"))),
        "eval_2000": lambda: make_eval(2000, 1),
    }

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_every_pass_answers_or_refuses_deep_input(self, two_triangle_graph, shape):
        e = self.DEEP[shape]()  # the builders loop, so any depth builds
        # a fixed point's body is a term, so a deep formula goes under a test
        body = Cond(e, One(), Zero()) if shape == "nots" else e
        passes = {
            "free_vars": lambda: free_vars(e),
            "vocabulary_of": lambda: vocabulary_of(e),
            "check_scalar_fragment": lambda: check_scalar_fragment(e),
            "to_text": lambda: to_text(e),
            "desugar": lambda: desugar(e),
            "substitute": lambda: substitute(e, {"x": "y"}),
            "evaluate": lambda: evaluate(e, two_triangle_graph, {"x": "a"}),
            "ifp_iterate": lambda: ifp_iterate("F", ("x",), body, two_triangle_graph),
            # the template has about 3**2000 positions: its first ones
            "walk": lambda: list(itertools.islice(walk(e), 1000)),
        }
        for name, run in passes.items():
            try:
                run()
            except ResourceError as exc:
                assert str(exc) == "expression too deeply nested", name
        if shape != "eval_2000":
            assert sum(1 for _ in walk(e)) == (5999 if shape == "chain" else 3001)

    def test_analyses_answer_on_a_chain_the_stack_holds(self):
        e = parse(" + ".join(["1"] * 600))
        assert free_vars(e) == frozenset()
        assert vocabulary_of(e) == ExprVocabulary()
        assert check_scalar_fragment(e) == []

    def test_bit_budget_stops_iterated_squaring(self, monkeypatch):
        # 2^(2^d) on a path of length d: round 20 builds 2^20 + 1 bits
        with pytest.raises(ResourceError) as exc:
            evaluate(make_squaring(), path_net(40).structure, {"x": "n40"})
        assert str(exc.value) == f"'*' result exceeds {2**20} bits"
        monkeypatch.setattr(wsq.numerics, "MAX_BITS", 2**10)
        assert evaluate(make_squaring(), path_net(9).structure, {"x": "n9"}) == rational(2 ** 2**9)
        with pytest.raises(ResourceError):
            evaluate(make_squaring(), path_net(10).structure, {"x": "n10"})


class TestInvariants:
    def test_sum_order_invariance(self):
        rng = random.Random(21)
        for _ in range(60):
            s = random_structure(rng)
            e = random_expression(rng, rng.randint(1, 4), "term", ("x", "y"))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            reversed_s = WeightedStructure(tuple(reversed(s.universe)), s.vocabulary, s.relations, s.weights)
            assert evaluate(e, s, env) == evaluate(e, reversed_s, env)

    def test_agrees_with_reference_evaluator(self):
        rng = random.Random(22)
        for _ in range(150):
            s = random_structure(rng)
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env))

    def test_generic_atoms_below_the_root_agree_with_reference(self):
        # a generic atom at any position resolves per site: at a formula
        # position to a relation, at a term position to a weight or the
        # fixed point's symbol, or to nothing the structure interprets
        rng = random.Random(30)
        outcomes = dict.fromkeys(("relation", "weight", "fixpoint", "nothing"), 0)
        answers = {"default": 0, "value": 0}
        for _ in range(600):
            s = random_structure(rng)
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"), generic=0.6)
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            for outcome in _generic_outcomes(e, s, frozenset()):
                outcomes[outcome] += 1
            answers["value" if structure_covers(s, e) else "default"] += 1
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env)), to_text(e)
        # 154 / 900 / 32 / 178 sites and 442 covered answers at this seed
        assert min(outcomes.values()) >= 20, outcomes
        assert answers["value"] >= 300, answers

    def test_quantifiers_agree_with_counts(self):
        # exists x phi iff count {x : phi} > 0; forall x phi iff count {x : phi} = |A|.
        # Universes of 3-8 elements with every weight defined, so an answer
        # can turn on any candidate, not only the first ones.
        rng = random.Random(26)
        for _ in range(200):
            s = random_full_structure(rng)
            phi = random_expression(rng, rng.randint(1, 3), "formula", ("x", "y"))
            env = {"y": rng.choice(s.universe)}
            count = evaluate(Aggregate("count", ("x",), phi, None), s, env)
            assert evaluate(Exists("x", phi), s, env) == (count > 0)
            assert evaluate(Forall("x", phi), s, env) == (count == len(s.universe))

    def test_desugar_soundness_random(self):
        rng = random.Random(23)
        for _ in range(120):
            s = random_structure(rng)
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            assert evaluate(desugar(e), s, env) == evaluate(e, s, env)

    def test_isomorphism_invariance(self):
        # queries are generic: renaming the elements of the structure and of
        # the assignment, and listing them in another order, changes no answer
        rng = random.Random(24)
        for i in range(300):
            # with every weight defined, fewer answers are bot whatever the order
            s = random_structure(rng, density=0.7 if i % 2 else 1.0)
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            copy, rename = isomorphic_copy(rng, s)
            moved = {var: rename[elem] for var, elem in env.items()}
            assert normalize(evaluate(e, copy, moved)) == normalize(evaluate(e, s, env))
            assert normalize(ref_evaluate(e, copy, moved)) == normalize(ref_evaluate(e, s, env))

    def test_isomorphism_invariance_on_networks(self):
        rng = random.Random(25)
        body = make_eval_node(closed=False).body
        for _ in range(12):
            net = random_fnn(rng, max_depth=3, max_width=3, mag=20)
            s = with_input(net, [random_input(rng) for _ in range(net.input_dim)])
            copy, rename = isomorphic_copy(rng, s)
            for q in (make_eval_node(), make_eval(net.depth, 1)):
                assert evaluate(q, copy) == evaluate(q, s)
            table, moved = ifp_iterate("F", ("x",), body, s), ifp_iterate("F", ("x",), body, copy)
            assert moved.rounds == table.rounds
            assert moved.entries == {(rename[x],): value for (x,), value in table.entries.items()}

    def test_isomorphism_invariance_of_fixed_point_rounds(self):
        rng = random.Random(26)
        for _ in range(60):
            s = random_structure(rng, drop_prob=0.0)
            body = _nested_binders(rng, rng.randint(1, 2), ("v0", "x"), ifp_depth=1)
            env = {"x": rng.choice(s.universe)}
            copy, rename = isomorphic_copy(rng, s)
            table = ifp_iterate("F", ("v0",), body, s, env)
            moved = ifp_iterate("F", ("v0",), body, copy, {"x": rename[env["x"]]})
            assert moved.rounds == table.rounds
            assert moved.entries == {(rename[v],): value for (v,), value in table.entries.items()}

    def test_padding_vs_locality(self):
        from wsq.fnn import pad

        net = clamp_net()
        padded = pad(net, ("u", "h1"), 3)
        r = [Fraction(1, 2)]
        assert forward(padded, r) == forward(net, r)
        closed = make_eval(net.depth, 1)
        assert evaluate(closed, with_input(net, r)) == forward(net, r)[0]
        assert evaluate(closed, with_input(padded, r)) is BOT
        assert evaluate(make_eval_node(), with_input(padded, r)) == forward(net, r)[0]


def _reference_iteration(var, body, s, env):
    """The entries and rounds of the fixed point of ``body`` over ``F(var)``,
    iterated naively round by round outside the evaluator."""
    current, rounds = {}, 0
    while True:
        shadowed = with_weight_override(s, "F", 1, dict(current))
        after = dict(current)
        for elem in s.universe:
            if (elem,) not in current:
                value = ref_evaluate(body, shadowed, {**env, var: elem})
                if value is not None:
                    after[(elem,)] = rational(value)
        if after == current:
            return current, rounds
        current, rounds = after, rounds + 1


def _nested_binders(rng, levels, scope, ifp_depth=0):
    """A term whose binders nest ``levels`` deep along one chain.

    Each level binds a fresh variable and sees only a random part of the
    outer scope, so inner binders often ignore outer loop variables (the
    case the evaluator memoises) and sometimes rebind an outer name.
    """
    if levels == 0:
        return random_expression(rng, 1, "term", scope, ifp_depth)
    var = f"b{levels}"
    seen = tuple(v for v in scope if rng.random() < 0.5) + (var,)
    inner = _nested_binders(rng, levels - 1, seen, ifp_depth)
    side = random_expression(rng, 1, "term", seen, ifp_depth)
    guard = random_expression(rng, 1, "formula", seen, ifp_depth)
    body = Arith(rng.choice("+-*"), inner, side)
    roll = rng.random()
    if roll < 0.35:
        return Sum((var,), guard, body)
    if roll < 0.65:
        kind = rng.choice(("count", "avg", "min", "max"))
        return Aggregate(kind, (var,), guard, None if kind == "count" else body)
    if roll < 0.85:
        quantifier = rng.choice((Exists, Forall))
        test = quantifier(var, Or(guard, Leq(body, side)))
        then, otherwise = (random_expression(rng, 1, "term", scope, ifp_depth) for _ in "ab")
        return Cond(test, then, otherwise)
    if ifp_depth >= 2:
        return Sum((var,), guard, body)
    inner = _nested_binders(rng, levels - 1, seen, ifp_depth + 1)
    return Ifp("F", (var,), Arith("+", inner, side), (rng.choice(scope),))


class TestCompiledEvaluation:
    """Memoisation and closure sharing must not change any answer."""

    def test_memo_in_fixed_point_body_cleared_each_round(self):
        # the exists and the count read F but not x: they are memoised and
        # must be recomputed every round as F grows
        net = path_net(4)
        q = parse(
            "ifp (F(x) <- if not exists y wt(y, x) != bot then 1 "
            "else if exists y (wt(y, x) != bot and F(y) != bot) "
            "then count {z : F(z) != bot} else bot) (x)"
        )
        table = ifp_iterate("F", ("x",), q.body, net.structure)
        assert table.rounds == 5
        assert table.entries == {(f"n{i}",): rational(max(i, 1)) for i in range(5)}
        for node in net.structure.universe:
            expected = ref_evaluate(q, net.structure, {"x": node})
            assert normalize(evaluate(q, net.structure, {"x": node})) == normalize(expected)

    @pytest.mark.parametrize("d", range(6))
    def test_squaring_on_paths(self, d):
        net = path_net(d)
        assert evaluate(make_squaring(), net.structure, {"x": f"n{d}"}) == rational(2 ** (2**d))

    def test_path_sum_computes_one_table(self):
        # the same fixed point read under a binder, once in the guard and
        # once in the body; its table is memoised across the binder's loop
        dist = parse(
            "ifp (D(x) <- if not exists y wt(y, x) != bot then 0 "
            "else min {y : wt(y, x) != bot and D(y) != bot} (D(y) + wt(y, x))) (x)"
        )
        shared = Sum(("x",), Compare("!=", dist, BotConst()), dist)
        text = parse(
            "sum {x : ifp (D(x) <- if not exists y wt(y, x) != bot then 0 "
            "else min {y : wt(y, x) != bot and D(y) != bot} (D(y) + wt(y, x))) (x) != bot} "
            "ifp (D(x) <- if not exists y wt(y, x) != bot then 0 "
            "else min {y : wt(y, x) != bot and D(y) != bot} (D(y) + wt(y, x))) (x)"
        )
        rng = random.Random(31)
        for _ in range(6):
            s = random_fnn(rng, max_depth=3, max_width=3, mag=5).structure
            expected = normalize(ref_evaluate(shared, s))
            assert normalize(evaluate(shared, s)) == expected
            assert normalize(evaluate(text, s)) == expected
        # on a unit path the distances are 0, 1, ..., 4
        assert evaluate(shared, path_net(4).structure) == rational(10)

    def test_nested_fixed_point_reads_outer_symbol(self):
        # the inner table reads F but no variable of the outer body, so it is
        # memoised; it must be recomputed every outer round as F grows
        q = parse(
            "ifp (F(x) <- if exists y wt(y, x) != bot "
            "then ifp (G(u) <- (max {z : wt(z, u) != bot and F(z) != bot} F(z)) + 1) (x) "
            "else 1) (x)"
        )
        net = path_net(3)
        table = ifp_iterate("F", ("x",), q.body, net.structure)
        assert table.rounds == 4
        assert table.entries == {(f"n{i}",): rational(i + 1) for i in range(4)}
        rng = random.Random(32)
        for _ in range(6):
            s = random_fnn(rng, max_depth=3, max_width=3, mag=5).structure
            for node in s.universe:
                expected = normalize(ref_evaluate(q, s, {"x": node}))
                assert normalize(evaluate(q, s, {"x": node})) == expected

    def test_shared_subtree_in_memoised_context(self):
        # one node object used three times by the rectifier shape, inside a
        # binder over x that it does not read
        f_y = WeightAtom("f", ("y",))
        t = Sum(("y",), Leq(f_y, One()), Arith("-", f_y, One()))
        relu = Cond(Compare(">=", t, Zero()), t, Arith("*", Zero(), t))
        q = Sum(("x",), RelAtom("p", ("x",)), Arith("+", WeightAtom("f", ("x",)), relu))
        rng = random.Random(33)
        for _ in range(30):
            s = random_structure(rng, drop_prob=0.0)
            assert normalize(evaluate(q, s)) == normalize(ref_evaluate(q, s))

    def test_summand_budget_on_memoised_node(self, two_triangle_graph):
        # the inner sum ignores x, so it is memoised; its 16 summands still
        # exceed the budget on its first evaluation
        q = parse("sum {x : x = x} sum {y, z : y = y} 1")
        with pytest.raises(ResourceError, match="summands"):
            evaluate(q, two_triangle_graph, limits=EvalLimits(max_summands=10))
        assert evaluate(q, two_triangle_graph, limits=EvalLimits(max_summands=16)) == rational(64)
        agg = parse("sum {x : x = x} count {y, z : y = y}")
        with pytest.raises(ResourceError, match="summands"):
            evaluate(agg, two_triangle_graph, limits=EvalLimits(max_summands=10))

    def test_cell_budget_on_memoised_fixed_point(self, two_triangle_graph):
        q = parse("sum {x : x = x} ifp (F(y, z) <- 1) (x, x)")
        with pytest.raises(ResourceError, match="cells"):
            evaluate(q, two_triangle_graph, limits=EvalLimits(max_fixpoint_cells=8))
        limits = EvalLimits(max_fixpoint_cells=16)
        assert evaluate(q, two_triangle_graph, limits=limits) == rational(4)

    def test_rounds_match_external_iteration(self):
        rng = random.Random(34)
        for _ in range(40):
            s = random_structure(rng, drop_prob=0.0)
            body = _nested_binders(rng, rng.randint(1, 2), ("v0", "x"), ifp_depth=1)
            env = {"x": rng.choice(s.universe)}
            table = ifp_iterate("F", ("v0",), body, s, env)
            assert (table.entries, table.rounds) == _reference_iteration("v0", body, s, env)

    def test_threads_share_one_ast_and_structure(self):
        net = random_fnn(random.Random(35), max_depth=4, max_width=4, mag=20)
        s = with_input(net, [Fraction(1, k + 2) for k in range(net.input_dim)])
        queries = [make_eval_node(), make_eval(net.depth, 1), make_useless(net.depth)]
        u, v = next(iter(net.structure.weights["wt"]))
        envs = [{}, {}, {"x0": u, "y0": v}]
        expected = [evaluate(q, s, env) for q, env in zip(queries, envs)]
        results: list = []

        def work():
            for _ in range(5):
                results.append([evaluate(q, s, env) for q, env in zip(queries, envs)])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 20

    def test_agrees_with_reference_on_nested_binders(self):
        rng = random.Random(36)
        for _ in range(120):
            s = random_structure(rng, max_size=3, drop_prob=0.0)
            e = _nested_binders(rng, rng.randint(3, 4), ("x", "y"))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env))


def _guard(rng, bound, outer, ifp, extra=(0, 2)):
    """A conjunction mixing the conjuncts sparse enumeration draws from
    (relation atoms, ``w(..) != bot``, with repeated and outer variables)
    with ones it must only test (intensional and arbitrary formulas);
    ``extra`` bounds the number of conjuncts after the first."""
    names = bound + outer

    def arg():
        return rng.choice(names)

    def conjunct():
        roll = rng.random()
        if roll < 0.3:
            return RelAtom("e", (arg(), arg()))
        if roll < 0.4:
            return RelAtom("p", (arg(),))
        if roll < 0.6:
            if rng.random() < 0.7:
                atom = WeightAtom("w", (arg(), arg()))
            else:
                atom = WeightAtom("f", (arg(),))
            if rng.random() < 0.5:
                return Compare("!=", atom, BotConst())
            return Compare("!=", BotConst(), atom)
        if roll < 0.75 and ifp:
            return Compare(rng.choice(("!=", ">=")), WeightAtom("F", (arg(),)), Zero())
        if roll < 0.85:
            return Not(RelAtom("e", (arg(), arg())))
        return random_expression(rng, 1, "formula", names, 1 if ifp else 0)

    out = conjunct()
    for _ in range(rng.randint(*extra)):
        out = And(out, conjunct()) if rng.random() < 0.6 else And(conjunct(), out)
    return out


def _guarded_binder(rng, outer, ifp=False, wide=False):
    """A sum, aggregate or quantifier (under a conditional) over a random
    guard; its body may read the fixed-point symbol when ``ifp``.  A
    binder binds one or two variables under one to three conjuncts, or
    when ``wide``, two or three variables under two to four."""
    if wide:
        bound = ("b1", "b2", "b3") if rng.random() < 0.7 else ("b1", "b2")
    else:
        bound = ("b1",) if rng.random() < 0.6 else ("b1", "b2")
    names = bound + outer
    body = random_expression(rng, 1, "term", names, 1 if ifp else 0)
    guard = _guard(rng, bound, outer, ifp, (1, 3) if wide else (0, 2))
    roll = rng.random()
    if roll < 0.35:
        return Sum(bound, guard, body)
    if roll < 0.7:
        kind = rng.choice(("count", "avg", "min", "max"))
        return Aggregate(kind, bound, guard, None if kind == "count" else body)
    test = random_expression(rng, 1, "formula", names, 1 if ifp else 0)
    quantifier, inner = (Exists, guard) if rng.random() < 0.5 else (Forall, Implies(guard, test))
    for var in reversed(bound[1:]):
        inner = Exists(var, inner)
    return Cond(quantifier("b1", inner), One(), Zero())


def _invariant_term(rng, names):
    """A compound term that reads only ``names``: a quotient whose divisor
    is often zero, which makes it bot; a conditional on a comparison; or a
    sum over pairs of elements, which a small summand budget trips."""

    def leaf():
        roll = rng.random()
        if roll < 0.4:
            return WeightAtom("f", (rng.choice(names),))
        if roll < 0.7:
            return WeightAtom("w", (rng.choice(names), rng.choice(names)))
        if roll < 0.85:
            return WeightAtom("cst", ())
        return One()

    roll = rng.random()
    if roll < 0.4:
        divisor = leaf()
        zero = Arith("-", divisor, divisor) if rng.random() < 0.2 else Arith("-", divisor, leaf())
        return Arith("/", Arith("+", leaf(), One()), zero)
    if roll < 0.7:
        test = Compare(rng.choice(("<", "=", "!=")), Arith("+", leaf(), leaf()), leaf())
        return Cond(test, Arith("*", leaf(), leaf()), leaf())
    pairs = Sum(("s", "t"), ElemEq("s", "s"), Arith("*", WeightAtom("f", ("s",)), leaf()))
    return Arith("+", pairs, leaf())


def _hoisting_case(rng, levels, outer):
    """A term with ``levels`` binders nested in one chain.  At each level
    an invariant compound term over a random part of the outer variables
    (and the free ``x``) meets a term that reads the level's own
    variable, in the body, the guard or a quantified comparison."""
    var = f"b{levels}"
    names = outer + (var,)

    def invariant():
        read = [v for v in outer if rng.random() < 0.7]
        if not read or rng.random() < 0.3:
            read.append("x")
        return _invariant_term(rng, tuple(read))

    if levels == 1:
        varying = WeightAtom("f", (var,))
    else:
        varying = _hoisting_case(rng, levels - 1, names)
    body = Arith(rng.choice("+-*"), varying, invariant())
    guard = rng.choice((ElemEq(var, var), RelAtom("p", (var,)), Leq(invariant(), WeightAtom("f", (var,)))))
    roll = rng.random()
    if roll < 0.4:
        return Sum((var,), guard, body)
    if roll < 0.7:
        kind = rng.choice(("avg", "min", "max"))
        return Aggregate(kind, (var,), guard, body)
    quantifier = rng.choice((Exists, Forall))
    return Cond(quantifier(var, Or(Not(guard), Leq(body, invariant()))), invariant(), invariant())


def _total_structure(rng):
    """Two or three elements, a random ``p`` and total ``f``, ``w`` and
    ``cst``, so that a term is bot only through a division by zero or an
    empty aggregate."""
    universe = ["a", "b", "c"][: rng.randint(2, 3)]
    value = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return WeightedStructure.build(
        universe,
        relations={"p": (1, [(v,) for v in universe if rng.random() < 0.6])},
        weights={
            "f": (1, {(v,): value() for v in universe}),
            "w": (2, {(u, v): value() for u in universe for v in universe}),
            "cst": (0, {(): value()}),
        },
    )


def _count_arithmetic(monkeypatch, *ops):
    """Counts of the evaluator's applications of ``ops`` to defined
    operands, for the closures compiled from here on."""
    counts = dict.fromkeys(ops, 0)
    for op in ops:

        def counting(a, b, op=op, apply=ARITH[op]):
            counts[op] += a is not None and b is not None
            return apply(a, b)

        monkeypatch.setitem(ARITH, op, counting)
    return counts


class TestHoisting:
    """Compound terms that ignore an enclosing loop's variable are memoised."""

    def test_agrees_with_unmemoised_evaluation_and_reference(self, monkeypatch):
        # with every memo switched off, the evaluator runs each node at each
        # iteration: the value, or the first error, must not change
        rng = random.Random(46)
        seen = {"value": 0, "bot": 0, "error": 0}

        def outcome(e, s, env, limits):
            try:
                return normalize(evaluate(e, s, env, limits))
            except ResourceError as exc:
                return str(exc)

        for _ in range(200):
            s = _total_structure(rng)
            e = _hoisting_case(rng, rng.randint(2, 3), ())
            env = {"x": rng.choice(s.universe)}
            limits = EvalLimits(max_summands=rng.choice((2, 4, 10**6)))
            got = outcome(e, s, env, limits)
            with monkeypatch.context() as m:
                m.setattr(_Compiler, "_memo", lambda self, fn, mask, scope, *parts: fn)
                assert got == outcome(e, s, env, limits)
            if isinstance(got, str):
                seen["error"] += 1
                continue
            seen["bot" if got == ("term", None) else "value"] += 1
            if limits.max_summands == 10**6:
                assert got == normalize(ref_evaluate(e, s, env))
        assert min(seen.values()) >= 20, seen

    def test_invariant_quotient_runs_once_per_binding(self, monkeypatch):
        # under loops over x, y, z the quotient reads x and z only: it runs
        # once per (x, z), while the leaf-op-leaf f(z) - 1 is not memoised
        counts = _count_arithmetic(monkeypatch, "/", "-")
        s = WeightedStructure.build(
            ["a", "b", "c"],
            weights={
                "f": (1, {("a",): 1, ("b",): 2, ("c",): 3}),
                "w": (2, {(p, q): 1 for p in "abc" for q in "abc"}),
            },
        )
        f = lambda v: WeightAtom("f", (v,))
        quotient = Arith("/", f("x"), Arith("+", f("z"), One()))
        body = Arith("+", Arith("*", WeightAtom("w", ("y", "z")), quotient), Arith("-", f("z"), One()))
        q = Sum(("x",), ElemEq("x", "x"), Sum(("y",), ElemEq("y", "y"), Sum(("z",), ElemEq("z", "z"), body)))
        expected = normalize(ref_evaluate(q, s))
        assert normalize(evaluate(q, s)) == expected
        assert counts == {"/": 9, "-": 27}

    def test_bot_valued_quotient_runs_once_per_binding(self, monkeypatch):
        # f(x) / (f(x) - f(x)) is bot and reads x only: under the loop over
        # y the memo must tell its stored bot from a missing entry, so the
        # subtraction runs once per x and not once per (x, y)
        counts = _count_arithmetic(monkeypatch, "-")
        s = WeightedStructure.build(["a", "b", "c"], weights={"f": (1, {("a",): 1, ("b",): 2, ("c",): 3})})
        f = lambda v: WeightAtom("f", (v,))
        quotient = Arith("/", f("x"), Arith("-", f("x"), f("x")))
        below = Cond(Leq(f("y"), quotient), One(), Zero())
        q = Sum(("x",), ElemEq("x", "x"), Sum(("y",), ElemEq("y", "y"), below))
        assert normalize(ref_evaluate(q, s)) == ("term", Fraction(0))
        assert normalize(evaluate(q, s)) == ("term", Fraction(0))
        assert counts == {"-": 3}


class TestExtrema:
    """max and min order bot below every rational, as the reference does."""

    def test_partly_bot_bodies_agree_with_reference(self):
        rng = random.Random(62)
        w = lambda *args: WeightAtom("w", args)
        f = lambda v: WeightAtom("f", (v,))
        bodies = [
            lambda: w("x", "y"),
            lambda: w("y", "x"),
            lambda: Arith("/", One(), f("y")),
            lambda: Arith("*", f("x"), Arith("-", f("y"), w("y", "y"))),
            lambda: Cond(Leq(f("y"), Zero()), BotConst(), f("y")),
            lambda: random_expression(rng, 2, "term", ("x", "y")),
        ]
        guards = [ElemEq("y", "y"), RelAtom("e", ("x", "y")), Compare("!=", w("x", "y"), BotConst())]
        seen = {"all bot": 0, "mixed": 0, "none bot": 0}
        for _ in range(300):
            s = random_structure(rng, drop_prob=0.0, density=0.6)
            guard, body = rng.choice(guards), rng.choice(bodies)()
            q = Aggregate(rng.choice(("max", "min")), ("y",), guard, body)
            if rng.random() < 0.3:
                # nested under a loop over x, the aggregate is one memoised node
                q = Sum(("x",), ElemEq("x", "x"), Arith("+", q, One()))
            env = {"x": rng.choice(s.universe)}
            assert normalize(evaluate(q, s, env)) == normalize(ref_evaluate(q, s, env)), to_text(q)
            for x in s.universe:
                chosen = [y for y in s.universe if ref_evaluate(guard, s, {"x": x, "y": y})]
                bots = [ref_evaluate(body, s, {"x": x, "y": y}) is None for y in chosen]
                if chosen:
                    seen["all bot" if all(bots) else "mixed" if any(bots) else "none bot"] += 1
        assert min(seen.values()) >= 30, seen


def _wide_integration_structure(width):
    """A one-hidden-layer network of the given width with its kinks
    inside [-5, 5], expanded by the interval constants."""
    hidden = [f"h{i}" for i in range(width)]
    edges, biases = {}, {"o": Fraction(1, 3)}
    for i, h in enumerate(hidden):
        edges[("u", h)] = Fraction(i + 1, 2)
        edges[(h, "o")] = Fraction((-1) ** i * (i + 2), 3)
        biases[h] = -Fraction(i - 3, 2) * edges[("u", h)]
    net = build_fnn(["u", *hidden, "o"], edges, biases)
    bounds = {"lo": (0, {(): Fraction(-5)}), "hi": (0, {(): Fraction(5)})}
    return net, net.structure.expand(weights=bounds)


class TestSharedSubterms:
    """Binders of the same variables in one scope share their scope, so a
    node object under several of them compiles and runs once."""

    def test_dag_agrees_with_its_printed_tree_and_reference(self):
        # random_dag puts one subterm object under sibling binders of the
        # same variables, under binders of others and in fixed-point bodies
        rng = random.Random(48)
        seen = {"value": 0, "bot": 0, "error": 0}
        for _ in range(300):
            s = random_structure(rng, max_size=3, drop_prob=0.0, density=1.0)
            e = random_dag(rng, ("x",))
            env = {"x": rng.choice(s.universe)}
            limits = EvalLimits(max_summands=rng.choice((2, 4, 10**6)))

            def outcome(q):
                try:
                    return normalize(evaluate(q, s, env, limits))
                except ResourceError as exc:
                    return str(exc)

            got = outcome(e)
            assert got == outcome(parse(to_text(e)))
            if isinstance(got, str):
                seen["error"] += 1
                continue
            seen["bot" if got == ("term", None) else "value"] += 1
            if limits.max_summands == 10**6:
                assert got == normalize(ref_evaluate(e, s, env))
        assert min(seen.values()) >= 30, seen

    def test_integration_template_compiles_each_scope_once(self, monkeypatch):
        # 16 sibling sum {z1, z2} binders share one scope; fresh slots per
        # binder occurrence would take 4 539 compile calls and 231 slots
        calls, sizes = [0], []
        compile_, environment = _Compiler.compile, _Compiler.environment

        def counting_compile(self, *args, **kwargs):
            calls[0] += 1
            return compile_(self, *args, **kwargs)

        def sizing_environment(self, *args):
            slots = environment(self, *args)
            sizes.append(len(slots))
            return slots

        monkeypatch.setattr(_Compiler, "compile", counting_compile)
        monkeypatch.setattr(_Compiler, "environment", sizing_environment)
        net, s = _wide_integration_structure(8)
        expected = pwl_integral(to_pwl(net), rational(-5), rational(5))
        assert evaluate(make_integrate_2_1(), s) == expected
        assert calls[0] <= 1500
        assert sizes == [sizes[0]] and sizes[0] <= 8

    def test_shared_quotient_runs_once_per_binding_across_sibling_binders(self, monkeypatch):
        # the quotient reads x only and sits under two sibling binders of
        # y: one closure and one memo serve both, so it runs once per x
        counts = _count_arithmetic(monkeypatch, "/")
        s = WeightedStructure.build(["a", "b", "c"], weights={"f": (1, {("a",): 1, ("b",): 2, ("c",): 3})})
        f = lambda v: WeightAtom("f", (v,))
        quotient = Arith("/", f("x"), Arith("+", f("x"), One()))
        siblings = Arith(
            "+",
            Sum(("y",), ElemEq("y", "y"), Arith("*", f("y"), quotient)),
            Sum(("y",), Leq(f("y"), f("x")), Arith("-", quotient, f("y"))),
        )
        q = Sum(("x",), ElemEq("x", "x"), siblings)
        expected = normalize(ref_evaluate(q, s))
        assert normalize(evaluate(q, s)) == expected
        assert counts == {"/": 3}


class TestSparseEnumeration:
    """Bindings drawn from a guard conjunct's support give the same
    answers, budgets and rounds as enumerating the whole product."""

    def test_agrees_with_reference_on_random_guards(self):
        rng = random.Random(41)
        for _ in range(300):
            s = random_structure(rng, drop_prob=0.05)
            e = _guarded_binder(rng, ("x", "y"))
            if rng.random() < 0.3:
                # an enclosing binder makes x an outer loop variable
                e = Sum(("x",), RelAtom("p", ("x",)), e)
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env))

    def test_agrees_with_reference_in_fixed_point_bodies(self):
        rng = random.Random(42)
        for _ in range(150):
            s = random_structure(rng, drop_prob=0.0)
            body = Arith("+", _guarded_binder(rng, ("v0", "x"), ifp=True), WeightAtom("F", ("v0",)))
            if rng.random() < 0.5:
                body = Cond(Compare("!=", WeightAtom("f", ("v0",)), BotConst()), One(), body)
            e = Ifp("F", ("v0",), body, ("y",))
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env))

    def test_candidates_follow_product_order(self):
        # The summand is undefined at one binding only (the hole).  Under a
        # budget of half the bindings the sum is bot if the hole comes in
        # the first half and over budget otherwise, so any order other
        # than the product's changes some outcome.  w and e list their
        # tuples against the universe order; e(y, x) draws y for each x,
        # and the triangle draws (x, y) from e(x, y) and z from e(y, z)
        # filtered by e(z, x)
        universe = [f"u{i}" for i in range(4)]
        everywhere = [(y, x) for x in universe for y in reversed(universe)]
        triples = list(product(reversed(universe), repeat=3))
        column = parse("sum {y : w(y, x) != bot} f(y, x)")
        pairs = parse("sum {x, y : e(y, x)} f(y, x)")
        triangles = parse("sum {x, y, z : e(x, y) and e(y, z) and e(z, x)} g(x, y, z)")
        for q, env, holes in (
            (column, {"x": "u0"}, [(y, "u0") for y in universe]),
            (pairs, {}, [(y, x) for x in universe for y in universe]),
            (triangles, {}, list(product(universe, repeat=3))),
        ):
            for position, hole in enumerate(holes):
                s = WeightedStructure.build(
                    universe,
                    relations={"e": (2, everywhere)},
                    weights={
                        "f": (2, {t: 1 for t in everywhere if t != hole}),
                        "g": (3, {t: 1 for t in triples if t != hole}),
                        "w": (2, {t: 1 for t in everywhere}),
                    },
                )
                limits = EvalLimits(max_summands=len(holes) // 2)
                if position < len(holes) // 2:
                    assert evaluate(q, s, env, limits) is BOT
                else:
                    with pytest.raises(ResourceError, match="summands"):
                        evaluate(q, s, env, limits)

    def test_each_candidate_comes_at_its_product_position(self):
        # The summand is undefined at one binding only (the hole), the
        # k-th in product order.  A budget of k summands reaches the hole
        # and answers bot; a budget of k - 1 stops just before it.  So
        # any other order, also one that keeps the earlier variables'
        # blocks, moves some hole across the bound.  e(y, x) draws y
        # alone from one conjunct, the triangle draws z from two
        universe = [f"u{i}" for i in range(3)]
        everywhere = [(y, x) for x in universe for y in reversed(universe)]
        triples = list(product(reversed(universe), repeat=3))
        pairs = parse("sum {x, y : e(y, x)} f(y, x)")
        triangles = parse("sum {x, y, z : e(x, y) and e(y, z) and e(z, x)} g(x, y, z)")
        for q, holes in (
            (pairs, [(y, x) for x in universe for y in universe]),
            (triangles, list(product(universe, repeat=3))),
        ):
            for k, hole in enumerate(holes, 1):
                s = WeightedStructure.build(
                    universe,
                    relations={"e": (2, everywhere)},
                    weights={
                        "f": (2, {t: 1 for t in everywhere if t != hole}),
                        "g": (3, {t: 1 for t in triples if t != hole}),
                    },
                )
                assert evaluate(q, s, limits=EvalLimits(max_summands=k)) is BOT
                with pytest.raises(ResourceError, match="summands"):
                    evaluate(q, s, limits=EvalLimits(max_summands=k - 1))

    def test_no_skipped_binding_hides_a_budget_error(self):
        # the count precedes the relation conjunct, so its budget is
        # charged on every binding of x, also on b where p(x) fails
        s = WeightedStructure.build(
            ["a", "b", "c"],
            relations={"p": (1, [("a",)]), "e": (2, [("b", "a"), ("b", "b"), ("b", "c")])},
        )
        q = parse("sum {x : count {y : e(x, y)} >= 0 and p(x)} 1")
        with pytest.raises(ResourceError, match="summands"):
            evaluate(q, s, limits=EvalLimits(max_summands=2))
        assert evaluate(q, s, limits=EvalLimits(max_summands=3)) == rational(1)

    def test_no_skipped_binding_hides_an_arithmetic_error(self):
        # w(a) * w(a) exceeds the bit bound: a conjunct after the
        # arithmetic must not skip x = a (or y = a) where e fails, for the
        # leading variable or a later one; one before it may
        s = WeightedStructure.build(
            ["a", "b"],
            relations={"e": (1, [("b",)])},
            weights={"w": (1, {("a",): 2 ** (2**19 + 5), ("b",): 1})},
        )
        for text in (
            "sum {x : w(x) * w(x) > 0 and e(x)} 1",
            "sum {x : w(x) * w(x) > 0 and (e(x) or e(x))} 1",
            "sum {x, y : e(x) and w(y) * w(y) > 0 and e(y)} 1",
        ):
            with pytest.raises(ResourceError, match="'[*]' result exceeds 1048576 bits"):
                evaluate(parse(text), s)
        assert evaluate(parse("sum {x, y : e(x) and e(y) and w(y) * w(y) > 0} 1"), s) == rational(1)

    def test_build_rejects_the_tuples_the_index_would_skip(self):
        # the support index reads checked tables only: a tuple outside the
        # universe or of the wrong length never gets past build
        e = [("a", "zz"), ("a", "b"), ("a",)]
        w = {("zz", "a"): 1, ("b", "a"): 1, ("a",): 1}
        either = r"^relation e: (tuple \('a', 'zz'\) has non-universe components|arity mismatch in tuple \('a',\))$"
        with pytest.raises(UsageError, match=either):
            WeightedStructure.build(["a", "b"], relations={"e": (2, e)})
        with pytest.raises(UsageError, match=r"^weight w: tuple \('zz', 'a'\) has non-universe components$"):
            WeightedStructure.build(["a", "b"], weights={"w": (2, w)})
        with pytest.raises(UsageError, match=r"^weight w: arity mismatch in tuple \('a',\)$"):
            WeightedStructure.build(["a", "b"], weights={"w": (2, {("b", "a"): 1, ("a",): 1})})

    def test_out_of_order_conjunct_loses_to_a_drawable_one(self, monkeypatch):
        # e(y, x) mentions as many bound variables as e(x, y) and comes
        # first, but only e(x, y) names them in binder order; alone, it
        # draws y for each x
        built = []
        original = wsq.evaluator._support_index

        def spy(indexes, signature, table, rank):
            if signature not in indexes:
                built.append(signature)
            return original(indexes, signature, table, rank)

        monkeypatch.setattr(wsq.evaluator, "_support_index", spy)
        s = WeightedStructure.build(
            ["a", "b", "c"], relations={"e": (2, [("a", "b"), ("b", "a"), ("b", "c")])}
        )
        for text in ("sum {x, y : e(y, x) and e(x, y)} 1", "sum {x, y : e(x, y) and e(y, x)} 1"):
            built.clear()
            q = parse(text)
            assert evaluate(q, s) == rational(2)
            assert built == [("e", (0, 1))]
        built.clear()
        assert evaluate(parse("sum {x, y : e(y, x)} 1"), s) == rational(3)
        assert built == [("e", (0, -1))]

    def test_support_index_keeps_repeated_positions_equal(self):
        table = {("a", "a", "c"), ("d", "b", "c"), ("b", "b", "c"), ("b", "b", "d")}
        # e(y, y, x) with y bound and x outer
        rank = {elem: i for i, elem in enumerate(("b", "a", "c", "d"))}
        index = wsq.evaluator._support_index({}, ("e", (0, 0, -1)), table, rank)
        assert index.keys() == {("c",), ("d",)}
        # the drawn values, in universe order
        assert list(index[("c",)]) == [("b",), ("a",)]
        assert list(index[("d",)]) == [("b",)]

    def test_index_built_lazily_and_shared(self, monkeypatch, two_triangle_graph):
        built = []
        original = wsq.evaluator._support_index

        def spy(indexes, signature, table, rank):
            if signature not in indexes:
                built.append(signature)
            return original(indexes, signature, table, rank)

        monkeypatch.setattr(wsq.evaluator, "_support_index", spy)
        net = clamp_net()
        s = with_input(net, [Fraction(1, 2)])
        # three levels of sums over wt(y, x) != bot share one index; the
        # output position reads le_out(x, x) and counts le_out(y0, x)
        assert evaluate(make_eval(3, 1), s) == forward(net, [Fraction(1, 2)])[0]
        assert sorted(built) == [("le_out", (0, -1)), ("le_out", (0, 0)), ("wt", (0, -1))]
        built.clear()
        # a binder that never runs builds nothing
        untaken = parse("if 0 <= 1 then 1 else sum {y : wt(y, x) != bot} 1")
        assert evaluate(untaken, s, {"x": "o"}) == rational(1)
        assert built == []
        # the flat triangle count draws (x, y) from wt, and z from wt
        # keyed by y, filtered by wt keyed by x
        assert evaluate(make_basic("triangles_count"), two_triangle_graph) == rational(6)
        assert built == [("wt", (0, 1)), ("wt", (-1, 0)), ("wt", (0, -1))]

    def test_later_slots_draw_only_their_intersection(self, monkeypatch, two_triangle_graph):
        # with every usable conjunct naming a slot, the candidates are
        # exactly the bindings that satisfy the guard
        drawn = [0]
        original = _Compiler._bindings

        def counting(self, *args):
            bindings = original(self, *args)

            def counted(env):
                for combo in bindings(env):
                    drawn[0] += 1
                    yield combo

            return counted

        monkeypatch.setattr(_Compiler, "_bindings", counting)
        s = two_triangle_graph.expand(relations={"p": (1, [("a",), ("c",)])})
        for text, answer in (
            ("sum {x, y : wt(y, x) != bot} 1", 5),
            ("sum {x, y, z : wt(x, y) != bot and wt(y, z) != bot and wt(z, x) != bot} 1", 6),
            ("count {x, y, z : wt(z, x) != bot and wt(y, z) != bot and wt(x, y) != bot and p(z)}", 3),
            ("sum {x, y, z : p(x) and wt(z, y) != bot and wt(y, x) != bot} 1", 3),
        ):
            drawn[0] = 0
            q = parse(text)
            assert evaluate(q, s) == rational(answer)
            assert normalize(ref_evaluate(q, s)) == ("term", answer)
            assert drawn[0] == answer, text

    def test_agrees_with_reference_on_wide_guards(self, monkeypatch):
        # two- and three-variable binders under two to four conjuncts in
        # every argument order, with repeated and outer variables, also in
        # fixed-point bodies, where conjuncts may read the intensional symbol
        seen = {"drawn later": 0, "intersected": 0}
        original = _Compiler._candidates

        def spy(self, conjs, slot):
            if conjs:
                seen["drawn later"] += 1
            if len(conjs) > 1:
                seen["intersected"] += 1
            return original(self, conjs, slot)

        monkeypatch.setattr(_Compiler, "_candidates", spy)
        rng = random.Random(64)
        for case in range(450):
            s = random_structure(rng, drop_prob=0.05)
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            if case % 3:
                e = _guarded_binder(rng, ("x", "y"), wide=True)
                if rng.random() < 0.3:
                    e = Sum(("x",), RelAtom("p", ("x",)), e)
            else:
                binder = _guarded_binder(rng, ("v0", "x"), ifp=True, wide=True)
                e = Ifp("F", ("v0",), Arith("+", binder, WeightAtom("F", ("v0",))), ("y",))
            assert normalize(evaluate(e, s, env)) == normalize(ref_evaluate(e, s, env)), to_text(e)
        assert min(seen.values()) >= 30, seen

    def test_agrees_with_reference_on_defined_weights(self):
        # every weight is defined, so most answers are defined nonzero
        # values, while the relations, half of all tuples, keep the guards
        # sparse
        outcomes = {"bot": 0, "zero": 0, "nonzero": 0}
        rng = random.Random(65)
        for case in range(300):
            s = random_full_structure(rng)
            env = {"x": rng.choice(s.universe), "y": rng.choice(s.universe)}
            e = _guarded_binder(rng, ("x", "y"), wide=case % 2 == 1)
            if rng.random() < 0.3:
                e = Sum(("x",), RelAtom("p", ("x",)), e)
            got = normalize(evaluate(e, s, env))
            assert got == normalize(ref_evaluate(e, s, env)), to_text(e)
            value = got[1]
            outcomes["bot" if value is None else "zero" if value == 0 else "nonzero"] += 1
        assert outcomes["nonzero"] >= 120, outcomes

    def test_binders_test_only_the_residual(self, monkeypatch, two_triangle_graph):
        # counts the runs of each formula closure, nested ones too: a
        # binder runs only the guard conjuncts its draw does not enforce
        runs: dict[str, int] = {}
        original = _Compiler.compile

        def counting(self, n, scope, term=False):
            fn, mask = original(self, n, scope, term)
            if term is not False:
                return fn, mask
            text = to_text(n)

            def counted(env):
                runs[text] = runs.get(text, 0) + 1
                return fn(env)

            return counted, mask

        monkeypatch.setattr(_Compiler, "compile", counting)
        s = two_triangle_graph.expand(
            relations={"e": (2, [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")]), "p": (1, [("a",), ("c",)])},
            weights={"w": (1, {("a",): 1, ("b",): -1, ("c",): 2})},
        )
        for text, answer, expected in (
            ("count {x, y, z : wt(x, y) != bot and wt(y, z) != bot and wt(z, x) != bot}", 6, {}),
            ("sum {x, y : e(x, y) and w(x) > 0} 1", 2, {"w(x) > 0": 4}),
            # e(y, x) is usable but not drawn: e(x, y) draws both variables
            ("sum {x, y : e(x, y) and e(y, x)} 1", 2, {"e(y, x)": 4}),
            # p(x) follows arithmetic, so the draw runs over the universe
            ("sum {x : w(x) * 2 > 0 and p(x)} 1", 2, {"w(x) * 2 > 0": 4, "p(x)": 2}),
            (
                "avg {x : p(x) and not e(x, x) and wt(x, x) = bot} w(x)",
                Fraction(3, 2),
                {"not e(x, x)": 2, "e(x, x)": 2, "wt(x, x) = bot": 2},
            ),
            ("forall x (p(x) implies w(x) > 0)", True, {"w(x) > 0": 2}),
            ("forall x (p(x) and wt(x, x) = bot implies w(x) > 0)", True, {"wt(x, x) = bot": 2, "w(x) > 0": 2}),
            ("exists x (p(x) and w(x) < 0)", False, {"w(x) < 0": 2}),
            ("exists y e(x, y)", True, {}),
        ):
            q = parse(text)
            env = {"x": "b"}
            runs.clear()
            got = evaluate(q, s, env)
            assert runs == expected, text
            assert got == (answer if type(answer) is bool else rational(answer)), text
            assert normalize(got) == normalize(ref_evaluate(q, s, env)), text

    def test_coverage_is_decided_by_the_whole_guard(self, two_triangle_graph):
        # the misuse, the uncovered symbol or the free variable sits only
        # in a drawn conjunct, whose test the binder skips
        binary = two_triangle_graph.expand(relations={"e": (2, [("a", "b"), ("b", "c")]), "p": (1, [("a",)])})
        unary = two_triangle_graph.expand(relations={"e": (1, [("a",), ("b",)]), "p": (1, [("a",)])})
        for s in (binary, unary):
            with pytest.raises(UsageError, match="^symbol 'e' used with arities 2 and 1$"):
                evaluate(parse("count {x, y : wt(x, y) != bot and e(x, y) and e(y)}"), s)
            with pytest.raises(UsageError, match="^unbound variables: u$"):
                evaluate(parse("sum {x : e(x, u)} 1"), s)
            with pytest.raises(UsageError, match="^unbound variables: u$"):
                evaluate(parse("exists x e(x, u)"), s)
        for text in ("sum {x : e(x)} 1", "count {x : p(x) and e(x)}"):
            assert evaluate(parse(text), binary) is BOT
        assert evaluate(parse("exists x e(x)"), binary) is False
        assert evaluate(parse("forall x (e(x) implies p(x))"), binary) is False
        # the memo key of an inner binder reads the outer variable that
        # only its drawn conjunct names
        for text in ("sum {x : p(x) or not p(x)} count {y : e(x, y)}", "count {x : exists y e(x, y)}"):
            assert evaluate(parse(text), binary) == rational(2)


class TestTrackedFixpoint:
    """Tuples are recomputed only after an entry they read is defined."""

    def test_memo_hit_replays_reads(self):
        # the exists ignores x and is memoised: n1 computes it, n2 and n3
        # hit the memo, and must still wait on the entries it read
        q = parse(
            "ifp (F(x) <- if not exists y wt(y, x) != bot then 1 "
            "else if exists z F(z) != bot then 2 else bot) (x)"
        )
        net = path_net(3)
        table = ifp_iterate("F", ("x",), q.body, net.structure)
        assert table.rounds == 2
        assert table.entries == {
            ("n0",): rational(1),
            ("n1",): rational(2),
            ("n2",): rational(2),
            ("n3",): rational(2),
        }
        for node in net.structure.universe:
            expected = normalize(ref_evaluate(q, net.structure, {"x": node}))
            assert normalize(evaluate(q, net.structure, {"x": node})) == expected

    def test_nested_memo_reads_both_symbols(self):
        # the count inside G ignores u and reads both F and G
        q = parse(
            "ifp (F(x) <- if not exists y wt(y, x) != bot then 1 else "
            "ifp (G(u) <- if count {z : F(z) != bot and G(z) = bot} >= 1 then 1 else bot) (x)) (x)"
        )
        rng = random.Random(43)
        for net in [path_net(3)] + [random_fnn(rng, max_depth=3, max_width=3) for _ in range(4)]:
            for node in net.structure.universe:
                expected = normalize(ref_evaluate(q, net.structure, {"x": node}))
                assert normalize(evaluate(q, net.structure, {"x": node})) == expected

    def test_rounds_match_external_iteration_on_guarded_bodies(self):
        rng = random.Random(44)
        for _ in range(60):
            s = random_structure(rng, drop_prob=0.0)
            body = Arith("+", _guarded_binder(rng, ("v0", "x"), ifp=True), WeightAtom("F", ("v0",)))
            if rng.random() < 0.5:
                body = Cond(RelAtom("p", ("v0",)), One(), body)
            env = {"x": rng.choice(s.universe)}
            table = ifp_iterate("F", ("v0",), body, s, env)
            assert (table.entries, table.rounds) == _reference_iteration("v0", body, s, env)

    def test_eval_node_body_registers_no_memo(self, monkeypatch):
        # memo tables never live inside a fixed-point body, not even for a
        # binder that ignores the body's tuple
        registered = []
        original = _Compiler._memo

        def spy(self, fn, mask, scope, *parts):
            out = original(self, fn, mask, scope, *parts)
            if out is not fn and scope.cells:
                registered.append(mask)
            return out

        monkeypatch.setattr(_Compiler, "_memo", spy)
        net = random_fnn(random.Random(45), max_depth=3, max_width=3)
        x = [Fraction(1, k + 2) for k in range(net.input_dim)]
        outputs = forward(net, x)
        expected = sum((out.frac for out in outputs), Fraction(0)) / len(outputs)
        assert evaluate(make_eval_node(), with_input(net, x)) == rational(expected)
        replaying = parse(
            "ifp (F(x) <- if not exists y wt(y, x) != bot then 1 "
            "else if exists z F(z) != bot then 2 else bot) (x)"
        )
        assert evaluate(replaying, path_net(3).structure, {"x": "n3"}) == rational(2)
        assert registered == []


def _signed_weights():
    """f(a) = -1/2, f(b) = 0, f(c) = 3 and f(d) = bot."""
    return WeightedStructure.build(
        ["a", "b", "c", "d"], weights={"f": (1, {("a",): Fraction(-1, 2), ("b",): 0, ("c",): 3})}
    )


class TestZeroOperands:
    """A comparison or a product with a 0 operand is settled at compile
    time, with the meaning the general rules give it."""

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("zero_left", [True, False], ids=["zero_left", "zero_right"])
    def test_order_against_zero_agrees_with_reference(self, op, zero_left):
        s = _signed_weights()

        def against_zero(t):
            return f"0 {op} {t}" if zero_left else f"{t} {op} 0"

        # bare, inside a binder, and memoised inside a binder that ignores x
        for text in (
            against_zero("f(x)"),
            f"count {{y : {against_zero('f(y)')}}}",
            f"count {{y : {against_zero('(f(x) + f(x))')}}}",
        ):
            q = parse(text)
            for elem in s.universe:
                got = evaluate(q, s, {"x": elem})
                assert normalize(got) == normalize(ref_evaluate(q, s, {"x": elem})), (text, elem)

    @pytest.mark.parametrize("text", ["0 * f(x)", "f(x) * 0"])
    def test_product_with_zero_is_zero_or_bot(self, text):
        s = _signed_weights()
        q = parse(text)
        for elem, expected in [("a", rational(0)), ("b", rational(0)), ("c", rational(0)), ("d", BOT)]:
            assert evaluate(q, s, {"x": elem}) == expected, elem
            assert normalize(ref_evaluate(q, s, {"x": elem})) == normalize(expected)

    @pytest.mark.parametrize(
        "text", ["0 * (f(x) * f(x))", "(f(x) * f(x)) * 0", "sum {x : f(x) != bot} (0 * (f(x) * f(x)))"]
    )
    def test_product_with_zero_still_runs_its_operand(self, monkeypatch, text):
        # 16 * 16 needs 9 bits: the operand raises although 0 times it fits
        monkeypatch.setattr(wsq.numerics, "MAX_BITS", 8)
        s = WeightedStructure.build(["a"], weights={"f": (1, {("a",): 16})})
        with pytest.raises(ResourceError) as exc:
            evaluate(parse(text), s, {"x": "a"})
        assert str(exc.value) == "'*' result exceeds 8 bits"

    @pytest.mark.parametrize("product", ["0 * F(y)", "F(y) * 0"])
    def test_fixpoint_read_only_under_a_zero_product(self, product):
        # F(y) adds nothing to the value, but a node stays undefined until
        # its predecessors are defined, so each layer takes one round
        body = parse(
            "if not exists y wt(y, x) != bot then 1 "
            f"else 1 + sum {{y : wt(y, x) != bot}} ({product})"
        )
        q = Ifp("F", ("x",), body, ("x",))
        for s, layers in ((path_net(4).structure, 5), (clamp_net().structure, 3)):
            table = ifp_iterate("F", ("x",), body, s)
            assert (table.entries, table.rounds) == _reference_iteration("x", body, s, {})
            assert table.entries == {(elem,): rational(1) for elem in s.universe}
            assert table.rounds == layers
            for elem in s.universe:
                assert normalize(evaluate(q, s, {"x": elem})) == normalize(ref_evaluate(q, s, {"x": elem}))


class TestFoldAccumulator:
    """An additive fold starts from its first summand and checks the bits
    of every value it holds."""

    def test_empty_sum_is_zero(self):
        s = _signed_weights()
        # only d has f undefined, so the last guard holds nowhere
        for text in (
            "sum {x : not x = x} f(x)",
            "sum {x : f(x) > 3} f(x)",
            "sum {x, y : f(x) = bot and f(y) = bot and not x = y} f(x)",
        ):
            assert evaluate(parse(text), s) == rational(0), text

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    def test_one_summand_is_the_result(self, kind):
        s = _signed_weights()
        q = parse(f"{kind} {{y : y = x}} f(y)")
        for elem, value in [("a", Fraction(-1, 2)), ("b", Fraction(0)), ("c", Fraction(3))]:
            result = evaluate(q, s, {"x": elem})
            assert type(result.frac) is Fraction and result.frac == value, elem
        assert evaluate(q, s, {"x": "d"}) is BOT

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    def test_one_over_long_summand_raises(self, kind):
        # a numerator of 2^20 + 1 bits, read from the structure, not computed
        s = WeightedStructure.build(["a", "b"], weights={"f": (1, {("a",): 2 ** 2**20})})
        with pytest.raises(ResourceError) as exc:
            evaluate(parse(f"{kind} {{x : f(x) != bot}} f(x)"), s)
        assert str(exc.value) == f"'{kind}' result exceeds 1048576 bits"
