"""Parser, printer, binding analysis, fragment checker, desugaring."""

import dataclasses
import gc
import pickle
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import pytest

from randgen import random_expression, random_structure
from wsq.errors import ParseError, ResourceError, UsageError
from wsq.evaluator import evaluate
from wsq.numerics import MAX_DIGITS, ExtRational, rational
from wsq.queries import make_eval, make_eval_node, make_integrate_2_1, make_squaring, make_useless
from wsq.structures import WeightedStructure
from wsq.syntax import (
    Aggregate,
    And,
    Arith,
    Atom,
    Or,
    BotConst,
    Compare,
    Cond,
    ElemEq,
    Exists,
    Forall,
    Ifp,
    Implies,
    Leq,
    Literal,
    Node,
    Not,
    One,
    RelAtom,
    Sum,
    Violation,
    WeightAtom,
    Zero,
    check_scalar_fragment,
    children,
    desugar,
    free_vars,
    literal_term,
    parse,
    substitute,
    to_text,
    tokenize,
    vocabulary_of,
    walk,
)
from wsq.syntax.nodes import _CHILD_FIELDS, bound_vars, map_children
from wsq.syntax import parser as parser_module
from wsq.syntax.parser import _Parser, _scan


class TestParse:
    def test_sum_over_relation_guard(self):
        e = parse("sum {x, y : edge(x, y)} 1")
        assert e == Sum(("x", "y"), RelAtom("edge", ("x", "y")), One())

    def test_minimal_fixed_point(self):
        e = parse("ifp (F(x) <- inp(x)) (x)")
        assert e == Ifp("F", ("x",), WeightAtom("inp", ("x",)), ("x",))

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("1 +")

    def test_positions_on_error(self):
        with pytest.raises(ParseError, match="line 1, column 7"):
            parse("1 + 2 @")

    def test_positions_track_lines(self):
        with pytest.raises(ParseError, match="line 3, column 6"):
            parse("sum {x :\n  p(x)}\n  f(x@)")

    def test_element_equality_vs_term_equality(self):
        assert parse("x = y") == ElemEq("x", "y")
        assert parse("x != y") == Not(ElemEq("x", "y"))
        e = parse("wt(x, y) = f(x)")
        assert isinstance(e, Compare) and e.op == "="

    def test_mixed_equality_rejected(self):
        with pytest.raises(ParseError, match="element variable with a term"):
            parse("x = f(y)")

    def test_root_atom_stays_generic(self):
        assert parse("wt(x, y)") == Atom("wt", ("x", "y"))
        assert parse("flag()") == Atom("flag", ())

    def test_bare_variable_rejected(self):
        with pytest.raises(ParseError, match="bare variable"):
            parse("x")

    def test_operator_precedence(self):
        e = parse("1 + 2 * 3 <= 9 and p(x) or q(x)")
        assert isinstance(e, Or)
        assert isinstance(e.left, And)
        comparison = e.left.left
        assert isinstance(comparison.left, Arith) and comparison.left.op == "+"
        assert comparison.left.right.op == "*"

    def test_implies_is_right_associative(self):
        e = parse("p() implies q() implies r()")
        assert isinstance(e, Implies) and isinstance(e.right, Implies)

    def test_unary_minus_is_zero_minus(self):
        assert parse("-5") == Arith("-", Zero(), Literal(Fraction(5)))

    def test_rational_literals(self):
        assert parse("3/4") == Literal(Fraction(3, 4))
        assert parse("0.25") == Literal(Fraction(1, 4))
        assert parse("2/2") == One()
        # a zero denominator is division, not a literal
        assert parse("1/0") == Arith("/", One(), Zero())

    def test_sum_body_binds_tighter_than_addition(self):
        e = parse("sum {x : p(x)} f(x) + 1")
        assert isinstance(e, Arith) and isinstance(e.left, Sum)

    def test_else_branch_is_greedy(self):
        e = parse("if p() then 1 else 2 + 3")
        assert isinstance(e, Cond) and isinstance(e.otherwise, Arith)

    def test_quantifier_scope_is_prefix_level(self):
        e = parse("exists x p(x) and q(x)")
        assert isinstance(e, And) and isinstance(e.left, Exists)

    # the node constructor refuses these; the parser reports its text at
    # the node's first token, once the node's last token is read
    def test_duplicate_binder_rejected(self):
        for text, message in (
            ("sum {x, x : p(x)} 1", "duplicate variable 'x' in binder (line 1, column 1)"),
            ("ifp (F(x, x) <- 1) (x, x)", "duplicate variable 'x' in binder (line 1, column 1)"),
            ("1 +\n  count {y, x, y : p(x)}", "duplicate variable 'y' in binder (line 2, column 3)"),
        ):
            with pytest.raises(ParseError) as error:
                parse(text)
            assert str(error.value) == message

    def test_ifp_arity_mismatch_rejected(self):
        with pytest.raises(ParseError) as error:
            parse("ifp (F(x, y) <- 1) (x)")
        assert str(error.value) == "fixed point binds 2 variables but is applied to 1 (line 1, column 1)"

    @pytest.mark.parametrize("form", ["{}", "0.{}", "1/{}"])
    @pytest.mark.parametrize("before", ["", "2 * (\n  "])
    def test_literal_beyond_the_digit_limit(self, form, before):
        # one digit more than 2^MAX_BITS - 1 has; the parser says where it is
        literal = form.format("9" * (MAX_DIGITS + 1))
        text = before + literal + (")" if before else "")
        line, column = (2, 3) if before else (1, 1)
        with pytest.raises(ParseError) as error:
            parse(text)
        message = f"number too long ({len(literal)} characters) (line {line}, column {column})"
        assert str(error.value) == message

    def test_an_over_long_literal_fails_at_its_first_occurrence(self):
        literal = "9" * (MAX_DIGITS + 1)
        with pytest.raises(ParseError) as error:
            parse(f"f(x) + {literal} *\n  {literal}")
        assert (error.value.line, error.value.column) == (1, 8)

    def test_a_literal_past_pythons_digit_limit_reads(self):
        # 5 000 digits, past the 4 300 Python converts by default
        e = parse(f"f(x) + {'9' * 5000}/7 * 0.{'3' * 5000}")
        assert e.right.left == Literal(Fraction(10**5000 - 1, 7))
        assert e.right.right == Literal(Fraction(10**5000 // 3, 10**5000))

    def test_a_repeated_literal_is_one_node(self):
        e = parse("2.5 * f(x) + 2.5 * (5/2 - f(x))")
        assert e.left.left is e.right.left is e.right.right.left
        assert e.left.left.span == (1, 1)

    def test_keywords_are_reserved(self):
        with pytest.raises(ParseError):
            parse("sum {if : p(if)} 1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a < b < c", "variable 'a' used where a term is required (line 1, column 1)"),
            ("1 < p() < 2", "unexpected '<' after the expression (line 1, column 9)"),
            ("f() <= g() = h()", "unexpected '=' after the expression (line 1, column 12)"),
            ("not 1 < 2 <= 3", "unexpected '<=' after the expression (line 1, column 11)"),
            ("p() and 1 != 2 < 3", "unexpected '<' after the expression (line 1, column 16)"),
            ("p() implies 1 < 2 < 3", "unexpected '<' after the expression (line 1, column 19)"),
            (
                "p() or 1 / if p() then 1 else 2 = 3 < 4",
                "unexpected '<' after the expression (line 1, column 37)",
            ),
            ("1 + not p(x)", "expected an expression, found 'not' (line 1, column 5)"),
            ("- not p()", "expected an expression, found 'not' (line 1, column 3)"),
            ("sum {x : p(x)} not q(x)", "expected an expression, found 'not' (line 1, column 16)"),
            ("exists x p(x) + 1", "term used where a formula is required (line 1, column 15)"),
            ("p(x) not q(x)", "unexpected 'not' after the expression (line 1, column 6)"),
            ("forall 1 p()", "expected a variable name, found '1' (line 1, column 8)"),
            ("1 +\n  $", "unexpected character '$' (line 2, column 3)"),
            ("", "expected an expression at end of input (line 1, column 1)"),
            ("1 * -", "expected an expression at end of input (line 1, column 6)"),
            ("f(x) = y", "cannot compare an element variable with a term (line 1, column 6)"),
            ("1 or p()", "term used where a formula is required (line 1, column 1)"),
            ("p(x) and 1", "term used where a formula is required (line 1, column 10)"),
            # the second f(x) + 1 is the first's node object, but the error names it
            ("f(x) + 1 + (f(x) + 1 and p())", "term used where a formula is required (line 1, column 18)"),
            ("1 + 2 * (2 and p())", "term used where a formula is required (line 1, column 10)"),
            ("1 + (p(x) and q(x))", "formula used where a term is required (line 1, column 11)"),
            (
                "if p() then 1 else 2 and q()",
                "term used where a formula is required (line 1, column 1)",
            ),
            ("if p() then 1 2", "expected 'else', found '2' (line 1, column 15)"),
            ("sum {x : p(x) 1", "expected '}', found '1' (line 1, column 15)"),
            ("ifp (F(x) 1) (x)", "expected '<-', found '1' (line 1, column 11)"),
            ("(1 + 2", "expected ')', found end of input (line 1, column 7)"),
            ("3/0x", "unexpected 'x' after the expression (line 1, column 4)"),
            ("1.5.5", "unexpected character '.' (line 1, column 4)"),
            ("\u0663", "unexpected character '\u0663' (line 1, column 1)"),
            ("\u0661/\u0662 + 0", "unexpected character '\u0661' (line 1, column 1)"),
            (
                "\tq(x)\r\n  and\n\n  x",
                "variable 'x' used where a formula is required (line 4, column 3)",
            ),
        ],
    )
    def test_error_text(self, text, message):
        with pytest.raises(ParseError) as error:
            parse(text)
        assert str(error.value) == message


_DIGITS = frozenset("0123456789")
_WORD = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_KEYWORDS = "not and or implies exists forall sum count avg min max if then else ifp bot".split()


def _reference_tokens(text: str) -> list[tuple]:
    """``tokenize``'s ``(type, text, line, column)`` tuples, read one character
    at a time; a character outside the syntax ends the list as ``("bad", ...)``."""
    out, i, line, column = [], 0, 1, 1

    def peek(k):
        return text[k] if k < len(text) else ""

    while i < len(text):
        c, j = text[i], i + 1
        if c == "\n":
            i, line, column = j, line + 1, 1
            continue
        if c in " \t\r":
            i, column = j, column + 1
            continue
        if c in _DIGITS:
            while peek(j) in _DIGITS:
                j += 1
            if peek(j) == "." and peek(j + 1) in _DIGITS:
                j += 2
                while peek(j) in _DIGITS:
                    j += 1
            elif peek(j) == "/":
                k = j + 1
                while peek(k) == "0":
                    k += 1
                if peek(k) in _DIGITS:
                    j = k + 1
                    while peek(j) in _DIGITS:
                        j += 1
            kind = "number"
        elif c in _WORD:
            while peek(j) in _WORD:
                j += 1
            kind = text[i:j] if text[i:j] in _KEYWORDS else "ident"
        elif text[i : i + 2] in ("<=", "<-", "!=", ">="):
            j = i + 2
            kind = text[i:j]
        elif c in "<>=+-*/(){}:,":
            kind = c
        else:
            return out + [("bad", c, line, column)]
        out.append((kind, text[i:j], line, column))
        i, column = j, column + j - i
    return out + [("eof", "", line, column)]


class TestScanner:
    """Tokens, spans and character errors on random text with random blanks
    between its tokens, against the reference reader above."""

    SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", " \t\n  ", "\n\n\t"]

    def test_agrees_with_the_reference_on_respaced_random_text(self):
        rng = random.Random(18)
        for _ in range(300):
            flat = to_text(random_expression(rng, rng.randint(0, 5), rng.choice(["formula", "term"]), ("x", "y")))
            flat_tokens = _reference_tokens(flat)
            words = [t[1] for t in flat_tokens[:-1]] + [""]
            gaps = [rng.choice(self.SEPARATORS) for _ in words]
            text = "".join(gap + word for gap, word in zip(gaps, words))
            expected = _reference_tokens(text)
            assert [tuple(t) for t in tokenize(text)] == expected, text
            # a node's span is the position of its head token, the same token in both texts
            index = {(line, column): k for k, (_, _, line, column) in enumerate(flat_tokens)}
            heads = [expected[index[n.span]][2:] for _, n in walk(parse(flat))]
            assert [n.span for _, n in walk(parse(text))] == heads, text
            # a character outside the syntax, planted in a random gap
            k = rng.randrange(len(gaps))
            cut = rng.randint(0, len(gaps[k]))
            gaps[k] = gaps[k][:cut] + rng.choice("@$#.\x0b\u0663\u00e9") + gaps[k][cut:]
            planted = "".join(gap + word for gap, word in zip(gaps, words))
            kind, char, line, column = _reference_tokens(planted)[-1]
            assert kind == "bad"
            with pytest.raises(ParseError) as error:
                parse(planted)
            assert (error.value.line, error.value.column) == (line, column), planted
            assert str(error.value) == f"unexpected character {char!r} (line {line}, column {column})"

    def test_agrees_with_the_reference_on_long_respaced_text(self):
        # a random text, respaced, twice over in 130 brackets: the memo is
        # on, the second copy reuses spans of the first, and the scan
        # resumes after each of them
        rng = random.Random(28)
        for _ in range(150):
            kind = rng.choice(["formula", "term"])
            flat = to_text(random_expression(rng, rng.randint(1, 5), kind, ("x", "y")))
            words = [t[1] for t in _reference_tokens(flat)[:-1]]
            gaps = [rng.choice(self.SEPARATORS) for _ in words]
            join = " and " if kind == "formula" else " + "

            def twice(first, second):
                return _long(f"({first}){join}({second})")

            copy = "".join(gap + word for gap, word in zip(gaps, words))
            text = twice(copy, copy)
            expected = _reference_tokens(text)
            assert [tuple(t) for t in tokenize(text)] == expected, text
            e = parse(text)
            assert e == parse(f"({flat}){join}({flat})")
            # the same tokens as in the printed text twice over, so a node's
            # span is the position of the same token in both
            index = {(line, column): k for k, (_, _, line, column) in enumerate(_reference_tokens(twice(flat, flat)))}
            heads = [expected[index[n.span]][2:] for _, n in walk(parse(twice(flat, flat)))]
            assert [n.span for _, n in walk(e)] == heads, text
            # a character outside the syntax, planted in a random gap of one copy
            k = rng.randrange(len(gaps))
            cut = rng.randint(0, len(gaps[k]))
            planted = gaps[:k] + [gaps[k][:cut] + rng.choice("@$#.\x0b\u0663\u00e9") + gaps[k][cut:]] + gaps[k + 1 :]
            planted = "".join(gap + word for gap, word in zip(planted, words))
            text = twice(copy, planted) if rng.random() < 0.7 else twice(planted, copy)
            kind, char, line, column = _reference_tokens(text)[-1]
            assert kind == "bad"
            with pytest.raises(ParseError) as error:
                parse(text)
            assert str(error.value) == f"unexpected character {char!r} (line {line}, column {column})", text

    @pytest.mark.parametrize("text", ["0", "007", "1.5", "1.", ".5", "3/0", "3/04", "3/00", "1e3"])
    def test_number_tokens_are_the_texts_a_rational_reads(self, text):
        try:
            kinds = _scan(text)[0]
        except ParseError:
            kinds = None
        try:
            ExtRational.parse(text)
        except ValueError:
            read = False
        else:
            read = True
        assert (kinds == ["number", "eof"]) == read


def _round_trips(e) -> bool:
    """Reparse equality, modulo the one inherent ambiguity: a bare atom at
    the root prints as ``name(args)``, whose kind the parser leaves generic."""
    again = parse(to_text(e))
    if again == e:
        return True
    return (
        isinstance(again, Atom)
        and isinstance(e, (WeightAtom, RelAtom))
        and (again.name, again.args) == (e.name, e.args)
    )


class TestPrinter:
    CORPUS = [
        "sum {x, y : edge(x, y)} 1",
        "if inp(x) != bot then inp(x) else bias(x) + sum {y : wt(y, x) != bot} wt(y, x)",
        "ifp (F(x) <- inp(x)) (x)",
        "not (p(x) and q(x)) or x = y implies 1 <= 0",
        "count {x : x = x} * avg {y : p(y)} f(y)",
        "-(1 + 2) * 3/4",
        "forall x (p(x) implies exists y e(x, y))",
        "min {x : f(x) != bot} f(x) - max {x : p(x)} f(x)",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_round_trip_fixed_corpus(self, text):
        e = parse(text)
        assert parse(to_text(e)) == e

    def test_round_trip_of_a_literal_past_pythons_digit_limit(self):
        # numerator and denominator each past the 4 300 digits Python prints by default
        for value in (Fraction(10**5000 + 1, 3), Fraction(7, 10**5000 + 1)):
            e = Arith("+", One(), Literal(value))
            text = to_text(e)
            assert text.startswith("1 + ") and len(text) > 5000
            assert parse(text) == e

    def test_round_trip_random_expressions(self):
        rng = random.Random(100)
        for _ in range(300):
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            assert _round_trips(e), to_text(e)

    def test_round_trip_templates(self):
        from wsq.queries import BUILTINS

        for name, spec in BUILTINS.items():
            params = {p: 2 for p in spec.get("required", ())}
            e = spec["make"](**params)
            parsed = parse(to_text(e))
            assert parsed == e, name
            # one object per structurally equal subterm
            objects = _objects(parsed).values()
            assert len(set(objects)) == len(objects), name


class TestFreeVars:
    def test_sum_binds_its_tuple(self):
        e = parse("sum {x : p(x, y)} f(x)")
        assert free_vars(e) == {"y"}

    def test_ifp_swaps_bound_for_applied(self):
        e = Ifp("F", ("x",), parse("f(x) + f(y)"), ("z",))
        assert free_vars(e) == {"y", "z"}

    def test_closed_sentence(self):
        assert free_vars(parse("forall x exists y e(x, y)")) == set()

    def test_quantifier_binding(self):
        assert free_vars(parse("exists x e(x, y)")) == {"y"}


class TestVocabularyOf:
    def test_edges_count_uses_only_wt(self):
        from wsq.queries import make_basic

        info = vocabulary_of(make_basic("edges_count"))
        assert info.weights == {"wt": 2}
        assert info.relations == {} and info.intensional == {}

    def test_eval_node_split(self):
        info = vocabulary_of(make_eval_node(closed=False))
        assert info.weights == {"inp": 1, "bias": 1, "wt": 2}
        assert info.intensional == {"F": 1}
        assert info.relations == {}

    def test_weight_constant(self):
        assert vocabulary_of(parse("lo() + 1")).weights == {"lo": 0}

    def test_generic_atom_reported_separately(self):
        assert vocabulary_of(parse("edge(x, y)")).generic == {"edge": 2}

    def test_arity_conflict_rejected(self):
        with pytest.raises(UsageError, match="arities"):
            vocabulary_of(parse("f(x) + sum {y : p(y)} f(y, y)"))

    def test_kind_conflict_rejected(self):
        # p is a relation in the test and a weight atom in the branch
        with pytest.raises(UsageError, match="both relation and weight"):
            vocabulary_of(parse("if p(x) then p(x) else 0"))

    def test_shadowed_symbol_is_intensional_inside_only(self):
        e = parse("F(x) + ifp (F(y) <- F(y) + 1) (x)")
        info = vocabulary_of(e)
        assert info.weights == {"F": 1}
        assert info.intensional == {"F": 1}


def _unshared(n: Node) -> Node:
    """A copy of ``n`` in which every reference gets its own node object."""
    fields = {}
    for f in dataclasses.fields(n):
        if f.name != "span":
            value = getattr(n, f.name)
            fields[f.name] = _unshared(value) if isinstance(value, Node) else value
    return type(n)(**fields)


def _objects(n: Node) -> dict[int, Node]:
    """Every node object reachable from ``n``, by id."""
    seen: dict[int, Node] = {}
    stack = [n]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(children(node))
    return seen


def _distinct_nodes(n: Node) -> int:
    return len(_objects(n))


class TestSharedSubtrees:
    """The analyses visit a shared node once per binder context."""

    @pytest.mark.parametrize("d", range(5))
    def test_same_results_as_unshared_copy(self, d):
        shadowed = WeightAtom("F", ("x",))
        both_sides = Arith("+", shadowed, Ifp("F", ("x",), Arith("+", shadowed, One()), ("x",)))
        for e in (make_eval(d, 1), make_eval(d), make_useless(d), both_sides):
            copy = _unshared(e)
            assert copy == e
            assert free_vars(copy) == free_vars(e)
            assert vocabulary_of(copy) == vocabulary_of(e)
        if d:
            assert _distinct_nodes(make_eval(d)) < _distinct_nodes(_unshared(make_eval(d)))

    def test_context_of_a_shared_node_is_kept(self):
        # F(x) is extensional outside the fixed point and intensional inside
        shadowed = WeightAtom("F", ("x",))
        e = Arith("+", shadowed, Ifp("F", ("x",), Arith("+", shadowed, One()), ("y",)))
        info = vocabulary_of(e)
        assert info.weights == {"F": 1} and info.intensional == {"F": 1}
        assert free_vars(e) == {"x", "y"}

    def test_deep_template_completes(self):
        e = make_eval(40, 1)
        assert free_vars(e) == frozenset()
        info = vocabulary_of(e)
        assert info.weights == {"inp": 1, "bias": 1, "wt": 2}
        assert info.relations == {"le_out": 2}
        assert check_scalar_fragment(e) == []

    def test_shared_breach_reported_once(self):
        shifted = Arith("+", WeightAtom("F", ("x",)), One())
        square = Arith("*", shifted, shifted)
        # extensional outside the fixed point, a breach at both places inside
        e = Arith("+", square, Ifp("F", ("x",), Arith("+", square, square), ("x",)))
        assert [(v.op, v.path) for v in check_scalar_fragment(e)] == [("*", (1, 0, 0))]
        assert [v.path for v in check_scalar_fragment(_unshared(e))] == [(1, 0, 0), (1, 0, 1)]


class TestParseSharing:
    """One parse returns one node object per structurally equal subterm."""

    INTEGRATION = to_text(make_integrate_2_1())

    def test_equal_subterms_are_one_object(self):
        e = parse("(f(x) + 1) * (f(x) + 1) <= sum {y : p(y)} (f(x) + 1)")
        assert e.left.left is e.left.right is e.right.body
        # unary minus is 0 - t, down to the one Zero
        e = parse("-f(x) + (0 - f(x))")
        assert e.left is e.right

    def test_equal_values_share_across_notations(self):
        # x != y is sugar for not x = y; 0.5 and 1/2 are one literal
        for text in ("(x != y) and (not x = y)", "(0.5 < f(x)) and (1/2 < f(x))"):
            e = parse(text)
            assert e.left is e.right, text

    @pytest.mark.parametrize(
        "kind, a, b",
        [
            ("formula", "1 < f(x)", "1 > f(x)"),
            ("formula", "1 <= f(x)", "1 < f(x)"),
            ("formula", "x = y", "y = x"),
            ("formula", "exists x e(x, y)", "exists y e(x, y)"),
            ("formula", "exists x p(x)", "forall x p(x)"),
            ("formula", "p(x) and q(x)", "p(x) or q(x)"),
            ("formula", "p(x)", "p(y)"),
            ("term", "f(x) + g(x)", "f(x) - g(x)"),
            ("term", "f(x) * g(x)", "f(x) / g(x)"),
            ("term", "2", "3"),
            ("term", "f(x)", "g(x)"),
            ("term", "min {x : p(x)} f(x)", "max {x : p(x)} f(x)"),
            ("term", "count {x : e(x, y)}", "count {y : e(x, y)}"),
            ("term", "sum {x : e(x, y)} 1", "sum {y : e(x, y)} 1"),
            ("term", "if p(x) then 1 else 2", "if p(x) then 2 else 1"),
            ("term", "ifp (F(x) <- g(x)) (x)", "ifp (F(x) <- g(x)) (y)"),
            ("term", "ifp (F(x) <- g(y)) (z)", "ifp (F(y) <- g(y)) (z)"),
            ("term", "ifp (F(x) <- F(x)) (x)", "ifp (G(x) <- F(x)) (x)"),
        ],
    )
    def test_a_differing_field_keeps_nodes_apart(self, kind, a, b):
        joined = f"({a}) and ({b})" if kind == "formula" else f"({a}) + ({b})"
        e = parse(joined)
        assert e.left is not e.right
        assert (to_text(e.left), to_text(e.right)) == (to_text(parse(a)), to_text(parse(b)))
        same = parse(f"({a}) and ({a})" if kind == "formula" else f"({a}) + ({a})")
        assert same.left is same.right

    def test_one_name_as_relation_and_as_weight(self):
        e = parse("if p(x) then p(x) else 0")
        assert type(e.test) is RelAtom and type(e.then) is WeightAtom

    def test_integration_text_parses_to_a_dag(self):
        e = parse(self.INTEGRATION)
        assert e == make_integrate_2_1()
        assert _distinct_nodes(e) <= 900
        # walk still yields every position
        assert sum(1 for _ in walk(e)) == 8319

    def test_nothing_is_shared_between_parses(self):
        first, second = parse(self.INTEGRATION), parse(self.INTEGRATION)
        assert first == second
        assert not _objects(first).keys() & _objects(second).keys()

    def test_parses_in_threads_agree(self):
        texts = [self.INTEGRATION, to_text(make_eval_node()), to_text(make_squaring())] * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-parse
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(parse, texts, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for text, e in zip(texts, results):
            alone = parse(text)
            assert e == alone and _distinct_nodes(e) == _distinct_nodes(alone)

    def test_a_shared_node_keeps_its_first_span(self):
        e = parse("f(x) * 2 + if f(x) * 2 <= 3 then 1 else 0")
        assert e.right.test.left is e.left and e.left.span == (1, 6)
        # as a formula, p(x) is first seen at its second occurrence
        e = parse("p(x) + 1 <= 2 and p(x)")
        assert type(e.right) is RelAtom and e.right.span == (1, 19)

    def test_repeated_breach_reported_once_at_its_first_position(self):
        # the breach F(x) * F(x) occurs twice in the text and is one node
        text = "ifp (F(x) <- F(x) * F(x) + F(x) * F(x)) (x)"
        e = parse(text)
        assert e.body.left is e.body.right
        assert check_scalar_fragment(e) == [Violation("*", (0, 0), (1, 19))]
        # as a tree it breaches at both places
        assert [v.path for v in check_scalar_fragment(_unshared(e))] == [(0, 0), (0, 1)]


def _long(text: str) -> str:
    """``text`` in 130 redundant brackets: the same node, from a text long
    enough (over 256 tokens) that the parser's span memo is on."""
    return "(" * 130 + text + ")" * 130


class _NoMemo(_Parser):
    """The parser with its span memo off, whatever the text's length."""

    def __init__(self, text: str):
        super().__init__(text)
        self.spans = None


def _positions(text: str):
    """The node type and span of every position of ``parse(text)``, or its error text."""
    try:
        e = parse(text)
    except ParseError as exc:
        return str(exc)
    return [(path, type(n).__name__, n.span) for path, n in walk(e)]


# where a random term or formula ``{}`` is repeated: after ``g(x) + ``,
# ``- `` or an ``else``, and before a looser or a tighter operator; each
# text ends once without and once with a repeat before ``(``
_TERM_CONTEXTS = [
    f"{outer}{inner}{{}}{after} < 2"
    for outer, inner, after in product(
        ["", "g(x) + ", "- ", "1 + 3 * ", "2 * "], ["", "if p(x) then 1 else "], ["", " + 5", " * 3", " - 1"]
    )
]
_FORMULA_CONTEXTS = [
    f"{outer}{bra}{{}}{after}{ket}"
    for outer, (bra, ket), after in product(
        ["", "p(x) and ", "not ", "p(x) or ", "exists z ", "p(x) implies "],
        [("", ""), ("(", ")")],
        ["", " and q(x)", " or q(x)", " implies q(x)", " and x = y"],
    )
]
_BEFORE_A_BRACKET = {
    "term": ["{} (z) < 2", "2 * if p(x) then 1 else {}(z) < 2"],
    "formula": ["{}(z)", "p(x) and ({} and x = y(z))"],
}


class TestSpanSharing:
    """A repeated span of a long text is parsed once and gives what a full
    parse gives; a short text, parsed without the memo, is the reference."""

    def test_random_repeats_in_new_contexts_agree_with_a_full_parse(self, monkeypatch):
        # each text as it is (over 256 tokens, so the memo is on) and in
        # 130 brackets: node types, spans and errors as with the memo off
        rng = random.Random(13)
        texts = []
        for _ in range(24):
            kind = rng.choice(["term", "formula"])
            e = to_text(random_expression(rng, rng.randint(1, 3), kind, ("x", "y")))
            contexts = _TERM_CONTEXTS if kind == "term" else _FORMULA_CONTEXTS
            text = " and ".join(c.format(e) for c in rng.sample(contexts, len(contexts)))
            for last in ("", " and " + rng.choice(_BEFORE_A_BRACKET[kind]).format(e)):
                texts += [text + last, _long(text + last)]
        assert all(_Parser(t).spans is not None for t in texts)
        shared = [_positions(t) for t in texts]
        monkeypatch.setattr(parser_module, "_Parser", _NoMemo)
        full = [_positions(t) for t in texts]
        assert [t[:100] for t, a, b in zip(texts, shared, full) if a != b] == []
        assert sum(isinstance(outcome, str) for outcome in full) == len(texts) // 2

    def test_only_a_long_text_engages_the_memo(self):
        assert _Parser(_long("1")).spans is not None
        assert _Parser("(" * 127 + "1" + ")" * 127).spans is None

    @pytest.mark.parametrize(
        "a, b",
        [
            # the else term w(x) * w(x) + 1 ends at '<' first and takes '* 3' next
            ("if p(x) then 1 else w(x) * w(x) + 1 < 2", "if p(x) then 1 else w(x) * w(x) + 1 * 3 < 2"),
            # under '2 *', the span ending in an else term still takes '+ 3'
            ("2 * if p(x) then 1 else w(x) < 2", "2 * if p(x) then 1 else w(x) + 3 < 2"),
            ("f(x) + g(x) * h(x) + 1 < 2", "f(x) + g(x) * h(x) + 1 * 3 < 2"),
            ("p(x) and q(x) or x = y", "p(x) and q(x) or x = y and r(x)"),
        ],
    )
    def test_a_tighter_operator_after_a_repeat_extends_it(self, a, b):
        e = parse(_long(f"({a}) implies {b}"))
        assert (e.left, e.right) == (parse(a), parse(b))

    def test_a_reused_else_span_inside_a_repeat_still_takes_plus(self):
        # the second occurrence of the if reuses the first inside the span
        # '3 * if ...', which the third occurrence reuses before '+ 5'
        cond = "if p(x) then 1 else w(x)"
        text = f"2 * {cond} < 2 and 1 + 3 * {cond} < 2 and 1 + 3 * {cond} + 5 < 2"
        e = parse(_long(text))
        assert e == parse(text)
        assert e.right.left.right.right.otherwise == parse("w(x) + 5")
        nested = f"1 + 2 * if p(x) then 1 else {cond}"
        text = f"{nested} < 2 and 3 * {nested} < 2 and 3 * {nested} - 5 < 2"
        assert parse(_long(text)) == parse(text)

    def test_a_repeat_before_a_bracket_is_parsed_again(self):
        # the '(' would make y an atom, so the repeat must not end there
        text = _long("(p(x) and q(x) and x = y) and (p(x) and q(x) and x = y(z))")
        with pytest.raises(ParseError) as caught:
            parse(text)
        column = text.rindex("=") + 1
        assert str(caught.value) == f"cannot compare an element variable with a term (line 1, column {column})"

    def test_a_repeated_comparison_then_a_comparison_is_refused(self):
        span = "f(x) + g(x) < h(x) + 1"
        text = f"{_long('p(x)')} and {span} or p(x) and {span} < 2"
        with pytest.raises(ParseError) as caught:
            parse(text)
        column = text.rindex("<") + 1
        assert str(caught.value) == f"unexpected '<' after the expression (line 1, column {column})"

    def test_a_repeated_term_as_formula_names_its_own_position(self):
        text = _long("(f(x) + g(x) * h(x) + 1) > 0 and\n(f(x) + g(x) * h(x) + 1)")
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == "term used where a formula is required (line 2, column 21)"

    def test_a_too_long_literal_errs_at_its_first_occurrence(self):
        span = f"(f(x) + {'9' * (MAX_DIGITS + 1)} * g(x) + 1)"
        with pytest.raises(ParseError) as caught:
            parse(_long(f"{span} + {span}"))
        assert str(caught.value) == f"number too long ({MAX_DIGITS + 1} characters) (line 1, column 139)"

    def test_many_spans_under_one_key_parse(self):
        text = " + ".join(f"sum {{x : p(x)}} w(x) * {k}" for k in range(300))
        e = parse(text)
        assert e.right == parse("sum {x : p(x)} w(x) * 299")
        assert to_text(e) == text

    def test_a_parse_scans_a_third_of_the_integration_template(self):
        # a reused span is matched against the text, not scanned again
        text = TestParseSharing.INTEGRATION
        parser = _Parser(text)
        parser.query()
        assert len(tokenize(text)) == 21454
        assert len(parser.kinds) <= 21454 // 3

    def test_deep_nesting_parses(self):
        assert parse("(" * 400 + "1" + ")" * 400) == One()
        e = parse("sum {x : p(x)} " * 250 + "1")
        assert sum(1 for _ in walk(e)) == 2 * 250 + 1

    @pytest.mark.parametrize("text", ["(" * 600 + "1" + ")" * 600, "not " * 600 + "p()", "sum {x : p(x)} " * 600 + "1"])
    def test_nesting_past_the_stack_is_a_resource_error(self, text):
        with pytest.raises(ResourceError) as caught:
            parse(text)
        assert str(caught.value) == "expression too deeply nested"

    def test_front_end_leaves_no_reference_cycle(self):
        text = TestParseSharing.INTEGRATION
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            e = parse(text)
            assert gc.collect() == 0
            for analysis in (free_vars, vocabulary_of, check_scalar_fragment, desugar):
                analysis(e)
                assert gc.collect() == 0, analysis.__name__
            substitute(e, {"z1": "y"})
            assert gc.collect() == 0
            make_integrate_2_1()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestErrorOrder:
    """A character outside the syntax is reported before any parse error,
    wherever the parse stops and whatever spans it reused before it."""

    @pytest.mark.parametrize("wrap", [str, _long], ids=["short", "long"])
    @pytest.mark.parametrize("text", ["1 + ) @", "sum {x : } $", "p(x) and and #", "(1 +\n) ٣"])
    def test_a_character_error_wins_over_an_earlier_parse_error(self, text, wrap):
        text = wrap(text)
        kind, char, line, column = _reference_tokens(text)[-1]
        assert kind == "bad"
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == f"unexpected character {char!r} (line {line}, column {column})"

    SPAN = "(f(x) + g(x) * h(x) + 1)"

    @pytest.mark.parametrize(
        "after",
        [" @", "@", " + 1 $", ") + 1 )) #", " 2 @", "\n  (p \xe9"],
        ids=["blank", "abutting", "later", "after-a-parse-error", "after-a-stray-token", "next-line"],
    )
    def test_a_character_after_a_reused_span_is_reported(self, after):
        text = _long(f"{self.SPAN} + {self.SPAN} + {self.SPAN}{after}")
        kind, char, line, column = _reference_tokens(text)[-1]
        assert kind == "bad"
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == f"unexpected character {char!r} (line {line}, column {column})"

    @pytest.mark.parametrize(
        "text",
        ["1 + @ + #", _long("1 + @ + #"), _long(f"{SPAN} + {SPAN} @ + #"), "(" * 600 + "1 + @ #" + ")" * 600],
        ids=["short", "long", "after-a-reused-span", "too-deep"],
    )
    def test_the_first_character_outside_the_syntax_is_reported(self, text):
        kind, char, line, column = _reference_tokens(text)[-1]
        assert (kind, char) == ("bad", "@")
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert str(caught.value) == f"unexpected character '@' (line {line}, column {column})"

    def test_a_refused_node_is_reported_when_it_is_built(self):
        # the constructor runs once the node's last token is read, so a
        # syntax error inside the node comes first, and a character outside
        # the syntax wins over the refusal as over any parse error
        for text, message in (
            ("ifp (F(x, x) <- 1 +) (x)", "expected an expression, found ')' (line 1, column 20)"),
            ("sum {x, x : p(x)} 1 @", "unexpected character '@' (line 1, column 21)"),
            (_long("sum {x, x : p(x)} 1"), "duplicate variable 'x' in binder (line 1, column 131)"),
        ):
            with pytest.raises(ParseError) as caught:
                parse(text)
            assert str(caught.value) == message


class TestReuseBoundary:
    """A repeated span followed by a character that would extend its last
    token is not the same tokens there, so it is parsed again."""

    @pytest.mark.parametrize(
        "span, runs_on",
        [
            ("f(x) + g(x) * h(x) + 1", ["2 < 2", ".5 < 2", "/2 < 2", "/02 < 2", "0 < 2", "x < 2"]),
            ("f(x) + g(x) * h(x) + 1/0", ["5 < 2", "0 < 2", ".5 < 2", "2 + 1 < 2"]),
            ("p(x) and q(x) and x = y", ["z", "_1", "1", "2 = y"]),
            ("p(x) and q(x) and bot < 1", ["2", ".5", "/3", "0"]),
        ],
    )
    def test_a_token_that_runs_on_agrees_with_a_full_parse(self, span, runs_on, monkeypatch):
        texts = []
        for tail in runs_on:
            texts.append(_long(f"({span}) and ({span}{tail})"))
            texts.append(_long(f"({span}) + ({span}{tail})"))
            texts.append(_long(f"({span}) and ({span}) and {span}{tail}"))
        shared = [_positions(t) for t in texts]
        monkeypatch.setattr(parser_module, "_Parser", _NoMemo)
        full = [_positions(t) for t in texts]
        assert [t for t, a, b in zip(texts, shared, full) if a != b] == []


class TestScalarFragment:
    def test_eval_node_qualifies(self):
        assert check_scalar_fragment(make_eval_node()) == []

    def test_squaring_violates(self):
        violations = check_scalar_fragment(make_squaring())
        assert len(violations) == 1 and violations[0].op == "*"

    def test_fixed_point_free_terms_qualify(self):
        e = parse("sum {x : x = x} f(x) * f(x) / w(x, x)")
        assert check_scalar_fragment(e) == []

    def test_division_by_intensional_flagged(self):
        e = parse("ifp (F(x) <- 1 / F(x)) (x)")
        violations = check_scalar_fragment(e)
        assert [v.op for v in violations] == ["/"]
        assert violations[0].describe() == "division by an intensional subterm at line 1, column 16"

    def test_one_sided_multiplication_allowed(self):
        e = parse("ifp (F(x) <- wt(x, x) * F(x)) (x)")
        assert check_scalar_fragment(e) == []

    def test_paths_point_at_the_subterm(self):
        from wsq.syntax import walk

        e = make_squaring()
        (violation,) = check_scalar_fragment(e)
        nodes = dict(walk(e))
        target = nodes[violation.path]
        assert isinstance(target, Arith) and target.op == "*"


class TestDesugar:
    def test_avg_expansion_shape(self):
        e = parse("avg {x : p(x)} f(x)")
        expanded = desugar(e)
        assert expanded == Arith(
            "/",
            Sum(("x",), RelAtom("p", ("x",)), WeightAtom("f", ("x",))),
            Sum(("x",), RelAtom("p", ("x",)), One()),
        )

    def test_max_guard_quantifies_a_renamed_copy(self):
        expanded = desugar(parse("max {x : p(x)} f(x)"))
        numerator = expanded.left
        guard = numerator.guard
        assert isinstance(guard, And) and isinstance(guard.right, Forall)
        fresh = guard.right.var
        assert fresh != "x"
        inner = guard.right.body
        assert inner == Implies(
            RelAtom("p", (fresh,)),
            Leq(WeightAtom("f", (fresh,)), WeightAtom("f", ("x",))),
        )

    def test_literal_expansion(self):
        # binary digits from the top: 3 = 2*1 + 1, 4 = 2*(2*1)
        expanded = desugar(parse("3/4"))
        two = Arith("+", One(), One())
        three = Arith("+", Arith("*", two, One()), One())
        four = Arith("*", two, Arith("*", two, One()))
        assert expanded == Arith("/", three, four)

    def test_large_literal_evaluates(self):
        s = WeightedStructure.build(["a"])
        assert evaluate(desugar(parse("500")), s) == rational(500)
        assert evaluate(desugar(parse("123456789/1024")), s) == rational(Fraction(123456789, 1024))

    @pytest.mark.parametrize(
        "value", [Fraction(-1000, 7), Fraction(0), Fraction(1), Fraction(2), Fraction(-3, 2)]
    )
    def test_literal_term_round_trips(self, value):
        term = literal_term(value)
        s = WeightedStructure.build(["a"])
        assert evaluate(term, s) == rational(value)
        assert parse(to_text(term)) == term

    def test_literal_depth_is_logarithmic(self):
        def depth(n: Node) -> int:
            kids = [c for c in vars(n).values() if isinstance(c, Node)]
            return 1 + max((depth(c) for c in kids), default=0)

        # 10**6 has 20 binary digits: two levels per digit, and the sign
        assert depth(literal_term(Fraction(-(10**6)))) <= 2 * 20 + 2

    def test_bot_becomes_one_over_zero(self):
        assert desugar(BotConst()) == Arith("/", One(), Zero())

    def test_sugar_less_or_equal_becomes_core(self):
        # the parser builds Leq for '<=', the API can build Compare('<=')
        s = WeightedStructure.build(["a"])
        for left, right in [(Zero(), Zero()), (Zero(), One()), (One(), Zero())]:
            e = Compare("<=", left, right)
            assert desugar(e) == Leq(left, right)
            assert evaluate(desugar(e), s) == evaluate(e, s) == (left == right or type(left) is Zero)

    def test_not_equal_bot_expansion(self):
        expanded = desugar(parse("f(x) != bot"))
        bottom = Arith("/", One(), Zero())
        f = WeightAtom("f", ("x",))
        assert expanded == Not(And(Leq(f, bottom), Leq(bottom, f)))

    def test_free_vars_preserved(self):
        rng = random.Random(7)
        for _ in range(200):
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            assert free_vars(desugar(e)) == free_vars(e)
            assert free_vars(desugar(e, expand_cond=True)) == free_vars(e)

    def test_core_output_has_no_sugar(self):
        rng = random.Random(8)
        from wsq.syntax import walk

        for _ in range(100):
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            for _, n in walk(desugar(e)):
                assert not isinstance(n, (Compare, Aggregate, Literal, BotConst))

    def test_scalar_status_preserved_for_aggregate_sugar(self):
        probes = [
            make_eval_node(),
            parse("ifp (F(x) <- avg {y : e(y, x)} F(y)) (x)"),
            parse("ifp (F(x) <- max {y : e(y, x)} F(y) + count {y : e(y, x)}) (x)"),
            make_squaring(),
            parse("ifp (F(x) <- min {y : e(y, x)} (F(y) * F(y))) (x)"),
        ]
        for e in probes:
            assert bool(check_scalar_fragment(e)) == bool(check_scalar_fragment(desugar(e)))


class TestSubstitute:
    def test_renames_free_occurrences(self):
        e = parse("f(x) + sum {y : p(y)} w(x, y)")
        renamed = substitute(e, {"x": "z"})
        assert free_vars(renamed) == {"z"}

    def test_bound_occurrences_untouched(self):
        e = parse("sum {x : p(x)} f(x)")
        assert substitute(e, {"x": "z"}) == e

    def test_capture_avoided(self):
        e = parse("sum {y : p(y)} w(x, y)")
        renamed = substitute(e, {"x": "y"})
        assert free_vars(renamed) == {"y"}
        # the binder got a fresh name so the substituted y stays free
        assert renamed.vars != ("y",)

    @pytest.mark.parametrize("target", ["y", "z"])
    def test_agrees_with_evaluation_under_the_renamed_binding(self, target):
        # random binders are named z, u, v, so renaming x to z exercises capture
        rng = random.Random(24 if target == "y" else 25)
        for _ in range(150):
            s = random_structure(rng)
            kind = "formula" if rng.random() < 0.5 else "term"
            e = random_expression(rng, rng.randint(0, 4), kind, ("x", "y"))
            a, b = rng.choice(s.universe), rng.choice(s.universe)
            before = {"x": a, "y": a if target == "y" else b}
            after = {target: a, "y": before["y"]}
            assert evaluate(substitute(e, {"x": target}), s, after) == evaluate(e, s, before)

    def test_shared_subtree_renamed_per_context(self):
        t = WeightAtom("w", ("x", "y"))
        e = Arith("+", t, Sum(("y",), RelAtom("p", ("y",)), t))
        renamed = substitute(e, {"x": "y"})
        assert renamed.left == WeightAtom("w", ("y", "y"))
        (fresh,) = renamed.right.vars
        assert fresh != "y"
        assert renamed.right.guard == RelAtom("p", (fresh,))
        assert renamed.right.body == WeightAtom("w", ("y", fresh))

    def test_sharing_survives(self):
        e = make_eval(10)
        assert _distinct_nodes(substitute(e, {"x": "z"})) == _distinct_nodes(e)
        extremum = Aggregate("max", ("x",), ElemEq("x", "x"), e)
        assert _distinct_nodes(desugar(extremum)) < 3 * _distinct_nodes(extremum)

    def test_unchanged_children_keep_the_node(self):
        e = parse("sum {y : p(y)} w(x, y)")
        assert map_children(e, lambda c: c) is e
        assert bound_vars(e) == ("y",) and bound_vars(e.body) == ()
        assert substitute(e, {"y": "z"}) is e


# one well-formed node of each type with children, its children generic
# atoms, which stand for either sort
_GENERIC = Atom("a", ("x",))
_WELL_FORMED = [
    Leq(_GENERIC, _GENERIC),
    Compare("<", _GENERIC, _GENERIC),
    Not(_GENERIC),
    And(_GENERIC, _GENERIC),
    Or(_GENERIC, _GENERIC),
    Implies(_GENERIC, _GENERIC),
    Exists("x", _GENERIC),
    Forall("x", _GENERIC),
    Arith("+", _GENERIC, _GENERIC),
    Cond(_GENERIC, _GENERIC, _GENERIC),
    Sum(("x", "y"), _GENERIC, _GENERIC),
    Aggregate("max", ("x", "y"), _GENERIC, _GENERIC),
    Ifp("F", ("x", "y"), _GENERIC, ("y", "y")),
]


class TestNodeGrammar:
    def test_every_child_field_refuses_the_other_sort(self):
        # each constructor's inline check covers every field its annotation
        # gives a sort, and the refusal names the field
        assert {type(n) for n in _WELL_FORMED} == {kind for kind, names in _CHILD_FIELDS.items() if names}
        for node in _WELL_FORMED:
            for f in dataclasses.fields(node):
                if f.type not in ("Formula", "Term", "Optional[Term]"):
                    continue
                sort, wrong = ("formula", One()) if f.type == "Formula" else ("term", RelAtom("p", ("x",)))
                for value, found in ((wrong, type(wrong).__name__), ("x", "str")):
                    with pytest.raises(UsageError) as caught:
                        dataclasses.replace(node, **{f.name: value})
                    assert str(caught.value) == f"{type(node).__name__}.{f.name} must be a {sort}, not {found}"

    def test_a_repeated_variable_is_named_before_a_child_of_the_wrong_sort(self):
        for node in _WELL_FORMED:
            if hasattr(node, "vars"):
                applied = {"applied": ("x", "x", "x")} if type(node) is Ifp else {}
                with pytest.raises(UsageError) as caught:
                    dataclasses.replace(node, vars=("y", "x", "y"), body=RelAtom("p", ("x",)), **applied)
                assert str(caught.value) == "duplicate variable 'y' in binder"

    def test_every_name_field_refuses_what_is_not_a_str(self):
        leaves = [ElemEq("x", "y"), RelAtom("p", ("x",)), WeightAtom("w", ("x",)), Atom("a", ("x",))]
        checked = set()
        for node in [*leaves, *_WELL_FORMED]:
            for f in dataclasses.fields(node):
                if f.type == "str":
                    wrongs = [(7, "int"), (None, "NoneType")]
                    sort = "str"
                elif f.type == "tuple[str, ...]":
                    wrongs = [(["x"], "list"), (("x", 1), "tuple holding int"), ("x", "str")]
                    sort = "tuple of str"
                else:
                    continue
                for value, found in wrongs:
                    with pytest.raises(UsageError) as caught:
                        dataclasses.replace(node, **{f.name: value})
                    message = str(caught.value)
                    if f.name in ("op", "kind"):
                        assert message.startswith("unknown ") and message.endswith(repr(value))
                    else:
                        assert message == f"{type(node).__name__}.{f.name} must be a {sort}, not {found}"
                    checked.add((type(node).__name__, f.name))
        assert len(checked) == 18

    def test_a_literal_is_a_rational_above_0_other_than_1(self):
        for value, found in [
            (0.5, "float"),
            ("2", "str"),
            (True, "bool"),
            (None, "NoneType"),
            (0, "0"),
            (1, "1"),
            (Fraction(0), "0"),
            (Fraction(2, 2), "1"),
            (-2, "-2"),
            (Fraction(-1, 2), "-1/2"),
        ]:
            with pytest.raises(UsageError) as caught:
                Literal(value)
            assert str(caught.value) == f"Literal.value must be a rational above 0 other than 1, not {found}"
        assert type(Literal(5).value) is Fraction and Literal(5) == Literal(Fraction(5))
        for value in (2, Fraction(1, 3), Fraction(7, 2), Fraction(10**30 + 1, 7), 10**40):
            for e in (Literal(value), Arith("-", Zero(), Literal(value)), Sum(("x",), ElemEq("x", "x"), Literal(value))):
                assert parse(to_text(e)) == e, value


class TestNodeIdentity:
    """A node's hash is computed once per object and equality compares each
    pair of objects once, so separate builds of one DAG hash and compare in
    time linear in their objects, not their paths."""

    def test_hash_and_equality_of_a_deep_template(self):
        # make_eval(40, 1) has 3^40 paths but a few hundred objects
        start = time.perf_counter()
        a, b = make_eval(40, 1), make_eval(40, 1)
        assert a is not b and hash(a) == hash(b) and a == b
        assert a != make_eval(39, 1) and a != make_eval(40, 2)
        assert time.perf_counter() - start < 1.0

    def test_two_parses_at_different_offsets_compare_equal(self):
        text = "sum {x, y : e(x, y) and not x = y} (w(x) + 3/4) * w(y)"
        a, b = parse(text), parse("\n\n   " + text.replace(" and ", "\n  and "))
        assert a.span != b.span and a.right.span != b.right.span
        assert hash(a) == hash(b) and a == b and {a: 1}[b] == 1
        assert a != parse(text.replace("3/4", "3/5"))

    def test_equality_against_other_values(self):
        assert One() == One() and Zero() != One() and One() != 1 and BotConst() != None
        assert Aggregate("count", ("x",), ElemEq("x", "x"), None) != Aggregate("count", ("y",), ElemEq("x", "x"), None)

    def test_a_stored_hash_is_not_pickled(self):
        e = make_useless(3)
        hash(e)
        back = pickle.loads(pickle.dumps(e))
        assert "_hash" in e.__dict__ and "_hash" not in back.__dict__
        assert back == e and hash(back) == hash(e)
