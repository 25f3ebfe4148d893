"""Exact extended-rational arithmetic: absorption, order, exactness."""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsq.numerics import BOT, ExtRational, arith, compare, rational, sum_all

defined = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4).map(
    ExtRational
)
extended = st.one_of(st.just(BOT), defined)
ops = st.sampled_from("+-*/")


class TestArith:
    def test_division_by_zero_is_undefined(self):
        assert arith("/", rational(1), rational(0)) is BOT

    def test_bot_absorbs_addition(self):
        assert arith("+", BOT, rational(5)) is BOT

    def test_exact_cancellation(self):
        assert arith("*", rational(2, 3), rational(3, 4)) == rational(1, 2)

    def test_zero_over_zero(self):
        assert arith("/", rational(0), rational(0)) is BOT

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            arith("%", rational(1), rational(1))

    @given(op=ops, x=extended)
    def test_bot_is_absorbing_both_sides(self, op, x):
        assert arith(op, BOT, x) is BOT
        assert arith(op, x, BOT) is BOT

    @given(a=defined, b=defined, op=st.sampled_from("+*"))
    def test_commutative(self, a, b, op):
        assert arith(op, a, b) == arith(op, b, a)

    @given(a=defined, b=defined, c=defined, op=st.sampled_from("+*"))
    def test_associative(self, a, b, c, op):
        assert arith(op, arith(op, a, b), c) == arith(op, a, arith(op, b, c))

    @given(a=defined)
    def test_self_subtraction(self, a):
        assert arith("-", a, a) == rational(0)

    @given(a=defined, b=defined)
    def test_division_inverts_multiplication(self, b, a):
        if b != rational(0):
            assert arith("*", arith("/", a, b), b) == a


class TestCompare:
    def test_bot_below_negative(self):
        assert compare(BOT, rational(-1000)) == -1

    def test_bot_equals_bot(self):
        assert compare(BOT, BOT) == 0

    def test_canonical_equality(self):
        assert compare(rational(1, 3), rational(2, 6)) == 0

    @given(a=extended, b=extended)
    def test_antisymmetric_total(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(a=extended, b=extended, c=extended)
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0

    @given(a=defined, b=defined)
    def test_agrees_with_rational_order(self, a, b):
        assert (compare(a, b) < 0) == (a.frac < b.frac)

    def test_rich_comparison_operators(self):
        assert BOT < rational(0) <= rational(0) < rational(1, 10**9)
        assert BOT <= BOT and not BOT < BOT


# few distinct values, so that equal pairs are drawn often
clustered = st.one_of(
    st.just(BOT),
    st.fractions(min_value=-2, max_value=2, max_denominator=2).map(ExtRational),
)


class TestEquality:
    def test_agrees_with_fraction_and_int(self):
        assert rational(1) == 1 and 1 == rational(1)
        assert rational(1, 2) == Fraction(1, 2)
        assert rational(1) != 2 and rational(1) != BOT
        assert hash(rational(1)) == hash(1) == hash(Fraction(1))
        assert hash(rational(-3, 4)) == hash(Fraction(-3, 4))

    def test_bot_equals_bot(self):
        assert BOT == ExtRational(None) and hash(BOT) == hash(ExtRational(None))
        assert not BOT != BOT

    def test_foreign_types_are_unequal(self):
        assert rational(1) != "1"
        assert BOT != None  # noqa: E711

    def test_usable_as_dict_key_alongside_fraction(self):
        assert {Fraction(3, 2): "x"}[rational(3, 2)] == "x"

    @given(a=clustered, b=clustered)
    def test_equality_agrees_with_order(self, a, b):
        assert (a == b) == (a <= b and b <= a)
        assert (a == b) != (a != b)
        if a == b:
            assert hash(a) == hash(b)

    @given(a=defined, n=st.integers(-50, 50))
    def test_equality_agrees_with_fraction(self, a, n):
        assert (a == a.frac) and hash(a) == hash(a.frac)
        assert (rational(n) == n) and hash(rational(n)) == hash(n)
        assert (a == n) == (a.frac == n)


class TestPayload:
    """``frac`` is a frozen public field, not a property."""

    def test_assigning_frac_raises_frozen_instance_error(self):
        half = rational(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            half.frac = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            BOT.frac = Fraction(3)
        assert half.frac == Fraction(1, 2) and BOT.frac is None
        assert [f.name for f in dataclasses.fields(ExtRational)] == ["frac"]

    def test_repr_hash_and_pickling_unchanged(self):
        assert repr(rational(-7, 3)) == "ExtRational('-7/3')" and repr(BOT) == "ExtRational('bot')"
        assert hash(rational(-7, 3)) == hash(Fraction(-7, 3)) and hash(BOT) == hash(None)
        for value in (rational(-7, 3), rational(4), BOT):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(value, protocol=protocol))
                assert type(back) is ExtRational and back == value
                assert repr(back) == repr(value) and hash(back) == hash(value)
                assert back.frac == value.frac and type(back.frac) is type(value.frac)


class TestSumAll:
    def test_empty_sum_is_zero(self):
        assert sum_all([]) == rational(0)

    def test_any_bot_poisons(self):
        assert sum_all([rational(1, 2), BOT, rational(7)]) is BOT

    def test_exact_addition(self):
        assert sum_all([rational(1, 3), rational(1, 6)]) == rational(1, 2)

    @given(items=st.lists(extended, max_size=12))
    def test_permutation_invariant(self, items):
        shuffled = list(reversed(items))
        assert sum_all(items) == sum_all(shuffled)


class TestText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", rational(3, 4)),
            ("0.25", rational(1, 4)),
            ("-7", rational(-7)),
            ("+7", rational(7)),
            ("bot", BOT),
            ("-0.5", rational(-1, 2)),
        ],
    )
    def test_parse(self, text, value):
        assert ExtRational.parse(text) == value

    @pytest.mark.parametrize("bad", ["1/0", "x", "1.2.3", "", "1/-2", "--3", "\u0663", "1/\u0662"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ExtRational.parse(bad)

    def test_parse_agrees_with_fraction(self):
        # parse converts the digits with int, so its values and its digit limit must be those of Fraction(text)
        import random
        import sys

        rng = random.Random(3)
        limit = sys.get_int_max_str_digits()

        def digits(n):
            return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))

        texts = []
        for sign in ("", "-", "+"):
            for n in (limit - 1, limit, limit + 1):
                texts += [sign + digits(n), f"{sign}7/{digits(n)}", f"{sign}{digits(n)}/7", f"{sign}0{digits(n)}"]
                texts += [f"{sign}1.{digits(n)}", f"{sign}{digits(n)}.5", f"{sign}{digits(limit)}.{digits(limit)}"]
            for _ in range(300):
                whole, rest = digits(rng.randint(1, 12)), digits(rng.randint(1, 12))
                texts += [sign + whole, f"{sign}{whole}.{rest}", f"{sign}{whole}/{rest}"]
                texts += [f"{sign}0.0{rest}", f"{sign}00{whole}"]
        for text in texts:
            try:
                expected = Fraction(text)
            except ValueError:
                expected = f"number too long ({len(text)} characters)"
            try:
                got = ExtRational.parse(f" {text}\n").frac
            except ValueError as exc:
                got = str(exc)
            assert got == expected, text[:40]

    @given(x=extended)
    def test_round_trip(self, x):
        assert ExtRational.parse(str(x)) == x

    def test_canonical_rendering(self):
        assert str(rational(4, 2)) == "2"
        assert str(rational(-3, 6)) == "-1/2"
        assert str(BOT) == "bot"

    def test_huge_values_round_trip(self):
        # iterated squaring produces values of bit length 2**d
        x = rational(2)
        for _ in range(10):
            x = x * x
        assert x.frac == Fraction(2) ** 1024
        assert ExtRational.parse(str(x)) == x
