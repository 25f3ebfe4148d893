"""Exact extended-rational arithmetic: absorption, order, exactness."""

import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsq import numerics
from wsq.numerics import BOT, MAX_BITS, MAX_DIGITS, ExtRational, arith, compare, rational, sum_all

defined = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4).map(
    ExtRational
)
extended = st.one_of(st.just(BOT), defined)
ops = st.sampled_from("+-*/")


def _chunked(digits: str) -> int:
    """``int(digits)`` by chunks of 600 digits, which Python converts whatever its digit limit."""
    value, body = 0, digits.lstrip("+-")
    for i in range(0, len(body), 600):
        chunk = body[i : i + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if digits[:1] == "-" else value


class TestArith:
    def test_division_by_zero_is_undefined(self):
        assert arith("/", rational(1), rational(0)) is BOT

    def test_bot_absorbs_addition(self):
        assert arith("+", BOT, rational(5)) is BOT

    def test_exact_cancellation(self):
        assert arith("*", rational(2, 3), rational(3, 4)) == rational(1, 2)

    def test_zero_over_zero(self):
        assert arith("/", rational(0), rational(0)) is BOT

    def test_negation(self):
        assert -rational(2, 3) == rational(-2, 3)
        assert -BOT is BOT

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
        # parse's values are Fraction(text)'s, and past Python's digit limit
        # (4 300 by default) those of a conversion by chunks of 600 digits
        import random

        rng = random.Random(3)

        def digits(n):
            return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))

        texts = []
        for sign in ("", "-", "+"):
            for n in (639, 640, 641, 4299, 4300, 4301):
                texts += [sign + digits(n), f"{sign}7/{digits(n)}", f"{sign}{digits(n)}/7", f"{sign}0{digits(n)}"]
                texts += [f"{sign}1.{digits(n)}", f"{sign}{digits(n)}.5", f"{sign}{digits(n)}.{digits(n)}"]
            for _ in range(300):
                whole, rest = digits(rng.randint(1, 12)), digits(rng.randint(1, 12))
                texts += [sign + whole, f"{sign}{whole}.{rest}", f"{sign}{whole}/{rest}"]
                texts += [f"{sign}0.0{rest}", f"{sign}00{whole}"]
        for text in texts:
            try:
                expected = Fraction(text)
            except ValueError:
                head, _, q = text.partition("/")
                whole, _, decimals = head.partition(".")
                expected = Fraction(_chunked(whole + decimals), _chunked(q) if q else 10 ** len(decimals))
            assert ExtRational.parse(f" {text}\n").frac == expected, text[:40]

    def test_text_past_the_bound_is_too_long(self):
        # one digit more than 2^MAX_BITS - 1 has, in any integer of the
        # text, is refused before converting; leading zeros count
        assert 10 ** (MAX_DIGITS - 1) <= 2**MAX_BITS - 1 < 10**MAX_DIGITS
        past, most = "9" * (MAX_DIGITS + 1), "9" * MAX_DIGITS
        for text in (past, "-" + past, f"7/{past}", f"{past}/7", "0" * MAX_DIGITS + "1", f"1.{most}", f"{most}.5"):
            with pytest.raises(ValueError) as caught:
                ExtRational.parse(text)
            assert str(caught.value) == f"number too long ({len(text)} characters)"

    def test_text_over_the_bits_is_too_long(self, monkeypatch):
        # within the digits, the value itself must fit the bit bound
        monkeypatch.setattr(numerics, "MAX_BITS", 8)
        for text in ("255", "-255", "1/255", "255/254", "0.5", "002.55"):
            assert ExtRational.parse(text) == ExtRational(Fraction(text))
        for text in ("256", "-256", "1/256", "0.00390625", "25.7", "0.257"):
            with pytest.raises(ValueError) as caught:
                ExtRational.parse(text)
            assert str(caught.value) == f"number too long ({len(text)} characters)"

    def test_long_text_within_the_digits_reads(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_DIGITS", 5000)
        fits = "9" * 5000
        assert ExtRational.parse(fits).frac == 10**5000 - 1
        assert ExtRational.parse(f"0.{fits[1:]}").frac == Fraction(10**4999 - 1, 10**4999)
        for text in (fits + "9", f"1.{fits}", f"7/{fits}9"):
            with pytest.raises(ValueError, match=r"^number too long \(\d+ characters\)$"):
                ExtRational.parse(text)

    @given(x=extended)
    def test_round_trip(self, x):
        assert ExtRational.parse(str(x)) == x

    def test_canonical_rendering(self):
        assert str(rational(4, 2)) == "2"
        assert str(rational(-3, 6)) == "-1/2"
        assert str(BOT) == "bot"

    def test_huge_values_round_trip(self):
        # iterated squaring produces values of bit length 2**d; 2^16000 has
        # 4 817 digits, past Python's default digit limit of 4 300
        x = rational(2)
        for _ in range(10):
            x = x * x
        assert x.frac == Fraction(2) ** 1024
        assert ExtRational.parse(str(x)) == x
        for value in (rational(2**16000 + 1), rational(-(2**16000) - 1, 3), rational(3, 2**16001 - 1)):
            text = str(value)
            assert ExtRational.parse(text) == value
            assert repr(value) == f"ExtRational('{text}')"
            p, _, q = text.lstrip("-").partition("/")
            assert (_chunked(p), _chunked(q or "1")) == (abs(value.frac.numerator), value.frac.denominator)
