"""The value domain: rationals extended with an undefined element.

The value domain is Q ∪ {bot} where ``bot`` marks undefined results
(missing weights, division by zero), in exact :class:`fractions.Fraction`
arithmetic.  Every rule of the domain is defined here once, on
``Fraction | None`` with ``None`` for ``bot``: the four operations
(``ARITH``: ``bot`` is absorbing and division by zero yields ``bot``), the
total order (``ORDER``: ``bot`` sits strictly below every rational and
equals itself), the bit bound ``MAX_BITS`` with its check :func:`fits`,
and number text, read by :func:`read_number` and written by
:func:`number_text` whatever Python's integer digit limit.  The evaluator
calls them on unboxed values; :class:`ExtRational`'s operators box them.

>>> rational(2, 3) * rational(3, 4)
ExtRational('1/2')
>>> rational(1) / rational(0)
ExtRational('bot')
>>> BOT < rational(-1000)
True
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Optional

__all__ = ["ExtRational", "BOT", "rational", "as_rational", "arith", "compare", "sum_all"]

# unsigned number text: digits, ``d.ddd`` or ``p/q`` with a nonzero ``q``;
# the query scanner reads its number tokens with it too
NUMBER_TEXT = r"[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?"
_NUMBER_RE = re.compile(rf"[+-]?{NUMBER_TEXT}")
_COUNT_RE = re.compile(r"[0-9]+")


def add(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return None if a is None or b is None else a + b


def sub(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return None if a is None or b is None else a - b


def mul(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return None if a is None or b is None else a * b


def div(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    return None if a is None or not b else a / b


def lt(a: Optional[Fraction], b: Optional[Fraction]) -> bool:
    return b is not None and (a is None or a < b)


def le(a: Optional[Fraction], b: Optional[Fraction]) -> bool:
    return a is None or (b is not None and a <= b)


def gt(a: Optional[Fraction], b: Optional[Fraction]) -> bool:
    return a is not None and (b is None or a > b)


def ge(a: Optional[Fraction], b: Optional[Fraction]) -> bool:
    return b is None or (a is not None and a >= b)


ARITH = {"+": add, "-": sub, "*": mul, "/": div}
ORDER = {"<": lt, "<=": le, ">": gt, ">=": ge, "=": operator.eq, "!=": operator.ne}

# bound on the bit length of the numerator and of the denominator of every
# value the evaluator computes and every number text read; iterated
# squaring passes it at round 20 instead of building 2^(2^d)
MAX_BITS = 2**20

# the digits of 2^MAX_BITS - 1, the most an integer within the bound has
MAX_DIGITS = math.floor(MAX_BITS * math.log10(2)) + 1

# Python converts an integer of up to 640 digits to and from text whatever
# its digit limit (sys.int_info.str_digits_check_threshold); Decimal
# converts longer ones at about the same cost, without a limit
_SHORT = 640


def fits(value: Optional[Fraction]) -> bool:
    """Whether ``value`` is ``bot`` or has at most ``MAX_BITS`` bits in numerator and denominator."""
    return value is None or (
        value.numerator.bit_length() <= MAX_BITS and value.denominator.bit_length() <= MAX_BITS
    )


def _integer(digits: str) -> int:
    return int(digits) if len(digits) <= _SHORT else int(Decimal(digits))


def read_number(text: str) -> Fraction:
    """The value of ``[+-]D``, ``[+-]D.D`` or ``[+-]D/D`` (``D`` ASCII digits,
    the denominator nonzero), text the caller's syntax has matched.

    ``ValueError`` ``number too long (N characters)`` if the numerator's
    digits (those of ``D.D`` without the point) or the denominator's are
    more than ``MAX_DIGITS``, checked before converting, or if the value
    does not :func:`fit <fits>`.
    """
    head, _, q = text.partition("/")
    whole, _, decimals = head.partition(".")
    digits = whole + decimals
    if len(digits.lstrip("+-")) <= MAX_DIGITS and len(q) <= MAX_DIGITS:
        value = Fraction(_integer(digits), _integer(q) if q else 10 ** len(decimals))
        if fits(value):
            return value
    raise ValueError(f"number too long ({len(text)} characters)")


def _digits(n: int) -> str:
    # three bits make less than one digit
    return str(n) if n.bit_length() <= 3 * _SHORT else str(Decimal(n))


def number_text(value: Optional[Fraction]) -> str:
    """``bot``, ``p`` or ``p/q`` in lowest terms, for a value of any size:
    the text :func:`read_number` reads back."""
    if value is None:
        return "bot"
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _unbox(other: object):
    """``other``'s value if it is an ``ExtRational``, ``int`` or ``Fraction``, else ``NotImplemented``."""
    if isinstance(other, ExtRational):
        return other.frac
    return other if isinstance(other, (int, Fraction)) else NotImplemented


def _box(value: Optional[Fraction]) -> "ExtRational":
    return BOT if value is None else ExtRational(value)


def _operator(rule: Callable, reflected: bool = False, boxed: bool = True) -> Callable:
    """An :class:`ExtRational` operator: ``rule`` on the two values (the
    other operand's first if ``reflected``), boxed if ``boxed``."""

    def method(self, other):
        b = _unbox(other)
        if b is NotImplemented:
            return NotImplemented
        value = rule(b, self.frac) if reflected else rule(self.frac, b)
        return _box(value) if boxed else value

    return method


@dataclass(frozen=True, slots=True, eq=False)
class ExtRational:
    """A rational number in canonical form, or the undefined element.

    The payload is a :class:`Fraction` (which keeps gcd-reduced form with
    a positive denominator) or ``None`` for ``bot``.  Instances are
    immutable and hashable; use :func:`rational`, :data:`BOT` or
    :meth:`parse` rather than the raw constructor.  The operators apply
    the module's rules, and return ``NotImplemented`` for an operand that
    is not a number.  Equality agrees with the total order and with
    :class:`Fraction`: ``rational(1) == 1``, ``hash(rational(1)) ==
    hash(1)``, and ``bot == bot``.
    """

    # underlying Fraction, or None for bot: a public field, so a read is a
    # slot read and an assignment raises FrozenInstanceError
    frac: Optional[Fraction]

    @classmethod
    def parse(cls, text: str) -> "ExtRational":
        """Parse ``"p/q"``, ``"d.ddd"``, an optionally signed integer, or ``"bot"``.

        Decimal input converts exactly (``"0.25"`` -> 1/4).  Raises
        ``ValueError`` on anything else, including zero denominators and
        numbers too long for :func:`read_number`.
        """
        text = text.strip()
        if text == "bot":
            return BOT
        if not _NUMBER_RE.fullmatch(text):
            raise ValueError(f"not a rational literal: {text!r}")
        return cls(read_number(text))

    @property
    def is_bot(self) -> bool:
        return self.frac is None

    __add__ = __radd__ = _operator(add)
    __sub__ = _operator(sub)
    __rsub__ = _operator(sub, reflected=True)
    __mul__ = __rmul__ = _operator(mul)
    __truediv__ = _operator(div)
    __rtruediv__ = _operator(div, reflected=True)
    __lt__ = _operator(lt, boxed=False)
    __le__ = _operator(le, boxed=False)
    __gt__ = _operator(gt, boxed=False)
    __ge__ = _operator(ge, boxed=False)
    __eq__ = _operator(operator.eq, boxed=False)

    def __neg__(self) -> "ExtRational":
        return _box(sub(0, self.frac))

    def __hash__(self) -> int:
        # a defined value hashes like its Fraction, so equal numbers hash equal
        return hash(self.frac)

    def __str__(self) -> str:
        return number_text(self.frac)

    def __repr__(self) -> str:
        return f"ExtRational('{self}')"


BOT = ExtRational(None)


def rational(numerator: int | Fraction, denominator: int = 1) -> ExtRational:
    """Build a defined value in canonical form; q must be nonzero."""
    return ExtRational(Fraction(numerator, denominator))


def as_rational(value: object) -> Optional[ExtRational]:
    """An outside value as an :class:`ExtRational`, or ``None`` if it is not a number.

    An ``ExtRational`` comes back as it is and an ``int`` or ``Fraction``
    is converted; a ``bool`` is not a number here, as in structure files.
    """
    if isinstance(value, ExtRational):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return ExtRational(Fraction(value))
    return None


def arith(op: str, a: ExtRational, b: ExtRational) -> ExtRational:
    """Apply one of ``+ - * /`` under the extended rules.

    Total: ``bot`` operands and division by zero produce ``bot``.
    """
    if op not in ARITH:
        raise ValueError(f"unknown operator: {op!r}")
    return _box(ARITH[op](a.frac, b.frac))


def compare(a: ExtRational, b: ExtRational) -> int:
    """Three-way comparison: -1 (less), 0 (equal), or 1 (greater).

    ``bot`` is strictly below every rational and equal to itself, making
    the order total on the whole domain.
    """
    return gt(a.frac, b.frac) - lt(a.frac, b.frac)


def parse_count(text: str) -> int:
    """A count in ASCII digits (``[0-9]+``), read by :func:`read_number`;
    else ``ValueError`` saying it ``takes a non-negative integer`` (a
    negative one) or ``takes an integer``."""
    if not _COUNT_RE.fullmatch(text):
        negative = text[:1] == "-" and _COUNT_RE.fullmatch(text[1:])
        raise ValueError(f"takes {'a non-negative' if negative else 'an'} integer, got {text!r}")
    return read_number(text).numerator


def sum_all(items: Iterable[ExtRational]) -> ExtRational:
    """Exact sum of a finite sequence; 0 when empty, ``bot`` if any item is."""
    total: Optional[Fraction] = Fraction(0)
    for item in items:
        total = add(total, item.frac)
    return _box(total)
