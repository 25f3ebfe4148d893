"""Exact arithmetic on rationals extended with an undefined element.

The value domain is Q ∪ {bot} where ``bot`` marks undefined results
(missing weights, division by zero).  All arithmetic is arbitrary
precision via :class:`fractions.Fraction`; no floating point is involved
anywhere.  ``bot`` is absorbing for +, -, *, / and division by zero
yields ``bot``.  The order is total: ``bot`` sits strictly below every
rational and compares equal to itself.

>>> rational(2, 3) * rational(3, 4)
ExtRational('1/2')
>>> rational(1) / rational(0)
ExtRational('bot')
>>> BOT < rational(-1000)
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

__all__ = ["ExtRational", "BOT", "rational", "as_rational", "arith", "compare", "sum_all"]

_NUMBER_RE = re.compile(r"^[+-]?([0-9]+(\.[0-9]+)?|[0-9]+/0*[1-9][0-9]*)$")
_COUNT_RE = re.compile(r"[0-9]+")

RationalLike = Union[int, Fraction, "ExtRational"]


@dataclass(frozen=True, slots=True, eq=False)
class ExtRational:
    """A rational number in canonical form, or the undefined element.

    The payload is a :class:`Fraction` (which keeps gcd-reduced form with
    a positive denominator) or ``None`` for ``bot``.  Instances are
    immutable and hashable; use :func:`rational`, :data:`BOT` or
    :meth:`parse` rather than the raw constructor.  Equality agrees with
    the total order and with :class:`Fraction`: ``rational(1) == 1``,
    ``hash(rational(1)) == hash(1)``, and ``bot == bot``.
    """

    # underlying Fraction, or None for bot: a public field, so a read is a
    # slot read and an assignment raises FrozenInstanceError
    frac: Optional[Fraction]

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ExtRational":
        """Parse ``"p/q"``, ``"d.ddd"``, an optionally signed integer, or ``"bot"``.

        Decimal input converts exactly (``"0.25"`` -> 1/4).  Raises
        ``ValueError`` on anything else, including zero denominators and
        numbers too long to convert (``number too long (N characters)``).
        """
        text = text.strip()
        if text == "bot":
            return BOT
        if not _NUMBER_RE.match(text):
            raise ValueError(f"not a rational literal: {text!r}")
        try:
            return cls(Fraction(text) if "." in text else Fraction(*map(int, text.split("/"))))
        except ValueError:
            # Python refuses to convert integers of more than a set number of digits
            raise ValueError(f"number too long ({len(text)} characters)") from None

    # -- accessors -----------------------------------------------------

    @property
    def is_bot(self) -> bool:
        return self.frac is None

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(other: RationalLike) -> "ExtRational":
        if isinstance(other, ExtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtRational(Fraction(other))
        return NotImplemented  # type: ignore[return-value]

    def _binop(self, other: RationalLike, op: str) -> "ExtRational":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        a, b = self.frac, rhs.frac
        if a is None or b is None:
            return BOT
        if op == "+":
            return ExtRational(a + b)
        if op == "-":
            return ExtRational(a - b)
        if op == "*":
            return ExtRational(a * b)
        if b == 0:
            return BOT
        return ExtRational(a / b)

    def __add__(self, other: RationalLike) -> "ExtRational":
        return self._binop(other, "+")

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "ExtRational":
        return self._binop(other, "-")

    def __rsub__(self, other: RationalLike) -> "ExtRational":
        return self._coerce(other)._binop(self, "-")

    def __mul__(self, other: RationalLike) -> "ExtRational":
        return self._binop(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ExtRational":
        return self._binop(other, "/")

    def __rtruediv__(self, other: RationalLike) -> "ExtRational":
        return self._coerce(other)._binop(self, "/")

    def __neg__(self) -> "ExtRational":
        return BOT if self.frac is None else ExtRational(-self.frac)

    # -- total order (bot below everything, bot == bot) -----------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)  # type: ignore[arg-type]
        if rhs is NotImplemented:
            return NotImplemented
        return self.frac == rhs.frac

    def __hash__(self) -> int:
        # a defined value hashes like its Fraction, so equal numbers hash equal
        return hash(self.frac)

    def _cmp(self, other: RationalLike) -> int:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            raise TypeError(f"cannot compare ExtRational with {type(other).__name__}")
        a, b = self.frac, rhs.frac
        if a is None:
            return 0 if b is None else -1
        if b is None:
            return 1
        return (a > b) - (a < b)

    def __lt__(self, other: RationalLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: RationalLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: RationalLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: RationalLike) -> bool:
        return self._cmp(other) >= 0

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if self.frac is None:
            return "bot"
        if self.frac.denominator == 1:
            return str(self.frac.numerator)
        return f"{self.frac.numerator}/{self.frac.denominator}"

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
    if op not in "+-*/" or len(op) != 1:
        raise ValueError(f"unknown operator: {op!r}")
    return a._binop(b, op)


def compare(a: ExtRational, b: ExtRational) -> int:
    """Three-way comparison: -1 (less), 0 (equal), or 1 (greater).

    ``bot`` is strictly below every rational and equal to itself, making
    the order total on the whole domain.
    """
    return a._cmp(b)


def parse_count(text: str) -> int:
    """A count in ASCII digits (``[0-9]+``); else ``ValueError`` saying it
    ``takes a non-negative integer`` (a negative one) or ``takes an integer``."""
    if not _COUNT_RE.fullmatch(text):
        negative = text[:1] == "-" and _COUNT_RE.fullmatch(text[1:])
        raise ValueError(f"takes {'a non-negative' if negative else 'an'} integer, got {text!r}")
    return int(text)


def sum_all(items: Iterable[ExtRational]) -> ExtRational:
    """Exact sum of a finite sequence; 0 when empty, ``bot`` if any item is."""
    total = Fraction(0)
    for item in items:
        if item.frac is None:
            return BOT
        total += item.frac
    return ExtRational(total)
