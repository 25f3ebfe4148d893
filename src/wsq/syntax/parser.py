"""Concrete syntax for queries: a one-pattern scanner and a precedence-climbing parser.

The scanner is a cursor that the parser pulls tokens from: each token
is one match of one compiled token pattern, blanks included, appended
to three parallel lists, each token's type, text and character offset,
so the parser indexes tokens and makes no object per token.  A text is
scanned only as far as the parser reads it; a span the memo reuses
(see ``parse_expr``) is matched against the text of its first
occurrence instead, and the scan resumes after it.  On a
:class:`ParseError` the rest of the text is scanned, so a character
outside the syntax is reported before any parse error, as if the whole
text had been scanned first.  Positions are lazy: one parse
finds the offsets of the newlines once (none for one-line text), and an
offset becomes a 1-based ``(line, column)`` by bisection only where a
node is first built or a :class:`ParseError` is raised.  :func:`tokenize`
runs the same cursor to the end of the text.  Binary operators are
parsed by precedence climbing (Pratt, *Top down operator precedence*,
POPL 1973) over the ``PRECEDENCE`` table, which the printer reads too,
so the two cannot disagree on how tightly an operator binds.

The grammar (binding weakest to tightest)::

    expr     := expr "implies" expr            right associative
              | expr "or" expr | expr "and" expr
              | "not" expr | ("exists"|"forall") VAR expr
              | operand CMP operand            CMP: <= < >= > = !=
              | operand
    operand  := operand ("+"|"-") operand | operand ("*"|"/") operand
              | "-" operand
              | "sum" "{" vars ":" expr "}" operand
              | ("avg"|"min"|"max") "{" vars ":" expr "}" operand
              | "count" "{" vars ":" expr "}"
              | "if" expr "then" term "else" term
              | "ifp" "(" IDENT "(" vars? ")" "<-" term ")" "(" vars? ")"
              | NUMBER | "bot" | IDENT "(" vars? ")" | IDENT | "(" expr ")"

A bare identifier is an element variable; ``ident(...)`` atoms take only
variables as arguments.  Each operator forces its operands to be
formulas or terms and the parser resolves as it reduces: ``=``/``!=``
between two bare variables is element equality, between terms it is
sugar for a two-sided ``<=``.  An atom in a spot where neither kind is
forced (the query root) stays generic and is resolved against the
structure's vocabulary at evaluation time.  Summation and aggregate
bodies bind tighter than arithmetic (``sum {x : p(x)} f(x) + 1`` is a
sum plus one); ``else`` extends over a full term.  Numbers are exact
rational literals: ``7``, ``0.25``, ``3/4`` (a zero denominator such as
``1/0`` is division, which evaluates to ``bot``).  Literals are read by
``numerics.read_number``, so one over the bit bound is a ``ParseError``
``number too long (N characters)`` at its first occurrence.

One call of :func:`parse` returns one node object per structurally
equal subterm: the parser hash-conses every node it builds, so printed
template text comes back as a DAG and the analyses and the compiler,
which work per node object, do each subterm once.  A shared node keeps
its first occurrence's span; ``walk`` still yields every position, and
errors name the occurrence at hand.  A bounded memo parses a repeated
span of a long text once (see ``parse_expr``); nothing outlives a call.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import ParseError, UsageError, depth_guard
from ..numerics import NUMBER_TEXT, read_number
from .nodes import (
    AGGREGATES,
    Aggregate,
    And,
    Arith,
    Atom,
    BotConst,
    Compare,
    Cond,
    ElemEq,
    Exists,
    Expr,
    Forall,
    Formula,
    Ifp,
    Implies,
    Leq,
    Literal,
    Node,
    Not,
    One,
    Or,
    RelAtom,
    Span,
    Sum,
    Term,
    WeightAtom,
    Zero,
)

__all__ = ["parse", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    "not and or implies exists forall sum count avg min max if then else ifp bot".split()
)

# Binding strength, weakest first.  Binary operators are keyed by their
# token; the prefix keywords ``not``/``exists``/``forall`` bind at PREFIX,
# unary minus at UNARY, and atoms, literals and bracketed forms at PRIMARY.
PRECEDENCE = {
    "implies": 1,
    "or": 2,
    "and": 3,
    **dict.fromkeys(("<=", "<", ">=", ">", "=", "!="), 5),
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
}
PREFIX = 4
COMPARISON = PRECEDENCE["<="]
UNARY = 8
PRIMARY = 9

# Two-character operators come first, so that ``<=`` is not read as ``<``.
_OPERATORS = "<= <- != >= < > = + - * / ( ) { } : ,".split()
# The one token pattern: blanks, then a number, a word or an operator
# (groups 1 to 3), the end of the text (4) or any other character (5).
_TOKEN_RE = re.compile(
    rf"[ \t\r\n]*(?:({NUMBER_TEXT})|([A-Za-z_][A-Za-z0-9_]*)|("
    + "|".join(re.escape(op) for op in _OPERATORS if len(op) == 2)
    + "|["
    + re.escape("".join(op for op in _OPERATORS if len(op) == 1))
    + r"])|(\Z)|(.))",
    re.DOTALL,
)
# The type of every token text but numbers and identifiers is the text
# itself, and the empty text ends the input; the others go by their group.
_FIXED_TYPES = {text: text for text in (*KEYWORDS, *_OPERATORS)} | {"": "eof"}
_GROUP_TYPES = (None, "number", "ident")
# The last character of a span and the next one, when the next may run
# on the span's last token: a word character after a word, a number or
# ``bot`` (``yz``, ``12``), or ``.`` or ``/`` after one (``1.5``, ``1/2``).
_RUNS_ON = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./]")


class Token(NamedTuple):
    type: str  # 'number', 'ident', a keyword, an operator symbol, or 'eof'
    text: str
    line: int
    column: int


class _Cursor:
    """The tokens of one text, scanned only as far as they are read.

    ``kinds``, ``texts`` and ``offsets`` hold each scanned token's type,
    text and character offset; :meth:`pull` scans the next token onto
    them with one match of the token pattern, and the last is ``eof``
    once the scan reaches the end.  Scanning raises at a character
    outside the syntax.  ``newlines`` holds the offsets of the text's
    newlines, for positions.
    """

    def __init__(self, text: str):
        self.text = text
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.offsets: list[int] = []
        self.newlines: list[int] = []
        at = text.find("\n")
        while at >= 0:
            self.newlines.append(at)
            at = text.find("\n", at + 1)
        self.resume(0)

    def resume(self, at: int) -> None:
        """Scan on from offset ``at``, a token boundary."""
        self.scan = _TOKEN_RE.scanner(self.text, at).match

    def pull(self, rest: bool = False) -> None:
        """Scan the next token onto the lists, or with ``rest`` every token
        to ``eof``."""
        kinds, texts, offsets, scan = self.kinds, self.texts, self.offsets, self.scan
        while m := scan():
            group = m.lastindex
            token = m[group]
            if group == 5:
                raise ParseError(f"unexpected character {token!r}", *_position(self.newlines, m.start(5)))
            kinds.append(_FIXED_TYPES.get(token) or _GROUP_TYPES[group])
            texts.append(token)
            offsets.append(m.start(group))
            if not rest or group == 4:
                return

    def keep(self, count: int) -> None:
        """Keep the first ``count`` tokens scanned and scan on after them."""
        del self.kinds[count:], self.texts[count:], self.offsets[count:]
        self.resume(self.offsets[-1] + len(self.texts[-1]))

    def run_out(self) -> None:
        """Scan the rest of the text, raising at a character outside the
        syntax; the scan restarts after the last token kept, so a character
        error raised before is raised again."""
        if self.kinds[-1] != "eof":
            self.keep(len(self.kinds))
            self.pull(rest=True)


def _scan(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The types, texts and offsets of the tokens of ``text``, ending in
    ``eof``, and the offsets of its newlines; raises at the first character
    outside the syntax."""
    cursor = _Cursor(text)
    cursor.pull(rest=True)
    return cursor.kinds, cursor.texts, cursor.offsets, cursor.newlines


def _position(newlines: list[int], at: int) -> Span:
    """The 1-based ``(line, column)`` of offset ``at``."""
    line = bisect_right(newlines, at)
    return line + 1, at - (newlines[line - 1] if line else -1)


def tokenize(text: str) -> list[Token]:
    kinds, texts, offsets, newlines = _scan(text)
    return [Token(k, t, *_position(newlines, at)) for k, t, at in zip(kinds, texts, offsets)]


@dataclass(frozen=True)
class _Var:
    """A bare identifier; becomes ElemEq material or a parse error."""

    name: str


_CONNECTIVES = {"implies": Implies, "or": Or, "and": And}


class _Parser(_Cursor):
    """One parse, pulling tokens from its cursor: ``i`` indexes the current
    token, and a step onto the end of the scanned lists pulls the next
    one.  Every operator and primary returns its node with the offset of
    this occurrence, which a kind error names even when the node is
    shared with an earlier occurrence."""

    def __init__(self, text: str):
        super().__init__(text)
        self.i = 0
        self.spans = {} if len(text) > 256 else None  # parsed spans, by floor and first characters
        self.pull(rest=self.spans is None)  # without the memo the parse reads every token
        self.else_end = -1  # the token index where the last ``else`` term ended
        # the parse's node objects, keyed by type and fields, children by id
        self.nodes: dict[tuple, Node] = {}
        # the node key of each literal text seen, so each is converted once
        self.literals: dict[str, tuple] = {}

    def problem(self, message: str, at: int) -> ParseError:
        return ParseError(message, *_position(self.newlines, at))

    def node(self, key: tuple, at: int, *fields) -> Node:
        """The one node ``key[0](*fields)`` of this parse, built with the
        span of offset ``at`` if new, or a :class:`ParseError` there if refused.

        ``key`` is the type and then the fields, each child node by its
        ``id``: a child is one of this parse's nodes already, so equal
        children are the same object.
        """
        node = self.nodes.get(key)
        if node is None:
            try:
                node = self.nodes[key] = key[0](*fields, span=_position(self.newlines, at))
            except UsageError as exc:
                raise self.problem(str(exc), at) from None
        return node

    def expect(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of type ``kind``."""
        i = self.i
        if self.kinds[i] != kind:
            found = "end of input" if self.kinds[i] == "eof" else repr(self.texts[i])
            raise self.problem(f"expected {what}, found {found}", self.offsets[i])
        self.i = i = i + 1
        if i == len(self.kinds):
            self.pull()
        return self.texts[i - 1]

    def error(self, message: str):
        i = self.i
        if self.kinds[i] == "eof":
            raise self.problem(f"{message} at end of input", self.offsets[i])
        raise self.problem(f"{message}, found {self.texts[i]!r}", self.offsets[i])

    # -- kinds -----------------------------------------------------------------

    def as_formula(self, node, at: int) -> Formula:
        if isinstance(node, Formula):
            return node
        if isinstance(node, Atom):
            return self.node((RelAtom, node.name, node.args), at, node.name, node.args)
        if isinstance(node, _Var):
            raise self.problem(f"variable {node.name!r} used where a formula is required", at)
        raise self.problem("term used where a formula is required", at)

    def as_term(self, node, at: int) -> Term:
        if isinstance(node, Term):
            return node
        if isinstance(node, Atom):
            return self.node((WeightAtom, node.name, node.args), at, node.name, node.args)
        if isinstance(node, _Var):
            raise self.problem(f"variable {node.name!r} used where a term is required", at)
        raise self.problem("formula used where a term is required", at)

    def formula(self, floor: int = 0) -> Formula:
        return self.as_formula(*self.parse_expr(floor))

    def term(self, floor: int = 0) -> Term:
        return self.as_term(*self.parse_expr(floor))

    # -- operators ---------------------------------------------------------

    def binary(self, op: str, at: int, left: tuple, right: tuple) -> Expr:
        """The node for ``left op right``, with ``op`` at offset ``at``; each
        operand, a (node, offset) pair, is forced to the kind ``op`` takes."""
        if op in _CONNECTIVES:
            cls = _CONNECTIVES[op]
            lf, rf = self.as_formula(*left), self.as_formula(*right)
            return self.node((cls, id(lf), id(rf)), at, lf, rf)
        if PRECEDENCE[op] != COMPARISON:
            lt, rt = self.as_term(*left), self.as_term(*right)
            return self.node((Arith, op, id(lt), id(rt)), at, op, lt, rt)
        if op in ("=", "!="):
            lv, rv = isinstance(left[0], _Var), isinstance(right[0], _Var)
            if lv and rv:
                names = left[0].name, right[0].name
                eq = self.node((ElemEq, *names), at, *names)
                return eq if op == "=" else self.node((Not, id(eq)), at, eq)
            if lv or rv:
                raise self.problem("cannot compare an element variable with a term", at)
        lt, rt = self.as_term(*left), self.as_term(*right)
        if op == "<=":
            return self.node((Leq, id(lt), id(rt)), at, lt, rt)
        return self.node((Compare, op, id(lt), id(rt)), at, op, lt, rt)

    def parse_expr(self, floor: int = 0) -> tuple:
        """Parse an expression whose operators bind at least as tightly as
        ``floor``; returns its node and the offset of its head token.

        ``ceiling`` is the tightest operator that may still continue it: after
        a binary operator none tighter, after a comparison (which does not
        associate) or a prefix form only looser ones.  An operand may stop
        at its own ceiling, as ``b < c`` does in ``a and b < c < d``, and
        what it leaves must not attach to the whole expression.

        In a text of over 256 characters each span of 4 scanned tokens or
        more is kept (four at most under a key) as its offsets, with whether
        an ``else`` term ends it; a reuse saves the span's scan as well as
        its parse, so spans that short pay.  A later call with this floor reuses it
        where the text repeats the span and the next character does not
        run on its last token, if the next token, scanned from the span's
        end, stops every call ending there: neither ``(`` nor an operator
        as tight as ``floor`` or, after ``else``, as ``+``.  Otherwise that
        token is forgotten and the span is parsed.
        """
        kinds, offsets, spans = self.kinds, self.offsets, self.spans
        start = self.i
        kind, at = kinds[start], offsets[start]
        if spans is not None:
            text = self.text
            key = (floor, text[at : at + 16])
            for first, last, node, head, tail in spans.get(key, ()):
                end = at + last - first
                if text.startswith(text[first:last], at) and not _RUNS_ON.match(text, end - 1):
                    j = len(kinds)
                    self.resume(end)  # the span's text is not scanned again
                    self.pull()
                    low = min(floor, PRECEDENCE["+"]) if tail else floor
                    if kinds[j] != "(" and PRECEDENCE.get(kinds[j], -1) < low:
                        self.i = j
                        self.else_end = j if tail else self.else_end
                        return node, at + head
                    self.keep(j)
        ceiling = PRIMARY
        if kind == "-":
            self.i = start + 1
            if start + 1 == len(kinds):
                self.pull()
            zero = self.node((Zero,), at)
            operand = self.term(UNARY)
            left = self.node((Arith, "-", id(zero), id(operand)), at, "-", zero, operand)
        elif kind in ("not", "exists", "forall") and floor <= PREFIX:
            self.i = start + 1
            if start + 1 == len(kinds):
                self.pull()
            if kind == "not":
                body = self.formula(PREFIX)
                left = self.node((Not, id(body)), at, body)
            else:
                var = self.expect("ident", "a variable name")
                body = self.formula(PREFIX)
                cls = Exists if kind == "exists" else Forall
                left = self.node((cls, var, id(body)), at, var, body)
            ceiling = PREFIX - 1
        else:
            left, at = self.parse_primary()
        while True:
            i = self.i
            kind = kinds[i]
            prec = PRECEDENCE.get(kind)
            if prec is None or not floor <= prec <= ceiling:
                if spans is not None and i - start >= 4 and len(seen := spans.setdefault(key, [])) < 4:
                    first = offsets[start]
                    seen.append((first, offsets[i], left, at - first, self.else_end == i))
                return left, at
            self.i = i + 1
            if i + 1 == len(kinds):
                self.pull()
            right = self.parse_expr(prec if kind == "implies" else prec + 1)
            left, at = self.binary(kind, offsets[i], (left, at), right), offsets[i]
            ceiling = prec - 1 if prec == COMPARISON else prec

    # -- primaries -----------------------------------------------------------

    def parse_varlist(self, *, allow_empty: bool) -> tuple[str, ...]:
        kinds = self.kinds
        if kinds[self.i] != "ident":
            if allow_empty:
                return ()
            self.error("expected a variable name")
        names = [self.expect("ident", "a variable name")]
        while kinds[self.i] == ",":
            self.expect(",", "','")
            names.append(self.expect("ident", "a variable name"))
        return tuple(names)

    def parse_binder_braces(self) -> tuple[tuple[str, ...], Formula]:
        self.expect("{", "'{'")
        names = self.parse_varlist(allow_empty=False)
        self.expect(":", "':'")
        guard = self.formula()
        self.expect("}", "'}'")
        return names, guard

    def parse_primary(self) -> tuple:
        kinds, texts = self.kinds, self.texts
        i = self.i
        kind, at = kinds[i], self.offsets[i]
        self.i = i + 1
        if i + 1 == len(kinds):
            self.pull()

        if kind == "ident":
            name = texts[i]
            if kinds[i + 1] != "(":
                return _Var(name), at
            self.i = i + 2
            if i + 2 == len(kinds):
                self.pull()
            args = self.parse_varlist(allow_empty=True)
            self.expect(")", "')'")
            return self.node((Atom, name, args), at, name, args), at

        if kind == "number":
            text = texts[i]
            key = self.literals.get(text)
            if key is None:
                try:
                    value = read_number(text)
                except ValueError as exc:
                    raise self.problem(str(exc), at) from None
                key = (Zero,) if value == 0 else (One,) if value == 1 else (Literal, value)
                self.literals[text] = key
            return self.node(key, at, *key[1:]), at

        if kind == "bot":
            return self.node((BotConst,), at), at

        if kind == "sum":
            names, guard = self.parse_binder_braces()
            body = self.term(UNARY)
            return self.node((Sum, names, id(guard), id(body)), at, names, guard, body), at

        if kind in AGGREGATES:
            names, guard = self.parse_binder_braces()
            body = None if kind == "count" else self.term(UNARY)
            key = (Aggregate, kind, names, id(guard), id(body))
            return self.node(key, at, kind, names, guard, body), at

        if kind == "if":
            test = self.formula()
            self.expect("then", "'then'")
            then = self.term(PRECEDENCE["+"])
            self.expect("else", "'else'")
            otherwise = self.term(PRECEDENCE["+"])
            self.else_end = self.i
            key = (Cond, id(test), id(then), id(otherwise))
            return self.node(key, at, test, then, otherwise), at

        if kind == "ifp":
            self.expect("(", "'('")
            name = self.expect("ident", "a weight symbol name")
            self.expect("(", "'('")
            bound = self.parse_varlist(allow_empty=True)
            self.expect(")", "')'")
            self.expect("<-", "'<-'")
            body = self.term()
            self.expect(")", "')'")
            self.expect("(", "'('")
            applied = self.parse_varlist(allow_empty=True)
            self.expect(")", "')'")
            key = (Ifp, name, bound, id(body), applied)
            return self.node(key, at, name, bound, body, applied), at

        if kind == "(":
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner

        self.i = i
        self.error("expected an expression")

    def query(self) -> Expr:
        node, at = self.parse_expr()
        i = self.i
        if self.kinds[i] != "eof":
            raise self.problem(f"unexpected {self.texts[i]!r} after the expression", self.offsets[i])
        if isinstance(node, _Var):
            raise self.problem(f"a bare variable ({node.name!r}) is not a query", at)
        return node


@depth_guard
def parse(text: str) -> Expr:
    """Parse query text into an AST; raises :class:`ParseError` with a position.

    The result is a formula, a term, or (only when the root is a bare
    ``ident(...)`` atom) a generic atom resolved at evaluation time.
    Text nested past the Python stack raises :class:`ResourceError`
    through :func:`wsq.errors.depth_guard`.
    """
    parser = _Parser(text)
    try:
        return parser.query()
    finally:
        parser.run_out()  # a no-op after a whole parse; after a failed one a character outside the syntax wins
