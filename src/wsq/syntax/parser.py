"""Concrete syntax for queries: a one-pattern scanner and a precedence-climbing parser.

The scanner is one ``finditer`` over one compiled pattern, which also
matches blanks, newlines and any character outside the syntax.  Binary
operators are parsed by precedence climbing (Pratt, *Top down operator
precedence*, POPL 1973) over the ``PRECEDENCE`` table, which the printer
reads too, so the two cannot disagree on how tightly an operator binds.

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
``1/0`` is division, which evaluates to ``bot``).  A literal longer
than Python's integer conversion accepts is a ``ParseError`` at its
position.

One call of :func:`parse` returns one node object per structurally
equal subterm: the parser hash-conses every node it builds, so printed
template text comes back as a DAG and the analyses and the compiler,
which work per node object, do each subterm once.  A shared node keeps
the span of its first occurrence in the text; ``walk`` still yields
every position.  Errors raised while parsing name the occurrence at
hand, not the shared node's span.  Nothing is shared between calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..errors import ParseError
from .nodes import (
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

_TOKEN_RE = re.compile(
    r"""
      (?P<number>[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|<-|!=|>=|[<>=+\-*/(){}:,])
    | (?P<blank>[ \t\r]+)
    | (?P<newline>\n)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    type: str  # 'number', 'ident', a keyword, an operator symbol, or 'eof'
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        raw = m.group()
        col = m.start() - line_start + 1
        if kind == "ident":
            tokens.append(Token(raw if raw in KEYWORDS else "ident", raw, line, col))
        elif kind == "op":
            tokens.append(Token(raw, raw, line, col))
        elif kind == "number":
            tokens.append(Token("number", raw, line, col))
        else:
            raise ParseError(f"unexpected character {raw!r}", line, col)
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


@dataclass(frozen=True)
class _Var:
    """A bare identifier; becomes ElemEq material or a parse error."""

    name: str


_CONNECTIVES = {"implies": Implies, "or": Or, "and": And}


class _Parser:
    """One parse.  Every operator and primary returns its node with the
    span of this occurrence, which a kind error names even when the node
    is shared with an earlier occurrence."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        # the parse's node objects, keyed by type and fields, children by id
        self.nodes: dict[tuple, Node] = {}

    def node(self, key: tuple, span: Span, *fields) -> Node:
        """The one node ``key[0](*fields)`` of this parse, built with ``span`` if new.

        ``key`` is the type and then the fields, each child node by its
        ``id``: a child is one of this parse's nodes already, so equal
        children are the same object.
        """
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = key[0](*fields, span=span)
        return node

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, ttype: str, what: str) -> Token:
        tok = self.peek()
        if tok.type != ttype:
            found = "end of input" if tok.type == "eof" else repr(tok.text)
            raise ParseError(f"expected {what}, found {found}", tok.line, tok.column)
        return self.advance()

    def error(self, message: str):
        tok = self.peek()
        if tok.type == "eof":
            raise ParseError(f"{message} at end of input", tok.line, tok.column)
        raise ParseError(f"{message}, found {tok.text!r}", tok.line, tok.column)

    # -- kinds -----------------------------------------------------------------

    def as_formula(self, node, span: Span) -> Formula:
        if isinstance(node, Formula):
            return node
        if isinstance(node, Atom):
            return self.node((RelAtom, node.name, node.args), span, node.name, node.args)
        if isinstance(node, _Var):
            raise ParseError(f"variable {node.name!r} used where a formula is required", *span)
        raise ParseError("term used where a formula is required", *span)

    def as_term(self, node, span: Span) -> Term:
        if isinstance(node, Term):
            return node
        if isinstance(node, Atom):
            return self.node((WeightAtom, node.name, node.args), span, node.name, node.args)
        if isinstance(node, _Var):
            raise ParseError(f"variable {node.name!r} used where a term is required", *span)
        raise ParseError("formula used where a term is required", *span)

    def formula(self, floor: int = 0) -> Formula:
        return self.as_formula(*self.parse_expr(floor))

    def term(self, floor: int = 0) -> Term:
        return self.as_term(*self.parse_expr(floor))

    # -- operators ---------------------------------------------------------

    def binary(self, tok: Token, left: tuple, right: tuple) -> Expr:
        """The node for ``left tok right``; each operand, a (node, span)
        pair, is forced to the kind the operator takes."""
        op, span = tok.type, (tok.line, tok.column)
        if op in _CONNECTIVES:
            cls = _CONNECTIVES[op]
            lf, rf = self.as_formula(*left), self.as_formula(*right)
            return self.node((cls, id(lf), id(rf)), span, lf, rf)
        if PRECEDENCE[op] != COMPARISON:
            lt, rt = self.as_term(*left), self.as_term(*right)
            return self.node((Arith, op, id(lt), id(rt)), span, op, lt, rt)
        if op in ("=", "!="):
            lv, rv = isinstance(left[0], _Var), isinstance(right[0], _Var)
            if lv and rv:
                names = left[0].name, right[0].name
                eq = self.node((ElemEq, *names), span, *names)
                return eq if op == "=" else self.node((Not, id(eq)), span, eq)
            if lv or rv:
                raise ParseError("cannot compare an element variable with a term", *span)
        lt, rt = self.as_term(*left), self.as_term(*right)
        if op == "<=":
            return self.node((Leq, id(lt), id(rt)), span, lt, rt)
        return self.node((Compare, op, id(lt), id(rt)), span, op, lt, rt)

    def parse_expr(self, floor: int = 0) -> tuple:
        """Parse an expression whose operators bind at least as tightly as
        ``floor``; returns its node and the span of its head token.

        ``ceiling`` is the tightest operator that may still continue it: after
        a binary operator none tighter, after a comparison (which does not
        associate) or a prefix form only looser ones.  An operand may stop
        at its own ceiling, as ``b < c`` does in ``a and b < c < d``, and
        what it leaves must not attach to the whole expression.
        """
        tok = self.peek()
        span = (tok.line, tok.column)
        ceiling = PRIMARY
        if tok.type == "-":
            self.advance()
            zero = self.node((Zero,), span)
            operand = self.term(UNARY)
            left = self.node((Arith, "-", id(zero), id(operand)), span, "-", zero, operand)
        elif tok.type in ("not", "exists", "forall") and floor <= PREFIX:
            self.advance()
            if tok.type == "not":
                body = self.formula(PREFIX)
                left = self.node((Not, id(body)), span, body)
            else:
                var = self.expect("ident", "a variable name")
                body = self.formula(PREFIX)
                cls = Exists if tok.type == "exists" else Forall
                left = self.node((cls, var.text, id(body)), span, var.text, body)
            ceiling = PREFIX - 1
        else:
            left, span = self.parse_primary()
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.type)
            if prec is None or not floor <= prec <= ceiling:
                return left, span
            self.advance()
            right = self.parse_expr(prec if tok.type == "implies" else prec + 1)
            left, span = self.binary(tok, (left, span), right), (tok.line, tok.column)
            ceiling = prec - 1 if prec == COMPARISON else prec

    # -- primaries -----------------------------------------------------------

    def parse_varlist(self, *, allow_empty: bool, allow_duplicates: bool = False) -> tuple[str, ...]:
        names: list[str] = []
        if self.peek().type != "ident":
            if allow_empty:
                return ()
            self.error("expected a variable name")
        while True:
            tok = self.expect("ident", "a variable name")
            if not allow_duplicates and tok.text in names:
                raise ParseError(f"duplicate variable {tok.text!r} in binder", tok.line, tok.column)
            names.append(tok.text)
            if self.peek().type != ",":
                return tuple(names)
            self.advance()

    def parse_binder_braces(self) -> tuple[tuple[str, ...], Formula]:
        self.expect("{", "'{'")
        names = self.parse_varlist(allow_empty=False)
        self.expect(":", "':'")
        guard = self.formula()
        self.expect("}", "'}'")
        return names, guard

    def parse_primary(self) -> tuple:
        tok = self.peek()
        span = (tok.line, tok.column)

        if tok.type == "number":
            self.advance()
            try:
                value = Fraction(tok.text)
            except ValueError:
                # Python refuses to convert integers of more than a set number of digits
                raise ParseError(f"number literal too long ({len(tok.text)} characters)", *span) from None
            if value == 0:
                return self.node((Zero,), span), span
            if value == 1:
                return self.node((One,), span), span
            return self.node((Literal, value), span, value), span

        if tok.type == "bot":
            self.advance()
            return self.node((BotConst,), span), span

        if tok.type == "ident":
            self.advance()
            if self.peek().type == "(":
                self.advance()
                args = self.parse_varlist(allow_empty=True, allow_duplicates=True)
                self.expect(")", "')'")
                return self.node((Atom, tok.text, args), span, tok.text, args), span
            return _Var(tok.text), span

        if tok.type == "sum":
            self.advance()
            names, guard = self.parse_binder_braces()
            body = self.term(UNARY)
            return self.node((Sum, names, id(guard), id(body)), span, names, guard, body), span

        if tok.type in ("count", "avg", "min", "max"):
            self.advance()
            names, guard = self.parse_binder_braces()
            body = None if tok.type == "count" else self.term(UNARY)
            key = (Aggregate, tok.type, names, id(guard), id(body))
            return self.node(key, span, tok.type, names, guard, body), span

        if tok.type == "if":
            self.advance()
            test = self.formula()
            self.expect("then", "'then'")
            then = self.term(PRECEDENCE["+"])
            self.expect("else", "'else'")
            otherwise = self.term(PRECEDENCE["+"])
            key = (Cond, id(test), id(then), id(otherwise))
            return self.node(key, span, test, then, otherwise), span

        if tok.type == "ifp":
            self.advance()
            self.expect("(", "'('")
            name = self.expect("ident", "a weight symbol name")
            self.expect("(", "'('")
            bound = self.parse_varlist(allow_empty=True)
            self.expect(")", "')'")
            self.expect("<-", "'<-'")
            body = self.term()
            self.expect(")", "')'")
            self.expect("(", "'('")
            applied = self.parse_varlist(allow_empty=True, allow_duplicates=True)
            self.expect(")", "')'")
            if len(applied) != len(bound):
                raise ParseError(
                    f"fixed point binds {len(bound)} variables but is applied to {len(applied)}",
                    *span,
                )
            key = (Ifp, name.text, bound, id(body), applied)
            return self.node(key, span, name.text, bound, body, applied), span

        if tok.type == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner

        self.error("expected an expression")


def parse(text: str) -> Expr:
    """Parse query text into an AST; raises :class:`ParseError` with a position.

    The result is a formula, a term, or (only when the root is a bare
    ``ident(...)`` atom) a generic atom resolved at evaluation time.
    """
    parser = _Parser(tokenize(text))
    node, span = parser.parse_expr()
    tok = parser.peek()
    if tok.type != "eof":
        raise ParseError(f"unexpected {tok.text!r} after the expression", tok.line, tok.column)
    if isinstance(node, _Var):
        raise ParseError(f"a bare variable ({node.name!r}) is not a query", *span)
    return node
