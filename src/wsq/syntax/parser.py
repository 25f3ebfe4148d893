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
``1/0`` is division, which evaluates to ``bot``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

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
    Not,
    One,
    Or,
    RelAtom,
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
    span: tuple[int, int]


def _as_formula(node) -> Formula:
    if isinstance(node, Formula):
        return node
    if isinstance(node, Atom):
        return RelAtom(node.name, node.args, span=node.span)
    if isinstance(node, _Var):
        raise ParseError(f"variable {node.name!r} used where a formula is required", *node.span)
    raise ParseError("term used where a formula is required", *_span_of(node))


def _as_term(node) -> Term:
    if isinstance(node, Term):
        return node
    if isinstance(node, Atom):
        return WeightAtom(node.name, node.args, span=node.span)
    if isinstance(node, _Var):
        raise ParseError(f"variable {node.name!r} used where a term is required", *node.span)
    raise ParseError("formula used where a term is required", *_span_of(node))


def _span_of(node) -> tuple[Optional[int], Optional[int]]:
    span = getattr(node, "span", None)
    return span if span else (None, None)


_CONNECTIVES = {"implies": Implies, "or": Or, "and": And}


def _binary(tok: Token, left, right) -> Expr:
    """The node for ``left tok right``; each operand is forced to the kind the operator takes."""
    op, span = tok.type, (tok.line, tok.column)
    if op in _CONNECTIVES:
        return _CONNECTIVES[op](_as_formula(left), _as_formula(right), span=span)
    if PRECEDENCE[op] != COMPARISON:
        return Arith(op, _as_term(left), _as_term(right), span=span)
    if op in ("=", "!="):
        lv, rv = isinstance(left, _Var), isinstance(right, _Var)
        if lv and rv:
            eq = ElemEq(left.name, right.name, span=span)
            return eq if op == "=" else Not(eq, span=span)
        if lv or rv:
            raise ParseError("cannot compare an element variable with a term", *span)
    lt, rt = _as_term(left), _as_term(right)
    if op == "<=":
        return Leq(lt, rt, span=span)
    return Compare(op, lt, rt, span=span)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

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

    # -- operators ---------------------------------------------------------

    def parse_expr(self, floor: int = 0):
        """Parse an expression whose operators bind at least as tightly as ``floor``.

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
            left = Arith("-", Zero(span=span), _as_term(self.parse_expr(UNARY)), span=span)
        elif tok.type in ("not", "exists", "forall") and floor <= PREFIX:
            self.advance()
            if tok.type == "not":
                left = Not(_as_formula(self.parse_expr(PREFIX)), span=span)
            else:
                var = self.expect("ident", "a variable name")
                body = _as_formula(self.parse_expr(PREFIX))
                left = (Exists if tok.type == "exists" else Forall)(var.text, body, span=span)
            ceiling = PREFIX - 1
        else:
            left = self.parse_primary()
        while True:
            tok = self.peek()
            prec = PRECEDENCE.get(tok.type)
            if prec is None or not floor <= prec <= ceiling:
                return left
            self.advance()
            right = self.parse_expr(prec if tok.type == "implies" else prec + 1)
            left = _binary(tok, left, right)
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
        guard = _as_formula(self.parse_expr())
        self.expect("}", "'}'")
        return names, guard

    def parse_primary(self):
        tok = self.peek()
        span = (tok.line, tok.column)

        if tok.type == "number":
            self.advance()
            value = Fraction(tok.text)
            if value == 0:
                return Zero(span=span)
            if value == 1:
                return One(span=span)
            return Literal(value, span=span)

        if tok.type == "bot":
            self.advance()
            return BotConst(span=span)

        if tok.type == "ident":
            self.advance()
            if self.peek().type == "(":
                self.advance()
                args = self.parse_varlist(allow_empty=True, allow_duplicates=True)
                self.expect(")", "')'")
                return Atom(tok.text, args, span=span)
            return _Var(tok.text, span)

        if tok.type == "sum":
            self.advance()
            names, guard = self.parse_binder_braces()
            body = _as_term(self.parse_expr(UNARY))
            return Sum(names, guard, body, span=span)

        if tok.type in ("count", "avg", "min", "max"):
            self.advance()
            names, guard = self.parse_binder_braces()
            body = None if tok.type == "count" else _as_term(self.parse_expr(UNARY))
            return Aggregate(tok.type, names, guard, body, span=span)

        if tok.type == "if":
            self.advance()
            test = _as_formula(self.parse_expr())
            self.expect("then", "'then'")
            then = _as_term(self.parse_expr(PRECEDENCE["+"]))
            self.expect("else", "'else'")
            otherwise = _as_term(self.parse_expr(PRECEDENCE["+"]))
            return Cond(test, then, otherwise, span=span)

        if tok.type == "ifp":
            self.advance()
            self.expect("(", "'('")
            name = self.expect("ident", "a weight symbol name")
            self.expect("(", "'('")
            bound = self.parse_varlist(allow_empty=True)
            self.expect(")", "')'")
            self.expect("<-", "'<-'")
            body = _as_term(self.parse_expr())
            self.expect(")", "')'")
            self.expect("(", "'('")
            applied = self.parse_varlist(allow_empty=True, allow_duplicates=True)
            self.expect(")", "')'")
            if len(applied) != len(bound):
                raise ParseError(
                    f"fixed point binds {len(bound)} variables but is applied to {len(applied)}",
                    *span,
                )
            return Ifp(name.text, bound, body, applied, span=span)

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
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.type != "eof":
        raise ParseError(f"unexpected {tok.text!r} after the expression", tok.line, tok.column)
    if isinstance(node, _Var):
        raise ParseError(f"a bare variable ({node.name!r}) is not a query", *node.span)
    return node
