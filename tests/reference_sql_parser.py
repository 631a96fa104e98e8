"""The SQL front end as it stood before the one-pass lexer: the oracle.

``_TOKEN_RE``/``_Token``/``_tokenize`` and ``_Parser`` are the
implementation :mod:`repro.query.parser` shipped up to PR 13, verbatim: a
``re.match`` per token, a line counter per token, a frozen ``_Token`` per
token.  It is slow and obviously right, which is what
``tests/test_sql_frontend_differential.py`` needs from it: the production
parser must return equal objects and raise equal errors (type, text, line,
column) on every input.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.catalog.catalog import Catalog
from repro.errors import ParseError
from repro.query.expressions import Arith, ColumnRef, Expr, FuncCall, Literal
from repro.query.expressions import scalar_functions
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
)
from repro.query.query import OrderItem, QueryBlock, SelectItem

_KEYWORDS = {
    "select", "from", "where", "order", "by", "and", "or", "not",
    "as", "asc", "desc", "between",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9#]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.*+\-/%])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup or ""
        token_text = match.group()
        if kind != "ws":
            tokens.append(_Token(kind, token_text, line, pos - line_start + 1))
        else:
            newlines = token_text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + token_text.rfind("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str, catalog: "Catalog", tables: tuple[str, ...] = ()):
        self._tokens = _tokenize(text)
        self._pos = 0
        self._catalog = catalog
        self._tables = tables

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(f"{message}, got {token.text!r}", token.line, token.column)

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "ident" and token.text.lower() == word

    def _expect_keyword(self, word: str) -> None:
        if not self._at_keyword(word):
            raise self._error(f"expected {word.upper()}")
        self._advance()

    def _expect_punct(self, char: str) -> None:
        token = self._peek()
        if token.kind != "punct" or token.text != char:
            raise self._error(f"expected {char!r}")
        self._advance()

    def _at_punct(self, char: str) -> bool:
        token = self._peek()
        return token.kind == "punct" and token.text == char

    def _accept_punct(self, char: str) -> bool:
        if self._at_punct(char):
            self._advance()
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != "ident" or token.text.lower() in _KEYWORDS:
            raise self._error("expected identifier")
        self._advance()
        return token.text

    # -- query ----------------------------------------------------------------

    def parse_query(self) -> QueryBlock:
        self._expect_keyword("select")
        select_texts = self._parse_select_list_raw()
        self._expect_keyword("from")
        tables = [self._expect_ident()]
        while self._accept_punct(","):
            tables.append(self._expect_ident())
        self._tables = tuple(tables)
        select = self._resolve_select_list(select_texts)
        predicates: tuple[Predicate, ...] = ()
        if self._at_keyword("where"):
            self._advance()
            predicates = self.parse_predicate().conjuncts()
        order_by: list[OrderItem] = []
        if self._at_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        if self._peek().kind != "eof":
            raise self._error("unexpected trailing input")
        return QueryBlock(
            tables=self._tables,
            select=tuple(select),
            predicates=predicates,
            order_by=tuple(order_by),
        )

    def _parse_select_list_raw(self) -> list[tuple[int, int]]:
        """Record the token spans of select items (columns can only be
        resolved after FROM is known), returning (start, end) positions."""
        spans: list[tuple[int, int]] = []
        if self._at_punct("*"):
            self._advance()
            return [(-1, -1)]
        spans.append(self._skip_select_item())
        while self._accept_punct(","):
            spans.append(self._skip_select_item())
        return spans

    def _skip_select_item(self) -> tuple[int, int]:
        start = self._pos
        depth = 0
        while True:
            token = self._peek()
            if token.kind == "eof":
                break
            if token.kind == "punct" and token.text == "(":
                depth += 1
            elif token.kind == "punct" and token.text == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0:
                if token.kind == "punct" and token.text == ",":
                    break
                if token.kind == "ident" and token.text.lower() == "from":
                    break
            self._advance()
        if self._pos == start:
            raise self._error("expected select item")
        return (start, self._pos)

    def _resolve_select_list(self, spans: list[tuple[int, int]]) -> list[SelectItem]:
        if spans == [(-1, -1)]:
            items = []
            for table in self._tables:
                for column in self._catalog.table(table).column_names:
                    items.append(SelectItem(ColumnRef(table, column), column))
            return items
        items = []
        saved = self._pos
        for start, end in spans:
            self._pos = start
            expr = self.parse_expression()
            alias: str | None = None
            if self._at_keyword("as"):
                self._advance()
                alias = self._expect_ident()
            if self._pos != end:
                raise self._error("malformed select item")
            if alias is None:
                alias = expr.column if isinstance(expr, ColumnRef) else str(expr)
            items.append(SelectItem(expr, alias))
        self._pos = saved
        return items

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_column()
        descending = False
        if self._at_keyword("desc"):
            self._advance()
            descending = True
        elif self._at_keyword("asc"):
            self._advance()
        return OrderItem(expr, descending)

    # -- predicates -----------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        parts = [self._parse_and()]
        while self._at_keyword("or"):
            self._advance()
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return Disjunction(tuple(parts))

    def _parse_and(self) -> Predicate:
        parts = [self._parse_not()]
        while self._at_keyword("and"):
            self._advance()
            parts.append(self._parse_not())
        if len(parts) == 1:
            return parts[0]
        return Conjunction(tuple(parts))

    def _parse_not(self) -> Predicate:
        if self._at_keyword("not"):
            self._advance()
            return Negation(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        # A parenthesis may open either a nested predicate or a scalar
        # expression; try the predicate interpretation first.
        if self._at_punct("("):
            saved = self._pos
            try:
                self._advance()
                pred = self.parse_predicate()
                self._expect_punct(")")
                return pred
            except ParseError:
                self._pos = saved
        left = self.parse_expression()
        token = self._peek()
        if self._at_keyword("between"):
            self._advance()
            low = self.parse_expression()
            self._expect_keyword("and")
            high = self.parse_expression()
            return Conjunction((Comparison(">=", left, low), Comparison("<=", left, high)))
        if token.kind != "op":
            raise self._error("expected comparison operator")
        self._advance()
        op = "<>" if token.text == "!=" else token.text
        right = self.parse_expression()
        return Comparison(op, left, right)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> Expr:
        left = self._parse_term()
        while self._at_punct("+") or self._at_punct("-"):
            op = self._advance().text
            left = Arith(op, left, self._parse_term())
        return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while self._at_punct("*") or self._at_punct("/") or self._at_punct("%"):
            op = self._advance().text
            left = Arith(op, left, self._parse_factor())
        return left

    def _parse_factor(self) -> Expr:
        if self._accept_punct("-"):
            inner = self._parse_factor()
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return Literal(-inner.value)
            return Arith("-", Literal(0), inner)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return Literal(value)
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if self._accept_punct("("):
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if token.kind == "ident" and token.text.lower() not in _KEYWORDS:
            name = self._expect_ident()
            if self._at_punct("(") and name.lower() in scalar_functions():
                self._advance()
                args: list[Expr] = []
                if not self._at_punct(")"):
                    args.append(self.parse_expression())
                    while self._accept_punct(","):
                        args.append(self.parse_expression())
                self._expect_punct(")")
                return FuncCall(name.lower(), tuple(args))
            if self._accept_punct("."):
                column = self._expect_ident()
                return ColumnRef(name, column)
            return self._catalog.resolve_column(name, self._tables)
        raise self._error("expected expression")

    def _parse_column(self) -> ColumnRef:
        expr = self._parse_primary()
        if not isinstance(expr, ColumnRef):
            raise self._error("expected a column reference")
        return expr


def parse_query(text: str, catalog: "Catalog") -> QueryBlock:
    """Parse a SELECT statement into a :class:`QueryBlock`."""
    return _Parser(text, catalog).parse_query()


def parse_predicate(text: str, catalog: "Catalog", tables: Iterable[str]) -> Predicate:
    """Parse a standalone predicate (for tests and workload builders)."""
    parser = _Parser(text, catalog, tuple(tables))
    pred = parser.parse_predicate()
    if parser._peek().kind != "eof":
        raise parser._error("unexpected trailing input")
    return pred


def parse_expression(text: str, catalog: "Catalog", tables: Iterable[str]) -> Expr:
    """Parse a standalone scalar expression."""
    parser = _Parser(text, catalog, tuple(tables))
    expr = parser.parse_expression()
    if parser._peek().kind != "eof":
        raise parser._error("unexpected trailing input")
    return expr
