"""A small SQL parser for select-project-join blocks.

Grammar (case-insensitive keywords)::

    query       := SELECT select_list FROM table_list
                   [WHERE predicate] [ORDER BY order_list]
    select_list := '*' | select_item (',' select_item)*
    select_item := expr [AS ident]
    table_list  := ident (',' ident)*
    order_list  := column [ASC|DESC] (',' column [ASC|DESC])*
    predicate   := disjunct (OR disjunct)*
    disjunct    := conjunct (AND conjunct)*
    conjunct    := NOT conjunct | '(' predicate ')' | comparison
    comparison  := expr op expr | expr BETWEEN expr AND expr
    op          := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
    expr        := term (('+'|'-') term)*
    term        := factor (('*'|'/'|'%') factor)*
    factor      := ['-'] primary
    primary     := number | string | column | func '(' args ')' | '(' expr ')'
    column      := ident '.' ident | ident

Unqualified column names are resolved against the FROM list using the
catalog.  The parser produces conjunct-normalized predicates: the WHERE
clause is flattened into a tuple of top-level conjuncts (ORs stay intact
inside a conjunct, matching the paper's treatment of ORs as residual,
non-join predicates).

The statement is lexed in one regex pass (``_LEX.findall``) and parsed over
plain strings.  Lines and columns are worked out on demand, from the text,
once per failed parse: a successful one never counts a newline.
"""

from __future__ import annotations

import re
import string
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

from repro.errors import ParseError
from repro.query.expressions import Arith, ColumnRef, Expr, FuncCall, Literal
from repro.query.expressions import scalar_functions
from repro.query.predicates import (
    COMPARISON_OPS,
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
)
from repro.query.query import OrderItem, QueryBlock, SelectItem

if TYPE_CHECKING:  # imported lazily to avoid a circular import with catalog
    from repro.catalog.catalog import Catalog

_T = TypeVar("_T")

_KEYWORDS = frozenset({
    "select", "from", "where", "order", "by", "and", "or", "not",
    "as", "asc", "desc", "between",
})
_IDENT_START = frozenset(string.ascii_letters + "_")
_COMPARISONS = frozenset(COMPARISON_OPS) | {"!="}  # "!=" is read as "<>"
_ADDITIVE = frozenset("+-")
_MULTIPLICATIVE = frozenset("*/%")

#: Optional whitespace, then one token in group 1 (number, string,
#: identifier, comparison, punctuation) or, with group 1 unset, one
#: character that starts no token: ``findall`` yields ``""`` for it.
_LEX = re.compile(
    r"\s*(?:(\d+\.\d+|\d+|'(?:[^']|'')*'|[A-Za-z_][A-Za-z_0-9#]*"
    r"|[<>]=|<>|!=|[=<>(),.*+\-/%])|\S)"
)


def _position(text: str, index: int) -> tuple[int, int, int]:
    """Offset, line and column of token ``index`` (``len(tokens)`` is the
    end of input), or of a character that starts no token if one comes
    first.  Newlines count between tokens only, not inside a string."""
    spans = [(m.start(1), m.end()) for m in _LEX.finditer(text)]
    spans.append((len(text), len(text)))
    line, line_start, gap = 1, 0, 0
    for number, (start, end) in enumerate(spans):
        stray = start < 0  # group 1 unset: the match ends with the character
        if stray:
            start = end - 1
        newlines = text.count("\n", gap, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", gap, start) + 1
        if number == index or stray:
            break
        gap = end
    return start, line, start - line_start + 1


class _Parser:
    """Recursive-descent parser over the token strings.

    ``""`` ends the list.  A string literal starts with ``'`` and a number
    with a digit, so neither ever equals a keyword or punctuation text.
    """

    def __init__(self, text: str, catalog: "Catalog", tables: tuple[str, ...] = ()):
        tokens = _LEX.findall(text)
        if "" in tokens:  # reported before any grammar error, wherever it sits
            offset, line, column = _position(text, -1)
            raise ParseError(f"unexpected character {text[offset]!r}", line, column)
        tokens.append("")
        self._tokens: list[str] = tokens
        self._pos = 0
        self._catalog = catalog
        self._tables = tables

    # -- token plumbing -------------------------------------------------------

    def _error(self, message: str) -> ParseError:
        """A grammar error at the current token.  It carries no position:
        ``_parse`` adds one for the caller, and ``_parse_comparison``
        drops those of a failed speculation without paying for any."""
        return ParseError(f"{message}, got {self._tokens[self._pos]!r}")

    def _accept_keyword(self, word: str) -> bool:
        if self._tokens[self._pos].lower() == word:
            self._pos += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word.upper()}")

    def _accept_punct(self, char: str) -> bool:
        if self._tokens[self._pos] == char:
            self._pos += 1
            return True
        return False

    def _expect_punct(self, char: str) -> None:
        if not self._accept_punct(char):
            raise self._error(f"expected {char!r}")

    def _expect_ident(self) -> str:
        token = self._tokens[self._pos]
        if token[:1] not in _IDENT_START or token.lower() in _KEYWORDS:
            raise self._error("expected identifier")
        self._pos += 1
        return token

    def _expect_end(self) -> None:
        if self._tokens[self._pos]:
            raise self._error("unexpected trailing input")

    # -- query ----------------------------------------------------------------

    def parse_query(self) -> QueryBlock:
        self._expect_keyword("select")
        select_spans = self._parse_select_list_raw()
        self._expect_keyword("from")
        tables = [self._expect_ident()]
        while self._accept_punct(","):
            tables.append(self._expect_ident())
        self._tables = tuple(tables)
        select = self._resolve_select_list(select_spans)
        predicates: tuple[Predicate, ...] = ()
        if self._accept_keyword("where"):
            predicates = self.parse_predicate().conjuncts()
        order_by: list[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        self._expect_end()
        return QueryBlock(
            tables=self._tables,
            select=tuple(select),
            predicates=predicates,
            order_by=tuple(order_by),
        )

    def _parse_select_list_raw(self) -> list[tuple[int, int]]:
        """Record the token spans of select items (columns can only be
        resolved after FROM is known), returning (start, end) positions."""
        if self._accept_punct("*"):
            return [(-1, -1)]
        spans = [self._skip_select_item()]
        while self._accept_punct(","):
            spans.append(self._skip_select_item())
        return spans

    def _skip_select_item(self) -> tuple[int, int]:
        tokens = self._tokens
        start = pos = self._pos
        depth = 0
        while True:
            token = tokens[pos]
            if token == "(":
                depth += 1
            elif token == ")":
                if depth == 0:
                    break
                depth -= 1
            elif not token or depth == 0 and (token == "," or token.lower() == "from"):
                break
            pos += 1
        self._pos = pos
        if pos == start:
            raise self._error("expected select item")
        return (start, pos)

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
            if self._accept_keyword("as"):
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
        descending = self._accept_keyword("desc")
        if not descending:
            self._accept_keyword("asc")
        return OrderItem(expr, descending)

    # -- predicates -----------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        parts = [self._parse_and()]
        while self._accept_keyword("or"):
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return Disjunction(tuple(parts))

    def _parse_and(self) -> Predicate:
        parts = [self._parse_not()]
        while self._accept_keyword("and"):
            parts.append(self._parse_not())
        if len(parts) == 1:
            return parts[0]
        return Conjunction(tuple(parts))

    def _parse_not(self) -> Predicate:
        if self._accept_keyword("not"):
            return Negation(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        # A parenthesis may open either a nested predicate or a scalar
        # expression; try the predicate interpretation first.
        saved = self._pos
        if self._accept_punct("("):
            try:
                pred = self.parse_predicate()
                self._expect_punct(")")
                return pred
            except ParseError:
                self._pos = saved
        left = self.parse_expression()
        if self._accept_keyword("between"):
            low = self.parse_expression()
            self._expect_keyword("and")
            high = self.parse_expression()
            return Conjunction((Comparison(">=", left, low), Comparison("<=", left, high)))
        op = self._tokens[self._pos]
        if op not in _COMPARISONS:
            raise self._error("expected comparison operator")
        self._pos += 1
        return Comparison("<>" if op == "!=" else op, left, self.parse_expression())

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> Expr:
        left = self._parse_term()
        while (op := self._tokens[self._pos]) in _ADDITIVE:
            self._pos += 1
            left = Arith(op, left, self._parse_term())
        return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while (op := self._tokens[self._pos]) in _MULTIPLICATIVE:
            self._pos += 1
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
        token = self._tokens[self._pos]
        first = token[:1]
        if first in _IDENT_START and token.lower() not in _KEYWORDS:
            self._pos += 1
            if self._tokens[self._pos] == "(" and token.lower() in scalar_functions():
                self._pos += 1
                args: list[Expr] = []
                if self._tokens[self._pos] != ")":
                    args.append(self.parse_expression())
                    while self._accept_punct(","):
                        args.append(self.parse_expression())
                self._expect_punct(")")
                return FuncCall(token.lower(), tuple(args))
            if self._accept_punct("."):
                return ColumnRef(token, self._expect_ident())
            return self._catalog.resolve_column(token, self._tables)
        if first.isdecimal():
            self._pos += 1
            return Literal(float(token) if "." in token else int(token))
        if first == "'":
            self._pos += 1
            return Literal(token[1:-1].replace("''", "'"))
        if self._accept_punct("("):
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error("expected expression")

    def _parse_column(self) -> ColumnRef:
        expr = self._parse_primary()
        if not isinstance(expr, ColumnRef):
            raise self._error("expected a column reference")
        return expr


def _parse(
    text: str, catalog: "Catalog", tables: Iterable[str], rule: Callable[[_Parser], _T]
) -> _T:
    """Parse all of ``text`` by one grammar rule; a grammar error leaves
    with the line and column of the token the parser stopped at.  So does
    nesting deeper than the interpreter's stack lets the descent follow."""
    parser = _Parser(text, catalog, tuple(tables))
    try:
        result = rule(parser)
        parser._expect_end()
        return result
    except (ParseError, RecursionError) as error:
        message = (
            error.args[0] if isinstance(error, ParseError) else "nesting too deep"
        )
        _, line, column = _position(text, parser._pos)
        raise ParseError(message, line, column) from None


def parse_query(text: str, catalog: "Catalog") -> QueryBlock:
    """Parse a SELECT statement into a :class:`QueryBlock`."""
    return _parse(text, catalog, (), _Parser.parse_query)


def parse_predicate(text: str, catalog: "Catalog", tables: Iterable[str]) -> Predicate:
    """Parse a standalone predicate (for tests and workload builders)."""
    return _parse(text, catalog, tables, _Parser.parse_predicate)


def parse_expression(text: str, catalog: "Catalog", tables: Iterable[str]) -> Expr:
    """Parse a standalone scalar expression."""
    return _parse(text, catalog, tables, _Parser.parse_expression)
