"""ParseError line/column reporting for malformed SQL.

The SQL parser works positions out from the text only when a parse fails
(``repro.query.parser._position``); ``tests/test_parse_positions.py`` is the
same table for the STAR DSL.  The expected triples were generated with the
parser as it stood before the one-pass lexer, so they also pin that the
rewrite reports every error where the old tokenizer's per-token line
counter put it.
"""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.query.parser import parse_expression, parse_predicate, parse_query
from repro.workloads import chain_workload

#: (SQL text, expected line, expected column, message up to the position).
#: Columns are 1-based; line 1 is the first line of the text.
MALFORMED = [
    # Unexpected character after a newline.
    ("SELECT R0.ID\nFROM R0 WHERE R0.VAL ? 3", 2, 22, "unexpected character '?'"),
    # A lexical error behind an earlier grammar error wins.
    ("SELECT FROM R0 WHERE R0.VAL < 3 ;", 1, 33, "unexpected character ';'"),
    # Missing FROM.
    ("SELECT R0.ID WHERE R0.VAL < 3", 1, 30, "expected FROM, got ''"),
    # Keyword as identifier.
    ("SELECT R0.ID FROM order", 1, 19, "expected identifier, got 'order'"),
    # Dangling comma in the select list.
    ("SELECT R0.ID, FROM R0", 1, 15, "expected select item, got 'FROM'"),
    # Dangling comma in the table list.
    ("SELECT R0.ID FROM R0, WHERE R0.VAL < 3", 1, 23, "expected identifier, got 'WHERE'"),
    # Missing operator.
    ("SELECT R0.ID FROM R0 WHERE R0.VAL 3", 1, 35, "expected comparison operator, got '3'"),
    # Unterminated string: the quote itself starts no token.
    ("SELECT R0.ID FROM R0 WHERE R0.TAG = 'abc", 1, 37, 'unexpected character "\'"'),
    # BETWEEN without AND.
    ("SELECT R0.ID FROM R0 WHERE R0.VAL BETWEEN 1 OR 2", 1, 45, "expected AND, got 'OR'"),
    # Trailing input.
    ("SELECT R0.ID FROM R0 WHERE R0.VAL < 3 R1", 1, 39, "unexpected trailing input, got 'R1'"),
    # An error on line 3 after a tab-indented line (a tab is one column).
    ("SELECT R0.ID\n\tFROM R0\n  WHERE R0.VAL <", 3, 17, "expected expression, got ''"),
    # A failed speculative parenthesis: the predicate reading of '(' is
    # dropped, and the error is the scalar reading's.
    ("SELECT R0.ID FROM R0 WHERE (R0.VAL + 1 > 2", 1, 40, "expected ')', got '>'"),
    # Two select items without a comma.
    ("SELECT R0.ID R0.VAL FROM R0", 1, 14, "malformed select item, got 'R0'"),
    # End of input after trailing newlines.
    ("SELECT R0.ID FROM\n\n", 3, 1, "expected identifier, got ''"),
    # A newline inside a string literal does not start a line.
    ("SELECT R0.ID FROM R0 WHERE R0.TAG = 'a\nb' AND\n R0.VAL", 2, 8,
     "expected comparison operator, got ''"),
    # ORDER BY takes columns only.
    ("SELECT R0.ID FROM R0 ORDER BY 1", 1, 32, "expected a column reference, got ''"),
]


@pytest.fixture(scope="module")
def catalog():
    return chain_workload(3, rows=1).catalog


@pytest.mark.parametrize(
    "text, line, column, message",
    MALFORMED,
    ids=[f"case{i}" for i in range(len(MALFORMED))],
)
def test_malformed_sql_reports_position(catalog, text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_query(text, catalog)
    err = exc.value
    assert (err.line, err.column) == (line, column), str(err)
    # The rendered message itself names the position.
    assert str(err) == f"{message} (line {line}, column {column})"


def test_positions_are_worked_out_once_per_failed_parse(catalog, monkeypatch):
    """A successful parse never asks for a position, however many
    speculative parentheses it backs out of; a failed one asks once."""
    from repro.query import parser

    calls = []
    real = parser._position
    monkeypatch.setattr(parser, "_position", lambda *a: calls.append(a) or real(*a))
    nested = "SELECT R0.ID FROM R0 WHERE ((((R0.VAL + 1)))) > 3 AND (R0.ID - 1) * 2 < 4"
    parse_query(nested, catalog)
    assert calls == []
    with pytest.raises(ParseError):
        parse_query(nested + " AND ((R0.VAL + 1)) >", catalog)
    assert len(calls) == 1


#: Every entry point, with the text that nests its grammar ``depth`` deep.
NESTED = {
    "parse_query": lambda catalog, depth: parse_query(
        "SELECT R0.ID FROM R0\nWHERE " + "(" * depth + "R0.VAL = 1" + ")" * depth,
        catalog,
    ),
    "parse_predicate": lambda catalog, depth: parse_predicate(
        "(" * depth + "R0.VAL = 1" + ")" * depth, catalog, ("R0",)
    ),
    "parse_expression": lambda catalog, depth: parse_expression(
        "(" * depth + "R0.VAL" + ")" * depth, catalog, ("R0",)
    ),
}


@pytest.mark.parametrize("entry", NESTED)
def test_nesting_deeper_than_the_stack_is_a_parse_error(catalog, entry):
    """A recursive descent cannot follow nesting past the interpreter's
    stack; that is the statement's fault and reads like one — a
    ``ParseError`` with a position, never a raw ``RecursionError``."""
    NESTED[entry](catalog, 50)
    for depth in (500, 5_000):
        with pytest.raises(ParseError, match="nesting too deep") as exc:
            NESTED[entry](catalog, depth)
        err = exc.value
        assert err.line == (2 if entry == "parse_query" else 1)
        assert err.column > 1
        assert str(err).endswith(f"(line {err.line}, column {err.column})")
