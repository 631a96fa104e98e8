"""ParseError line/column reporting for malformed STAR DSL inputs.

Satellite: a Database Customizer edits rule files by hand; every parse
failure must point at the offending line and column, not just describe
the problem.
"""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.stars.dsl import parse_rules

#: (rule text, expected line, expected column, message fragment).
#: Columns are 1-based; line 1 is the first line of the text.
MALFORMED = [
    # Garbage at top level.
    ("blah", 1, 1, "expected"),
    # Unexpected character the tokenizer cannot lex.
    ("star S(A) { alt -> @ }", 1, 20, "unexpected character"),
    # Missing parameter list parenthesis.
    ("star S A) { alt -> JOIN(NL, A, A, {}, {}); }", 1, 8, "expected '('"),
    # Keyword used as a STAR name.
    ("star order(A) { alt -> Glue(A); }", 1, 6, "expected a name"),
    # Missing the -> arrow after alt.
    ("star S(A) { alt Glue(A); }", 1, 17, "expected '->'"),
    # Missing semicolon between alternatives (line 2).
    ("star S(A) {\n    alt -> Glue(A)\n    alt -> Glue(A);\n}", 3, 5, "expected ';'"),
    # Unclosed STAR body hits end of input (line 2).
    ("star S(A) {\n    alt -> Glue(A);", 2, 20, "end of input"),
    # Bad required-property name inside brackets.
    ("star S(A, s) { alt -> Glue(A [speed = s]); }", 1, 31, "required property"),
    # Plan term inside a required property value.
    ("star S(A, B) { alt -> Glue(A [site = Glue(B)]); }", 1, 45, "plan terms"),
    # forall without 'in'.
    ("star S(A) { alt -> forall s candidate_sites(): Glue(A); }", 1, 29, "expected 'in'"),
    # Empty alternative: '->' with no term before ';'.
    ("star S(A) { alt -> ; }", 1, 20, "expected"),
    # extend of a condition missing its expression (line 3).
    ("star S(A) {\n    alt if -> Glue(A);\n}", 2, 12, "expected"),
    # Dangling comma in an argument list.
    ("star S(A) { alt -> JOIN(NL, A, A, {}, ); }", 1, 39, "expected"),
]


@pytest.mark.parametrize(
    "text, line, column, fragment",
    MALFORMED,
    ids=[f"case{i}" for i in range(len(MALFORMED))],
)
def test_malformed_input_reports_position(text, line, column, fragment):
    with pytest.raises(ParseError) as exc:
        parse_rules(text)
    err = exc.value
    assert err.line == line, f"line: got {err.line}, want {line}: {err}"
    assert err.column == column, f"column: got {err.column}, want {column}: {err}"
    assert fragment.lower() in str(err).lower()
    # The rendered message itself names the position.
    assert f"line {line}" in str(err)


def test_position_attributes_are_integers():
    with pytest.raises(ParseError) as exc:
        parse_rules("star S(A) { alt -> }")
    assert isinstance(exc.value.line, int)
    assert isinstance(exc.value.column, int)


def test_error_on_later_line_counts_newlines():
    text = "star S(A) {\n    alt -> Glue(A);\n}\n\nstar T(B) {\n    alt => Glue(B);\n}"
    with pytest.raises(ParseError) as exc:
        parse_rules(text)
    assert exc.value.line == 6


@pytest.mark.parametrize(
    "head, opening, closing, tail",
    [
        ("star S(T) { alt -> ", "f(", ")", "; }"),
        ("star S(T) { alt if ", "(", ")", " -> T; }"),
        ("star S(T) { where X = ", "{", "}", "; alt -> T; }"),
    ],
    ids=["calls", "condition-parentheses", "set-literals"],
)
def test_nesting_deeper_than_the_stack_is_a_parse_error(head, opening, closing, tail):
    """Rule text is outside input (a DBC's file): nesting the descent
    cannot follow is a positioned ``ParseError``, not a ``RecursionError``."""
    parse_rules(head + opening * 50 + "T" + closing * 50 + tail)
    for depth in (500, 5_000):
        with pytest.raises(ParseError, match="nesting too deep") as exc:
            parse_rules(head + opening * depth + "T" + closing * depth + tail)
        assert exc.value.line == 1 and exc.value.column > len(head)
