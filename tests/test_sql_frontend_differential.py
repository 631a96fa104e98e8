"""The one-pass SQL front end against the front end it replaced.

``tests/reference_sql_parser.py`` keeps the old tokenizer and parser.  On
every input both must do the same thing: return equal objects (a
``QueryBlock`` compares its tables, select items, predicates and order
items as tuples, so order counts), or raise the same ``ReproError``
subclass with the same text and, for a ``ParseError``, the same line and
column.  Anything else (another exception type, a traceback out of
``re``, an ``IndexError`` off the end of the token list) fails the test.

Two generators feed it: soups of tokens, legal and not, separated by
spaces, tabs, newlines or nothing; and statements grown from the grammar
over the chain and star catalogs, with every deletion, duplication and
swap of one token.  ``ci`` in ``tests/conftest.py`` raises the budget.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, ReproError
from repro.query import parser as new
from repro.workloads import chain_workload, star_workload
from tests import reference_sql_parser as old

CATALOGS = {
    "chain": chain_workload(3, rows=1).catalog,
    "star": star_workload(3, rows=1).catalog,
}
TABLES = ("R0", "R1", "R2")


# The example budget comes from the profile (``ci`` raises it); no deadline,
# because a pause of a loaded machine is not a failure of the parser and a
# hang is ``--timeout``'s to catch.
budget = settings(deadline=None)


def outcome(parse, *args):
    """What a parse did, in a form two implementations can be equal on."""
    try:
        return ("ok", parse(*args))
    except ParseError as error:
        return (type(error), str(error), error.line, error.column)
    except ReproError as error:
        return (type(error), str(error))


def assert_same(text: str, shape: str = "chain") -> None:
    catalog = CATALOGS[shape]
    assert outcome(new.parse_query, text, catalog) == outcome(
        old.parse_query, text, catalog
    ), text
    for rule in ("parse_predicate", "parse_expression"):
        assert outcome(getattr(new, rule), text, catalog, TABLES) == outcome(
            getattr(old, rule), text, catalog, TABLES
        ), (rule, text)


# ---------------------------------------------------------------------------
# Token soups
# ---------------------------------------------------------------------------

SOUP_TOKENS = [
    # keywords, in the cases a user types them
    "SELECT", "select", "From", "FROM", "WHERE", "ORDER", "BY", "AND", "OR",
    "NOT", "AS", "ASC", "DESC", "BETWEEN", "between",
    # identifiers
    "R0", "R1", "R2", "ID", "FK", "FK1", "VAL", "TAG", "NOPE", "A#", "_x", "x_1#",
    "upper", "mod", "abs",
    # numbers: plain, decimal, a dot with a missing side, non-ASCII decimal digits,
    # a digit that is not a decimal (superscript two)
    "7", "0", "7.5", "7.", ".5", "1.2.3", "\u0663", "\u0663.\u0665", "\uff17", "\u00b2",
    # strings: plain, escaped quote, empty, holding a newline or an illegal
    # character, unterminated
    "'x'", "'O''Brien'", "''", "'a\nb'", "'?'", "'open", "'",
    # comparison operators and punctuation
    "=", "<>", "!=", "<", "<=", ">", ">=", "(", ")", ",", ".", "*", "+", "-", "/", "%",
    # characters no token starts with
    "?", ";", "@", "!", "#", '"', "\u00e9", "\u212a", "\x00",
]
SEPARATORS = ["", " ", " ", "  ", "\t", "\n", "\n\t", " \n ", "\x0b", "\u00a0"]

soups = st.lists(
    st.tuples(st.sampled_from(SOUP_TOKENS), st.sampled_from(SEPARATORS)), max_size=14
).map(lambda pairs: "".join(token + gap for token, gap in pairs))


@budget
@given(soups)
def test_token_soup(text):
    assert_same(text)


@budget
@given(soups, st.sampled_from(["SELECT ", "SELECT R0.ID FROM R0 WHERE ", "SELECT * FROM R0, "]))
def test_token_soup_behind_a_statement_prefix(text, prefix):
    """The same soups reach the clauses a soup alone rarely gets to."""
    assert_same(prefix + text)


# ---------------------------------------------------------------------------
# Statements from the grammar, and their one-token mutations
# ---------------------------------------------------------------------------

COLUMNS = {
    shape: {table.name: table.column_names for table in catalog.tables()}
    for shape, catalog in CATALOGS.items()
}


def _cased(word: str):
    return st.sampled_from([word, word.lower(), word.capitalize()])


@st.composite
def statements(draw) -> tuple[str, list[str]]:
    """(catalog shape, the tokens of one statement of the grammar)."""
    shape = draw(st.sampled_from(sorted(COLUMNS)))
    tables = draw(st.permutations(TABLES))[: draw(st.integers(1, 3))]

    def column() -> list[str]:
        table = draw(st.sampled_from(tables))
        name = draw(st.sampled_from(COLUMNS[shape][table]))
        # Unqualified: resolved against FROM, or refused as ambiguous.
        return [name] if draw(st.integers(0, 4)) == 0 else [table, ".", name]

    def primary(depth: int) -> list[str]:
        kind = draw(st.integers(0, 7 if depth else 4))
        if kind <= 2:
            return column()
        if kind == 3:
            return [draw(st.sampled_from(["7", "0", "42", "7.5", "\u0663"]))]
        if kind == 4:
            return [draw(st.sampled_from(["'x'", "'O''Brien'", "''", "'a\nb'"]))]
        if kind == 5:
            return ["(", *expr(depth - 1), ")"]
        if kind == 6:
            return ["-", *primary(depth - 1)]
        name = draw(st.sampled_from(["abs", "upper", "MOD", "length", "nofunc"]))
        args = [expr(depth - 1) for _ in range(draw(st.integers(0, 2)))]
        return [name, "(", *(t for i, a in enumerate(args) for t in ([","] * (i > 0) + a)), ")"]

    def expr(depth: int) -> list[str]:
        tokens = primary(depth)
        for _ in range(draw(st.integers(0, 2 if depth else 0))):
            tokens += [draw(st.sampled_from("+-*/%")), *primary(depth - 1)]
        return tokens

    def predicate(depth: int) -> list[str]:
        kind = draw(st.integers(0, 9 if depth else 5))
        if kind <= 4:
            op = draw(st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="]))
            return [*expr(depth), op, *expr(depth)]
        if kind == 5:
            return [*expr(depth), draw(_cased("BETWEEN")), *expr(depth),
                    draw(_cased("AND")), *expr(depth)]
        if kind == 6:
            return [draw(_cased("NOT")), *predicate(depth - 1)]
        if kind == 7:
            return ["(", *predicate(depth - 1), ")"]
        word = draw(_cased(draw(st.sampled_from(["AND", "OR"]))))
        return [*predicate(depth - 1), word, *predicate(depth - 1)]

    tokens = [draw(_cased("SELECT"))]
    if draw(st.integers(0, 5)) == 0:
        tokens.append("*")
    else:
        for i in range(draw(st.integers(1, 3))):
            tokens += [","] * (i > 0) + expr(2)
            if draw(st.booleans()):
                tokens += [draw(_cased("AS")), draw(st.sampled_from(["x", "N#", "_y"]))]
    tokens.append(draw(_cased("FROM")))
    for i, table in enumerate(tables):
        tokens += [","] * (i > 0) + [table]
    if draw(st.integers(0, 5)):
        tokens += [draw(_cased("WHERE")), *predicate(2)]
    if draw(st.booleans()):
        tokens += [draw(_cased("ORDER")), draw(_cased("BY"))]
        for i in range(draw(st.integers(1, 2))):
            tokens += [","] * (i > 0) + column()
            tokens += draw(st.sampled_from([[], ["ASC"], ["DESC"], ["desc"]]))
    return shape, tokens


def _spaced(draw, tokens: list[str]) -> str:
    gaps = draw(st.lists(st.sampled_from([" ", " ", " ", "\n", "\t", "  \n  "]),
                         min_size=len(tokens), max_size=len(tokens)))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


@budget
@given(st.data())
def test_grammar_statements(data):
    shape, tokens = data.draw(statements())
    assert_same(_spaced(data.draw, tokens), shape)


@budget
@given(st.data())
def test_single_token_mutations(data):
    """Every deletion, duplication and neighbour swap of one token of a
    statement: most are errors, and the errors must be the same error."""
    shape, tokens = data.draw(statements())
    gaps = data.draw(st.sampled_from([" ", "\n", " \n\t"]))
    for i in range(len(tokens)):
        mutants = [tokens[:i] + tokens[i + 1:], tokens[:i] + tokens[i:i + 1] + tokens[i:]]
        if i + 1 < len(tokens):
            mutants.append(tokens[:i] + [tokens[i + 1], tokens[i]] + tokens[i + 2:])
        for mutant in mutants:
            assert_same(gaps.join(mutant), shape)


def test_the_generators_reach_both_outcomes():
    """A guard on the generators themselves: grown statements mostly parse
    and soups mostly do not, so no test above compares one kind of outcome."""
    seen = {"statements": Counter(), "soups": Counter()}

    @settings(max_examples=60, database=None, derandomize=True)
    @given(statements(), soups)
    def tally(statement, soup):
        shape, tokens = statement
        seen["statements"][outcome(new.parse_query, " ".join(tokens), CATALOGS[shape])[0]] += 1
        seen["soups"][outcome(new.parse_query, "SELECT " + soup, CATALOGS["chain"])[0]] += 1

    tally()
    assert seen["statements"]["ok"] >= 20, seen
    assert seen["soups"][ParseError] >= 20, seen
    # The reference is the oracle for *shallow* inputs only, and shallow is
    # all the generators grow (grammar depth 2, soups of 14 tokens).  Past
    # the interpreter's stack it has no answer, where the front end has a
    # typed one (pinned in tests/test_sql_parse_positions.py).
    deep = "SELECT R0.ID FROM R0 WHERE " + "(" * 500 + "R0.ID = 1" + ")" * 500
    with pytest.raises(RecursionError):
        old.parse_query(deep, CATALOGS["chain"])
    assert outcome(new.parse_query, deep, CATALOGS["chain"])[0] is ParseError


@pytest.mark.parametrize("text", [
    "", " ", "\n", "SELECT", "SELECT * FROM R0", "select * from R0 where (R0.VAL + 1) > 3",
    "SELECT R0.ID FROM R0 WHERE ((R0.VAL)) = 1", "SELECT R0.ID FROM R0 WHERE (R0.VAL + 1 > 2",
    "SELECT R0.ID FROM R0 WHERE R0.TAG = 'a\nb' AND\n ?", "SELECT R0.ID FROM R0 WHERE 'a\nb' = \n",
    "SELECT NOPE FROM R0 WHERE ?", "SELECT R0.ID FROM R0, R0", "SELECT R9.ID FROM R0",
    "SELECT R0.ID FROM R0 trailing", "SELECT -(-7), - - 7, -R0.ID x FROM R0",
    "\u0663 + \u0663.\u0665", "7. + .5", "R0.VAL BETWEEN 1 AND 2 AND R0.ID = 3", "NOT NOT R0.ID = 1",
])
def test_pinned_inputs(text):
    assert_same(text)
    assert_same(text, "star")
