"""Predicate AST and the predicate *classification* functions of the paper.

Section 4.4 of the paper defines, for a join of table sets ``T1`` (outer)
and ``T2`` (inner) with eligible predicates ``P``:

``JP``
    join predicates: multi-table, no ORs or subqueries, but expressions OK.
``SP``
    sortable predicates: ``p in JP`` of form ``col1 op col2`` where
    ``col1`` belongs to ``T1`` and ``col2`` to ``T2`` (or vice versa).
``IP``
    predicates eligible on the inner only: ``columns(p) subseteq columns(T2)``.

Section 4.5 adds:

``HP``
    hashable predicates: ``p in JP`` of form
    ``expr(columns(T1)) = expr(columns(T2))``.
``XP``
    indexable multi-table predicates: ``p in JP`` of form
    ``expr(columns(T1)) op T2.col``.

These classifiers are exposed both as plain functions here and as registry
functions usable from STAR rule text (see ``repro.stars.registry``).

A note on ``SP``: the paper writes ``col1 op col2`` without restricting
``op``; our merge-join runtime implements equality merge (as System R and
R* did), so the default classification restricts ``SP`` to equality.  Pass
``equality_only=False`` to get the paper's literal definition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import QueryError
from repro.query.expressions import ColumnRef, Expr, Literal, RowContext

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

_OP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_OP_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True, slots=True)
class Predicate:
    """Base class of all predicates."""

    def columns(self) -> frozenset[ColumnRef]:
        return frozenset(self._iter_columns())

    def tables(self) -> frozenset[str]:
        return frozenset(ref.table for ref in self._iter_columns())

    def _iter_columns(self) -> Iterator[ColumnRef]:
        return iter(())

    def evaluate(self, ctx: RowContext) -> bool:
        raise NotImplementedError

    def conjuncts(self) -> tuple["Predicate", ...]:
        """Flatten top-level ANDs into a tuple of conjunct predicates."""
        return (self,)


@dataclass(frozen=True, slots=True)
class Comparison(Predicate):
    """A binary comparison ``left op right``.

    ``tables()``, ``str()`` and ``hash()`` are asked of the same few
    predicates thousands of times per optimization, so each is computed
    once and kept on the (immutable) instance.  The caches are not part
    of the value: never compared, never pickled — the hash of a string is
    salted per process.
    """

    op: str
    left: Expr
    right: Expr
    _tables: frozenset[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _str: str | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in _OP_FUNCS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def _iter_columns(self) -> Iterator[ColumnRef]:
        yield from self.left._iter_columns()
        yield from self.right._iter_columns()

    def tables(self) -> frozenset[str]:
        cached = self._tables
        if cached is None:
            cached = frozenset(ref.table for ref in self._iter_columns())
            object.__setattr__(self, "_tables", cached)
        return cached

    def evaluate(self, ctx: RowContext) -> bool:
        left = self.left.evaluate(ctx)
        right = self.right.evaluate(ctx)
        if left is None or right is None:
            return False
        return _OP_FUNCS[self.op](left, right)

    def flipped(self) -> "Comparison":
        """The same predicate with sides exchanged (``a < b`` -> ``b > a``)."""
        return Comparison(_OP_FLIP[self.op], self.right, self.left)

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            cached = f"{self.left} {self.op} {self.right}"
            object.__setattr__(self, "_str", cached)
        return cached

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.op, self.left, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self) -> tuple:
        # Only the value travels; the caches are rebuilt where it lands.
        return type(self), (self.op, self.left, self.right)


@dataclass(frozen=True, slots=True)
class Conjunction(Predicate):
    """``AND`` of two or more predicates."""

    parts: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise QueryError("a conjunction needs at least two parts")

    def _iter_columns(self) -> Iterator[ColumnRef]:
        for part in self.parts:
            yield from part._iter_columns()

    def evaluate(self, ctx: RowContext) -> bool:
        return all(part.evaluate(ctx) for part in self.parts)

    def conjuncts(self) -> tuple[Predicate, ...]:
        flat: list[Predicate] = []
        for part in self.parts:
            flat.extend(part.conjuncts())
        return tuple(flat)

    def __str__(self) -> str:
        return " AND ".join(
            f"({p})" if isinstance(p, Disjunction) else str(p) for p in self.parts
        )


@dataclass(frozen=True, slots=True)
class Disjunction(Predicate):
    """``OR`` of two or more predicates.

    Disjunctions are *not* join predicates per the paper's JP definition;
    they are always applied as residual filters.
    """

    parts: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise QueryError("a disjunction needs at least two parts")

    def _iter_columns(self) -> Iterator[ColumnRef]:
        for part in self.parts:
            yield from part._iter_columns()

    def evaluate(self, ctx: RowContext) -> bool:
        return any(part.evaluate(ctx) for part in self.parts)

    def __str__(self) -> str:
        return " OR ".join(str(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Negation(Predicate):
    """``NOT`` of a predicate."""

    part: Predicate

    def _iter_columns(self) -> Iterator[ColumnRef]:
        yield from self.part._iter_columns()

    def evaluate(self, ctx: RowContext) -> bool:
        return not self.part.evaluate(ctx)

    def __str__(self) -> str:
        return f"NOT ({self.part})"


# ---------------------------------------------------------------------------
# Classification (paper sections 4.4 and 4.5)
# ---------------------------------------------------------------------------


def _side_tables(expr: Expr) -> frozenset[str]:
    return expr.tables()


def join_predicates(preds: Iterable[Predicate]) -> frozenset[Predicate]:
    """``JP``: multi-table comparisons (no ORs; expressions OK)."""
    return frozenset(
        p
        for p in preds
        if isinstance(p, Comparison) and len(p.tables()) >= 2
    )


def sortable_predicates(
    preds: Iterable[Predicate],
    outer_tables: frozenset[str] | set[str],
    inner_tables: frozenset[str] | set[str],
    equality_only: bool = True,
) -> frozenset[Predicate]:
    """``SP``: join predicates of form ``col1 op col2`` across the two sides."""
    outer = frozenset(outer_tables)
    inner = frozenset(inner_tables)
    result = []
    for p in join_predicates(preds):
        assert isinstance(p, Comparison)
        if equality_only and p.op != "=":
            continue
        if not (isinstance(p.left, ColumnRef) and isinstance(p.right, ColumnRef)):
            continue
        left_t, right_t = p.left.table, p.right.table
        spans = (left_t in outer and right_t in inner) or (
            left_t in inner and right_t in outer
        )
        if spans:
            result.append(p)
    return frozenset(result)


def hashable_predicates(
    preds: Iterable[Predicate],
    outer_tables: frozenset[str] | set[str],
    inner_tables: frozenset[str] | set[str],
) -> frozenset[Predicate]:
    """``HP``: equality join predicates whose sides each touch one side only."""
    outer = frozenset(outer_tables)
    inner = frozenset(inner_tables)
    result = []
    for p in join_predicates(preds):
        assert isinstance(p, Comparison)
        if p.op != "=":
            continue
        lt, rt = _side_tables(p.left), _side_tables(p.right)
        if not lt or not rt:
            continue
        if (lt <= outer and rt <= inner) or (lt <= inner and rt <= outer):
            result.append(p)
    return frozenset(result)


def indexable_predicates(
    preds: Iterable[Predicate],
    outer_tables: frozenset[str] | set[str],
    inner_tables: frozenset[str] | set[str],
) -> frozenset[Predicate]:
    """``XP``: join predicates of form ``expr(outer cols) op inner.col``.

    The bare-column side must be a single column of the inner; the other
    side may be any expression over outer columns only.
    """
    outer = frozenset(outer_tables)
    inner = frozenset(inner_tables)
    result = []
    for p in join_predicates(preds):
        assert isinstance(p, Comparison)
        for bare, expr_side in ((p.right, p.left), (p.left, p.right)):
            if not isinstance(bare, ColumnRef) or bare.table not in inner:
                continue
            expr_tables = _side_tables(expr_side)
            if expr_tables and expr_tables <= outer:
                result.append(p)
                break
    return frozenset(result)


def inner_only_predicates(
    preds: Iterable[Predicate],
    inner_tables: frozenset[str] | set[str],
) -> frozenset[Predicate]:
    """``IP``: predicates whose columns all belong to the inner table set."""
    inner = frozenset(inner_tables)
    return frozenset(p for p in preds if p.tables() and p.tables() <= inner)


@dataclass(frozen=True, slots=True)
class PredicateClasses:
    """All of the paper's predicate classes for one (outer, inner) pair."""

    eligible: frozenset[Predicate]
    join: frozenset[Predicate] = field(default_factory=frozenset)
    sortable: frozenset[Predicate] = field(default_factory=frozenset)
    hashable: frozenset[Predicate] = field(default_factory=frozenset)
    indexable: frozenset[Predicate] = field(default_factory=frozenset)
    inner_only: frozenset[Predicate] = field(default_factory=frozenset)


def classify_predicates(
    preds: Iterable[Predicate],
    outer_tables: frozenset[str] | set[str],
    inner_tables: frozenset[str] | set[str],
    equality_only_sort: bool = True,
) -> PredicateClasses:
    """Classify ``preds`` into the paper's JP / SP / HP / XP / IP classes."""
    preds = frozenset(preds)
    return PredicateClasses(
        eligible=preds,
        join=join_predicates(preds),
        sortable=sortable_predicates(
            preds, outer_tables, inner_tables, equality_only=equality_only_sort
        ),
        hashable=hashable_predicates(preds, outer_tables, inner_tables),
        indexable=indexable_predicates(preds, outer_tables, inner_tables),
        inner_only=inner_only_predicates(preds, inner_tables),
    )


# ---------------------------------------------------------------------------
# Sargability: can an access method apply this predicate?
# ---------------------------------------------------------------------------


def sargable_column(
    pred: Predicate,
    table: str,
    bound_tables: frozenset[str] = frozenset(),
) -> tuple[ColumnRef, str, Expr] | None:
    """If ``pred`` can be applied as a search argument on ``table``, return
    ``(column, op, value_expr)`` with the column on the left.

    A predicate is sargable for ``table`` when it is a comparison with one
    side a bare column of ``table`` and the other side an expression whose
    columns (if any) all belong to ``bound_tables`` — tables whose values
    are instantiated by an enclosing nested-loop join (sideways
    information passing).
    """
    if not isinstance(pred, Comparison):
        return None
    for column_side, value_side, op in (
        (pred.left, pred.right, pred.op),
        (pred.right, pred.left, _OP_FLIP[pred.op]),
    ):
        if not isinstance(column_side, ColumnRef) or column_side.table != table:
            continue
        value_tables = value_side.tables()
        if value_tables <= bound_tables and table not in value_tables:
            return (column_side, op, value_side)
    return None


def conjunction_of(preds: Iterable[Predicate]) -> Predicate | None:
    """Combine predicates into a single conjunction (None if empty)."""
    parts = tuple(preds)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return Conjunction(parts)


def equals_value(table: str, column: str, value: Any) -> Comparison:
    """Convenience constructor for ``table.column = value``."""
    return Comparison("=", ColumnRef(table, column), Literal(value))
