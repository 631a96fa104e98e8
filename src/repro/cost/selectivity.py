"""System-R-style selectivity estimation [SELI 79].

The estimator is deliberately simple — the paper takes the cost equations
as "well established and validated [MACK 86]" and builds rules on top.
What matters for the experiments is that estimates *order* plans sensibly
(experiment E8 measures exactly that).

Rules (per conjunct):

* ``col = literal``        → 1 / n_distinct(col)
* ``col = col'``           → 1 / max(n_distinct(col), n_distinct(col'))
* ``col op literal`` range → interpolation over [low, high], else 1/3
* ``col <> literal``       → 1 - 1/n_distinct(col)
* anything else            → 1/10 (the System R default)
* conjunction              → product (independence assumption)
* disjunction              → s1 + s2 - s1*s2
* negation                 → 1 - s

A predicate whose non-column side references only *bound* tables (outer
tables instantiated by a nested-loop join — sideways information passing)
is treated as a single-table predicate with a constant right-hand side.
"""

from __future__ import annotations

from typing import Iterable

from repro.catalog.catalog import Catalog
from repro.errors import CatalogError
from repro.query.expressions import ColumnRef, Literal
from repro.query.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
)

DEFAULT_EQ = 0.1
DEFAULT_RANGE = 1.0 / 3.0
DEFAULT_OTHER = 0.1
MIN_SELECTIVITY = 1e-6


class Selectivity:
    """Selectivity estimator bound to a catalog.

    ``feedback`` (a :class:`~repro.robust.feedback.FeedbackCache`, or
    None) lets runtime observations override the System-R estimate for
    an exact (TABLES, PREDS) equivalence class via :meth:`adjusted_card`
    — the optimizer-side half of the adaptive feedback loop.
    """

    def __init__(self, catalog: Catalog, feedback=None):
        self._catalog = catalog
        self.feedback = feedback

    def adjusted_card(
        self,
        tables: Iterable[str],
        preds: Iterable[Predicate],
        estimated: float,
    ) -> float:
        """``estimated`` corrected by a runtime observation, if any."""
        if self.feedback is None:
            return estimated
        return self.feedback.adjust(tables, preds, estimated)

    def _n_distinct(self, column: ColumnRef) -> float | None:
        if not self._catalog.has_table(column.table):
            return None
        if column.column.startswith("#"):
            return None
        try:
            return self._catalog.column_stats(column.table, column.column).n_distinct
        except CatalogError:
            return None

    def predicate(
        self,
        pred: Predicate,
        bound_tables: frozenset[str] = frozenset(),
    ) -> float:
        """Estimated fraction of rows satisfying ``pred``.

        ``bound_tables`` are tables whose columns are instantiated by an
        enclosing nested-loop join; columns of those tables behave like
        constants.
        """
        sel = self._estimate(pred, bound_tables)
        return max(MIN_SELECTIVITY, min(1.0, sel))

    def conjunct_set(
        self,
        preds: Iterable[Predicate],
        bound_tables: frozenset[str] = frozenset(),
    ) -> float:
        """Joint selectivity of a conjunctive predicate set (independence)."""
        sel = 1.0
        for pred in preds:
            sel *= self.predicate(pred, bound_tables)
        return max(MIN_SELECTIVITY, sel)

    # -- internals -------------------------------------------------------------

    def _estimate(self, pred: Predicate, bound: frozenset[str]) -> float:
        if isinstance(pred, Conjunction):
            sel = 1.0
            for part in pred.parts:
                sel *= self._estimate(part, bound)
            return sel
        if isinstance(pred, Disjunction):
            sel = 0.0
            for part in pred.parts:
                part_sel = self._estimate(part, bound)
                sel = sel + part_sel - sel * part_sel
            return sel
        if isinstance(pred, Negation):
            return 1.0 - self._estimate(pred.part, bound)
        if isinstance(pred, Comparison):
            return self._comparison(pred, bound)
        return DEFAULT_OTHER

    def _comparison(self, pred: Comparison, bound: frozenset[str]) -> float:
        left_free = pred.left.tables() - bound
        right_free = pred.right.tables() - bound

        # Column-to-column across two free sides: equi-join selectivity.
        if (
            isinstance(pred.left, ColumnRef)
            and isinstance(pred.right, ColumnRef)
            and left_free
            and right_free
        ):
            if pred.op == "=":
                nd_left = self._n_distinct(pred.left) or 10.0
                nd_right = self._n_distinct(pred.right) or 10.0
                return 1.0 / max(nd_left, nd_right)
            return DEFAULT_RANGE

        # One free bare column against a constant-like side.
        for column_side, value_side, op in (
            (pred.left, pred.right, pred.op),
            (pred.right, pred.left, pred.flipped().op),
        ):
            if not isinstance(column_side, ColumnRef):
                continue
            if column_side.table in bound:
                continue
            if value_side.tables() - bound:
                continue  # the other side still has free columns
            return self._column_vs_value(column_side, op, value_side, bound)

        return DEFAULT_OTHER

    def _column_vs_value(self, column, op, value_side, bound) -> float:
        nd = self._n_distinct(column)
        literal = value_side.value if isinstance(value_side, Literal) else None
        if op == "=":
            return 1.0 / nd if nd else DEFAULT_EQ
        if op == "<>":
            return 1.0 - (1.0 / nd if nd else DEFAULT_EQ)
        if op in ("<", "<=", ">", ">="):
            if literal is not None and self._catalog.has_table(column.table):
                try:
                    stats = self._catalog.column_stats(column.table, column.column)
                except CatalogError:
                    stats = None
                if stats is not None:
                    frac = stats.range_fraction(op, literal)
                    if frac is not None:
                        return frac
            return DEFAULT_RANGE
        return DEFAULT_OTHER
