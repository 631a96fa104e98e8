"""Table and column statistics for cardinality and cost estimation.

The shapes follow System R [SELI 79] and the validated R* cost model
[MACK 86]: per-table cardinality and page counts, per-column distinct
counts and value ranges.  Statistics can be declared (synthetic workloads)
or collected from stored data (``collect_column_stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence


@dataclass(frozen=True, slots=True)
class ColumnStats:
    """Statistics for one column."""

    n_distinct: float = 10.0
    low: Any = None
    high: Any = None
    null_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_distinct < 1:
            object.__setattr__(self, "n_distinct", 1.0)

    def value_fraction(self, value: Any) -> float:
        """Estimated fraction of rows equal to ``value`` (1/n_distinct)."""
        return 1.0 / self.n_distinct

    def range_fraction(self, op: str, value: Any) -> float | None:
        """Estimated fraction of rows satisfying ``col op value``.

        Uses linear interpolation over [low, high] when the range is known
        and numeric; returns None otherwise (caller falls back to the
        System R default of 1/3).
        """
        if self.low is None or self.high is None:
            return None
        if not isinstance(self.low, (int, float)) or not isinstance(value, (int, float)):
            return None
        span = float(self.high) - float(self.low)
        if span <= 0:
            return None
        if op in ("<", "<="):
            frac = (float(value) - float(self.low)) / span
        elif op in (">", ">="):
            frac = (float(self.high) - float(value)) / span
        else:
            return None
        return min(max(frac, 0.0), 1.0)


@dataclass(frozen=True, slots=True)
class TableStats:
    """Statistics for one stored table."""

    card: float = 1000.0
    pages: float | None = None

    def page_count(self, row_width: int, page_size: int) -> float:
        """Pages occupied, derived from row width if not declared."""
        if self.pages is not None:
            return self.pages
        rows_per_page = max(1, page_size // max(1, row_width))
        return max(1.0, self.card / rows_per_page)

    def with_card(self, card: float) -> "TableStats":
        return replace(self, card=card, pages=None)


def collect_column_stats(values: Sequence[Any]) -> ColumnStats:
    """Compute :class:`ColumnStats` from one column's actual values.
    ``low`` / ``high`` are the first minimum / maximum in ``values``
    order (``1`` and ``1.0`` tie)."""
    nulls = values.count(None)
    null_fraction = nulls / len(values) if values else 0.0
    present = [v for v in values if v is not None] if nulls else values
    if not present:
        return ColumnStats(n_distinct=1.0, null_fraction=null_fraction)
    return ColumnStats(
        n_distinct=float(len(set(present))),
        low=min(present),
        high=max(present),
        null_fraction=null_fraction,
    )
