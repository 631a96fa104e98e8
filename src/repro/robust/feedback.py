"""The runtime cardinality feedback cache.

Keys match the hashed plan table exactly — ``(frozenset of tables,
frozenset of applied predicates)``, built by the shared
:func:`repro.query.template.canonical_key` — so an observation recorded
at a materialization point of one execution lines up with the
equivalence class the next optimization builds for the same relational
content.  The selectivity estimator consults the cache through
:meth:`Selectivity.adjusted_card <repro.cost.selectivity.Selectivity>`;
a hit overrides the System-R estimate with the observed row count.

The cache is **bounded**: a long-running server process records
observations for every query it ever executes, and an unbounded dict is
a slow memory leak.  ``capacity`` caps the entry count with
least-recently-used eviction (recording and hitting both refresh
recency); evictions are counted and read by the registry as the
``feedback.evictions`` metric.
"""

from __future__ import annotations

from typing import Iterable

from repro.query.predicates import Predicate
from repro.query.template import PlanKey, canonical_key

#: Default entry cap — generous for one process, finite for a server.
DEFAULT_CAPACITY = 4096


class FeedbackCache:
    """Observed cardinalities keyed on (TABLES, PREDS), LRU-bounded.

    ``tracer`` (optional, None = zero overhead) records every record and
    corrected estimate; ``metrics`` registers the cache so the registry
    reads :meth:`as_dict` under ``feedback.`` when asked.  ``capacity``
    bounds the entry count (None = unbounded, for short-lived tooling
    only).
    """

    #: :meth:`as_dict` fields that are point-in-time values, not counts.
    GAUGES = ("entries", "capacity", "hit_rate")

    def __init__(self, tracer=None, metrics=None,
                 capacity: int | None = DEFAULT_CAPACITY):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be at least 1 (or None), got {capacity}")
        self._observed: dict[PlanKey, float] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.records = 0
        self.evictions = 0
        self.tracer = tracer
        if metrics is not None:
            metrics.register("feedback.", self.as_dict, gauges=self.GAUGES)

    def __len__(self) -> int:
        return len(self._observed)

    def __bool__(self) -> bool:  # an empty cache is still a cache
        return True

    def _touch(self, key: PlanKey, value: float) -> None:
        """Refresh ``key``'s recency (dicts preserve insertion order)."""
        del self._observed[key]
        self._observed[key] = value

    def record(
        self,
        tables: Iterable[str],
        preds: Iterable[Predicate],
        actual: float,
    ) -> None:
        """Store one observed cardinality (later observations win)."""
        key = canonical_key(tables, preds)
        if key in self._observed:
            del self._observed[key]
        elif self.capacity is not None and len(self._observed) >= self.capacity:
            oldest = next(iter(self._observed))
            del self._observed[oldest]
            self.evictions += 1
        self._observed[key] = float(actual)
        self.records += 1
        if self.tracer is not None:
            self.tracer.instant(
                "robust", "feedback_record",
                tables=",".join(sorted(key[0])),
                preds=len(key[1]),
                actual=float(actual),
            )

    def lookup(
        self, tables: Iterable[str], preds: Iterable[Predicate]
    ) -> float | None:
        """The observed cardinality for this equivalence class, or None."""
        key = canonical_key(tables, preds)
        value = self._observed.get(key)
        if value is None:
            self.misses += 1
            return None
        self._touch(key, value)
        self.hits += 1
        return value

    def peek(
        self, tables: Iterable[str], preds: Iterable[Predicate]
    ) -> float | None:
        """Like :meth:`lookup` but without touching counters or recency —
        for drift *checks* (the serving cache polls every request; a poll
        must not read as estimator traffic or pin the entry hot)."""
        return self._observed.get(canonical_key(tables, preds))

    def adjust(
        self,
        tables: Iterable[str],
        preds: Iterable[Predicate],
        estimated: float,
    ) -> float:
        """``estimated`` corrected by an observation when one exists."""
        observed = self.lookup(tables, preds)
        if observed is None:
            return estimated
        if self.tracer is not None:
            key = canonical_key(tables, preds)
            self.tracer.instant(
                "robust", "feedback_hit",
                tables=",".join(sorted(key[0])),
                estimated=round(float(estimated), 3),
                observed=observed,
            )
        return max(observed, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Flat metrics-schema summary."""
        total = self.hits + self.misses
        return {
            "entries": float(len(self._observed)),
            "capacity": float(self.capacity or 0),
            "records": float(self.records),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "hit_rate": self.hits / total if total else 0.0,
        }

    def entries(self) -> dict[PlanKey, float]:
        return dict(self._observed)

    def restore(self, observed: dict[PlanKey, float]) -> int:
        """Adopt snapshot observations (oldest first), respecting capacity.

        Counters are untouched — a restore is warm-up, not estimator
        traffic (the same contract as :meth:`peek`)."""
        count = 0
        for key, value in observed.items():
            if key in self._observed:
                del self._observed[key]
            elif (
                self.capacity is not None
                and len(self._observed) >= self.capacity
            ):
                oldest = next(iter(self._observed))
                del self._observed[oldest]
            self._observed[key] = float(value)
            count += 1
        return count
