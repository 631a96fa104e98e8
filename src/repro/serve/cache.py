"""The plan-template cache: one guarded plan per parameterized shape.

Millions of users mostly issue the *same* query shapes with different
constants.  The cache keys on the canonicalized template
(:func:`repro.query.template.template_key` — tables sorted, predicate
shapes with literals abstracted), so ``R0.VAL < 5`` and ``R0.VAL < 9``
share an entry, and guards every reuse twice:

* **selectivity band** — each entry remembers a cheap catalog-statistics
  estimate of the cached query's result cardinality (its *band center*);
  an incoming query whose own estimate falls outside
  ``band_factor`` of that center was optimized for a different part of
  the parameter space and misses (``band_misses``), forcing a fresh
  optimization that becomes the entry for its own band.
* **drift circuit breaker** — when the attached
  :class:`~repro.robust.feedback.FeedbackCache` holds a runtime
  observation for the exact query an entry was optimized for, every
  lookup compares it against the entry's optimizer estimate.  Q-error
  beyond ``drift_threshold`` counts a failure; ``breaker_threshold``
  *consecutive* failures trip the breaker (``breaker_trips``), the entry
  stops serving fresh hits, and the next request re-optimizes — with the
  feedback observations now steering the estimates — and replaces the
  entry, closing the breaker.

Tripped or banded-out entries are retained: under overload the service
may *knowingly* serve them as the labeled ``stale`` degradation tier
(:meth:`PlanTemplateCache.lookup_stale`) instead of failing.

Capacity is LRU-bounded (``capacity=0`` disables caching entirely — the
cold-path baseline of experiment E15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.cost.selectivity import Selectivity
from repro.obs.analyze import q_error
from repro.obs.metrics import stats_snapshot
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
from repro.query.template import (
    PlanKey,
    TemplateKey,
    query_key,
    query_template,
)

#: Guard against zero cardinality estimates in band ratios.
_MIN_CARD = 1e-9


@dataclass
class TemplateCacheStats:
    """Instrumentation counters (shared metrics-snapshot schema)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    band_misses: int = 0
    stale_hits: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    drift_checks: int = 0
    drift_failures: int = 0
    breaker_trips: int = 0

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return stats_snapshot(self, extras={"hit_rate": self.hit_rate()})


@dataclass
class TemplateEntry:
    """One cached plan and the guards protecting its reuse."""

    key: TemplateKey
    plan: PlanNode
    best_cost: float
    #: The optimizer's cardinality estimate for the query that built the
    #: entry — what runtime observations are compared against for drift.
    estimated_card: float
    #: Cheap catalog-statistics estimate for the same query — the center
    #: of the selectivity band incoming queries must fall into.
    band_center: float
    #: The exact equivalence-class key of the optimized query; the drift
    #: check looks this up in the feedback cache.
    exact_key: PlanKey
    #: Degradation tier that produced the plan (``full`` / ``anytime``).
    tier: str = "full"
    hits: int = 0
    #: Consecutive drift failures; resets on any in-threshold check.
    drift_failures: int = 0
    #: Circuit breaker: True = tripped, entry serves only stale reads.
    open: bool = False
    #: Q-error of the most recent drift check (None before the first) —
    #: surfaced on responses and in flight-recorder records.
    last_q: float | None = None


class PlanTemplateCache:
    """LRU cache of optimized plans keyed on canonical query templates."""

    def __init__(
        self,
        catalog: Catalog,
        capacity: int = 256,
        band_factor: float = 4.0,
        drift_threshold: float = 10.0,
        breaker_threshold: int = 3,
        feedback=None,
        tracer=None,
        metrics=None,
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if band_factor < 1.0:
            raise ValueError(f"band_factor must be >= 1.0, got {band_factor}")
        if drift_threshold < 1.0:
            raise ValueError(
                f"drift_threshold must be >= 1.0, got {drift_threshold}"
            )
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.capacity = capacity
        self.band_factor = band_factor
        self.drift_threshold = drift_threshold
        self.breaker_threshold = breaker_threshold
        self.feedback = feedback
        self.tracer = tracer
        self.stats = TemplateCacheStats()
        if metrics is not None:
            metrics.register(
                "serve.cache.", self.stats.as_dict, gauges=("hit_rate",)
            )
        self._entries: dict[TemplateKey, TemplateEntry] = {}
        #: Raw-statistics estimator for band centers — deliberately *not*
        #: feedback-adjusted, so centers stay comparable over time.
        self._selectivity = Selectivity(catalog)
        self._catalog = catalog

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # -- estimates -----------------------------------------------------------

    def estimate_card(self, query: QueryBlock) -> float:
        """Cheap result-cardinality estimate: base cards × joint selectivity.

        No optimization, no feedback — O(tables + predicates) over raw
        catalog statistics.  Used only for band comparisons, where being
        *consistently* crude matters more than being right.
        """
        card = 1.0
        for table in query.table_set:
            card *= max(1.0, self._catalog.table_stats(table).card)
        return max(
            _MIN_CARD,
            card * self._selectivity.conjunct_set(query.predicates),
        )

    # -- lookup paths --------------------------------------------------------

    def lookup(self, query: QueryBlock) -> TemplateEntry | None:
        """A fresh, in-band, non-drifted entry for ``query`` — or None.

        Counts a miss (and the reason) when the template is absent, the
        incoming parameters fall outside the entry's selectivity band, or
        the drift breaker is (or just tripped) open.
        """
        if not self.enabled:
            return None
        self.stats.lookups += 1
        key = query_template(query)
        entry = self._entries.get(key)
        if entry is None:
            return self._miss("cold")
        self._touch(entry)
        if self._drifted(entry):
            return self._miss("breaker_open")
        incoming = self.estimate_card(query)
        center = max(_MIN_CARD, entry.band_center)
        ratio = max(incoming / center, center / incoming)
        if ratio > self.band_factor:
            self.stats.band_misses += 1
            return self._miss("band")
        entry.hits += 1
        self.stats.hits += 1
        if self.tracer is not None:
            self.tracer.instant("serve", "cache_hit", hits=entry.hits)
        return entry

    def lookup_stale(self, query: QueryBlock) -> TemplateEntry | None:
        """Any entry for the template, band and breaker ignored.

        The overload degradation path: a stale plan is still a runnable
        plan, and serving it beats shedding the request.  Counted
        separately (``stale_hits``) so reports stay honest.
        """
        if not self.enabled:
            return None
        entry = self._entries.get(query_template(query))
        if entry is None:
            return None
        self._touch(entry)
        self.stats.stale_hits += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve", "cache_stale",
                open=entry.open, drift_failures=entry.drift_failures,
            )
        return entry

    # -- writes --------------------------------------------------------------

    def insert(self, query: QueryBlock, plan: PlanNode, best_cost: float,
               tier: str = "full") -> TemplateEntry | None:
        """Cache ``plan`` as the template entry for ``query``.

        Replacing an existing entry resets its drift breaker — a freshly
        re-optimized plan has earned a closed breaker.
        """
        if not self.enabled:
            return None
        key = query_template(query)
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.stats.evictions += 1
        entry = TemplateEntry(
            key=key,
            plan=plan,
            best_cost=best_cost,
            estimated_card=max(_MIN_CARD, plan.props.card),
            band_center=self.estimate_card(query),
            exact_key=query_key(query),
            tier=tier,
        )
        self._entries[key] = entry
        self.stats.inserts += 1
        return entry

    def invalidate(self, query: QueryBlock) -> bool:
        """Drop the entry for ``query``'s template, if any."""
        key = query_template(query)
        if key not in self._entries:
            return False
        del self._entries[key]
        self.stats.invalidations += 1
        return True

    # -- persistence ---------------------------------------------------------

    def entries(self) -> list[TemplateEntry]:
        """Entries in LRU order, oldest first — the snapshot payload."""
        return list(self._entries.values())

    def restore(self, entries) -> int:
        """Adopt snapshot entries (oldest first), respecting capacity.

        A restore is warm-up, not traffic: the stats counters stay
        untouched, so a restarted service's hit rate measures only what
        happens after the restart.  Entries beyond capacity evict LRU
        exactly as live inserts would.
        """
        if not self.enabled:
            return 0
        count = 0
        for entry in entries:
            if entry.key in self._entries:
                del self._entries[entry.key]
            elif len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[entry.key] = entry
            count += 1
        return count

    # -- internals -----------------------------------------------------------

    def _touch(self, entry: TemplateEntry) -> None:
        del self._entries[entry.key]
        self._entries[entry.key] = entry

    def _miss(self, reason: str) -> None:
        self.stats.misses += 1
        if self.tracer is not None:
            self.tracer.instant("serve", "cache_miss", reason=reason)
        return None

    def _drifted(self, entry: TemplateEntry) -> bool:
        """Run the drift check; True when the breaker is (now) open."""
        if entry.open:
            return True
        if self.feedback is None:
            return False
        observed = self.feedback.peek(*entry.exact_key)
        if observed is None:
            return False
        self.stats.drift_checks += 1
        q = q_error(entry.estimated_card, observed)
        entry.last_q = q
        if q <= self.drift_threshold:
            entry.drift_failures = 0
            return False
        entry.drift_failures += 1
        self.stats.drift_failures += 1
        if entry.drift_failures < self.breaker_threshold:
            return False
        entry.open = True
        self.stats.breaker_trips += 1
        self.stats.invalidations += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve", "breaker_trip",
                tables=",".join(sorted(entry.exact_key[0])),
                q=round(q, 2),
                estimated=round(entry.estimated_card, 1),
                observed=float(observed),
            )
        return True
