"""The hashed plan table.

Section 4.4: "In Starburst, a data structure hashed on the tables and
predicates facilitates finding all such plans, if they exist."  Keys are
``(frozenset of tables, frozenset of applied predicates)`` — the shared
:func:`~repro.query.template.canonical_key`, so the plan table, the
feedback cache and the serving layer never diverge on what an
equivalence class is; values are the surviving (non-dominated)
alternative plans for that relational equivalence class.

The table is instrumented for experiment E9 ("alternative plans may
incorporate the same plan fragment, whose alternatives need be evaluated
only once"): every lookup, hit, miss, and insertion is counted, and
:meth:`expansions_for` reports how often each equivalence class was
*built* versus *reused*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cost.model import CostModel
from repro.obs.metrics import stats_snapshot
from repro.plans.plan import PlanNode
from repro.plans.sap import SAP, JoinCandidate, merge_pruned
from repro.query.predicates import Predicate
from repro.query.template import PlanKey, canonical_key


@dataclass
class PlanTableStats:
    """Instrumentation counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    plans_inserted: int = 0
    plans_pruned: int = 0

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Serialize through the shared metrics-snapshot path."""
        return stats_snapshot(self, extras={"hit_rate": self.hit_rate()})


class PlanTable:
    """Alternative plans per (TABLES, PREDS) equivalence class."""

    def __init__(self, model: CostModel, prune: bool = True,
                 interesting: frozenset | None = None,
                 site_diversity: bool = False):
        self._model = model
        self._prune = prune
        self._interesting = interesting
        self._site_diversity = site_diversity
        self._entries: dict[PlanKey, SAP] = {}
        self._build_counts: dict[PlanKey, int] = {}
        self.stats = PlanTableStats()
        #: Structured-event tracer (installed by StarEngine; None = off).
        self.tracer = None
        #: Optional OptimizerBudget (installed by StarEngine; None = off):
        #: every plan entering an equivalence class is charged against it.
        self.budget = None

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, tables: Iterable[str], preds: Iterable[Predicate]
    ) -> SAP | None:
        key = canonical_key(tables, preds)
        self.stats.lookups += 1
        sap = self._entries.get(key)
        if self.tracer is not None:
            self.tracer.instant(
                "plantable", "probe",
                tables=",".join(sorted(key[0])),
                preds=len(key[1]),
                hit=sap is not None,
            )
        if sap is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return sap

    def insert(
        self,
        tables: Iterable[str],
        preds: Iterable[Predicate],
        plans: Iterable[PlanNode | JoinCandidate],
    ) -> SAP:
        """Merge plans into an equivalence class, pruning dominated ones.
        Returns the surviving SAP for the class.

        ``plans`` may hold join candidates (a SAP's ``members``): they are
        judged on their dominance record, and only the survivors are built
        — a class holds plans."""
        key = canonical_key(tables, preds)
        existing = self._entries.get(key, SAP())
        incoming = SAP(plans)
        if self.budget is not None:
            self.budget.charge_plans(len(incoming))
        # What the union would hold: the class plus the plans new to it.
        before = len(existing) + len(incoming)
        if existing and incoming:
            before -= len(set(existing.members).intersection(incoming.members))
        if self._prune:
            # The stored SAP is non-dominated by construction, so the
            # merge only has to judge the new plans against the class —
            # O(new × total) instead of re-pruning the union from scratch.
            merged = merge_pruned(
                existing, incoming, self._model, self._interesting,
                site_diversity=self._site_diversity,
            )
        else:
            merged = existing.union(incoming)
        merged = SAP(merged.plans)
        self.stats.inserts += 1
        self.stats.plans_inserted += before
        self.stats.plans_pruned += before - len(merged)
        self._entries[key] = merged
        self._build_counts[key] = self._build_counts.get(key, 0) + 1
        if self.tracer is not None:
            self.tracer.instant(
                "plantable", "insert",
                tables=",".join(sorted(key[0])),
                inserted=before,
                pruned=before - len(merged),
                surviving=len(merged),
            )
        return merged

    def keys(self) -> tuple[PlanKey, ...]:
        return tuple(self._entries)

    def all_plans(self) -> tuple[PlanNode, ...]:
        plans: list[PlanNode] = []
        for sap in self._entries.values():
            plans.extend(sap)
        return tuple(plans)

    def expansions_for(self, tables: Iterable[str]) -> int:
        """How many times classes over exactly these tables were built
        (E9: should be 1 per class when memoization works)."""
        wanted = frozenset(tables)
        return sum(
            count for (tbls, _), count in self._build_counts.items() if tbls == wanted
        )

    def build_counts(self) -> dict[PlanKey, int]:
        return dict(self._build_counts)
