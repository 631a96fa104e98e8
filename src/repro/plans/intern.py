"""Hash-consed plan interning.

Alternative plans "may incorporate the same plan fragment" (section
2.3), and the bottom-up enumeration builds the same subtree through many
enclosing alternatives.  Without interning, each construction produces a
fresh :class:`~repro.plans.plan.PlanNode` object: structurally equal but
distinct, so every DAG walk (``nodes()``, site footprints, execution)
revisits what is logically one fragment, and every equality check falls
through to digest comparison.

:class:`PlanInterner` keys a node on what a LOLEPOP application *is*:
``(op, flavor, params, inputs)`` — the node minus what pricing finds.  The
inputs left the same interner, so each structure has one object and
identity *is* structure: the key's input nodes hash by their cached
structural hash and compare by identity (two equal twins from two
interners still meet, through the digest fallback of ``PlanNode.__eq__``).
Every :class:`~repro.cost.propfuncs.PlanFactory` owns one, and every
LOLEPOP application it makes takes one path, ``PlanFactory._apply``:
because the key needs no node, :meth:`PlanInterner.find` is asked *before
pricing*; a hit returns the existing node and the property function never
runs; a miss is priced, built and registered through
:meth:`PlanInterner.intern`.  A JOIN miss is priced into a
:class:`~repro.plans.sap.JoinCandidate` that :meth:`PlanInterner.hold`
keeps under the same key, unbuilt, so a repeated application finds it;
it reaches :meth:`PlanInterner.intern` only if it is built, and the node
then takes its place.  One table holds both, so a lookup hashes its key
once.  Every hit is a :meth:`find` hit, and :meth:`intern` registers a
node nobody built before.  Nothing here computes a digest —
:attr:`PlanNode.digest` stays lazy and is paid only for nodes somebody
names.  One interner lives for one optimization (it is part of the
factory's per-query state), so interned plans never leak property vectors
across catalogs or feedback epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import stats_snapshot
from repro.plans.plan import PlanNode

if TYPE_CHECKING:
    from repro.plans.sap import JoinCandidate


@dataclass
class InternStats:
    """Instrumentation of one interner's lifetime."""

    requests: int = 0
    hits: int = 0
    unique: int = 0

    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, float]:
        """Serialize through the shared metrics-snapshot path."""
        return stats_snapshot(self, extras={"hit_rate": self.hit_rate()})


class PlanInterner:
    """Hash-consing table for plan nodes, keyed by their structure."""

    __slots__ = ("_entries", "stats")

    def __init__(self) -> None:
        #: Application key → its node, or its join candidate while that is
        #: priced and not built.  A candidate hashes and compares like its
        #: key, so it is its own dictionary key.
        self._entries: dict[tuple, PlanNode | JoinCandidate] = {}
        self.stats = InternStats()

    def find(self, key: tuple) -> PlanNode | JoinCandidate | None:
        """The node already built for the application ``key = (op, flavor,
        params, inputs)`` — or, for a JOIN, the candidate already priced —
        if any.  A hit is one request and one hit, as interning the rebuilt
        twin would have counted; a miss counts nothing until the node is
        interned."""
        found = self._entries.get(key)
        if found is not None:
            self.stats.requests += 1
            self.stats.hits += 1
        return found

    def hold(self, candidate: JoinCandidate) -> None:
        """Remember a priced join so a repeated application finds it.
        Counts nothing: a candidate pruning discards never reaches
        :meth:`intern`."""
        self._entries[candidate] = candidate

    def intern(self, node: PlanNode) -> PlanNode:
        """The canonical node for ``node``'s structure.

        Returns the previously interned object when one exists (a *hit*:
        the new construction is discarded), otherwise registers ``node``
        as the canonical representative — in place of the held candidate
        it was built from, if any.
        """
        self.stats.requests += 1
        key = (node.op, node.flavor, node.params, node.inputs)
        existing = self._entries.setdefault(key, node)
        if existing is node:
            self.stats.unique += 1
        elif type(existing) is not PlanNode:
            self._entries[key] = node
            self.stats.unique += 1
            existing = node
        else:
            self.stats.hits += 1
        return existing

    def nodes(self) -> list[PlanNode]:
        """Every node interned so far (held candidates are not nodes)."""
        return [n for n in self._entries.values() if type(n) is PlanNode]

    def __len__(self) -> int:
        return len(self.nodes())
