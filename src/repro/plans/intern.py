"""Hash-consed plan interning.

Alternative plans "may incorporate the same plan fragment" (section
2.3), and the bottom-up enumeration builds the same subtree through many
enclosing alternatives.  Without interning, each construction produces a
fresh :class:`~repro.plans.plan.PlanNode` object: structurally equal but
distinct, so every DAG walk (``nodes()``, site footprints, execution)
revisits what is logically one fragment, and every equality check falls
through to digest comparison.

:class:`PlanInterner` dedupes nodes by structural digest as they leave
the :class:`~repro.cost.propfuncs.PlanFactory`: the first construction
of a shape wins and every later structurally-identical construction
returns the *same object*.  Plans built from interned children therefore
share subtrees physically, equality short-circuits on identity, and the
per-unique-subtree digest is computed exactly once.  One interner lives
for one optimization (it is part of the engine's per-query state), so
interned plans never leak property vectors across catalogs or feedback
epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import stats_snapshot
from repro.plans.plan import PlanNode, _params_bytes


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
    """Digest-keyed hash-consing table for plan nodes."""

    __slots__ = ("_by_digest", "_chunks", "stats")

    def __init__(self) -> None:
        self._by_digest: dict[str, PlanNode] = {}
        #: Digest bytes per distinct parameter tuple: the alternatives of
        #: a class differ in inputs far more often than in parameters.
        self._chunks: dict[tuple, bytes] = {}
        self.stats = InternStats()

    def _chunk_of(self, params: tuple) -> bytes:
        chunk = self._chunks.get(params)
        if chunk is None:
            chunk = self._chunks[params] = _params_bytes(params)
        return chunk

    def intern(self, node: PlanNode) -> PlanNode:
        """The canonical node for ``node``'s structure.

        Returns the previously interned object when one exists (a *hit*:
        the new construction is discarded), otherwise registers ``node``
        as the canonical representative.
        """
        self.stats.requests += 1
        digest = node._digest or node._compute_digest(
            self._chunk_of(node.params)
        )
        existing = self._by_digest.get(digest)
        if existing is not None:
            self.stats.hits += 1
            return existing
        self._by_digest[digest] = node
        self.stats.unique += 1
        return node

    def get(self, digest: str) -> PlanNode | None:
        return self._by_digest.get(digest)

    def __len__(self) -> int:
        return len(self._by_digest)
