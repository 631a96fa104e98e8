"""The per-optimization STAR expansion memo.

Section 2.3 argues that constructive STARs dispatch cheaply because "the
fanout of any reference of a STAR is limited to just those STARs
referenced in its definition" — but a bottom-up enumeration still
*references* the same STAR with the same arguments many times (every
enclosing alternative re-references the shared fragment, E9).  The memo
makes each distinct reference pay for expansion exactly once.

Keys are ``(star name, canonicalized arguments)`` where canonicalization
(:func:`repro.stars.engine._canonical`) reduces plans and SAPs to their
structural digests and streams to ``(tables, Requirements, pinned plan
digests)`` — so the Requirements accumulated on a stream argument are
part of the key, and two references that differ only in required
properties never alias.

The memo is engine-local state: one :class:`StarMemo` per optimization,
created and discarded with the :class:`~repro.stars.engine.StarEngine`.
It is deliberately *not* shared across re-optimizations — a
:class:`~repro.robust.feedback.FeedbackCache` observation recorded
between two optimizations of the same query changes property vectors,
and a cross-query memo would serve stale cardinalities.

Budget interaction: a memo hit is not an expansion.  The engine charges
:meth:`~repro.robust.budget.OptimizerBudget.charge_expansion` only on a
miss, so a tight budget meters *work*, not references.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:
    from repro.plans.sap import SAP


class StarMemo:
    """Expansion results keyed by (STAR name, canonicalized arguments).

    It counts nothing: the engine counts each lookup once, as
    ``ExpansionStats.memo_hits`` / ``memo_misses``."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[Hashable, "SAP"] = {}

    def get(self, key: Hashable) -> "SAP | None":
        return self._entries.get(key)

    def put(self, key: Hashable, sap: "SAP") -> None:
        self._entries[key] = sap

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
