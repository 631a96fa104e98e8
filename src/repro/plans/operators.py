"""LOLEPOP definitions.

A LOw-LEvel Plan OPerator (paper section 2.1) is "a function that operates
on 1 or 2 tables ... and produces a single table as output"; besides input
tables it has parameters that control its operation, and a *flavor*
distinguishing variants with the same parameter structure (e.g. join
methods).

This module declares the operator vocabulary and the parameter schema of
each operator.  Plan nodes themselves live in :mod:`repro.plans.plan`;
property functions in :mod:`repro.cost.propfuncs`; run-time routines in
:mod:`repro.executor.vectorized`.  Adding a LOLEPOP (paper section 5) means
adding an entry here plus one property function and one run-time routine
(E19's SQLite oracle additionally wants its SQL lowering in
:mod:`repro.backends.sql`).
"""

from __future__ import annotations

from dataclasses import dataclass

ACCESS = "ACCESS"
GET = "GET"
SORT = "SORT"
SHIP = "SHIP"
STORE = "STORE"
BUILDIX = "BUILDIX"
JOIN = "JOIN"
FILTER = "FILTER"
UNION = "UNION"
DEDUP = "DEDUP"
PROJECT = "PROJECT"
INTERSECT = "INTERSECT"

#: ACCESS flavors: the storage-manager kinds of section 4.5.2 plus the
#: index and temp sources ("ACCESSes to base tables and to access methods
#: ... use different flavors of ACCESS", footnote 3).
ACCESS_FLAVORS = ("heap", "btree", "index", "temp")

#: JOIN flavors: nested-loop, sort-merge (section 4.4), hash (4.5.1),
#: and hash semijoin (SJ — the filtration strategy of the paper's
#: omitted list; emits left rows having at least one right match).
JOIN_FLAVORS = ("NL", "MG", "HA", "SJ")


@dataclass(frozen=True, slots=True)
class LolepopSpec:
    """Operator metadata: allowed arities and legal parameter keys."""

    name: str
    arities: tuple[int, ...]
    flavors: tuple[str, ...]
    params: tuple[str, ...]


LOLEPOPS: dict[str, LolepopSpec] = {
    spec.name: spec
    for spec in (
        # ACCESS of a base table or index has no plan input; ACCESS of a
        # materialized temp consumes the plan that produced the temp.
        # ``site`` names the stored copy being read (primary or replica) —
        # part of the params so replica plans get distinct digests.
        LolepopSpec(
            ACCESS, (0, 1), ACCESS_FLAVORS, ("table", "path", "columns", "preds", "site")
        ),
        # GET consumes a TID stream and the stored table it dereferences
        # (Figure 1); the stored table is a parameter, not a plan input.
        LolepopSpec(GET, (1,), (), ("table", "columns", "preds")),
        LolepopSpec(SORT, (1,), (), ("order",)),
        LolepopSpec(SHIP, (1,), (), ("to_site",)),
        LolepopSpec(STORE, (1,), (), ()),
        LolepopSpec(BUILDIX, (1,), (), ("key",)),
        LolepopSpec(JOIN, (2,), JOIN_FLAVORS, ("join_preds", "residual_preds")),
        LolepopSpec(FILTER, (1,), (), ("preds",)),
        LolepopSpec(UNION, (2,), (), ()),
        # DEDUP keeps the first row per key — used by the index OR-ing
        # strategy to merge TID streams from several indexes.
        LolepopSpec(DEDUP, (1,), (), ("key",)),
        # PROJECT narrows a stream to a column subset — used by the
        # semijoin strategy to ship only the join columns.
        LolepopSpec(PROJECT, (1,), (), ("columns",)),
        # INTERSECT keeps left rows whose key appears in the right stream
        # — used by the index AND-ing strategy on TID streams.
        LolepopSpec(INTERSECT, (2,), (), ("key",)),
    )
}


def spec_for(op: str) -> LolepopSpec:
    return LOLEPOPS[op]
