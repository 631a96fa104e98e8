"""Property vectors and required properties (paper section 3).

Every table — base table or result of a plan — has a set of properties
that summarize the work done on the table thus far.  Figure 2 lists them:

=============  =========================================================
relational     TABLES, COLS, PREDS                        (*what*)
physical       ORDER, SITE, TEMP, PATHS                   (*how*)
estimated      CARD, COST                                 (*how much*)
=============  =========================================================

Only LOLEPOP property functions (``repro.cost.propfuncs``) construct or
revise property vectors; STARs merely compose LOLEPOPs (section 7).

:class:`Requirements` models the ``[square bracket]`` annotations of
section 3.2.  Requirements accumulate on a stream argument across STAR
references until Glue is referenced, which injects veneer operators to
satisfy them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.catalog.schema import AccessPath
from repro.cost.model import Cost
from repro.errors import GlueError
from repro.query.expressions import ColumnRef
from repro.query.predicates import Predicate

#: A tuple of columns: the ORDER property ("an ordered list of columns").
OrderSpec = tuple[ColumnRef, ...]


def order_satisfies(actual: OrderSpec, required: OrderSpec) -> bool:
    """Does a stream ordered by ``actual`` satisfy a requirement of
    ``required``?  Yes iff ``required`` is a prefix of ``actual`` — the
    paper's ``order ⊑ a`` test."""
    if len(required) > len(actual):
        return False
    return tuple(actual[: len(required)]) == tuple(required)


@dataclass(frozen=True, slots=True)
class PropertyVector:
    """The property vector of one plan (Figure 2)."""

    # relational (WHAT)
    tables: frozenset[str]
    cols: frozenset[ColumnRef]
    preds: frozenset[Predicate]
    # physical (HOW)
    order: OrderSpec = ()
    site: str = "local"
    temp: bool = False
    paths: frozenset[AccessPath] = field(default_factory=frozenset)
    #: Name of the stored object this plan's output materializes, if any
    #: (a temp created by STORE/BUILDIX, or a base table).  Streams have
    #: ``stored_as=None``.  This is how TableAccess and index veneers
    #: find the thing to re-ACCESS (section 4.5.2's forcing-projection
    #: alternative re-accesses the temp).
    stored_as: str | None = None
    # estimated (HOW MUCH)
    card: float = 1.0
    cost: Cost = Cost.ZERO
    #: Estimated cost of producing the stream *again* (used by the
    #: nested-loop join property function: a materialized inner rescans
    #: cheaply, a pipelined inner recomputes).
    rescan_cost: Cost = Cost.ZERO

    def satisfies(self, req: "Requirements") -> bool:
        """Does this plan meet every required property?"""
        if req.order is not None and not order_satisfies(self.order, req.order):
            return False
        if req.site is not None and self.site != req.site:
            return False
        if req.temp and not self.temp:
            return False
        if req.paths is not None and not self.has_path_on(req.paths):
            return False
        return True

    def has_path_on(self, key_columns: OrderSpec) -> bool:
        """Is there an available access path whose key starts with
        ``key_columns``?  (The ``paths ≥ IX`` requirement of 4.5.3.)  Every
        path here indexes a temp, so its key names each column's table."""
        wanted = tuple(key_columns)
        return any(p.key[: len(wanted)] == wanted for p in self.paths)

    def describe(self) -> str:
        """Multi-line rendering used by the Figure-2 benchmark."""
        lines = [
            f"TABLES = {{{', '.join(sorted(self.tables))}}}",
            f"COLS   = {{{', '.join(sorted(str(c) for c in self.cols))}}}",
            f"PREDS  = {{{', '.join(sorted(str(p) for p in self.preds))}}}",
            f"ORDER  = ({', '.join(str(c) for c in self.order)})",
            f"SITE   = {self.site}",
            f"TEMP   = {self.temp}",
            f"PATHS  = {{{', '.join(sorted(str(p) for p in self.paths))}}}",
            f"CARD   = {self.card:.1f}",
            f"COST   = {self.cost}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class Requirements:
    """Required properties accumulated on a stream argument (section 3.2).

    ``None`` fields are "not required".  ``extra_preds`` is not a paper
    property requirement but the mechanism by which predicates are pushed
    down to a stream ("the predicates to be applied by the inner stream
    are parameters"): Glue re-references the access STARs with them.
    """

    order: OrderSpec | None = None
    site: str | None = None
    temp: bool = False
    paths: OrderSpec | None = None
    extra_preds: frozenset[Predicate] = field(default_factory=frozenset)

    def is_empty(self) -> bool:
        return self == Requirements.EMPTY

    def merged(self, other: "Requirements") -> "Requirements":
        """Accumulate ``other`` on top of these requirements.

        Later requirements override earlier ones for scalar properties
        (the innermost STAR reference speaks last) but conflicting
        non-None scalars raise, because the paper's rule sets never
        legitimately require two different sites or orders for one
        stream.
        """
        def pick(mine, theirs, what: str):
            if mine is None:
                return theirs
            if theirs is None:
                return mine
            if mine != theirs:
                raise GlueError(f"conflicting {what} requirements: {mine} vs {theirs}")
            return mine

        return Requirements(
            order=pick(self.order, other.order, "order"),
            site=pick(self.site, other.site, "site"),
            temp=self.temp or other.temp,
            paths=pick(self.paths, other.paths, "paths"),
            extra_preds=self.extra_preds | other.extra_preds,
        )

    def without_preds(self) -> "Requirements":
        return replace(self, extra_preds=frozenset())

    def __str__(self) -> str:
        parts = []
        if self.order is not None:
            parts.append(f"order={','.join(str(c) for c in self.order)}")
        if self.site is not None:
            parts.append(f"site={self.site}")
        if self.temp:
            parts.append("temp")
        if self.paths is not None:
            parts.append(f"paths>={','.join(str(c) for c in self.paths)}")
        if self.extra_preds:
            parts.append(f"push={{{', '.join(sorted(str(p) for p in self.extra_preds))}}}")
        return f"[{'; '.join(parts)}]" if parts else "[]"


# A shared no-requirements constant (plain class attribute, not a field).
Requirements.EMPTY = Requirements()  # type: ignore[attr-defined]


def requirements(
    order: Iterable[ColumnRef] | None = None,
    site: str | None = None,
    temp: bool = False,
    paths: Iterable[ColumnRef] | None = None,
    extra_preds: Iterable[Predicate] = (),
) -> Requirements:
    """Convenience constructor accepting any iterables."""
    return Requirements(
        order=tuple(order) if order is not None else None,
        site=site,
        temp=temp,
        paths=tuple(paths) if paths is not None else None,
        extra_preds=frozenset(extra_preds),
    )
