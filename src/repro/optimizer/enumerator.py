"""Bottom-up (System R style) join enumeration over the STAR engine.

The enumerator walks table subsets by increasing size.  For each feasible
subset it references the ``JoinRoot`` STAR once per unordered partition
into two previously-planned streams (JoinRoot itself generates both
permutations, section 4.1), passing the *newly* eligible predicates
(section 2.3).  Results land in the hashed plan table keyed on
``(TABLES, PREDS)``, where dominated alternatives are pruned — so shared
plan fragments are evaluated exactly once (E9).

"The default is to give preference to those streams having an eligible
join predicate linking them, as did System R and R*, but this can be
overridden to also consider Cartesian products" — the
``cartesian_products`` config flag.  ``composite_inners`` enables
plans like (A*B)*(C*D).
"""

from __future__ import annotations

from itertools import combinations

from repro.errors import OptimizationError
from repro.plans.sap import SAP, Stream
from repro.query.query import QueryBlock
from repro.stars.engine import StarEngine
from repro.stars.glue import glue


class JoinEnumerator:
    """Drives JoinRoot bottom-up over all feasible table subsets."""

    def __init__(self, engine: StarEngine, join_root: str = "JoinRoot"):
        self._engine = engine
        self._join_root = join_root
        #: Number of JoinRoot references made (join pairs considered).
        self.pairs_considered = 0
        #: Subsets that could not be formed without a Cartesian product.
        self.subsets_skipped = 0

    def run(self) -> SAP:
        """Enumerate all join orders; returns the final SAP over all
        tables (also available from the plan table)."""
        ctx = self._engine.ctx
        query: QueryBlock = ctx.query
        tables = tuple(query.tables)
        config = ctx.config

        # Level 1: plans for every single table (AccessRoot via Glue).
        for table in tables:
            glue(self._engine, Stream(frozenset([table])))

        if len(tables) == 1:
            only = frozenset([tables[0]])
            sap = ctx.plan_table.lookup(only, ctx.standard_preds(only))
            assert sap is not None
            return sap

        edges = query.join_graph_edges()
        feasible: set[frozenset[str]] = {frozenset([t]) for t in tables}

        for size in range(2, len(tables) + 1):
            for subset_tuple in combinations(tables, size):
                subset = frozenset(subset_tuple)
                if not config.cartesian_products and not _connected(subset, edges):
                    self.subsets_skipped += 1
                    continue
                plans = []
                for left, right in self._partitions(subset, feasible, config):
                    eligible = query.eligible_predicates(left, right)
                    if not eligible and not config.cartesian_products:
                        continue
                    self.pairs_considered += 1
                    sap = self._engine.expand(
                        self._join_root, (Stream(left), Stream(right), eligible)
                    )
                    # Join candidates go to the class unbuilt: the insert
                    # builds the survivors.
                    plans.extend(sap.members)
                if not plans:
                    if config.cartesian_products or _connected(subset, edges):
                        # Connected but no partition produced plans: every
                        # split was infeasible (e.g. composite inners off
                        # and no single-table split linked by a predicate).
                        self.subsets_skipped += 1
                    continue
                feasible.add(subset)
                ctx.plan_table.insert(subset, ctx.standard_preds(subset), plans)

        final = frozenset(tables)
        sap = ctx.plan_table.lookup(final, ctx.standard_preds(final))
        if sap is None or not sap:
            raise OptimizationError(
                f"no plan joins all tables {sorted(final)}; enable "
                "cartesian_products if the join graph is disconnected"
            )
        return sap

    # -- helpers -------------------------------------------------------------

    def _partitions(self, subset: frozenset[str], feasible, config):
        """Unordered partitions of ``subset`` into two feasible streams.

        The partition is anchored on an arbitrary fixed element so each
        unordered pair is produced once; JoinRoot handles permutation.
        """
        members = sorted(subset)
        anchor = members[0]
        rest = members[1:]
        for take in range(0, len(rest) + 1):
            for chosen in combinations(rest, take):
                left = frozenset((anchor, *chosen))
                right = subset - left
                if not right:
                    continue
                if left not in feasible or right not in feasible:
                    continue
                if not config.composite_inners and len(left) > 1 and len(right) > 1:
                    continue
                yield left, right


def _connected(subset: frozenset[str], edges: frozenset[frozenset[str]]) -> bool:
    """Is the join graph restricted to ``subset`` connected?"""
    if len(subset) <= 1:
        return True
    nodes = set(subset)
    start = next(iter(nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for edge in edges:
            if node in edge and edge <= subset:
                for other in edge:
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
    return seen == nodes
