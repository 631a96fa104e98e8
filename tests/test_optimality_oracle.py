"""Optimality oracle: the layered optimizer against exhaustive expansion.

For random small catalogs (2–4 tables, 0–2 indexes each, one or two
sites), connected join queries over them and random subsets of the rule
repertoire (``extended_rules`` toggles), the optimizer as it ships —
dominance pruning, the STAR memo and the plan interner on — is held to
the same optimization with every hot-path layer off: the memo that never
remembers and the interner that never shares of
``tests/reference_layers.py`` and ``OptimizerConfig(prune=False)``.

* **(i) optimality.**  Pruning may only ever lose: the layered best
  ``total`` is never below the exhaustive one.  And with a *sound*
  dominance test in place of the shipped one (:class:`SoundJudge`) it is
  the exhaustive best to the bit — memoization, interning, the plan
  table's incremental pruning and the join-candidate path lose nothing.
* **(ii) the frontier.**  The pruned final class (the plan-table entry for
  every table of the query) is exactly the ``tests/reference_dominance.py``
  frontier of the unpruned final class the layered search offered it —
  the same plan objects in the same order — and every plan offered is a
  plan of the exhaustive search's final class.

**Known deviations.**  The shipped dominance test (``SAP.pruned``) is not
sound for this cost model, in two ways; each is pinned by a test below,
and together they cost the optimum on ≈ 5 % of generated instances:

* *TID columns.*  COLS are compared without TID pseudo-columns, which
  "should not shield a plan from pruning" — yet every SORT, STORE and
  SHIP above a plan pays for their bytes, so a plan pruned for a TID-
  carrying twin of equal cost sorts cheaper.
* *Rescans.*  Dominance compares the total cost; a nested-loop join also
  pays ``(outer.card − 1) × inner.rescan_cost``, so an inner pruned for a
  cheaper one may rescan cheaper (a SORT materializes; an index probe
  re-reads its leaves).

:class:`SoundJudge` adds exactly what the property functions above a plan
read and the shipped record leaves out — full COLS equal; cost, rescan
cost and CARD no higher, component by component — and under it (i) holds
with equality.  (ii) is not claimed against the exhaustive frontier even
then: Glue puts a SORT veneer only on a plan that lacks the order, so a
pruned plan's sorted (cheaply rescanned) variant has no counterpart in
the pruned search.

``ci`` in ``tests/conftest.py`` raises the example budget.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import OptimizerConfig, StarburstOptimizer
from repro.catalog import AccessPath, Catalog, ColumnStats, TableDef, TableStats
from repro.catalog.catalog import make_columns
from repro.plans import sap
from repro.plans.operators import GET, JOIN, SORT
from repro.query.parser import parse_query
from repro.stars.builtin_rules import extended_rules
from repro.stars.plantable import PlanTable, plan_key
from tests import reference_dominance as reference
from tests.reference_layers import layers_off  # noqa: F401 — pytest fixture

COLUMNS = ("ID", "FK", "VAL")
RULE_TOGGLES = (
    "hash_join", "forced_projection", "dynamic_index", "tid_sort",
    "or_index", "and_index", "semijoin",
)

#: No deadline: a pause of a loaded machine is not a wrong plan.  The
#: fixtures' contexts undo their patches on exit, so one serves every
#: example.
oracle = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def instances(draw):
    """(catalog, SQL, rule toggles) — a connected join over 2–4 tables."""
    n_tables = draw(st.integers(2, 4))
    # Exhaustive search multiplies every access path and join method of
    # every table (and every join by its candidate sites): two sites at two
    # tables and one index a table at four keep it under a second.
    n_sites = draw(st.integers(1, 2)) if n_tables == 2 else 1
    max_indexes = 2 if n_tables < 4 else 1
    catalog = Catalog(query_site="S0")
    for site in range(n_sites):
        catalog.add_site(f"S{site}")
    names = [f"T{i}" for i in range(n_tables)]
    for name in names:
        card = draw(st.sampled_from([10, 100, 1_000, 20_000]))
        catalog.add_table(
            TableDef(name, make_columns(*COLUMNS),
                     site=f"S{draw(st.integers(0, n_sites - 1))}"),
            TableStats(card=card),
        )
        for column in COLUMNS:
            distinct = draw(st.sampled_from([1, 10, card]))
            catalog.set_column_stats(
                name, column,
                ColumnStats(n_distinct=min(distinct, card), low=0, high=99),
            )
        indexed = draw(st.lists(
            st.sampled_from(COLUMNS), max_size=max_indexes, unique=True
        ))
        for column in indexed:
            catalog.add_index(AccessPath(
                f"{name}_{column}", name, (column,),
                clustered=draw(st.integers(0, 3)) == 0,
            ))

    # A random spanning tree keeps the join graph connected; an extra edge
    # sometimes closes a cycle.
    conditions = []
    for i in range(1, n_tables):
        j = draw(st.integers(0, i - 1))
        left, right = draw(st.sampled_from(
            [("FK", "ID"), ("ID", "FK"), ("VAL", "VAL"), ("ID", "ID")]
        ))
        conditions.append(f"{names[i]}.{left} = {names[j]}.{right}")
    if n_tables > 2 and draw(st.booleans()):
        conditions.append(f"{names[0]}.VAL = {names[-1]}.VAL")
    if draw(st.booleans()):
        conditions.append(f"{names[0]}.VAL < {draw(st.integers(1, 99))}")
    if draw(st.integers(0, 3)) == 0:
        conditions.append(f"{names[-1]}.ID = {draw(st.integers(0, 99))}")
    select = ", ".join(f"{name}.ID" for name in names)
    sql = (
        f"SELECT {select} FROM {', '.join(names)} "
        f"WHERE {' AND '.join(conditions)}"
    )
    # At four tables, at most two of the optional strategies.
    chosen = draw(st.lists(
        st.sampled_from(RULE_TOGGLES),
        max_size=len(RULE_TOGGLES) if n_tables < 4 else 2, unique=True,
    ))
    return catalog, sql, {name: name in chosen for name in RULE_TOGGLES}


def _built(plan):
    """The plan node — a join candidate is built to read it."""
    return sap.SAP([plan]).plans[0]


def _vectors(plan) -> tuple:
    props = _built(plan).props
    cost, rescan = props.cost, props.rescan_cost
    return (
        props.cols, props.card,
        (cost.io, cost.cpu, cost.msgs, cost.bytes_sent),
        (rescan.io, rescan.cpu, rescan.msgs, rescan.bytes_sent),
    )


class SoundJudge(sap._DominanceJudge):
    """The shipped judge, plus everything a property function above the
    plan reads that the shipped record leaves out: a keeper dominates only
    with the same COLS, TID columns included, and a cost, rescan cost and
    CARD no higher in any component.  Every property function is monotone
    in those, so a pruned plan can never have built anything cheaper."""

    __slots__ = ("vectors",)

    def __init__(self, plans, model, interesting, site_diversity):
        plans = tuple(plans)
        super().__init__(plans, model, interesting, site_diversity)
        self.vectors = {id(plan): _vectors(plan) for plan in plans}

    def dominated_by_any(self, keepers, cand) -> bool:
        cols, card, cost, rescan = self.vectors[id(cand)]
        for kept in keepers:
            k_cols, k_card, k_cost, k_rescan = self.vectors[id(kept)]
            if (
                k_cols == cols
                and k_card <= card
                and all(map(operator.le, k_cost, cost))
                and all(map(operator.le, k_rescan, rescan))
                and super().dominated_by_any((kept,), cand)
            ):
                return True
        return False

    def frontier(self, plans) -> list:
        """``SAP.pruned``'s pass, on this judge's test."""
        keep: list = []
        for plan in self.by_cost(plans):
            if not self.dominated_by_any(keep, plan):
                keep.append(plan)
        return keep


@pytest.fixture
def search(layers_off, monkeypatch):
    """``search(catalog, sql, toggles, how)`` — one optimization, run
    ``"exhaustive"``, ``"sound"`` (:class:`SoundJudge` pruning) or
    ``"layered"``; the layered one returns ``(result, offered)`` with
    every plan offered to each plan-table class, in order."""

    def run(catalog, sql, toggles, how):
        rules = extended_rules(**toggles)
        query = parse_query(sql, catalog)
        if how == "exhaustive":
            with layers_off("memo", "intern"):
                return StarburstOptimizer(
                    catalog, rules=rules, config=OptimizerConfig(prune=False)
                ).optimize(query)
        with monkeypatch.context() as patch:
            if how == "sound":
                patch.setattr(sap, "_DominanceJudge", SoundJudge)
                return StarburstOptimizer(catalog, rules=rules).optimize(query)
            offered: dict = {}
            insert = PlanTable.insert

            def spied(table, tables, preds, plans):
                plans = tuple(plans)
                offered.setdefault(plan_key(tables, preds), []).extend(plans)
                return insert(table, tables, preds, plans)

            patch.setattr(PlanTable, "insert", spied)
            return StarburstOptimizer(catalog, rules=rules).optimize(query), offered

    return run


def final_key(result):
    tables = result.query.table_set
    return plan_key(tables, result.engine.ctx.standard_preds(tables))


def final_class(result) -> list:
    return list(result.engine.ctx.plan_table.lookup(*final_key(result)))


@oracle
@given(instance=instances())
def test_pruning_loses_nothing_exhaustive_search_finds(instance, search):
    catalog, sql, toggles = instance
    exhaustive = search(catalog, sql, toggles, "exhaustive")
    layered, offered = search(catalog, sql, toggles, "layered")
    sound = search(catalog, sql, toggles, "sound")

    # (i) Pruning only loses, and with a sound dominance test, nothing.
    assert layered.best_cost >= exhaustive.best_cost, (sql, toggles)
    assert repr(sound.best_cost) == repr(exhaustive.best_cost), (sql, toggles)

    # (ii) The final class is the reference frontier of what it was
    # offered, and everything offered is a plan of the exhaustive space.
    ctx = layered.engine.ctx
    candidates = [_built(plan) for plan in offered[final_key(layered)]]
    frontier = reference.pruned(candidates, ctx.model, ctx.interesting)
    assert [id(plan) for plan in final_class(layered)] == [
        id(plan) for plan in frontier
    ], (sql, toggles)
    everything = {plan.digest for plan in final_class(exhaustive)}
    assert {plan.digest for plan in candidates} <= everything, (sql, toggles)


# ---------------------------------------------------------------------------
# The two known deviations, pinned
# ---------------------------------------------------------------------------


def _catalog(tables: dict) -> Catalog:
    """``{name: (card, {column: distinct}, [(index column, clustered)])}``."""
    catalog = Catalog(query_site="S0")
    for name, (card, distinct, indexes) in tables.items():
        catalog.add_table(
            TableDef(name, make_columns(*COLUMNS), site="S0"), TableStats(card=card)
        )
        for column, n_distinct in distinct.items():
            catalog.set_column_stats(
                name, column, ColumnStats(n_distinct=n_distinct, low=0, high=99)
            )
        for column, clustered in indexes:
            catalog.add_index(
                AccessPath(f"{name}_{column}", name, (column,), clustered=clustered)
            )
    return catalog


NO_STRATEGIES = dict.fromkeys(RULE_TOGGLES, False)


def _sorted_inputs(plan) -> list:
    return [node.inputs[0] for node in plan.nodes() if node.op == SORT]


def test_known_deviation_a_tid_column_widens_what_is_sorted(search):
    """A clustered index scan of T0 delivers T0's TID beside ``ID``; it
    costs what the heap scan costs, so the heap scan is pruned — and the
    merge join's SORT then spills the wider stream."""
    catalog = _catalog({
        "T0": (20_000, {"ID": 20_000, "FK": 10, "VAL": 10}, [("FK", True)]),
        "T1": (20_000, {"ID": 1, "FK": 1, "VAL": 10}, []),
    })
    sql = "SELECT T0.ID, T1.ID FROM T0, T1 WHERE T1.FK = T0.ID"
    exhaustive = search(catalog, sql, NO_STRATEGIES, "exhaustive")
    layered, _ = search(catalog, sql, NO_STRATEGIES, "layered")
    sound = search(catalog, sql, NO_STRATEGIES, "sound")
    assert layered.best_cost > exhaustive.best_cost
    assert repr(sound.best_cost) == repr(exhaustive.best_cost)

    def sorts_a_tid(plan) -> bool:
        return any(
            column.column.startswith("#")
            for node in _sorted_inputs(plan) for column in node.props.cols
        )

    assert sorts_a_tid(layered.best_plan)
    assert not sorts_a_tid(exhaustive.best_plan)


def test_known_deviation_b_a_pruned_inner_rescans_cheaper(search):
    """T0's TID-sorted GET costs more than the unsorted one, which prunes
    it — but as a nested-loop inner it is rescanned, and a SORT is
    rescanned from memory where the index GET re-reads its pages."""
    catalog = _catalog({
        "T0": (20_000, {"ID": 20_000, "FK": 20_000, "VAL": 10},
               [("VAL", False), ("ID", False)]),
        "T1": (1_000, {"ID": 10, "FK": 1_000, "VAL": 1_000},
               [("ID", True), ("FK", True)]),
        "T2": (100, {"ID": 100, "FK": 1, "VAL": 100},
               [("VAL", False), ("ID", False)]),
    })
    sql = (
        "SELECT T0.ID, T1.ID, T2.ID FROM T0, T1, T2 WHERE T1.FK = T0.ID "
        "AND T2.ID = T1.FK AND T0.VAL = T2.VAL AND T0.VAL < 60"
    )
    toggles = dict(
        NO_STRATEGIES, hash_join=True, forced_projection=True, tid_sort=True,
        or_index=True,
    )
    exhaustive = search(catalog, sql, toggles, "exhaustive")
    layered, _ = search(catalog, sql, toggles, "layered")
    sound = search(catalog, sql, toggles, "sound")
    assert layered.best_cost > exhaustive.best_cost
    assert repr(sound.best_cost) == repr(exhaustive.best_cost)

    def tid_sorted_nl_inner(plan) -> bool:
        return any(
            node.op == JOIN and node.flavor == "NL"
            and node.inputs[1].op == GET and node.inputs[1].inputs[0].op == SORT
            for node in plan.nodes()
        )

    assert tid_sorted_nl_inner(exhaustive.best_plan)
    assert not tid_sorted_nl_inner(layered.best_plan)
