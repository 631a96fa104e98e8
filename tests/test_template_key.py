"""The shared canonical query-key helpers.

One key module (:mod:`repro.query.template`) serves four consumers —
the hashed plan table, the feedback cache, batch deduplication and the
plan-template cache — so these tests pin down the stability properties
they all rely on: reordering tables or predicates never changes a key,
literal constants change the exact key but not the parameterized
template, flipped comparisons normalize to one shape, and a plan is
never reused for a different SELECT list, ORDER BY or result site.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.executor import QueryExecutor, naive_evaluate
from repro.optimizer import StarburstOptimizer
from repro.optimizer.batch import optimize_many
from repro.query.parser import parse_predicate, parse_query
from repro.query.predicates import COMPARISON_OPS
from repro.query.template import (
    PARAM,
    canonical_key,
    expr_shape,
    predicate_shape,
    query_key,
    query_template,
    template_key,
)
from repro.robust import FeedbackCache
from repro.serve.cache import PlanTemplateCache
from repro.stars.plantable import plan_key
from repro.workloads import chain_workload


@pytest.fixture(scope="module")
def workload():
    return chain_workload(3, rows=30)


def _parse(workload, sql):
    return parse_query(sql, workload.catalog)


class TestCanonicalKey:
    def test_table_order_is_irrelevant(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK")
        b = _parse(workload, "SELECT R0.ID FROM R1, R0 WHERE R0.ID = R1.FK")
        assert query_key(a) == query_key(b)

    def test_predicate_order_is_irrelevant(self, workload):
        a = _parse(
            workload,
            "SELECT R0.ID FROM R0, R1 "
            "WHERE R0.ID = R1.FK AND R0.VAL < 5",
        )
        b = _parse(
            workload,
            "SELECT R0.ID FROM R0, R1 "
            "WHERE R0.VAL < 5 AND R0.ID = R1.FK",
        )
        assert query_key(a) == query_key(b)

    def test_constants_change_the_exact_key(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        b = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 9")
        assert query_key(a) != query_key(b)

    def test_plan_table_key_is_the_shared_key(self, workload):
        q = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        assert plan_key(q.table_set, q.predicates) == query_key(q)[:2]
        assert canonical_key(q.table_set, q.predicates) == query_key(q)[:2]

    def test_feedback_cache_agrees_with_plan_table(self, workload):
        """An observation recorded under the plan table's key is found
        under the key a plan-template entry keeps — the loop the drift
        check closes."""
        q = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        cache = FeedbackCache()
        cache.record(*plan_key(q.table_set, q.predicates), 17.0)
        plan = StarburstOptimizer(workload.catalog).optimize(q).best_plan
        entry = PlanTemplateCache(workload.catalog).insert(q, plan, 1.0)
        assert cache.peek(*entry.exact_key) == 17.0

    def test_select_list_order_by_and_result_site_change_the_key(self, workload):
        sqls = [
            "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK",
            "SELECT R1.TAG FROM R0, R1 WHERE R0.ID = R1.FK",
            "SELECT R0.ID, R1.TAG FROM R0, R1 WHERE R0.ID = R1.FK",
            "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK ORDER BY R0.ID",
            "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK ORDER BY R0.ID DESC",
        ]
        queries = [_parse(workload, sql) for sql in sqls]
        queries.append(replace(queries[0], result_site="N.Y."))
        assert len({query_key(q) for q in queries}) == len(queries)
        assert len({query_template(q) for q in queries}) == len(queries)
        assert len({query_key(q)[:2] for q in queries}) == 1
        assert len({template_key(q.table_set, q.predicates) for q in queries}) == 1


class TestTemplateKey:
    def test_reordering_never_changes_the_template(self, workload):
        a = _parse(
            workload,
            "SELECT R0.ID FROM R0, R1 "
            "WHERE R0.ID = R1.FK AND R0.VAL < 5",
        )
        b = _parse(
            workload,
            "SELECT R0.ID FROM R1, R0 "
            "WHERE R0.VAL < 5 AND R0.ID = R1.FK",
        )
        assert query_template(a) == query_template(b)

    def test_constants_share_one_template(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        b = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 90")
        assert query_key(a) != query_key(b)
        assert query_template(a) == query_template(b)

    def test_literals_abstracted_to_param_marker(self, workload):
        q = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        (pred,) = q.predicates
        shape = predicate_shape(pred)
        assert PARAM in repr(shape)

    def test_flipped_comparison_normalizes(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        b = _parse(workload, "SELECT R0.ID FROM R0 WHERE 5 > R0.VAL")
        assert query_template(a) == query_template(b)

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    @pytest.mark.parametrize("sides", ["R0.VAL {} 5", "5 {} R0.VAL", "R0.ID {} R1.FK + 1"])
    def test_shape_is_the_smaller_of_the_two_orientations(self, workload, op, sides):
        pred = parse_predicate(sides.format(op), workload.catalog, ("R0", "R1"))
        flipped = pred.flipped()
        through_flipped = min(
            ("cmp", p.op, expr_shape(p.left), expr_shape(p.right))
            for p in (pred, flipped)
        )
        assert predicate_shape(pred) == through_flipped == predicate_shape(flipped)

    def test_different_operators_differ(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        b = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL >= 5")
        assert query_template(a) != query_template(b)

    def test_different_columns_differ(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 5")
        b = _parse(workload, "SELECT R0.ID FROM R0 WHERE R0.ID < 5")
        assert query_template(a) != query_template(b)

    def test_different_table_sets_differ(self, workload):
        a = _parse(workload, "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK")
        b = _parse(
            workload,
            "SELECT R1.ID FROM R1, R2 WHERE R1.ID = R2.FK",
        )
        assert query_template(a) != query_template(b)

    def test_template_key_is_hashable_and_deterministic(self, workload):
        q = _parse(
            workload,
            "SELECT R0.ID FROM R0, R1 "
            "WHERE R0.ID = R1.FK AND R0.VAL < 5",
        )
        assert hash(query_template(q)) == hash(query_template(q))
        assert template_key(q.table_set, q.predicates) == query_template(q)[:2]

    def test_projection_literals_share_one_template(self, workload):
        a = _parse(workload, "SELECT R0.VAL + 1 AS X FROM R0 WHERE R0.VAL < 5")
        b = _parse(workload, "SELECT R0.VAL + 2 AS X FROM R0 WHERE R0.VAL < 9")
        assert query_key(a) != query_key(b)
        assert query_template(a) == query_template(b)


class TestBatchDedup:
    def test_reordered_duplicates_dedup_to_one_optimization(self, workload):
        sql_a = (
            "SELECT R0.ID FROM R0, R1 "
            "WHERE R0.ID = R1.FK AND R0.VAL < 5"
        )
        sql_b = (
            "SELECT R0.ID FROM R1, R0 "
            "WHERE R0.VAL < 5 AND R0.ID = R1.FK"
        )
        results = optimize_many(
            workload.catalog, [sql_a, sql_b, sql_a], dedup=True
        )
        assert [r.deduped for r in results] == [False, True, True]
        assert len({r.plan_digest for r in results}) == 1
        assert all(r.ok for r in results)

    def test_select_list_and_order_by_do_not_dedup(self):
        """Each query gets a plan of its own, and that plan runs to the
        naive evaluator's rows: one FROM / WHERE, three SELECT lists or
        ORDER BY clauses."""
        workload = chain_workload(2, rows=50)
        where = "FROM R0, R1 WHERE R0.ID = R1.FK"
        sqls = [
            f"SELECT R0.ID {where}",
            f"SELECT R1.TAG {where}",
            f"SELECT R0.ID {where} ORDER BY R0.ID",
        ]
        results = optimize_many(workload.catalog, sqls, dedup=True)
        assert [r.deduped for r in results] == [False, False, False]
        executor = QueryExecutor(workload.database)
        for sql, result in zip(sqls, results):
            query = _parse(workload, sql)
            rows = executor.run(query, result.best_plan).as_multiset()
            assert rows == naive_evaluate(query, workload.database).as_multiset()
        assert results[2].best_plan.props.order == (query.order_by[0].column,)

    def test_result_sites_do_not_dedup(self, distributed_catalog):
        """One query delivered to two sites: each gets a plan of its own,
        delivering where it asked."""
        query = parse_query("SELECT MGR FROM DEPT", distributed_catalog)
        queries = [query, replace(query, result_site="N.Y.")]
        results = optimize_many(distributed_catalog, queries, dedup=True)
        assert [r.deduped for r in results] == [False, False]
        assert [r.best_plan.props.site for r in results] == ["L.A.", "N.Y."]

    def test_distinct_constants_do_not_dedup(self, workload):
        sql_a = "SELECT R0.ID FROM R0 WHERE R0.VAL < 5"
        sql_b = "SELECT R0.ID FROM R0 WHERE R0.VAL < 9"
        results = optimize_many(workload.catalog, [sql_a, sql_b], dedup=True)
        assert [r.deduped for r in results] == [False, False]

    def test_dedup_preserves_input_order(self, workload):
        sqls = [
            "SELECT R0.ID FROM R0 WHERE R0.VAL < 5",
            "SELECT R0.ID FROM R0 WHERE R0.VAL < 9",
            "SELECT R0.ID FROM R0 WHERE R0.VAL < 5",
        ]
        results = optimize_many(workload.catalog, sqls, dedup=True)
        assert [r.index for r in results] == [0, 1, 2]
        assert results[0].plan_digest == results[2].plan_digest
