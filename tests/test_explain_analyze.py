"""Tests for EXPLAIN ANALYZE (repro.obs.analyze) and trace determinism."""

import math

import pytest

from repro.executor.chaos import ChaosConfig, ChaosEngine, RetryPolicy
from repro.executor.resilient import ResilientExecutor
from repro.obs import MetricsRegistry, Tracer, explain_analyze, q_error
from repro.obs.analyze import plan_walk
from repro.optimizer import StarburstOptimizer
from repro.config import OptimizerConfig
from repro.workloads.paper import (
    figure1_query,
    paper_catalog,
    paper_database,
    paper_three_table_query,
    with_proj,
)
from tests.reference_executor import ENGINES, ReferenceExecutor


class TestQErrorMath:
    def test_perfect_estimate_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric_over_and_under(self):
        assert q_error(100, 50) == 2.0
        assert q_error(50, 100) == 2.0

    def test_floor_prevents_division_by_zero(self):
        assert q_error(0.3, 0) == 1.0  # both sides floored to 1.0
        assert q_error(0, 0) == 1.0

    def test_small_estimate_vs_real_rows(self):
        assert q_error(0.5, 4) == 4.0  # est floored to 1, act 4


@pytest.fixture(scope="module")
def three_table():
    """The paper workload with PROJ: a two-join query, optimized."""
    catalog = paper_catalog()
    database = paper_database(catalog)
    with_proj(catalog, database)
    query = paper_three_table_query(catalog)
    result = StarburstOptimizer(catalog).optimize(query)
    return database, result


def _l_and_r():
    """L has keys 0..9 (one row each); R has keys 0..4 twice and an index
    on K.  Returns (catalog, database, factory, the predicate L.K = R.K)."""
    from repro.catalog import AccessPath, Catalog, TableDef
    from repro.catalog.catalog import make_columns
    from repro.cost.propfuncs import PlanFactory
    from repro.query.parser import parse_predicate
    from repro.storage import Database

    catalog = Catalog()
    catalog.add_table(TableDef("L", make_columns("K", "V")))
    catalog.add_table(TableDef("R", make_columns("K", "W")))
    catalog.add_index(AccessPath("R_K", "R", ("K",)))
    database = Database(catalog)
    database.create_storage("L")
    database.create_storage("R")
    database.load("L", [(k, k * 10) for k in range(10)])
    database.load("R", [(k % 5, k) for k in range(10)])
    database.analyze_all()
    pred = parse_predicate("L.K = R.K", catalog, ("L", "R"))
    return catalog, database, PlanFactory(catalog), pred


class TestExplainAnalyze:
    def test_two_join_plan_q_errors_recompute_by_hand(self, three_table):
        """Every reported per-operator Q-error equals the hand formula
        q = max(est, act/loops)/min(est, act/loops), floored at 1."""
        database, result = three_table
        report = explain_analyze(result, database)
        assert len(report.operators) >= 5  # two joins plus their inputs
        executed = [m for m in report.operators if m.loops > 0]
        assert executed, "at least the root must have executed"
        for measure in executed:
            est = max(measure.estimated_rows, 1.0)
            act = max(measure.actual_rows / measure.loops, 1.0)
            assert measure.q_error == pytest.approx(max(est / act, act / est))

    def test_plan_level_q_error_is_root_card_vs_output_rows(self, three_table):
        database, result = three_table
        report = explain_analyze(result, database)
        expected = q_error(
            result.best_plan.props.card, report.result.stats.output_rows
        )
        assert report.plan_q_error == pytest.approx(expected)

    def test_aggregates_recompute(self, three_table):
        database, result = three_table
        report = explain_analyze(result, database)
        qs = [m.q_error for m in report.operators if m.q_error is not None]
        assert report.max_q_error == pytest.approx(max(qs))
        geo = math.exp(sum(math.log(q) for q in qs) / len(qs))
        assert report.mean_q_error == pytest.approx(geo)

    def test_operators_cover_the_plan(self, three_table):
        database, result = three_table
        report = explain_analyze(result, database)
        walked = [node for node, _ in plan_walk(result.best_plan)]
        assert [m.node for m in report.operators] == walked
        assert report.operators[0].node is result.best_plan
        assert report.operators[0].depth == 0

    def test_root_actuals_match_result(self, three_table):
        database, result = three_table
        report = explain_analyze(result, database)
        root = report.operators[0]
        assert root.loops == 1
        assert root.actual_rows == len(report.result.rows)

    def test_render_contains_table_and_summary(self, three_table):
        database, result = three_table
        report = explain_analyze(result, database)
        text = report.render()
        assert "operator" in text and "q-error" in text
        assert "plan-level Q-error" in text
        assert "JOIN" in text

    def test_as_dict_is_flat_numeric(self, three_table):
        database, result = three_table
        report = explain_analyze(result, database)
        snap = report.as_dict()
        assert snap["operators"] == len(report.operators)
        assert all(isinstance(v, (int, float)) for v in snap.values())

    def test_metrics_ingested(self, three_table):
        database, result = three_table
        metrics = MetricsRegistry()
        explain_analyze(result, database, metrics=metrics)
        snap = metrics.snapshot()
        assert "analyze.plan_q_error" in snap
        assert "executor.output_rows" in snap
        assert any(key.startswith("executor.op.JOIN.") for key in snap)

    def test_tracer_captures_executor_spans(self, three_table):
        database, result = three_table
        tracer = Tracer()
        explain_analyze(result, database, tracer=tracer)
        counts = tracer.category_counts()
        assert counts.get("executor", 0) >= len(
            [m for m in plan_walk(result.best_plan)]
        ) - 1  # every operator opened at least once (loops may share spans)

    @pytest.mark.parametrize("engine", ["vectorized", "iterator"])
    def test_hash_join_label_says_what_it_built(self, engine, monkeypatch):
        """The engine's JOIN(HA) reports the table it built beside the
        operator; an evaluator with nothing to say (the reference
        iterator has one regime) gets the bare label."""
        from repro.stars.builtin_rules import extended_rules

        if engine == "iterator":
            monkeypatch.setattr(
                "repro.executor.runtime.QueryExecutor", ReferenceExecutor
            )
        catalog = paper_catalog()
        database = paper_database(catalog)
        result = StarburstOptimizer(catalog, rules=extended_rules()).optimize(
            figure1_query(catalog)
        )
        assert result.best_plan.flavor == "HA"
        report = explain_analyze(result, database)
        build_rows = report.operators[2].actual_rows  # the inner input
        want = "JOIN(HA)"
        if engine == "vectorized":
            want += f" [build=unique build_rows={build_rows}]"
        assert report.operators[0].label == want
        assert want in report.render()

    def test_nl_inner_loops_hand_computed(self):
        """An NL-join inner stream opens once per outer row; node_counts
        records [total rows, opens] so rows/loop matches per-probe CARD.

        L has keys 0..9 (one row each); R has keys 0..4 twice.  The inner
        scan of R under the pushed join predicate therefore opens 10
        times and yields 2 rows for 5 of the probes: [20, 10]."""
        from repro.executor import QueryExecutor
        from repro.query.expressions import ColumnRef

        catalog, database, factory, pred = _l_and_r()
        l_cols = {ColumnRef("L", "K"), ColumnRef("L", "V")}
        r_cols = {ColumnRef("R", "K"), ColumnRef("R", "W")}
        outer = factory.access_base("L", l_cols, set())
        inner = factory.access_base("R", r_cols, {pred})
        join = factory.join("NL", outer, inner, {pred})

        counts: dict[int, list[int]] = {}
        rows, _ = QueryExecutor(database).run_plan(join, node_counts=counts)
        assert counts[id(outer)] == [10, 1]
        assert counts[id(inner)] == [10, 10]  # 2 rows x 5 probes, 0 x 5
        assert counts[id(join)] == [len(rows), 1] == [10, 1]
        # rows-per-loop is what CARD estimates for the inner.
        inner_rows, inner_loops = counts[id(inner)]
        assert inner_rows / inner_loops == 1.0

    def test_nl_index_inner_one_span_per_outer_batch(self):
        """Under the vectorized probe kernel an index-probe inner still
        counts one open per outer row, but is traced once per outer
        *batch*: each fused inner node records one ``executor`` span per
        outer batch carrying ``rows=`` and ``opens=``, and ``exec.batches``
        counts exactly the batches ``stats.batches`` does."""
        from repro.executor import QueryExecutor
        from repro.query.expressions import ColumnRef

        catalog, database, factory, pred = _l_and_r()
        l_cols = {ColumnRef("L", "K"), ColumnRef("L", "V")}
        # SORT re-cuts the outer into batches of batch_size: 4 + 4 + 2.
        outer = factory.sort(factory.access_base("L", l_cols, set()), [ColumnRef("L", "K")])
        access = factory.access_index(
            "R", catalog.path("R", "R_K"), {ColumnRef("R", "K")}, {pred}
        )
        inner = factory.get(access, "R", {ColumnRef("R", "W")})
        join = factory.join("NL", outer, inner, {pred})

        counts: dict[int, list[int]] = {}
        tracer, metrics = Tracer(), MetricsRegistry()
        rows, stats = QueryExecutor(
            database, batch_size=4, tracer=tracer, metrics=metrics
        ).run_plan(join, node_counts=counts)
        assert len(rows) == 10
        assert counts[id(access)] == counts[id(inner)] == [10, 10]
        for label in ("ACCESS(index)", "GET"):
            spans = [
                e for e in tracer.events()
                if e.cat == "executor" and e.name == label
            ]
            assert [e.args["opens"] for e in spans] == [4, 4, 2]
            assert [e.args["rows"] for e in spans] == [8, 2, 0]
        assert metrics.snapshot()["exec.batches"] == stats.batches
        assert stats.batches < 10 + 10 + 3  # not one batch per probe


class TestExecutorSpanTime:
    """An executor span lasts the time spent inside its operator's pulls:
    a pipelined producer is not billed for what its consumer does between
    two pulls (it was, when ``dur`` ran from first pull to exhaustion)."""

    @staticmethod
    def _burning_clock():
        """An injected clock that stands still unless a ``Burn``
        predicate is evaluated, and that predicate's class."""
        from dataclasses import dataclass

        from repro.query.expressions import ColumnRef
        from repro.query.predicates import Predicate

        class Clock:
            t = 0.0

            def __call__(self) -> float:
                return self.t

        clock = Clock()

        @dataclass(frozen=True)
        class Burn(Predicate):
            """Always true; evaluating it takes ``seconds``."""

            column: ColumnRef
            seconds: float

            def _iter_columns(self):
                yield self.column

            def evaluate(self, ctx) -> bool:
                clock.t += self.seconds
                return True

            def __str__(self) -> str:
                return f"burn({self.column}, {self.seconds})"

        return clock, Burn

    @pytest.mark.parametrize("engine", ENGINES)
    def test_join_work_between_pulls_is_join_self_time(self, engine):
        from repro.query.expressions import ColumnRef

        clock, Burn = self._burning_clock()
        _, database, factory, pred = _l_and_r()
        l_cols = {ColumnRef("L", "K"), ColumnRef("L", "V")}
        r_cols = {ColumnRef("R", "K"), ColumnRef("R", "W")}
        # 1 s per row scanned on the outer, 5 s per joined row in the join.
        outer = factory.access_base("L", l_cols, {Burn(ColumnRef("L", "K"), 1.0)})
        inner = factory.access_base("R", r_cols, set())
        join = factory.join("HA", outer, inner, {pred}, {Burn(ColumnRef("R", "W"), 5.0)})

        tracer = Tracer(clock=clock)
        rows, _ = ENGINES[engine](
            database, batch_size=4, tracer=tracer
        ).run_plan(join)
        assert len(rows) == 10 and clock.t == 10 * 1.0 + 10 * 5.0

        spans = {e.span: e for e in tracer.events()}
        root, build, probe = spans[0], spans[1], spans[2]
        assert (root.name, build.parent, probe.parent) == ("JOIN(HA)", 0, 0)
        # dur − Σ children, the arithmetic every consumer of the trace uses
        assert root.dur - build.dur - probe.dur == 50.0  # JOIN self time
        assert (build.dur, probe.dur) == (0.0, 10.0)  # ACCESS self times
        assert root.dur == clock.t

    @pytest.mark.parametrize("engine", ENGINES)
    def test_temp_materialization_is_inside_the_access_that_opens_it(self, engine):
        """``ACCESS(temp)`` materializes its STORE when it is opened: that
        time is inside its span and the stored subtree hangs under it —
        not under whichever span happened to be open (the engine used to
        dispatch, and so materialize, before it opened the span)."""
        from repro.query.expressions import ColumnRef

        clock, Burn = self._burning_clock()
        _, database, factory, pred = _l_and_r()
        l_cols = {ColumnRef("L", "K"), ColumnRef("L", "V")}
        r_cols = {ColumnRef("R", "K"), ColumnRef("R", "W")}
        outer = factory.sort(factory.access_base("L", l_cols, set()), [ColumnRef("L", "K")])
        # 1 s per row scanned under the STORE.
        stored = factory.sort(
            factory.access_base("R", r_cols, {Burn(ColumnRef("R", "K"), 1.0)}),
            [ColumnRef("R", "K")],
        )
        inner = factory.access_temp(factory.store(stored))
        join = factory.join("MG", outer, inner, {pred})

        tracer = Tracer(clock=clock)
        rows, _ = ENGINES[engine](
            database, batch_size=4, tracer=tracer
        ).run_plan(join)
        assert len(rows) == 10 and clock.t == 10 * 1.0

        events = tracer.events()
        root = next(e for e in events if e.name == "JOIN(MG)")
        temp = next(e for e in events if e.name == "ACCESS(temp)")
        (under_temp,) = [e for e in events if e.parent == temp.span]
        (scan,) = [e for e in events if e.parent == under_temp.span]
        assert (under_temp.name, scan.name) == ("SORT", "ACCESS(heap)")
        assert temp.dur == under_temp.dur == scan.dur == root.dur == clock.t


class TestDeterministicEventStreams:
    def _traced_chaos_run(self, seed: int):
        catalog = paper_catalog(distributed=True, replicate_dept=True)
        database = paper_database(catalog)
        tracer = Tracer()
        optimizer = StarburstOptimizer(
            catalog,
            config=OptimizerConfig(retain_site_diversity=True),
            tracer=tracer,
        )
        result = optimizer.optimize(figure1_query(catalog))
        chaos = ChaosEngine(ChaosConfig(
            seed=seed,
            link_failure_prob=0.25,
            site_outages=(("N.Y.", 1),),
            protected_sites=frozenset({catalog.query_site}),
        ))
        executor = ResilientExecutor(
            database, optimizer, chaos=chaos, retry=RetryPolicy(),
            tracer=tracer,
        )
        report = executor.run(result)
        return tracer, report

    def test_same_seed_same_signature(self):
        first, report_a = self._traced_chaos_run(seed=11)
        second, report_b = self._traced_chaos_run(seed=11)
        assert len(first) > 0
        assert first.signature() == second.signature()
        assert report_a.succeeded == report_b.succeeded

    def test_chaos_and_ship_events_present(self):
        tracer, report = self._traced_chaos_run(seed=11)
        counts = tracer.category_counts()
        assert counts.get("chaos", 0) >= 1  # the scheduled N.Y. outage
        assert counts.get("ship", 0) >= 1
        assert counts.get("resilient", 0) >= 1
        assert counts.get("optimizer", 0) >= 1

    def test_failover_reflected_in_report_dict(self):
        tracer, report = self._traced_chaos_run(seed=11)
        snap = report.as_dict()
        assert snap["executions"] == report.executions
        assert snap["downed_sites"] >= 1
