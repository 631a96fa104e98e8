"""Cardinality checkpoints and the adaptive re-optimization loop."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.catalog import Catalog, TableDef, TableStats
from repro.catalog.catalog import make_columns
from repro.cost.model import CostWeights
from repro.cost.propfuncs import PlanFactory
from repro.errors import CardinalityViolation
from repro.executor import QueryExecutor
from repro.obs import (
    MetricsRegistry,
    Tracer,
    render_openmetrics,
    validate_openmetrics,
)
from repro.optimizer import StarburstOptimizer
from repro.query.expressions import ColumnRef
from repro.robust import (
    AdaptiveExecutor,
    CheckpointPolicy,
    FeedbackCache,
)
from repro.robust.adaptive import executed_cost
from repro.stars.builtin_rules import extended_rules
from repro.storage import Database
from repro.workloads import skewed_workload


def fake_node(card: float, op: str = "SORT", tables=frozenset({"T"})):
    """The minimal node shape a checkpoint reads."""
    return SimpleNamespace(
        op=op,
        flavor=None,
        props=SimpleNamespace(card=card, tables=tables, preds=frozenset()),
    )


class TestCheckpointPolicy:
    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(qerror_threshold=0.5)

    def test_within_threshold_records_without_raising(self):
        policy = CheckpointPolicy(qerror_threshold=10.0)
        policy.observe(fake_node(card=50.0), actual=20)
        assert policy.checks == 1
        assert policy.violations == 0
        assert policy.feedback.lookup({"T"}, frozenset()) == 20.0

    def test_violation_raises_with_details(self):
        policy = CheckpointPolicy(qerror_threshold=10.0)
        with pytest.raises(CardinalityViolation) as excinfo:
            policy.observe(fake_node(card=1000.0), actual=3)
        violation = excinfo.value
        assert violation.estimated == 1000.0
        assert violation.actual == 3.0
        assert violation.q == pytest.approx(1000.0 / 3.0)
        assert violation.partial_stats is None  # runtime attaches it
        assert policy.violations == 1
        # The observation reached the cache before the abort.
        assert policy.feedback.lookup({"T"}, frozenset()) == 3.0

    def test_underestimates_violate_symmetrically(self):
        policy = CheckpointPolicy(qerror_threshold=10.0)
        with pytest.raises(CardinalityViolation):
            policy.observe(fake_node(card=2.0), actual=500)

    def test_disarmed_policy_never_raises(self):
        policy = CheckpointPolicy(qerror_threshold=10.0, armed=False)
        policy.observe(fake_node(card=1000.0), actual=1)
        assert policy.violations == 0
        assert policy.feedback.lookup({"T"}, frozenset()) == 1.0

    def test_observability(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        policy = CheckpointPolicy(
            qerror_threshold=10.0, tracer=tracer, metrics=metrics
        )
        policy.observe(fake_node(card=5.0), actual=5)
        (event,) = [e for e in tracer.events() if e.name == "checkpoint"]
        assert event.cat == "robust"
        assert event.args["violated"] is False
        assert metrics.snapshot()["checkpoint.checks"] == 1


class TestStoreCheckpointAndTempReuse:
    """The STORE-side machinery, driven through the runtime directly."""

    def _build(self):
        cat = Catalog(query_site="local")
        # Statistics claim 1000 rows; only 3 are loaded (no analyze) —
        # exactly the staleness a STORE checkpoint catches.
        cat.add_table(TableDef("R", make_columns("K", "W")), TableStats(card=1000))
        db = Database(cat)
        db.create_storage("R")
        db.load("R", ({"K": i, "W": i * 10} for i in range(3)))
        factory = PlanFactory(cat)
        scan = factory.access_base(
            "R", {ColumnRef("R", "K"), ColumnRef("R", "W")}, set()
        )
        plan = factory.access_temp(factory.store(scan))
        return db, plan

    def test_store_checkpoint_fires_and_temp_survives(self):
        db, plan = self._build()
        policy = CheckpointPolicy(qerror_threshold=10.0)
        temp_cache: dict = {}
        executor = QueryExecutor(db, checkpoints=policy, temp_cache=temp_cache)
        with pytest.raises(CardinalityViolation) as excinfo:
            executor.run_plan(plan)
        # The runtime attached the partial stats of the aborted attempt.
        assert excinfo.value.partial_stats is not None
        # The temp was cached *before* the checkpoint raised, so a retry
        # can reuse the materialized subtree.
        assert len(temp_cache) == 1
        db.drop_temps()

    def test_second_run_reuses_inherited_temp(self):
        db, plan = self._build()
        temp_cache: dict = {}
        first = QueryExecutor(db, temp_cache=temp_cache)
        rows_first, stats_first = first.run_plan(plan)
        assert stats_first.temps_reused == 0
        second = QueryExecutor(db, temp_cache=temp_cache)
        rows_second, stats_second = second.run_plan(plan)
        assert stats_second.temps_reused == 1
        assert sorted(map(tuple, rows_first)) == sorted(map(tuple, rows_second))
        # Reuse must actually skip the store: no new temp materialized.
        assert len(temp_cache) == 1
        db.drop_temps()


def _with_static_baseline(wl):
    """A skewed workload plus the static plan's rows and executed cost,
    under the paper's NL + MG join repertoire (the hash-join extension
    would shrink the static plan space the checkpoint escapes from)."""
    rules = extended_rules(hash_join=False)
    weights = CostWeights()
    optimizer = StarburstOptimizer(wl.catalog, rules=rules, weights=weights)
    static = optimizer.optimize(wl.query)
    static_result = QueryExecutor(wl.database).run(
        static.query, static.best_plan
    )
    static_cost = executed_cost(static_result.stats, weights)
    return wl, rules, weights, static_result, static_cost


@pytest.fixture(scope="module")
def skewed():
    """The E12 kernel at test scale, plus its static baseline."""
    return _with_static_baseline(skewed_workload(n0=4000, n1=300, seed=3))


#: Experiment E12's five misestimated workloads at its smoke scale: the
#: statistics claim ``VAL`` spans ``[0, stats_high]`` when it spans
#: ``[0, val_range)``, so the filter estimate is off by their ratio.
E12_SKEWS = {
    "mg-trap-100x": dict(seed=3, n0=4000, n1=200, ndist=50,
                         val_range=1000, cut=5, stats_high=9),
    "big-base-100x": dict(seed=11, n0=8000, n1=200, ndist=50,
                          val_range=1000, cut=5, stats_high=9),
    "fat-fanout-100x": dict(seed=23, n0=4000, n1=200, ndist=25,
                            val_range=1000, cut=5, stats_high=9),
    "mild-40x": dict(seed=31, n0=4000, n1=300, ndist=50,
                     val_range=1000, cut=5, stats_high=24),
    "extreme-250x": dict(seed=47, n0=6000, n1=200, ndist=40,
                         val_range=2000, cut=4, stats_high=7),
}


def _adaptive(skewed_fixture, **kwargs):
    wl, rules, weights, _, _ = skewed_fixture
    optimizer = StarburstOptimizer(wl.catalog, rules=rules, weights=weights)
    return AdaptiveExecutor(wl.database, optimizer, **kwargs)


class TestAdaptiveLoop:
    def test_violation_triggers_reoptimization_and_wins(self):
        # A loop, not ``parametrize``: the five workloads are one claim
        # (E12: adaptive beats static wherever the statistics lie).
        for name, spec in E12_SKEWS.items():
            setup = _with_static_baseline(skewed_workload(**spec))
            wl, _, _, static_result, static_cost = setup
            report = _adaptive(setup, qerror_threshold=10.0).run(wl.query)
            assert report.succeeded, name
            assert report.checkpoint_violations >= 1, name
            assert report.reoptimizations >= 1, name
            assert report.attempts == report.reoptimizations + 1, name
            assert report.result.as_multiset() == static_result.as_multiset(), name
            # Total adaptive cost (aborted work included) beats the static
            # plan: the checkpoint fired before the expensive merge scan.
            assert report.executed_cost < static_cost, name

    def test_accurate_statistics_run_unperturbed(self):
        setup = _with_static_baseline(
            skewed_workload(n0=4000, n1=300, seed=3, stats_high=None)
        )
        report = _adaptive(setup, qerror_threshold=10.0).run(setup[0].query)
        assert report.succeeded
        assert report.attempts == 1
        assert report.checkpoint_violations == 0
        assert report.executed_cost == pytest.approx(setup[-1])

    def test_final_attempt_runs_disarmed(self, skewed):
        _, _, _, static_result, _ = skewed
        report = _adaptive(
            skewed, qerror_threshold=10.0, max_reoptimizations=0
        ).run(skewed[0].query)
        # With zero re-optimizations allowed, the only attempt runs with
        # checkpoints disarmed: the misestimate is observed, not fatal.
        assert report.succeeded
        assert report.attempts == 1
        assert report.checkpoint_violations == 0
        assert report.result.as_multiset() == static_result.as_multiset()

    def test_reoptimizations_are_bounded(self, skewed):
        report = _adaptive(
            skewed, qerror_threshold=1.0000001, max_reoptimizations=2
        ).run(skewed[0].query)
        # An absurdly tight threshold aborts every armed attempt; the
        # loop must still terminate via the disarmed final attempt.
        assert report.succeeded
        assert report.attempts <= 3

    def test_feedback_shared_across_attempts(self, skewed):
        executor = _adaptive(skewed, qerror_threshold=10.0)
        report = executor.run(skewed[0].query)
        assert report.succeeded
        assert len(executor.feedback) >= 1
        assert executor.optimizer.feedback is executor.feedback

    def test_observability_spans_balance(self, skewed):
        _, rules, weights, _, _ = skewed
        wl = skewed[0]
        tracer = Tracer()
        metrics = MetricsRegistry()
        optimizer = StarburstOptimizer(
            wl.catalog, rules=rules, weights=weights,
            tracer=tracer, metrics=metrics,
        )
        executor = AdaptiveExecutor(
            wl.database, optimizer, qerror_threshold=10.0,
            tracer=tracer, metrics=metrics,
        )
        report = executor.run(wl.query)
        assert report.succeeded
        assert tracer.open_spans == 0
        names = {e.name for e in tracer.events() if e.cat == "robust"}
        assert {"attempt", "checkpoint", "feedback_record"} <= names
        snapshot = metrics.snapshot()
        assert snapshot["adaptive.violations"] >= 1
        assert snapshot["checkpoint.violations"] >= 1

    def test_metrics_of_a_run_render_as_valid_openmetrics(self, skewed):
        """Regression: the feedback cache mirrored ``feedback.hits`` /
        ``.misses`` / ``.records`` into the registry as counters and the
        executor ingested the same names as gauges — two ``# TYPE`` lines
        a scraper rejects.  The cache is read, once, under one kind."""
        wl, rules, weights, _, _ = skewed
        metrics = MetricsRegistry()
        optimizer = StarburstOptimizer(
            wl.catalog, rules=rules, weights=weights, metrics=metrics
        )
        executor = AdaptiveExecutor(
            wl.database, optimizer, qerror_threshold=10.0, metrics=metrics
        )
        assert executor.run(wl.query).succeeded
        assert not set(metrics.counters()) & set(metrics.gauges())
        validate_openmetrics(render_openmetrics(metrics))
        snapshot = metrics.snapshot()
        assert snapshot["feedback.records"] == executor.feedback.records >= 1
        assert snapshot["feedback.hits"] == executor.feedback.hits
        assert snapshot["feedback.entries"] == len(executor.feedback)

    def test_as_dict_is_flat_numeric(self, skewed):
        report = _adaptive(skewed, qerror_threshold=10.0).run(skewed[0].query)
        snapshot = report.as_dict()
        assert all(isinstance(v, (int, float)) for v in snapshot.values())
        assert snapshot["succeeded"] == 1.0
