"""The cardinality feedback cache and the optimizer's one lookup of it."""

from __future__ import annotations

import pytest

from repro.cost.propfuncs import PlanFactory
from repro.obs import MetricsRegistry, Tracer
from repro.optimizer import StarburstOptimizer
from repro.query.parser import parse_predicate
from repro.robust import FeedbackCache


@pytest.fixture()
def mgr_preds(catalog):
    return frozenset(
        {parse_predicate("DEPT.MGR = 'Haas'", catalog, ("DEPT", "EMP"))}
    )


class TestCache:
    def test_record_then_lookup_roundtrip(self, mgr_preds):
        cache = FeedbackCache()
        cache.record({"DEPT"}, mgr_preds, 3.0)
        assert cache.lookup({"DEPT"}, mgr_preds) == 3.0
        assert len(cache) == 1

    def test_key_is_set_valued_and_order_free(self, catalog, join_pred):
        cache = FeedbackCache()
        cache.record(["EMP", "DEPT"], [join_pred], 42.0)
        assert cache.lookup(["DEPT", "EMP"], (join_pred,)) == 42.0

    def test_miss_returns_none_and_counts(self, mgr_preds):
        cache = FeedbackCache()
        assert cache.lookup({"DEPT"}, mgr_preds) is None
        cache.record({"DEPT"}, mgr_preds, 5.0)
        cache.lookup({"DEPT"}, mgr_preds)
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.as_dict()["hit_rate"] == 0.5

    def test_later_observation_wins(self, mgr_preds):
        cache = FeedbackCache()
        cache.record({"DEPT"}, mgr_preds, 3.0)
        cache.record({"DEPT"}, mgr_preds, 7.0)
        assert cache.lookup({"DEPT"}, mgr_preds) == 7.0
        assert cache.records == 2

    def test_adjust_overrides_estimate_only_on_hit(self, mgr_preds):
        cache = FeedbackCache()
        assert cache.adjust({"DEPT"}, mgr_preds, 99.0) == 99.0
        cache.record({"DEPT"}, mgr_preds, 2.0)
        assert cache.adjust({"DEPT"}, mgr_preds, 99.0) == 2.0

    def test_empty_cache_is_truthy(self):
        # Callers guard with ``is None``; an empty cache must not read
        # as absent.
        assert bool(FeedbackCache())

    def test_observability_hooks(self, mgr_preds):
        tracer = Tracer()
        metrics = MetricsRegistry()
        cache = FeedbackCache(tracer=tracer, metrics=metrics)
        cache.record({"DEPT"}, mgr_preds, 3.0)
        cache.adjust({"DEPT"}, mgr_preds, 50.0)
        names = [e.name for e in tracer.events()]
        assert "feedback_record" in names
        assert "feedback_hit" in names
        snapshot = metrics.snapshot()
        assert snapshot["feedback.records"] == 1
        assert snapshot["feedback.hits"] == 1


class TestFactoryLookup:
    """``PlanFactory._feedback_card`` is the optimizer's one feedback
    lookup; a factory whose cache holds no observation skips it."""

    def test_no_feedback_passes_estimate_through(self, catalog, mgr_preds):
        factory = PlanFactory(catalog)
        assert factory._feedback_card({"DEPT"}, mgr_preds, 17.5) == 17.5

    def test_empty_cache_is_not_looked_up(self, catalog, mgr_preds):
        cache = FeedbackCache()
        factory = PlanFactory(catalog, feedback=cache)
        assert factory._feedback_card({"DEPT"}, mgr_preds, 17.5) == 17.5
        assert cache.misses == 0

    def test_feedback_corrects_estimate(self, catalog, mgr_preds):
        cache = FeedbackCache()
        cache.record({"DEPT"}, mgr_preds, 4.0)
        factory = PlanFactory(catalog, feedback=cache)
        assert factory._feedback_card({"DEPT"}, mgr_preds, 17.5) == 4.0
        assert factory._feedback_card({"EMP"}, frozenset(), 9.0) == 9.0
        assert (cache.hits, cache.misses) == (1, 1)


class TestOptimizerIntegration:
    def test_no_observation_no_lookup(self, catalog, fig1_query):
        """An optimizer that never recorded feedback looks nothing up:
        it pays what an optimizer without a cache did."""
        optimizer = StarburstOptimizer(catalog)
        optimizer.optimize(fig1_query)
        assert optimizer.feedback.misses == 0
        assert len(optimizer.feedback) == 0

    def test_feedback_changes_estimated_cardinality(self, catalog, fig1_query):
        baseline = StarburstOptimizer(catalog).optimize(fig1_query)

        cache = FeedbackCache()
        mgr = parse_predicate("DEPT.MGR = 'Haas'", catalog, ("DEPT", "EMP"))
        cache.record({"DEPT"}, {mgr}, 1.0)
        corrected = StarburstOptimizer(
            catalog, feedback=cache
        ).optimize(fig1_query)

        # The selection on DEPT was estimated at card/n_distinct = 2;
        # feedback pins it to the observed 1 row, which propagates into
        # the join estimate.
        assert corrected.best_plan.props.card < baseline.best_plan.props.card
        assert cache.hits > 0

    def test_unrelated_feedback_changes_nothing(self, catalog, fig1_query):
        baseline = StarburstOptimizer(catalog).optimize(fig1_query)
        cache = FeedbackCache()
        cache.record({"NOT_A_TABLE"}, frozenset(), 123.0)
        corrected = StarburstOptimizer(
            catalog, feedback=cache
        ).optimize(fig1_query)
        assert corrected.best_plan.props.card == pytest.approx(
            baseline.best_plan.props.card
        )
        assert corrected.best_cost == pytest.approx(baseline.best_cost)


class TestBoundedCapacity:
    """The cache is LRU-bounded: a long-running server must not leak."""

    def test_capacity_evicts_oldest(self):
        cache = FeedbackCache(capacity=2)
        cache.record({"A"}, [], 1.0)
        cache.record({"B"}, [], 2.0)
        cache.record({"C"}, [], 3.0)  # evicts A
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup({"A"}, []) is None
        assert cache.lookup({"B"}, []) == 2.0
        assert cache.lookup({"C"}, []) == 3.0

    def test_lookup_refreshes_recency(self):
        cache = FeedbackCache(capacity=2)
        cache.record({"A"}, [], 1.0)
        cache.record({"B"}, [], 2.0)
        assert cache.lookup({"A"}, []) == 1.0  # A becomes most recent
        cache.record({"C"}, [], 3.0)  # evicts B, not A
        assert cache.lookup({"A"}, []) == 1.0
        assert cache.lookup({"B"}, []) is None

    def test_rerecord_updates_without_eviction(self):
        cache = FeedbackCache(capacity=2)
        cache.record({"A"}, [], 1.0)
        cache.record({"B"}, [], 2.0)
        cache.record({"A"}, [], 9.0)
        assert cache.evictions == 0
        assert cache.lookup({"A"}, []) == 9.0

    def test_eviction_metric_exported(self):
        metrics = MetricsRegistry()
        cache = FeedbackCache(metrics=metrics, capacity=1)
        cache.record({"A"}, [], 1.0)
        cache.record({"B"}, [], 2.0)
        assert metrics.snapshot()["feedback.evictions"] == 1
        assert cache.as_dict()["evictions"] == 1.0
        assert cache.as_dict()["capacity"] == 1.0

    def test_unbounded_when_capacity_none(self):
        cache = FeedbackCache(capacity=None)
        for i in range(5000):
            cache.record({f"T{i}"}, [], float(i))
        assert len(cache) == 5000
        assert cache.evictions == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FeedbackCache(capacity=0)

    def test_peek_counts_nothing_and_keeps_recency(self):
        cache = FeedbackCache(capacity=2)
        cache.record({"A"}, [], 1.0)
        cache.record({"B"}, [], 2.0)
        assert cache.peek({"A"}, []) == 1.0
        assert cache.hits == 0 and cache.misses == 0
        cache.record({"C"}, [], 3.0)  # peek did NOT refresh A: A evicted
        assert cache.peek({"A"}, []) is None
        assert cache.misses == 0
