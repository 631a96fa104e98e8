"""The plan-template cache: band guards, LRU, and the drift breaker."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.optimizer import StarburstOptimizer
from repro.query.parser import parse_query
from repro.robust import FeedbackCache
from repro.serve import PlanTemplateCache
from repro.workloads import chain_workload


@pytest.fixture(scope="module")
def workload():
    return chain_workload(3, rows=40)


@pytest.fixture(scope="module")
def optimizer(workload):
    return StarburstOptimizer(workload.catalog)


def _query(workload, sql):
    return parse_query(sql, workload.catalog)


def _optimize_and_insert(cache, optimizer, query, tier="full"):
    result = optimizer.optimize(query)
    cache.insert(query, result.best_plan, result.best_cost, tier=tier)
    return result


class TestLookup:
    def test_cold_miss_then_hit(self, workload, optimizer):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache())
        q = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        assert cache.lookup(q) is None
        _optimize_and_insert(cache, optimizer, q)
        entry = cache.lookup(q)
        assert entry is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_template_different_constant_hits(self, workload, optimizer):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache())
        q5 = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        q9 = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 24")
        _optimize_and_insert(cache, optimizer, q5)
        assert cache.lookup(q9) is not None

    def test_out_of_band_constant_misses(self, workload, optimizer):
        """A constant whose selectivity leaves the entry's band forces a
        fresh optimization (counted as a band miss)."""
        cache = PlanTemplateCache(workload.catalog, FeedbackCache(), band_factor=2.0)
        narrow = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 2")
        wide = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 95")
        _optimize_and_insert(cache, optimizer, narrow)
        assert cache.lookup(wide) is None
        assert cache.stats.band_misses == 1

    def test_capacity_zero_disables(self, workload, optimizer):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache(), capacity=0)
        q = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        result = optimizer.optimize(q)
        assert cache.insert(q, result.best_plan, result.best_cost) is None
        assert cache.lookup(q) is None
        assert not cache.enabled
        assert len(cache) == 0


class TestLRU:
    def test_eviction_drops_least_recently_used(self, workload, optimizer):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache(), capacity=2)
        qs = [
            _query(workload, f"SELECT R0.ID FROM R0 WHERE R0.VAL {op} 20")
            for op in ("<", ">=")
        ]
        join = _query(
            workload, "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK"
        )
        for q in qs:
            _optimize_and_insert(cache, optimizer, q)
        assert cache.lookup(qs[0]) is not None  # refresh qs[0]
        _optimize_and_insert(cache, optimizer, join)  # evicts qs[1]
        assert cache.stats.evictions == 1
        assert cache.lookup(qs[0]) is not None
        assert cache.lookup(qs[1]) is None

    def test_invalidate_drops_one_template(self, workload, optimizer):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache())
        q = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        _optimize_and_insert(cache, optimizer, q)
        assert cache.invalidate(q)
        assert not cache.invalidate(q)
        assert cache.lookup(q) is None


class TestDriftBreaker:
    def _drifting_cache(self, workload, optimizer, threshold=3):
        feedback = FeedbackCache()
        metrics = MetricsRegistry()
        cache = PlanTemplateCache(
            workload.catalog, feedback,
            drift_threshold=10.0, breaker_threshold=threshold,
            metrics=metrics,
        )
        q = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        _optimize_and_insert(cache, optimizer, q)
        entry = cache.lookup_stale(q)
        # Runtime observes 100x the optimizer's estimate for this query.
        feedback.record(*entry.exact_key, entry.estimated_card * 100.0)
        return cache, q, metrics

    def test_consecutive_drift_trips_breaker(self, workload, optimizer):
        cache, q, metrics = self._drifting_cache(workload, optimizer)
        assert cache.lookup(q) is not None  # failure 1: grace window
        assert cache.lookup(q) is not None  # failure 2
        assert cache.lookup(q) is None  # failure 3: breaker trips
        assert cache.stats.breaker_trips == 1
        assert cache.stats.drift_failures == 3
        assert metrics.snapshot()["serve.cache.breaker_trips"] == 1
        # Once open, every fresh lookup misses without more drift checks.
        assert cache.lookup(q) is None
        assert cache.stats.breaker_trips == 1

    def test_in_threshold_observation_resets_failures(
        self, workload, optimizer
    ):
        feedback = FeedbackCache()
        cache = PlanTemplateCache(
            workload.catalog, feedback,
            drift_threshold=10.0, breaker_threshold=2,
        )
        q = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        _optimize_and_insert(cache, optimizer, q)
        entry = cache.lookup_stale(q)
        feedback.record(*entry.exact_key, entry.estimated_card * 50.0)
        assert cache.lookup(q) is not None  # failure 1
        # The observation swings back in-threshold: failures reset.
        feedback.record(*entry.exact_key, entry.estimated_card)
        assert cache.lookup(q) is not None
        assert entry.drift_failures == 0
        feedback.record(*entry.exact_key, entry.estimated_card * 50.0)
        assert cache.lookup(q) is not None  # failure 1 again, not 2
        assert cache.stats.breaker_trips == 0

    def test_stale_lookup_ignores_open_breaker(self, workload, optimizer):
        cache, q, _ = self._drifting_cache(workload, optimizer)
        for _ in range(3):
            cache.lookup(q)
        assert cache.lookup(q) is None
        stale = cache.lookup_stale(q)
        assert stale is not None
        assert stale.open
        assert cache.stats.stale_hits >= 1

    def test_reinsert_closes_breaker(self, workload, optimizer):
        cache, q, _ = self._drifting_cache(workload, optimizer)
        for _ in range(3):
            cache.lookup(q)
        assert cache.lookup(q) is None
        # Re-optimize with feedback steering the estimate; the fresh
        # entry's estimate now matches the observation, so lookups hit.
        feedback_optimizer = StarburstOptimizer(
            workload.catalog, feedback=cache.feedback
        )
        _optimize_and_insert(cache, feedback_optimizer, q)
        entry = cache.lookup(q)
        assert entry is not None
        assert not entry.open
        assert entry.drift_failures == 0

    def test_no_feedback_means_no_drift(self, workload, optimizer):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache())
        q = _query(workload, "SELECT R0.ID FROM R0 WHERE R0.VAL < 20")
        _optimize_and_insert(cache, optimizer, q)
        for _ in range(10):
            assert cache.lookup(q) is not None
        assert cache.stats.drift_checks == 0


class TestValidation:
    def test_bad_parameters_rejected(self, workload):
        with pytest.raises(ValueError):
            PlanTemplateCache(workload.catalog, FeedbackCache(), capacity=-1)
        with pytest.raises(ValueError):
            PlanTemplateCache(workload.catalog, FeedbackCache(), band_factor=0.5)
        with pytest.raises(ValueError):
            PlanTemplateCache(workload.catalog, FeedbackCache(), drift_threshold=0.9)
        with pytest.raises(ValueError):
            PlanTemplateCache(workload.catalog, FeedbackCache(), breaker_threshold=0)

    def test_stats_snapshot_is_flat_numeric(self, workload):
        cache = PlanTemplateCache(workload.catalog, FeedbackCache())
        snapshot = cache.stats.as_dict()
        assert snapshot["lookups"] == 0
        assert snapshot["hit_rate"] == 0.0
        assert all(isinstance(v, (int, float)) for v in snapshot.values())
