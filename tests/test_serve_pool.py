"""The supervised optimizer pool: dispatch, crashes, hangs, respawns."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, Tracer, validate_jsonl
from repro.optimizer.batch import BatchSpec
from repro.serve.pool import OptimizerPool, PoolChaos, PoolConfig
from repro.workloads import chain_workload

SQL = "SELECT R0.ID, R2.ID FROM R0, R1, R2 WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
SQL_BAD = "SELECT NOPE.ID FROM NOPE"


@pytest.fixture(scope="module")
def spec():
    return BatchSpec(catalog=chain_workload(3, rows=40).catalog)


def _pool(spec, chaos=None, **overrides) -> OptimizerPool:
    defaults = dict(workers=1, request_timeout=30.0, respawn_budget=3)
    defaults.update(overrides)
    return OptimizerPool(spec, PoolConfig(**defaults), chaos=chaos)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(workers=0)
        with pytest.raises(ValueError):
            PoolConfig(request_timeout=0)
        with pytest.raises(ValueError):
            PoolConfig(respawn_budget=-1)

    def test_chaos_validation(self):
        with pytest.raises(ValueError):
            PoolChaos(crash_prob=1.5)
        with pytest.raises(ValueError):
            PoolChaos(poison_action="explode")

    def test_chaos_decide_is_deterministic(self):
        chaos = PoolChaos(seed=7, crash_prob=0.3, hang_prob=0.2)
        first = [chaos.decide(seq, None) for seq in range(50)]
        second = [chaos.decide(seq, None) for seq in range(50)]
        assert first == second
        assert "crash" in first  # the probabilities actually fire

    def test_poison_template_always_takes_its_action(self):
        chaos = PoolChaos(
            seed=7, poison_templates=frozenset({"T9"}), poison_action="hang"
        )
        assert all(chaos.decide(seq, "T9") == "hang" for seq in range(20))
        assert all(chaos.decide(seq, "T0") is None for seq in range(20))


class TestDispatch:
    def test_plain_optimization_round_trips(self, spec):
        with _pool(spec) as pool:
            result = pool.optimize(SQL, seq=0)
        assert result.ok
        assert result.failure is None
        assert result.plan is not None
        assert result.best_cost > 0
        assert result.plan.digest  # the plan crossed the pipe whole

    def test_budget_limits_travel_as_shapes(self, spec):
        # Only the deadline crosses the pipe; the worker builds the budget.
        with _pool(spec) as pool:
            result = pool.optimize(SQL, seq=0, deadline_ticks=5)
        assert result.ok
        assert result.budget_exhausted
        assert result.expansions > 0

    def test_optimizer_error_is_data_not_exception(self, spec):
        with _pool(spec) as pool:
            result = pool.optimize(SQL_BAD, seq=0)
            after = pool.optimize(SQL, seq=1)
        assert not result.ok
        assert result.failure == "error"
        assert result.error
        # An in-worker error neither kills the worker nor costs a respawn.
        assert after.ok
        assert pool.stats.respawns == 0

    def test_close_is_idempotent(self, spec):
        pool = _pool(spec)
        pool.close()
        pool.close()
        assert pool.degraded


class TestCrashRecovery:
    def test_crash_detected_and_respawned(self, spec):
        chaos = PoolChaos(
            seed=1, poison_templates=frozenset({"boom"}),
            poison_action="crash",
        )
        with _pool(spec, chaos=chaos) as pool:
            crashed = pool.optimize(SQL, seq=0, template="boom")
            recovered = pool.optimize(SQL, seq=1, template="fine")
            assert not crashed.ok
            assert crashed.failure == "crash"
            assert crashed.respawned
            assert recovered.ok
            assert pool.stats.crashes == 1
            assert pool.stats.respawns == 1

    def test_hang_killed_on_timeout(self, spec):
        chaos = PoolChaos(
            seed=1, poison_templates=frozenset({"zzz"}),
            poison_action="hang", hang_seconds=60.0,
        )
        with _pool(spec, chaos=chaos, request_timeout=0.5) as pool:
            hung = pool.optimize(SQL, seq=0, template="zzz")
            recovered = pool.optimize(SQL, seq=1)
            assert not hung.ok
            assert hung.failure == "timeout"
            assert recovered.ok
            assert pool.stats.timeouts == 1

    def test_exhausted_respawn_budget_degrades(self, spec):
        chaos = PoolChaos(
            seed=1, poison_templates=frozenset({"boom"}),
            poison_action="crash",
        )
        with _pool(spec, chaos=chaos, respawn_budget=1) as pool:
            assert pool.optimize(SQL, seq=0, template="boom").failure == "crash"
            assert pool.optimize(SQL, seq=1, template="boom").failure == "crash"
            assert not pool.available
            degraded = pool.optimize(SQL, seq=2)
            assert degraded.failure == "degraded"
            # Degraded dispatches are cheap: nothing was sent anywhere.
            assert pool.stats.completed == 0

    def test_traced_crash_validates(self, spec):
        """A pool that lost a worker leaves a trace the schema accepts."""
        tracer = Tracer()
        chaos = PoolChaos(
            seed=1, poison_templates=frozenset({"bad"}),
            poison_action="crash",
        )
        pool = OptimizerPool(
            spec, PoolConfig(workers=1, respawn_budget=2), chaos=chaos,
            tracer=tracer,
        )
        try:
            assert pool.optimize(SQL, seq=0, template="bad").failure == "crash"
        finally:
            pool.close()
        assert {e.name for e in tracer.events()} >= {"worker_failed", "worker_respawned"}
        assert validate_jsonl(tracer.to_jsonl()) == []

    def test_metrics_emitted(self, spec):
        metrics = MetricsRegistry()
        chaos = PoolChaos(
            seed=1, poison_templates=frozenset({"boom"}),
            poison_action="crash",
        )
        pool = OptimizerPool(
            spec, PoolConfig(workers=1, respawn_budget=2), chaos=chaos,
            metrics=metrics,
        )
        try:
            pool.optimize(SQL, seq=0, template="boom")
            pool.optimize(SQL, seq=1)
        finally:
            pool.close()
        snapshot = metrics.snapshot()
        assert snapshot["pool.dispatched"] == 2
        assert snapshot["pool.completed"] == 1
        assert snapshot["pool.crashes"] == 1
        assert snapshot["pool.respawns"] == 1
