"""The asyncio serving front end: admission, tiers, tenants, deadlines."""

from __future__ import annotations

import pytest

from repro.executor import QueryExecutor, naive_evaluate
from repro.obs import MetricsRegistry
from repro.query.parser import parse_query
from repro.serve import (
    OptimizerService,
    Request,
    ServiceConfig,
    TIER_ANYTIME,
    TIER_CACHED,
    TIER_FULL,
    TIER_HEURISTIC,
    TIER_REJECTED,
)
from repro.workloads import chain_workload

SQL = "SELECT R0.ID, R2.ID FROM R0, R1, R2 WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
SQL_B = "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK AND R0.VAL < 20"


@pytest.fixture(scope="module")
def workload():
    return chain_workload(3, rows=40)


def _service(workload, **overrides) -> OptimizerService:
    defaults = dict(workers=2, queue_limit=8)
    defaults.update(overrides)
    return OptimizerService(
        workload.catalog, service=ServiceConfig(**defaults)
    )


class TestBasicServing:
    def test_single_request_full_tier(self, workload):
        service = _service(workload)
        [response] = service.serve_all([Request(SQL)])
        assert response.ok
        assert response.tier == TIER_FULL
        assert response.plan_digest
        assert response.best_cost > 0
        assert not response.degraded

    def test_repeat_requests_hit_the_cache(self, workload):
        service = _service(workload)
        responses = service.serve_all([Request(SQL)] * 4, burst=1)
        assert [r.tier for r in responses] == [
            TIER_FULL, TIER_CACHED, TIER_CACHED, TIER_CACHED
        ]
        assert all(r.ok for r in responses)
        assert responses[1].cache_hit
        # Cached responses carry the optimized plan's digest and cost.
        assert responses[1].plan_digest == responses[0].plan_digest
        assert responses[1].best_cost == pytest.approx(responses[0].best_cost)

    def test_a_plan_is_not_reused_for_another_select_list(self):
        """One FROM / WHERE, two SELECT lists: the second request is a
        template of its own, and the plan it is served runs to the naive
        evaluator's rows (it reads a column the first plan never carried)."""
        workload = chain_workload(2, rows=50)
        where = "FROM R0, R1 WHERE R0.ID = R1.FK"
        first, second = f"SELECT R0.ID {where}", f"SELECT R1.TAG {where}"
        service = _service(workload)
        responses = service.serve_all([Request(first), Request(second)], burst=1)
        assert [r.tier for r in responses] == [TIER_FULL, TIER_FULL]
        query = parse_query(second, workload.catalog)
        entry = service.cache.lookup_stale(query)
        assert entry.plan.digest == responses[1].plan_digest
        rows = QueryExecutor(workload.database).run(query, entry.plan).as_multiset()
        assert rows == naive_evaluate(query, workload.database).as_multiset()

    def test_cache_disabled_always_optimizes(self, workload):
        service = _service(workload, cache_capacity=0)
        responses = service.serve_all([Request(SQL)] * 3, burst=1)
        assert all(r.tier == TIER_FULL for r in responses)

    def test_matches_direct_optimizer(self, workload):
        from repro.optimizer import StarburstOptimizer

        direct = StarburstOptimizer(workload.catalog).optimize(SQL)
        service = _service(workload)
        [response] = service.serve_all([Request(SQL)])
        assert response.plan_digest == direct.best_plan.digest
        assert response.best_cost == pytest.approx(direct.best_cost)


class TestAdmissionControl:
    def test_burst_beyond_queue_limit_is_shed(self, workload):
        service = _service(workload, queue_limit=2)
        responses = service.serve_all([Request(SQL)] * 6, burst=6)
        rejected = [r for r in responses if r.rejected]
        served = [r for r in responses if r.ok]
        assert len(rejected) == 4  # deterministic: queue holds exactly 2
        assert len(served) == 2
        assert all(r.tier == TIER_REJECTED for r in rejected)
        assert service.max_queue_depth <= 2

    def test_every_request_resolves(self, workload):
        service = _service(workload, queue_limit=3)
        responses = service.serve_all(
            [Request(SQL), Request(SQL_B)] * 5, burst=10
        )
        assert len(responses) == 10
        for r in responses:
            assert r.ok or r.rejected or r.tier == "error"
        assert not any(r.tier == "error" for r in responses)

    def test_rejections_counted_and_metered(self, workload):
        metrics = MetricsRegistry()
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(workers=1, queue_limit=1),
            metrics=metrics,
        )
        service.serve_all([Request(SQL)] * 4, burst=4)
        report = service.report()
        assert report.rejections == 3
        assert metrics.snapshot()["serve.rejected"] == 3


class TestDegradationTiers:
    def test_tight_deadline_forces_heuristic(self, workload):
        service = _service(workload)
        [response] = service.serve_all([Request(SQL, deadline_ticks=10)])
        assert response.ok
        assert response.tier == TIER_HEURISTIC
        assert response.degraded
        assert response.plan_digest

    def test_moderate_deadline_forces_anytime(self, workload):
        service = _service(workload)
        [response] = service.serve_all([Request(SQL, deadline_ticks=1500)])
        assert response.ok
        assert response.tier in (TIER_ANYTIME, TIER_FULL)
        # The tier label is anytime even when the budget happened to
        # suffice — admission picked the capped path.
        assert response.tier == TIER_ANYTIME or not response.budget_exhausted

    def test_heuristic_tier_is_a_runnable_plan(self, workload):
        from repro.executor import QueryExecutor, naive_evaluate
        from repro.query.parser import parse_query

        service = _service(workload)
        [response] = service.serve_all([Request(SQL, deadline_ticks=10)])
        query = parse_query(SQL, workload.catalog)
        result = service.optimizer.optimize_heuristic(query)
        assert result.best_plan.digest == response.plan_digest
        rows = QueryExecutor(workload.database).run(query, result.best_plan)
        assert rows.as_multiset() == naive_evaluate(
            query, workload.database
        ).as_multiset()

    def test_load_shifts_tiers_under_pressure(self, workload):
        """With a saturated queue the workers must degrade: nothing but
        the first (empty-queue) request may be served full."""
        service = _service(
            workload, workers=1, queue_limit=8, cache_capacity=0,
            anytime_load=0.25, heuristic_load=0.5, stale_load=2.0,
        )
        responses = service.serve_all([Request(SQL)] * 8, burst=8)
        tiers = [r.tier for r in responses]
        assert all(r.ok for r in responses)
        assert any(t in (TIER_ANYTIME, TIER_HEURISTIC) for t in tiers)

    def test_report_labels_every_tier(self, workload):
        service = _service(workload, queue_limit=2)
        service.serve_all(
            [Request(SQL), Request(SQL, deadline_ticks=10)] * 3, burst=6
        )
        report = service.report()
        assert report.requests == 6
        assert sum(report.tiers.values()) == 6
        assert "tiers:" in report.summary()


class TestTenantBudgets:
    def test_exhaustion_never_leaks_between_requests(self, workload):
        """A request that exhausts its budget must not poison the next
        request of the same tenant."""
        service = _service(workload, anytime_ticks=30)
        [starved] = service.serve_all([Request(SQL, deadline_ticks=1500)])
        assert starved.ok
        assert starved.budget_exhausted
        assert starved.tier == TIER_ANYTIME
        # Same tenant, no deadline: the full search must run unimpeded.
        service.cache = type(service.cache)(
            workload.catalog, service.feedback, capacity=0
        )
        [fresh] = service.serve_all([Request(SQL)])
        assert fresh.ok
        assert fresh.tier == TIER_FULL
        assert not fresh.budget_exhausted

    def test_unbudgeted_full_tier_has_no_budget(self, workload):
        service = _service(workload)
        [response] = service.serve_all([Request(SQL, tenant="t")])
        assert response.tier == TIER_FULL and not response.budget_exhausted
        assert response.budget_expansions > 0  # unlimited still counts


class TestErrorHandling:
    def test_invalid_query_yields_error_response(self, workload):
        service = _service(workload)
        [response] = service.serve_all([Request("SELECT 1 FROM NOPE")])
        assert not response.ok
        assert response.tier == "error"
        assert response.error
        report = service.report()
        assert report.errors == 1

    def test_error_does_not_poison_subsequent_requests(self, workload):
        service = _service(workload)
        responses = service.serve_all(
            [Request("SELECT 1 FROM NOPE"), Request(SQL)], burst=1
        )
        assert responses[0].tier == "error"
        assert responses[1].ok

    def test_submit_before_start_raises(self, workload):
        service = _service(workload)
        with pytest.raises(RuntimeError):
            service.submit_nowait(Request(SQL))


class TestCrashSafety:
    """E17 integration: expired shedding, fast shutdown, pool routing."""

    def test_expired_in_queue_is_shed_distinctly(self, workload):
        import asyncio

        from repro.serve import TIER_EXPIRED

        async def drive():
            service = _service(workload, workers=1)
            async with service:
                future = service.submit_nowait(
                    Request(SQL, deadline_seconds=0.0)
                )
                return service, await future

        service, response = asyncio.run(drive())
        assert not response.ok
        assert response.rejected
        assert response.tier == TIER_EXPIRED
        assert service.metrics.snapshot()["serve.expired"] == 1

    def test_fast_stop_resolves_queued_with_shutdown(self, workload):
        import asyncio

        from repro.serve import TIER_SHUTDOWN

        async def drive():
            service = _service(workload, workers=1)
            await service.start()
            futures = [service.submit_nowait(Request(SQL)) for _ in range(5)]
            await service.stop(drain=False)
            return service, await asyncio.gather(*futures)

        service, responses = asyncio.run(drive())
        shed = [r for r in responses if r.tier == TIER_SHUTDOWN]
        assert shed, "fast stop should shed still-queued requests"
        for response in shed:
            assert not response.ok
            assert response.rejected
        # Accounting invariant: every response is ok, rejected, or error.
        assert all(r.ok or r.rejected or r.tier == "error" for r in responses)

    def test_submit_after_stop_returns_shutdown_response(self, workload):
        import asyncio

        from repro.serve import TIER_SHUTDOWN

        async def drive():
            service = _service(workload)
            async with service:
                pass  # started, drained, stopped
            return await service.submit_nowait(Request(SQL))

        response = asyncio.run(drive())
        assert not response.ok
        assert response.rejected
        assert response.tier == TIER_SHUTDOWN

    def test_pooled_full_tier_round_trips(self, workload):
        service = _service(workload, pool_workers=1)
        try:
            responses = service.serve_all([Request(SQL), Request(SQL)])
            assert [r.tier for r in responses] == [TIER_FULL, TIER_CACHED]
            assert responses[0].pooled
            assert not responses[1].pooled  # cache hits skip the pool
            assert responses[0].plan_digest == responses[1].plan_digest
        finally:
            service.close()

    def test_pool_matches_inline_plans(self, workload):
        inline = _service(workload)
        [inline_response] = inline.serve_all([Request(SQL)])
        pooled = _service(workload, pool_workers=1)
        try:
            [pooled_response] = pooled.serve_all([Request(SQL)])
        finally:
            pooled.close()
        assert pooled_response.plan_digest == inline_response.plan_digest
        assert pooled_response.best_cost == pytest.approx(
            inline_response.best_cost
        )
        # Regression: a worker built no budget for an unlimited tier and
        # answered 0 expansions where the loop answered the real count.
        assert (
            pooled_response.budget_expansions
            == inline_response.budget_expansions
            > 0
        )

    def test_crash_fails_over_and_quarantines(self, workload):
        from repro.serve import PoolChaos

        chaos = PoolChaos(
            seed=11, poison_templates=frozenset({"poison"}),
            poison_action="crash",
        )
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=8, pool_workers=1,
                pool_respawn_budget=8, quarantine_strikes=2,
                cache_capacity=0,
            ),
            pool_chaos=chaos,
        )
        try:
            responses = service.serve_all(
                [Request(SQL, template="poison") for _ in range(4)], burst=1
            )
            # Every request still resolves with a plan.
            assert all(r.ok and r.tier == TIER_HEURISTIC for r in responses)
            assert [r.pool_failure for r in responses] == [
                "crash", "crash", None, None
            ]
            assert [r.quarantined for r in responses] == [
                False, False, True, True
            ]
            # Quarantined requests never touched the pool.
            assert service.pool.stats.dispatched == 2
            assert service.metrics.snapshot()["serve.quarantined"] == 1
        finally:
            service.close()

    def test_select_lists_over_one_poison_shape_share_strikes(self, workload):
        """The quarantine keys on the FROM / WHERE shape: two SELECT lists
        over one crashing FROM / WHERE strike one template, so varying
        the projection cannot keep burning the respawn budget."""
        from repro.serve import PoolChaos

        chaos = PoolChaos(
            seed=11, poison_templates=frozenset({"poison"}),
            poison_action="crash",
        )
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=8, pool_workers=1,
                pool_respawn_budget=8, quarantine_strikes=2,
                cache_capacity=0,
            ),
            pool_chaos=chaos,
        )
        where = "FROM R0, R1, R2 WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
        sqls = [f"SELECT R0.ID {where}", f"SELECT R2.TAG {where}"] * 2
        try:
            responses = service.serve_all(
                [Request(sql, template="poison") for sql in sqls], burst=1
            )
            assert all(r.ok and r.tier == TIER_HEURISTIC for r in responses)
            assert [r.pool_failure for r in responses] == [
                "crash", "crash", None, None
            ]
            assert [r.quarantined for r in responses] == [
                False, False, True, True
            ]
            assert service.pool.stats.dispatched == 2
        finally:
            service.close()

    def test_seeded_crash_and_hang_stream_resolves_labeled(self):
        """Experiment E17 part A: a generated stream through a one-worker
        pool whose workers crash and hang on seeded requests.  Every
        request still gets a plan, and the ``pool_failure`` labels are
        exactly the injected faults.  (30 requests, not E17's smoke 24:
        seed 17 draws four hangs first and its first crash at seq 28.)"""
        from repro.serve import LoadSpec, PoolChaos, generate

        stream_workload, requests = generate(
            LoadSpec(n_tables=3, rows=60, wild_fraction=0.0,
                     deadline_fraction=0.0),
            30,
        )
        chaos = PoolChaos(seed=17, crash_prob=0.2, hang_prob=0.04)
        service = OptimizerService(
            stream_workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=64, cache_capacity=0,
                pool_workers=1, pool_timeout=0.5, pool_respawn_budget=64,
                quarantine_strikes=0,
            ),
            pool_chaos=chaos,
        )
        try:
            responses = service.serve_all(requests, burst=4)
            stats = service.pool.stats
            assert stats.crashes > 0 and stats.timeouts > 0
            assert all(r.ok for r in responses)
            # No cache and one service worker: request i is dispatch i.
            label = {"crash": "crash", "hang": "timeout", None: None}
            assert [r.pool_failure for r in responses] == [
                label[chaos.decide(seq, None)] for seq in range(30)
            ]
            assert all(
                r.tier == TIER_HEURISTIC for r in responses if r.pool_failure
            )
        finally:
            service.close()

    def test_pool_survives_serve_all_restarts(self, workload):
        service = _service(workload, pool_workers=1)
        try:
            [first] = service.serve_all([Request(SQL)])
            pool = service.pool
            [second] = service.serve_all([Request(SQL_B)])
            assert service.pool is pool  # same pool across stop/start
            assert first.ok and second.ok
        finally:
            service.close()

    def test_periodic_snapshots(self, workload, tmp_path):
        path = str(tmp_path / "periodic.jsonl")
        service = _service(
            workload, workers=1, snapshot_path=path, snapshot_every=2
        )
        service.serve_all(
            [Request(SQL), Request(SQL_B), Request(SQL), Request(SQL_B)],
            burst=1,
        )
        # 4 handled requests / every 2 = 2 periodic + 1 on stop.
        assert service.snapshot_saves == 3
        assert service.metrics.snapshot()["snapshot.saves"] == 3
