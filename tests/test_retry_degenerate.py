"""Degenerate corners of the robustness knobs.

Two boundary cases the chaos/failover machinery must get right:

* a :class:`RetryPolicy` with ``max_attempts=1`` — retries disabled —
  must behave exactly like a plain single attempt, never pausing;
* ``retain_site_diversity`` pruning when every replica and table lives
  on ONE site — the diversity constraint is vacuous (all footprints are
  equal) and must neither crash nor keep extra plans alive.
"""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.cost.model import CostModel
from repro.errors import LinkError
from repro.executor import QueryExecutor
from repro.executor.chaos import ChaosConfig, ChaosEngine, RetryPolicy, SimClock
from repro.executor.network import NetworkSim
from repro.optimizer import StarburstOptimizer
from repro.plans.sap import SAP, merge_pruned
from repro.query.expressions import ColumnRef
from repro.workloads import chain_workload

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")


class TestSingleAttemptPolicy:
    def test_max_attempts_one_equals_no_retries(self):
        assert RetryPolicy(max_attempts=1) == RetryPolicy.no_retries()

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_fewer_than_one_attempt_rejected(self, bad):
        with pytest.raises(ValueError, match="at least 1"):
            RetryPolicy(max_attempts=bad)

    def test_first_transient_error_is_fatal(self):
        engine = ChaosEngine(ChaosConfig(seed=0, link_failure_prob=1.0))
        clock = SimClock()
        net = NetworkSim(
            chaos=engine, retry=RetryPolicy(max_attempts=1), clock=clock
        )
        with pytest.raises(LinkError):
            net.transfer("A", "B", tuples=1, nbytes=10)
        link = net.links[("A", "B")]
        assert link.attempts == 1
        assert link.retries == 0
        # No retry ever happened, so no backoff was ever slept.
        assert net.total_backoff == 0.0
        assert clock.now == 0.0

    def test_clean_link_unaffected_by_degenerate_policy(self):
        net = NetworkSim(retry=RetryPolicy(max_attempts=1))
        net.transfer("A", "B", tuples=5, nbytes=50)
        assert net.links[("A", "B")].tuples == 5

    def test_backoff_schedule_still_well_defined(self):
        # backoff() is never consulted at max_attempts=1, but the
        # schedule must remain valid (callers may print it).
        policy = RetryPolicy(max_attempts=1, base_backoff=0.25)
        assert policy.backoff(1) == pytest.approx(0.25)
        assert policy.backoff(50) == policy.max_backoff


class TestSiteDiversitySingleSite:
    def test_pruning_is_identical_to_plain_dominance(self, factory, catalog):
        # Both alternatives read DEPT at its one site: equal footprints,
        # so the diversity clause never protects the pricier plan.
        model = CostModel(catalog)
        scan = factory.access_base("DEPT", {DNO, MGR}, frozenset())
        stored = factory.access_temp(factory.store(scan))
        sap = SAP([scan, stored])
        plain = merge_pruned(SAP(), sap, model)
        diverse = merge_pruned(SAP(), sap, model, site_diversity=True)
        assert {p.digest for p in diverse} == {p.digest for p in plain}

    def test_single_site_workload_optimizes_identically(self):
        workload = chain_workload(3, rows=80, seed=7, n_sites=1)
        baseline = StarburstOptimizer(workload.catalog).optimize(workload.query)
        diverse = StarburstOptimizer(
            workload.catalog,
            config=OptimizerConfig(retain_site_diversity=True),
        ).optimize(workload.query)
        assert diverse.best_cost == pytest.approx(baseline.best_cost)
        rows = QueryExecutor(workload.database).run(
            diverse.query, diverse.best_plan
        )
        expected = QueryExecutor(workload.database).run(
            baseline.query, baseline.best_plan
        )
        assert rows.as_multiset() == expected.as_multiset()
