"""SAP-driven plan failover, replicas, the accounting of the recovery
loop, and optimizer failure diagnostics."""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    ChaosConfig,
    ChaosEngine,
    OptimizerConfig,
    QueryExecutor,
    ResilientExecutor,
    RetryPolicy,
    StarburstOptimizer,
    naive_evaluate,
)
from repro.errors import CatalogError, NetworkError, OptimizationError
from repro.plans.plan import plan_links, plan_sites
from repro.stars.builtin_rules import extended_rules
from repro.workloads import skewed_workload
from repro.workloads.paper import figure1_query, paper_catalog, paper_database


@pytest.fixture(scope="module")
def replicated_setup():
    """Figure-3 placement with DEPT replicated at S.F., optimized with
    site-diversity pruning so the SAP keeps the replica alternatives."""
    catalog = paper_catalog(distributed=True, replicate_dept=True)
    database = paper_database(catalog)
    query = figure1_query(catalog)
    optimizer = StarburstOptimizer(
        catalog, config=OptimizerConfig(retain_site_diversity=True)
    )
    result = optimizer.optimize(query)
    return catalog, database, query, optimizer, result


class TestReplicaCatalog:
    def test_storage_sites_primary_first(self, replicated_setup):
        catalog = replicated_setup[0]
        assert catalog.storage_sites("DEPT") == ("N.Y.", "S.F.")
        assert catalog.storage_sites("EMP") == ("L.A.",)

    def test_replica_at_primary_site_rejected(self):
        catalog = paper_catalog(distributed=True)
        with pytest.raises(CatalogError, match="primary"):
            catalog.add_replica("DEPT", "N.Y.")


class TestSiteDiverseSAP:
    def test_sap_contains_replica_alternative(self, replicated_setup):
        result = replicated_setup[4]
        footprints = {frozenset(plan_sites(p)) for p in result.alternatives}
        assert frozenset({"L.A.", "N.Y."}) in footprints
        assert frozenset({"L.A.", "S.F."}) in footprints

    def test_best_plan_reads_primary(self, replicated_setup):
        result = replicated_setup[4]
        assert "N.Y." in plan_sites(result.best_plan)

    def test_default_pruning_unchanged_without_flag(self):
        """Without retain_site_diversity, equal-cost replica plans
        collapse to one representative — default behaviour is untouched."""
        catalog = paper_catalog(distributed=True, replicate_dept=True)
        result = StarburstOptimizer(catalog).optimize(figure1_query(catalog))
        diverse_catalog = paper_catalog(distributed=True, replicate_dept=True)
        diverse = StarburstOptimizer(
            diverse_catalog, config=OptimizerConfig(retain_site_diversity=True)
        ).optimize(figure1_query(diverse_catalog))
        assert len(diverse.alternatives) >= len(result.alternatives)


class TestSapFailover:
    def test_site_lost_mid_execution_completes_via_sap(self, replicated_setup):
        """The acceptance scenario: the site holding DEPT's primary dies
        on the very first transfer; the query still completes through the
        SAP's replica alternative with NO re-optimization (and so no
        re-parse)."""
        _, database, query, optimizer, result = replicated_setup
        chaos = ChaosEngine(ChaosConfig(
            seed=42,
            site_outages=(("N.Y.", 1),),
            protected_sites=frozenset({"L.A."}),
        ))
        executor = ResilientExecutor(database, optimizer, chaos=chaos)
        report = executor.run(query)
        assert report.succeeded
        assert report.sap_failovers == 1
        assert report.replans == 0
        assert report.executions == 2
        assert "N.Y." in report.downed_sites
        assert report.final_plan is not None
        assert "N.Y." not in plan_sites(report.final_plan)
        reference = naive_evaluate(query, database)
        assert report.result.as_multiset() == reference.as_multiset()

    def test_failover_deterministic_under_seed(self, replicated_setup):
        _, database, query, optimizer, _ = replicated_setup
        def run():
            chaos = ChaosEngine(ChaosConfig(
                seed=42,
                site_outages=(("N.Y.", 1),),
                link_failure_prob=0.2,
                protected_sites=frozenset({"L.A."}),
            ))
            executor = ResilientExecutor(database, optimizer, chaos=chaos)
            report = executor.run(query)
            return (
                report.succeeded, report.executions, report.sap_failovers,
                report.ship_attempts, report.ship_retries,
                report.backoff_seconds,
                report.final_plan.digest if report.final_plan else None,
            )
        assert run() == run()

    def test_link_outage_fails_over_to_other_link(self, replicated_setup):
        _, database, query, optimizer, result = replicated_setup
        chaos = ChaosEngine(ChaosConfig(
            link_outages=((("N.Y.", "L.A."), 1),),
        ))
        executor = ResilientExecutor(database, optimizer, chaos=chaos)
        report = executor.run(query)
        assert report.succeeded
        assert report.sap_failovers == 1
        assert ("N.Y.", "L.A.") not in plan_links(report.final_plan)

    def test_replan_when_sap_has_no_survivor(self):
        """Without site-diversity pruning the SAP keeps only N.Y. plans;
        killing N.Y. forces the re-optimization fallback, which plans
        against the degraded catalog (replica at S.F.)."""
        catalog = paper_catalog(distributed=True, replicate_dept=True)
        database = paper_database(catalog)
        query = figure1_query(catalog)
        optimizer = StarburstOptimizer(catalog)  # default pruning
        result = optimizer.optimize(query)
        footprints = {frozenset(plan_sites(p)) for p in result.alternatives}
        assert all("N.Y." in f for f in footprints)  # no survivor in SAP
        chaos = ChaosEngine(ChaosConfig(
            site_outages=(("N.Y.", 1),),
            protected_sites=frozenset({"L.A."}),
        ))
        executor = ResilientExecutor(database, optimizer, chaos=chaos)
        report = executor.run(query)
        assert report.succeeded
        assert report.replans == 1
        assert "N.Y." not in plan_sites(report.final_plan)
        # The outage steered the run's optimizations only: the catalog
        # has no memory of it, so the next plain optimization reads N.Y.
        assert "N.Y." in plan_sites(optimizer.optimize(query).best_plan)
        reference = naive_evaluate(query, database)
        assert report.result.as_multiset() == reference.as_multiset()

    def test_unrecoverable_when_all_copies_dead(self):
        """Killing every site holding DEPT leaves nothing to fail over
        to; the report says so instead of raising."""
        catalog = paper_catalog(distributed=True, replicate_dept=True)
        database = paper_database(catalog)
        query = figure1_query(catalog)
        optimizer = StarburstOptimizer(
            catalog, config=OptimizerConfig(retain_site_diversity=True)
        )
        result = optimizer.optimize(query)
        chaos = ChaosEngine(ChaosConfig(
            site_outages=(("N.Y.", 1), ("S.F.", 1)),
            protected_sites=frozenset({"L.A."}),
        ))
        executor = ResilientExecutor(database, optimizer, chaos=chaos)
        report = executor.run(query)
        assert not report.succeeded
        assert report.error is not None

    def test_transient_failures_retried_within_one_execution(self):
        catalog = paper_catalog(distributed=True)
        database = paper_database(catalog)
        query = figure1_query(catalog)
        optimizer = StarburstOptimizer(catalog)
        result = optimizer.optimize(query)
        chaos = ChaosEngine(ChaosConfig(seed=3, link_failure_prob=0.5))
        executor = ResilientExecutor(
            database, optimizer, chaos=chaos, retry=RetryPolicy()
        )
        report = executor.run(query)
        assert report.succeeded
        # Retries, not failover, absorbed the transient failures.
        assert report.executions == 1


class TestEveryExecutionIsPriced:
    """The report's executed cost sums every plan execution: one that a
    network failure aborted counts as much as one a checkpoint aborted."""

    def test_network_aborted_execution_counts(self):
        catalog = paper_catalog(distributed=True, replicate_dept=True)
        database = paper_database(catalog)
        query = figure1_query(catalog)
        optimizer = StarburstOptimizer(
            catalog, config=OptimizerConfig(retain_site_diversity=True)
        )
        chaos = ChaosConfig(
            seed=11,
            site_outages=(("N.Y.", 1),),
            protected_sites=frozenset({"L.A."}),
        )
        report = ResilientExecutor(
            database, optimizer, chaos=chaos, qerror_threshold=10.0
        ).run(query)
        assert report.succeeded
        assert (report.executions, report.sap_failovers) == (2, 1)
        assert report.checkpoint_violations == 0
        # 1.01 for the execution N.Y.'s outage aborted, 33.448 for the
        # replica plan that delivered the answer (both probe DEPT's unique
        # table with EMP).
        assert report.final_attempt_cost == pytest.approx(33.448)
        assert report.executed_cost == pytest.approx(1.01 + 33.448)

    def test_checkpoint_and_failover_in_one_run(self):
        """E12's misestimated join with R1 stored at S1 and replicated at
        S2: a checkpoint aborts the first plan, S1 dies under the second,
        and the SAP's replica plan delivers."""
        wl = skewed_workload(n0=4000, n1=300, stats_high=9, seed=3)
        catalog = wl.catalog
        catalog.add_site("S1")
        # Relocate R1's primary copy (the generator puts every table at
        # the query site S0).
        catalog._tables["R1"] = dataclasses.replace(
            catalog.table("R1"), site="S1"
        )
        wl.database.table("R1").site = "S1"
        catalog.add_replica("R1", "S2")
        optimizer = StarburstOptimizer(
            catalog,
            rules=extended_rules(hash_join=False),
            config=OptimizerConfig(retain_site_diversity=True),
        )
        chaos = ChaosConfig(
            seed=1,
            site_outages=(("S1", 1),),
            protected_sites=frozenset({"S0"}),
        )
        report = ResilientExecutor(
            wl.database, optimizer, chaos=chaos, qerror_threshold=10.0
        ).run(wl.query)
        assert report.succeeded
        assert report.executions == 3
        assert report.checkpoint_violations == 1
        assert report.sap_failovers == 1
        assert report.replans == 0
        assert "S1" not in plan_sites(report.final_plan)
        # 1.002 aborted by the checkpoint, 1.002 aborted by S1's outage,
        # 10.2664 delivered.
        assert report.executed_cost == pytest.approx(1.002 + 1.002 + 10.2664)
        reference = naive_evaluate(wl.query, wl.database)
        assert report.result.as_multiset() == reference.as_multiset()


class TestExecutorChaosIntegration:
    def test_access_at_downed_site_raises(self, replicated_setup):
        _, database, query, _, result = replicated_setup
        chaos = ChaosEngine(ChaosConfig(down_sites=frozenset({"N.Y."})))
        executor = QueryExecutor(database, chaos=chaos)
        with pytest.raises(NetworkError):
            executor.run(query, result.best_plan)

    def test_stats_carry_retry_accounting(self):
        catalog = paper_catalog(distributed=True)
        database = paper_database(catalog)
        query = figure1_query(catalog)
        result = StarburstOptimizer(catalog).optimize(query)
        chaos = ChaosEngine(ChaosConfig(seed=11, link_failure_prob=0.9))
        executor = QueryExecutor(database, chaos=chaos, retry=RetryPolicy(max_attempts=10))
        answer = executor.run(query, result.best_plan)
        assert answer.stats.ship_attempts > 1
        assert answer.stats.ship_retries == answer.stats.ship_attempts - 1
        assert answer.stats.transient_failures == answer.stats.ship_retries
        assert answer.stats.backoff_seconds > 0


class TestOptimizationErrorDiagnostics:
    """Satellite: OptimizationError must carry expansion + plan-table
    statistics so "no plan produced" failures are debuggable."""

    def test_no_plan_error_carries_stats(self):
        catalog = paper_catalog(distributed=True)
        with pytest.raises(OptimizationError) as exc:
            StarburstOptimizer(catalog).optimize(
                figure1_query(catalog), avoid_sites=frozenset({"N.Y."})
            )
        err = exc.value
        assert err.expansion_stats is not None
        assert err.plan_table_stats is not None
        assert err.expansion_stats["star_references"] > 0
        assert "expansion" in str(err)
        assert "plan table" in str(err)

    def test_result_site_down_is_early_error(self):
        catalog = paper_catalog(distributed=True)
        with pytest.raises(OptimizationError, match="result site"):
            StarburstOptimizer(catalog).optimize(
                figure1_query(catalog), avoid_sites=frozenset({"L.A."})
            )

    def test_unknown_avoided_site_avoids_nothing(self):
        catalog = paper_catalog(distributed=True)
        query = figure1_query(catalog)
        optimizer = StarburstOptimizer(catalog)
        plain = optimizer.optimize(query)
        steered = optimizer.optimize(query, avoid_sites=frozenset({"NOWHERE"}))
        assert steered.best_plan.digest == plain.best_plan.digest

    def test_avoid_sites_reroutes_through_replica(self):
        """Avoiding N.Y. with a replica available plans around it
        instead of failing."""
        catalog = paper_catalog(distributed=True, replicate_dept=True)
        result = StarburstOptimizer(catalog).optimize(
            figure1_query(catalog), avoid_sites=frozenset({"N.Y."})
        )
        assert "N.Y." not in plan_sites(result.best_plan)
