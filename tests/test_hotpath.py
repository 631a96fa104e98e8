"""PR 4 hot-path layers: lazy digests, interning, incremental pruning,
STAR/Glue memoization, and the parallel batch driver.

The load-bearing invariant everywhere: the performance layers must be
*invisible* in the optimizer's answers — same best plan, same cost, with
or without each of them.  The memo and the interner are not options of
the optimizer; ``tests/reference_layers.py`` holds what runs without them.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import OptimizerConfig, StarburstOptimizer
from repro.__main__ import main as cli_main
from repro.optimizer import optimize_many
from repro.plans.intern import PlanInterner
from repro.plans.sap import SAP, merge_pruned
from repro.robust.feedback import FeedbackCache
from repro.workloads import (
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    star_workload,
)

from tests.reference_layers import (
    ForgetfulMemo,
    SeparateInterner,
    layers_off,  # noqa: F401 — pytest fixture
)


def _workloads():
    """Small paper-workload suite: every shape, exhaustible sizes."""
    local = paper_catalog()
    distributed = paper_catalog(distributed=True)
    chain = chain_workload(3, rows=30, seed=31)
    star = star_workload(3, rows=30, seed=31)
    clique = clique_workload(3, rows=30, seed=31)
    return [
        ("paper", local, figure1_query(local)),
        ("paper-distributed", distributed, figure1_query(distributed)),
        ("chain:3", chain.catalog, chain.query),
        ("star:3", star.catalog, star.query),
        ("clique:3", clique.catalog, clique.query),
    ]


#: Layer toggles — (reference layers substituted, config): every single
#: layer off, and everything off at once.
_TOGGLES = {
    "memo-off": (("memo",), OptimizerConfig()),
    "intern-off": (("intern",), OptimizerConfig()),
    "prune-off": ((), OptimizerConfig(prune=False)),
    "all-off": (("memo", "intern"), OptimizerConfig(prune=False)),
}


def _best(catalog, query, config=None):
    return StarburstOptimizer(catalog, config=config).optimize(query)


class TestLazyDigest:
    def test_digest_not_computed_at_construction(self):
        wl = chain_workload(3, rows=30, seed=31)
        plan = _best(wl.catalog, wl.query).best_plan
        fresh = dataclasses.replace(plan)
        assert object.__getattribute__(fresh, "_digest") is None
        assert fresh.digest == plan.digest
        assert object.__getattribute__(fresh, "_digest") == plan.digest

    def test_hash_and_eq_use_cached_digest(self):
        wl = chain_workload(3, rows=30, seed=31)
        plan = _best(wl.catalog, wl.query).best_plan
        fresh = dataclasses.replace(plan)
        assert hash(fresh) == hash(plan)
        assert fresh == plan
        assert fresh is not plan


_DUMP = """
import pickle, sys
from repro import StarburstOptimizer
from repro.workloads import chain_workload
wl = chain_workload(3, rows=30, seed=31)
plan = StarburstOptimizer(wl.catalog).optimize(wl.query).best_plan
pred = next(iter(plan.props.preds))
hash(plan), hash(pred)  # both cache their hash on the instance
with open(sys.argv[1], "wb") as out:
    pickle.dump((plan, pred), out)
"""

_LOAD = """
import dataclasses, pickle, sys
with open(sys.argv[1], "rb") as src:
    plan, pred = pickle.load(src)
for loaded, fresh in (
    (plan, dataclasses.replace(plan)),
    (pred, type(pred)(pred.op, pred.left, pred.right)),
):
    assert loaded == fresh
    assert hash(loaded) == hash(fresh), type(loaded).__name__
    assert fresh in {loaded} and loaded in {fresh}
assert plan.digest == sys.argv[2]
"""


class TestPickledHashes:
    def test_cached_hash_does_not_cross_a_hash_seed_boundary(
        self, tmp_path, run_python
    ):
        """A cached hash is salted by the process that computed it
        (PYTHONHASHSEED); pools started by spawn/forkserver and restored
        snapshots read pickles written under another salt."""
        blob = str(tmp_path / "plan.pickle")
        run_python(7, _DUMP, blob)
        wl = chain_workload(3, rows=30, seed=31)
        digest = _best(wl.catalog, wl.query).best_plan.digest
        run_python(123, _LOAD, blob, digest)


class TestPlanInterner:
    def test_structural_duplicates_share_one_node(self):
        wl = chain_workload(3, rows=30, seed=31)
        plan = _best(wl.catalog, wl.query).best_plan
        twin = dataclasses.replace(plan)
        interner = PlanInterner()
        assert interner.intern(plan) is plan
        assert interner.intern(twin) is plan
        assert len(interner) == 1
        assert interner.stats.requests == 2
        assert interner.stats.hits == 1
        assert interner.stats.unique == 1
        # The key is the structure; what pricing found is not part of it.
        repriced = dataclasses.replace(
            plan, props=dataclasses.replace(plan.props, card=plan.props.card + 1)
        )
        assert interner.intern(repriced) is plan
        assert len(interner) == 1
        # A twin built apart (other objects all the way down) hashes alike
        # and is recognized by digest.
        stranger = _best(wl.catalog, wl.query).best_plan
        assert stranger is not plan and stranger.inputs[0] is not plan.inputs[0]
        assert interner.intern(stranger) is plan
        assert len(interner) == 1

    def test_engine_interner_dedupes_during_optimization(self):
        wl = chain_workload(4, rows=30, seed=31)
        result = _best(wl.catalog, wl.query)
        stats = result.engine.ctx.factory.interner.stats
        assert stats.hits > 0
        assert stats.unique + stats.hits == stats.requests


class TestMergePruned:
    def test_incremental_merge_matches_full_reprune(self):
        """merge_pruned on any split of a real SAP == pruning the union."""
        wl = chain_workload(4, rows=30, seed=31)
        result = _best(
            wl.catalog, wl.query, OptimizerConfig(prune=False)
        )
        model = result.engine.ctx.model
        checked = 0
        for sap in result.engine.ctx.plan_table._entries.values():
            if len(sap) < 2:
                continue
            plans = list(sap)
            existing = SAP(plans[::2]).pruned(model)
            incoming = SAP(plans[1::2])
            merged = merge_pruned(existing, incoming, model)
            full = existing.union(incoming).pruned(model)
            assert {p.digest for p in merged} == {p.digest for p in full}
            checked += 1
        assert checked > 0


class TestLayerEquivalence:
    """Layers on or off, the optimizer's answer must not move."""

    @pytest.mark.parametrize(
        "name,catalog,query", _workloads(), ids=lambda v: str(v)[:20]
    )
    def test_same_best_plan_and_cost_under_every_toggle(
        self, name, catalog, query, layers_off
    ):
        baseline = _best(catalog, query)
        for label, (off, config) in _TOGGLES.items():
            with layers_off(*off):
                variant = _best(catalog, query, config)
            memo = variant.engine.memo
            interner = variant.engine.ctx.factory.interner
            # The stand-ins really ran and kept nothing; the real ones did.
            assert isinstance(memo, ForgetfulMemo) == ("memo" in off)
            assert isinstance(interner, SeparateInterner) == ("intern" in off)
            assert (len(memo) == 0) == ("memo" in off)
            assert (len(interner) == 0) == ("intern" in off)
            assert variant.best_plan.digest == baseline.best_plan.digest, (
                f"{name}/{label}: best plan changed"
            )
            assert variant.best_cost == pytest.approx(baseline.best_cost), (
                f"{name}/{label}: best cost changed"
            )

    def test_memo_hits_on_shared_subplan_workload(self):
        wl = chain_workload(4, rows=30, seed=31)
        result = _best(wl.catalog, wl.query)
        # Every miss is expanded once and remembered under its key.
        assert result.stats.memo_hits > 0
        assert result.stats.memo_misses == len(result.engine.memo) > 0


class TestMemoIsolation:
    """The memo is per-optimization — never shared across re-plans."""

    def test_fresh_engine_and_memo_per_optimize(self):
        wl = chain_workload(3, rows=30, seed=31)
        optimizer = StarburstOptimizer(wl.catalog)
        first = optimizer.optimize(wl.query)
        second = optimizer.optimize(wl.query)
        assert first.engine is not second.engine
        assert first.engine.memo is not second.engine.memo

    def test_feedback_adjusted_reoptimization_sees_new_estimates(self):
        """A FeedbackCache observation recorded between two optimizations
        must change the second one's cost — a shared memo would serve the
        stale pre-feedback plans instead."""
        wl = chain_workload(3, rows=30, seed=31)
        feedback = FeedbackCache()
        optimizer = StarburstOptimizer(wl.catalog, feedback=feedback)
        before = optimizer.optimize(wl.query)
        table = sorted(before.query.tables)[0]
        feedback.record([table], frozenset(), actual=50_000)
        after = optimizer.optimize(wl.query)
        assert after.best_cost != pytest.approx(before.best_cost)


class TestBatchDriver:
    def test_serial_and_parallel_agree_in_order(self):
        wl = chain_workload(3, rows=30, seed=31)
        queries = [wl.query] * 3
        serial = optimize_many(wl.catalog, queries, workers=1)
        pooled = optimize_many(wl.catalog, queries, workers=2)
        assert [r.index for r in pooled] == [0, 1, 2]
        for left, right in zip(serial, pooled):
            assert left.ok and right.ok
            assert left.plan_digest == right.plan_digest
            assert left.best_cost == pytest.approx(right.best_cost)

    def test_failed_query_is_isolated(self):
        wl = chain_workload(3, rows=30, seed=31)
        results = optimize_many(
            wl.catalog, ["SELECT X FROM NO_SUCH_TABLE", wl.query]
        )
        assert [r.ok for r in results] == [False, True]
        assert results[0].error
        assert results[0].best_plan is None
        assert results[1].plan_digest

    def test_per_query_stats_are_isolated(self):
        """Identical queries report identical memo counts — a memo shared
        across the batch would make later queries all-hits."""
        wl = chain_workload(3, rows=30, seed=31)
        results = optimize_many(wl.catalog, [wl.query] * 3)
        first = results[0].expansion_stats
        assert first["memo_misses"] > 0
        for other in results[1:]:
            assert other.expansion_stats == first


class TestCli:
    def test_bench_opt_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli_main([
            "bench-opt", "--workload", "chain:3", "--queries", "2",
            "--json", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "throughput" in captured
        payload = json.loads(out.read_text())
        assert payload["queries"] == 2
        assert len(payload["results"]) == 2
        assert payload["results"][0]["ok"] is True

    def test_bench_opt_profile_prints_top_functions(self, capsys):
        rc = cli_main([
            "bench-opt", "--workload", "chain:3", "--queries", "1",
            "--profile",
        ])
        assert rc == 0
        assert "profile (top 20 by cumulative time)" in capsys.readouterr().out

    def test_optimize_profile_prints_top_functions(self, capsys):
        rc = cli_main([
            "optimize", "SELECT NAME FROM EMP", "--profile",
        ])
        assert rc == 0
        assert "profile (top 20 by cumulative time)" in capsys.readouterr().out
