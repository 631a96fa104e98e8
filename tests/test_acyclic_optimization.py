"""An optimization frees itself: a dropped result leaves no cyclic garbage.

Ownership in one optimization runs one way — result → engine → factory →
interner → join candidates → their inputs.  A join candidate builds its own
node and counts the build in the interner's stats; nothing points back at
the factory.  So dropping an ``OptimizationResult`` frees the whole search
by reference counting, and the cyclic collector finds nothing to do.

Each case reuses one optimizer per catalog and makes one warm call first
(what a first call sets up — compiled rules, lazy imports — is process-wide,
not the optimization's).  Then, with the collector off, it runs one
optimization, drops the result and asserts ``gc.collect() == 0``.
"""

from __future__ import annotations

import gc

import pytest

from repro import (
    OptimizerBudget,
    OptimizerConfig,
    StarburstOptimizer,
    TransformationalOptimizer,
)
from repro.workloads import (
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    star_workload,
)


def _cyclic_garbage(run) -> int:
    """What the cyclic collector finds after one ``run()`` whose result is
    dropped, the collector off throughout."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = run()
        del result
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _figure1(**catalog_args):
    catalog = paper_catalog(**catalog_args)
    return catalog, figure1_query(catalog)


def _replicated():
    """Figure 3's placement with a DEPT replica at S.F."""
    return _figure1(distributed=True, replicate_dept=True)


def _workload(build, n_tables):
    wl = build(n_tables, rows=100, seed=12)
    return wl.catalog, wl.query


def _star(inputs, config=None, **call):
    catalog, query = inputs
    optimizer = StarburstOptimizer(catalog, config=config)
    return lambda: optimizer.optimize(query, **call)


def _exhausting(inputs):
    catalog, query = inputs
    optimizer = StarburstOptimizer(catalog)

    def run():
        result = optimizer.optimize(query, budget=OptimizerBudget(max_expansions=5))
        assert result.budget_exhausted
        return result

    return run


def _heuristic(inputs):
    catalog, query = inputs
    optimizer = StarburstOptimizer(catalog)
    return lambda: optimizer.optimize_heuristic(query)


def _transformational(inputs):
    catalog, query = inputs
    optimizer = TransformationalOptimizer(catalog)
    return lambda: optimizer.optimize(query)


#: Case → a zero-argument optimization on one optimizer.
_CASES = {
    "figure1/local": lambda: _star(_figure1()),
    "figure1/distributed+replicated": lambda: _star(_replicated()),
    "chain5": lambda: _star(_workload(chain_workload, 5)),
    "star5": lambda: _star(_workload(star_workload, 5)),
    "clique4": lambda: _star(_workload(clique_workload, 4)),
    "prune=False": lambda: _star(
        _workload(chain_workload, 4), OptimizerConfig(prune=False)
    ),
    "glue_mode=cheapest": lambda: _star(
        _workload(star_workload, 5), OptimizerConfig(glue_mode="cheapest")
    ),
    "retain_site_diversity": lambda: _star(
        _replicated(), OptimizerConfig(retain_site_diversity=True)
    ),
    "budget runs out": lambda: _exhausting(_workload(chain_workload, 5)),
    "avoid_sites": lambda: _star(_replicated(), avoid_sites=frozenset({"N.Y."})),
    "optimize_heuristic": lambda: _heuristic(_workload(chain_workload, 5)),
    "TransformationalOptimizer": lambda: _transformational(
        _workload(chain_workload, 4)
    ),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_a_dropped_result_leaves_no_cyclic_garbage(case):
    run = _CASES[case]()
    run()  # warm
    assert _cyclic_garbage(run) == 0


def test_constructing_an_optimizer_leaves_no_cyclic_garbage():
    catalog = paper_catalog()
    StarburstOptimizer(catalog)  # warm
    assert _cyclic_garbage(lambda: StarburstOptimizer(catalog)) == 0


def test_the_baseline_optimizer_keeps_no_search():
    """``TransformationalOptimizer`` keeps only what it was constructed
    with: a call's factory, model and memo are one per-call search, so a
    dropped ``BaselineResult`` leaves the GC-tracked objects where they
    were before the call.  A first call on another optimizer warms what is
    process-wide."""
    catalog, query = _workload(chain_workload, 5)
    TransformationalOptimizer(catalog).optimize(query)  # warm
    optimizer = TransformationalOptimizer(catalog)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = optimizer.optimize(query)
        assert result.best_plan.props.tables == {f"R{i}" for i in range(5)}
        del result
        after = len(gc.get_objects())
    finally:
        if was_enabled:
            gc.enable()
    assert set(vars(optimizer)) == {"catalog", "config", "weights"}
    assert after == before
