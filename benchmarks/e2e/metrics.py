"""The benchmark's metric catalogue.

``BENCHMARK.json`` can only carry name/unit/direction/bound, so the rest
of what the issue asks to be written down *before* measuring lives here:
which counts must repeat exactly, and which end-to-end metric on which
workload each layer metric is expected to move.  ``suite.py --smoke``
checks that the two files agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: share of the parent's median a value may worsen.
    bound: float | None = None
    #: A count that must be identical between two runs of one commit
    #: on one seed (taken over the first measured round, whose op list
    #: is fixed; timings and ratios of timings cover every round).
    exact: bool = False
    #: What the metric is expected to move: "<end-to-end> on <workload>".
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           moves="data generation + load/analyze + index build + optimizer/"
                 "service construction + SQLite reference rows + warm-up; "
                 "median of three set-ups"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           moves="ops in a round / time the callers waited, quiet decile over repeats"),
    Metric("op_ms_p50", "ms", "lower", 0.25,
           moves="median latency of a round's ops, quiet decile over repeats"),
    Metric("op_ms_tail", "ms", "lower", 0.25,
           moves="p99 of a block on serve-hot, p90 on serve-churn, the round's "
                 "slowest op on opt-*/exec-*; quiet decile over repeats"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, moves="ru_maxrss of the run's process"),
)


def _m(name, unit, better, moves, exact=False):
    return Metric(name, unit, better, exact=exact, moves=moves)


_OPT = "ops_per_s on opt-deep"
_EXEC = "ops_per_s, op_ms_p50 on exec-scan and exec-probe"
_SERVE = "ops_per_s on serve-hot and serve-churn"

PER_LAYER = (
    _m("query.parse_ms_p50", "ms", "lower",
       "op_ms_p50 on opt-deep/exec-* (expected <2% share: parse is not worth optimising)"),
    _m("optimizer.optimize_ms_p50", "ms", "lower",
       "op_ms_p50, ops_per_s on opt-deep; 0 on serve-* (the service does not expose it)"),
    _m("optimizer.share", "ratio", "lower",
       "time inside optimize / time callers waited: >=0.95 on opt-deep, <=0.15 of "
       "exec-*, 0 on serve-hot, most of serve-churn"),
    _m("optimizer.chain6_ms_p50", "ms", "lower", "op_ms_p50 on opt-deep (the median op)"),
    _m("optimizer.star6_ms_p50", "ms", "lower", "op_ms_tail, ops_per_s on opt-deep"),
    _m("optimizer.clique5_ms_p50", "ms", "lower", _OPT),
    _m("optimizer.pairs_considered", "count", "lower",
       "changes only when the search space changes", exact=True),
    _m("optimizer.best_cost_sum", "cost", "lower",
       "changes only when plan choice changes; then expect op_ms_p50 on exec-* to move",
       exact=True),
    _m("optimizer.alternatives_sum", "count", "lower",
       "changes only when pruning changes", exact=True),
    _m("stars.star_references", "count", "lower", _OPT, exact=True),
    _m("stars.alternatives_considered", "count", "lower", _OPT, exact=True),
    _m("stars.conditions_evaluated", "count", "lower", _OPT, exact=True),
    _m("stars.glue_references", "count", "lower", _OPT, exact=True),
    _m("stars.veneers_added", "count", "lower", _OPT, exact=True),
    _m("stars.plantable_inserted", "count", "lower", _OPT, exact=True),
    _m("stars.memo_hit_ratio", "ratio", "higher", _OPT),
    _m("stars.plantable_pruned_ratio", "ratio", "lower",
       _OPT + " (pruned / inserted = plans built and then discarded)"),
    _m("cost.lolepop_calls", "count", "lower",
       _OPT + "; serve-hot and exec-scan must not move", exact=True),
    _m("cost.propfunc_per_surviving_plan", "ratio", "lower", _OPT),
    _m("plans.intern_requests", "count", "lower",
       "ops_per_s, peak_rss_mb on opt-deep", exact=True),
    _m("plans.unique_nodes", "count", "lower", "peak_rss_mb on opt-deep", exact=True),
    _m("plans.intern_hit_ratio", "ratio", "higher", "ops_per_s, peak_rss_mb on opt-deep"),
    _m("executor.run_ms_p50", "ms", "lower", _EXEC),
    _m("executor.share", "ratio", "lower",
       "time inside run / time callers waited: >=0.85 on exec-scan, >=0.70 on exec-probe"),
    _m("executor.tuples_per_s", "1/s", "higher", _EXEC),
    _m("executor.tuples_flowed", "count", "lower", _EXEC, exact=True),
    _m("executor.output_rows", "count", "higher",
       "must not change: it is the answer's size", exact=True),
    _m("executor.batches", "count", "lower", _EXEC, exact=True),
    _m("executor.temps_materialized", "count", "lower", _EXEC, exact=True),
    _m("storage.page_reads", "count", "lower", "op_ms_p50 on exec-*", exact=True),
    _m("storage.index_reads", "count", "lower",
       "op_ms_p50 on exec-probe; 0 on exec-scan (proves the two use different paths)",
       exact=True),
    _m("storage.load_s", "s", "lower", "setup_s on exec-*"),
    _m("backends.reference_s", "s", "lower",
       "setup_s only (SQLite mirror load + reference queries)"),
    _m("serve.hit_ms_p50", "ms", "lower", "op_ms_p50 on serve-hot and serve-churn"),
    _m("serve.miss_ms_p50", "ms", "lower", "op_ms_tail, ops_per_s on serve-churn"),
    _m("serve.miss_overhead_ms_p50", "ms", "lower",
       "op_ms_tail on serve-churn (miss latency - bare optimize of the same template)"),
    _m("serve.cache_hit_ratio", "ratio", "higher", _SERVE, exact=True),
    _m("serve.cache_inserts", "count", "lower", _SERVE, exact=True),
    _m("serve.cache_evictions", "count", "lower",
       "ops_per_s on serve-churn; must stay 0 on serve-hot", exact=True),
    _m("serve.cache_band_misses", "count", "lower", _SERVE, exact=True),
    _m("serve.tier_cached", "count", "higher", _SERVE, exact=True),
    _m("serve.tier_full", "count", "lower", _SERVE, exact=True),
    _m("serve.tier_degraded", "count", "lower", "must stay 0", exact=True),
    _m("serve.rejected", "count", "lower", "must stay 0", exact=True),
    _m("serve.queue_depth_max", "count", "lower", "op_ms_tail on serve-*", exact=True),
    _m("stars.star_self_ms", "ms", "lower", _OPT + " (traced: STAR dispatch self time per op)"),
    _m("stars.glue_self_ms", "ms", "lower", _OPT + " (traced: Glue self time per op)"),
    _m("executor.join_self_ms", "ms", "lower", _EXEC + " (traced)"),
    _m("executor.access_self_ms", "ms", "lower", _EXEC + " (traced)"),
    _m("executor.sort_self_ms", "ms", "lower", _EXEC + " (traced)"),
    _m("executor.get_self_ms", "ms", "lower", "op_ms_p50 on exec-probe (traced)"),
    _m("obs.spans_recorded", "count", "lower", "obs.trace_overhead_ratio"),
    _m("obs.spans_dropped", "count", "lower", "must stay 0, else self times undercount"),
    _m("obs.trace_overhead_ratio", "ratio", "lower",
       "ops_per_s without repro.obs.Tracer / with it; end-to-end runs never pay it"),
)
