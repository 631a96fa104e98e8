"""Command-line interface: ``python -m repro``.

Subcommands:

* ``demo`` — optimize and run the paper's Figure-1 query end to end.
* ``optimize SQL`` — plan (and optionally execute) a query against a
  built-in workload; ``--trace`` prints the STAR expansion trace.
* ``compile-plan`` — optimize a query and lower the chosen QEP to
  deterministic standalone SQL.
* ``diff`` — run the chosen plan (and, with ``--alternatives N``, more
  plans from the SAP) through the differential oracle: the query
  evaluator and SQLite execute the same plan and the normalized row sets
  must match; the exit code reflects disagreement.
* ``rules`` — print the builtin rule repertoire (``validate`` lints a
  Database Customizer's rule file).
* ``chaos`` — run the Figure-3 distributed query under deterministic
  fault injection, with retries and SAP-driven plan failover
  (``--trace-out`` captures the structured event log as JSON lines).
* ``trace`` — optimize and execute a query with full tracing, emitting
  a Chrome ``trace_event`` file (``--self-check`` validates the event
  stream against the schema instead — the CI lint).
* ``analyze`` — EXPLAIN ANALYZE: execute the chosen plan and print the
  per-operator estimated-vs-actual row table with Q-errors.
* ``adaptive`` — run a deliberately-misestimated workload under
  ``ResilientExecutor``: cardinality checkpoints abort bad plans, feed the
  observed rows back, and re-optimize (``--budget`` additionally bounds
  the optimizer with an anytime fallback).
* ``validate`` — statically lint a rule set (builtin or a DBC's file);
  the exit code reflects errors, and ``--strict`` also fails on
  warnings such as an exclusive STAR with no unconditional final
  alternative.
* ``serve`` — run queries through the optimizer *service*: bounded-queue
  admission control, the plan-template cache, and graceful degradation
  tiers; repeated submissions demonstrate warm cache hits.
* ``loadgen`` — generate a deterministic skewed request stream and drive
  the service through warmup/steady/overload phases (experiment E15's
  CLI face).
* ``metrics`` — run a query (or ``--serve N`` requests through the
  service) and emit the metrics registry as OpenMetrics text — the
  scrape format behind the ``/metrics`` endpoint.
* ``dash`` — the loadgen run as a live terminal dashboard: tier mix,
  queue depth, cache hit rate, latency quantiles and SLO burn repainted
  after every burst (``--metrics-port`` additionally serves
  ``/metrics`` while it runs).

* ``snapshot`` — validate and summarize a warm-restart snapshot file
  (version, age, template/feedback counts, tier mix) without starting a
  service.

``serve``, ``loadgen`` and ``dash`` share the telemetry flags
(``--sample``, ``--flight-size``, ``--flight-out``, ``--slo-latency``,
``--metrics-port``) — experiment E16's CLI face —
and the crash-safety flags (``--pool-workers``, ``--pool-timeout``,
``--respawn-budget``, ``--snapshot-dir``, ``--snapshot-every``,
``--quarantine-strikes``) — experiment E17's.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import (
    ChaosConfig,
    ChaosEngine,
    OptimizerConfig,
    QueryExecutor,
    ReproError,
    ResilientExecutor,
    RetryPolicy,
    StarburstOptimizer,
    naive_evaluate,
    parse_rules,
    render_tree,
    validate_rules,
)
from repro.backends import DifferentialOracle, compile_sql
from repro.obs import (
    MetricsRegistry,
    Tracer,
    explain_analyze,
    validate_jsonl,
)
from repro.stars.builtin_rules import (
    BASE_RULES,
    default_rules,
    extended_rules,
)
from repro.robust import FeedbackCache, OptimizerBudget
from repro.stars.registry import default_registry
from repro.workloads import (
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    paper_database,
    skewed_workload,
    star_workload,
)


def _workload_spec(spec: str) -> str:
    """argparse type: a workload spec — 'paper', 'paper-distributed', or
    SHAPE:N with SHAPE one of chain, star, clique."""
    shape, sep, count = spec.partition(":")
    if spec in ("paper", "paper-distributed") or (
        sep and shape in ("chain", "star", "clique") and count.isdigit()
    ):
        return spec
    raise argparse.ArgumentTypeError(
        f"unknown workload {spec!r}: use paper, paper-distributed, "
        "chain:N, star:N, or clique:N (N a whole number)"
    )


def _load_workload_full(spec: str):
    """The workload a :func:`_workload_spec` names, as ``(catalog,
    database, default query)``."""
    if spec in ("paper", "paper-distributed"):
        catalog = paper_catalog(distributed=spec.endswith("distributed"))
        database = paper_database(catalog)
        return catalog, database, figure1_query(catalog)
    shape, _, count = spec.partition(":")
    makers = {"chain": chain_workload, "star": star_workload, "clique": clique_workload}
    wl = makers[shape](int(count))
    return wl.catalog, wl.database, wl.query


def _load_workload(spec: str):
    catalog, database, _ = _load_workload_full(spec)
    return catalog, database


def _maybe_profile(enabled: bool, fn):
    """Run ``fn`` (optionally under cProfile, printing the top-20
    cumulative entries afterwards) and return its result."""
    if not enabled:
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        print("\nprofile (top 20 by cumulative time):")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return result


def _rule_set(name: str):
    """The builtin rule set a ``--rules`` choice names."""
    if name == "base":
        return default_rules()
    if name == "all":
        return extended_rules(tid_sort=True, or_index=True, and_index=True, semijoin=True)
    return extended_rules()


def cmd_demo(args: argparse.Namespace) -> int:
    catalog = paper_catalog(distributed=args.distributed)
    database = paper_database(catalog)
    query = figure1_query(catalog)
    result = StarburstOptimizer(catalog).optimize(query)
    print(result.explain())
    answer = QueryExecutor(database).run(query, result.best_plan)
    print(f"\nexecuted: {len(answer)} rows, {answer.stats.total_io} page I/Os")
    reference = naive_evaluate(query, database)
    ok = answer.as_multiset() == reference.as_multiset()
    print("differential check vs naive evaluator:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_optimize(args: argparse.Namespace) -> int:
    catalog, database = _load_workload(args.workload)
    optimizer = StarburstOptimizer(
        catalog, rules=_rule_set(args.rules),
        tracer=Tracer() if args.trace else None,
    )
    result = _maybe_profile(args.profile, lambda: optimizer.optimize(args.sql))
    print(f"query: {result.query}")
    print(f"alternatives surviving: {len(result.alternatives)}")
    print(f"estimated cost: {result.best_cost:.2f} ({result.best_plan.props.cost})")
    print(render_tree(result.best_plan, show_properties=True))
    if args.trace:
        print("\nexpansion trace:")
        print(result.engine.trace())
    if args.execute:
        answer = QueryExecutor(database).run(result.query, result.best_plan)
        print(f"\nexecuted: {len(answer)} rows, {answer.stats.total_io} page I/Os, "
              f"{answer.stats.tuples_flowed} tuples flowed")
        limit = args.limit
        for row in answer.rows[:limit]:
            print("  ", dict(zip(answer.columns, row)))
        if len(answer.rows) > limit:
            print(f"   ... {len(answer.rows) - limit} more")
    return 0


def cmd_compile_plan(args: argparse.Namespace) -> int:
    """Optimize a query and print the chosen QEP lowered to standalone
    SQL."""
    catalog, _database, default_query = _load_workload_full(args.workload)
    optimizer = StarburstOptimizer(catalog, rules=_rule_set(args.rules))
    result = optimizer.optimize(args.sql if args.sql else default_query)
    text = compile_sql(result.query, result.best_plan)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text)} bytes of sql to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Run the chosen plan (and optionally SAP alternatives) on the query
    evaluator and on SQLite and report row-set agreement."""
    catalog, database, default_query = _load_workload_full(args.workload)
    optimizer = StarburstOptimizer(catalog, rules=_rule_set(args.rules))
    result = optimizer.optimize(args.sql if args.sql else default_query)
    plans = [result.best_plan]
    seen = {result.best_plan.digest}
    for alt in result.alternatives:
        if len(plans) >= args.alternatives:
            break
        plan = getattr(alt, "plan", alt)
        if plan.digest not in seen:
            seen.add(plan.digest)
            plans.append(plan)
    oracle = DifferentialOracle(database)
    disagreements = 0
    for plan in plans:
        report = oracle.check(result.query, plan)
        counts = ", ".join(
            f"{o.backend}={'ERR' if o.error is not None else o.row_count}"
            for o in report.outcomes
        )
        print(f"{'AGREE   ' if report.agreed else 'DISAGREE'} plan {plan.digest}: {counts}")
        for err in report.errors:
            print(f"  error {err}")
        if not report.agreed:
            disagreements += 1
            print(report.mismatch_summary())
    print(f"checked {len(plans)} plan(s) on vectorized, sqlite; "
          f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


def cmd_bench_opt(args: argparse.Namespace) -> int:
    """Batch-optimize a workload's query N times over a process pool and
    report throughput — the CLI face of :func:`repro.optimizer.optimize_many`."""
    import time as _time

    from repro.optimizer import optimize_many

    catalog, _database, query = _load_workload_full(args.workload)
    queries = [args.sql if args.sql is not None else query] * args.queries
    config = OptimizerConfig(prune=not args.no_prune)
    rules = _rule_set(args.rules)

    def run():
        best = None
        for _ in range(args.repeat):
            started = _time.perf_counter()
            results = optimize_many(
                catalog, queries, rules=rules, config=config,
                workers=args.workers,
            )
            elapsed = _time.perf_counter() - started
            if best is None or elapsed < best[1]:
                best = (results, elapsed)
        return best

    results, elapsed = _maybe_profile(args.profile, run)
    failed = [r for r in results if not r.ok]
    throughput = len(results) / elapsed if elapsed else 0.0
    print(f"workload: {args.workload}  queries: {len(results)}  "
          f"workers: {args.workers}  repeat: {args.repeat}")
    print(f"layers: prune={'on' if config.prune else 'off'}")
    print(f"wall time: {elapsed:.3f}s  throughput: {throughput:.2f} queries/s")
    ok_results = [r for r in results if r.ok]
    if ok_results:
        sample = ok_results[0]
        print(f"best plan: {sample.plan_digest} cost {sample.best_cost:.2f} "
              f"({sample.alternatives} alternative(s))")
        hits = sample.expansion_stats["memo_hits"]
        lookups = hits + sample.expansion_stats["memo_misses"]
        print(f"memo: {hits:.0f}/{lookups:.0f} hits "
              f"(rate {hits / lookups if lookups else 0.0:.2f})")
    for failure in failed:
        print(f"error: query #{failure.index}: {failure.error}", file=sys.stderr)
    if args.json:
        _write_json(args.json, {
            "workload": args.workload,
            "queries": len(results),
            "workers": args.workers,
            "elapsed_seconds": elapsed,
            "throughput_qps": throughput,
            "config": {"prune": config.prune},
            "results": [r.as_dict() for r in results],
        })
    return 1 if failed else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Optimize the Figure-3 query (DEPT replicated at S.F.), then execute
    it under fault injection with SAP failover."""
    links = []
    for spec in args.kill_link:
        a, sep, b = spec.partition(":")
        if not sep or not a or not b:
            print(f"error: --kill-link expects FROM:TO, got {spec!r}",
                  file=sys.stderr)
            return 2
        links.append((a, b))

    catalog = paper_catalog(distributed=True, replicate_dept=True)
    database = paper_database(catalog)
    query = figure1_query(catalog)
    # The run's checkpoints record into the optimizer's cache, so its
    # feedback events belong in the trace file; the optimizer's own
    # spans do not (the trace is about the run).
    tracer = Tracer() if args.trace_out else None
    optimizer = StarburstOptimizer(
        catalog, config=OptimizerConfig(retain_site_diversity=True),
        feedback=FeedbackCache(tracer=tracer),
    )
    result = optimizer.optimize(query)
    print(f"query: {result.query}")
    print(f"alternatives surviving: {len(result.alternatives)}")
    print(render_tree(result.best_plan, show_properties=True))

    site_outages = tuple((site, args.kill_at) for site in args.kill_site)
    link_outages = tuple((link, args.kill_at) for link in links)
    chaos = ChaosEngine(ChaosConfig(
        seed=args.seed,
        link_failure_prob=args.link_failure_prob,
        site_failure_prob=args.site_failure_prob,
        site_outages=site_outages,
        link_outages=link_outages,
        protected_sites=frozenset({catalog.query_site}),
    ))
    retry = RetryPolicy.no_retries() if args.no_retries else RetryPolicy()
    executor = ResilientExecutor(
        database, optimizer, chaos=chaos, retry=retry, tracer=tracer
    )
    report = executor.run(query)
    print()
    print(report.summary())
    if tracer is not None:
        with open(args.trace_out, "w") as handle:
            handle.write(tracer.to_jsonl() + "\n")
        print(f"JSONL event log ({len(tracer)} event(s)) written to "
              f"{args.trace_out}")
    if report.result is not None:
        reference = naive_evaluate(query, database)
        ok = report.result.as_multiset() == reference.as_multiset()
        print("differential check vs naive evaluator:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    return 1


def _traced_run(sql: str | None, workload: str, rules: str):
    """Optimize (and execute) a query with full observability attached;
    shared by ``trace`` and ``analyze``."""
    catalog, database = _load_workload(workload)
    tracer = Tracer()
    metrics = MetricsRegistry()
    optimizer = StarburstOptimizer(
        catalog, rules=_rule_set(rules), tracer=tracer, metrics=metrics
    )
    query = figure1_query(catalog) if sql is None else sql
    result = optimizer.optimize(query)
    return database, tracer, metrics, result


def cmd_trace(args: argparse.Namespace) -> int:
    if args.self_check:
        return _trace_self_check()
    database, tracer, metrics, result = _traced_run(
        args.sql, args.workload, args.rules
    )
    answer = QueryExecutor(database, tracer=tracer).run(
        result.query, result.best_plan
    )
    with open(args.out, "w") as handle:
        handle.write(tracer.to_chrome())
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(tracer.to_jsonl() + "\n")
    print(f"query: {result.query}")
    print(f"executed: {len(answer)} rows, {answer.stats.total_io} page I/Os")
    counts = tracer.category_counts()
    total = sum(counts.values())
    print(f"{total} trace event(s) ({tracer.dropped} dropped):")
    for cat in sorted(counts):
        print(f"  {cat:<10} {counts[cat]}")
    print(f"Chrome trace written to {args.out} "
          "(load in chrome://tracing or Perfetto)")
    if args.jsonl:
        print(f"JSONL event log written to {args.jsonl}")
    return 0


def _trace_self_check() -> int:
    """Trace the paper demo end to end and validate every exported event
    against the schema — the CI lint behind ``trace --self-check``."""
    import json as _json

    database, tracer, metrics, result = _traced_run(
        None, "paper-distributed", "extended"
    )
    QueryExecutor(database, tracer=tracer).run(result.query, result.best_plan)
    errors = validate_jsonl(tracer.to_jsonl())
    try:
        chrome = _json.loads(tracer.to_chrome())
        if not chrome.get("traceEvents"):
            errors.append("chrome export: no traceEvents")
    except ValueError as exc:
        errors.append(f"chrome export is not valid JSON: {exc}")
    if tracer.open_spans:
        errors.append(f"{tracer.open_spans} span(s) left open")
    if not metrics.snapshot():
        errors.append("metrics registry is empty after a traced run")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    verdict = "PASS" if not errors else "FAIL"
    print(f"trace self-check: {verdict} "
          f"({len(tracer)} event(s), {len(metrics)} metric(s))")
    return 0 if not errors else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    database, tracer, metrics, result = _traced_run(
        args.sql, args.workload, args.rules
    )
    report = explain_analyze(result, database, tracer=tracer, metrics=metrics)
    print(f"query: {result.query}")
    print(report.render())
    if args.json:
        import json as _json

        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if args.metrics:
        for name, value in metrics.snapshot().items():
            print(f"  {name} = {value}")
    return 0


def _parse_budget(spec: str) -> OptimizerBudget:
    """Budget spec ``E[:P[:T]]``: max expansions, plans, deadline ticks."""
    parts = spec.split(":")
    if not 1 <= len(parts) <= 3 or not all(p.strip() for p in parts):
        raise SystemExit(
            f"--budget expects E[:P[:T]] (positive integers), got {spec!r}"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise SystemExit(
            f"--budget expects E[:P[:T]] (positive integers), got {spec!r}"
        ) from None
    numbers += [None] * (3 - len(numbers))
    try:
        return OptimizerBudget(
            max_expansions=numbers[0],
            max_plans=numbers[1],
            deadline_ticks=numbers[2],
        )
    except ValueError as exc:
        raise SystemExit(f"--budget: {exc}") from None


def cmd_adaptive(args: argparse.Namespace) -> int:
    """Run the misestimated E12 workload statically, then adaptively."""
    from repro.cost.model import CostWeights
    from repro.robust.resilient import executed_cost
    from repro.stars.builtin_rules import extended_rules as _extended

    wl = skewed_workload(
        n0=args.rows_big, n1=args.rows_small, seed=args.seed,
        stats_high=None if args.accurate else 9,
    )
    if args.qerror_threshold < 1.0:
        raise SystemExit(
            f"--qerror-threshold must be >= 1.0, got {args.qerror_threshold}"
        )
    budget = _parse_budget(args.budget) if args.budget is not None else None
    # The paper's System R-era join repertoire (NL + MG): the plan-choice
    # mistake this demo showcases lives in the NL-vs-MG tradeoff.
    rules = _extended(hash_join=False)
    weights = CostWeights()

    # One optimizer: the static baseline is optimized before the run, so
    # no observation of the run can reach it.
    optimizer = StarburstOptimizer(wl.catalog, rules=rules, weights=weights)
    static = optimizer.optimize(wl.query, budget=budget)
    print(f"query: {static.query}")
    if static.budget_exhausted:
        print("optimization budget exhausted — anytime plan"
              + (" (heuristic fallback)" if static.heuristic_fallback else ""))
    print("static plan:")
    print(render_tree(static.best_plan))
    static_result = QueryExecutor(wl.database).run(
        static.query, static.best_plan
    )
    static_cost = executed_cost(static_result.stats, weights)
    print(f"static executed: {len(static_result)} rows, "
          f"cost {static_cost:.1f}\n")

    adaptive = ResilientExecutor(
        wl.database,
        optimizer,
        qerror_threshold=args.qerror_threshold,
        max_reoptimizations=args.max_reoptimizations,
        budget=budget,
    )
    report = adaptive.run(wl.query)
    print(report.summary())
    if report.final_plan is not None:
        print("final plan:")
        print(render_tree(report.final_plan))
    if not report.succeeded or report.result is None:
        print(f"error: adaptive execution failed: {report.error}",
              file=sys.stderr)
        return 1
    ok = report.result.as_multiset() == static_result.as_multiset()
    ratio = static_cost / report.executed_cost if report.executed_cost else 1.0
    print(f"executed-cost ratio static/adaptive: {ratio:.2f}")
    print("differential check vs static plan:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


#: File name a ``--snapshot-dir`` snapshot is kept under.
SNAPSHOT_FILENAME = "serve.snapshot"


def _service_config(args: argparse.Namespace) -> "ServiceConfig":
    from repro.serve import ServiceConfig

    snapshot_path = None
    if args.snapshot_dir:
        os.makedirs(args.snapshot_dir, exist_ok=True)
        snapshot_path = os.path.join(args.snapshot_dir, SNAPSHOT_FILENAME)
    return ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        cache_capacity=args.cache_size,
        band_factor=args.band,
        drift_threshold=args.drift_threshold,
        breaker_threshold=args.breaker,
        pool_workers=args.pool_workers,
        pool_timeout=args.pool_timeout,
        pool_respawn_budget=args.respawn_budget,
        quarantine_strikes=args.quarantine_strikes,
        snapshot_path=snapshot_path,
        snapshot_every=args.snapshot_every,
    )


def _telemetry_config(args: argparse.Namespace) -> "TelemetryConfig":
    from repro.obs import SLObjective, TelemetryConfig

    slos = ()
    if args.slo_latency is not None:
        slos = (SLObjective.latency(
            "latency", args.slo_latency, target=args.slo_target,
        ),)
    return TelemetryConfig(
        sample_every=args.sample,
        flight_capacity=args.flight_size,
        flight_path=args.flight_out,
        slos=slos,
    )


def _start_metrics_server(args: argparse.Namespace, registry, health=None):
    """Start the /metrics endpoint when --metrics-port was given."""
    if args.metrics_port is None:
        return None
    from repro.serve import MetricsServer

    server = MetricsServer(
        registry, port=args.metrics_port, health=health
    ).start()
    print(f"metrics endpoint: {server.url}/metrics  "
          f"(health: {server.url}/healthz)")
    return server


def _report_flight(service) -> None:
    if service.last_flight_dump is None:
        return
    dumps = service.flight.dumps if service.flight is not None else 0
    where = (
        f"appended to {service.telemetry.flight_path}"
        if service.telemetry.flight_path else "held in memory"
    )
    print(f"flight recorder: {dumps} dump(s), last {where}")


def _write_json(path: str, payload) -> None:
    import json as _json

    with open(path, "w") as handle:
        _json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"JSON report written to {path}")


def _write_trace(args: argparse.Namespace, tracer) -> None:
    if tracer is None:
        return
    with open(args.trace_out, "w") as handle:
        handle.write(tracer.to_jsonl() + "\n")
    print(f"JSONL event log ({len(tracer)} event(s), request-id stamped) "
          f"written to {args.trace_out}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run queries through the optimizer service and report tier labels,
    cache behavior, and admission-control outcomes."""
    from repro.serve import OptimizerService, Request

    catalog, _database, default_query = _load_workload_full(args.workload)
    queries = args.sql if args.sql else [default_query]
    requests = [
        Request(query=q, tenant=f"tenant{i % max(1, args.tenants)}")
        for i in range(args.repeat)
        for q in queries
    ]
    tracer = Tracer() if args.trace_out else None
    service = OptimizerService(
        catalog, rules=_rule_set(args.rules), service=_service_config(args),
        tracer=tracer, telemetry=_telemetry_config(args),
    )
    if service.snapshot_loaded:
        print(f"warm start: {service.templates_restored} template(s), "
              f"{service.feedback_restored} feedback entr(ies) restored "
              "from snapshot")
    elif service.snapshot_error is not None:
        print(f"cold start: snapshot rejected ({service.snapshot_error})",
              file=sys.stderr)
    server = _start_metrics_server(args, service.metrics)
    try:
        responses = service.serve_all(requests, burst=args.burst)
    finally:
        service.close()
        if server is not None:
            server.stop()
    _write_trace(args, tracer)
    for index, response in enumerate(responses):
        label = response.tier + (" (degraded)" if response.degraded else "")
        if response.rejected:
            print(f"#{index}: REJECTED (queue full at depth "
                  f"{response.queue_depth})")
        elif response.ok:
            print(f"#{index}: {label}  plan {response.plan_digest} "
                  f"cost {response.best_cost:.2f}")
        else:
            print(f"#{index}: ERROR {response.error}", file=sys.stderr)
    report = service.report()
    print()
    print(report.summary())
    _report_flight(service)
    if args.json:
        _write_json(args.json, report.as_dict())
    return 1 if report.errors else 0


def _run_loadgen(args: argparse.Namespace, progress=None):
    """Build the spec, service and phases ``loadgen`` and ``dash`` share,
    drive the load (``progress`` is :func:`run_load`'s per-burst sink),
    tear down and write the trace.  Returns ``(spec, service, report)``."""
    import asyncio as _asyncio

    from repro.serve import (
        LoadSpec, OptimizerService, default_phases, generate, run_load,
    )

    spec = LoadSpec(
        n_tables=args.tables,
        rows=args.rows,
        templates=args.templates,
        zipf_s=args.skew,
        param_jitter=args.jitter,
        wild_fraction=args.wild,
        tenants=args.tenants,
        seed=args.seed,
    )
    workload, requests = generate(spec, args.requests)
    tracer = Tracer() if args.trace_out else None
    service = OptimizerService(
        workload.catalog, rules=_rule_set(args.rules),
        service=_service_config(args),
        tracer=tracer, telemetry=_telemetry_config(args),
    )
    phases = default_phases(requests, args.queue_limit)
    server = _start_metrics_server(args, service.metrics)
    try:
        report = _asyncio.run(run_load(service, phases, progress=progress))
    finally:
        service.close()
        if server is not None:
            server.stop()
    _write_trace(args, tracer)
    return spec, service, report


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive the service with a deterministic skewed request stream."""
    spec, service, report = _run_loadgen(args)
    print(report.summary())
    print()
    service_report = service.report()
    print(service_report.summary())
    _report_flight(service)
    if args.json:
        _write_json(args.json, {
            "spec": {
                "tables": spec.n_tables, "rows": spec.rows,
                "templates": spec.templates, "zipf_s": spec.zipf_s,
                "requests": args.requests, "seed": spec.seed,
            },
            "load": report.as_dict(),
            "service": service_report.as_dict(),
        })
    if report.unhandled:
        print(f"error: {report.unhandled} unhandled request(s)",
              file=sys.stderr)
        return 1
    return 1 if service_report.errors else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Emit a metrics registry as OpenMetrics text (the scrape format)."""
    from repro.obs import render_openmetrics, validate_openmetrics

    if args.serve:
        from repro.serve import OptimizerService, Request

        catalog, _database, default_query = _load_workload_full(args.workload)
        sql = args.sql if args.sql is not None else default_query
        service = OptimizerService(catalog, rules=_rule_set(args.rules))
        service.serve_all([Request(sql)] * args.serve, burst=1)
        registry = service.metrics
    else:
        database, tracer, registry, result = _traced_run(
            args.sql, args.workload, args.rules
        )
        QueryExecutor(database, tracer=tracer, metrics=registry).run(
            result.query, result.best_plan
        )
    text = render_openmetrics(registry)
    try:
        families = validate_openmetrics(text)
    except ValueError as exc:
        print(f"error: invalid OpenMetrics output: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"{len(families)} metric familie(s) written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Validate and summarize a warm-restart snapshot file."""
    import json as _json
    import time as _time

    from repro.serve import SnapshotError
    from repro.serve.snapshot import inspect_snapshot

    path = args.file
    if os.path.isdir(path):
        path = os.path.join(path, SNAPSHOT_FILENAME)
    try:
        info = inspect_snapshot(path)
    except SnapshotError as exc:
        print(f"error: snapshot rejected: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(info, indent=2, sort_keys=True))
        return 0
    created = _time.strftime(
        "%Y-%m-%d %H:%M:%S", _time.localtime(info["created_unix"])
    )
    print(f"snapshot {path}")
    print(f"  version: {info['version']}  created: {created} "
          f"({info['age_seconds']:.0f}s ago)")
    print(f"  templates: {info['templates']} "
          f"({info['open_breakers']} open breaker(s))")
    for tier, count in sorted(info["tiers"].items()):
        print(f"    tier {tier}: {count}")
    print(f"  feedback observations: {info['feedback']}")
    return 0


def cmd_dash(args: argparse.Namespace) -> int:
    """The loadgen run as a live terminal dashboard."""
    from repro.serve import Dashboard

    dashboard = Dashboard(
        sys.stdout, repaint=not args.no_repaint, every=args.refresh
    )
    _spec, service, report = _run_loadgen(args, progress=dashboard.update)
    print()
    print(service.report().summary())
    _report_flight(service)
    if report.unhandled:
        print(f"error: {report.unhandled} unhandled request(s)",
              file=sys.stderr)
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Statically lint a rule set; ``--strict`` fails on warnings too."""
    registry = default_registry()
    if args.file is not None:
        with open(args.file) as handle:
            text = handle.read()
        rules = parse_rules(
            text, base=default_rules() if args.extend_builtin else None
        )
    else:
        rules = _rule_set(args.rules)
    report = validate_rules(rules, registry)
    for error in report.errors:
        print(f"error: {error}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    failed = bool(report.errors) or (args.strict and bool(report.warnings))
    print(
        f"rule set is {'INVALID' if report.errors else 'VALID'} "
        f"({len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        f"{', strict' if args.strict else ''})"
    )
    return 1 if failed else 0


def cmd_rules(args: argparse.Namespace) -> int:
    if args.show_dsl:
        print(BASE_RULES.strip())
        return 0
    for star in _rule_set(args.rules):
        print(star)
        print()
    return 0


def _at_least_one(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Starburst STARs optimizer (Lohman, SIGMOD 1988) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _workload_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", metavar="SPEC", type=_workload_spec,
                       default="paper",
                       help="paper | paper-distributed | chain:N | star:N "
                            "| clique:N (default: %(default)s)")

    def _rules_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rules", metavar="SET", default="extended",
                       choices=("base", "extended", "all"),
                       help="builtin rule set: base | extended | all (adds "
                            "TID-sort, index OR/AND-ing and semijoins) "
                            "(default: %(default)s)")

    demo = sub.add_parser("demo", help="run the paper's Figure-1 query end to end")
    demo.add_argument("--distributed", action="store_true",
                      help="use the Figure-3 two-site placement")
    demo.set_defaults(fn=cmd_demo)

    optimize = sub.add_parser("optimize", help="plan (and run) a SQL query")
    optimize.add_argument("sql", help="a SELECT statement")
    optimize.add_argument("--execute", action="store_true", help="run the chosen plan")
    optimize.add_argument("--trace", action="store_true", help="print the expansion trace")
    optimize.add_argument("--limit", type=_non_negative, default=10,
                          help="rows to print")
    optimize.add_argument("--profile", action="store_true",
                          help="run under cProfile and print the top-20 "
                               "functions by cumulative time")
    _workload_flag(optimize)
    _rules_flag(optimize)
    optimize.set_defaults(fn=cmd_optimize)

    compile_plan = sub.add_parser(
        "compile-plan",
        help="lower the chosen plan to standalone SQL",
    )
    compile_plan.add_argument("sql", nargs="?", default=None,
                              help="a SELECT statement (default: the workload's query)")
    compile_plan.add_argument("--out", metavar="FILE",
                              help="write the SQL to FILE instead of stdout")
    _workload_flag(compile_plan)
    _rules_flag(compile_plan)
    compile_plan.set_defaults(fn=cmd_compile_plan)

    diff = sub.add_parser(
        "diff",
        help="run one plan on the query evaluator and on SQLite, compare row sets",
    )
    diff.add_argument("sql", nargs="?", default=None,
                      help="a SELECT statement (default: the workload's query)")
    diff.add_argument("--alternatives", type=_at_least_one, default=1, metavar="N",
                      help="check up to N distinct plans from the SAP (default 1: "
                           "the chosen plan only)")
    _workload_flag(diff)
    _rules_flag(diff)
    diff.set_defaults(fn=cmd_diff)

    bench_opt = sub.add_parser(
        "bench-opt",
        help="batch-optimize a workload over a process pool, report throughput",
    )
    bench_opt.add_argument("sql", nargs="?", default=None,
                           help="a SELECT statement (default: the workload's "
                                "own query)")
    bench_opt.add_argument("--queries", type=_at_least_one, default=8,
                           help="batch size: copies of the query to optimize "
                                "(default: 8)")
    bench_opt.add_argument("--workers", type=int, default=1,
                           help="process-pool workers; <=1 runs inline "
                                "(default: 1)")
    bench_opt.add_argument("--repeat", type=_at_least_one, default=1,
                           help="repetitions; the fastest run is reported "
                                "(default: 1)")
    bench_opt.add_argument("--no-prune", action="store_true",
                           help="disable dominance pruning (layer 3)")
    bench_opt.add_argument("--json", metavar="FILE",
                           help="write per-query results as JSON")
    bench_opt.add_argument("--profile", action="store_true",
                           help="run under cProfile and print the top-20 "
                                "functions by cumulative time")
    _workload_flag(bench_opt)
    _rules_flag(bench_opt)
    bench_opt.set_defaults(fn=cmd_bench_opt, workload="chain:5")

    rules = sub.add_parser("rules", help="print the builtin rule sets")
    rules.add_argument("--show-dsl", action="store_true",
                       help="print the base repertoire's DSL source text")
    _rules_flag(rules)
    rules.set_defaults(fn=cmd_rules)

    chaos = sub.add_parser(
        "chaos",
        help="run the distributed demo under fault injection with failover",
    )
    chaos.add_argument("--seed", type=int, default=0, help="chaos RNG seed")
    chaos.add_argument("--link-failure-prob", type=float, default=0.0,
                       help="per-attempt transient SHIP failure probability")
    chaos.add_argument("--site-failure-prob", type=float, default=0.0,
                       help="per-attempt random permanent site outage probability")
    chaos.add_argument("--kill-site", action="append", default=[],
                       metavar="SITE", help="schedule a permanent site outage")
    chaos.add_argument("--kill-link", action="append", default=[],
                       metavar="FROM:TO", help="schedule a permanent link outage")
    chaos.add_argument("--kill-at", type=int, default=1,
                       help="transfer attempt at which scheduled outages fire")
    chaos.add_argument("--no-retries", action="store_true",
                       help="fail transfers on their first transient error")
    chaos.add_argument("--trace-out", metavar="FILE",
                       help="write the structured event log as JSON lines")
    chaos.set_defaults(fn=cmd_chaos)

    trace = sub.add_parser(
        "trace",
        help="optimize and execute a query with full tracing",
    )
    trace.add_argument("sql", nargs="?", default=None,
                       help="a SELECT statement (default: Figure-1 query)")
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="Chrome trace_event output file (default: trace.json)")
    trace.add_argument("--jsonl", metavar="FILE",
                       help="also write the raw event log as JSON lines")
    trace.add_argument("--self-check", action="store_true",
                       help="trace the built-in demo and validate the event "
                            "stream against the schema (CI lint)")
    _workload_flag(trace)
    _rules_flag(trace)
    trace.set_defaults(fn=cmd_trace)

    analyze = sub.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE: per-operator estimated vs actual rows",
    )
    analyze.add_argument("sql", nargs="?", default=None,
                         help="a SELECT statement (default: Figure-1 query)")
    analyze.add_argument("--json", action="store_true",
                         help="also print the plan-level summary as JSON")
    analyze.add_argument("--metrics", action="store_true",
                         help="also print the full metrics snapshot")
    _workload_flag(analyze)
    _rules_flag(analyze)
    analyze.set_defaults(fn=cmd_analyze)

    adaptive = sub.add_parser(
        "adaptive",
        help="run a misestimated workload with checkpoints + re-optimization",
    )
    adaptive.add_argument("--qerror-threshold", type=float, default=10.0,
                          help="Q-error beyond which a checkpoint aborts "
                               "the running plan (default: 10)")
    adaptive.add_argument("--budget", metavar="E[:P[:T]]",
                          help="optimizer budget: max expansions, plans, "
                               "deadline ticks (anytime fallback on "
                               "exhaustion)")
    adaptive.add_argument("--max-reoptimizations", type=int, default=3,
                          help="re-optimization attempts before running "
                               "to completion unchecked (default: 3)")
    adaptive.add_argument("--rows-big", type=int, default=4000,
                          help="rows in the big B-tree table (default: 4000)")
    adaptive.add_argument("--rows-small", type=int, default=300,
                          help="rows in the small filtered heap (default: 300)")
    adaptive.add_argument("--seed", type=int, default=3, help="data RNG seed")
    adaptive.add_argument("--accurate", action="store_true",
                          help="keep statistics accurate (control run: no "
                               "checkpoint should fire)")
    adaptive.set_defaults(fn=cmd_adaptive)

    validate = sub.add_parser(
        "validate",
        help="statically lint a rule set (exit code reflects problems)",
    )
    validate.add_argument("file", nargs="?", default=None,
                          help="a DBC rule file (default: builtin rules)")
    validate.add_argument("--extend-builtin", action="store_true",
                          help="validate FILE as an extension of the builtin "
                               "rules")
    validate.add_argument("--strict", action="store_true",
                          help="also fail on warnings (e.g. an exclusive "
                               "STAR with no unconditional final alternative)")
    _rules_flag(validate)
    validate.set_defaults(fn=cmd_validate)

    def _service_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=int, default=2,
                       help="worker coroutines draining the queue (default: 2)")
        p.add_argument("--queue-limit", type=int, default=16,
                       help="admission-control bound: requests beyond this "
                            "many queued are shed (default: 16)")
        p.add_argument("--cache-size", type=int, default=256,
                       help="plan-template cache entries; 0 disables caching "
                            "(default: 256)")
        p.add_argument("--band", type=float, default=4.0,
                       help="selectivity-band factor for cached-plan reuse "
                            "(default: 4.0)")
        p.add_argument("--drift-threshold", type=float, default=10.0,
                       help="Q-error beyond which a feedback observation "
                            "counts as drift (default: 10)")
        p.add_argument("--breaker", type=int, default=3,
                       help="consecutive drift failures that trip an entry's "
                            "circuit breaker (default: 3)")
        p.add_argument("--pool-workers", type=int, default=0,
                       help="optimizer-pool subprocesses for the full/anytime "
                            "tiers; 0 optimizes in-loop (default: 0)")
        p.add_argument("--pool-timeout", type=float, default=30.0,
                       help="seconds a pooled optimization may take before "
                            "its worker is killed as hung (default: 30)")
        p.add_argument("--respawn-budget", type=int, default=3,
                       help="pool-worker respawns allowed before the pool "
                            "degrades to the heuristic tier (default: 3)")
        p.add_argument("--quarantine-strikes", type=int, default=3,
                       help="pool crashes/hangs that quarantine a template "
                            "to the heuristic tier; 0 disables (default: 3)")
        p.add_argument("--snapshot-dir", metavar="DIR",
                       help="keep a warm-restart snapshot of the plan/"
                            "feedback caches in DIR (loaded on start, "
                            "written on stop)")
        p.add_argument("--snapshot-every", type=int, default=0,
                       help="also snapshot every N handled requests "
                            "(default: 0 = only on stop)")

    def _telemetry_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sample", type=int, default=16,
                       help="trace 1-in-N requests; 0 disables request "
                            "tracing (default: 16)")
        p.add_argument("--flight-size", type=int, default=64,
                       help="flight-recorder ring size in requests; 0 "
                            "disables the recorder (default: 64)")
        p.add_argument("--flight-out", metavar="FILE",
                       help="append flight-recorder dumps to FILE as JSONL")
        p.add_argument("--slo-latency", type=float, default=None,
                       metavar="SECONDS",
                       help="latency SLO: this fraction of a second or "
                            "faster for --slo-target of requests")
        p.add_argument("--slo-target", type=float, default=0.99,
                       help="good-fraction target of the latency SLO "
                            "(default: 0.99)")
        p.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve /metrics + /healthz on PORT while "
                            "running (0 picks a free port)")
        p.add_argument("--trace-out", metavar="FILE",
                       help="write the request-stamped event log as JSON "
                            "lines")

    def _loadgen_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--requests", type=int, default=60,
                       help="total requests across all phases (default: 60)")
        p.add_argument("--tables", type=int, default=4,
                       help="chain-workload size templates are built over "
                            "(default: 4)")
        p.add_argument("--rows", type=int, default=200,
                       help="rows per workload table (default: 200)")
        p.add_argument("--templates", type=int, default=6,
                       help="distinct query templates in the pool "
                            "(default: 6)")
        p.add_argument("--skew", type=float, default=1.2,
                       help="Zipf exponent of the template mix; 0 = uniform "
                            "(default: 1.2)")
        p.add_argument("--jitter", type=int, default=3,
                       help="max +/- jitter on a template's center constant "
                            "(default: 3)")
        p.add_argument("--wild", type=float, default=0.0,
                       help="fraction of requests with out-of-band "
                            "constants (default: 0)")
        p.add_argument("--tenants", type=int, default=3,
                       help="tenants, assigned round-robin (default: 3)")
        p.add_argument("--seed", type=int, default=7,
                       help="request-stream RNG seed (default: 7)")

    serve = sub.add_parser(
        "serve",
        help="run queries through the optimizer service (cache + "
             "admission control + degradation tiers)",
    )
    serve.add_argument("sql", nargs="*",
                       help="SELECT statements (default: the workload's "
                            "own query)")
    serve.add_argument("--repeat", type=int, default=3,
                       help="times each query is submitted — repeats "
                            "demonstrate warm cache hits (default: 3)")
    serve.add_argument("--tenants", type=int, default=1,
                       help="tenants requests are spread over round-robin "
                            "(default: 1)")
    serve.add_argument("--burst", type=_at_least_one, default=None,
                       help="requests submitted back-to-back before awaiting "
                            "(default: the queue limit)")
    _service_flags(serve)
    _telemetry_flags(serve)
    serve.add_argument("--json", metavar="FILE",
                       help="write the service report as JSON")
    _workload_flag(serve)
    _rules_flag(serve)
    serve.set_defaults(fn=cmd_serve, workload="chain:4")

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the service with a deterministic skewed request "
             "stream (warmup/steady/overload)",
    )
    _loadgen_flags(loadgen)
    _service_flags(loadgen)
    _telemetry_flags(loadgen)
    loadgen.add_argument("--json", metavar="FILE",
                         help="write load + service reports as JSON")
    _rules_flag(loadgen)
    loadgen.set_defaults(fn=cmd_loadgen)

    metrics = sub.add_parser(
        "metrics",
        help="run a query (or a short serve burst) and print the "
             "registry as OpenMetrics text",
    )
    metrics.add_argument("sql", nargs="?",
                         help="SELECT statement (default: the workload's "
                              "own query)")
    metrics.add_argument("--serve", type=int, default=0, metavar="N",
                         help="route N copies through the optimizer service "
                              "and scrape its registry instead")
    metrics.add_argument("--out", metavar="FILE",
                         help="write the OpenMetrics text to FILE")
    _workload_flag(metrics)
    _rules_flag(metrics)
    metrics.set_defaults(fn=cmd_metrics)

    dash = sub.add_parser(
        "dash",
        help="loadgen with a live terminal dashboard (tier mix, queue, "
             "latency quantiles, SLO burn)",
    )
    _loadgen_flags(dash)
    _service_flags(dash)
    _telemetry_flags(dash)
    dash.add_argument("--refresh", type=int, default=1,
                      help="repaint every Nth burst (default: 1)")
    dash.add_argument("--no-repaint", action="store_true",
                      help="append frames instead of repainting in place "
                           "(log-friendly)")
    _rules_flag(dash)
    dash.set_defaults(fn=cmd_dash)

    snapshot = sub.add_parser(
        "snapshot",
        help="validate and summarize a warm-restart snapshot file",
    )
    snapshot.add_argument("file",
                          help="snapshot file, or a --snapshot-dir directory")
    snapshot.add_argument("--json", action="store_true",
                          help="print the summary as JSON instead of text")
    snapshot.set_defaults(fn=cmd_snapshot)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, ValueError) as exc:
        # ValueError: a flag value outside the range a config dataclass's
        # __post_init__ accepts — those validators are the one definition
        # of the legal ranges.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
