"""Optimizer-as-a-service: plan-template cache + async serving layer.

The serving layer (experiment E15) turns the optimizer into a bounded,
overload-tolerant service:

* :mod:`repro.serve.cache` — :class:`PlanTemplateCache`, one guarded
  plan per canonical query template, with selectivity-band reuse guards
  and a Q-error drift circuit breaker fed by the runtime feedback cache;
* :mod:`repro.serve.service` — :class:`OptimizerService`, the asyncio
  front end: bounded-queue admission control with explicit load
  shedding, per-request optimizer budgets, deadline propagation, and the
  graceful degradation ladder (cached → full → anytime → heuristic →
  stale), every response labeled with its tier;
* :mod:`repro.serve.loadgen` — deterministic skewed load generation and
  the warmup/steady/overload phase driver behind ``repro loadgen``;
* :mod:`repro.serve.http` — :class:`MetricsServer`, the stdlib
  ``/metrics`` (OpenMetrics) + ``/healthz`` scrape endpoint;
* :mod:`repro.serve.dash` — the terminal dashboard behind
  ``repro dash``, refreshed from the load generator's progress hook;
* :mod:`repro.serve.pool` — :class:`OptimizerPool`, the supervised
  out-of-process optimization pool: per-request wall-clock timeouts,
  crash detection, respawn-with-priming under a bounded budget, and
  seeded chaos injection (:class:`PoolChaos`);
* :mod:`repro.serve.quarantine` — :class:`TemplateQuarantine`,
  K-strike/TTL-decayed quarantine of poison templates to the heuristic
  tier;
* :mod:`repro.serve.snapshot` — versioned, checksummed, atomically
  written warm-restart snapshots of the plan-template and feedback
  caches.

Telemetry (experiment E16) threads through all of it: every request
carries a :class:`~repro.obs.telemetry.TraceContext`, latency flows into
the shared quantile histograms, the flight recorder keeps the last K
request summaries, and SLO burn rates feed the degradation ladder — see
:mod:`repro.obs.telemetry`.
"""

from repro.serve.cache import (
    PlanTemplateCache,
    TemplateCacheStats,
    TemplateEntry,
)
from repro.serve.dash import Dashboard
from repro.serve.http import MetricsServer
from repro.serve.loadgen import (
    LoadReport,
    LoadSpec,
    Phase,
    PhaseReport,
    Template,
    build_templates,
    default_phases,
    drive,
    generate,
    percentile,
    run_load,
)
from repro.serve.pool import (
    OptimizerPool,
    PoolChaos,
    PoolConfig,
    PoolResult,
    PoolStats,
)
from repro.serve.quarantine import QuarantineStats, TemplateQuarantine
from repro.serve.service import (
    ALL_TIERS,
    PLAN_TIERS,
    TIER_ANYTIME,
    TIER_CACHED,
    TIER_ERROR,
    TIER_EXPIRED,
    TIER_FULL,
    TIER_HEURISTIC,
    TIER_REJECTED,
    TIER_SHUTDOWN,
    TIER_STALE,
    OptimizerService,
    Request,
    Response,
    ServiceConfig,
    ServiceReport,
)
from repro.serve.snapshot import (
    Snapshot,
    SnapshotError,
    inspect_snapshot,
    load_snapshot,
    restore_snapshot,
    save_snapshot,
)

__all__ = [
    "Dashboard",
    "MetricsServer",
    "PlanTemplateCache",
    "TemplateCacheStats",
    "TemplateEntry",
    "OptimizerService",
    "OptimizerPool",
    "PoolChaos",
    "PoolConfig",
    "PoolResult",
    "PoolStats",
    "QuarantineStats",
    "TemplateQuarantine",
    "Snapshot",
    "SnapshotError",
    "inspect_snapshot",
    "load_snapshot",
    "restore_snapshot",
    "save_snapshot",
    "ServiceConfig",
    "ServiceReport",
    "Request",
    "Response",
    "percentile",
    "ALL_TIERS",
    "PLAN_TIERS",
    "TIER_CACHED",
    "TIER_FULL",
    "TIER_ANYTIME",
    "TIER_HEURISTIC",
    "TIER_STALE",
    "TIER_REJECTED",
    "TIER_ERROR",
    "TIER_EXPIRED",
    "TIER_SHUTDOWN",
    "LoadSpec",
    "Template",
    "Phase",
    "PhaseReport",
    "LoadReport",
    "build_templates",
    "generate",
    "default_phases",
    "run_load",
    "drive",
]
