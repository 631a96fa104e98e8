"""The asyncio optimizer service: admit, degrade, never die.

:class:`OptimizerService` is the front end that turns the single-process
optimizer into something that survives heavy traffic.  Every request
takes one of these paths, and every response is labeled with the path
that produced it:

1. **cached** — the plan-template cache holds a fresh, in-band,
   non-drifted plan for the query's template (the common case for
   repeated parameterized shapes; no optimization at all);
2. **full** — a complete optimization under the tenant's (by default
   unlimited) budget;
3. **anytime** — a deadline-capped optimization; the budget's
   ``deadline_ticks`` carries the request deadline into the engine and
   exhaustion yields the best partial-plan-table plan (PR 3 semantics —
   it never raises);
4. **heuristic** — the search-free greedy plan
   (:meth:`~repro.optimizer.optimizer.StarburstOptimizer.optimize_heuristic`),
   O(tables²·predicates) whatever the load;
5. **stale** — a cached plan whose band or drift guard failed, served
   knowingly because shedding is worse;
6. **rejected** — admission control: the bounded queue is full and the
   request is shed with an explicit response, *before* queuing;
7. **expired** — the request's wall-clock deadline had already passed
   when a worker dequeued it: shed at dequeue instead of spending
   optimizer budget on an answer nobody is waiting for;
8. **shutdown** — the service stopped (``stop(drain=False)``) while the
   request was still queued, or the request was submitted after stop;
   resolved explicitly, never dropped.

Tiers 3–5 are chosen by current load (queue depth over
``queue_limit``), the request's remaining deadline, and — when SLOs are
configured — the rolling error-budget **burn rate** from
:class:`~repro.obs.slo.SLOMonitor`, so degradation is a measured policy
rather than a queue-length heuristic.  The full and anytime tiers
optimize through :func:`~repro.serve.pool.optimize_under_limits`, on the
in-loop optimizer or in a pool worker: a fresh budget of the tier's
shape per request, so exhaustion cannot leak between requests.

Every request is counted once, by tier, where it is resolved
(:meth:`OptimizerService._resolve`); ``rejections`` and ``errors`` are
sums over those counts, and the metrics registry *reads* them
(``serve.*``, ``snapshot.*``) when asked.  The four tiers that deliver
no plan share one builder (:meth:`OptimizerService._no_plan`).

Every request carries a :class:`~repro.obs.telemetry.TraceContext`
minted at admission: a deterministic request id stamped (via
``tracer.context``) into every event its handling emits, so one sampled
request yields one contiguous span tree — admission instant, tier
decision, cache probe, optimizer expansion — in the standard JSONL/
Chrome export.  Unsampled requests run untraced (the component tracers
are silenced for the duration), except that failures always emit a
``serve``/``error`` instant.  A :class:`~repro.obs.flight.FlightRecorder`
keeps the last K request summaries and dumps them when the drift
breaker trips, a deadline-bounded request exhausts its budget, or an
SLO enters violation.  Each of the three has its own zero in
:class:`~repro.obs.telemetry.TelemetryConfig` (``sample_every=0``,
``flight_capacity=0``, ``slos=()``); there is no master switch.

The service is single-loop asyncio: workers interleave with admission
but optimizations themselves run inline, so behavior under a
deterministic request schedule is reproducible — what the E15 overload
gates rely on.

**Crash safety** (experiment E17) is opt-in by configuration: with
``pool_workers > 0`` the full and anytime tiers dispatch to a supervised
:class:`~repro.serve.pool.OptimizerPool` of worker subprocesses — a
crashed or hung optimization costs one respawn, never the service; the
request fails over to the in-loop heuristic tier.  Templates that keep
killing workers are quarantined by :class:`~repro.serve.quarantine.
TemplateQuarantine` and served heuristically without touching the pool.
With ``snapshot_path`` set, the plan-template and feedback caches are
snapshotted atomically (periodically and on stop) and restored on
construction, so a restarted service starts warm; a corrupt or
version-skewed snapshot file cold-starts, never crashes (see
:mod:`repro.serve.snapshot`).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import asdict, dataclass, field

from repro.catalog.catalog import Catalog
from repro.config import OptimizerConfig
from repro.cost.model import CostWeights
from repro.errors import ReproError
from repro.obs.flight import FlightRecord, FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.obs.telemetry import TelemetryConfig, TraceContext, TraceSampler
from repro.obs.trace import Tracer
from repro.optimizer.batch import BatchSpec
from repro.optimizer.optimizer import StarburstOptimizer
from repro.query.parser import parse_query
from repro.query.query import QueryBlock
from repro.query.template import query_template
from repro.robust.feedback import FeedbackCache
from repro.serve.cache import PlanTemplateCache
from repro.serve.pool import (
    OptimizerPool,
    PoolChaos,
    PoolConfig,
    PoolResult,
    PoolStats,
    optimize_under_limits,
)
from repro.serve.quarantine import TemplateQuarantine
from repro.serve.snapshot import (
    SnapshotError,
    load_snapshot,
    restore_snapshot,
    save_snapshot,
)
from repro.stars.ast import RuleSet

TIER_CACHED = "cached"
TIER_FULL = "full"
TIER_ANYTIME = "anytime"
TIER_HEURISTIC = "heuristic"
TIER_STALE = "stale"
TIER_REJECTED = "rejected"
TIER_ERROR = "error"
TIER_EXPIRED = "expired"
TIER_SHUTDOWN = "shutdown"

#: Tiers that deliver a plan, best first — the degradation ladder.
PLAN_TIERS = (TIER_CACHED, TIER_FULL, TIER_ANYTIME, TIER_HEURISTIC, TIER_STALE)
ALL_TIERS = PLAN_TIERS + (TIER_REJECTED, TIER_ERROR, TIER_EXPIRED,
                          TIER_SHUTDOWN)

#: The tiers that deliver no plan: tier → (``serve.`` metric field, trace
#: instant, error text).  Everything :meth:`OptimizerService._no_plan`
#: needs to know about them.
_NO_PLAN = {
    TIER_REJECTED: ("rejected", "rejected", None),
    TIER_ERROR: ("errors", "error", None),
    TIER_EXPIRED: ("expired", "expired", "deadline expired in queue"),
    TIER_SHUTDOWN: ("shutdown", "shutdown_shed", "service stopped"),
}

#: Bound on the service's own feedback cache (it serves every tenant).
FEEDBACK_CAPACITY = 1024
#: Request deadlines (logical ticks) at or below these force the tier.
ANYTIME_DEADLINE = 2000
HEURISTIC_DEADLINE = 200
#: SLO burn rate at or above which the tier chooser degrades new
#: requests to at least ``anytime`` / ``heuristic``.
SLO_ANYTIME_BURN = 1.0
SLO_HEURISTIC_BURN = 2.0


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer (the optimizer keeps its own config)."""

    #: Concurrent worker coroutines draining the queue.
    workers: int = 2
    #: Admission-control bound: requests beyond this many queued are shed.
    queue_limit: int = 16
    #: Plan-template cache entries (0 disables caching).
    cache_capacity: int = 256
    #: Selectivity-band guard factor for cached-plan reuse.
    band_factor: float = 4.0
    #: Q-error beyond which a feedback observation counts as drift.
    drift_threshold: float = 10.0
    #: Consecutive drift failures that trip an entry's circuit breaker.
    breaker_threshold: int = 3
    #: Logical-tick deadline imposed on anytime-tier optimizations.
    anytime_ticks: int = 2000
    #: Load thresholds (fractions of ``queue_limit``) for degradation.
    anytime_load: float = 0.5
    heuristic_load: float = 0.75
    stale_load: float = 0.9
    #: Optimizer-pool subprocesses for the full/anytime tiers (0 = run
    #: optimizations in-loop, PR 6 behavior).
    pool_workers: int = 0
    #: Wall-clock seconds a pooled optimization may take before its
    #: worker is declared hung and killed.
    pool_timeout: float = 30.0
    #: Worker respawns allowed over the pool's lifetime.
    pool_respawn_budget: int = 3
    #: Pool crashes/hangs that quarantine a template (0 disables).
    quarantine_strikes: int = 3
    #: Snapshot file for warm restarts (None disables snapshotting).
    snapshot_path: str | None = None
    #: Requests between periodic snapshots (0 = only on stop).
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.pool_workers < 0:
            raise ValueError("pool_workers must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")


@dataclass(frozen=True)
class Request:
    """One optimization request."""

    query: QueryBlock | str
    tenant: str = "default"
    #: Remaining logical-tick deadline (None = no deadline).  Propagated
    #: into the optimizer budget's ``deadline_ticks``.
    deadline_ticks: int | None = None
    #: Wall-clock deadline in seconds from admission (None = none).  A
    #: request still queued past it is shed at dequeue (``expired``).
    deadline_seconds: float | None = None
    #: Optional label (the load generator tags its template) — reporting
    #: only, never part of any cache key.
    template: str | None = None


@dataclass
class Response:
    """What the service answered — always one of these, never a crash."""

    ok: bool
    tier: str
    tenant: str = "default"
    rejected: bool = False
    plan_digest: str = ""
    best_cost: float = 0.0
    cache_hit: bool = False
    budget_exhausted: bool = False
    #: Queue depth observed at admission time.
    queue_depth: int = 0
    #: Admission → completion wall time.
    elapsed_seconds: float = 0.0
    template: str | None = None
    error: str | None = None
    #: Deterministic request id (``req-000042``), minted at admission.
    request_id: str = ""
    #: Whether this request's handling was traced (telemetry sampling).
    sampled: bool = False
    #: What the plan-template cache said: hit / stale / miss / none.
    cache_outcome: str = "none"
    #: Last drift-check Q-error of the served cache entry, if any.
    drift_q: float | None = None
    #: STAR references the optimization consumed (0 for cached/heuristic).
    budget_expansions: int = 0
    #: Whether the optimization ran in a pool worker subprocess.
    pooled: bool = False
    #: Pool failure this request survived (``crash`` / ``timeout`` /
    #: ``degraded``), None when the pool behaved.
    pool_failure: str | None = None
    #: Whether the template was quarantined (served heuristically,
    #: pool untouched).
    quarantined: bool = False

    @property
    def degraded(self) -> bool:
        return self.tier in (TIER_ANYTIME, TIER_HEURISTIC, TIER_STALE)


@dataclass
class ServiceReport:
    """Aggregate view of everything the service did so far."""

    requests: int = 0
    rejections: int = 0
    errors: int = 0
    tiers: dict[str, int] = field(default_factory=dict)
    max_queue_depth: int = 0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    latency_mean: float = 0.0
    cache: dict[str, float] = field(default_factory=dict)
    feedback: dict[str, float] = field(default_factory=dict)
    slo: dict[str, dict[str, float]] = field(default_factory=dict)
    flight_dumps: int = 0
    pool: dict[str, float] = field(default_factory=dict)
    quarantine: dict[str, float] = field(default_factory=dict)
    snapshot: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        lines = [
            f"served {self.requests} request(s): "
            f"{self.rejections} rejected, {self.errors} error(s)",
            "  tiers: "
            + ", ".join(
                f"{tier}={self.tiers.get(tier, 0)}"
                for tier in ALL_TIERS
                if self.tiers.get(tier, 0)
            ),
            f"  max queue depth: {self.max_queue_depth}",
            f"  latency p50/p99/mean: {self.latency_p50 * 1e3:.2f} / "
            f"{self.latency_p99 * 1e3:.2f} / {self.latency_mean * 1e3:.2f} ms",
            f"  cache: {self.cache.get('hits', 0):.0f}/"
            f"{self.cache.get('lookups', 0):.0f} hits "
            f"(rate {self.cache.get('hit_rate', 0.0):.2f}), "
            f"{self.cache.get('band_misses', 0):.0f} band miss(es), "
            f"{self.cache.get('breaker_trips', 0):.0f} breaker trip(s), "
            f"{self.cache.get('evictions', 0):.0f} eviction(s)",
        ]
        for name, state in self.slo.items():
            lines.append(
                f"  slo {name}: burn {state['burn_rate']:.2f}, "
                f"budget {state['budget_remaining']:.2f}"
                + (" [VIOLATED]" if state.get("violated") else "")
            )
        if self.flight_dumps:
            lines.append(f"  flight dumps: {self.flight_dumps}")
        if self.pool:
            lines.append(
                f"  pool: {self.pool.get('completed', 0):.0f}/"
                f"{self.pool.get('dispatched', 0):.0f} completed, "
                f"{self.pool.get('crashes', 0):.0f} crash(es), "
                f"{self.pool.get('timeouts', 0):.0f} timeout(s), "
                f"{self.pool.get('respawns', 0):.0f} respawn(s)"
            )
        if self.quarantine.get("quarantines", 0):
            lines.append(
                f"  quarantine: {self.quarantine.get('active', 0):.0f} "
                f"active, {self.quarantine.get('quarantines', 0):.0f} "
                f"total, {self.quarantine.get('served', 0):.0f} served "
                "heuristically"
            )
        if self.snapshot:
            lines.append(
                f"  snapshot: loaded={bool(self.snapshot.get('loads'))}, "
                f"{self.snapshot.get('saves', 0):.0f} save(s), "
                f"{self.snapshot.get('templates_restored', 0):.0f} "
                "template(s) restored"
            )
        return "\n".join(lines)


class OptimizerService:
    """Asyncio serving front end over one :class:`StarburstOptimizer`.

    Use as an async context manager, or call :meth:`serve_all` for a
    synchronous drive (CLI, benchmarks)::

        service = OptimizerService(catalog)
        responses = service.serve_all([Request(sql) for sql in batch])
    """

    def __init__(
        self,
        catalog: Catalog,
        rules: RuleSet | None = None,
        config: OptimizerConfig | None = None,
        weights: CostWeights | None = None,
        service: ServiceConfig | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        feedback: FeedbackCache | None = None,
        telemetry: TelemetryConfig | None = None,
        pool_chaos: PoolChaos | None = None,
    ):
        self.config = service if service is not None else ServiceConfig()
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryConfig()
        )
        self.tracer = tracer
        # The registry is always present: it is the single path behind
        # ServiceReport percentiles and the /metrics endpoint.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if feedback is None:
            feedback = FeedbackCache(
                tracer=self.tracer, metrics=self.metrics,
                capacity=FEEDBACK_CAPACITY,
            )
        self.feedback = feedback
        self.optimizer = StarburstOptimizer(
            catalog, rules=rules, config=config, weights=weights,
            tracer=tracer, metrics=self.metrics, feedback=feedback,
        )
        self.cache = PlanTemplateCache(
            catalog,
            capacity=self.config.cache_capacity,
            band_factor=self.config.band_factor,
            drift_threshold=self.config.drift_threshold,
            breaker_threshold=self.config.breaker_threshold,
            feedback=feedback,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._sampler = TraceSampler(
            self.telemetry.sample_every if self.tracer is not None else 0
        )
        self._slo = SLOMonitor(self.telemetry.slos, metrics=self.metrics)
        self.flight: FlightRecorder | None = (
            FlightRecorder(self.telemetry.flight_capacity)
            if self.telemetry.flight_capacity > 0 else None
        )
        #: Text of the most recent flight-recorder dump (None until one
        #: triggers) — what tests and the forced-trip E16 gate read.
        self.last_flight_dump: str | None = None
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        #: The service's one ledger: requests minted, and responses
        #: resolved per tier (bumped by :meth:`_resolve`, nowhere else).
        self.requests = 0
        self._tiers: dict[str, int] = {}
        self.max_queue_depth = 0
        self.metrics.register(
            "serve.", self._serve_counts,
            gauges=("queue_depth", "queue_depth_max"),
        )
        #: True between a stop() and the next start(): submits are shed
        #: with ``shutdown`` responses instead of raising.
        self._stopped = False
        # -- crash safety (E17): pool, quarantine, snapshots ---------------
        #: The picklable worker spec — what primes (and re-primes) every
        #: pool worker subprocess.
        self._spec = BatchSpec(
            catalog=catalog, rules=rules, config=config, weights=weights,
        )
        self._pool_chaos = pool_chaos
        self.pool: OptimizerPool | None = None
        self._pool_seq = 0
        #: The latest pool's stats object — it outlives close(), for
        #: reporting.
        self._pool_stats: PoolStats | None = None
        self.quarantine = TemplateQuarantine(
            strikes=self.config.quarantine_strikes,
            metrics=self.metrics, tracer=self.tracer,
        )
        self._since_snapshot = 0
        self.snapshot_saves = 0
        self.snapshot_save_failures = 0
        #: Whether construction restored state from a snapshot file.
        self.snapshot_loaded = False
        #: Why the last snapshot load fell back to cold start, if it did.
        self.snapshot_error: str | None = None
        self.templates_restored = 0
        self.feedback_restored = 0
        if self.config.snapshot_path:
            self.metrics.register(
                "snapshot.", self._snapshot_counts,
                gauges=("templates_restored", "feedback_restored"),
            )
        self._load_snapshot()

    @property
    def rejections(self) -> int:
        """Requests shed without handling: rejected + expired + shutdown."""
        return sum(self._tiers.get(t, 0) for t in _NO_PLAN if t != TIER_ERROR)

    @property
    def errors(self) -> int:
        return self._tiers.get(TIER_ERROR, 0)

    def _serve_counts(self) -> dict[str, float]:
        """What the registry reads under ``serve.``."""
        counts = {
            "requests": self.requests,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_depth_max": self.max_queue_depth,
        }
        for tier, count in list(self._tiers.items()):  # a scrape thread
            field = _NO_PLAN[tier][0] if tier in _NO_PLAN else f"tier.{tier}"
            counts[field] = count
        return counts

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spin up the worker coroutines (idempotent).

        The optimizer pool (``pool_workers > 0``) is created lazily on
        the first start and then *persists across stop()* — respawn
        budgets and quarantine state are pool-lifetime properties, and
        ``serve_all`` starts/stops the asyncio side per call.  Use
        :meth:`close` to shut the pool down for good.
        """
        if self._workers:
            return
        if self.config.pool_workers > 0 and self.pool is None:
            self.pool = OptimizerPool(
                self._spec,
                PoolConfig(
                    workers=self.config.pool_workers,
                    request_timeout=self.config.pool_timeout,
                    respawn_budget=self.config.pool_respawn_budget,
                ),
                chaos=self._pool_chaos,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            self._pool_stats = self.pool.stats
        self._stopped = False
        self._queue = asyncio.Queue()
        self._workers = [
            asyncio.create_task(self._worker())
            for _ in range(self.config.workers)
        ]

    async def stop(self, drain: bool = True) -> None:
        """Stop every worker; snapshot if configured.

        ``drain=True`` (the default) finishes every queued request
        first.  ``drain=False`` is the bounded-time restart path: still-
        queued requests are shed with explicit ``shutdown`` responses —
        only optimizations already in flight finish.  Either way the
        service ends stopped, with a fresh snapshot on disk when
        ``snapshot_path`` is set.
        """
        if not self._workers:
            return
        shed: list = []
        while not drain and not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None:  # a concurrent stop()'s sentinel
                shed.append(item)
        for _ in self._workers:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._workers)
        self._workers = []
        self._queue = None
        self._stopped = True
        for item in shed:
            self._resolve(item, self._no_plan(item, TIER_SHUTDOWN))
        self.save_snapshot()  # a no-op without a snapshot_path

    def close(self) -> None:
        """Release out-of-process resources (the optimizer pool).

        Separate from :meth:`stop` on purpose: ``serve_all`` stops and
        restarts the asyncio side per call, and the pool must survive
        that.  Safe to call repeatedly; a later :meth:`start` re-creates
        the pool.
        """
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    async def __aenter__(self) -> "OptimizerService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- admission -----------------------------------------------------------

    def submit_nowait(self, request: Request) -> "asyncio.Future[Response]":
        """Admit or shed ``request``; the returned future always resolves.

        Shedding happens *here*, synchronously: when the queue already
        holds ``queue_limit`` requests the future resolves immediately
        with an explicit rejected response and nothing is enqueued — the
        queue length is bounded by construction.  Every request — even a
        shed one — gets a :class:`TraceContext` with a deterministic id.

        After :meth:`stop` the service is not gone, just stopped:
        submits resolve immediately with an explicit ``shutdown``
        response (a rejection, not an exception) until the next
        :meth:`start`.  Submitting to a *never-started* service is still
        a programming error and raises.
        """
        if self._queue is None and not self._stopped:
            raise RuntimeError("service is not started (use start()/serve_all)")
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Response] = loop.create_future()
        seq = self.requests
        self.requests += 1
        ctx = TraceContext(
            request_id=f"req-{seq:06d}",
            seq=seq,
            tenant=request.tenant,
            template=request.template,
            sampled=self._queue is not None and self._sampler.sample(seq),
        )
        # A request that never reaches the queue waited for nothing: its
        # item carries no admission time and ``elapsed_seconds`` stays 0.
        if self._queue is None:
            item = (request, ctx, future, None, 0)
            self._resolve(item, self._no_plan(item, TIER_SHUTDOWN))
            return future
        depth = self._queue.qsize()
        if depth >= self.config.queue_limit:
            item = (request, ctx, future, None, depth)
            self._resolve(item, self._no_plan(item, TIER_REJECTED, depth=depth))
            return future
        self._queue.put_nowait(
            (request, ctx, future, time.perf_counter(), depth)
        )
        self.max_queue_depth = max(self.max_queue_depth, self._queue.qsize())
        return future

    def _no_plan(
        self, item: tuple, tier: str, error: str | None = None, **instant_args
    ) -> Response:
        """The one exit of a request that gets no plan.

        Stamps the tier's one trace instant under the request's context
        and builds the response; :data:`_NO_PLAN` holds what differs by
        tier.  The ``error`` instant is the always-on-error net — an
        unsampled failure still leaves a stamped event; a sampled one
        already shows in its own span tree.
        """
        request, ctx = item[:2]
        _, instant, text = _NO_PLAN[tier]
        if error is None:
            error = text
        traced = self.tracer is not None
        if tier == TIER_ERROR:
            traced = traced and not ctx.sampled
            instant_args = {"tier": tier, "message": error}
        if traced:
            with self.tracer.context(**ctx.trace_args()):
                self.tracer.instant("serve", instant, **instant_args)
        return Response(
            ok=False, tier=tier, tenant=request.tenant,
            rejected=tier != TIER_ERROR, template=request.template,
            error=error,
        )

    def _resolve(self, item: tuple, response: Response) -> None:
        """The one finisher: stamp, count the tier, resolve the future.

        Every response — planned or not — ends here, which is what makes
        ``requests == sum(tiers)`` hold whenever nothing is in flight.
        ``item`` is the queue's ``(request, ctx, future, admitted,
        depth)``.
        """
        _request, ctx, future, admitted, depth = item
        response.queue_depth = depth
        if admitted is not None:
            response.elapsed_seconds = time.perf_counter() - admitted
        response.request_id = ctx.request_id
        response.sampled = ctx.sampled
        self._tiers[response.tier] = self._tiers.get(response.tier, 0) + 1
        if not future.done():
            future.set_result(response)

    async def request(self, request: Request) -> Response:
        """Submit one request and await its response."""
        return await self.submit_nowait(request)

    def serve_all(
        self, requests: list[Request], burst: int | None = None
    ) -> list[Response]:
        """Synchronous drive: submit in bursts, return responses in order.

        ``burst`` requests are submitted back-to-back before any is
        awaited (default: the queue limit) — bursts larger than the queue
        limit exercise admission control.
        """
        wave = burst if burst is not None else self.config.queue_limit

        async def _run() -> list[Response]:
            async with self:
                responses: list[Response] = []
                for start in range(0, len(requests), wave):
                    futures = [
                        self.submit_nowait(r)
                        for r in requests[start:start + wave]
                    ]
                    responses.extend(await asyncio.gather(*futures))
                return responses

        return asyncio.run(_run())

    # -- snapshots -----------------------------------------------------------

    def _load_snapshot(self) -> None:
        """Restore caches from ``snapshot_path`` at construction.

        Missing file = first boot = silent cold start.  An *invalid*
        file (corrupt, truncated, version-skewed) is counted and
        remembered on ``snapshot_error`` — and the service cold-starts;
        a bad snapshot may cost warm-up, never availability.
        """
        path = self.config.snapshot_path
        if not path or not os.path.exists(path):
            return
        try:
            snapshot = load_snapshot(path)
        except SnapshotError as exc:
            self.snapshot_error = str(exc)
            if self.tracer is not None:
                self.tracer.instant(
                    "serve", "snapshot_load_failed", error=str(exc)
                )
            return
        self.templates_restored, self.feedback_restored = restore_snapshot(
            snapshot, self.cache, self.feedback
        )
        self.snapshot_loaded = True
        if self.tracer is not None:
            self.tracer.instant(
                "serve", "snapshot_loaded",
                templates=self.templates_restored,
                feedback=self.feedback_restored,
            )

    def save_snapshot(self) -> bool:
        """Write the configured snapshot now; False on failure.

        A failed save (disk full, permissions) is counted and swallowed
        — snapshotting is an optimization, never a reason to take the
        service down.
        """
        path = self.config.snapshot_path
        if not path:
            return False
        try:
            save_snapshot(path, self.cache, self.feedback)
        except OSError as exc:
            self.snapshot_save_failures += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "serve", "snapshot_save_failed", error=str(exc)
                )
            return False
        self._since_snapshot = 0
        self.snapshot_saves += 1
        return True

    def _maybe_snapshot(self) -> None:
        """Periodic snapshotting, counted in requests handled."""
        if not self.config.snapshot_path or self.config.snapshot_every <= 0:
            return
        self._since_snapshot += 1
        if self._since_snapshot >= self.config.snapshot_every:
            self.save_snapshot()

    def _snapshot_counts(self) -> dict[str, float]:
        """What the registry reads under ``snapshot.`` (construction
        loads at most once, so the two load counters are 0 or 1)."""
        return {
            "loads": int(self.snapshot_loaded),
            "load_failures": int(self.snapshot_error is not None),
            "saves": self.snapshot_saves,
            "save_failures": self.snapshot_save_failures,
            "templates_restored": self.templates_restored,
            "feedback_restored": self.feedback_restored,
        }

    # -- reporting -----------------------------------------------------------

    def report(self) -> ServiceReport:
        latency = self.metrics.histogram("serve.latency_seconds")
        return ServiceReport(
            requests=self.requests,
            rejections=self.rejections,
            errors=self.errors,
            tiers=dict(self._tiers),
            max_queue_depth=self.max_queue_depth,
            latency_p50=latency.quantile(0.50),
            latency_p99=latency.quantile(0.99),
            latency_mean=latency.mean,
            cache=self.cache.stats.as_dict(),
            feedback=self.feedback.as_dict(),
            slo=self._slo.status(),
            flight_dumps=self.flight.dumps if self.flight is not None else 0,
            pool=self._pool_stats.as_dict() if self._pool_stats else {},
            quarantine=self.quarantine.as_dict(),
            snapshot=(
                self._snapshot_counts()
                if self.config.snapshot_path else {}
            ),
        )

    # -- the worker ----------------------------------------------------------

    async def _worker(self) -> None:
        while (item := await self._queue.get()) is not None:
            request, ctx, _future, admitted, _depth = item
            deadline = request.deadline_seconds
            if (
                deadline is not None
                and time.perf_counter() - admitted >= deadline
            ):
                # Expired in queue: nobody is waiting for this answer —
                # shed it instead of spending optimizer budget.
                self._resolve(item, self._no_plan(
                    item, TIER_EXPIRED, deadline_seconds=deadline
                ))
                continue
            breaker_before = self.cache.stats.breaker_trips
            quarantines_before = self.quarantine.stats.quarantines
            try:
                response = self._handle(request, ctx)
            except Exception as exc:  # safety net: requests never die unhandled
                response = self._no_plan(item, TIER_ERROR, error=str(exc))
            self._resolve(item, response)
            # Handled and errored requests feed the latency histogram,
            # the SLOs and the flight recorder; shed ones never do.
            self._finish_telemetry(
                request, ctx, response, breaker_before, quarantines_before
            )
            self._maybe_snapshot()

    def _finish_telemetry(
        self,
        request: Request,
        ctx: TraceContext,
        response: Response,
        breaker_before: int,
        quarantines_before: int,
    ) -> None:
        """Post-response telemetry: latency, SLOs, the flight recorder."""
        self.metrics.observe(
            "serve.latency_seconds", response.elapsed_seconds
        )
        newly_violated = (
            self._slo.observe(response.elapsed_seconds, response.ok)
            if len(self._slo) else []
        )
        if self.flight is None:
            return
        self.flight.record(FlightRecord(
            seq=ctx.seq,
            request_id=ctx.request_id,
            tenant=response.tenant,
            template=response.template,
            tier=response.tier,
            cache=response.cache_outcome,
            plan_digest=response.plan_digest or None,
            cost=response.best_cost if response.ok else None,
            q_error=response.drift_q,
            latency_seconds=response.elapsed_seconds,
            budget_expansions=response.budget_expansions,
            deadline_ticks=request.deadline_ticks,
            ok=response.ok,
            error=response.error,
        ))
        triggers: list[str] = []
        if self.cache.stats.breaker_trips > breaker_before:
            triggers.append("breaker_trip")
        if response.budget_exhausted and request.deadline_ticks is not None:
            triggers.append("deadline_exceeded")
        if self.quarantine.stats.quarantines > quarantines_before:
            # A template just entered quarantine: dump the last-K context
            # so the poison request stream is on disk for triage.
            triggers.append("quarantine")
        triggers.extend(f"slo:{name}" for name in newly_violated)
        if triggers:
            self._dump_flight("+".join(triggers))

    def _dump_flight(self, reason: str) -> None:
        self.metrics.inc("telemetry.flight_dumps")
        if self.telemetry.flight_path:
            self.last_flight_dump = self.flight.dump(
                self.telemetry.flight_path, reason
            )
        else:
            self.last_flight_dump = self.flight.dump_text(reason)
        if self.tracer is not None:
            self.tracer.instant(
                "telemetry", "flight_dump",
                reason=reason, records=len(self.flight),
            )

    # -- request handling (synchronous; one event-loop thread) ---------------

    def _handle(self, request: Request, ctx: TraceContext) -> Response:
        """Parse and plan one request — under one stamped span tree when
        it is sampled.

        Every event recorded inside the ``tracer.context`` block — the
        serve span, admission/tier instants, cache probes, the optimizer
        expansion — carries this request's ``rid``, which is what lets
        :func:`repro.obs.telemetry.span_tree` reassemble it.  The
        component tracers follow the sampling decision for the duration
        (silenced for an unsampled request, so an attached tracer costs
        it almost nothing); the swap is safe because ``_handle`` runs
        synchronously on the single event-loop thread.
        """
        query = request.query
        if isinstance(query, str):
            query = parse_query(query, self.optimizer.catalog)
        tracer = self.tracer
        if tracer is None:
            return self._plan(request, query, ctx)
        previous = (self.optimizer.tracer, self.cache.tracer)
        self.optimizer.tracer = self.cache.tracer = (
            tracer if ctx.sampled else None
        )
        try:
            if not ctx.sampled:
                return self._plan(request, query, ctx)
            self.metrics.inc("serve.sampled")
            with tracer.context(**ctx.trace_args()):
                span = tracer.begin("serve", "request")
                try:
                    tracer.instant(
                        "serve", "admitted", seq=ctx.seq,
                        depth=self._queue.qsize() if self._queue else 0,
                    )
                    return self._plan(request, query, ctx)
                finally:
                    tracer.end(span, tier=ctx.tier)
        finally:
            self.optimizer.tracer, self.cache.tracer = previous

    def _plan(
        self, request: Request, query: QueryBlock, ctx: TraceContext
    ) -> Response:
        self.quarantine.tick()
        entry = self.cache.lookup(query)
        tier, outcome = TIER_CACHED, "hit"
        if entry is None:
            tier = self._choose_tier(request)
            if tier == TIER_STALE:
                entry, outcome = self.cache.lookup_stale(query), "stale"
                if entry is None:
                    tier = TIER_HEURISTIC  # nothing cached to go stale on
        if entry is not None:
            self._note_tier(ctx, tier)
            return Response(
                ok=True, tier=tier, tenant=request.tenant,
                plan_digest=entry.plan.digest, best_cost=entry.best_cost,
                cache_hit=True, template=request.template,
                cache_outcome=outcome, drift_q=entry.last_q,
            )
        response = Response(
            ok=True, tier=tier, tenant=request.tenant,
            template=request.template,
            cache_outcome="miss" if self.cache.enabled else "none",
        )
        if (
            self.pool is not None
            and tier in (TIER_FULL, TIER_ANYTIME)
            and self.quarantine.is_quarantined(query_template(query))
        ):
            # A quarantined template never reaches the pool: its query
            # still gets a plan, from the in-loop heuristic path.
            response.quarantined = True
            self.quarantine.served(query_template(query))
            tier = TIER_HEURISTIC
        if tier != TIER_HEURISTIC:
            # The budget *shape* optimize_under_limits builds a budget
            # from, in the loop or in a worker (budget objects never
            # cross the pipe).  Only the deadline is ever bounded.
            deadline = request.deadline_ticks
            if tier == TIER_ANYTIME:
                deadline = min(
                    d for d in (deadline, self.config.anytime_ticks)
                    if d is not None
                )
            limits = (None, None, deadline)
            if self.pool is not None:
                response.pooled = True
                answer = self.pool.optimize(
                    query, seq=self._pool_seq,  # the chaos RNG key
                    template=request.template, limits=limits,
                )
                self._pool_seq += 1
            else:
                answer = PoolResult.of(
                    optimize_under_limits(self.optimizer, query, limits)
                )
            if answer.failure == "error":
                # The optimizer raised a ReproError, in the loop or in a
                # worker: surface it so the error net of ``_worker``
                # labels it.
                raise ReproError(answer.error or "optimization failed")
            if answer.ok:
                plan, best_cost = answer.plan, answer.best_cost
                response.budget_expansions = answer.expansions
                response.budget_exhausted = answer.budget_exhausted
                if answer.budget_exhausted:
                    # The search was cut short — label the answer
                    # honestly, whatever tier admission picked.
                    tier = TIER_ANYTIME
                if not answer.heuristic_fallback:
                    self.cache.insert(query, plan, best_cost, tier=tier)
            else:
                # crash / timeout / degraded: strike the template (the
                # first two only) and fail over to the in-loop heuristic
                # tier — a pool failure never fails the request.
                response.pool_failure = answer.failure
                if answer.failure in ("crash", "timeout"):
                    self.quarantine.strike(query_template(query))
                self.metrics.inc("serve.pool_fallbacks")
                if self.tracer is not None:
                    self.tracer.instant(
                        "serve", "pool_fallback", failure=answer.failure
                    )
                tier = TIER_HEURISTIC
        if tier == TIER_HEURISTIC:
            result = self.optimizer.optimize_heuristic(query)
            plan, best_cost = result.best_plan, result.best_cost
        self._note_tier(ctx, tier)
        response.tier = tier
        response.plan_digest, response.best_cost = plan.digest, best_cost
        return response

    def _note_tier(self, ctx: TraceContext, tier: str) -> None:
        """Record the tier decision: context and sampled instant."""
        ctx.tier = tier
        if ctx.sampled and self.tracer is not None:
            self.tracer.instant("serve", "tier", tier=tier)

    def _choose_tier(self, request: Request) -> str:
        cfg = self.config
        load = self._queue.qsize() / cfg.queue_limit if self._queue else 0.0
        burn = self._slo.max_burn() if len(self._slo) else 0.0
        deadline = request.deadline_ticks
        if deadline is not None and deadline <= HEURISTIC_DEADLINE:
            return TIER_HEURISTIC
        if load >= cfg.stale_load:
            return TIER_STALE
        if load >= cfg.heuristic_load or burn >= SLO_HEURISTIC_BURN:
            return TIER_HEURISTIC
        if load >= cfg.anytime_load or burn >= SLO_ANYTIME_BURN:
            return TIER_ANYTIME
        if deadline is not None and deadline <= ANYTIME_DEADLINE:
            return TIER_ANYTIME
        return TIER_FULL
