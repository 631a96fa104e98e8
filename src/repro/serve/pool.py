"""The supervised out-of-process optimization pool: crash the worker,
not the service.

The asyncio service of :mod:`repro.serve.service` runs optimizations
inline — simple and deterministic, but one segfaulting, hanging, or
pathologically slow optimization stalls every tenant, and nothing short
of killing the whole process recovers.  :class:`OptimizerPool` moves the
full/anytime optimization tiers out of process:

* **Worker subprocesses.**  Each worker is a child process primed once
  at spawn with a picklable :class:`~repro.optimizer.batch.BatchSpec`
  (catalog, rules, config, weights — the same spec the batch driver
  ships) and served requests over a pipe.  Queries travel as
  :class:`~repro.query.query.QueryBlock`\\ s or SQL text; plans travel
  back whole, so the serving cache warms exactly as it would in-loop.
* **Per-request wall-clock timeouts.**  The supervisor waits
  ``request_timeout`` seconds for each answer.  A worker that does not
  answer is *hung* by definition: it is killed and the request fails
  over (the service serves the heuristic tier in-loop).
* **Crash detection and respawn-with-priming.**  A worker that dies
  mid-request (EOF on the pipe, dead process) is detected on that very
  request.  The supervisor respawns a fresh worker — re-primed from the
  same spec, and confirmed live by a readiness handshake before it is
  ever trusted with a request — charging the pool's ``respawn_budget``.
* **Bounded respawn budget.**  Respawns are not free and a determined
  poison workload could burn CPU forever; when the budget is exhausted
  dead workers stay dead.  With no live worker left the pool reports
  itself unavailable and every dispatch returns a ``degraded`` failure,
  which the service translates into the in-loop heuristic tier — the
  service *never* goes down with its pool.
* **Seeded chaos injection.**  :class:`PoolChaos` makes workers crash
  (``os._exit``), hang, or respond slowly — deterministically, keyed on
  the request sequence number, in the spirit of
  :class:`~repro.executor.chaos.ChaosEngine` — plus *poison templates*
  that always misbehave, which is how the E17 gates and the quarantine
  tests reproduce a query-of-death without one existing in the tree.

Every outcome is metered (``pool.*``) and every failure is explicit in
the returned :class:`PoolResult` — the supervisor itself never raises on
worker misbehavior.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import stats_snapshot
from repro.optimizer.batch import BatchSpec, _build_optimizer
from repro.plans.plan import PlanNode
from repro.query.query import QueryBlock
from repro.robust.budget import OptimizerBudget

#: Exit code a chaos-crashed worker dies with (visible in diagnostics).
CRASH_EXIT = 13

#: Failure labels a :class:`PoolResult` may carry.
FAILURES = ("crash", "timeout", "error", "degraded")

#: Seconds a freshly spawned worker gets to finish priming and answer
#: the readiness handshake.
SPAWN_TIMEOUT = 60.0


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs of the optimization pool."""

    #: Worker subprocesses kept warm (requests round-robin over them).
    workers: int = 1
    #: Wall-clock seconds a single optimization may take before its
    #: worker is declared hung and killed.
    request_timeout: float = 30.0
    #: Worker respawns allowed over the pool's lifetime; exhausted =
    #: dead workers stay dead and the pool degrades when none are left.
    respawn_budget: int = 3

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0")


@dataclass(frozen=True)
class PoolChaos:
    """Seeded worker-side fault injection (picklable; rides to workers).

    Probabilistic faults draw from ``random.Random`` seeded on
    ``(seed, request seq)``, so a request stream observes identical
    faults on every run whatever the worker scheduling.  A request whose
    ``template`` label is in ``poison_templates`` *always* takes
    ``poison_action`` — the deterministic query-of-death.
    """

    seed: int = 0
    #: Per-request probability the worker crashes (``os._exit``).
    crash_prob: float = 0.0
    #: Per-request probability the worker hangs past any timeout.
    hang_prob: float = 0.0
    #: Per-request probability the worker sleeps ``slow_seconds`` first.
    slow_prob: float = 0.0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05
    #: Template labels that always misbehave.
    poison_templates: frozenset[str] = frozenset()
    #: What a poison template does: ``crash`` or ``hang``.
    poison_action: str = "crash"

    def __post_init__(self) -> None:
        for name in ("crash_prob", "hang_prob", "slow_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.poison_action not in ("crash", "hang"):
            raise ValueError(
                f"poison_action must be 'crash' or 'hang', "
                f"got {self.poison_action!r}"
            )

    def decide(self, seq: int, template: str | None) -> str | None:
        """The fault injected for request ``seq`` — or None."""
        if template is not None and template in self.poison_templates:
            return self.poison_action
        if not (self.crash_prob or self.hang_prob or self.slow_prob):
            return None
        # A Knuth-style mix keeps per-request draws independent of the
        # draw order (workers never share an RNG stream).
        rng = random.Random(self.seed * 2654435761 % (2 ** 31) + seq)
        roll = rng.random()
        if roll < self.crash_prob:
            return "crash"
        roll -= self.crash_prob
        if roll < self.hang_prob:
            return "hang"
        roll -= self.hang_prob
        if roll < self.slow_prob:
            return "slow"
        return None


@dataclass
class PoolResult:
    """One dispatched optimization's outcome — success or labeled failure."""

    ok: bool
    plan: PlanNode | None = None
    best_cost: float = 0.0
    alternatives: int = 0
    expansions: int = 0
    budget_exhausted: bool = False
    heuristic_fallback: bool = False
    #: ``crash`` / ``timeout`` / ``error`` / ``degraded`` — None on success.
    failure: str | None = None
    error: str | None = None
    #: Whether serving this request consumed a worker respawn.
    respawned: bool = False
    elapsed_seconds: float = 0.0

    @classmethod
    def of(cls, answer: dict, elapsed_seconds: float = 0.0) -> "PoolResult":
        """An :func:`optimize_under_limits` answer as a labeled result
        (the answer's keys are this class's field names)."""
        return cls(
            failure=None if answer["ok"] else "error",
            elapsed_seconds=elapsed_seconds, **answer,
        )


@dataclass
class PoolStats:
    """Supervision counters (shared metrics-snapshot schema)."""

    dispatched: int = 0
    completed: int = 0
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    respawns: int = 0
    spawn_failures: int = 0

    def as_dict(self) -> dict[str, float]:
        return stats_snapshot(self)


class _Worker:
    """Supervisor-side handle on one worker subprocess."""

    __slots__ = ("process", "conn", "spawn_seq")

    def __init__(self, process, conn, spawn_seq: int):
        self.process = process
        self.conn = conn
        self.spawn_seq = spawn_seq

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass


def optimize_under_limits(optimizer, query, deadline_ticks: int | None) -> dict:
    """One optimization under a budget bounded by ``deadline_ticks`` only
    (None = unlimited), answered as a picklable dict: the full / anytime
    tiers' one call, run by a pool worker on its own optimizer and by the
    service on the in-loop one.  The budget is always a real object — an
    unlimited one still counts — so ``expansions`` is the search's true
    size on both sides.
    """
    budget = OptimizerBudget(deadline_ticks=deadline_ticks)
    try:
        result = optimizer.optimize(query, budget=budget)
    except ReproError as exc:
        return {"ok": False, "error": str(exc)}
    return {
        "ok": True,
        "plan": result.best_plan,
        "best_cost": result.best_cost,
        "alternatives": len(result.alternatives),
        "expansions": budget.expansions,
        "budget_exhausted": result.budget_exhausted,
        "heuristic_fallback": result.heuristic_fallback,
    }


def _worker_main(conn, spec: BatchSpec, chaos: PoolChaos | None) -> None:
    """Worker loop: prime once, answer until told (or made) to stop."""
    optimizer = _build_optimizer(spec)
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        seq, query, template, deadline_ticks = message
        if chaos is not None:
            action = chaos.decide(seq, template)
            if action == "crash":
                os._exit(CRASH_EXIT)
            elif action == "hang":
                time.sleep(chaos.hang_seconds)
            elif action == "slow":
                time.sleep(chaos.slow_seconds)
        try:
            conn.send((seq, optimize_under_limits(optimizer, query, deadline_ticks)))
        except (BrokenPipeError, OSError):
            return


class OptimizerPool:
    """A supervised pool of optimizer worker subprocesses.

    Dispatch is synchronous (:meth:`optimize` blocks up to the request
    timeout) — the serving layer runs optimizations one at a time per
    event-loop worker anyway, and synchronous dispatch keeps request
    schedules exactly as reproducible as the in-loop path the E15 gates
    rely on.  What the pool buys is *containment*: a crash or hang costs
    one timeout and one respawn, not the process.
    """

    def __init__(
        self,
        spec: BatchSpec,
        config: PoolConfig | None = None,
        chaos: PoolChaos | None = None,
        metrics=None,
        tracer=None,
    ):
        self.spec = spec
        self.config = config if config is not None else PoolConfig()
        self.chaos = chaos
        self.tracer = tracer
        self.stats = PoolStats()
        methods = multiprocessing.get_all_start_methods()
        # fork primes workers ~100x faster than spawn (no re-import);
        # keep spawn as the portable fallback.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._spawned = 0
        self._next = 0
        self._closed = False
        self._workers: list[_Worker] = []
        for _ in range(self.config.workers):
            worker = self._spawn()
            if worker is not None:
                self._workers.append(worker)
        if not self._workers:
            raise RuntimeError("optimizer pool failed to spawn any worker")
        if metrics is not None:
            metrics.register(
                "pool.", self._live_stats, gauges=("workers", "degraded")
            )

    # -- introspection -------------------------------------------------------

    @property
    def available(self) -> bool:
        """Whether a dispatch can reach a live (or respawnable) worker."""
        return not self._closed and (
            any(w.alive for w in self._workers) or self._respawns_left > 0
        )

    @property
    def degraded(self) -> bool:
        return not self.available

    @property
    def workers_alive(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    @property
    def _respawns_left(self) -> int:
        return self.config.respawn_budget - self.stats.respawns

    def __len__(self) -> int:
        return len(self._workers)

    def _live_stats(self) -> dict[str, float]:
        """What the registry reads under ``pool.``: the counters plus the
        two values only the pool itself can derive."""
        stats = self.stats.as_dict()
        stats["workers"] = self.workers_alive
        stats["degraded"] = 0 if self.available else 1
        return stats

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> _Worker | None:
        """Spawn and prime one worker; None when priming fails."""
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.spec, self.chaos),
            daemon=True,
        )
        process.start()
        child.close()
        self._spawned += 1
        worker = _Worker(process, parent, self._spawned)
        # The readiness handshake *is* the priming confirmation: the
        # worker has rebuilt its optimizer and is accepting requests.
        try:
            if parent.poll(SPAWN_TIMEOUT):
                tag, _pid = parent.recv()
                if tag == "ready":
                    return worker
        except (EOFError, OSError):
            pass
        worker.kill()
        self.stats.spawn_failures += 1
        return None

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.alive:
                worker.kill()
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
        self._workers = []

    def __enter__(self) -> "OptimizerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def optimize(
        self,
        query: QueryBlock | str,
        seq: int,
        template: str | None = None,
        deadline_ticks: int | None = None,
    ) -> PoolResult:
        """Dispatch one optimization; never raises on worker misbehavior.

        ``deadline_ticks`` bounds the budget the worker builds locally
        (budget *objects* stay loop-side — only the bound travels).  The
        worker's answer is awaited for ``request_timeout`` seconds.  The
        result is a labeled :class:`PoolResult`: crash, timeout, degraded
        and optimizer errors are data, not exceptions.
        """
        started = time.perf_counter()
        self.stats.dispatched += 1
        worker = self._pick()
        if worker is None:
            return PoolResult(
                ok=False, failure="degraded",
                elapsed_seconds=time.perf_counter() - started,
            )
        try:
            worker.conn.send((seq, query, template, deadline_ticks))
        except (BrokenPipeError, OSError):
            return self._bury(worker, "crash", started)
        deadline = started + self.config.request_timeout
        payload = None
        while payload is None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not worker.conn.poll(max(0.0, remaining)):
                return self._bury(worker, "timeout", started)
            try:
                got_seq, answer = worker.conn.recv()
            except (EOFError, OSError):
                return self._bury(worker, "crash", started)
            if got_seq == seq:  # discard stale answers defensively
                payload = answer
        self.stats.completed += 1
        if not payload["ok"]:
            self.stats.errors += 1
        return PoolResult.of(payload, time.perf_counter() - started)

    # -- supervision ---------------------------------------------------------

    def _pick(self) -> _Worker | None:
        """The next live worker, round-robin; respawn-or-degrade walk."""
        if self._closed or not self._workers:
            return None
        for _ in range(len(self._workers)):
            self._next = (self._next + 1) % len(self._workers)
            worker = self._workers[self._next]
            if worker.alive:
                return worker
            replacement = self._respawn()
            if replacement is not None:
                self._workers[self._next] = replacement
                return replacement
        return None

    def _bury(self, worker: _Worker, kind: str, started: float) -> PoolResult:
        """Kill a misbehaving worker, replace it if budget allows, and
        label the dispatch that found it out (``crash`` / ``timeout``)."""
        if kind == "timeout":
            self.stats.timeouts += 1
        else:
            self.stats.crashes += 1
        if self.tracer is not None:
            self.tracer.instant(
                "pool", "worker_failed", kind=kind,
                pid=worker.process.pid or 0,
            )
        worker.kill()
        try:
            index = self._workers.index(worker)
        except ValueError:
            index = None
        replacement = self._respawn()
        if replacement is not None and index is not None:
            self._workers[index] = replacement
        return PoolResult(
            ok=False, failure=kind, respawned=replacement is not None,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _respawn(self) -> _Worker | None:
        """One respawn-with-priming, charged against the budget."""
        if self._respawns_left <= 0:
            return None
        self.stats.respawns += 1
        worker = self._spawn()
        if worker is not None and self.tracer is not None:
            self.tracer.instant(
                "pool", "worker_respawned",
                budget_left=self._respawns_left,
            )
        return worker


__all__ = [
    "CRASH_EXIT",
    "FAILURES",
    "OptimizerPool",
    "PoolChaos",
    "PoolConfig",
    "PoolResult",
    "PoolStats",
    "optimize_under_limits",
]
