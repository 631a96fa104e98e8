"""The serving layer's accounting invariant as a state machine.

``submitted = resolved + rejected; nothing unlabeled`` used to be held by
the E15 overload gates on a handful of fixed schedules.  Here hypothesis
drives one :class:`OptimizerService` through arbitrary interleavings of
bursts (on both sides of ``queue_limit``, some already expired, some
unparsable), awaits, draining and fast stops, restarts, submits after
stop, and a snapshot save / construct-from-snapshot, and after every step
checks that

* every future handed out while the service is quiescent is resolved,
  and ``requests == sum(tiers) ==`` responses seen, with dense ids;
* each response's tier is one of ``ALL_TIERS`` and its ``ok`` /
  ``rejected`` / ``error`` fields are the ones that tier carries;
* ``report()``, ``dash.snapshot()`` and ``metrics.snapshot()`` give the
  same number for every count they share — the registry *reads* the
  component's one ledger (:meth:`MetricsRegistry.register`), so this is
  true by construction and the machine keeps it true;
* the queue never held more than ``queue_limit`` requests.

Under the ``ci`` profile (``tests/conftest.py``) the same machine runs
with a one-worker optimizer pool and the pool rules: a poison template
that crashes its worker or hangs it past a 0.2 s ``pool_timeout``, whose
K-th strike quarantines it — and which is served (heuristically) all the
while.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from collections import Counter

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs.telemetry import TelemetryConfig
from repro.obs.trace import Tracer
from repro.serve import (
    ALL_TIERS,
    PLAN_TIERS,
    TIER_ERROR,
    TIER_EXPIRED,
    TIER_HEURISTIC,
    TIER_REJECTED,
    TIER_SHUTDOWN,
    OptimizerService,
    PoolChaos,
    Request,
    ServiceConfig,
)
from repro.serve.dash import snapshot as dash_snapshot
from repro.workloads import chain_workload

#: ``ci`` is the one profile with its example budget (tests/conftest.py).
CI = settings().max_examples == settings.get_profile("ci").max_examples

WORKLOAD = chain_workload(3)
QUEUE_LIMIT = 4
STRIKES = 2
SHED_TIERS = (TIER_REJECTED, TIER_EXPIRED, TIER_SHUTDOWN)
#: The four no-plan tiers are cataloged under names older than the tiers.
NO_PLAN_METRIC = {
    TIER_ERROR: "serve.errors", TIER_REJECTED: "serve.rejected",
    TIER_EXPIRED: "serve.expired", TIER_SHUTDOWN: "serve.shutdown",
}
POISON = "poison"

GOOD_SQL = (
    "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK AND R0.VAL < 20",
    "SELECT R0.ID, R2.ID FROM R0, R1, R2 "
    "WHERE R0.ID = R1.FK AND R1.ID = R2.FK",
    "SELECT R1.ID FROM R1, R2 WHERE R1.ID = R2.FK AND R2.VAL < 5",
    "SELECT R0.VAL FROM R0 WHERE R0.VAL < 50",
)
POISON_SQL = "SELECT R2.ID FROM R1, R2 WHERE R1.ID = R2.FK AND R1.VAL < 7"

#: One request of a burst: a query to plan (no deadline; one that forces
#: the heuristic tier; one that forces the anytime tier, whose
#: ``anytime_ticks`` below cut the larger searches short), one whose
#: wall-clock deadline has passed by the time a worker sees it, one that
#: cannot parse.
requests = st.one_of(
    st.builds(
        Request,
        st.sampled_from(GOOD_SQL),
        tenant=st.sampled_from(("a", "b")),
        deadline_ticks=st.sampled_from((None, None, 30, 1500)),
    ),
    st.builds(Request, st.sampled_from(GOOD_SQL), deadline_seconds=st.just(0.0)),
    st.just(Request("SELECT nonsense FROM nowhere")),
)


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.tmp = tempfile.mkdtemp(prefix="repro-stateful-")
        self.service: OptimizerService | None = None

    def teardown(self) -> None:
        if self.service is not None:
            if self.running:
                self.run(self.service.stop())
            self.service.close()
        self.loop.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def build(self, chaos: PoolChaos | None = None) -> None:
        """A fresh service under test, restoring whatever snapshot is on
        disk, and a fresh set of expectations."""
        self.service = OptimizerService(
            WORKLOAD.catalog,
            service=ServiceConfig(
                workers=2, queue_limit=QUEUE_LIMIT, cache_capacity=3,
                anytime_ticks=40,
                snapshot_path=os.path.join(self.tmp, "serve.snapshot"),
                snapshot_every=5,
                pool_workers=1 if CI else 0, pool_timeout=0.2,
                quarantine_strikes=STRIKES,
            ),
            tracer=Tracer(),
            telemetry=TelemetryConfig(sample_every=3, flight_capacity=4),
            pool_chaos=chaos,
        )
        self.chaos = chaos
        self.running = False
        self.ever_started = False
        self.pending: list[asyncio.Future] = []
        self.responses: list = []

    @initialize(action=st.sampled_from(("crash", "hang")))
    def boot(self, action: str) -> None:
        self.build(
            PoolChaos(poison_templates=frozenset({POISON}),
                      poison_action=action)
            if CI else None
        )
        self.start()

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: not self.running)
    @rule()
    def start(self) -> None:
        self.run(self.service.start())
        self.running = self.ever_started = True

    @precondition(lambda self: self.ever_started)
    @rule(burst=st.lists(requests, min_size=1, max_size=2 * QUEUE_LIMIT + 1))
    def submit(self, burst: list[Request]) -> None:
        """Back-to-back submits — to a running service (admitted, or
        rejected beyond ``queue_limit``) or a stopped one (shutdown) —
        left unanswered."""

        async def submit() -> list[asyncio.Future]:
            return [self.service.submit_nowait(r) for r in burst]

        self.pending.extend(self.run(submit()))

    @rule()
    def await_all(self) -> None:
        if self.pending:
            self.run(asyncio.wait(self.pending))

    @precondition(lambda self: self.running)
    @rule(burst=st.lists(requests, min_size=1, max_size=QUEUE_LIMIT))
    def serve(self, burst: list[Request]) -> None:
        """A burst the queue can hold, answered before the next step."""
        self.submit(burst)
        self.await_all()

    @precondition(lambda self: self.running)
    @rule(drain=st.booleans())
    def stop(self, drain: bool) -> None:
        self.run(self.service.stop(drain=drain))
        self.running = False
        # Drained or shed: a stopped service owes nobody an answer.
        assert all(future.done() for future in self.pending)

    @precondition(lambda self: not self.running and not self.pending)
    @rule()
    def save_and_construct_from_snapshot(self) -> None:
        old = self.service
        assert old.save_snapshot()
        old.close()
        self.build(self.chaos)
        assert self.service.snapshot_loaded
        assert self.service.templates_restored == len(old.cache)
        assert len(self.service.cache) == len(old.cache)

    @precondition(lambda self: CI and self.running)
    @rule(burst=st.integers(1, 3))
    def submit_poison(self, burst: int) -> None:
        """The query of death: its worker crashes (or hangs past
        ``pool_timeout``), the request is still answered, and the K-th
        strike quarantines the template."""
        before = self.service.quarantine.stats.quarantines

        async def submit() -> list:
            return [
                await self.service.request(
                    Request(POISON_SQL, template=POISON)
                )
                for _ in range(burst)
            ]

        answers = self.run(submit())
        self.responses.extend(answers)
        for answer in answers:
            assert answer.ok and answer.tier == TIER_HEURISTIC, answer
            assert answer.quarantined or answer.pool_failure, answer
        struck = sum(
            1 for a in answers if a.pool_failure in ("crash", "timeout")
        )
        if struck >= STRIKES:
            assert self.service.quarantine.stats.quarantines > before

    # -- invariants ----------------------------------------------------------

    @invariant()
    def ledgers_agree(self) -> None:
        service = self.service
        if service is None:
            return
        self.collect()
        handed = len(self.responses) + len(self.pending)
        report = service.report()
        dash = dash_snapshot(service)
        metrics = service.metrics.snapshot()
        assert report.requests == dash["requests"] == handed
        assert metrics["serve.requests"] == handed
        assert report.max_queue_depth == dash["max_queue_depth"]
        assert metrics["serve.queue_depth_max"] == report.max_queue_depth
        assert report.max_queue_depth <= QUEUE_LIMIT
        assert metrics["serve.queue_depth"] == dash["queue_depth"]
        assert report.tiers == dash["tiers"]
        assert set(report.tiers) <= set(ALL_TIERS)
        for tier, count in report.tiers.items():
            name = NO_PLAN_METRIC.get(tier, f"serve.tier.{tier}")
            assert metrics[name] == count, name
        assert report.rejections == dash["rejections"] == sum(
            report.tiers.get(tier, 0) for tier in SHED_TIERS
        )
        assert report.errors == dash["errors"]
        assert report.errors == report.tiers.get(TIER_ERROR, 0)
        # Handled and errored requests feed the latency histogram (and
        # the SLOs and the flight recorder); shed ones never do.
        assert metrics["serve.latency_seconds.count"] == sum(
            report.tiers.get(tier, 0) for tier in PLAN_TIERS + (TIER_ERROR,)
        )
        assert report.flight_dumps == dash["flight_dumps"]
        assert metrics.get("telemetry.flight_dumps", 0) == report.flight_dumps
        assert dash["hit_rate"] == metrics["serve.cache.hit_rate"]
        assert dash["breaker_trips"] == metrics["serve.cache.breaker_trips"]
        sections = [
            ("serve.cache.", report.cache), ("feedback.", report.feedback),
            ("quarantine.", report.quarantine), ("snapshot.", report.snapshot),
        ]
        if service.pool is not None:
            sections.append(("pool.", report.pool))
        for prefix, section in sections:
            assert section, prefix
            for field, value in section.items():
                assert metrics[prefix + field] == value, prefix + field
        assert metrics["serve.quarantined"] == report.quarantine["quarantines"]

    def collect(self) -> None:
        """Move resolved futures to ``responses``, checking each one."""
        still = []
        for future in self.pending:
            if not future.done():
                still.append(future)
                continue
            response = future.result()
            tier = response.tier
            assert tier in ALL_TIERS, tier
            assert response.ok == (tier in PLAN_TIERS), response
            assert response.rejected == (tier in SHED_TIERS), response
            assert (response.error is None) == (
                tier in PLAN_TIERS + (TIER_REJECTED,)
            ), response
            assert bool(response.plan_digest) == response.ok, response
            self.responses.append(response)
        self.pending = still

    @invariant()
    def quiescent_accounting(self) -> None:
        """Nothing in flight: every request minted has been counted once,
        under the tier its response carries."""
        if self.service is None:
            return
        self.collect()
        if self.pending:
            return
        report = self.service.report()
        assert report.requests == sum(report.tiers.values())
        assert Counter(r.tier for r in self.responses) == report.tiers
        assert sorted(r.request_id for r in self.responses) == [
            f"req-{seq:06d}" for seq in range(report.requests)
        ]


TestServiceAccounting = ServiceMachine.TestCase
TestServiceAccounting.settings = settings(
    max_examples=60 if CI else 50,
    stateful_step_count=30 if CI else 20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
