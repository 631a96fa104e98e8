"""Deterministic load generation for the serving layer (experiment E15).

A production optimizer's traffic is *skewed*: a handful of query
templates dominate, each arriving with different constants.  The
generator reproduces that shape deterministically:

* a pool of join-chain **templates** over one ``chain_workload`` catalog
  (varying join length, filtered table, and comparison direction);
* a **Zipf** template mix — template at popularity rank *r* is drawn
  with weight ``1/(r+1)**zipf_s``;
* per-request **parameter jitter** around each template's center
  constant, so repeats stay inside a warmed entry's selectivity band
  while still being distinct queries;
* an optional **wild fraction** of requests whose constant jumps to the
  far end of the value domain — deliberate band-guard misses;
* round-robin **tenants** and a deterministic sprinkle of tight
  **deadlines**, exercising deadline-forced degradation.

Everything flows from ``LoadSpec.seed`` — two runs with the same spec
produce byte-identical request streams, which is what lets E15 gate on
exact admission/rejection counts.

:func:`run_load` drives an :class:`~repro.serve.service.OptimizerService`
through named :class:`Phase`\\ s (warmup → steady → overload in
:func:`default_phases`), submitting each phase's requests in bursts and
accounting for every single one: admitted, rejected, or — the count the
overload gate pins at zero — unhandled.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram
from repro.serve.service import OptimizerService, Request, Response
from repro.workloads.generator import Workload, chain_workload


@dataclass(frozen=True)
class LoadSpec:
    """Parameters of one deterministic request stream."""

    #: Chain-workload size the templates are built over.
    n_tables: int = 4
    rows: int = 200
    #: Number of distinct query templates in the pool.
    templates: int = 6
    #: Zipf skew exponent for the template mix (0 = uniform).
    zipf_s: float = 1.2
    #: Max +/- jitter applied to a template's center constant.
    param_jitter: int = 3
    #: Fraction of requests whose constant jumps out of band.
    wild_fraction: float = 0.0
    #: Tenants, assigned round-robin.
    tenants: int = 3
    #: Fraction of requests carrying a tight deadline.
    deadline_fraction: float = 0.15
    #: The tight deadline's tick count.
    tight_deadline: int = 150
    seed: int = 7

    def __post_init__(self) -> None:
        if self.templates < 1:
            raise ValueError("templates must be at least 1")
        if self.n_tables < 2:
            raise ValueError("n_tables must be at least 2")
        if not 0.0 <= self.wild_fraction <= 1.0:
            raise ValueError("wild_fraction must be in [0, 1]")


@dataclass(frozen=True)
class Template:
    """One parameterized query shape: fill in ``param`` to get SQL."""

    name: str
    #: SQL with a ``{param}`` placeholder for the filter constant.
    sql: str
    #: Center constant; jitter stays nearby, wild requests leave.
    center: int

    def render(self, param: int) -> str:
        return self.sql.format(param=param)


@dataclass(frozen=True)
class Phase:
    """A named slice of the request stream with its own burst size."""

    name: str
    requests: list[Request]
    #: Requests submitted back-to-back before awaiting any response —
    #: bursts above the service's queue limit force load shedding.
    burst: int


@dataclass
class PhaseReport:
    """What happened to one phase's requests — all of them."""

    name: str
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    #: Requests that resolved to neither a response nor a rejection
    #: (exceptions out of gather) — the E15 overload gate pins this at 0.
    unhandled: int = 0
    errors: int = 0
    tiers: dict[str, int] = field(default_factory=dict)
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    max_queue_depth: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "unhandled": self.unhandled,
            "errors": self.errors,
            "tiers": dict(self.tiers),
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "max_queue_depth": self.max_queue_depth,
        }


@dataclass
class LoadReport:
    """Per-phase accounting plus the full response list, input order."""

    phases: list[PhaseReport] = field(default_factory=list)
    responses: list[Response] = field(default_factory=list)

    @property
    def unhandled(self) -> int:
        return sum(p.unhandled for p in self.phases)

    def phase(self, name: str) -> PhaseReport:
        for report in self.phases:
            if report.name == name:
                return report
        raise KeyError(f"no phase named {name!r}")

    def as_dict(self) -> dict:
        return {"phases": [p.as_dict() for p in self.phases]}

    def summary(self) -> str:
        lines = []
        for p in self.phases:
            tiers = ", ".join(
                f"{tier}={count}" for tier, count in sorted(p.tiers.items())
            )
            lines.append(
                f"phase {p.name}: {p.submitted} submitted, "
                f"{p.admitted} admitted, {p.rejected} rejected, "
                f"{p.unhandled} unhandled | p50/p99 "
                f"{p.latency_p50 * 1e3:.2f}/{p.latency_p99 * 1e3:.2f} ms "
                f"| {tiers}"
            )
        return "\n".join(lines)


def percentile(values: list[float], q: float) -> float:
    """Quantile of ``values`` via the shared log-bucketed histogram path.

    A thin wrapper over :meth:`~repro.obs.metrics.Histogram.quantile`:
    0.0 for an empty list, exact for single samples and ``q<=0`` /
    ``q>=1``, within one log bucket (~±10%) of the exact nearest-rank
    value otherwise — the same accuracy the live registry offers.
    """
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram.quantile(q)


def build_templates(spec: LoadSpec) -> list[Template]:
    """The deterministic template pool for ``spec``.

    Templates enumerate (join length, filtered table, comparison
    direction) combinations over the chain R0–R{n-1}; centers spread
    across the VAL domain so different templates occupy different
    selectivity bands.
    """
    combos = []
    for length in range(2, spec.n_tables + 1):
        for filtered in range(length):
            for op in ("<", ">="):
                combos.append((length, filtered, op))
    templates: list[Template] = []
    for rank in range(spec.templates):
        length, filtered, op = combos[rank % len(combos)]
        center = 20 + (rank * 17) % 60  # spread over VAL's 0..99 domain
        joins = " AND ".join(
            f"R{i - 1}.ID = R{i}.FK" for i in range(1, length)
        )
        where = f"{joins} AND " if joins else ""
        sql = (
            f"SELECT R0.ID, R{length - 1}.ID FROM "
            + ", ".join(f"R{i}" for i in range(length))
            + f" WHERE {where}R{filtered}.VAL {op} {{param}}"
        )
        templates.append(Template(name=f"T{rank}", sql=sql, center=center))
    return templates


def zipf_pick(rng: random.Random, n: int, s: float) -> int:
    """Draw a rank in [0, n) with Zipf weights ``1/(rank+1)**s``."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    return rng.choices(range(n), weights=weights, k=1)[0]


def generate(spec: LoadSpec, count: int) -> tuple[Workload, list[Request]]:
    """The workload (catalog + data) and ``count`` deterministic requests."""
    workload = chain_workload(n_tables=spec.n_tables, rows=spec.rows)
    templates = build_templates(spec)
    rng = random.Random(spec.seed)
    requests: list[Request] = []
    for index in range(count):
        template = templates[zipf_pick(rng, len(templates), spec.zipf_s)]
        wild = rng.random() < spec.wild_fraction
        if wild:
            # Jump to the opposite end of the domain: out of band on
            # purpose, so band-guard misses appear in warmed runs too.
            param = 99 if template.center < 50 else 1
        else:
            param = template.center + rng.randint(
                -spec.param_jitter, spec.param_jitter
            )
        deadline = None
        if rng.random() < spec.deadline_fraction:
            deadline = spec.tight_deadline
        requests.append(Request(
            query=template.render(param),
            tenant=f"tenant{index % spec.tenants}",
            deadline_ticks=deadline,
            template=template.name + ("!" if wild else ""),
        ))
    return workload, requests


def default_phases(
    requests: list[Request], queue_limit: int
) -> list[Phase]:
    """Warmup → steady → overload over one request stream.

    Warmup (20%) and steady (50%) submit bursts the queue can absorb;
    the overload phase (30%) bursts at three times the queue limit, so
    admission control *must* shed — the E15 gate asserts it does so with
    explicit rejections and nothing unhandled.
    """
    n = len(requests)
    warm_end = max(1, n // 5)
    steady_end = max(warm_end + 1, (n * 7) // 10)
    return [
        Phase("warmup", requests[:warm_end], burst=max(1, queue_limit // 4)),
        Phase("steady", requests[warm_end:steady_end],
              burst=max(1, queue_limit // 2)),
        Phase("overload", requests[steady_end:], burst=queue_limit * 3),
    ]


async def run_load(
    service: OptimizerService, phases: list[Phase], progress=None
) -> LoadReport:
    """Drive ``service`` through ``phases``; account for every request.

    ``progress(phase_name, done, service)``, when given, is called after
    every completed burst with the number of requests resolved so far in
    the phase — the hook the terminal dashboard refreshes from.
    """
    report = LoadReport()
    async with service:
        for phase in phases:
            phase_report = PhaseReport(name=phase.name)
            latencies: list[float] = []
            for start in range(0, len(phase.requests), phase.burst):
                burst = phase.requests[start:start + phase.burst]
                futures = [service.submit_nowait(r) for r in burst]
                outcomes = await asyncio.gather(
                    *futures, return_exceptions=True
                )
                for outcome in outcomes:
                    phase_report.submitted += 1
                    if isinstance(outcome, BaseException):
                        phase_report.unhandled += 1
                        continue
                    report.responses.append(outcome)
                    tier = outcome.tier
                    phase_report.tiers[tier] = (
                        phase_report.tiers.get(tier, 0) + 1
                    )
                    if outcome.rejected:
                        phase_report.rejected += 1
                        continue
                    phase_report.admitted += 1
                    if tier == "error":
                        phase_report.errors += 1
                    latencies.append(outcome.elapsed_seconds)
                    phase_report.max_queue_depth = max(
                        phase_report.max_queue_depth, outcome.queue_depth
                    )
                if progress is not None:
                    progress(phase.name, phase_report.submitted, service)
            phase_report.latency_p50 = percentile(latencies, 0.50)
            phase_report.latency_p99 = percentile(latencies, 0.99)
            report.phases.append(phase_report)
    return report


def drive(service: OptimizerService, phases: list[Phase]) -> LoadReport:
    """Synchronous wrapper around :func:`run_load`."""
    return asyncio.run(run_load(service, phases))


__all__ = [
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
    "percentile",
    "zipf_pick",
]
