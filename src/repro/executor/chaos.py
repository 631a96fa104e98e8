"""Fault injection and fault-tolerance policy for the simulated network.

The paper's SITE property and SHIP LOLEPOP come from R*'s distributed
setting, where sites crash and links drop datagrams.  This module gives
the simulated distributed system those failure modes — deterministically,
from a seeded RNG, so every chaos experiment is repeatable:

* :class:`ChaosConfig` — what can fail and how often: transient per-attempt
  link failures, random permanent site outages, and *scheduled* outages
  ("site N.Y. dies at the 3rd transfer attempt") for precise tests;
* :class:`ChaosEngine` — the run-time fault injector consulted by
  :class:`~repro.executor.network.NetworkSim` on every transfer attempt
  and by the executor on every base-table access;
* :class:`RetryPolicy` — bounded attempts with deterministic exponential
  backoff and a per-execution timeout budget, charged against a
  :class:`SimClock` (simulated seconds; nothing actually sleeps).

Failures surface as the typed errors of :mod:`repro.errors`:
:class:`TransientNetworkError` (retryable), :class:`LinkError`
(permanent / retries exhausted), and :class:`SiteUnavailableError`
(permanent site outage — the trigger for SAP-driven plan failover in
:class:`~repro.executor.resilient.ResilientExecutor`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import LinkError, SiteUnavailableError, TransientNetworkError

Link = tuple[str, str]


class SimClock:
    """A deterministic simulated clock.  Backoff pauses advance it;
    nothing ever sleeps, so chaos experiments run at full speed."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = start

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded-retry policy for SHIP transfers.

    ``max_attempts`` counts the first try: 1 means no retries at all.
    Backoff is exponential and deterministic (no jitter — the chaos RNG
    supplies all the randomness an experiment needs), capped per pause by
    ``max_backoff`` and in total by ``timeout_budget`` simulated seconds
    per execution; exhausting either bound raises :class:`LinkError`.
    """

    max_attempts: int = 4
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 5.0
    timeout_budget: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff < 0 or self.max_backoff < 0 or self.timeout_budget < 0:
            raise ValueError("backoff and budget must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Pause before retry number ``attempt`` (1-based failed attempt)."""
        return min(self.max_backoff, self.base_backoff * self.multiplier ** (attempt - 1))

    @classmethod
    def no_retries(cls) -> "RetryPolicy":
        """Fail a transfer on its first transient error."""
        return cls(max_attempts=1)


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """What the fault injector is allowed to break.

    All randomness flows from ``seed``; two runs with equal config and an
    equal sequence of injection points observe identical failures.

    ``site_outages`` / ``link_outages`` schedule *permanent* failures
    deterministically: the resource dies when the global transfer-attempt
    counter reaches the given attempt number (1 = the very first
    transfer), which is how tests kill a site mid-execution.
    ``protected_sites`` are never chosen by the random site killer (the
    query site usually belongs here — losing it makes every plan
    undeliverable).
    """

    seed: int = 0
    #: Per-attempt probability that a transfer fails transiently.
    link_failure_prob: float = 0.0
    #: Per-attempt probability that one endpoint of the transfer suffers
    #: a permanent outage (the endpoint is chosen by the seeded RNG).
    site_failure_prob: float = 0.0
    #: Sites down before anything runs.
    down_sites: frozenset[str] = field(default_factory=frozenset)
    #: Directed links down before anything runs.
    down_links: frozenset[Link] = field(default_factory=frozenset)
    #: site -> attempt number at which it permanently dies.
    site_outages: tuple[tuple[str, int], ...] = ()
    #: (from, to) link -> attempt number at which it permanently dies.
    link_outages: tuple[tuple[Link, int], ...] = ()
    #: Sites exempt from random (probabilistic) outages.
    protected_sites: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name, p in (("link_failure_prob", self.link_failure_prob),
                        ("site_failure_prob", self.site_failure_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")

    def enabled(self) -> bool:
        return bool(
            self.link_failure_prob
            or self.site_failure_prob
            or self.down_sites
            or self.down_links
            or self.site_outages
            or self.link_outages
        )


class ChaosEngine:
    """Run-time fault injector; the single source of truth for which
    sites and links are currently dead.

    One engine spans a whole resilient execution (all failover attempts),
    so a site killed during attempt 1 stays dead for attempt 2 — exactly
    the property SAP failover needs to route around it.
    """

    def __init__(self, config: ChaosConfig | None = None):
        self.config = config if config is not None else ChaosConfig()
        self.rng = random.Random(self.config.seed)
        self.downed_sites: set[str] = set(self.config.down_sites)
        self.downed_links: set[Link] = set(self.config.down_links)
        self.attempt_count = 0
        self.transient_injected = 0
        self._site_schedule = dict(self.config.site_outages)
        self._link_schedule = {tuple(k): v for k, v in self.config.link_outages}
        #: Structured-event tracer (installed by callers; None = off).
        self.tracer = None

    # -- health queries -----------------------------------------------------

    def site_up(self, site: str) -> bool:
        return site not in self.downed_sites

    def check_site(self, site: str) -> None:
        """Raise :class:`SiteUnavailableError` if ``site`` is down."""
        if site in self.downed_sites:
            raise SiteUnavailableError(site)

    # -- injection points ----------------------------------------------------

    def kill_site(self, site: str) -> None:
        if site not in self.downed_sites and self.tracer is not None:
            self.tracer.instant("chaos", "site_killed", site=site)
        self.downed_sites.add(site)

    def kill_link(self, from_site: str, to_site: str) -> None:
        link = (from_site, to_site)
        if link not in self.downed_links and self.tracer is not None:
            self.tracer.instant(
                "chaos", "link_killed", link=f"{from_site}->{to_site}"
            )
        self.downed_links.add(link)

    def on_transfer_attempt(self, from_site: str, to_site: str) -> None:
        """Called by :class:`NetworkSim` before each send attempt.

        Triggers scheduled outages, draws random ones, then raises the
        appropriate typed error if the attempt cannot succeed.  Raises
        nothing when the attempt is allowed through.
        """
        self.attempt_count += 1
        for site, at in self._site_schedule.items():
            if self.attempt_count >= at:
                self.kill_site(site)
        for link, at in self._link_schedule.items():
            if self.attempt_count >= at:
                self.kill_link(*link)

        if self.config.site_failure_prob:
            if self.rng.random() < self.config.site_failure_prob:
                victims = [
                    s for s in (from_site, to_site)
                    if s not in self.config.protected_sites
                ]
                if victims:
                    self.kill_site(self.rng.choice(victims))

        for site in (from_site, to_site):
            self.check_site(site)
        if (from_site, to_site) in self.downed_links:
            raise LinkError(from_site, to_site)

        if self.config.link_failure_prob:
            if self.rng.random() < self.config.link_failure_prob:
                self.transient_injected += 1
                raise TransientNetworkError(from_site, to_site)
