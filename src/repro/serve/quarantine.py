"""Poison-template quarantine: stop feeding the pool queries of death.

A *poison query* is one whose optimization reliably crashes or hangs a
pool worker — a pathological shape, a rule-set bug, an adversarial
tenant.  The pool's respawn budget contains each incident, but a poison
template retried forever burns the whole budget and degrades the pool
for everyone.  :class:`TemplateQuarantine` is the circuit breaker at the
template level:

* every pool **crash or timeout** charges one *strike* against the
  request's template key (the canonical structure key of
  :func:`repro.query.template.query_template` — parameter-insensitive,
  so one poison parameterization quarantines its whole shape);
* at ``strikes`` strikes the template is **quarantined**: subsequent
  requests for it are served by the in-loop heuristic tier without ever
  touching the pool — the query still gets a plan, the workers stay
  alive;
* quarantine **decays**: each entry carries a TTL measured in requests
  observed by the service (:meth:`tick`), not wall-clock, so tests and
  replays are deterministic.  On expiry the template gets a fresh chance
  — and a doubled TTL if it re-offends, so a persistent poison template
  asymptotically never reaches the pool while a transient one (a since-
  fixed rule bug, a crashy chaos window) rejoins quickly.

The service emits ``serve.quarantined`` when a template enters
quarantine and tags the flight-recorder dump with a ``quarantine``
reason, so operators see the event with the last-K request context
attached (see ``docs/operations.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import stats_snapshot


@dataclass
class QuarantineStats:
    """Lifecycle counters (shared metrics-snapshot schema)."""

    strikes: int = 0
    quarantines: int = 0
    expirations: int = 0
    served: int = 0

    def as_dict(self) -> dict[str, float]:
        return stats_snapshot(self)


class TemplateQuarantine:
    """K-strike, TTL-decayed quarantine over template keys.

    ``strikes`` is K; ``ttl`` is the base quarantine length in observed
    requests.  A template's n-th offense is quarantined for
    ``ttl * 2**(n-1)`` requests.  ``strikes=0`` disables the quarantine
    entirely (every query may reach the pool forever).
    """

    def __init__(
        self,
        strikes: int = 3,
        ttl: int = 64,
        metrics=None,
        tracer=None,
    ):
        if strikes < 0:
            raise ValueError("strikes must be >= 0")
        if ttl < 1:
            raise ValueError("ttl must be at least 1")
        self.strikes = strikes
        self.ttl = ttl
        self.tracer = tracer
        self.stats = QuarantineStats()
        if metrics is not None:
            metrics.register("quarantine.", self.as_dict, gauges=("active",))
            # The one count older than its prefix: dashboards know a
            # template entering quarantine as ``serve.quarantined``.
            metrics.register(
                "serve.quarantined", lambda: {"": self.stats.quarantines}
            )
        #: Strikes accumulated while *not* quarantined.
        self._strikes: dict[object, int] = {}
        #: Active quarantines: key → remaining TTL in requests.
        self._active: dict[object, int] = {}
        #: Lifetime offense count (drives TTL escalation).
        self._offenses: dict[object, int] = {}

    @property
    def enabled(self) -> bool:
        return self.strikes > 0

    def __len__(self) -> int:
        return len(self._active)

    def is_quarantined(self, key: object) -> bool:
        return key in self._active

    def strike(self, key: object) -> bool:
        """Charge one strike; True when this strike quarantines the key."""
        if not self.enabled:
            return False
        self.stats.strikes += 1
        if key in self._active:
            return False
        count = self._strikes.get(key, 0) + 1
        if count < self.strikes:
            self._strikes[key] = count
            return False
        # K-th strike: quarantine with an escalating TTL.
        self._strikes.pop(key, None)
        offenses = self._offenses.get(key, 0) + 1
        self._offenses[key] = offenses
        self._active[key] = self.ttl * (2 ** (offenses - 1))
        self.stats.quarantines += 1
        if self.tracer is not None:
            self.tracer.instant(
                "serve", "quarantined",
                ttl=self._active[key], offenses=offenses,
            )
        return True

    def served(self, key: object) -> None:
        """Note one request served heuristically under quarantine."""
        self.stats.served += 1

    def tick(self) -> None:
        """One request observed: age every active quarantine."""
        if not self._active:
            return
        expired = []
        for key in self._active:
            self._active[key] -= 1
            if self._active[key] <= 0:
                expired.append(key)
        for key in expired:
            del self._active[key]
            self._strikes.pop(key, None)  # expiry clears the strike count
            self.stats.expirations += 1

    def as_dict(self) -> dict[str, float]:
        stats = self.stats.as_dict()
        stats["active"] = float(len(self._active))
        return stats


__all__ = ["QuarantineStats", "TemplateQuarantine"]
