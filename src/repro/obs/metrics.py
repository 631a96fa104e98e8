"""Counters, gauges and histograms behind one flat snapshot.

Every count in the repo lives in one place — a stats dataclass (or a
plain attribute) of the object the event happens to — and
:func:`stats_snapshot` is the single serialization path: it flattens any
stats dataclass into a ``{name: number}`` dict, so ``OptimizationError``
diagnostics, chaos reports and the metrics registry all share one
schema.  The registry learns those numbers in one of two ways, by the
owner's lifetime:

* **a run's report is ingested** — an optimization, an execution, a
  resilient / adaptive / EXPLAIN ANALYZE run builds a fresh stats object
  and hands its ``as_dict()`` to :meth:`MetricsRegistry.ingest` once,
  when the run is over (gauges: the last run's figures);
* **a live component is read** — a cache, pool, quarantine or service
  that outlives any one request calls :meth:`MetricsRegistry.register`
  once, at construction, and the registry calls its ``as_dict`` back
  whenever somebody asks (:meth:`~MetricsRegistry.snapshot`,
  :meth:`~MetricsRegistry.counters`, :meth:`~MetricsRegistry.gauges`).
  The component's hot path is an attribute add and nothing else, and
  every reader sees the one number.

What is still pushed (:meth:`~MetricsRegistry.inc` /
:meth:`~MetricsRegistry.observe`) is what no object holds: histograms,
and counts whose owner lives for less than the process
(``optimizer.rule.*.fired``, ``budget.exhaustions``, the per-attempt
``checkpoint.*``).

:class:`MetricsRegistry` itself: named counters (monotonic), gauges
(point-in-time) and histograms (count/sum/min/max plus fixed
log-bucketed counts answering :meth:`Histogram.quantile`), snapshotable
as one flat dict — the shape benchmark JSON and the CLI report.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable, Mapping


#: Log-bucket geometry: each bucket spans one power of ``BUCKET_BASE``
#: (~19% relative width), so :meth:`Histogram.quantile` answers within
#: one bucket of the exact rank statistic while memory stays bounded.
BUCKET_BASE = 2.0 ** 0.25
_LOG_BASE = math.log(BUCKET_BASE)
#: Bucket indices are clamped to this range (covers roughly 1e-10 ..
#: 1e10 at the base above), bounding the bucket dict whatever the stream.
_BUCKET_MIN_INDEX = -128
_BUCKET_MAX_INDEX = 128


class Histogram:
    """Streaming count/sum/min/max plus fixed log-bucketed counts.

    Positive observations land in bucket ``floor(log_base(value))``
    (HDR-histogram style, sparse dict, index clamped so at most 258
    buckets ever exist); non-positive values collect in one underflow
    bucket.  :meth:`quantile` walks the cumulative counts and returns the
    geometric midpoint of the target bucket clamped to the exact
    ``[min, max]`` — within one bucket (≈±10%) of the exact percentile,
    and exact for ``q=0``, ``q=1``, and single-sample streams.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_buckets",
                 "_underflow")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._buckets: dict[int, int] = {}
        self._underflow = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            index = math.floor(math.log(value) / _LOG_BASE)
            if index < _BUCKET_MIN_INDEX:
                index = _BUCKET_MIN_INDEX
            elif index > _BUCKET_MAX_INDEX:
                index = _BUCKET_MAX_INDEX
            self._buckets[index] = self._buckets.get(index, 0) + 1
        else:
            self._underflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min_value(self) -> float:
        """The observed minimum, JSON-safe: 0.0 when empty (never inf)."""
        return self.minimum if self.count else 0.0

    @property
    def max_value(self) -> float:
        """The observed maximum, JSON-safe: 0.0 when empty (never -inf)."""
        return self.maximum if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The approximate ``q``-quantile (q clamped to [0, 1]).

        0.0 for an empty histogram; exact min/max for ``q<=0`` /
        ``q>=1``; otherwise the geometric midpoint of the bucket holding
        the nearest-rank sample, clamped to the exact observed range.
        """
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        rank = q * (self.count - 1)
        seen = self._underflow
        if rank < seen:
            # All underflow values are <= 0; min is the best single answer.
            return min(self.minimum, 0.0)
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                low = BUCKET_BASE ** index
                mid = low * math.sqrt(BUCKET_BASE)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum


class MetricsRegistry:
    """Named counters/gauges/histograms with a flat snapshot.

    Names are dotted paths (``optimizer.expansion.star_references``,
    ``executor.ship_retries``); the snapshot flattens histograms into
    ``name.count`` / ``name.sum`` / ``name.min`` / ``name.max`` /
    ``name.mean`` / ``name.p50`` / ``name.p99`` keys so the whole
    registry serializes as one ``{str: number}`` dict.
    """

    def __init__(self) -> None:
        #: Pushed counters (monotonic) and gauges (last write wins).
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        #: prefix → (read, gauge fields) of every registered live source.
        self._sources: dict[
            str, tuple[Callable[[], Mapping[str, float]], frozenset[str]]
        ] = {}

    # -- writers --------------------------------------------------------------

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def inc(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def ingest(self, stats: Mapping[str, Any], prefix: str = "") -> None:
        """Fold a flat stats dict (:func:`stats_snapshot` output) into
        gauges under ``prefix``."""
        for key, value in stats.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.set_gauge(prefix + key, value)

    def register(
        self,
        prefix: str,
        read: Callable[[], Mapping[str, float]],
        gauges: Iterable[str] = (),
    ) -> None:
        """Read a live component's counts whenever the registry is read.

        ``read()`` returns the component's flat ``{field: number}`` dict
        (its ``as_dict``); each field appears as ``prefix + field`` — a
        gauge when named in ``gauges``, a counter otherwise.  There is
        one source per prefix: registering a prefix again replaces it,
        so an object handed to two consumers is never read twice — and a
        component that is re-created (a pool after ``close()``) restarts
        its counters from its own zero, as a restarted process would.
        """
        self._sources[prefix] = (read, frozenset(gauges))

    # -- typed read access (the OpenMetrics renderer needs the kinds) -------

    def _typed(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(counters, gauges)`` as ``{name: value}``: what was pushed
        plus every live source, read now.  Works on copies — a scrape
        thread may read while the serving loop adds a name."""
        counters, gauges = dict(self._counters), dict(self._gauges)
        for prefix, (read, gauge_fields) in list(self._sources.items()):
            for field, value in read().items():
                kind = gauges if field in gauge_fields else counters
                kind[prefix + field] = value
        return counters, gauges

    def counters(self) -> dict[str, float]:
        return self._typed()[0]

    def gauges(self) -> dict[str, float]:
        return self._typed()[1]

    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    # -- snapshot -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every metric as one flat ``{name: number}`` dict.

        Always JSON-safe: empty histograms report ``min``/``max`` as 0.0
        rather than leaking ``inf``/``-inf`` (which ``json.dumps`` would
        render as the invalid-JSON token ``Infinity``).
        """
        counters, gauges = self._typed()
        out = {**counters, **gauges}
        for name, histogram in self._histograms.items():
            out[f"{name}.count"] = histogram.count
            out[f"{name}.sum"] = histogram.total
            out[f"{name}.min"] = histogram.min_value
            out[f"{name}.max"] = histogram.max_value
            out[f"{name}.mean"] = histogram.mean
            out[f"{name}.p50"] = histogram.quantile(0.50)
            out[f"{name}.p99"] = histogram.quantile(0.99)
        return dict(sorted(out.items()))

    def __len__(self) -> int:
        counters, gauges = self._typed()
        return len(counters) + len(gauges) + len(self._histograms)


def stats_snapshot(
    stats: Any,
    prefix: str = "",
    extras: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Serialize a stats dataclass into the shared flat-dict schema.

    Only numeric (int/float, non-bool) fields are kept; ``extras`` adds
    derived values (e.g. ``total_io``, ``hit_rate``) under the same
    prefix.  This is the one serialization path every stats object in
    the repo routes through.
    """
    out: dict[str, float] = {}
    for field_def in dataclasses.fields(stats):
        value = getattr(stats, field_def.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[prefix + field_def.name] = value
    if extras:
        for key, value in extras.items():
            out[prefix + key] = value
    return out
