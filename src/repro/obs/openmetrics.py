"""OpenMetrics text rendering for a :class:`MetricsRegistry`.

The registry's :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is a
flat JSON dict — fine for benchmark artifacts, useless for a Prometheus
scrape.  :func:`render_openmetrics` renders the registry's typed
contents as OpenMetrics text: counters get a ``_total`` sample, gauges
are plain samples, and histograms are rendered as summaries — quantile
samples (p50/p90/p99 straight from the log-bucketed
:meth:`~repro.obs.metrics.Histogram.quantile`) plus ``_count`` and
``_sum`` — because the log buckets are fixed-width in *log* space and a
summary is the honest projection.  Dotted metric names are sanitized to
the ``[a-zA-Z_][a-zA-Z0-9_]*`` charset (dots become underscores) with
collision detection, and the exposition ends with the mandatory
``# EOF``.

:func:`validate_openmetrics` is a strict parser of the subset we emit —
the "a strict parser accepts it" acceptance gate runs it over both the
CLI output and the ``/metrics`` endpoint body.
"""

from __future__ import annotations

import re

from repro.obs.metrics import MetricsRegistry

#: Content type the /metrics endpoint serves.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Quantiles exposed per histogram (label value, q).
SUMMARY_QUANTILES = (("0.5", 0.50), ("0.9", 0.90), ("0.99", 0.99))

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\d+))$"
)


def sanitize_name(name: str) -> str:
    """A dotted registry name as a legal OpenMetrics metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not cleaned[0].isalpha() and cleaned[0] != "_":
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_openmetrics(registry: MetricsRegistry) -> str:
    """The registry as OpenMetrics exposition text (ends with ``# EOF``).

    Raises :class:`ValueError` when two registry names sanitize to the
    same metric name, or one name is held under two kinds (a counter
    somebody also ingests as a gauge) — a silent merge would corrupt
    the scrape, a second ``# TYPE`` line makes the scraper reject it.
    """
    families: list[tuple[str, str, list[str]]] = []
    seen: dict[str, tuple[str, str]] = {}

    def claim(name: str, kind: str) -> str:
        cleaned = sanitize_name(name)
        held = seen.setdefault(cleaned, (name, kind))
        if held[0] != name:
            raise ValueError(
                f"metric name collision: {name!r} and {held[0]!r} "
                f"both sanitize to {cleaned!r}"
            )
        if held[1] != kind:
            raise ValueError(
                f"metric {name!r} is held as a {held[1]} and as a {kind}"
            )
        return cleaned

    for name, value in sorted(registry.counters().items()):
        metric = claim(name, "counter")
        families.append((metric, "counter", [
            f"{metric}_total {_format_value(value)}",
        ]))
    for name, value in sorted(registry.gauges().items()):
        metric = claim(name, "gauge")
        families.append((metric, "gauge", [
            f"{metric} {_format_value(value)}",
        ]))
    for name, histogram in sorted(registry.histograms().items()):
        metric = claim(name, "summary")
        samples = [
            f'{metric}{{quantile="{label}"}} '
            f"{_format_value(histogram.quantile(q))}"
            for label, q in SUMMARY_QUANTILES
        ]
        samples.append(f"{metric}_count {_format_value(histogram.count)}")
        samples.append(f"{metric}_sum {_format_value(histogram.total)}")
        families.append((metric, "summary", samples))

    lines: list[str] = []
    for metric, kind, samples in families:
        lines.append(f"# TYPE {metric} {kind}")
        lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def validate_openmetrics(text: str) -> dict[str, str]:
    """Strictly parse OpenMetrics text; returns ``{metric: type}``.

    Enforces the invariants of the subset this repo emits: a terminal
    ``# EOF`` line and nothing after it, every sample preceded by a
    ``# TYPE`` declaration for its family, counters exposing exactly a
    ``_total`` sample, summaries exposing quantile/``_count``/``_sum``
    samples only, legal metric names, and finite sample values.  Raises
    :class:`ValueError` with a line-numbered message otherwise.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with a '# EOF' line")
    types: dict[str, str] = {}
    for lineno, line in enumerate(lines[:-1], start=1):
        if line == "# EOF":
            raise ValueError(f"line {lineno}: '# EOF' before end of text")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, metric, kind = parts
            if not _NAME_RE.match(metric):
                raise ValueError(f"line {lineno}: bad metric name {metric!r}")
            if kind not in ("counter", "gauge", "summary", "histogram"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            if metric in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {metric}")
            types[metric] = kind
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT comments are legal, we just don't emit them
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        sample = match.group("name")
        family, suffix = _family_of(sample, types)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {sample!r} has no TYPE declaration"
            )
        kind = types[family]
        labels = match.group("labels")
        if kind == "counter" and suffix != "_total":
            raise ValueError(
                f"line {lineno}: counter sample must be {family}_total"
            )
        if kind == "gauge" and suffix:
            raise ValueError(f"line {lineno}: gauge sample has suffix")
        if kind == "summary":
            if suffix not in ("", "_count", "_sum"):
                raise ValueError(
                    f"line {lineno}: bad summary suffix {suffix!r}"
                )
            if suffix == "" and (labels is None
                                 or "quantile=" not in labels):
                raise ValueError(
                    f"line {lineno}: summary sample needs a quantile label"
                )
        float(match.group("value"))  # raises on garbage
    return types


def _family_of(sample: str, types: dict[str, str]) -> tuple[str | None, str]:
    """Resolve a sample name to (family, suffix) against declared types."""
    for suffix in ("_total", "_count", "_sum", "_bucket", ""):
        if suffix and sample.endswith(suffix):
            family = sample[: -len(suffix)]
        elif not suffix:
            family = sample
        else:
            continue
        if family in types:
            return family, suffix
    return None, ""


__all__ = [
    "CONTENT_TYPE",
    "SUMMARY_QUANTILES",
    "render_openmetrics",
    "sanitize_name",
    "validate_openmetrics",
]
