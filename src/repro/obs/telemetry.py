"""Request-scoped serving telemetry: trace contexts, sampling, span trees.

PR 2's :class:`~repro.obs.trace.Tracer` made every *component* traceable;
this module makes every *request* traceable.  The serving layer mints a
:class:`TraceContext` per admitted request — a deterministic request id
plus tenant/template identity — and wraps the whole handling path in
``tracer.context(**ctx.trace_args())``, so the admission instant, the
tier decision, the plan-template cache probe, the optimizer span tree,
and (when the plan is executed) the executor spans all come out stamped
with one ``rid``.  :func:`span_tree` reassembles that flat stream into
the request's single contiguous tree, and :func:`validate_request_tree`
is the gate experiment E16 runs over it.

Tracing every request would be wasteful at serving rates, so a
:class:`TraceSampler` picks 1-in-N requests deterministically (request
sequence number, not wall clock — two identical runs sample identical
requests).  Errors are *always* visible: un-sampled requests that fail
still emit a single ``serve``/``error`` instant carrying their rid.

:class:`TelemetryConfig` bundles the serving-telemetry knobs — sampling
rate, flight-recorder capacity and dump path, and the SLO objectives
whose burn rate :meth:`OptimizerService._choose_tier` degrades on.  Each
feature has its own zero (``sample_every=0``,
``flight_capacity=0``, ``slos=()``); there is no master switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs.slo import SLObjective
from repro.obs.trace import TraceEvent


@dataclass
class TraceContext:
    """One request's identity, carried through the serving path.

    ``request_id`` is deterministic (minted from the service's request
    counter), so two runs over the same request stream produce the same
    ids — what lets trace-based tests and goldens pin exact trees.
    ``tier`` is filled in once the degradation ladder has chosen.
    """

    request_id: str
    #: The service's request sequence number the id was minted from —
    #: also the sampler's input and the flight record's ``seq``.
    seq: int = 0
    tenant: str = "default"
    template: str | None = None
    tier: str = "?"
    #: Whether this request's handling is traced (sampler decision).
    sampled: bool = False

    def trace_args(self) -> dict[str, Any]:
        """The ambient args stamped into every event of this request."""
        args: dict[str, Any] = {"rid": self.request_id, "tenant": self.tenant}
        if self.template is not None:
            args["template"] = self.template
        return args


class TraceSampler:
    """Deterministic 1-in-N request sampling.

    ``every=1`` traces everything, ``every=0`` traces nothing; otherwise
    request sequence numbers ``0, N, 2N, ...`` are sampled.  Pure
    function of the sequence number — no RNG, no clock — so sampling
    decisions replay identically across runs.
    """

    __slots__ = ("every",)

    def __init__(self, every: int = 1):
        if every < 0:
            raise ValueError(f"sample_every must be >= 0, got {every}")
        self.every = every

    def sample(self, seq: int) -> bool:
        return self.every > 0 and seq % self.every == 0


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the serving-telemetry layer (experiment E16).

    Separate from :class:`~repro.serve.service.ServiceConfig` because it
    configures *observation*, never *behavior* — with the single
    documented exception of the SLOs, whose burn rate feeds the tier
    chooser so degradation becomes a measured policy.
    """

    #: Trace 1-in-N requests (0 = never, 1 = every request).
    sample_every: int = 16
    #: Flight-recorder ring size in requests (0 disables the recorder).
    flight_capacity: int = 64
    #: File the flight recorder appends JSONL dumps to (None = memory
    #: only; the last dump stays readable on the service).
    flight_path: str | None = None
    #: Declarative service-level objectives, watched per response.
    slos: tuple[SLObjective, ...] = ()

    def __post_init__(self) -> None:
        if self.sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        if self.flight_capacity < 0:
            raise ValueError("flight_capacity must be >= 0")

# ---------------------------------------------------------------------------
# Span-tree reassembly
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One event plus its children — a reassembled request tree node."""

    event: TraceEvent
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event.name

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def names(self) -> list[str]:
        return [node.event.name for node in self.walk()]

    def find(self, name: str) -> "SpanNode | None":
        for node in self.walk():
            if node.event.name == name:
                return node
        return None


def request_events(
    events: Sequence[TraceEvent], request_id: str
) -> list[TraceEvent]:
    """Every event stamped with ``request_id``, in completion order."""
    return [e for e in events if e.args.get("rid") == request_id]


def span_tree(events: Sequence[TraceEvent], request_id: str) -> SpanNode:
    """Reassemble one request's events into its single span tree.

    Raises :class:`ValueError` when the request has no events, or when
    its events do not form exactly one contiguous tree (zero or multiple
    roots, or a parent pointing outside the request) — the property the
    E16 span gate asserts.
    """
    mine = request_events(events, request_id)
    if not mine:
        raise ValueError(f"no events for request {request_id!r}")
    nodes = {e.span: SpanNode(e) for e in mine}
    roots: list[SpanNode] = []
    for event in mine:
        node = nodes[event.span]
        if event.parent is not None and event.parent in nodes:
            nodes[event.parent].children.append(node)
        else:
            roots.append(node)
    if len(roots) != 1:
        raise ValueError(
            f"request {request_id!r} has {len(roots)} span-tree root(s): "
            f"{sorted(r.event.name for r in roots)}"
        )
    return roots[0]


def validate_request_tree(
    events: Sequence[TraceEvent],
    request_id: str,
    required: Sequence[str] = (),
) -> list[str]:
    """Human-readable problems with a request's span tree (empty = ok).

    Checks the tree is single-rooted and contiguous, that the root is
    the ``serve``/``request`` span, that every event carries the same
    tenant stamp, and that each name in ``required`` appears somewhere
    in the tree (the admission→tier→cache→optimize completeness gate).
    """
    errors: list[str] = []
    try:
        root = span_tree(events, request_id)
    except ValueError as exc:
        return [str(exc)]
    if root.event.cat != "serve" or root.event.name != "request":
        errors.append(
            f"root is {root.event.cat}/{root.event.name}, "
            "expected serve/request"
        )
    tenants = {node.event.args.get("tenant") for node in root.walk()}
    if len(tenants) > 1:
        errors.append(f"mixed tenant stamps in one request: {sorted(tenants)}")
    names = set(root.names())
    for name in required:
        if name not in names:
            errors.append(f"span tree is missing required event {name!r}")
    return errors


__all__ = [
    "SpanNode",
    "TelemetryConfig",
    "TraceContext",
    "TraceSampler",
    "request_events",
    "span_tree",
    "validate_request_tree",
]
