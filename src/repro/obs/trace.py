"""Hierarchical tracing with a ring-buffered structured event log.

The paper promises that rules "may be traced to explain the origin of
any execution plan" (section 1).  PR 1 grew that into an ad-hoc string
trace; this module replaces it with a first-class :class:`Tracer`
producing structured :class:`TraceEvent` records for every layer:

===========  ==============================================================
category     emitted by
===========  ==============================================================
``star``     :class:`~repro.stars.engine.StarEngine` — one span per STAR
             reference expanded (memo hits are instants)
``glue``     :func:`~repro.stars.glue.glue` — a resolve (stream) or
             augment (given plans) span plus one instant per veneer
             chain added
``plantable``  :class:`~repro.stars.plantable.PlanTable` probe/insert
``propfunc``   :class:`~repro.cost.propfuncs.PlanFactory` — one instant
             per LOLEPOP application, when it is priced or found (a
             join candidate emits it unbuilt)
``executor``   run-time operator spans: ``ts`` = first pull, ``dur`` =
             time inside the operator's own pulls (inputs included; see
             :class:`TimedPulls`); args ``rows``, ``opens`` and, on a
             vectorized ``JOIN(HA)``, ``build=unique|buckets`` and
             ``build_rows``
``ship``     :class:`~repro.executor.network.NetworkSim` transfer
             attempts, retries, backoff and completions
``chaos``    :class:`~repro.executor.chaos.ChaosEngine` fault injections
``optimizer``  one span per :meth:`StarburstOptimizer.optimize`
``resilient``  :class:`~repro.robust.resilient.ResilientExecutor`'s
             network recovery — SAP failovers and degraded-catalog
             replans (instants)
``robust``   the recovery loop — one ``attempt`` span per plan
             execution of :class:`~repro.robust.resilient.ResilientExecutor`,
             optimization budgets, cardinality checkpoints and
             feedback-cache records/hits
``serve``    :class:`~repro.serve.service.OptimizerService` — one span
             per handled request plus admission/tier/cache instants,
             stamped with the request id (see :mod:`repro.obs.telemetry`)
``pool``     :class:`~repro.serve.pool.OptimizerPool` — one instant per
             worker lost (crash or timeout) and per worker respawned
``telemetry``  the telemetry layer itself — flight-recorder dumps and
             SLO state transitions
===========  ==============================================================

Design constraints:

* **zero cost when off** — "no tracing" is ``tracer=None``, and every
  instrumented hot path guards on ``tracer is not None``, so the
  untraced mode is literally the uninstrumented code path;
* **bounded memory** — events land in a ring buffer (``capacity``);
  eviction is counted in :attr:`Tracer.dropped`, never an error;
* **deterministic streams** — event identity (phase, category, name,
  depth, span ids, args) is derived only from the work performed, so two
  runs with the same inputs and chaos seed produce identical
  :meth:`Tracer.signature` streams.  Wall-clock fields (``ts``/``dur``)
  are excluded from the signature;
* **exportable** — :meth:`Tracer.to_jsonl` emits one JSON object per
  line, :meth:`Tracer.to_chrome` emits the Chrome ``trace_event`` JSON
  that ``chrome://tracing`` / Perfetto load directly.

Spans are recorded as *complete* events (Chrome phase ``"X"``) at close
time, which keeps lazily-consumed executor generators — whose close
order is not strictly nested — representable without corrupting the
trace.  Instants use phase ``"i"``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: The phases an event may carry: complete span or instant.
PHASES = frozenset({"X", "i"})

#: The categories the subsystems emit (the validator enforces these).
CATEGORIES = frozenset(
    {
        "star",
        "glue",
        "plantable",
        "propfunc",
        "executor",
        "ship",
        "chaos",
        "optimizer",
        "resilient",
        "robust",
        "serve",
        "pool",
        "telemetry",
    }
)

#: Field name → required type(s), the schema every exported event obeys.
EVENT_SCHEMA: dict[str, tuple[type, ...]] = {
    "seq": (int,),
    "ph": (str,),
    "cat": (str,),
    "name": (str,),
    "ts": (int, float),
    "dur": (int, float),
    "depth": (int,),
    "span": (int,),
    "parent": (int, type(None)),
    "args": (dict,),
}

#: Argument values are coerced to these JSON-safe scalar types.
_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    ``ts``/``dur`` are seconds relative to the tracer's epoch; ``depth``
    is the number of enclosing open spans at begin time; ``span`` /
    ``parent`` tie the hierarchy together across the flat stream.
    """

    seq: int
    ph: str  # "X" (complete span) or "i" (instant)
    cat: str
    name: str
    ts: float
    dur: float
    depth: int
    span: int
    parent: int | None
    args: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ph": self.ph,
            "cat": self.cat,
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "depth": self.depth,
            "span": self.span,
            "parent": self.parent,
            "args": self.args,
        }

    def signature(self) -> tuple:
        """The deterministic identity of this event (no wall-clock)."""
        return (
            self.ph,
            self.cat,
            self.name,
            self.depth,
            self.span,
            self.parent,
            tuple(sorted(self.args.items())),
        )


class _Frame:
    """One open span on the tracer's stack."""

    __slots__ = ("span_id", "cat", "name", "start", "depth", "parent", "args")

    def __init__(self, span_id, cat, name, start, depth, parent, args):
        self.span_id = span_id
        self.cat = cat
        self.name = name
        self.start = start
        self.depth = depth
        self.parent = parent
        self.args = args


class Tracer:
    """Collects trace events into a ring buffer."""

    def __init__(self, capacity: int = 65536, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._clock = clock
        self._epoch = clock()
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._stack: list[_Frame] = []
        self._seq = 0
        self._next_span = 0
        #: Ambient args merged into every recorded event (see
        #: :meth:`context`) — how request ids stitch spans across layers.
        self._context: dict[str, Any] = {}
        self._context_stack: list[dict[str, Any]] = []
        #: Events evicted from the ring buffer so far.
        self.dropped = 0

    # -- recording ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since the tracer's epoch, on the tracer's clock."""
        return self._clock() - self._epoch

    def begin(self, cat: str, name: str, **args: Any) -> int:
        """Open a span; returns its id for :meth:`end`."""
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1].span_id if self._stack else None
        cleaned = _clean_args(args)
        if self._context:
            cleaned = {**self._context, **cleaned}
        frame = _Frame(
            span_id, cat, name, self.now(), len(self._stack), parent,
            cleaned,
        )
        self._stack.append(frame)
        return span_id

    def end(
        self, span_id: int | None = None, *, dur: float | None = None, **args: Any
    ) -> None:
        """Close a span (the innermost by default) and record it.

        Closing by explicit ``span_id`` tolerates out-of-order closes —
        executor generators are finalized in GC order, not stack order.
        Ending with an empty stack or an unknown id is a silent no-op.

        ``dur`` replaces begin-to-end wall time as the span's duration:
        a pipelined operator stays open while its consumer works, so the
        executors pass the time spent inside the operator's own pulls
        (:class:`TimedPulls`).  Like ``ts`` it is a wall-clock field,
        outside :meth:`signature`.
        """
        if not self._stack:
            return
        if span_id is None or self._stack[-1].span_id == span_id:
            frame = self._stack.pop()
        else:
            index = next(
                (
                    i
                    for i in range(len(self._stack) - 1, -1, -1)
                    if self._stack[i].span_id == span_id
                ),
                None,
            )
            if index is None:
                return
            frame = self._stack.pop(index)
        if args:
            frame.args.update(_clean_args(args))
        if dur is None:
            dur = self.now() - frame.start
        self._record(
            TraceEvent(
                seq=self._seq,
                ph="X",
                cat=frame.cat,
                name=frame.name,
                ts=frame.start,
                dur=dur,
                depth=frame.depth,
                span=frame.span_id,
                parent=frame.parent,
                args=frame.args,
            )
        )

    def instant(self, cat: str, name: str, **args: Any) -> None:
        """Record a zero-duration event at the current nesting depth."""
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1].span_id if self._stack else None
        cleaned = _clean_args(args)
        if self._context:
            cleaned = {**self._context, **cleaned}
        self._record(
            TraceEvent(
                seq=self._seq,
                ph="i",
                cat=cat,
                name=name,
                ts=self.now(),
                dur=0.0,
                depth=len(self._stack),
                span=span_id,
                parent=parent,
                args=cleaned,
            )
        )

    @contextmanager
    def span(self, cat: str, name: str, **args: Any) -> Iterator[int]:
        """Context-manager sugar over :meth:`begin` / :meth:`end`."""
        span_id = self.begin(cat, name, **args)
        try:
            yield span_id
        finally:
            self.end(span_id)

    @contextmanager
    def context(self, **args: Any) -> Iterator["Tracer"]:
        """Stamp ``args`` into every event recorded inside the block.

        This is how request-scoped identity (request id, tenant) reaches
        spans emitted deep inside the optimizer or executor without
        threading a parameter through every call: the serving layer wraps
        request handling in ``tracer.context(rid=...)`` and the whole
        span tree comes out stamped.  Contexts nest; inner keys win.
        """
        self._context_stack.append(self._context)
        merged = dict(self._context)
        merged.update(_clean_args(args))
        self._context = merged
        try:
            yield self
        finally:
            self._context = self._context_stack.pop()

    def _record(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self._seq += 1

    # -- inspection ---------------------------------------------------------

    def events(self) -> tuple[TraceEvent, ...]:
        """The buffered events, in completion order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def signature(self) -> tuple[tuple, ...]:
        """The wall-clock-free identity of the whole stream; equal across
        runs with identical inputs and chaos seed."""
        return tuple(e.signature() for e in self._events)

    def category_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self._events:
            counts[event.cat] = counts.get(event.cat, 0) + 1
        return counts

    def clear(self) -> None:
        self._events.clear()
        self._stack.clear()
        self.dropped = 0

    # -- export -------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line (the schema of :data:`EVENT_SCHEMA`)."""
        return "\n".join(json.dumps(e.as_dict(), sort_keys=True) for e in self._events)

    def to_chrome(self) -> str:
        """Chrome ``trace_event`` JSON, loadable by chrome://tracing and
        Perfetto.  Span events use the Complete ("X") phase; instants use
        "i" with thread scope."""
        trace_events = []
        for e in self._events:
            entry: dict[str, Any] = {
                "name": e.name,
                "cat": e.cat,
                "ph": e.ph,
                "ts": round(e.ts * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": dict(e.args, seq=e.seq, span=e.span, depth=e.depth),
            }
            if e.ph == "X":
                entry["dur"] = round(e.dur * 1e6, 3)
            else:
                entry["s"] = "t"
            trace_events.append(entry)
        return json.dumps(
            {"traceEvents": trace_events, "displayTimeUnit": "ms"}, indent=1
        )


class TimedPulls:
    """Iterate ``source``, summing in :attr:`busy` the time spent inside
    its ``next`` calls — the part of an open stream's lifetime that is
    the producer's (and its inputs'), not its consumer's."""

    __slots__ = ("busy", "_pull", "_now")

    def __init__(self, source: Iterable, now) -> None:
        self.busy = 0.0
        self._pull = iter(source).__next__
        self._now = now

    def __iter__(self) -> "TimedPulls":
        return self

    def __next__(self):
        started = self._now()
        try:
            return self._pull()
        finally:
            self.busy += self._now() - started


def _clean_args(args: dict[str, Any]) -> dict[str, Any]:
    """Coerce span arguments to JSON-safe deterministic scalars."""
    return {
        k: (v if isinstance(v, _SCALARS) else str(v)) for k, v in args.items()
    }


# ---------------------------------------------------------------------------
# Schema validation (the ``trace --self-check`` CI lint)
# ---------------------------------------------------------------------------


def validate_event(record: Any, index: int = 0) -> list[str]:
    """Validate one decoded event dict against :data:`EVENT_SCHEMA`."""
    errors: list[str] = []
    where = f"event {index}"
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    for fname, types in EVENT_SCHEMA.items():
        if fname not in record:
            errors.append(f"{where}: missing field {fname!r}")
            continue
        value = record[fname]
        if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
            errors.append(
                f"{where}: field {fname!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    extras = set(record) - set(EVENT_SCHEMA)
    if extras:
        errors.append(f"{where}: unknown field(s) {sorted(extras)}")
    if record.get("ph") not in PHASES:
        errors.append(f"{where}: phase {record.get('ph')!r} not in {sorted(PHASES)}")
    if record.get("cat") not in CATEGORIES:
        errors.append(
            f"{where}: category {record.get('cat')!r} not in {sorted(CATEGORIES)}"
        )
    if isinstance(record.get("depth"), int) and record["depth"] < 0:
        errors.append(f"{where}: negative depth")
    if isinstance(record.get("args"), dict):
        for key, value in record["args"].items():
            if not isinstance(value, _SCALARS):
                errors.append(
                    f"{where}: arg {key!r} is not a scalar "
                    f"({type(value).__name__})"
                )
    return errors


def validate_events(records: Iterable[Any]) -> list[str]:
    """Validate a decoded event stream; returns human-readable errors."""
    errors: list[str] = []
    last_seq: int | None = None
    for index, record in enumerate(records):
        errors.extend(validate_event(record, index))
        seq = record.get("seq") if isinstance(record, dict) else None
        if isinstance(seq, int):
            if last_seq is not None and seq <= last_seq:
                errors.append(
                    f"event {index}: seq {seq} not increasing (after {last_seq})"
                )
            last_seq = seq
    return errors


def validate_jsonl(text: str) -> list[str]:
    """Validate a JSON-lines trace export (``Tracer.to_jsonl`` output)."""
    records = []
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc})")
    errors.extend(validate_events(records))
    return errors
