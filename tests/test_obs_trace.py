"""Tests for the structured tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs.trace import (
    CATEGORIES,
    EVENT_SCHEMA,
    TimedPulls,
    TraceEvent,
    Tracer,
    validate_events,
    validate_jsonl,
)


class FakeClock:
    """A deterministic clock advancing a fixed step per reading."""

    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestSpans:
    def test_nested_spans_record_depth_and_parent(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.begin("star", "JoinRoot")
        inner = tracer.begin("star", "JMeth")
        tracer.end(inner, plans=2)
        tracer.end(outer, plans=3)
        events = tracer.events()
        assert [e.name for e in events] == ["JMeth", "JoinRoot"]
        assert events[0].depth == 1 and events[0].parent == outer
        assert events[1].depth == 0 and events[1].parent is None
        assert events[0].args == {"plans": 2}

    def test_completion_order_and_seq_are_monotone(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("glue", "resolve"):
            tracer.instant("plantable", "probe", hit=False)
            with tracer.span("star", "AccessRoot"):
                pass
        names = [e.name for e in tracer.events()]
        assert names == ["probe", "AccessRoot", "resolve"]
        seqs = [e.seq for e in tracer.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_out_of_order_end_by_span_id(self):
        """Executor generators close in GC order, not stack order."""
        tracer = Tracer(clock=FakeClock())
        first = tracer.begin("executor", "JOIN(NL)")
        second = tracer.begin("executor", "ACCESS(heap)")
        tracer.end(first, rows=10)  # outer closes before inner
        tracer.end(second, rows=50)
        names = [e.name for e in tracer.events()]
        assert names == ["JOIN(NL)", "ACCESS(heap)"]
        assert tracer.open_spans == 0

    def test_end_unknown_or_empty_is_silent(self):
        tracer = Tracer()
        tracer.end()  # empty stack
        span = tracer.begin("star", "S")
        tracer.end(span + 999)  # unknown id
        assert tracer.open_spans == 1
        tracer.end(span)
        assert len(tracer) == 1

    def test_span_durations_cover_children(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        outer = tracer.begin("star", "outer")
        inner = tracer.begin("star", "inner")
        tracer.end(inner)
        tracer.end(outer)
        by_name = {e.name: e for e in tracer.events()}
        assert by_name["outer"].ts < by_name["inner"].ts
        assert by_name["outer"].dur > by_name["inner"].dur


    def test_end_with_explicit_duration(self):
        """``dur=`` replaces begin-to-end time (a pipelined operator
        stays open while its consumer works) and is no span argument."""
        tracer = Tracer(clock=FakeClock(step=1.0))
        span = tracer.begin("executor", "ACCESS(heap)")
        tracer.end(span, dur=0.25, rows=3)
        (event,) = tracer.events()
        assert event.dur == 0.25 and event.args == {"rows": 3}
        plain = Tracer(clock=FakeClock(step=1.0))
        plain.end(plain.begin("executor", "ACCESS(heap)"), rows=3)
        assert plain.events()[0].dur == 1.0
        assert plain.signature() == tracer.signature()

    def test_timed_pulls_sums_time_inside_next_only(self):
        clock = FakeClock(step=1.0)

        def source():
            for item in "ab":
                clock.now += 10.0  # the producer's work
                yield item

        pulls = TimedPulls(source(), clock)
        seen = []
        for item in pulls:
            clock.now += 100.0  # the consumer's work
            seen.append(item)
        # three pulls (the last one ends the stream), one step per reading
        assert seen == ["a", "b"] and pulls.busy == 2 * 10.0 + 3 * 1.0


class TestRingBuffer:
    def test_eviction_counts_dropped_and_keeps_newest(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.instant("star", f"e{i}")
        assert len(tracer) == 3
        assert tracer.dropped == 7
        assert [e.name for e in tracer.events()] == ["e7", "e8", "e9"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestExport:
    def _sample(self) -> Tracer:
        tracer = Tracer(clock=FakeClock())
        with tracer.span("optimizer", "optimize", query="Q"):
            tracer.instant("chaos", "site_killed", site="N.Y.")
        return tracer

    def test_jsonl_round_trips_and_validates(self):
        tracer = self._sample()
        text = tracer.to_jsonl()
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 2
        assert set(records[0]) == set(EVENT_SCHEMA)
        assert validate_jsonl(text) == []

    def test_chrome_export_is_loadable(self):
        tracer = self._sample()
        data = json.loads(tracer.to_chrome())
        events = data["traceEvents"]
        assert len(events) == 2
        instant = next(e for e in events if e["ph"] == "i")
        span = next(e for e in events if e["ph"] == "X")
        assert instant["s"] == "t" and "dur" not in instant
        assert span["dur"] > 0
        assert all(e["pid"] == 1 and e["tid"] == 1 for e in events)

    def test_args_coerced_to_scalars(self):
        tracer = Tracer()
        tracer.instant("star", "S", stream=frozenset({"EMP"}), n=3, ok=True)
        (event,) = tracer.events()
        assert isinstance(event.args["stream"], str)
        assert event.args["n"] == 3 and event.args["ok"] is True
        assert validate_jsonl(tracer.to_jsonl()) == []


class TestValidation:
    def test_bad_phase_category_and_extra_field_rejected(self):
        good = {
            "seq": 0, "ph": "i", "cat": "star", "name": "S", "ts": 0.0,
            "dur": 0.0, "depth": 0, "span": 0, "parent": None, "args": {},
        }
        assert validate_events([good]) == []
        bad = dict(good, ph="B", cat="nope", extra=1)
        errors = "\n".join(validate_events([bad]))
        assert "phase" in errors and "category" in errors and "extra" in errors

    def test_non_increasing_seq_rejected(self):
        base = {
            "ph": "i", "cat": "star", "name": "S", "ts": 0.0,
            "dur": 0.0, "depth": 0, "span": 0, "parent": None, "args": {},
        }
        stream = [dict(base, seq=1), dict(base, seq=1)]
        assert any("not increasing" in e for e in validate_events(stream))

    def test_invalid_json_line_reported(self):
        assert any("invalid JSON" in e for e in validate_jsonl("{nope"))

    def test_known_categories_cover_schema_table(self):
        assert {"star", "glue", "plantable", "propfunc", "executor",
                "ship", "chaos", "optimizer", "resilient", "robust",
                "serve", "telemetry"} == CATEGORIES


class TestSignature:
    def test_signature_excludes_wall_clock(self):
        fast, slow = Tracer(clock=FakeClock(0.001)), Tracer(clock=FakeClock(7.0))
        for tracer in (fast, slow):
            with tracer.span("star", "S", args="EMP"):
                tracer.instant("glue", "veneer", op="SORT")
        assert fast.signature() == slow.signature()
        assert fast.events()[0].ts != slow.events()[0].ts

    def test_signature_sensitive_to_args(self):
        a, b = Tracer(), Tracer()
        a.instant("star", "S", plans=1)
        b.instant("star", "S", plans=2)
        assert a.signature() != b.signature()

    def test_event_signature_matches_event_fields(self):
        event = TraceEvent(
            seq=0, ph="i", cat="star", name="S", ts=1.0, dur=0.0,
            depth=2, span=5, parent=4, args={"b": 1, "a": 2},
        )
        assert event.signature() == (
            "i", "star", "S", 2, 5, 4, (("a", 2), ("b", 1))
        )
