"""Flight recorder: the ring, incident dumps, and the golden fixture."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs import (
    FlightRecord,
    FlightRecorder,
    TelemetryConfig,
    q_error,
    validate_flight_dump,
)
from repro.obs.flight import parse_dumps
from repro.serve import OptimizerService, Request, ServiceConfig
from repro.workloads import chain_workload

SQL = "SELECT R0.ID, R2.ID FROM R0, R1, R2 WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
SQL_B = "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK AND R0.VAL < 20"
SQL_C = "SELECT R1.ID FROM R1, R2 WHERE R1.ID = R2.FK AND R1.VAL >= 50"

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "flight_golden.jsonl"


def _record(seq: int, **overrides) -> FlightRecord:
    defaults = dict(
        seq=seq,
        request_id=f"req-{seq:06d}",
        tenant="t0",
        template="T0",
        tier="full",
        cache="miss",
        plan_digest="abcd1234",
        cost=10.0,
        q_error=None,
        latency_seconds=0.002,
        budget_expansions=3,
        deadline_ticks=None,
        ok=True,
    )
    defaults.update(overrides)
    return FlightRecord(**defaults)


class TestRing:
    def test_keeps_only_last_capacity_records(self):
        recorder = FlightRecorder(capacity=3)
        for seq in range(5):
            recorder.record(_record(seq))
        assert len(recorder) == 3
        assert [r.seq for r in recorder.records()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_bad_cache_outcome_rejected(self):
        with pytest.raises(ValueError, match="cache outcome"):
            _record(0, cache="maybe")

    def test_normalize_time_zeroes_latency_only(self):
        record = _record(0)
        normalized = record.as_dict(normalize_time=True)
        assert normalized["latency_seconds"] == 0.0
        raw = record.as_dict()
        raw["latency_seconds"] = 0.0
        assert normalized == raw


class TestDump:
    def test_dump_round_trips_through_validator(self):
        recorder = FlightRecorder(capacity=8)
        for seq in range(4):
            recorder.record(_record(seq))
        text = recorder.dump_text("breaker_trip")
        records = validate_flight_dump(text)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
        assert recorder.dumps == 1

    def test_header_carries_reason_and_count(self):
        recorder = FlightRecorder()
        recorder.record(_record(0))
        header = json.loads(recorder.dump_text("slo:latency").splitlines()[0])
        assert header == {
            "type": "flight_dump", "reason": "slo:latency", "records": 1,
        }

    def test_dump_appends_to_file(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(_record(0))
        path = tmp_path / "flight.jsonl"
        recorder.dump(str(path), "breaker_trip")
        recorder.record(_record(1))
        recorder.dump(str(path), "deadline_exceeded")
        dumps = list(parse_dumps(path.read_text()))
        assert len(dumps) == 2
        assert len(dumps[0]) == 1 and len(dumps[1]) == 2

    def test_validator_rejects_count_mismatch(self):
        recorder = FlightRecorder()
        recorder.record(_record(0))
        text = recorder.dump_text("x")
        truncated = "\n".join(text.splitlines()[:1]) + "\n"
        with pytest.raises(ValueError, match="promises"):
            validate_flight_dump(truncated)

    def test_validator_rejects_missing_fields(self):
        header = json.dumps(
            {"type": "flight_dump", "reason": "x", "records": 1}
        )
        with pytest.raises(ValueError, match="missing fields"):
            validate_flight_dump(header + "\n" + json.dumps({"seq": 0}))

    def test_validator_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            validate_flight_dump(json.dumps({"type": "whatever"}))
        with pytest.raises(ValueError, match="empty"):
            validate_flight_dump("")


@pytest.fixture(scope="module")
def workload():
    return chain_workload(3, rows=40)


def _tripped_service(workload):
    """A service whose cached entry drifts until the breaker trips."""
    service = OptimizerService(
        workload.catalog,
        service=ServiceConfig(workers=1, queue_limit=8,
                              drift_threshold=10.0, breaker_threshold=2),
        telemetry=TelemetryConfig(sample_every=0, flight_capacity=16),
    )
    # Warm the cache; the test then injects a 100x runtime misestimate
    # for the cached template so subsequent lookups fail the drift check.
    service.serve_all([Request(SQL_B)])
    return service, service.feedback


class TestServiceIncidents:
    def _drift(self, service, feedback, workload):
        """Record a runtime observation 100x the cached entry's estimate;
        returns ``(query, estimate, observation)``."""
        from repro.query.parser import parse_query

        query = parse_query(SQL_B, workload.catalog)
        entry = service.cache.lookup_stale(query)
        assert entry is not None
        observed = entry.estimated_card * 100.0
        feedback.record(*entry.exact_key, observed)
        return query, entry.estimated_card, observed

    def test_breaker_trip_dumps_flight_recorder(self, workload):
        service, feedback = _tripped_service(workload)
        self._drift(service, feedback, workload)
        service.serve_all([Request(SQL_B)] * 3, burst=1)
        assert service.cache.stats.breaker_trips == 1
        assert service.last_flight_dump is not None
        records = validate_flight_dump(service.last_flight_dump)
        assert records  # the requests leading up to the trip
        header = json.loads(service.last_flight_dump.splitlines()[0])
        assert "breaker_trip" in header["reason"]
        assert service.metrics.snapshot()["telemetry.flight_dumps"] == 1

    def test_trip_reoptimizes_back_inside_the_drift_threshold(self, workload):
        """The recovery half of the incident (experiment E15 part C): the
        trip forces a re-optimization that the observation now steers, so
        the replacement entry no longer drifts and serves hits again."""
        service, feedback = _tripped_service(workload)
        query, estimated, observed = self._drift(service, feedback, workload)
        threshold = service.config.drift_threshold
        assert q_error(estimated, observed) > threshold
        responses = service.serve_all([Request(SQL_B)] * 3, burst=1)
        # breaker_threshold=2: a drifted hit inside the grace window, the
        # trip and its re-optimization, then a hit on the fresh entry.
        assert [r.tier for r in responses] == ["cached", "full", "cached"]
        fresh = service.cache.lookup_stale(query)
        assert q_error(fresh.estimated_card, observed) <= threshold
        assert service.cache.stats.breaker_trips == 1

    def test_dump_goes_to_file_when_configured(self, workload, tmp_path):
        path = tmp_path / "incidents.jsonl"
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(workers=1, queue_limit=8,
                                  drift_threshold=10.0, breaker_threshold=2),
            telemetry=TelemetryConfig(
                sample_every=0, flight_capacity=16, flight_path=str(path)
            ),
        )
        service.serve_all([Request(SQL_B)])
        self._drift(service, service.feedback, workload)
        service.serve_all([Request(SQL_B)] * 3, burst=1)
        assert path.exists()
        [records] = list(parse_dumps(path.read_text()))
        assert records

    def test_no_incident_no_dump(self, workload):
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(workers=1, queue_limit=8),
            telemetry=TelemetryConfig(sample_every=0),
        )
        service.serve_all([Request(SQL)] * 3, burst=1)
        assert service.last_flight_dump is None
        assert service.flight is not None
        assert len(service.flight) == 3  # recorded, just never dumped


def _golden_run():
    """The seeded serving run the golden fixture pins.

    Everything that lands in a flight record is deterministic here:
    workers=1 + burst=1 serializes handling, the tight deadline forces
    heuristic degradation on request 3, and latency is normalized at
    dump time.
    """
    workload = chain_workload(3, rows=40)
    service = OptimizerService(
        workload.catalog,
        service=ServiceConfig(workers=1, queue_limit=8),
        telemetry=TelemetryConfig(sample_every=0, flight_capacity=16),
    )
    requests = [
        Request(SQL, tenant="t0", template="T0"),
        Request(SQL, tenant="t1", template="T0"),
        Request(SQL_B, tenant="t0", template="T1"),
        Request(SQL_C, tenant="t1", template="T2", deadline_ticks=150),
        Request(SQL_B, tenant="t0", template="T1"),
    ]
    service.serve_all(requests, burst=1)
    return service.flight.dump_text("golden", normalize_time=True)


class TestGoldenDump:
    def test_dump_matches_committed_golden_bytes(self):
        """Byte-stable modulo time: schema or serialization drift fails
        here first.  Regenerate with
        ``python -c 'import tests.test_flight_recorder as t; t.regenerate()'``
        from the repo root (PYTHONPATH=src:.)."""
        assert GOLDEN.exists(), "golden fixture missing"
        assert _golden_run() == GOLDEN.read_text()

    def test_golden_itself_validates(self):
        records = validate_flight_dump(GOLDEN.read_text())
        assert len(records) == 5
        assert [r["tier"] for r in records] == [
            "full", "cached", "full", "heuristic", "cached",
        ]
        assert all(r["latency_seconds"] == 0.0 for r in records)


def regenerate() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(_golden_run())
    print(f"rewrote {GOLDEN}")
