"""Request-scoped telemetry: trace contexts, sampling, span trees (E16)."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanNode,
    TelemetryConfig,
    TraceContext,
    TraceSampler,
    Tracer,
    request_events,
    span_tree,
    validate_request_tree,
)
from repro.serve import (
    LoadSpec,
    OptimizerService,
    Request,
    ServiceConfig,
    generate,
    percentile,
)
from repro.workloads import chain_workload

SQL = "SELECT R0.ID, R2.ID FROM R0, R1, R2 WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
SQL_B = "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK AND R0.VAL < 20"


@pytest.fixture(scope="module")
def workload():
    return chain_workload(3, rows=40)


def _service(workload, **kwargs) -> OptimizerService:
    service = dict(workers=2, queue_limit=8)
    for key in ("workers", "queue_limit", "cache_capacity"):
        if key in kwargs:
            service[key] = kwargs.pop(key)
    kwargs.setdefault("tracer", Tracer())
    kwargs.setdefault("telemetry", TelemetryConfig(sample_every=1))
    return OptimizerService(
        workload.catalog, service=ServiceConfig(**service), **kwargs
    )


class TestTraceContext:
    def test_trace_args_stamp_rid_and_tenant(self):
        ctx = TraceContext("req-000007", seq=7, tenant="t1")
        assert ctx.trace_args() == {"rid": "req-000007", "tenant": "t1"}

    def test_template_included_when_known(self):
        ctx = TraceContext("req-000001", tenant="t0", template="T3")
        assert ctx.trace_args()["template"] == "T3"

    def test_tier_defaults_unknown(self):
        assert TraceContext("req-000000").tier == "?"


class TestTraceSampler:
    def test_every_one_samples_everything(self):
        sampler = TraceSampler(1)
        assert all(sampler.sample(i) for i in range(10))

    def test_zero_samples_nothing(self):
        sampler = TraceSampler(0)
        assert not any(sampler.sample(i) for i in range(10))

    def test_one_in_n_is_deterministic(self):
        sampler = TraceSampler(4)
        picked = [i for i in range(12) if sampler.sample(i)]
        assert picked == [0, 4, 8]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TraceSampler(-1)


class TestTelemetryConfig:
    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_every=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(flight_capacity=-1)


class TestRequestTree:
    def test_single_request_is_one_contiguous_tree(self, workload):
        service = _service(workload)
        [response] = service.serve_all([Request(SQL, tenant="t0")])
        assert response.request_id == "req-000000"
        assert response.sampled
        events = service.tracer.events()
        root = span_tree(events, "req-000000")
        assert isinstance(root, SpanNode)
        assert (root.event.cat, root.event.name) == ("serve", "request")
        assert validate_request_tree(
            events, "req-000000",
            required=("admitted", "tier", "cache_miss", "optimize"),
        ) == []

    def test_cached_request_tree_has_cache_hit(self, workload):
        service = _service(workload)
        service.serve_all([Request(SQL)] * 2, burst=1)
        events = service.tracer.events()
        assert validate_request_tree(
            events, "req-000001", required=("admitted", "tier", "cache_hit")
        ) == []

    def test_every_request_of_a_sampled_stream_is_one_tree(self):
        """Experiment E16 part B: a generated 24-request stream, fully
        sampled — one well-formed tree per request, no event evicted."""
        stream_workload, requests = generate(
            LoadSpec(wild_fraction=0.0, deadline_fraction=0.0), 24
        )
        service = _service(stream_workload, queue_limit=64)
        responses = service.serve_all(requests, burst=4)
        assert all(r.ok and r.sampled for r in responses)
        events = service.tracer.events()
        for response in responses:
            assert validate_request_tree(
                events, response.request_id, required=("admitted", "tier")
            ) == []
        assert service.tracer.dropped == 0

    def test_unsampled_requests_leave_no_stamped_events(self, workload):
        service = _service(
            workload, telemetry=TelemetryConfig(sample_every=2)
        )
        service.serve_all([Request(SQL)] * 4, burst=1)
        events = service.tracer.events()
        assert request_events(events, "req-000000")
        assert request_events(events, "req-000002")
        assert not request_events(events, "req-000001")
        assert not request_events(events, "req-000003")

    def test_sampling_meters_sampled_count(self, workload):
        metrics = MetricsRegistry()
        service = _service(
            workload, metrics=metrics,
            telemetry=TelemetryConfig(sample_every=2),
        )
        service.serve_all([Request(SQL)] * 4, burst=1)
        assert metrics.snapshot()["serve.sampled"] == 2

    def test_error_instant_emitted_even_unsampled(self, workload):
        service = _service(
            workload, telemetry=TelemetryConfig(sample_every=0)
        )
        [response] = service.serve_all([Request("not sql at all")])
        assert not response.ok
        events = request_events(service.tracer.events(), "req-000000")
        assert [e.name for e in events] == ["error"]

    def test_missing_request_id_raises(self, workload):
        service = _service(workload)
        service.serve_all([Request(SQL)])
        with pytest.raises(ValueError, match="no events"):
            span_tree(service.tracer.events(), "req-999999")

    def test_rejected_request_emits_single_stamped_instant(self, workload):
        service = _service(workload, workers=1, queue_limit=1)
        responses = service.serve_all([Request(SQL)] * 8, burst=8)
        rejected = [r for r in responses if r.rejected]
        assert rejected
        events = request_events(
            service.tracer.events(), rejected[0].request_id
        )
        assert [e.name for e in events] == ["rejected"]


class TestConcurrentRequests:
    def test_two_concurrent_traces_are_disjoint_trees(self, workload):
        """Two in-flight sampled requests must not corrupt each other's
        trees: every stamped event belongs to exactly one rid and each
        rid's events reassemble into a well-formed tree."""
        service = _service(workload, workers=2)

        async def run():
            async with service:
                futures = [
                    service.submit_nowait(Request(SQL, tenant="t0")),
                    service.submit_nowait(Request(SQL_B, tenant="t1")),
                ]
                return await asyncio.gather(*futures)

        responses = asyncio.run(run())
        assert [r.request_id for r in responses] == [
            "req-000000", "req-000001"
        ]
        events = service.tracer.events()
        seen: set[int] = set()
        for response in responses:
            mine = request_events(events, response.request_id)
            assert mine
            spans = {e.span for e in mine}
            assert not spans & seen, "span leaked between request trees"
            seen |= spans
            assert validate_request_tree(
                events, response.request_id,
                required=("admitted", "tier", "optimize"),
            ) == []

    def test_concurrent_tenants_stay_uniform_per_tree(self, workload):
        service = _service(workload, workers=2)

        async def run():
            async with service:
                futures = [
                    service.submit_nowait(
                        Request(SQL, tenant=f"tenant{i % 2}")
                    )
                    for i in range(6)
                ]
                return await asyncio.gather(*futures)

        responses = asyncio.run(run())
        events = service.tracer.events()
        tenants_seen = set()
        for response in responses:
            root = span_tree(events, response.request_id)
            tenants = {n.event.args.get("tenant") for n in root.walk()}
            assert len(tenants) == 1
            tenants_seen |= tenants
        assert tenants_seen == {"tenant0", "tenant1"}


class TestTelemetryDisabled:
    """Every telemetry feature at its own zero: nothing sampled, no
    flight recorder, no SLOs."""

    OFF = TelemetryConfig(sample_every=0, flight_capacity=0)

    def test_disabled_has_no_flight_recorder(self, workload):
        service = _service(workload, telemetry=self.OFF)
        assert service.flight is None
        service.serve_all([Request(SQL)])
        assert service.last_flight_dump is None

    def test_report_still_has_latency_quantiles(self, workload):
        service = _service(workload, telemetry=self.OFF)
        service.serve_all([Request(SQL)] * 3, burst=1)
        report = service.report()
        assert report.latency_p50 > 0.0
        assert report.latency_p99 >= report.latency_p50


class TestPercentileWrapper:
    """``percentile`` is a thin wrapper over ``Histogram.quantile``."""

    def test_empty_returns_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample_is_exact_everywhere(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([0.25], q) == pytest.approx(0.25)

    def test_q0_and_q1_are_exact_extremes(self):
        values = [0.001, 0.004, 0.016, 0.064, 0.256]
        assert percentile(values, 0.0) == pytest.approx(0.001)
        assert percentile(values, 1.0) == pytest.approx(0.256)

    def test_median_within_one_bucket(self):
        from repro.obs.metrics import BUCKET_BASE

        values = [float(i) / 100 for i in range(1, 101)]
        estimate = percentile(values, 0.50)
        exact = 0.50
        ratio = max(estimate, exact) / min(estimate, exact)
        assert ratio <= BUCKET_BASE ** 1.5
