"""Tests for the metrics registry and the shared stats-snapshot path."""

import importlib.util
import pathlib

import pytest

from repro.executor.network import LinkStats
from repro.executor.resilient import ExecutionReport
from repro.executor.runtime import ExecutionStats
from repro.obs.metrics import MetricsRegistry, stats_snapshot
from repro.obs.openmetrics import render_openmetrics, validate_openmetrics
from repro.stars.engine import ExpansionStats
from repro.stars.plantable import PlanTableStats


class TestRegistry:
    def test_counter_accumulates(self):
        metrics = MetricsRegistry()
        metrics.inc("optimizer.rule.JoinRoot.fired")
        metrics.inc("optimizer.rule.JoinRoot.fired", 2)
        assert metrics.snapshot()["optimizer.rule.JoinRoot.fired"] == 3

    def test_gauge_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.set_gauge("executor.output_rows", 10)
        metrics.set_gauge("executor.output_rows", 7)
        assert metrics.snapshot()["executor.output_rows"] == 7

    def test_histogram_flattens_into_five_keys(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            metrics.observe("analyze.q_error", value)
        snap = metrics.snapshot()
        assert snap["analyze.q_error.count"] == 3
        assert snap["analyze.q_error.sum"] == 6.0
        assert snap["analyze.q_error.min"] == 1.0
        assert snap["analyze.q_error.max"] == 3.0
        assert snap["analyze.q_error.mean"] == 2.0

    def test_empty_histogram_snapshot_is_finite(self):
        metrics = MetricsRegistry()
        metrics.histogram("empty")
        snap = metrics.snapshot()
        assert snap["empty.min"] == 0.0 and snap["empty.max"] == 0.0

    def test_snapshot_is_sorted_and_flat(self):
        metrics = MetricsRegistry()
        metrics.inc("b")
        metrics.set_gauge("a", 1.0)
        snap = metrics.snapshot()
        assert list(snap) == sorted(snap)
        assert all(isinstance(v, (int, float)) for v in snap.values())

    def test_ingest_prefixes_and_skips_non_numeric(self):
        metrics = MetricsRegistry()
        metrics.ingest({"rows": 5, "name": "x", "ok": True}, prefix="executor.")
        snap = metrics.snapshot()
        assert snap == {"executor.rows": 5}

    def test_len_counts_all_kinds(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.set_gauge("b", 1)
        metrics.observe("c", 1)
        assert len(metrics) == 3

    def test_empty_histogram_json_round_trips(self):
        # Regression: an empty histogram once snapshotted min=inf /
        # max=-inf, which json.dumps(allow_nan=False) rejects.
        import json

        metrics = MetricsRegistry()
        metrics.histogram("empty")
        text = json.dumps(metrics.snapshot(), allow_nan=False)
        assert json.loads(text)["empty.min"] == 0.0
        assert json.loads(text)["empty.max"] == 0.0


class TestHistogramQuantiles:
    def _histogram(self, values):
        from repro.obs.metrics import Histogram

        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        return histogram

    def test_empty_quantile_is_zero(self):
        assert self._histogram([]).quantile(0.5) == 0.0

    def test_single_sample_exact_at_every_q(self):
        histogram = self._histogram([0.037])
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 0.037

    def test_extremes_are_exact(self):
        histogram = self._histogram([0.001, 0.01, 0.1, 1.0])
        assert histogram.quantile(0.0) == 0.001
        assert histogram.quantile(1.0) == 1.0

    def test_accuracy_within_one_bucket(self):
        from repro.obs.metrics import BUCKET_BASE

        values = [i / 1000.0 for i in range(1, 1001)]
        histogram = self._histogram(values)
        for q in (0.25, 0.50, 0.90, 0.99):
            exact = values[int(q * (len(values) - 1))]
            estimate = histogram.quantile(q)
            ratio = max(exact, estimate) / min(exact, estimate)
            assert ratio <= BUCKET_BASE ** 1.5, (q, exact, estimate)

    def test_quantile_monotone_in_q(self):
        histogram = self._histogram([0.001 * 2 ** i for i in range(12)])
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)

    def test_out_of_range_q_clamps_to_extremes(self):
        histogram = self._histogram([0.001, 0.01, 0.1])
        assert histogram.quantile(-0.1) == 0.001
        assert histogram.quantile(1.5) == 0.1


class TestStatsSnapshotSchema:
    """One serialization path for every stats dataclass in the repo."""

    def test_expansion_stats(self):
        stats = ExpansionStats(star_references=4, memo_hits=1)
        snap = stats.as_dict()
        assert snap["star_references"] == 4 and snap["memo_hits"] == 1
        assert snap == stats_snapshot(stats)

    def test_plan_table_stats_with_derived_hit_rate(self):
        stats = PlanTableStats(lookups=4, hits=1, misses=3)
        snap = stats.as_dict()
        assert snap["hit_rate"] == 0.25
        assert snap["lookups"] == 4

    def test_execution_stats_with_derived_total_io(self):
        stats = ExecutionStats(page_reads=2, index_reads=3, output_rows=9)
        snap = stats.as_dict()
        assert snap["total_io"] == 5 and snap["output_rows"] == 9

    def test_link_stats(self):
        stats = LinkStats(messages=2, retries=1, backoff_seconds=0.05)
        snap = stats.as_dict()
        assert snap["messages"] == 2 and snap["backoff_seconds"] == 0.05

    def test_execution_report_numeric_only(self):
        report = ExecutionReport(executions=2, sap_failovers=1)
        report.succeeded = True
        report.downed_sites = frozenset({"N.Y."})
        snap = report.as_dict()
        assert snap["executions"] == 2
        assert snap["succeeded"] == 1.0
        assert snap["downed_sites"] == 1
        # Non-numeric fields (events, result, error) never leak in.
        assert all(isinstance(v, (int, float)) for v in snap.values())

    def test_prefix_applies_to_every_key(self):
        stats = ExpansionStats(star_references=1)
        snap = stats_snapshot(stats, prefix="optimizer.")
        assert all(key.startswith("optimizer.") for key in snap)

    def test_all_stats_ingest_into_one_registry(self):
        metrics = MetricsRegistry()
        metrics.ingest(ExpansionStats().as_dict(), prefix="optimizer.")
        metrics.ingest(PlanTableStats().as_dict(), prefix="plantable.")
        metrics.ingest(ExecutionStats().as_dict(), prefix="executor.")
        metrics.ingest(LinkStats().as_dict(), prefix="link.")
        metrics.ingest(ExecutionReport().as_dict(), prefix="resilient.")
        snap = metrics.snapshot()
        assert "optimizer.star_references" in snap
        assert "plantable.hit_rate" in snap
        assert "executor.total_io" in snap
        assert "link.bytes_sent" in snap
        assert "resilient.sap_failovers" in snap


class TestLiveSources:
    """``register``: a live component is read when the registry is."""

    def test_source_is_read_when_asked_not_when_registered(self):
        metrics = MetricsRegistry()
        counts = {"hits": 0, "entries": 0}
        metrics.register("cache.", lambda: counts, gauges=("entries",))
        assert metrics.snapshot() == {"cache.entries": 0, "cache.hits": 0}
        counts["hits"] += 2
        counts["entries"] = 5
        assert metrics.counters() == {"cache.hits": 2}
        assert metrics.gauges() == {"cache.entries": 5}
        assert len(metrics) == 2

    def test_registering_a_prefix_again_replaces_the_source(self):
        # One source per prefix: a cache built with ``metrics=`` and then
        # handed to an executor that registers it again is read once —
        # and a re-created owner restarts from its own zero.
        metrics = MetricsRegistry()
        metrics.register("pool.", lambda: {"dispatched": 7})
        metrics.register("pool.", lambda: {"dispatched": 0})
        assert metrics.snapshot() == {"pool.dispatched": 0}

    def test_one_name_under_two_kinds_is_refused_by_the_renderer(self):
        metrics = MetricsRegistry()
        metrics.register("feedback.", lambda: {"hits": 1})
        metrics.ingest({"hits": 1}, prefix="feedback.")
        with pytest.raises(ValueError, match="feedback.hits"):
            render_openmetrics(metrics)


class TestServedRegistry:
    """The registry of a service that served requests, against the
    catalog in ``docs/observability.md`` — by the names it really holds,
    which ``tools/check_metrics.py`` (a static lint) cannot see for the
    sources that are read."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.serve import OptimizerService, Request, ServiceConfig
        from repro.workloads import chain_workload

        workload = chain_workload(3, rows=40)
        sql = "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK AND R0.VAL < 20"
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=2, pool_workers=1,
                snapshot_path=str(tmp_path_factory.mktemp("snap") / "s"),
            ),
        )
        try:
            service.serve_all(
                [Request(sql)] * 4 + [Request("SELECT nonsense")], burst=3
            )
        finally:
            service.close()
        return service.metrics

    @pytest.fixture(scope="class")
    def lint(self):
        path = pathlib.Path(__file__).parent.parent / "tools/check_metrics.py"
        spec = importlib.util.spec_from_file_location("check_metrics", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_no_name_is_both_a_counter_and_a_gauge(self, served):
        assert not set(served.counters()) & set(served.gauges())
        validate_openmetrics(render_openmetrics(served))

    def test_every_name_held_is_in_the_catalog(self, served, lint):
        catalog = lint.catalog_entries()
        names = {*served.counters(), *served.gauges(), *served.histograms()}
        assert {"serve.requests", "serve.rejected", "serve.errors",
                "serve.cache.lookups", "pool.dispatched",
                "snapshot.saves"} <= names
        undocumented = sorted(
            name for name in names
            if not any(lint._matches(name, entry) for entry in catalog)
        )
        assert not undocumented

    def test_catalog_rows_of_read_sources_name_real_fields(self, served, lint):
        # A row under a registered prefix that names no ``as_dict`` field
        # passes the static lint (``prefix*`` covers it); it fails here.
        held = served.snapshot()
        prefixes = ("serve.cache.", "pool.", "quarantine.", "feedback.",
                    "snapshot.")
        stale = sorted(
            entry for entry in lint.catalog_entries()
            if entry.startswith(prefixes) and "*" not in entry
            and entry not in held
        )
        assert not stale
