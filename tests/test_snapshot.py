"""Warm-restart snapshots: round-trips, corruption fallback, golden file.

The golden fixture (``tests/fixtures/snapshot_golden.jsonl``) pins the
on-disk schema byte-for-byte after normalization — timestamps, the
checksum, and the pickle blobs (pickle bytes are not stable across
Python versions) are replaced by fixed placeholders; everything
structural must match exactly.  Regenerate after an *intentional* format
change (bump ``SNAPSHOT_VERSION``!) with::

    PYTHONPATH=src python tests/test_snapshot.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.template import canonical_key
from repro.robust.feedback import FeedbackCache
from repro.serve import (
    OptimizerService,
    Request,
    ServiceConfig,
    SnapshotError,
    load_snapshot,
    restore_snapshot,
    save_snapshot,
)
from repro.serve.cache import PlanTemplateCache
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    inspect_snapshot,
    normalize_snapshot_text,
    snapshot_text,
)
from repro.workloads import chain_workload

SQL = "SELECT R0.ID, R2.ID FROM R0, R1, R2 WHERE R0.ID = R1.FK AND R1.ID = R2.FK"
SQL_B = "SELECT R0.ID FROM R0, R1 WHERE R0.ID = R1.FK AND R0.VAL < 20"

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "snapshot_golden.jsonl"


@pytest.fixture(scope="module")
def workload():
    return chain_workload(3, rows=40)


@pytest.fixture(scope="module")
def warm_service(workload):
    """A service with a warmed cache and one feedback observation."""
    service = OptimizerService(
        workload.catalog, service=ServiceConfig(workers=1, queue_limit=8)
    )
    service.serve_all([Request(SQL), Request(SQL_B)])
    service.feedback.record(["R0"], [], 123.0)
    return service


def _rebuild_checksum(text: str) -> str:
    """Re-sign tampered payload lines so only the tamper is detected."""
    lines = text.splitlines()
    header = json.loads(lines[0])
    digest = hashlib.sha256()
    for line in lines[1:]:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    header["checksum"] = digest.hexdigest()
    header["templates"] = sum(
        1 for line in lines[1:] if '"kind":"template"' in line
    )
    header["feedback"] = sum(
        1 for line in lines[1:] if '"kind":"feedback"' in line
    )
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    def test_template_entries_preserved(self, warm_service, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        save_snapshot(path, warm_service.cache, warm_service.feedback)
        snapshot = load_snapshot(path)
        originals = warm_service.cache.entries()
        assert len(snapshot.templates) == len(originals) == 2
        for restored, original in zip(snapshot.templates, originals):
            assert restored.key == original.key
            assert restored.plan.digest == original.plan.digest
            assert restored.best_cost == original.best_cost
            assert restored.estimated_card == original.estimated_card
            assert restored.band_center == original.band_center
            assert restored.exact_key == original.exact_key
            assert restored.tier == original.tier
            assert restored.open == original.open
        assert snapshot.feedback == warm_service.feedback.entries()

    def test_restored_service_serves_cache_hits(
        self, workload, warm_service, tmp_path
    ):
        path = str(tmp_path / "snap.jsonl")
        save_snapshot(path, warm_service.cache, warm_service.feedback)
        restarted = OptimizerService(
            workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=8, snapshot_path=path
            ),
        )
        assert restarted.snapshot_loaded
        assert restarted.templates_restored == 2
        responses = restarted.serve_all([Request(SQL), Request(SQL_B)])
        assert [r.tier for r in responses] == ["cached", "cached"]

    def test_restore_respects_capacity(self, workload, warm_service, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        save_snapshot(path, warm_service.cache, FeedbackCache())
        snapshot = load_snapshot(path)
        small = PlanTemplateCache(workload.catalog, FeedbackCache(), capacity=1)
        restored = restore_snapshot(snapshot, small, FeedbackCache())
        assert restored == (2, 0)
        assert len(small) == 1  # LRU evicted down to capacity

    @settings(max_examples=25, deadline=None)
    @given(
        observations=st.dictionaries(
            st.text(
                alphabet="ABCDEFGHIJ", min_size=1, max_size=3
            ),
            st.floats(
                min_value=0.0, max_value=1e12,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=8,
        )
    )
    def test_feedback_round_trip_property(self, observations):
        import tempfile

        feedback = FeedbackCache()
        for table, value in observations.items():
            feedback.record([table], [], value)
        with tempfile.TemporaryDirectory() as directory:
            path = str(pathlib.Path(directory) / "feedback.jsonl")
            save_snapshot(path, None, feedback)
            snapshot = load_snapshot(path)
        expected = {
            canonical_key([table], []): float(value)
            for table, value in observations.items()
        }
        assert snapshot.feedback == expected
        target = FeedbackCache()
        restore_snapshot(snapshot, None, target)
        assert target.entries() == expected

    def test_inspect_summarizes(self, warm_service, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        save_snapshot(path, warm_service.cache, warm_service.feedback)
        info = inspect_snapshot(path)
        assert info["version"] == SNAPSHOT_VERSION
        assert info["templates"] == 2
        assert info["feedback"] == 1
        assert info["tiers"] == {"full": 2}


class TestCorruption:
    @pytest.fixture()
    def snapshot_file(self, warm_service, tmp_path):
        path = tmp_path / "snap.jsonl"
        save_snapshot(str(path), warm_service.cache, warm_service.feedback)
        return path

    def _expect_error(self, path, match):
        with pytest.raises(SnapshotError, match=match):
            load_snapshot(str(path))

    def test_missing_file(self, tmp_path):
        self._expect_error(tmp_path / "nope.jsonl", "unreadable")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        self._expect_error(path, "empty")

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n")
        self._expect_error(path, "unparseable header")

    def test_wrong_type_tag(self, snapshot_file):
        text = snapshot_file.read_text().replace(
            '"type":"repro_snapshot"', '"type":"other_thing"', 1
        )
        snapshot_file.write_text(text)
        self._expect_error(snapshot_file, "bad type tag")

    def test_version_skew(self, snapshot_file):
        text = snapshot_file.read_text().replace(
            f'"version":{SNAPSHOT_VERSION}', '"version":999', 1
        )
        snapshot_file.write_text(text)
        self._expect_error(snapshot_file, "version")

    def test_version_one_snapshot_starts_cold_and_is_counted(
        self, workload, snapshot_file
    ):
        """Version-1 template keys lack the projection, ORDER BY and
        result site, so they could never be hit: such a file is refused
        as version skew."""
        text = snapshot_file.read_text().replace(
            f'"version":{SNAPSHOT_VERSION}', '"version":1', 1
        )
        snapshot_file.write_text(text)
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=8, snapshot_path=str(snapshot_file)
            ),
        )
        assert not service.snapshot_loaded
        assert "version 1 != supported" in service.snapshot_error
        assert service.metrics.snapshot()["snapshot.load_failures"] == 1
        assert len(service.cache) == 0

    def test_truncated_payload(self, snapshot_file):
        lines = snapshot_file.read_text().splitlines()
        snapshot_file.write_text("\n".join(lines[:-1]) + "\n")
        self._expect_error(snapshot_file, "truncated")

    def test_checksum_mismatch(self, snapshot_file):
        text = snapshot_file.read_text().replace(
            '"tier":"full"', '"tier":"full"' + " ", 1
        )
        snapshot_file.write_text(text)
        self._expect_error(snapshot_file, "checksum mismatch")

    def test_undecodable_blob(self, snapshot_file):
        lines = snapshot_file.read_text().splitlines()
        entry = json.loads(lines[1])
        assert entry["kind"] == "template"
        entry["plan"] = "!!!not-base64-pickle!!!"
        lines[1] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        # Re-sign so the tampered blob is what the loader trips on.
        snapshot_file.write_text(
            _rebuild_checksum("\n".join(lines) + "\n")
        )
        self._expect_error(snapshot_file, "blob")

    def test_service_cold_starts_on_corrupt_snapshot(
        self, workload, snapshot_file
    ):
        snapshot_file.write_text("garbage\n")
        service = OptimizerService(
            workload.catalog,
            service=ServiceConfig(
                workers=1, queue_limit=8, snapshot_path=str(snapshot_file)
            ),
        )
        assert not service.snapshot_loaded
        assert service.snapshot_error is not None
        assert len(service.cache) == 0
        [response] = service.serve_all([Request(SQL)])
        assert response.ok  # cold but alive


class TestGolden:
    def test_normalized_snapshot_matches_golden(self, warm_service):
        text = normalize_snapshot_text(
            snapshot_text(warm_service.cache, warm_service.feedback)
        )
        assert GOLDEN.exists(), (
            "golden fixture missing — regenerate with "
            "`PYTHONPATH=src python tests/test_snapshot.py --regenerate`"
        )
        assert text == GOLDEN.read_text()

    def test_normalization_is_idempotent_and_time_free(self, warm_service):
        first = normalize_snapshot_text(
            snapshot_text(warm_service.cache, warm_service.feedback,
                          created=1000.0)
        )
        second = normalize_snapshot_text(
            snapshot_text(warm_service.cache, warm_service.feedback,
                          created=2000.0)
        )
        assert first == second


def _regenerate() -> None:
    workload = chain_workload(3, rows=40)
    service = OptimizerService(
        workload.catalog, service=ServiceConfig(workers=1, queue_limit=8)
    )
    service.serve_all([Request(SQL), Request(SQL_B)])
    service.feedback.record(["R0"], [], 123.0)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(normalize_snapshot_text(
        snapshot_text(service.cache, service.feedback)
    ))
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
