"""Warm-restart snapshots of the serving state: restart ≠ cold start.

E15 measured the plan-template cache at ~57× throughput warm-vs-cold; a
process restart that discards it re-pays the whole warm-up under live
traffic.  This module persists the two caches worth carrying across a
restart — the :class:`~repro.serve.cache.PlanTemplateCache` (plans) and
the :class:`~repro.robust.feedback.FeedbackCache` (observed
cardinalities, which the drift guards need to keep judging those
plans) — and restores them on start.

The on-disk format is deliberately boring, versioned, and defensive:

* **JSONL**: one header line, then one line per entry, every object
  serialized with sorted keys — the layout ``tests/fixtures/
  snapshot_golden.jsonl`` pins byte-for-byte (timestamps, checksums and
  pickle blobs normalized; pickles are not byte-stable across Python
  versions).
* **Header**: ``type`` / ``version`` / ``created_unix`` / entry counts /
  ``checksum`` — a SHA-256 over the payload lines, so truncation and
  corruption are caught before any entry is trusted.
* **Blobs**: plans and exact equivalence-class keys ride as
  base64-pickle (plans are interned DAGs; pickle round-trips them
  exactly, as ``optimize_many`` already relies on).  Template keys are
  pure nested tuples of strings and stay readable JSON.
* **Atomic writes**: tmp file in the target directory, flush + fsync,
  ``os.replace`` — a crash mid-save leaves the previous snapshot, never
  a torn one.
* **Paranoid loads**: :func:`load_snapshot` raises :class:`SnapshotError`
  on unreadable files, bad JSON, wrong type or version, count or
  checksum mismatches, and undecodable blobs.  The service catches it
  and cold-starts — a bad snapshot may cost warm-up, never availability.

Snapshots contain pickled plan objects and must only be loaded from
paths the operator controls (the same trust model as the plan files the
CLI already writes).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field

from repro.query.template import PlanKey, TemplateKey
from repro.robust.feedback import FeedbackCache
from repro.serve.cache import PlanTemplateCache, TemplateEntry

#: Bump on any incompatible change to the header or entry schema.  2: a
#: template key gained the projection and ORDER BY shapes and the result
#: site, so a version-1 key could never be hit again.
SNAPSHOT_VERSION = 2

#: The header's ``type`` tag (guards against loading arbitrary JSONL).
SNAPSHOT_TYPE = "repro_snapshot"


class SnapshotError(Exception):
    """A snapshot file could not be trusted (load falls back to cold)."""


@dataclass
class Snapshot:
    """A validated, decoded snapshot, ready to restore."""

    version: int
    created_unix: float
    templates: list[TemplateEntry] = field(default_factory=list)
    feedback: dict[PlanKey, float] = field(default_factory=dict)


def _blob(value: object) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unblob(text: str, what: str) -> object:
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:
        raise SnapshotError(f"undecodable {what} blob: {exc}") from exc


def _tuplize(value: object) -> object:
    """JSON lists back to the nested tuples template keys are made of."""
    if isinstance(value, list):
        return tuple(_tuplize(item) for item in value)
    return value


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _template_line(entry: TemplateEntry) -> str:
    return _dump_line({
        "kind": "template",
        "key": entry.key,
        "plan": _blob(entry.plan),
        "exact_key": _blob(entry.exact_key),
        "best_cost": entry.best_cost,
        "estimated_card": entry.estimated_card,
        "band_center": entry.band_center,
        "tier": entry.tier,
        "hits": entry.hits,
        "drift_failures": entry.drift_failures,
        "open": entry.open,
        "last_q": entry.last_q,
    })


def _feedback_line(key: PlanKey, value: float) -> str:
    return _dump_line({
        "kind": "feedback",
        "key": _blob(key),
        "value": value,
    })


def _checksum(payload_lines: list[str]) -> str:
    digest = hashlib.sha256()
    for line in payload_lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def snapshot_text(
    cache: PlanTemplateCache | None,
    feedback: FeedbackCache | None,
    created: float | None = None,
) -> str:
    """The full snapshot file contents (header + payload) as text."""
    template_lines = [
        _template_line(entry)
        for entry in (cache.entries() if cache is not None else [])
    ]
    # Feedback keys are frozensets — sort their serialized forms so the
    # file (and the golden fixture pinning it) is deterministic.
    feedback_lines = sorted(
        _feedback_line(key, value)
        for key, value in (
            feedback.entries() if feedback is not None else {}
        ).items()
    )
    payload = template_lines + feedback_lines
    header = _dump_line({
        "type": SNAPSHOT_TYPE,
        "version": SNAPSHOT_VERSION,
        "created_unix": created if created is not None else time.time(),
        "templates": len(template_lines),
        "feedback": len(feedback_lines),
        "checksum": _checksum(payload),
    })
    return "\n".join([header] + payload) + "\n"


def save_snapshot(
    path: str,
    cache: PlanTemplateCache | None,
    feedback: FeedbackCache | None,
    created: float | None = None,
) -> str:
    """Atomically write a snapshot to ``path``; returns the path.

    The write goes to a tmp file in the target directory (same
    filesystem, so the final ``os.replace`` is atomic) and is fsynced
    before the rename — a crash at any point leaves either the old
    snapshot or the new one, never a torn file.
    """
    text = snapshot_text(cache, feedback, created=created)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".snapshot-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def _parse_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"unparseable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("type") != SNAPSHOT_TYPE:
        raise SnapshotError("not a repro snapshot (bad type tag)")
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {header.get('version')!r} "
            f"!= supported {SNAPSHOT_VERSION}"
        )
    for count in ("templates", "feedback"):
        if not isinstance(header.get(count), int) or header[count] < 0:
            raise SnapshotError(f"header {count!r} count missing or invalid")
    if not isinstance(header.get("checksum"), str):
        raise SnapshotError("header checksum missing")
    return header


def _parse_template(obj: dict) -> TemplateEntry:
    try:
        key = _tuplize(obj["key"])
        plan = _unblob(obj["plan"], "plan")
        exact_key = _unblob(obj["exact_key"], "exact_key")
        return TemplateEntry(
            key=key,
            plan=plan,
            best_cost=float(obj["best_cost"]),
            estimated_card=float(obj["estimated_card"]),
            band_center=float(obj["band_center"]),
            exact_key=exact_key,
            tier=str(obj["tier"]),
            hits=int(obj["hits"]),
            drift_failures=int(obj["drift_failures"]),
            open=bool(obj["open"]),
            last_q=None if obj["last_q"] is None else float(obj["last_q"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed template entry: {exc!r}") from exc


def load_snapshot(path: str) -> Snapshot:
    """Read and validate a snapshot; :class:`SnapshotError` on any doubt.

    Validation order matters: the header is judged first (type, version,
    counts, checksum presence), then the payload checksum — so a
    truncated or bit-flipped file is rejected before a single blob is
    unpickled.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SnapshotError(f"unreadable snapshot: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise SnapshotError("empty snapshot file")
    header = _parse_header(lines[0])
    payload = lines[1:]
    expected = header["templates"] + header["feedback"]
    if len(payload) != expected:
        raise SnapshotError(
            f"truncated snapshot: {len(payload)} payload line(s), "
            f"header promises {expected}"
        )
    if _checksum(payload) != header["checksum"]:
        raise SnapshotError("checksum mismatch (corrupt snapshot)")
    snapshot = Snapshot(
        version=header["version"], created_unix=header["created_unix"]
    )
    for line in payload:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"unparseable entry: {exc}") from exc
        kind = obj.get("kind")
        if kind == "template":
            snapshot.templates.append(_parse_template(obj))
        elif kind == "feedback":
            key = _unblob(obj["key"], "feedback key")
            snapshot.feedback[key] = float(obj["value"])
        else:
            raise SnapshotError(f"unknown entry kind {kind!r}")
    return snapshot


def restore_snapshot(
    snapshot: Snapshot,
    cache: PlanTemplateCache | None,
    feedback: FeedbackCache | None,
) -> tuple[int, int]:
    """Warm ``cache`` and ``feedback`` from a decoded snapshot.

    Returns ``(templates_restored, feedback_restored)``.  Either target
    may be None (or at zero capacity) — the corresponding entries are
    simply skipped.
    """
    templates = (
        cache.restore(snapshot.templates) if cache is not None else 0
    )
    observations = (
        feedback.restore(snapshot.feedback) if feedback is not None else 0
    )
    return templates, observations


def inspect_snapshot(path: str) -> dict:
    """Validated summary of a snapshot file (the ``snapshot`` CLI)."""
    snapshot = load_snapshot(path)
    tiers: dict[str, int] = {}
    open_breakers = 0
    for entry in snapshot.templates:
        tiers[entry.tier] = tiers.get(entry.tier, 0) + 1
        if entry.open:
            open_breakers += 1
    return {
        "path": path,
        "version": snapshot.version,
        "created_unix": snapshot.created_unix,
        "age_seconds": max(0.0, time.time() - snapshot.created_unix),
        "templates": len(snapshot.templates),
        "feedback": len(snapshot.feedback),
        "tiers": tiers,
        "open_breakers": open_breakers,
    }


#: Fixed placeholders the golden-fixture test substitutes for the
#: run-varying fields (timestamps; pickle blobs, which are not
#: byte-stable across Python versions; the checksum, which covers them).
NORMALIZED_BLOB = "<blob>"
NORMALIZED_CHECKSUM = "<checksum>"
NORMALIZED_CREATED = 0.0


def normalize_snapshot_text(text: str) -> str:
    """Snapshot text with run-varying fields pinned to placeholders.

    What remains — the header schema, entry order, every field name and
    every structural value — is byte-stable, which is exactly what the
    golden fixture pins.
    """
    normalized: list[str] = []
    for index, line in enumerate(text.splitlines()):
        obj = json.loads(line)
        if index == 0:
            obj["checksum"] = NORMALIZED_CHECKSUM
            obj["created_unix"] = NORMALIZED_CREATED
        else:
            for blob_field in ("plan", "exact_key"):
                if blob_field in obj:
                    obj[blob_field] = NORMALIZED_BLOB
            if obj.get("kind") == "feedback":
                obj["key"] = NORMALIZED_BLOB
        normalized.append(_dump_line(obj))
    return "\n".join(normalized) + "\n"


__all__ = [
    "SNAPSHOT_TYPE",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "inspect_snapshot",
    "load_snapshot",
    "normalize_snapshot_text",
    "restore_snapshot",
    "save_snapshot",
    "snapshot_text",
]
