#!/usr/bin/env python3
"""Metrics-name lint (run in CI as a required step).

The metric catalog in ``docs/observability.md`` is the contract between
the code and anyone building dashboards or alerts on the ``/metrics``
endpoint.  This lint keeps it honest, both directions:

1. **Coverage** — every metric name the code emits (literal first
   arguments to ``.inc`` / ``.set_gauge`` / ``.observe``, f-string names
   with the interpolated part wildcarded to ``*``, and every
   ``ingest(prefix=...)`` and every live source
   ``register("prefix", ...)`` as ``prefix*``) must be matched by a
   catalog entry.
2. **Staleness** — every catalog entry must still match at least one
   name the code emits; entries for deleted metrics fail the lint.

A ``prefix*`` family and a catalog entry match when either covers the
other, so a registered source may be documented field by field
(``serve.cache.hits``, ``serve.cache.misses``, …) or as one family row.
The field names a source emits are its ``as_dict`` keys, which this
static lint cannot see: ``tests/test_obs_metrics.py`` holds the names
of a registry that served requests to the same catalog.

Catalog entries are the backticked first column of the table rows in
the "Metric catalog" section; entries may use ``*`` wildcards
(``serve.tier.*``).  Exit status 0 when clean, 1 with one ``error:``
line per problem.
"""

from __future__ import annotations

import ast
import re
import sys
from fnmatch import fnmatchcase
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "observability.md"

#: Registry methods whose first argument is a metric name.
EMITTERS = ("inc", "set_gauge", "observe")

_CATALOG_ROW = re.compile(r"^\|\s*`([^`]+)`")


def _name_of(arg: ast.expr) -> str | None:
    """A literal or f-string metric name, f-string holes as ``*``."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        parts = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


def used_names() -> dict[str, list[str]]:
    """``{name_or_pattern: [file:line, ...]}`` for every emit site."""
    used: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "metrics.py":
            continue  # the registry itself: emits via caller-given names
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = str(path.relative_to(REPO))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            name = None
            if func.attr in EMITTERS and node.args:
                name = _name_of(node.args[0])
            elif func.attr == "ingest":
                for keyword in node.keywords:
                    if keyword.arg == "prefix":
                        prefix = _name_of(keyword.value)
                        if prefix is not None:
                            name = prefix + "*"
            elif func.attr == "register" and len(node.args) >= 2:
                # metrics.register("prefix.", read, gauges=...): a live
                # source (the STAR function registry takes a non-literal).
                prefix = _name_of(node.args[0])
                if prefix is not None:
                    name = prefix + "*"
            if name is not None:
                used.setdefault(name, []).append(f"{rel}:{node.lineno}")
    return used


def catalog_entries() -> dict[str, int]:
    """``{pattern: line}`` from the Metric catalog table in the doc."""
    if not DOC.exists():
        return {}
    entries: dict[str, int] = {}
    in_section = False
    for lineno, line in enumerate(DOC.read_text().splitlines(), start=1):
        if line.startswith("## "):
            in_section = "metric catalog" in line.lower()
            continue
        if not in_section:
            continue
        match = _CATALOG_ROW.match(line)
        if match and match.group(1) not in ("name", "metric"):
            entries[match.group(1)] = lineno
    return entries


def _matches(name: str, pattern: str) -> bool:
    """Whether an emitted name (or ``prefix*`` family) and a catalog
    entry cover one another."""
    return (
        name == pattern
        or fnmatchcase(name, pattern)
        or fnmatchcase(pattern, name)
    )


def main() -> int:
    used = used_names()
    entries = catalog_entries()
    errors: list[str] = []
    if not entries:
        errors.append(
            f"error: no metric catalog found in {DOC.relative_to(REPO)} "
            "(expected a '## Metric catalog' section with a table)"
        )
    for name, sites in sorted(used.items()):
        if not any(_matches(name, pattern) for pattern in entries):
            errors.append(
                f"error: metric {name!r} (emitted at {sites[0]}) is not "
                f"documented in {DOC.relative_to(REPO)}"
            )
    for pattern, lineno in sorted(entries.items()):
        if not any(_matches(name, pattern) for name in used):
            errors.append(
                f"error: catalog entry {pattern!r} "
                f"({DOC.relative_to(REPO)}:{lineno}) matches no metric "
                "emitted by the code"
            )
    for line in errors:
        print(line, file=sys.stderr)
    if not errors:
        print(
            f"metrics lint: {len(used)} emitted name(s)/pattern(s) covered "
            f"by {len(entries)} catalog entr(ies)"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
