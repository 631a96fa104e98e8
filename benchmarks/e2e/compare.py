"""Compare two result files of ``suite.py``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, B/A and the
bound B may be worse by.  ``[exact]`` per-layer counts and the input and
plan digests must be identical, and no op may have failed on either
side.  Exit code 1 when anything is beyond its bound.  Used on two runs
of one commit to show the benchmark repeats, and later on a parent and a
change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, PER_LAYER  # noqa: E402


def worsening(metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if not a:
        return 0.0
    return (b - a) / a if metric.better == "lower" else (a - b) / a


def compare(a: dict, b: dict) -> list[str]:
    problems = []
    for key in ("seed", "seconds", "smoke"):
        if a[key] != b[key]:
            problems.append(f"{key} differs: {a[key]} vs {b[key]}")
    print(f"{'workload':<12} {'metric':<12} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            va, vb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            worse = worsening(metric, va, vb)
            verdict = "" if worse <= metric.bound else "  WORSE"
            print(f"{name:<12} {metric.name:<12} {va:>12.5g} {vb:>12.5g} "
                  f"{vb / va if va else 0:>7.3f} {metric.bound:>6.2f}{verdict}")
            if verdict:
                problems.append(
                    f"{name}: {metric.name} is {worse:.1%} worse (bound {metric.bound:.0%})"
                )
        for side, entry in (("A", wa), ("B", wb)):
            if entry["failed"]:
                problems.append(
                    f"{name}: {entry['failed']} of {entry['attempted']} ops failed in {side}"
                )
        for metric in PER_LAYER:
            if metric.exact and wa["per_layer"][metric.name] != wb["per_layer"][metric.name]:
                problems.append(
                    f"{name}: [exact] {metric.name} differs: "
                    f"{wa['per_layer'][metric.name]} vs {wb['per_layer'][metric.name]}"
                )
        for key in sorted(set(wa["info"]) | set(wb["info"])):
            if wa["info"].get(key) != wb["info"].get(key):
                problems.append(f"{name}: {key} differs")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    problems = compare(a, b)
    for problem in problems:
        print(f"DIFF: {problem}")
    print("compare: " + ("FAILED" if problems else "ok (exact counters and digests identical)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
