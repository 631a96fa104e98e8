#!/usr/bin/env python3
"""Alternating parent / change pairs of the end-to-end benchmark.

Runs ``benchmarks/e2e/run.py`` from two source trees, one workload at a
time, in N pairs whose first side alternates (pair 1 parent first, pair 2
change first, ...), so that drift of a shared machine falls on both sides
alike.  Each run is a process of its own with the tree's own ``src/``.
Per end-to-end metric of ``BENCHMARK.json`` it prints:

* the parent's and the change's median and quartiles (Q1-Q3);
* the ratio of the medians (change / parent);
* in how many pairs the change was better, and the median of the
  per-pair ratios — on a noisy workload the unpaired medians of ten runs
  can read a 20 % change where the pairs read none;
* ``bound``: whether the change's median is no worse than the parent's
  by more than the metric's bound;
* ``gain``: whether a gain would stand — the change better in at least
  nine of ten pairs, and its median better than the parent's by more than
  the parent's interquartile range.

Usage::

    python tools/e2e_pairs.py --parent ../parent --change . --workload opt-deep
    python tools/e2e_pairs.py --parent A --change B --workload opt-deep \\
        --workload serve-churn --seed 23 --pairs 10 --seconds 15 --json pairs.json
    python tools/e2e_pairs.py --smoke   # this tree against itself, tiny runs

Each tree must hold ``benchmarks/e2e/run.py`` and ``src/repro``; the
metric catalogue is the change tree's ``BENCHMARK.json``.  Exit status 0
when every run completed and no op failed, 1 otherwise, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="source tree of the parent")
    parser.add_argument("--change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append",
                        help="workload to pair (repeatable; default: every one)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--json", type=Path, help="also write every run here")
    parser.add_argument("--smoke", action="store_true",
                        help="pair this tree with itself: two pairs of opt-deep "
                             "at run.py --smoke, one second each")
    args = parser.parse_args(argv)
    if args.smoke:
        args.parent = args.parent or ROOT
        args.change = args.change or ROOT
        args.workload = args.workload or ["opt-deep"]
        args.pairs, args.seconds = 2, 1.0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required (or --smoke)")
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    for tree in (args.parent, args.change):
        if not (tree / "benchmarks" / "e2e" / "run.py").is_file():
            parser.error(f"{tree} holds no benchmarks/e2e/run.py")
    return args


def run_once(tree: Path, workload: str, args) -> dict:
    """One ``run.py --trace 0`` in ``tree``: its JSON result line."""
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=900
    )
    if done.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {done.returncode}"}
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pair wins and the two verdicts of one metric."""
    lower = metric["better"] == "lower"
    p_q, c_q = quartiles(parent), quartiles(change)
    ratios = [c / p for p, c in zip(parent, change) if p]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = c_q[1] / p_q[1] if p_q[1] else math.nan
    worse = ratio - 1.0 if lower else 1.0 - ratio
    gap = (p_q[1] - c_q[1]) if lower else (c_q[1] - p_q[1])
    return {
        "parent": p_q, "change": c_q, "ratio": ratio, "wins": wins,
        "pairs": len(parent),
        "paired_ratio": statistics.median(ratios) if ratios else math.nan,
        "parent_iqr": (p_q[2] - p_q[0]) / p_q[1] if p_q[1] else math.nan,
        "within_bound": not worse > metric["bound"],
        "gain": wins * 10 >= 9 * len(parent) and gap > p_q[2] - p_q[0],
    }


def report(workload: str, verdicts: dict) -> None:
    print(f"\n{workload}")
    print(f"{'metric':<13} {'parent median [Q1-Q3]':>28} {'change median [Q1-Q3]':>28}"
          f" {'ratio':>6} {'wins':>6} {'paired':>7} {'IQR/med':>7} {'bound':>6} {'gain':>5}")
    for name, v in verdicts.items():
        p, c = (f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]" for q in (v["parent"], v["change"]))
        print(f"{name:<13} {p:>28} {c:>28} {v['ratio']:>6.3f}"
              f" {v['wins']:>3}/{v['pairs']:<2} {v['paired_ratio']:>7.3f}"
              f" {v['parent_iqr']:>7.3f} {'ok' if v['within_bound'] else 'OVER':>6}"
              f" {'yes' if v['gain'] else 'no':>5}")


def main(argv=None) -> int:
    args = parse_args(argv)
    catalogue = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = catalogue["end_to_end"]
    workloads = args.workload or [w["name"] for w in catalogue["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ok, record = True, {}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        complete = True
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], workload, args)
                runs[side].append(run)
                if not run["correct"] or run["failed"]:
                    complete = False
                    print(f"{workload} pair {pair + 1} {side}: "
                          f"{run.get('error') or str(run['failed']) + ' failed ops'}",
                          file=sys.stderr)
        if not complete:
            ok = False
            record[workload] = {"runs": runs}
            continue
        verdicts = {
            m["name"]: judge(
                m,
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
            )
            for m in metrics
        }
        report(workload, verdicts)
        record[workload] = {"runs": runs, "verdicts": verdicts}
    if args.json:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
             "workloads": record}, indent=1
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
