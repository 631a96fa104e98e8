"""Every workload of the end-to-end benchmark, untraced and traced.

    python3 benchmarks/e2e/suite.py [--workload NAME]... [--seed N]
        [--seconds S] [--smoke] [--out FILE]

Each workload runs twice through ``run.py`` in a process of its own:
once untraced for the end-to-end metrics, once traced for the per-layer
metrics, the self-time table and the Chrome trace.  The result file
holds both, plus the input and plan digests, and is what ``compare.py``
reads.  ``--smoke`` runs everything at about a tenth of the size and
then checks the result file and ``BENCHMARK.json`` against the metric
catalogue.  No gain is claimed here: ``"claim": null``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_one(workload: str, trace: int, args, out_dir: Path) -> dict:
    out = out_dir / f"run-{workload}-trace{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    if trace:
        command += ["--trace-out", str(out_dir / f"trace-{workload}.json")]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    # Everything but the machine-readable last line.
    print(done.stdout.rsplit("\n", 2)[0])
    if done.returncode != 0:
        raise SystemExit(f"suite.py: {workload} --trace {trace} exited {done.returncode}")
    return json.loads(out.read_text())


def values(run: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in run["metrics"].items()}


def check_result(result: dict) -> list[str]:
    """The ``--smoke`` lint: the result file and ``BENCHMARK.json`` say
    what the metric catalogue says, within the contract's limits."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, catalogue, limit in (
        ("end_to_end", END_TO_END, 16), ("per_layer", PER_LAYER, 128),
    ):
        if len(catalogue) > limit:
            problems.append(f"{len(catalogue)} {key} metrics (limit {limit})")
        expected = []
        for metric in catalogue:
            if not NAME.fullmatch(metric.name):
                problems.append(f"bad metric name {metric.name!r}")
            if not metric.unit or metric.better not in ("lower", "higher"):
                problems.append(f"{metric.name}: unit and direction are required")
            row = {"name": metric.name, "unit": metric.unit, "better": metric.better}
            if key == "end_to_end":
                if not (metric.bound and 0 < metric.bound <= 0.25):
                    problems.append(f"{metric.name}: end-to-end metrics need a bound <= 0.25")
                row["bound"] = metric.bound
            expected.append(row)
        if declared[key] != expected:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    names = [w["name"] for w in declared["workloads"]]
    if not 2 <= len(names) <= 8 or sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    if result["claim"] is not None:
        problems.append("a benchmark-defining change claims no gain")
    for name, entry in result["workloads"].items():
        if not NAME.fullmatch(name):
            problems.append(f"bad workload name {name!r}")
        for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            if list(entry[key]) != [m.name for m in catalogue]:
                problems.append(f"{name}: {key} metrics differ from the catalogue")
        if entry["failed"] or not entry["attempted"]:
            problems.append(f"{name}: {entry['failed']} of {entry['attempted']} ops failed")
        for metric in END_TO_END:
            if not entry["end_to_end"].get(metric.name, 0) > 0:
                problems.append(f"{name}: {metric.name} is not positive")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else 15.0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result = {
        "benchmark": "e2e", "claim": None, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        plain = run_one(workload, 0, args, out_dir)
        traced = run_one(workload, 1, args, out_dir)
        result["workloads"][workload] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failures": plain["failures"] + traced["failures"],
            "end_to_end": values(plain),
            "per_layer": values(traced),
            "info": {**plain["info"], **traced["info"]},
        }
    out = args.out or out_dir / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    failed = sum(w["failed"] for w in result["workloads"].values())
    if failed:
        print(f"suite.py: {failed} op(s) failed")
        return 1
    if args.smoke and not args.workload:
        problems = check_result(result)
        for problem in problems:
            print(f"smoke: {problem}")
        print(f"smoke: {'FAILED' if problems else 'ok'}")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
