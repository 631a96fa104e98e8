"""One run of one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` reruns the workload with this benchmark's boundary spans
and ``repro.obs.Tracer`` and reports the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard
output is the JSON object ``BENCHMARK.json``'s contract asks for.  The
exit code is 0 when the run completed (failed ops are reported in the
JSON, not by the exit code) and non-zero when it could not run at all.

The run is a process of its own with ``PYTHONHASHSEED=0``: set and
frozenset iteration order feeds plan enumeration, and the ``[exact]``
counters have to repeat bit for bit.  ``suite.py`` runs every workload
this way and writes the result file ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about a tenth of the size, one set-up")
    parser.add_argument("--out", type=Path,
                        help="also write the run (metrics, info, failures) as JSON here")
    parser.add_argument("--trace-out", type=Path,
                        help="--trace 1: write the boundary spans as Chrome trace_event JSON here")
    return parser.parse_args(argv)


def print_metrics(run, declared) -> None:
    for metric in declared:
        value = run.metrics[metric.name]
        print(f"{metric.name:<34} {value:>16.6g} {metric.unit}")
    for key, value in run.info.items():
        print(f"{key:<34} {value}")
    for failure in run.failures:
        print(f"FAILED: {failure}")


def print_self_times(recorder) -> None:
    print(f"{'span':<22} {'count':>8} {'total_s':>10} {'self_s':>10}")
    for name, (count, total, own) in sorted(recorder.self_times().items()):
        print(f"{name:<22} {count:>8} {total:>10.4f} {own:>10.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} clients {workload.clients} (closed loop)")
    if args.trace:
        run = harness.run_traced(workload, args.seconds)
        declared = PER_LAYER
        print_self_times(run.recorder)
        if args.trace_out:
            args.trace_out.write_text(json.dumps(run.recorder.to_chrome()))
    else:
        repeats = 1 if args.smoke else harness.SETUP_REPEATS
        run = harness.run_end_to_end(workload, args.seconds, repeats)
        declared = END_TO_END
    print_metrics(run, declared)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m.name: {"value": run.metrics[m.name], "unit": m.unit} for m in declared
        },
    }
    if args.out:
        args.out.write_text(json.dumps(
            {**result, "info": run.info, "failures": run.failures}, indent=1
        ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
