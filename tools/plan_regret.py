#!/usr/bin/env python3
"""Plan-choice regret: how much slower the chosen plan runs than the
fastest plan the optimizer could have chosen.

Runs the nine ``exec-scan`` and the nine ``exec-probe`` query classes of
the end-to-end benchmark — chain3, star3 (fact table 4x rows) and chain2
joins, each with no selection, ``R0.VAL < ~30`` and ``< ~70`` — at their
shapes, sizes, seeds and literals, on data built by
:func:`repro.workloads.synthesize`.

Per class:

1. The *chosen* plan is what the default optimizer returns.
2. The same query optimized with ``OptimizerConfig(prune=False)`` gives
   every alternative, ties and dominated plans included: pruning keeps
   one plan of two that estimate alike, so a search of the pruned set
   alone sees regret 1.00 everywhere.  Of those, the cheapest estimate
   per join-method and join-order signature (``HA(NL(R0,R1),R2)``) is
   kept, up to 3x the chosen plan's estimate; the chosen plan stands for
   its own signature.
3. Each kept plan runs best of 5 through
   ``QueryExecutor.run``.  Its rows must equal the chosen plan's as a
   multiset (``normalize_rows``); a mismatch is printed and the script
   exits 1.
4. It prints ``regret = time(chosen) / time(fastest)`` and the Kendall
   tau and Spearman rho (``scipy.stats``) between estimated total and
   measured time.

After the classes of a workload, one total line sums the chosen plans'
times and the fastest plans' times over its classes.

Usage::

    python tools/plan_regret.py                   # both workloads, seed 11
    python tools/plan_regret.py --workload exec-scan --seed 23
    python tools/plan_regret.py --smoke           # 1/10 of the rows

Timing is wall clock on whatever machine runs it.  Exit status 0 when
every plan returned the chosen plan's rows, 1 otherwise, 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from scipy.stats import kendalltau, spearmanr  # noqa: E402

from repro.backends.oracle import normalize_rows  # noqa: E402
from repro.config import OptimizerConfig  # noqa: E402
from repro.executor import QueryExecutor  # noqa: E402
from repro.optimizer import StarburstOptimizer  # noqa: E402
from repro.plans.plan import PlanNode  # noqa: E402
from repro.query.parser import parse_query  # noqa: E402
from repro.workloads import WorkloadSpec, synthesize  # noqa: E402

#: workload -> (rows of the chain3, star3 and chain2 databases, indexed
#: fraction of tables), as the end-to-end benchmark sizes them.
WORKLOADS = {
    "exec-scan": ((30000, 8000, 40000), 0.0),
    "exec-probe": ((8000, 2000, 10000), 1.0),
}
SHAPES = (("chain", 3), ("star", 3), ("chain", 2))
#: ``R0.VAL <`` thresholds (VAL is uniform on 0..99; None = no selection).
CENTERS = (None, 30, 70)
JITTER = 1
#: Plans estimated above this multiple of the chosen plan are not run.
CAP = 3.0
#: Runs per plan; the best is its time.
REPEATS = 5


def join_sql(shape: str, n_tables: int, selection: str) -> str:
    names = [f"R{i}" for i in range(n_tables)]
    if shape == "chain":
        conditions = [f"R{i - 1}.ID = R{i}.FK" for i in range(1, n_tables)]
    else:
        conditions = [f"R0.FK{i} = R{i}.ID" for i in range(1, n_tables)]
    if selection:
        conditions.append(selection)
    select = ", ".join(f"{name}.ID" for name in names)
    return (
        f"SELECT {select} FROM {', '.join(names)} "
        f"WHERE {' AND '.join(conditions)}"
    )


def classes(workload: str, seed: int, scale: int):
    """(label, WorkloadSpec, SQL) per class, in the benchmark's order and
    with its literals."""
    rows, index_fraction = WORKLOADS[workload]
    rng = random.Random(f"{workload}:literals:{seed}")
    for db, ((shape, n_tables), n_rows) in enumerate(zip(SHAPES, rows)):
        spec = WorkloadSpec(
            shape=shape, n_tables=n_tables, rows=n_rows // scale,
            index_fraction=index_fraction, seed=seed * 1000 + db,
        )
        for center in CENTERS:
            selection, label = "", f"{shape}{n_tables} none"
            if center is not None:
                literal = center + rng.randint(-JITTER, JITTER)
                selection, label = f"R0.VAL < {literal}", f"{shape}{n_tables} <{literal}"
            yield label, spec, join_sql(shape, n_tables, selection)


def signature(plan: PlanNode) -> str:
    """The plan's join methods and join order: ``HA(NL(R0,R1),R2)``; any
    subtree without a JOIN is its sorted tables."""
    if plan.op == "JOIN":
        return f"{plan.flavor}({','.join(signature(p) for p in plan.inputs)})"
    joins = [p for p in plan.inputs if _has_join(p)]
    if len(joins) == 1:
        return signature(joins[0])
    return "+".join(sorted(plan.props.tables))


def _has_join(plan: PlanNode) -> bool:
    return plan.op == "JOIN" or any(_has_join(p) for p in plan.inputs)


def candidates(catalog, query, chosen: PlanNode, chosen_est: float, model):
    """(signature, estimate, plan): the chosen plan, then the cheapest
    other signature up to ``CAP`` x its estimate, cheapest first."""
    unpruned = StarburstOptimizer(
        catalog, config=OptimizerConfig(prune=False)
    ).optimize(query)
    best: dict[str, tuple[float, PlanNode]] = {}
    for plan in unpruned.alternatives:
        est = model.total(plan.props.cost)
        if est > CAP * chosen_est:
            continue
        sig = signature(plan)
        if sig not in best or est < best[sig][0]:
            best[sig] = (est, plan)
    own = signature(chosen)
    best[own] = (chosen_est, chosen)
    ranked = sorted(best.items(), key=lambda item: (item[0] != own, item[1][0], item[0]))
    return [(sig, est, plan) for sig, (est, plan) in ranked]


def timed(database, query, plan: PlanNode) -> tuple[float, tuple]:
    """Best wall time of ``REPEATS`` runs (ms) and the normalized rows."""
    executor = QueryExecutor(database)
    times, rows = [], None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = executor.run(query, plan)
        times.append(time.perf_counter() - started)
        if rows is None:
            rows = normalize_rows(result.rows)
    return min(times) * 1000.0, rows


def measure(workload: str, seed: int, scale: int) -> bool:
    """Print one row per class; False if any plan's rows disagreed."""
    print(f"{workload}  seed {seed}  rows 1/{scale}  best of {REPEATS}  cap {CAP:g}x")
    print(
        f"  {'class':<12} {'plans':>5}  {'chosen (est, ms)':<34} "
        f"{'fastest (est, ms)':<34} {'regret':>6} {'tau':>6} {'rho':>6}"
    )
    agreed = True
    data = None
    chosen_ms = fastest_ms = 0.0
    for label, spec, sql in classes(workload, seed, scale):
        if data is None or data.spec != spec:  # a database's classes are adjacent
            data = None  # so the collection below frees the previous one
            gc.unfreeze()
            gc.collect()
            data = synthesize(spec)
            # As the benchmark harness does: a collection then walks only
            # what a plan run allocated, never the database.
            gc.collect()
            gc.freeze()
        query = parse_query(sql, data.catalog)
        result = StarburstOptimizer(data.catalog).optimize(query)
        model = result.engine.ctx.model
        chosen_est = result.best_cost
        runs = []
        reference = None
        for sig, est, plan in candidates(
            data.catalog, query, result.best_plan, chosen_est, model
        ):
            ms, rows = timed(data.database, query, plan)
            if reference is None:
                reference = rows
            elif rows != reference:
                agreed = False
                print(f"  MISMATCH {label}: {sig} returned {len(rows)} rows, "
                      f"chosen {len(reference)}")
            runs.append((sig, est, ms))
        chosen, fastest = runs[0], min(runs, key=lambda run: run[2])
        chosen_ms += chosen[2]
        fastest_ms += fastest[2]
        ests, times = [r[1] for r in runs], [r[2] for r in runs]
        tau = rho = float("nan")
        if len(runs) > 2:
            tau = kendalltau(ests, times).statistic
            rho = spearmanr(ests, times).statistic

        def shown(run):
            return f"{run[0]} {run[1]:.1f} {run[2]:.1f}"

        print(
            f"  {label:<12} {len(runs):>5}  {shown(chosen):<34} {shown(fastest):<34} "
            f"{chosen[2] / fastest[2]:>6.2f} {tau:>6.2f} {rho:>6.2f}",
            flush=True,
        )
    print(
        f"  {'total':<12} {'':>5}  {f'chosen {chosen_ms:.1f} ms':<34} "
        f"{f'fastest {fastest_ms:.1f} ms':<34} {chosen_ms / fastest_ms:>6.2f}",
        flush=True,
    )
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], default="all",
        help="which query classes to run (default: both workloads)",
    )
    parser.add_argument("--seed", type=int, default=11, help="benchmark seed")
    parser.add_argument(
        "--smoke", action="store_true",
        help="1/10 of the rows: a quick row-agreement check, not a timing",
    )
    args = parser.parse_args(argv)
    scale = 10 if args.smoke else 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    agreed = True
    for name in names:
        agreed = measure(name, args.seed, scale) and agreed
    if not agreed:
        print("error: a plan's rows differ from the chosen plan's")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
