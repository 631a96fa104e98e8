#!/usr/bin/env python3
"""A guided tour of one optimization, from rule text to executed plan.

Walks the paper's machinery step by step on a three-table query:

1. the rule DSL and what JMeth looks like as data;
2. STAR expansion of one JoinRoot reference, with the expansion trace;
3. the property vector of the winning plan at every node (Figure 2);
4. the plan table after bottom-up enumeration (shared fragments);
5. execution with actual-vs-estimated accounting.
"""

from repro import QueryExecutor, StarburstOptimizer, Tracer, parse_query
from repro.plans.plan import render_tree
from repro.workloads.paper import paper_catalog, paper_database, with_proj


def main() -> None:
    catalog = paper_catalog(dept_rows=30, emp_rows=800)
    database = paper_database(catalog)
    with_proj(catalog, database, proj_rows=400)
    query = parse_query(
        "SELECT NAME, TITLE FROM DEPT, EMP, PROJ "
        "WHERE DEPT.DNO = EMP.DNO AND EMP.ENO = PROJ.ENO AND MGR = 'Haas' "
        "ORDER BY NAME",
        catalog,
    )
    print(f"query: {query}\n")

    # 1. Rules are data.
    optimizer = StarburstOptimizer(catalog, tracer=Tracer())
    print("the JMeth STAR, as loaded from DSL text:")
    print(optimizer.rules.get("JMeth"))

    # 2-4. Optimize with tracing on.
    result = optimizer.optimize(query)
    print("\nexpansion trace (each line: STAR reference -> plans):")
    for line in result.engine.trace().splitlines()[:12]:
        print("  " + line)
    print(f"  ... ({len(result.engine.trace().splitlines())} lines total)")

    print("\nplan table contents (TABLES/PREDS equivalence classes):")
    for tables, preds in sorted(
        result.engine.plan_table.keys(), key=lambda k: (len(k[0]), sorted(k[0]))
    ):
        sap = result.engine.plan_table.lookup(tables, preds)
        print(f"  {{{', '.join(sorted(tables))}}} with {len(preds)} pred(s): "
              f"{len(sap)} surviving plan(s)")

    print("\nwinning plan with its Figure-2 property vector per node:")
    print(render_tree(result.best_plan, show_properties=True))
    for node in result.best_plan.nodes():
        props = node.props
        print(f"\n  {node.op}({node.flavor or ''}) ->")
        for line in props.describe().splitlines():
            print(f"    {line}")
        break  # root only; drop the break to dump every node

    # 5. Execute, compare estimate vs. actual.
    answer = QueryExecutor(database).run(query, result.best_plan)
    print(f"\nestimated cardinality {result.best_plan.props.card:.0f} "
          f"vs actual {len(answer)} rows")
    print(f"estimated IO {result.best_plan.props.cost.io:.0f} "
          f"vs actual {answer.stats.total_io} page touches")
    print(f"optimization took {result.elapsed_seconds * 1000:.1f} ms, "
          f"{result.stats.star_references} STAR references, "
          f"{result.stats.conditions_evaluated} condition evaluations")


if __name__ == "__main__":
    main()
