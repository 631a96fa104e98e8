"""E3 / Figure 3 — the Glue mechanism.

Claim reproduced: given three pre-existing plans for DEPT (stored at
N.Y.) and the requirement [site = L.A., order = DNO], Glue injects the
veneers Figure 3 draws — SHIP onto the already-sorted plan, SORT+SHIP
onto the plain ACCESS, SORT onto the already-shipped plan — and returns
the cheapest satisfying plan.
"""

from repro.bench import Table, banner
from repro.plans.plan import render_functional
from repro.plans.properties import requirements
from repro.plans.sap import SAP
from repro.query.expressions import ColumnRef
from repro.stars.builtin_rules import default_rules
from repro.stars.engine import StarEngine
from repro.stars.glue import glue
from repro.workloads.paper import figure1_query, paper_catalog, paper_database

DNO = ColumnRef("DEPT", "DNO")
MGR = ColumnRef("DEPT", "MGR")


def run_experiment() -> str:
    catalog = paper_catalog(distributed=True)
    paper_database(catalog)
    query = figure1_query(catalog)
    engine = StarEngine(default_rules(), catalog, query)
    factory = engine.ctx.factory
    model = engine.ctx.model

    base = factory.access_base("DEPT", {DNO, MGR}, set())
    available = {
        "plan 1: SORT(ACCESS(DEPT)) at N.Y.": factory.sort(base, (DNO,)),
        "plan 2: ACCESS(DEPT) at N.Y.": base,
        "plan 3: SHIP(ACCESS(DEPT)) at L.A.": factory.ship(base, "L.A."),
    }
    req = requirements(order=[DNO], site="L.A.")

    table = Table(["available plan", "meets req?", "Glue veneer", "augmented cost"])
    augmented = {}
    for label, plan in available.items():
        best = glue(engine, SAP([plan]), req).cheapest(model)
        augmented[label] = best
        veneer_ops = []
        node = best
        while node is not plan and node.inputs:
            veneer_ops.append(node.op)
            node = node.inputs[0]
        table.add(
            label,
            plan.props.satisfies(req),
            "∘".join(veneer_ops) or "(none)",
            model.total(best.props.cost),
        )

    # Now let Glue see all three at once and choose the cheapest.
    winner = glue(engine, SAP(available.values()), req).cheapest(model)
    winner_cost = model.total(winner.props.cost)
    expected = min(model.total(p.props.cost) for p in augmented.values())

    lines = [
        banner(
            "E3 / Figure 3 — Glue injecting veneer operators",
            "Requirement [site=L.A., order=DNO] on DEPT stored at N.Y.",
        ),
        str(table),
        "",
        f"Glue's choice over all three plans (cheapest): cost {winner_cost:.2f}",
        "  " + render_functional(winner),
        "",
        f"RESULT: {'CHEAPEST CHOSEN' if abs(winner_cost - expected) < 1e-9 else 'WRONG CHOICE'} "
        f"(expected {expected:.2f})",
    ]
    return "\n".join(lines)


def test_e3_figure3_glue(benchmark, report):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert "CHEAPEST CHOSEN" in text
    report(text)
