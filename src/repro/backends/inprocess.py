"""The in-process engine exposed through the backend protocol.

``vectorized`` is :class:`~repro.executor.runtime.QueryExecutor` wrapped
so the :class:`~repro.backends.oracle.DifferentialOracle` and the CLI can
drive it like any compiling backend.  Its "compiled artifact" is the
rendered plan tree — an interpreter has no lower form — which keeps
``compile-plan`` meaningful for every registered backend name.
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import CompiledPlan
from repro.executor.runtime import QueryExecutor
from repro.plans.plan import PlanNode, render_tree
from repro.query.query import QueryBlock
from repro.storage.table import Database


class InProcessBackend:
    """The query evaluator behind the backend protocol; supports every
    valid plan."""

    name = "vectorized"
    language = "plan"

    def compile_plan(
        self, query: QueryBlock, plan: PlanNode, catalog: Any = None
    ) -> CompiledPlan:
        text = (
            f"-- repro {self.name} backend (interpreted; no lower form)\n"
            f"-- plan digest: {plan.digest}\n"
            f"-- query: {query}\n"
            f"{render_tree(plan)}\n"
        )
        return CompiledPlan(backend=self.name, language=self.language, text=text)

    def execute(self, query: QueryBlock, plan: PlanNode, database: Database) -> list[tuple]:
        return QueryExecutor(database).run(query, plan).rows

    def supports(self, query: QueryBlock, plan: PlanNode) -> bool:
        return True
