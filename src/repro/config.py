"""Optimizer configuration.

Section 2.3 mentions compile-time parameters (e.g. whether Cartesian
products are considered, composite inners allowed); this object collects
them plus the engine knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """Knobs for the STAR engine, Glue, and the join enumerator.

    A config holds for every optimization of the optimizer it is given
    to; what one call steers by — a budget, the sites to plan around —
    is an argument of
    :meth:`~repro.optimizer.optimizer.StarburstOptimizer.optimize`."""

    #: Glue return mode (section 3.2 step 3): "either ... the cheapest
    #: plan satisfying the requirements or (optionally) all plans".
    glue_mode: str = "all"  # "all" | "cheapest"

    #: Consider Cartesian products between streams with no linking join
    #: predicate (section 2.3: off by default, as in System R and R*).
    cartesian_products: bool = False

    #: Allow composite inners — joins whose inner is itself a join result,
    #: e.g. (A*B)*(C*D) (section 2.3).
    composite_inners: bool = True

    #: Prune dominated plans in the plan table (System R interesting-
    #: property pruning generalized to the property vector).  This is
    #: hot-path layer 3: with it off, every insert keeps every plan, so
    #: downstream LOLEPOP maps and Glue veneers multiply over dominated
    #: alternatives that could never win.
    prune: bool = True

    #: Safety limit on STAR expansion depth (a DBC-authored rule cycle
    #: fails fast instead of recursing forever).
    max_depth: int = 64

    #: Evaluation-order control ([LEE 88] describes "a very general
    #: mechanism for controlling the order in which STARs are
    #: evaluated"): stop taking further alternatives of a STAR once this
    #: many plans have accumulated for one reference.  None = unlimited.
    #: Alternatives are tried in definition order, so a DBC orders the
    #: preferred strategies first and caps the search budget here.
    max_plans_per_reference: int | None = None

    #: Keep plans whose *site footprint* (every site any of their nodes
    #: executes at) is not a superset of a cheaper plan's footprint, even
    #: when dominated on cost and every physical property.  A plan that
    #: reads a replica at a different site is insurance against a site
    #: outage — retaining it is what makes the SAP useful for run-time
    #: failover.  Off by default: it weakens pruning, and purely local
    #: workloads gain nothing from it.
    retain_site_diversity: bool = False

    def with_options(self, **kwargs) -> "OptimizerConfig":
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.glue_mode not in ("all", "cheapest"):
            raise ValueError(f"bad glue_mode {self.glue_mode!r}")
        if self.max_depth < 2:
            raise ValueError("max_depth must be at least 2")
        if self.max_plans_per_reference is not None and self.max_plans_per_reference < 1:
            raise ValueError("max_plans_per_reference must be at least 1")
