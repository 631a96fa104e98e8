"""Optimization budgets: bounded STAR expansion with anytime semantics.

An :class:`OptimizerBudget` is charged from the two hot counters of the
search — STAR references (:meth:`charge_expansion`, from
``StarEngine._expand_star``) and plan-table insertions
(:meth:`charge_plans`, from ``PlanTable.insert``) — plus a logical clock
(every charge is one tick) that stands in for a wall-clock deadline
without breaking determinism.

Exhaustion raises :class:`BudgetExhausted`.  The signal is deliberately
**not** a :class:`~repro.errors.ReproError`: the engine and Glue swallow
``ReproError`` per-plan (an infeasible LOLEPOP combination just skips
that combination), and a budget must cut through those handlers to reach
the optimizer's anytime recovery path.  During recovery the optimizer
re-enters the engine to assemble the best-so-far plan; :meth:`suspend`
makes charging a no-op for that window so assembly cannot re-trip the
exhausted budget.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


class BudgetExhausted(Exception):
    """Control-flow signal: the optimization budget ran out.

    Plain ``Exception`` on purpose — see the module docstring.  Carries
    the exhausted budget so the catcher can report what ran out.
    """

    def __init__(self, reason: str, budget: "OptimizerBudget"):
        super().__init__(reason)
        self.reason = reason
        self.budget = budget


@dataclass
class OptimizerBudget:
    """Bounds on one query optimization; ``None`` means unlimited.

    ``max_expansions`` caps STAR references, ``max_plans`` caps plans
    offered to the plan table, ``deadline_ticks`` caps the logical clock
    (one tick per charge of either kind).  A budget is passed to the
    call it bounds (``StarburstOptimizer.optimize(query, budget=...)``),
    which resets it first; afterwards it holds that call's consumption.
    """

    max_expansions: int | None = None
    max_plans: int | None = None
    deadline_ticks: int | None = None

    #: Consumed so far (reset by each ``optimize`` call it is passed to).
    expansions: int = field(default=0, init=False)
    plans: int = field(default=0, init=False)
    ticks: int = field(default=0, init=False)
    #: Why the budget ran out (None while within budget).
    exhausted_reason: str | None = field(default=None, init=False)
    _suspended: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        for name in ("max_expansions", "max_plans", "deadline_ticks"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1 (or None)")

    # -- lifecycle ----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self.exhausted_reason is not None

    @property
    def unlimited(self) -> bool:
        return (
            self.max_expansions is None
            and self.max_plans is None
            and self.deadline_ticks is None
        )

    def reset(self) -> None:
        """Fresh counters for a new optimization (same limits)."""
        self.expansions = 0
        self.plans = 0
        self.ticks = 0
        self.exhausted_reason = None
        self._suspended = False

    @contextmanager
    def suspend(self) -> Iterator[None]:
        """Charging becomes a no-op inside the block (anytime assembly)."""
        previous = self._suspended
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = previous

    # -- charge points ------------------------------------------------------

    def charge_expansion(self, what: str = "") -> None:
        """One STAR reference (charged by ``StarEngine._expand_star``)."""
        if self._suspended:
            return
        self.expansions += 1
        self.ticks += 1
        if self.max_expansions is not None and self.expansions > self.max_expansions:
            self._exhaust(
                f"expansion budget exhausted ({self.max_expansions} STAR "
                f"reference(s)){f' at {what}' if what else ''}"
            )
        self._check_deadline()

    def charge_plans(self, count: int) -> None:
        """``count`` plans offered to the plan table (``PlanTable.insert``)."""
        if self._suspended:
            return
        self.plans += count
        self.ticks += 1
        if self.max_plans is not None and self.plans > self.max_plans:
            self._exhaust(
                f"plan budget exhausted ({self.max_plans} plan(s) inserted)"
            )
        self._check_deadline()

    def _check_deadline(self) -> None:
        if self.deadline_ticks is not None and self.ticks > self.deadline_ticks:
            self._exhaust(
                f"deadline exhausted ({self.deadline_ticks} logical tick(s))"
            )

    def _exhaust(self, reason: str) -> None:
        if self.exhausted_reason is None:
            self.exhausted_reason = reason
        raise BudgetExhausted(reason, self)

    # -- reporting ----------------------------------------------------------

    def as_dict(self) -> dict[str, float]:
        """Flat metrics-schema summary of limits and consumption."""
        return {
            "max_expansions": float(self.max_expansions or 0),
            "max_plans": float(self.max_plans or 0),
            "deadline_ticks": float(self.deadline_ticks or 0),
            "expansions": float(self.expansions),
            "plans": float(self.plans),
            "ticks": float(self.ticks),
            "exhausted": float(self.exhausted),
        }

    def __str__(self) -> str:
        limits = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("expansions", self.max_expansions),
                ("plans", self.max_plans),
                ("ticks", self.deadline_ticks),
            )
            if value is not None
        )
        return f"OptimizerBudget({limits or 'unlimited'})"
