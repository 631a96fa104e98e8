"""Static validation of a STAR rule set.

The paper leaves this open: "we assume that the DBC specifies the STARs
correctly, i.e. without infinite cycles or meaningless sequences of
LOLEPOPs.  An open issue is how to verify that any given set of STARs is
correct" (section 5).  This module closes part of that gap with static
checks:

* every referenced name resolves to a STAR, Glue, a LOLEPOP, or a
  registry function;
* STAR references pass the right number of arguments;
* the STAR reference graph is acyclic (Glue's implicit re-reference of
  ``AccessRoot`` is included as an edge);
* every parameter referenced in a body is bound (a STAR parameter, a
  ``where`` binding, or a ∀ variable);
* a name that denotes both a STAR and a registry function is flagged
  (the engine resolves STARs first, which can silently shadow);
* an *exclusive* STAR (the paper's curly brace: first alternative whose
  condition holds is taken) whose final alternative is still conditional
  is flagged as a warning — when every condition is false the STAR
  produces nothing, which usually means the DBC forgot an ``OTHERWISE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuleError
from repro.plans.operators import LOLEPOPS
from repro.stars.ast import (
    Call,
    Compare,
    ForAll,
    Logical,
    Negate,
    Param,
    RuleExpr,
    RuleSet,
    SetExpr,
    SetLiteral,
    StarDef,
    StarRef,
    Term,
)
from repro.stars.engine import ACCESS_ROOT
from repro.stars.registry import FunctionRegistry


@dataclass
class ValidationReport:
    """Problems found in a rule set; ``errors`` make the set unusable,
    ``warnings`` are suspicious but legal."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise RuleError(
                "invalid rule set:\n" + "\n".join(f"  - {e}" for e in self.errors)
            )


def validate_rules(
    rules: RuleSet,
    registry: FunctionRegistry,
    raise_on_error: bool = False,
) -> ValidationReport:
    """Run all static checks over ``rules``."""
    report = ValidationReport()
    edges: dict[str, set[str]] = {star.name: set() for star in rules}
    uses_glue = False

    for star in rules:
        bound = set(star.params) | {name for name, _ in star.bindings}
        for name, expr in star.bindings:
            _check_expr(expr, star, bound, rules, registry, report, edges)
        for index, alt in enumerate(star.alternatives):
            where = f"{star.name} alternative {index + 1}"
            if alt.condition is not None:
                _check_expr(alt.condition, star, bound, rules, registry, report, edges)
            _check_term(alt.term, star, set(bound), rules, registry, report, edges)
        if star.name in registry.names():
            report.warnings.append(
                f"STAR {star.name} shadows registry function of the same name"
            )
        if star.exclusive:
            final = star.alternatives[-1]
            if not (final.otherwise or final.condition is None):
                report.warnings.append(
                    f"exclusive STAR {star.name} has no unconditional final "
                    f"alternative: when every condition is false it produces "
                    f"no plans (add an OTHERWISE or drop the last condition)"
                )
        for target in edges[star.name]:
            if target == "Glue":
                uses_glue = True

    # Glue implicitly references the top-most single-table STAR.
    if uses_glue and rules.has(ACCESS_ROOT):
        for star in rules:
            if "Glue" in edges[star.name]:
                edges[star.name].add(ACCESS_ROOT)
    for star_edges in edges.values():
        star_edges.discard("Glue")

    cycle = _find_cycle(edges)
    if cycle is not None:
        report.errors.append("cyclic STAR references: " + " -> ".join(cycle))

    if raise_on_error:
        report.raise_if_invalid()
    return report


# ---------------------------------------------------------------------------
# Walkers
# ---------------------------------------------------------------------------


def _check_term(
    term: Term | RuleExpr,
    star: StarDef,
    bound: set[str],
    rules: RuleSet,
    registry: FunctionRegistry,
    report: ValidationReport,
    edges: dict[str, set[str]],
) -> None:
    if isinstance(term, StarRef):
        _check_reference(term, star, bound, rules, registry, report, edges)
        return
    if isinstance(term, ForAll):
        _check_expr(term.set_expr, star, bound, rules, registry, report, edges)
        _check_term(term.term, star, bound | {term.var}, rules, registry, report, edges)
        return
    if isinstance(term, RuleExpr):
        _check_expr(term, star, bound, rules, registry, report, edges)
        return
    report.errors.append(f"{star.name}: unknown term node {type(term).__name__}")


def _check_reference(
    ref: StarRef,
    star: StarDef,
    bound: set[str],
    rules: RuleSet,
    registry: FunctionRegistry,
    report: ValidationReport,
    edges: dict[str, set[str]],
) -> None:
    name = ref.name
    if name == "Glue":
        edges[star.name].add("Glue")
    elif name in LOLEPOPS:
        spec = LOLEPOPS[name]
        if spec.flavors and ref.flavor is None and name == "JOIN":
            report.errors.append(f"{star.name}: JOIN reference without a flavor")
    elif rules.has(name):
        edges[star.name].add(name)
        expected = len(rules.get(name).params)
        if len(ref.args) != expected:
            report.errors.append(
                f"{star.name}: reference to {name} passes {len(ref.args)} "
                f"argument(s), expected {expected}"
            )
    else:
        report.errors.append(f"{star.name}: reference to undefined STAR {name!r}")
    for arg in ref.args:
        if isinstance(arg.value, (StarRef, ForAll)):
            _check_term(arg.value, star, bound, rules, registry, report, edges)
        else:
            _check_expr(arg.value, star, bound, rules, registry, report, edges)
        if arg.required is not None:
            for sub in (arg.required.order, arg.required.site, arg.required.paths):
                if sub is not None:
                    _check_expr(sub, star, bound, rules, registry, report, edges)


def _check_expr(
    expr: RuleExpr,
    star: StarDef,
    bound: set[str],
    rules: RuleSet,
    registry: FunctionRegistry,
    report: ValidationReport,
    edges: dict[str, set[str]],
) -> None:
    if isinstance(expr, Param):
        if expr.name not in bound:
            report.errors.append(f"{star.name}: unbound parameter {expr.name!r}")
        return
    if isinstance(expr, Call):
        if rules.has(expr.name):
            edges[star.name].add(expr.name)
            expected = len(rules.get(expr.name).params)
            if len(expr.args) != expected:
                report.errors.append(
                    f"{star.name}: reference to {expr.name} passes "
                    f"{len(expr.args)} argument(s), expected {expected}"
                )
        elif expr.name in LOLEPOPS or expr.name == "Glue":
            pass
        elif not registry.has(expr.name):
            report.errors.append(
                f"{star.name}: unknown function or STAR {expr.name!r}"
            )
        for arg in expr.args:
            _check_expr(arg, star, bound, rules, registry, report, edges)
        return
    if isinstance(expr, (SetExpr, Compare)):
        _check_expr(expr.left, star, bound, rules, registry, report, edges)
        _check_expr(expr.right, star, bound, rules, registry, report, edges)
        return
    if isinstance(expr, Logical):
        for part in expr.parts:
            _check_expr(part, star, bound, rules, registry, report, edges)
        return
    if isinstance(expr, Negate):
        _check_expr(expr.part, star, bound, rules, registry, report, edges)
        return
    if isinstance(expr, SetLiteral):
        for item in expr.items:
            _check_expr(item, star, bound, rules, registry, report, edges)
        return
    # Const and internal wrappers: check nested terms if present.
    term = getattr(expr, "term", None)
    if term is not None:
        _check_term(term, star, bound, rules, registry, report, edges)


def _find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """Return one cycle in the reference graph, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for target in sorted(edges.get(node, ())):
            if target not in color:
                continue
            if color[target] == GRAY:
                return stack[stack.index(target) :] + [target]
            if color[target] == WHITE:
                found = visit(target)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in edges:
        if color[node] == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None
