"""STARs: STrategy Alternative Rules — the paper's core contribution.

This package implements:

* the rule AST (:mod:`repro.stars.ast`): named, parametrized STARs with
  inclusive/exclusive alternative definitions, conditions of
  applicability, ∀-clauses, and required-property annotations;
* the textual rule DSL (:mod:`repro.stars.dsl`) so that strategies are
  *data*, not optimizer code (paper sections 1 and 5);
* the condition/argument function registry
  (:mod:`repro.stars.registry`) — the paper's "C functions" for
  conditions, linked to rules by name;
* the STAR interpreter (:mod:`repro.stars.engine`) — macro-expander-like
  expansion with memoization and instrumentation [LEE 88];
* Glue (:mod:`repro.stars.glue`) — impedance matching between available
  and required properties by injecting veneer operators (section 3.2);
* the hashed plan table (:mod:`repro.stars.plantable`);
* the paper's complete rule set (:mod:`repro.stars.builtin_rules`),
  written in the DSL;
* a rule-set validator (:mod:`repro.stars.validate`) addressing the
  paper's open issue "how to verify that any given set of STARs is
  correct".
"""

from repro.stars.ast import (
    Alternative,
    Call,
    Compare,
    Const,
    ForAll,
    Logical,
    Negate,
    Param,
    RequiredSpec,
    RuleSet,
    SetExpr,
    StarDef,
    StarRef,
)
from repro.stars.dsl import parse_rules
from repro.stars.engine import ExpansionStats, RuleContext, StarEngine
from repro.stars.glue import Glue
from repro.stars.plantable import PlanTable
from repro.stars.registry import FunctionRegistry, default_registry, rule_function
from repro.stars.validate import validate_rules

__all__ = [
    "Alternative",
    "Call",
    "Compare",
    "Const",
    "ExpansionStats",
    "ForAll",
    "FunctionRegistry",
    "Glue",
    "Logical",
    "Negate",
    "Param",
    "PlanTable",
    "RequiredSpec",
    "RuleContext",
    "RuleSet",
    "SetExpr",
    "StarDef",
    "StarEngine",
    "StarRef",
    "default_registry",
    "parse_rules",
    "rule_function",
    "validate_rules",
]
