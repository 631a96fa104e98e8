"""repro — a reproduction of Lohman's STARs optimizer (SIGMOD 1988).

"Grammar-like Functional Rules for Representing Query Optimization
Alternatives" describes the Starburst rule-based optimizer: constructive,
grammar-like STrategy Alternative Rules (STARs) that compose low-level
database operators (LOLEPOPs) into query evaluation plans, property
vectors tracking what each plan produces, and a Glue mechanism that
injects veneer operators to satisfy required properties.

Quickstart::

    from repro import StarburstOptimizer, QueryExecutor
    from repro.workloads import paper_catalog, paper_database, figure1_query

    catalog = paper_catalog()
    database = paper_database(catalog)
    optimizer = StarburstOptimizer(catalog)
    result = optimizer.optimize(figure1_query(catalog))
    print(result.explain())
    rows = QueryExecutor(database).run(result.query, result.best_plan)

Package map (see DESIGN.md for the full inventory):

================  ==========================================================
``repro.stars``    the paper's contribution: rule AST, DSL, engine, Glue
``repro.plans``    LOLEPOPs, plan DAGs, property vectors, SAPs
``repro.cost``     property functions, cost model, selectivity
``repro.optimizer``  bottom-up join enumeration + public facade
``repro.executor``   the query evaluator (run-time LOLEPOP routines)
``repro.obs``      observability: tracing, metrics, EXPLAIN ANALYZE
``repro.serve``    optimizer-as-a-service: plan-template cache, admission
                   control, graceful degradation tiers, load generation
``repro.baseline``   EXODUS-style transformational optimizer (comparison)
``repro.catalog``    schemas, access paths, sites, statistics
``repro.storage``    heaps, B-trees, stored/temp tables
``repro.query``      expressions, predicates, SQL parser, query blocks
``repro.workloads``  the paper's EMP/DEPT scenario + synthetic generators
================  ==========================================================
"""

from repro.catalog import (
    AccessPath,
    Catalog,
    ColumnDef,
    ColumnStats,
    SiteDef,
    TableDef,
    TableStats,
)
from repro.config import OptimizerConfig
from repro.cost import Cost, CostModel, CostWeights
from repro.errors import (
    CardinalityViolation,
    CatalogError,
    ExecutionError,
    ExpansionError,
    GlueError,
    LinkError,
    NetworkError,
    OptimizationError,
    ParseError,
    QueryError,
    ReproError,
    RuleError,
    SiteUnavailableError,
    StorageError,
    TransientNetworkError,
)
from repro.executor import (
    ChaosConfig,
    ChaosEngine,
    ColumnBatch,
    QueryExecutor,
    RetryPolicy,
    SimClock,
    naive_evaluate,
)
from repro.obs import (
    AnalyzeReport,
    MetricsRegistry,
    TraceEvent,
    Tracer,
    explain_analyze,
    q_error,
    stats_snapshot,
)
from repro.optimizer import OptimizationResult, StarburstOptimizer
from repro.plans import PlanNode, PropertyVector, Requirements, SAP, Stream
from repro.plans.plan import render_functional, render_tree
from repro.query import QueryBlock, parse_predicate, parse_query
from repro.robust import (
    BudgetExhausted,
    CheckpointPolicy,
    ExecutionReport,
    FeedbackCache,
    OptimizerBudget,
    ResilientExecutor,
    heuristic_plan,
)
from repro.serve import (
    OptimizerService,
    PlanTemplateCache,
    Request,
    Response,
    ServiceConfig,
)
from repro.stars import StarEngine, parse_rules, validate_rules
from repro.stars.builtin_rules import default_rules, extended_rules
from repro.storage import Database
from repro.baseline import TransformationalOptimizer

__version__ = "1.0.0"

__all__ = [
    "AccessPath",
    "AnalyzeReport",
    "BudgetExhausted",
    "CardinalityViolation",
    "Catalog",
    "CatalogError",
    "CheckpointPolicy",
    "ChaosConfig",
    "ChaosEngine",
    "ColumnBatch",
    "ColumnDef",
    "ColumnStats",
    "Cost",
    "CostModel",
    "CostWeights",
    "Database",
    "ExecutionError",
    "ExecutionReport",
    "ExpansionError",
    "FeedbackCache",
    "GlueError",
    "LinkError",
    "MetricsRegistry",
    "NetworkError",
    "OptimizationError",
    "OptimizationResult",
    "OptimizerBudget",
    "OptimizerConfig",
    "OptimizerService",
    "ParseError",
    "PlanNode",
    "PlanTemplateCache",
    "PropertyVector",
    "QueryBlock",
    "QueryError",
    "QueryExecutor",
    "ReproError",
    "Request",
    "Requirements",
    "ResilientExecutor",
    "Response",
    "RetryPolicy",
    "ServiceConfig",
    "RuleError",
    "SAP",
    "SimClock",
    "SiteDef",
    "SiteUnavailableError",
    "StarEngine",
    "StarburstOptimizer",
    "StorageError",
    "Stream",
    "TableDef",
    "TableStats",
    "TraceEvent",
    "Tracer",
    "TransformationalOptimizer",
    "TransientNetworkError",
    "default_rules",
    "explain_analyze",
    "extended_rules",
    "heuristic_plan",
    "naive_evaluate",
    "parse_predicate",
    "parse_query",
    "parse_rules",
    "q_error",
    "render_functional",
    "render_tree",
    "stats_snapshot",
    "validate_rules",
    "__version__",
]
