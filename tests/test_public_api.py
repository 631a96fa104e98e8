"""Tests of the public API surface: everything exported exists, is
documented, and the documented quickstart actually runs."""

import importlib
import inspect
import pkgutil

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_alls_resolve(self):
        for pkg_name in (
            "repro.catalog", "repro.storage", "repro.query", "repro.plans",
            "repro.cost", "repro.stars", "repro.optimizer", "repro.executor",
            "repro.baseline", "repro.workloads", "repro.bench",
        ):
            module = importlib.import_module(pkg_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{pkg_name}.{name}"


class TestOneEvaluator:
    def test_nothing_selects_an_engine(self):
        """``QueryExecutor`` is the batch engine: no layer takes an
        ``executor`` name, and the backend registry holds the engine and
        the SQL pair only (tests that register more clean up after
        themselves)."""
        import repro.backends
        from repro import (
            AdaptiveExecutor,
            QueryExecutor,
            ResilientExecutor,
            explain_analyze,
        )

        for api in (QueryExecutor, ResilientExecutor, AdaptiveExecutor, explain_analyze):
            assert "executor" not in inspect.signature(api).parameters, api
        assert repro.backends.backend_names() == ("sql", "sqlite", "vectorized")
        assert not hasattr(repro.backends, "pyloop")
        assert not hasattr(repro.backends, "PyLoopBackend")

    def test_nothing_selects_a_layer(self):
        """The STAR memo, the plan interner, serving telemetry and an
        attached tracer have no off switch: "no tracing" is ``None`` and
        each telemetry feature has its own zero.  (What runs without the
        memo and the interner is ``tests/reference_layers.py``.)"""
        import dataclasses

        import repro.obs
        from repro import OptimizerConfig, Tracer
        from repro.obs import TelemetryConfig

        config_fields = {f.name for f in dataclasses.fields(OptimizerConfig)}
        assert not config_fields & {"memo_stars", "intern_plans"}
        telemetry_fields = {f.name for f in dataclasses.fields(TelemetryConfig)}
        assert "enabled" not in telemetry_fields
        assert not hasattr(TelemetryConfig, "disabled")
        assert "enabled" not in inspect.signature(Tracer).parameters
        assert not hasattr(Tracer, "disabled")
        for package in (repro, repro.obs):
            for name in ("active_tracer", "Observability"):
                assert not hasattr(package, name), (package.__name__, name)


class TestDocstrings:
    def test_every_module_documented(self):
        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"undocumented modules: {missing}"

    def test_every_public_export_documented(self):
        missing = []
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (inspect.getdoc(obj) or "").strip():
                    missing.append(name)
        assert not missing, f"undocumented exports: {missing}"

    def test_public_methods_of_key_classes_documented(self):
        from repro import Catalog, QueryExecutor, StarburstOptimizer, StarEngine

        missing = []
        for cls in (Catalog, StarburstOptimizer, StarEngine, QueryExecutor):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                if not (inspect.getdoc(member) or "").strip():
                    missing.append(f"{cls.__name__}.{name}")
        assert not missing, f"undocumented methods: {missing}"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        from repro import StarburstOptimizer, QueryExecutor, render_tree
        from repro.workloads import paper_catalog, paper_database

        catalog = paper_catalog()
        database = paper_database(catalog)
        optimizer = StarburstOptimizer(catalog)
        result = optimizer.optimize(
            "SELECT NAME, ADDRESS, MGR FROM DEPT, EMP "
            "WHERE DEPT.DNO = EMP.DNO AND MGR = 'Haas'"
        )
        assert render_tree(result.best_plan, show_properties=True)
        rows = QueryExecutor(database).run(result.query, result.best_plan)
        assert rows.stats.total_io > 0
        assert len(rows) > 0

    def test_readme_hash_join_snippet_runs(self):
        from repro import StarburstOptimizer, default_rules, parse_rules
        from repro.workloads import paper_catalog, paper_database

        catalog = paper_catalog()
        paper_database(catalog)
        rules = default_rules()
        parse_rules(
            """
            extend JMeth {
                where HP = hashable_preds(P, T1, T2);
                alt if HP != {} -> JOIN(HA, Glue(T1, {}), Glue(T2, IP), HP, P - IP);
            }
            """,
            base=rules,
        )
        optimizer = StarburstOptimizer(catalog, rules=rules)
        result = optimizer.optimize(
            "SELECT NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO"
        )
        assert result.best_plan is not None
