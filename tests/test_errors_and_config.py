"""Tests for the error hierarchy, OptimizerConfig, and bench reporting."""

import pytest

from repro.bench import Table, banner, series
from repro.config import OptimizerConfig
from repro.errors import (
    CatalogError,
    ExecutionError,
    ExpansionError,
    GlueError,
    OptimizationError,
    ParseError,
    QueryError,
    ReproError,
    RuleError,
    StorageError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            CatalogError, ExecutionError, ExpansionError, GlueError,
            OptimizationError, ParseError, QueryError, RuleError, StorageError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_parse_error_is_query_error(self):
        assert issubclass(ParseError, QueryError)

    def test_parse_error_position_formatting(self):
        err = ParseError("bad token", line=3, column=7)
        assert "line 3" in str(err)
        assert err.line == 3 and err.column == 7

    def test_parse_error_without_position(self):
        err = ParseError("bad token")
        assert str(err) == "bad token"
        assert err.line is None

    def test_single_except_catches_everything(self):
        caught = []
        for exc_type in (CatalogError, GlueError, StorageError):
            try:
                raise exc_type("boom")
            except ReproError as exc:
                caught.append(exc)
        assert len(caught) == 3


class TestOptimizerConfig:
    def test_defaults(self):
        config = OptimizerConfig()
        assert config.glue_mode == "all"
        assert not config.cartesian_products
        assert config.composite_inners
        assert config.prune

    def test_with_options(self):
        config = OptimizerConfig().with_options(prune=False, max_depth=10)
        assert not config.prune and config.max_depth == 10
        assert OptimizerConfig().prune  # original untouched

    def test_bad_glue_mode_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(glue_mode="fastest")

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_depth=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            OptimizerConfig().prune = False  # type: ignore[misc]


class TestBenchReporting:
    def test_table_renders_aligned(self):
        table = Table(["name", "value"])
        table.add("alpha", 1)
        table.add("b", 123456.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        assert "123,456" in text

    def test_table_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_banner(self):
        text = banner("E1", "a claim")
        assert "E1" in text and "a claim" in text

    def test_series(self):
        text = series("work", [(2, 10), (3, 100)])
        assert text == "work: 2:10  3:100"

    def test_float_formatting(self):
        table = Table(["x"])
        table.add(0.0)
        table.add(3.14159)
        text = table.render()
        assert "0" in text and "3.14" in text
