"""Unit tests for System-R-style selectivity estimation."""

import pytest

from repro.cost.selectivity import DEFAULT_EQ, DEFAULT_RANGE, Selectivity
from repro.query.expressions import ColumnRef, Literal
from repro.query.parser import parse_predicate
from repro.query.predicates import Comparison

T = ("DEPT", "EMP")


@pytest.fixture()
def sel(catalog):
    return Selectivity(catalog)


def pred(catalog, text):
    return parse_predicate(text, catalog, T)


class TestPointEstimates:
    def test_equality_uses_n_distinct(self, catalog, sel):
        # DEPT.MGR has 50 distinct values.
        assert sel.predicate(pred(catalog, "MGR = 'Haas'")) == pytest.approx(1 / 50)

    def test_inequality_complement(self, catalog, sel):
        assert sel.predicate(pred(catalog, "MGR <> 'Haas'")) == pytest.approx(1 - 1 / 50)

    def test_range_interpolation(self, catalog, sel):
        # EMP.ENO ranges over [0, 9999].
        assert sel.predicate(pred(catalog, "ENO < 2500")) == pytest.approx(0.25, rel=1e-3)
        assert sel.predicate(pred(catalog, "ENO >= 7500")) == pytest.approx(0.25, rel=1e-3)

    def test_range_default_without_stats(self, catalog, sel):
        # MGR is a string column: no numeric range, fall back to 1/3.
        assert sel.predicate(pred(catalog, "MGR < 'M'")) == pytest.approx(DEFAULT_RANGE)

    def test_join_equality_max_distinct(self, catalog, sel):
        # Both DNO columns have 100 distinct values.
        assert sel.predicate(pred(catalog, "DEPT.DNO = EMP.DNO")) == pytest.approx(1 / 100)

    def test_join_inequality_default(self, catalog, sel):
        assert sel.predicate(pred(catalog, "DEPT.DNO < EMP.DNO")) == pytest.approx(
            DEFAULT_RANGE
        )

    def test_selectivity_clamped_to_unit_interval(self, catalog, sel):
        assert 0 < sel.predicate(pred(catalog, "ENO < -50")) <= 1


class TestCompound:
    def test_conjunction_multiplies(self, catalog, sel):
        p = pred(catalog, "MGR = 'Haas' AND DEPT.DNO = 3")
        assert sel.predicate(p) == pytest.approx((1 / 50) * (1 / 100))

    def test_disjunction_inclusion_exclusion(self, catalog, sel):
        p = pred(catalog, "MGR = 'a' OR MGR = 'b'")
        s = 1 / 50
        assert sel.predicate(p) == pytest.approx(s + s - s * s)

    def test_negation(self, catalog, sel):
        p = pred(catalog, "NOT MGR = 'Haas'")
        assert sel.predicate(p) == pytest.approx(1 - 1 / 50)

    def test_conjunct_set_independence(self, catalog, sel):
        preds = [pred(catalog, "MGR = 'Haas'"), pred(catalog, "DEPT.DNO = 3")]
        assert sel.conjunct_set(preds) == pytest.approx((1 / 50) * (1 / 100))

    def test_conjunct_set_empty_is_one(self, sel):
        assert sel.conjunct_set([]) == 1.0


class TestSidewaysBinding:
    def test_join_pred_with_outer_bound_behaves_like_point(self, catalog, sel):
        p = pred(catalog, "DEPT.DNO = EMP.DNO")
        got = sel.predicate(p, bound_tables=frozenset({"DEPT"}))
        # EMP.DNO has 100 distinct values: probing one value selects 1%.
        assert got == pytest.approx(1 / 100)

    def test_bound_side_reversed(self, catalog, sel):
        p = pred(catalog, "DEPT.DNO = EMP.DNO")
        got = sel.predicate(p, bound_tables=frozenset({"EMP"}))
        assert got == pytest.approx(1 / 100)

    def test_expression_against_bound_outer(self, catalog, sel):
        p = pred(catalog, "EMP.DNO = DEPT.DNO + 1")
        got = sel.predicate(p, bound_tables=frozenset({"DEPT"}))
        assert got == pytest.approx(1 / 100)


class TestEstimatorErrors:
    """Only a *catalog* miss may fall back to a default estimate."""

    def test_unknown_column_falls_back_to_defaults(self, catalog, sel):
        ghost = ColumnRef("EMP", "GHOST")
        assert sel.predicate(Comparison("=", ghost, Literal(1))) == DEFAULT_EQ
        assert sel.predicate(Comparison("<", ghost, Literal(1))) == DEFAULT_RANGE

    @pytest.mark.parametrize("text", ["ENO = 5", "ENO < 2500"])
    def test_non_catalog_error_propagates(self, catalog, sel, monkeypatch, text):
        def broken(table, column):
            raise TypeError("unhashable memo key")

        monkeypatch.setattr(catalog, "column_stats", broken)
        with pytest.raises(TypeError, match="unhashable memo key"):
            sel.predicate(pred(catalog, text))
