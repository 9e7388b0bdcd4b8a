"""Semantics of the package's record types: frozen fields, value equality
and hash where the fields are values, identity where they hold arrays."""

import copy
import pickle

import numpy as np
import pytest

from taylorlab.errors import ConfigError
from taylorlab.gmm import GmmSpec
from taylorlab.hac import HacConfig
from taylorlab.ols import RegressionSpec, Term, fit_ols
from taylorlab.records import is_integer
from taylorlab.report import CellDiff, GoldenCell, compare_golden, load_golden
from taylorlab.series import Quarter
from taylorlab.tables import baseline_spec


@pytest.mark.parametrize(
    "record,field",
    [
        (Quarter(1990, 1), "q"),
        (Term("s", 1), "lag"),
        (HacConfig(4), "bandwidth"),
        (RegressionSpec("it", ("inflation_gap",)), "sample"),
        (GoldenCell(1.0, 0.005, None), "expected"),
        (CellDiff("coef:C", 1.0, 1.0, True), "passed"),
    ],
    ids=["Quarter", "Term", "HacConfig", "RegressionSpec", "GoldenCell", "CellDiff"],
)
def test_fields_are_frozen(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 2)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


class TestQuarter:
    def test_total_order_on_year_then_quarter(self):
        a, b = Quarter(1999, 4), Quarter(2000, 1)
        assert a < b and a <= b and b > a and b >= a
        assert not (b < a or b <= a or a > b or a >= b)
        assert a <= Quarter(1999, 4) and a >= Quarter(1999, 4)
        assert a == Quarter(1999, 4) and a != b

    def test_sorts_like_year_quarter_pairs(self):
        pairs = [(2001, 3), (1999, 4), (2001, 1), (2000, 2), (1999, 1)]
        assert [(q.year, q.q) for q in sorted(Quarter(*p) for p in pairs)] == sorted(pairs)

    def test_hash_follows_value(self):
        assert hash(Quarter(2003, 1)) == hash(Quarter.parse("2003Q1"))
        assert len({Quarter(2003, 1), Quarter.parse("2003-Q1"), Quarter(2003, 2)}) == 2

    def test_order_with_other_types_raises(self):
        with pytest.raises(TypeError):
            Quarter(2000, 1) < (2000, 2)
        assert Quarter(2000, 1) != (2000, 1)

    def test_repr_names_fields(self):
        assert repr(Quarter(2000, 1)) == "Quarter(year=2000, q=1)"


def test_term_parse_equals_constructed_term():
    assert Term.parse("s") == Term("s", 0)
    assert hash(Term.parse("s")) == hash(Term("s", 0))
    assert Term.parse("s(-1)") != Term("s", 0)


def test_gmm_base_covariance_error_prints_hac_config():
    base = RegressionSpec("y", ("x",), covariance=HacConfig(bandwidth=2))
    with pytest.raises(ConfigError, match=r"HacConfig\(bandwidth=None\).*HacConfig\(bandwidth=2\)"):
        GmmSpec(base, ("z1", "z2"))


def test_value_records_equal_by_fields():
    spec = RegressionSpec("it", ("inflation_gap", "output_gap"), covariance=HacConfig())
    again = RegressionSpec("it", ("inflation_gap", "output_gap"), covariance=HacConfig())
    assert spec == again and hash(spec) == hash(again)
    assert spec != RegressionSpec("it", ("inflation_gap", "output_gap"))


def test_fits_compare_by_identity(us_data):
    spec = RegressionSpec("it", ("inflation_gap", "output_gap"))
    fit, fit2 = fit_ols(us_data, spec), fit_ols(us_data, spec)
    assert fit == fit
    assert fit != fit2
    assert np.array_equal(fit.coefficients, fit2.coefficients)
    assert len({fit, fit2}) == 2


class TestTupleRecords:
    """Golden cells and cell diffs are held as tuples but behave as records."""

    def test_equal_by_fields_never_to_a_plain_tuple(self):
        cell, fields = GoldenCell(1.0, 0.005, None), (1.0, 0.005, None)
        assert cell == GoldenCell(1.0, 0.005, None) and hash(cell) == hash(fields)
        assert cell != GoldenCell(1.0, 0.005, 0.01)
        assert not (cell == fields) and not (fields == cell)
        assert cell != fields and fields != cell
        assert CellDiff("a", 1.0, 1.0, True) != GoldenCell("a", 1.0, 1.0)
        assert len({cell, GoldenCell(1.0, 0.005, None), fields}) == 2

    def test_not_ordered(self):
        cell = GoldenCell(1.0, 0.005, None)
        for other in (cell, (1.0, 0.005, None)):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                with pytest.raises(TypeError):
                    getattr(cell, op)(other)
        with pytest.raises(TypeError):
            (0.0, 1.0, None) < cell

    def test_fields_by_name_and_repr(self):
        row = CellDiff("p:C", 0.25, 0.5, False)
        assert (row.label, row.observed, row.expected, row.passed) == ("p:C", 0.25, 0.5, False)
        assert repr(row) == "CellDiff(label='p:C', observed=0.25, expected=0.5, passed=False)"
        assert repr(GoldenCell(1.0, None, 0.01)) == (
            "GoldenCell(expected=1.0, abs_tol=None, rel_tol=0.01)"
        )
        with pytest.raises(AttributeError):
            row.extra = 1

    def test_copy_and_pickle_keep_class_and_fields(self):
        for record in (GoldenCell(1.0, 0.005, None), CellDiff("coef:C", 1.0, 1.0, True)):
            for again in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
                assert type(again) is type(record) and again == record

    def test_loaded_and_compared_records_equal_constructed_ones(self, us_data):
        table = load_golden(1)
        for cell in table.cells.values():
            assert type(cell) is GoldenCell
            assert cell == GoldenCell(cell.expected, cell.abs_tol, cell.rel_tol)
        diff = compare_golden(fit_ols(us_data, baseline_spec("us")), table)
        for row in diff.rows:
            assert row == CellDiff(row.label, row.observed, row.expected, row.passed)


def test_golden_table_compares_by_identity():
    table = load_golden(1)
    assert table == table and table != load_golden(1)
    assert load_golden(1).cells == table.cells


@pytest.mark.parametrize(
    "value,expected",
    [(3, True), (-1, True), (np.int64(3), True), (np.uint8(3), True),
     (True, False), (False, False), (np.True_, False), (3.0, False), ("3", False), (None, False)],
)
def test_is_integer_excludes_bool(value, expected):
    assert is_integer(value) is expected
