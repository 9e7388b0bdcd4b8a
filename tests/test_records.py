"""Semantics of the package's record types: frozen fields, value equality
and hash where the fields are values, identity where they hold arrays."""

import numpy as np
import pytest

from taylorlab.errors import ConfigError
from taylorlab.gmm import GmmSpec
from taylorlab.hac import HacConfig
from taylorlab.ols import RegressionSpec, Term, fit_ols
from taylorlab.records import is_integer
from taylorlab.report import GoldenCell, load_golden
from taylorlab.series import Quarter


@pytest.mark.parametrize(
    "record,field",
    [
        (Quarter(1990, 1), "q"),
        (Term("s", 1), "lag"),
        (HacConfig(4), "bandwidth"),
        (RegressionSpec("it", ("inflation_gap",)), "sample"),
        (GoldenCell(1.0, 0.005, None), "expected"),
    ],
    ids=["Quarter", "Term", "HacConfig", "RegressionSpec", "GoldenCell"],
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
