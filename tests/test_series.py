import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taylorlab.errors import DomainError, SampleError
from taylorlab.series import (
    Dataset, Quarter, Series, align_sample, common_span, lag, natural_log,
)


class TestQuarter:
    def test_ordering_is_lexicographic(self):
        assert Quarter(1990, 4) < Quarter(1991, 1)
        assert Quarter(1991, 1) < Quarter(1991, 2)
        assert Quarter(2000, 3) == Quarter(2000, 3)

    def test_successor_wraps_year(self):
        assert Quarter(1990, 4).offset(1) == Quarter(1991, 1)
        assert Quarter(1991, 1).offset(-1) == Quarter(1990, 4)

    def test_difference_counts_quarters(self):
        assert Quarter(1991, 1) - Quarter(1990, 1) == 4
        assert Quarter(2020, 1) - Quarter(1990, 1) == 120

    def test_parse(self):
        assert Quarter.parse("1991Q1") == Quarter(1991, 1)
        assert Quarter.parse("1991-Q3") == Quarter(1991, 3)
        with pytest.raises(DomainError):
            Quarter.parse("1991Q5")
        with pytest.raises(DomainError):
            Quarter(1991, 0)

    @pytest.mark.parametrize("year", ["1991", 1991.5, 1991.0, None])
    def test_year_must_be_an_integer(self, year):
        with pytest.raises(DomainError, match="year must be an integer"):
            Quarter(year, 1)

    @pytest.mark.parametrize("q", [1.0, "1"])
    def test_quarter_must_be_an_integer_1_to_4(self, q):
        with pytest.raises(DomainError, match="quarter number must be 1..4"):
            Quarter(1991, q)

    def test_boolean_year_rejected(self):
        with pytest.raises(DomainError, match="year must be an integer, got True"):
            Quarter(True, 1)

    def test_boolean_quarter_number_rejected(self):
        # True == 1, so it passed the 1..4 check and printed as 1991QTrue
        with pytest.raises(DomainError, match="quarter number must be 1..4, got True"):
            Quarter(1991, True)

    def test_numpy_integer_year(self):
        q = Quarter(np.int64(1991), 1)
        assert q == Quarter(1991, 1) and q.index == Quarter(1991, 1).index

    def test_reflected_comparisons(self):
        # > and >= come from the reflected __lt__ and __le__
        assert Quarter(1991, 1) > Quarter(1990, 4)
        assert Quarter(1991, 1) >= Quarter(1991, 1)
        assert not Quarter(1990, 4) >= Quarter(1991, 1)
        with pytest.raises(TypeError):
            Quarter(1991, 1) > (1991, 1)
        with pytest.raises(TypeError):
            Quarter(1991, 1) >= (1991, 1)

    @pytest.mark.parametrize("op,symbol", [(operator.lt, "<"), (operator.le, "<=")])
    def test_ordering_against_a_tuple_is_a_type_error(self, op, symbol):
        with pytest.raises(TypeError, match=f"^'{symbol}' not supported between instances of "
                                            "'Quarter' and 'tuple'$"):
            op(Quarter(1991, 1), (1991, 2))

    @pytest.mark.parametrize("text,quarter", [
        ("1991Q1", (1991, 1)), ("1991-q2", (1991, 2)), ("1991:Q3", (1991, 3)),
        ("1991 Q4", (1991, 4)), (" \t1991Q1\n", (1991, 1)),
    ])
    def test_parse_forms(self, text, quarter):
        assert Quarter.parse(text) == Quarter(*quarter)

    # Arabic-Indic and fullwidth digits are Unicode decimals, which \d took;
    # None raised a raw AttributeError and bytes a raw TypeError
    @pytest.mark.parametrize("text", [
        "1991-01-01", "1991Q0", "91Q1", "1991/Q1", "1991QQ1", "",
        "\u0661\u0669\u0669\u0661Q1", "\uff11\uff19\uff19\uff11Q1", None, b"1991Q1", 1991,
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError, match=f"^cannot parse quarter {re.escape(repr(text))}$"):
            Quarter.parse(text)

    @given(st.integers(-3000, 3000), st.integers(1, 4), st.integers(-500, 500))
    def test_from_index_inverts_index(self, year, q, k):
        start = Quarter(year, q)
        assert Quarter.from_index(start.index) == start
        assert start.offset(k) == Quarter.from_index(start.index + k)
        assert Quarter.from_index(start.index + k).index == start.index + k

    @given(st.integers(1950, 2100), st.integers(1, 4), st.integers(-50, 50))
    def test_offset_roundtrip(self, year, q, k):
        start = Quarter(year, q)
        assert start.offset(k) - start == k
        assert start.offset(k).offset(-k) == start


class TestSeriesValues:
    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, (math.nan, -math.inf),
    ], ids=["nan", "inf", "-inf", "nan-then-inf"])
    def test_non_finite_value_names_quarter(self, bad):
        # of two non-finite values, the first is named
        values = (1.0, 2.0) + (bad if isinstance(bad, tuple) else (bad, 4.0))
        with pytest.raises(DomainError, match="^series 'x' has non-finite value at 1990Q3$"):
            Series("x", Quarter(1990, 1), values)

    def test_empty_series_raises(self):
        with pytest.raises(SampleError, match="at least one value"):
            Series("x", Quarter(1990, 1), ())

    def test_two_dimensional_values_raise(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            Series("x", Quarter(1990, 1), [[1.0], [2.0]])

    def test_values_are_read_only_float64(self):
        s = Series("x", Quarter(1990, 1), [1, 2])
        assert s.values.dtype == np.float64
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_writable_input_is_copied(self):
        raw = np.array([1.0, 2.0])
        s = Series("x", Quarter(1990, 1), raw)
        raw[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0]
        assert raw.flags.writeable

    def test_window_is_a_view(self):
        s = Series("x", Quarter(1990, 1), np.arange(8.0))
        w = s.window(Quarter(1990, 2), Quarter(1990, 4))
        assert np.shares_memory(w, s.values)
        assert w.tolist() == [1.0, 2.0, 3.0]

    def test_at_returns_python_float(self):
        v = Series("x", Quarter(1990, 1), (1.0, 2.5)).at(Quarter(1990, 2))
        assert type(v) is float
        assert repr(v) == "2.5"


class TestLag:
    def test_shift_by_one(self):
        s = Series("x", Quarter(1990, 1), (1.0, 2.0, 3.0))
        out = lag(s, 1)
        assert out.start == Quarter(1990, 2)
        assert out.values.tolist() == [1.0, 2.0]
        assert out.end == Quarter(1990, 3)
        assert out.name == "x(-1)"

    def test_zero_lag_is_identity(self):
        s = Series("x", Quarter(1990, 1), (1.0, 2.0))
        assert lag(s, 0) is s

    def test_lag_exhausting_sample_raises(self):
        s = Series("x", Quarter(1990, 1), (1.0, 2.0))
        with pytest.raises(SampleError):
            lag(s, 2)

    def test_shift_must_be_an_integer(self):
        s = Series("x", Quarter(1990, 1), (1.0, 2.0, 3.0))
        assert lag(s, np.int64(1)).values.tolist() == [1.0, 2.0]
        # 1.5 failed in Quarter with "year must be an integer, got 1990.0"
        for k in (1.5, True):
            with pytest.raises(DomainError, match=f"lag must be a non-negative integer, got {k!r}"):
                lag(s, k)

    def test_us_cpi_lag4_at_1991q1(self, us_data):
        # the four-quarter lag at 1991Q1 is the raw 1990Q1 CPI print
        lagged = lag(us_data["cpi"], 4)
        assert lagged.at(Quarter(1991, 1)) == 128.033

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_lag_composes(self, a, b):
        s = Series("x", Quarter(2000, 1), tuple(float(i) for i in range(12)))
        assert lag(lag(s, a), b).values.tolist() == lag(s, a + b).values.tolist()
        assert lag(lag(s, a), b).start == lag(s, a + b).start


class TestNaturalLog:
    def test_log_one(self):
        s = Series("x", Quarter(1990, 1), (1.0,))
        assert natural_log(s).values.tolist() == [0.0]

    def test_exact_powers(self):
        s = Series("x", Quarter(1990, 1), (math.e, math.e**2))
        out = natural_log(s)
        assert out.values == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_us_gdp_against_high_precision_oracle(self, us_data):
        import mpmath

        got = natural_log(us_data["real_gdp"]).values[0]
        oracle = float(mpmath.log(mpmath.mpf("9358.289")))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(9.144018, abs=5e-7)

    def test_nonpositive_names_quarter(self):
        s = Series("x", Quarter(1990, 1), (1.0, -2.0))
        with pytest.raises(DomainError, match="1990Q2"):
            natural_log(s)
        # of two non-positive values, the first is named
        s = Series("x", Quarter(1990, 1), (1.0, 2.0, 0.0, -3.0))
        with pytest.raises(DomainError, match=r"^log of series 'x' undefined at 1990Q3: value 0\.0$"):
            natural_log(s)

    def test_log_exp_roundtrip(self):
        rng = np.random.default_rng(7)
        vals = tuple(rng.uniform(0.1, 1e6, size=40))
        back = np.exp(natural_log(Series("x", Quarter(1990, 1), vals)).values)
        assert np.allclose(back, vals, rtol=1e-12)


class TestAlignSample:
    def test_taylor_sample_has_117_rows(self, us_data):
        M = align_sample(
            us_data,
            ["it", "inflation_gap", "output_gap"],
            Quarter(1991, 1),
            Quarter(2020, 1),
        )
        assert M.shape == (117, 3)

    def test_gmm_sample_has_115_rows(self, us_data):
        d = us_data.with_series(
            lag(us_data["inflation_gap"], 2), lag(us_data["output_gap"], 2)
        )
        M = align_sample(
            d,
            ["it", "inflation_gap", "output_gap", "s",
             "inflation_gap(-2)", "output_gap(-2)"],
            Quarter(1991, 3),
            Quarter(2020, 1),
        )
        assert M.shape == (115, 6)

    def test_row_count_matches_range(self, us_data):
        M = align_sample(us_data, ["cpi"], Quarter(1995, 1), Quarter(1996, 4))
        assert M.shape[0] == 8

    def test_empty_range_raises(self, us_data):
        with pytest.raises(SampleError):
            align_sample(us_data, ["cpi"], Quarter(2000, 1), Quarter(1999, 1))

    def test_uncovered_range_reports_feasible(self, us_data):
        with pytest.raises(SampleError, match="1990Q2"):
            # inflation_gap only starts 1991Q1
            align_sample(
                us_data, ["inflation_gap"], Quarter(1990, 2), Quarter(2020, 1)
            )


class TestDataset:
    def test_span_is_intersection(self):
        d = Dataset(
            "toy",
            {
                "a": Series("a", Quarter(1990, 1), (1.0,) * 8),
                "b": Series("b", Quarter(1990, 3), (1.0,) * 8),
            },
        )
        assert common_span(d.series.values()) == (Quarter(1990, 3), Quarter(1991, 4))

    def test_disjoint_series_raise(self):
        with pytest.raises(SampleError):
            Dataset(
                "toy",
                {
                    "a": Series("a", Quarter(1990, 1), (1.0,)),
                    "b": Series("b", Quarter(1995, 1), (1.0,)),
                },
            )

    def test_require_names_missing(self, us_data):
        with pytest.raises(SampleError, match="nope"):
            us_data.require("nope")

    def test_empty_dataset_raises(self):
        with pytest.raises(SampleError, match="^dataset needs at least one series$"):
            Dataset("x", {})
