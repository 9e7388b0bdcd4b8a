import math

import numpy as np
import pytest

from taylorlab.errors import ConfigError, SampleError
from taylorlab.ingest import embedded_dataset
from taylorlab.series import Dataset, Quarter, Series
from taylorlab.transform import (
    TransformConfig,
    build_taylor_dataset,
    hp_filter_gap,
    inflation_gap,
    linear_trend_gap,
    yoy_change,
)


def _series(vals, name="x", start=Quarter(1990, 1)):
    return Series(name, start, tuple(vals))


class TestYoyChange:
    def test_constant_log_series_is_zero(self):
        out = yoy_change(_series([3.7] * 10))
        assert out.values == pytest.approx((0.0,) * 6, abs=0)

    def test_linear_in_logs_is_constant(self):
        out = yoy_change(_series([t / 100 for t in range(12)]))
        assert out.values == pytest.approx((4.0,) * 8, abs=1e-12)

    def test_us_cpi_1991q1_against_log_oracle(self):
        import mpmath

        oracle = float(100 * (mpmath.log(mpmath.mpf("134.767"))
                              - mpmath.log(mpmath.mpf("128.033"))))
        cpi = embedded_dataset("us")["cpi"]
        from taylorlab.series import natural_log

        out = yoy_change(natural_log(cpi))
        assert out.at(Quarter(1991, 1)) == pytest.approx(oracle, abs=1e-12)
        assert out.at(Quarter(1991, 1)) == pytest.approx(5.1258, abs=5e-4)

    def test_exhausted_sample_raises(self):
        with pytest.raises(SampleError):
            yoy_change(_series([1.0, 2.0]))


class TestInflationGap:
    def test_constant_cpi_gives_minus_target(self):
        out = inflation_gap(_series([104.3] * 9, "cpi"))
        assert out.values == pytest.approx((-2.0,) * 5, abs=1e-12)

    def test_us_1991q1(self):
        out = inflation_gap(embedded_dataset("us")["cpi"])
        assert out.at(Quarter(1991, 1)) == pytest.approx(3.1258, abs=5e-4)

    def test_zero_target_equals_raw_yoy(self):
        cpi = _series([100.0, 101, 103, 104, 107, 110, 112, 115, 118], "cpi")
        raw = inflation_gap(cpi, TransformConfig(inflation_target=0.0))
        shifted = inflation_gap(cpi)
        assert np.allclose(np.array(raw.values) - 2.0, shifted.values)

    def test_scale_invariance(self):
        cpi = _series([100.0, 101, 103, 104, 107, 110, 112, 115, 118], "cpi")
        scaled = _series([v * 7.3 for v in cpi.values], "cpi")
        assert np.allclose(inflation_gap(cpi).values, inflation_gap(scaled).values)


class TestLinearTrendGap:
    def test_log_linear_gdp_has_zero_gap(self):
        vals = [100.0 * math.exp(0.01 * t) for t in range(20)]
        out = linear_trend_gap(_series(vals, "gdp"))
        assert np.allclose(out.values, 0.0, atol=1e-9)

    def test_closed_form_three_points(self):
        # log values 0, 1, 3: slope 3/2, intercept -1/6
        vals = [1.0, math.e, math.e**3]
        out = linear_trend_gap(_series(vals, "gdp"))
        assert out.values == pytest.approx(
            (100 / 6, -100 / 3, 100 / 6), abs=1e-9
        )

    def test_scaling_gdp_leaves_gaps_unchanged(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(50, 150, size=30)
        a = linear_trend_gap(_series(vals, "gdp"))
        b = linear_trend_gap(_series(vals * 11.0, "gdp"))
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_residuals_sum_zero_and_orthogonal_to_trend(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(50, 150, size=40)
        gaps = np.array(linear_trend_gap(_series(vals, "gdp")).values)
        t = np.arange(len(gaps))
        assert abs(gaps.sum()) < 1e-9 * np.abs(gaps).sum()
        assert abs(gaps @ t) < 1e-8 * np.abs(gaps).sum() * len(gaps)

    def test_matches_lstsq_on_us_gdp(self):
        gdp = embedded_dataset("us")["real_gdp"]
        y = np.log(gdp.values)
        X = np.column_stack([np.ones(len(y)), np.arange(len(y), dtype=float)])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        got = linear_trend_gap(gdp).values
        assert np.max(np.abs(got - 100.0 * (y - X @ beta))) < 1e-11

    def test_too_short_raises(self):
        with pytest.raises(SampleError):
            linear_trend_gap(_series([1.0, 2.0], "gdp"))


def _dense_hp_gap(logvals, lam):
    n = len(logvals)
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i : i + 3] = [1.0, -2.0, 1.0]
    trend = np.linalg.solve(np.eye(n) + lam * D.T @ D, logvals)
    return 100.0 * (logvals - trend)


def _mp_hp_gap(logvals, lam):
    """100 * (y - tau) from a 40-digit banded elimination of (I + lam D'D) tau = y."""
    import mpmath

    n = len(logvals)
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        A = [[mpmath.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            A[i][i] += 1
        for i in range(n - 2):
            for p, cp in ((i, 1), (i + 1, -2), (i + 2, 1)):
                for q, cq in ((i, 1), (i + 1, -2), (i + 2, 1)):
                    A[p][q] += lam * cp * cq
        y = [mpmath.mpf(float(v)) for v in logvals]
        rhs = list(y)
        for k in range(n):  # SPD with half-bandwidth 2: no pivoting, no fill
            for i in range(k + 1, min(k + 3, n)):
                f = A[i][k] / A[k][k]
                for j in range(k, min(k + 3, n)):
                    A[i][j] -= f * A[k][j]
                rhs[i] -= f * rhs[k]
        tau = [mpmath.mpf(0)] * n
        for i in reversed(range(n)):
            s = rhs[i] - sum(A[i][j] * tau[j] for j in range(i + 1, min(i + 3, n)))
            tau[i] = s / A[i][i]
        return np.array([float(100 * (y[i] - tau[i])) for i in range(n)])


class TestHpFilterGap:
    def test_linear_log_series_has_zero_gap(self):
        vals = [100.0 * math.exp(0.02 * t) for t in range(30)]
        out = hp_filter_gap(_series(vals, "gdp"), 1600.0)
        assert np.allclose(out.values, 0.0, atol=1e-8)

    def test_constant_series_has_zero_gap(self):
        out = hp_filter_gap(_series([42.0] * 12, "gdp"), 1600.0)
        assert np.allclose(out.values, 0.0, atol=1e-10)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(11)
        vals = rng.uniform(80, 120, size=8)
        out = hp_filter_gap(_series(vals, "gdp"), 1600.0)
        assert np.allclose(out.values, _dense_hp_gap(np.log(vals), 1600.0), atol=1e-8)

    def test_matches_dense_oracle_on_long_sample(self):
        gdp = embedded_dataset("us")["real_gdp"]
        out = hp_filter_gap(gdp, 1600.0)
        oracle = _dense_hp_gap(np.log(gdp.values), 1600.0)
        assert np.allclose(out.values, oracle, atol=1e-8)

    def test_small_lambda_tracks_series(self):
        rng = np.random.default_rng(12)
        vals = rng.uniform(80, 120, size=25)
        out = hp_filter_gap(_series(vals, "gdp"), 1e-8)
        assert np.max(np.abs(out.values)) < 1e-5

    def test_large_lambda_approaches_linear_trend(self):
        rng = np.random.default_rng(13)
        vals = rng.uniform(80, 120, size=25)
        hp = hp_filter_gap(_series(vals, "gdp"), 1e12)
        lin = linear_trend_gap(_series(vals, "gdp"))
        assert np.allclose(hp.values, lin.values, atol=0.1)

    @pytest.mark.parametrize("country", ["us", "uk"])
    def test_matches_40_digit_oracle(self, country):
        gdp = embedded_dataset(country)["real_gdp"]
        out = hp_filter_gap(gdp, 1600.0)
        oracle = _mp_hp_gap(np.log(gdp.values), 1600.0)
        assert np.max(np.abs(out.values - oracle)) < 1e-11

    # At lam = 1e14 the exact HP gap of US GDP is still 2.9e-8 from the
    # linear-trend gap (the O(1/lam) term); from 1e16 on, 1/lam is below the
    # rounding of the band's diagonal and only rounding separates the two.
    @pytest.mark.parametrize(
        "lam, tol", [(1e14, 5e-8), (1e16, 1e-9), (1e300, 1e-9)], ids=["1e14", "1e16", "1e300"]
    )
    def test_huge_lambda_gives_linear_trend_gap(self, lam, tol):
        gdp = embedded_dataset("us")["real_gdp"]
        hp = hp_filter_gap(gdp, lam)
        assert np.max(np.abs(hp.values - linear_trend_gap(gdp).values)) < tol

    def test_lambda_whose_reciprocal_overflows_gives_zero_gap(self):
        vals = np.random.default_rng(15).uniform(80, 120, size=20)
        out = hp_filter_gap(_series(vals, "gdp"), 5e-324)
        assert out.values.tolist() == [0.0] * 20

    def test_residuals_orthogonal_to_linear_functions(self):
        rng = np.random.default_rng(14)
        vals = rng.uniform(80, 120, size=40)
        gaps = np.array(hp_filter_gap(_series(vals, "gdp"), 1600.0).values)
        t = np.arange(len(gaps), dtype=float)
        scale = np.abs(gaps).sum() * len(gaps)
        assert abs(gaps.sum()) < 1e-8 * scale
        assert abs(gaps @ t) < 1e-8 * scale * len(gaps)

    def test_nonpositive_lambda_raises(self):
        from taylorlab.errors import DomainError

        for lam in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                hp_filter_gap(_series([1.0] * 10, "gdp"), lam)

    def test_three_quarters_raise(self):
        with pytest.raises(SampleError, match="^need at least 4 observations for trend filtering$"):
            hp_filter_gap(_series([1.0, 2.0, 3.0], "gdp"))


class TestBuildTaylorDataset:
    def test_us_adjusted_sample(self, us_data):
        from taylorlab.series import align_sample

        M = align_sample(
            us_data, ["it", "inflation_gap", "output_gap", "s"],
            Quarter(1991, 1), Quarter(2020, 1),
        )
        assert M.shape[0] == 117

    def test_uk_same_adjusted_span(self, uk_data):
        assert uk_data["inflation_gap"].start == Quarter(1991, 1)
        assert uk_data["inflation_gap"].end == Quarter(2020, 1)

    def test_missing_cpi_names_series(self):
        d = Dataset("toy", {"real_gdp": _series([1.0] * 10)})
        with pytest.raises(SampleError, match="cpi"):
            build_taylor_dataset(d)

    def test_raw_series_kept(self, us_data):
        for name in ("real_gdp", "cpi", "interest_rate", "stock_index"):
            assert name in us_data.series


class TestTransformConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(inflation_target=math.nan),
            dict(inflation_target=math.inf),
            dict(detrend="bandpass"),
            dict(hp_lambda=-1.0),
            dict(hp_lambda=math.nan),
            dict(hp_lambda=math.inf),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TransformConfig(**kwargs)
