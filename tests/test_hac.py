import numpy as np
import pytest

from taylorlab.errors import ConfigError, DomainError
from taylorlab.hac import HacConfig, default_bandwidth, newey_west_cov
from taylorlab.ols import RegressionSpec, fit_ols


class TestDefaultBandwidth:
    @pytest.mark.parametrize("T,expected", [(117, 5), (115, 5), (100, 5)])
    def test_published_sample_sizes(self, T, expected):
        assert default_bandwidth(T) == expected

    def test_small_samples(self):
        assert default_bandwidth(2) >= 1
        with pytest.raises(DomainError):
            default_bandwidth(1)

    def test_grows_with_sample(self):
        sizes = [default_bandwidth(T) for T in (10, 100, 1000, 10000)]
        assert sizes == sorted(sizes)


def _hc0(X, e):
    T = X.shape[0]
    S = sum(e[t] ** 2 * np.outer(X[t], X[t]) for t in range(T)) / T
    xtx_inv = np.linalg.inv(X.T @ X)
    return xtx_inv @ (T * S) @ xtx_inv


class TestNeweyWestCov:
    def test_bandwidth_one_is_hc0(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        e = rng.normal(size=60)
        got = newey_west_cov(X, e, 1, df_adjust=False)
        assert np.allclose(got, _hc0(X, e), atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(32)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        e = rng.normal(size=80)
        V = newey_west_cov(X, e, 6)
        assert np.allclose(V, V.T, atol=1e-12)
        assert np.linalg.eigvalsh(V).min() >= -1e-10 * np.trace(V)

    def test_df_adjust_scales_by_t_over_t_minus_k(self):
        rng = np.random.default_rng(33)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 1))])
        e = rng.normal(size=50)
        raw = newey_west_cov(X, e, 4, df_adjust=False)
        adj = newey_west_cov(X, e, 4, df_adjust=True)
        assert np.allclose(adj, raw * 50 / 48, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            newey_west_cov(np.ones((10, 2)), np.ones(9), 3)

    def test_bad_bandwidth(self):
        with pytest.raises(DomainError):
            newey_west_cov(np.ones((10, 2)), np.ones(10), 0)


class TestPublishedStandardErrors:
    def test_us_table(self, us_data):
        spec = RegressionSpec(
            "it", ("inflation_gap", "output_gap", "s", "const"), covariance=HacConfig()
        )
        fit = fit_ols(us_data, spec)
        expected = (0.303483, 0.310041, 0.020404, 0.307917)
        assert np.allclose(fit.std_errors, expected, atol=5e-3)
        # t-stats keep the T-k reference distribution
        assert fit.t_stats[0] == pytest.approx(2.936369, rel=0.015)
        assert fit.p_values[1] == pytest.approx(0.2020, abs=5e-3)

    def test_uk_table(self, uk_data):
        spec = RegressionSpec(
            "it", ("inflation_gap", "output_gap", "s", "const"), covariance=HacConfig()
        )
        fit = fit_ols(uk_data, spec)
        assert fit.std_errors[0] == pytest.approx(0.313283, abs=5e-3)
        assert fit.t_stats[0] == pytest.approx(3.920280, rel=0.015)


class TestHacConfig:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            HacConfig(bandwidth=0)
