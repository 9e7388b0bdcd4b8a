import numpy as np
import pytest

from taylorlab.errors import CollinearityError, ConfigError, DomainError
from taylorlab.hac import (
    HacConfig, coef_cov, default_bandwidth, long_run_cov, moment_root, newey_west_cov,
)
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


class TestLongRunCov:
    def test_bandwidth_beyond_sample_stops_at_last_lag(self):
        # autocovariances vanish for j >= T, so a bandwidth of 1e9 costs T
        # terms and equals the explicit Bartlett sum over j < T
        rng = np.random.default_rng(33)
        T, m = 25, 10**9
        u = rng.normal(size=(T, 2))
        S = u.T @ u
        for j in range(1, T):
            G = u[j:].T @ u[:-j]
            S = S + (1.0 - j / m) * (G + G.T)
        assert np.allclose(long_run_cov(u, m), S / T, rtol=1e-13, atol=1e-15)


class TestNeweyWestCov:
    def test_bandwidth_one_is_hc0(self):
        # the empty kernel sum leaves HC0 with the T/(T-k) factor
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        e = rng.normal(size=60)
        got = newey_west_cov(X, e, 1)
        assert np.allclose(got, _hc0(X, e) * 60 / 57, atol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(32)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        e = rng.normal(size=80)
        V = newey_west_cov(X, e, 6)
        assert np.allclose(V, V.T, atol=1e-12)
        assert np.linalg.eigvalsh(V).min() >= -1e-10 * np.trace(V)

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


def _qr_route(X, Z, e, cfg):
    """T^2/(T-k) (A'A)^-1 through the R factor of A = M Z'X, for any A."""
    T, k = X.shape
    Ri = np.linalg.inv(np.linalg.qr(moment_root(Z, e, cfg) @ (Z.T @ X), mode="r"))
    return T * T / (T - k) * (Ri @ Ri.T)


class TestCoefCov:
    CFGS = [None, HacConfig(), HacConfig(1), HacConfig(12)]
    IDS = ["classical", "hac-rule", "hac1", "hac12"]

    @staticmethod
    def _design(seed, T, k, n_inst):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(T), rng.normal(size=(T, k - 1))])
        Z = np.column_stack([np.ones(T), X[:, 1:] + rng.normal(size=(T, k - 1)),
                             rng.normal(size=(T, n_inst - k))])
        return X, Z, rng.normal(size=T)

    @pytest.mark.parametrize("cfg", CFGS, ids=IDS)
    @pytest.mark.parametrize("seed,T,k", [(81, 40, 2), (82, 117, 4), (83, 316, 6)])
    def test_square_inverse_matches_qr_route(self, cfg, seed, T, k):
        # OLS (Z = X) and a just-identified GMM make A square
        X, Z, e = self._design(seed, T, k, k)
        for inst in (X, Z):
            ref = _qr_route(X, inst, e, cfg)
            assert np.allclose(coef_cov(X, inst, e, cfg), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("cfg", CFGS, ids=IDS)
    def test_over_identified_keeps_qr_route(self, cfg):
        X, Z, e = self._design(84, 117, 4, 7)
        assert np.array_equal(coef_cov(X, Z, e, cfg), _qr_route(X, Z, e, cfg))


class TestSingularMomentCov:
    # column 3 is a one-quarter dummy, so its moment is e_40 alone; scaled to
    # its classical size it is about T * e_40^2 / e'e, here e_40^2
    def _moments(self, e40):
        rng = np.random.default_rng(48)
        T = 100
        Z = np.column_stack([np.ones(T), rng.normal(size=T), np.eye(T)[40]])
        e = rng.normal(size=T)
        e *= np.sqrt(T / (e @ e))
        e[40] = e40
        return Z, e

    @pytest.mark.parametrize("cfg", [None, HacConfig()], ids=["classical", "hac"])
    def test_root_inverts_moment_covariance(self, cfg):
        Z, e = self._moments(1.0)
        T = len(e)
        if cfg is None:
            S = (e @ e) / T * (Z.T @ Z) / T
        else:
            S = long_run_cov(Z * e[:, None], default_bandwidth(T))
        M = moment_root(Z, e, cfg)
        assert np.allclose(M.T @ M @ S, np.eye(3), rtol=0, atol=1e-12)

    def test_small_moment_is_kept(self):
        # 1e-14 of its classical size, well above k * eps = 6.7e-16
        Z, e = self._moments(1e-7)
        assert np.all(np.isfinite(moment_root(Z, e, HacConfig())))

    def test_rounding_level_moment_raises(self):
        Z, e = self._moments(1e-17)
        with pytest.raises(CollinearityError, match="singular moment covariance"):
            moment_root(Z, e, HacConfig())

    @pytest.mark.parametrize("m,raises", [(10**17, True), (10**12, False)])
    def test_single_moment_at_rounding_level_raises(self, m, raises):
        # one moment, so the condition number is 1: at m = 1e17 every weight
        # rounds to 1 and the kernel sum leaves (sum e)^2 / T, rounding noise
        # for least-squares residuals about a constant; at 1e12 it is kept
        e = np.random.default_rng(49).normal(size=100)
        e -= e.mean()
        Z = np.ones((100, 1))
        if raises:
            with pytest.raises(CollinearityError, match="variance of a moment"):
                moment_root(Z, e, HacConfig(m))
        else:
            assert np.isfinite(moment_root(Z, e, HacConfig(m))).all()

    @pytest.mark.parametrize("cfg", [None, HacConfig()], ids=["classical", "hac"])
    def test_zero_instrument_raises(self, cfg):
        Z, e = self._moments(1.0)
        Z[:, 1] = 0.0
        with pytest.raises(CollinearityError, match="singular moment covariance"):
            moment_root(Z, e, cfg)

    @pytest.mark.parametrize("cfg", [None, HacConfig()], ids=["classical", "hac"])
    def test_zero_residuals_raise(self, cfg):
        Z, e = self._moments(0.0)
        with pytest.raises(CollinearityError, match="singular moment covariance"):
            moment_root(Z, 0.0 * e, cfg)


class TestHacConfig:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            HacConfig(bandwidth=0)

    @pytest.mark.parametrize("bandwidth", [2.5, 5.0, float("nan"), "5"])
    def test_rejects_non_integer_bandwidth(self, bandwidth):
        with pytest.raises(ConfigError, match="bandwidth must be an integer"):
            HacConfig(bandwidth)

    def test_boolean_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth must be an integer, got True"):
            HacConfig(True)

    def test_numpy_integer_bandwidth_accepted(self):
        assert HacConfig(np.int64(5)) == HacConfig(5)
