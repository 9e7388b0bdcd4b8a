import math

import numpy as np
import pytest

from taylorlab.errors import CollinearityError, ConfigError
from taylorlab.gmm import GmmSpec, fit_linear_gmm
from taylorlab.hac import HacConfig
from taylorlab.ols import RegressionSpec, fit_ols
from taylorlab.series import Dataset, Quarter, Series


def _toy_dataset(columns: dict, start=Quarter(2000, 1)) -> Dataset:
    return Dataset(
        "toy", {k: Series(k, start, tuple(v)) for k, v in columns.items()}
    )


def _random_iv_dataset(rng, T=60):
    z1, z2, z3 = rng.normal(size=(3, T))
    x = 0.8 * z1 - 0.5 * z2 + 0.3 * rng.normal(size=T)
    y = 1.5 + 2.0 * x + rng.normal(size=T)
    return _toy_dataset({"y": y, "x": x, "z1": z1, "z2": z2, "z3": z3})


_REPRO = RegressionSpec("it", ("const", "inflation_gap", "output_gap", "s"))
_INSTRUMENTS = (
    "inflation_gap(-1)", "inflation_gap(-2)",
    "output_gap(-1)", "output_gap(-2)",
)


class TestGmmSpec:
    def test_constant_instrument_prepended(self):
        spec = GmmSpec(RegressionSpec("y", ("x",)), ("z1", "z2"))
        assert spec.instruments[0].label == "C"
        assert len(spec.instruments) == 3

    def test_under_identified_rejected(self):
        with pytest.raises(ConfigError, match="under-identified"):
            GmmSpec(RegressionSpec("y", ("x1", "x2", "x3")), ("z1", "z2"))

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ConfigError):
            GmmSpec(RegressionSpec("y", ("x",)), ("z1", "z2"), weighting="iid")

    @pytest.mark.parametrize(
        "covariance,weighting",
        [(HacConfig(bandwidth=2), HacConfig()), (HacConfig(), None)],
        ids=["other-bandwidth", "classical-weighting"],
    )
    def test_base_covariance_other_than_weighting_rejected(self, covariance, weighting):
        base = RegressionSpec("y", ("x",), covariance=covariance)
        with pytest.raises(ConfigError, match="weighting"):
            GmmSpec(base, ("z1", "z2"), weighting=weighting)


class TestJustIdentified:
    @pytest.mark.parametrize(
        "cov", [None, HacConfig()], ids=["classical", "hac"]
    )
    def test_own_instruments_reproduce_ols(self, cov):
        # OLS is GMM with the regressors as their own instruments: the same
        # coefficients and, under the same covariance choice, the same
        # covariance matrix.
        rng = np.random.default_rng(41)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"), covariance=cov)
        gmm = fit_linear_gmm(d, GmmSpec(base, ("x",), weighting=cov))
        ols = fit_ols(d, base)
        assert np.allclose(gmm.coefficients, ols.coefficients, atol=1e-8)
        assert np.allclose(gmm.covariance, ols.covariance, rtol=1e-10, atol=0)
        assert np.allclose(gmm.p_values, ols.p_values, rtol=1e-10, atol=0)
        assert gmm.j_statistic == pytest.approx(0.0, abs=1e-8)
        assert math.isnan(gmm.j_prob)


def _two_stage_oracle(y, X, Z):
    P = Z @ np.linalg.solve(Z.T @ Z, Z.T)
    Xh = P @ X
    return np.linalg.solve(Xh.T @ Xh, Xh.T @ y)


class TestTwoStageStep:
    def test_moment_first_order_condition(self):
        # the estimate solves the first-order condition under the weighting
        # built from the 2SLS residuals, which checks both steps together
        from taylorlab.hac import default_bandwidth, long_run_cov

        rng = np.random.default_rng(44)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        final = fit_linear_gmm(d, GmmSpec(base, ("z1", "z2", "z3")))
        T = final.n_obs
        y = np.asarray(d["y"].values)
        X = np.column_stack([np.ones(T), d["x"].values])
        Z = np.column_stack(
            [np.ones(T), d["z1"].values, d["z2"].values, d["z3"].values]
        )
        e0 = y - X @ _two_stage_oracle(y, X, Z)
        W = np.linalg.inv(long_run_cov(Z * e0[:, None], default_bandwidth(T)))
        gbar = Z.T @ (y - X @ final.coefficients) / T
        foc = X.T @ Z @ W @ gbar
        assert np.linalg.norm(foc) < 1e-8 * np.linalg.norm(X.T @ Z @ W) / T


class TestReproduction:
    def test_us_coefficients_and_j(self, us_data):
        gmm = fit_linear_gmm(us_data, GmmSpec(_REPRO, _INSTRUMENTS))
        assert gmm.n_obs == 115
        assert gmm.coef("C") == pytest.approx(2.807578, abs=5e-3)
        assert gmm.coef("inflation_gap") == pytest.approx(0.807066, abs=5e-3)
        assert gmm.coef("output_gap") == pytest.approx(0.931545, abs=5e-3)
        assert gmm.coef("s") == pytest.approx(-0.05263, abs=5e-3)
        assert gmm.std_errors[1] == pytest.approx(0.424851, rel=0.01)
        assert gmm.j_statistic == pytest.approx(3.683003, rel=0.015)
        assert gmm.j_prob == pytest.approx(0.05497, abs=5e-3)
        assert gmm.instrument_rank == 5

    def test_uk_coefficients_and_j(self, uk_data):
        gmm = fit_linear_gmm(uk_data, GmmSpec(_REPRO, _INSTRUMENTS))
        assert gmm.n_obs == 115
        assert gmm.coef("inflation_gap") == pytest.approx(1.132567, abs=5e-3)
        assert gmm.j_statistic == pytest.approx(2.397154, rel=0.015)
        assert gmm.j_prob == pytest.approx(0.121556, abs=5e-3)

    def test_j_prob_uses_overidentifying_df(self, us_data):
        gmm = fit_linear_gmm(us_data, GmmSpec(_REPRO, _INSTRUMENTS))
        from taylorlab import dist

        assert gmm.j_prob == pytest.approx(dist.chi2_sf(gmm.j_statistic, 1), abs=0)


class TestRankChecks:
    def test_duplicate_instrument_column(self):
        rng = np.random.default_rng(45)
        z = rng.normal(size=40)
        d = _toy_dataset(
            {"y": rng.normal(size=40), "x": rng.normal(size=40), "z1": z, "z2": z}
        )
        with pytest.raises(CollinearityError, match="columns: z2$"):
            fit_linear_gmm(d, GmmSpec(RegressionSpec("y", ("x",)), ("z1", "z2")))

    @pytest.mark.parametrize("rel", [0.0, 1e-13], ids=["duplicate", "near-duplicate"])
    def test_regressor_repeated_under_another_name(self, us_data, rel):
        # 2SLS regresses y on the fitted regressors, where rate2 adds nothing
        rate = us_data["interest_rate"]
        t = np.arange(len(rate.values))
        d = us_data.with_series(Series("rate2", rate.start, rate.values * (1 + rel * t)))
        spec = GmmSpec(RegressionSpec("s", ("interest_rate", "rate2", "output_gap")), _INSTRUMENTS)
        with pytest.raises(CollinearityError, match="columns: rate2$"):
            fit_linear_gmm(d, spec)

    def test_one_quarter_dummy_makes_hac_weighting_singular(self):
        # a dummy both regressor and instrument: the 2SLS residual of its one
        # quarter is 0, so its moment is rounding noise and S is singular
        rng = np.random.default_rng(47)
        T = 40
        z1, z2 = rng.normal(size=(2, T))
        x = z1 + 0.5 * z2 + 0.3 * rng.normal(size=T)
        d = _toy_dataset({
            "y": 1.0 + x + rng.normal(size=T), "x": x, "z1": z1, "z2": z2,
            "spike": np.eye(T)[17],
        })
        spec = GmmSpec(RegressionSpec("y", ("x", "spike")), ("z1", "z2", "spike"))
        with pytest.raises(CollinearityError, match="singular moment covariance"):
            fit_linear_gmm(d, spec)


class TestClassicalWeighting:
    # just identified, the estimate is the IV solution whatever the weighting
    @pytest.mark.parametrize("weighting", [None, HacConfig()], ids=["classical", "hac"])
    def test_classical_just_identified_matches_iv_oracle(self, weighting):
        rng = np.random.default_rng(46)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        gmm = fit_linear_gmm(d, GmmSpec(base, ("z1",), weighting=weighting))
        T = gmm.n_obs
        y = np.asarray(d["y"].values)
        X = np.column_stack([np.ones(T), d["x"].values])
        Z = np.column_stack([np.ones(T), d["z1"].values])
        oracle = np.linalg.solve(Z.T @ X, Z.T @ y)
        assert np.allclose(gmm.coefficients, oracle, atol=1e-8)


def _gmm_oracle(y, X, Z, moment_cov):
    """Two-step GMM by its textbook normal equations with explicit inverses:
    beta = (X'Z W Z'X)^-1 X'Z W Z'y, first with W = (Z'Z)^-1, then with
    W = S^-1 at the 2SLS residuals; J at that W; covariance T/(T-k) T
    (X'Z S^-1 Z'X)^-1 at the final residuals."""
    T, k = X.shape

    def solve(W):
        return np.linalg.solve(X.T @ Z @ W @ Z.T @ X, X.T @ Z @ W @ Z.T @ y)

    W = np.linalg.inv(moment_cov(Z, y - X @ solve(np.linalg.inv(Z.T @ Z))))
    beta = solve(W)
    e = y - X @ beta
    gbar = Z.T @ e / T
    V = T * T / (T - k) * np.linalg.inv(X.T @ Z @ np.linalg.inv(moment_cov(Z, e)) @ Z.T @ X)
    return beta, T * gbar @ W @ gbar, V


class TestOracle:
    @pytest.mark.parametrize("weighting", [None, HacConfig()], ids=["classical", "hac"])
    @pytest.mark.parametrize(
        "instruments", [("z1",), ("z1", "z2", "z3")], ids=["just", "over"]
    )
    def test_matches_normal_equations(self, weighting, instruments):
        from taylorlab.hac import default_bandwidth, long_run_cov

        def moment_cov(Z, e):
            T = len(e)
            if weighting is None:
                return (e @ e) / T * (Z.T @ Z) / T
            return long_run_cov(Z * e[:, None], default_bandwidth(T))

        rng = np.random.default_rng(49)
        d = _random_iv_dataset(rng)
        gmm = fit_linear_gmm(
            d, GmmSpec(RegressionSpec("y", ("const", "x")), instruments, weighting=weighting)
        )
        y = np.asarray(d["y"].values)
        X = np.column_stack([np.ones(len(y)), d["x"].values])
        Z = np.column_stack([np.ones(len(y))] + [d[z].values for z in instruments])
        beta, j_stat, V = _gmm_oracle(y, X, Z, moment_cov)
        assert np.allclose(gmm.coefficients, beta, rtol=1e-10, atol=0)
        assert np.allclose(gmm.covariance, V, rtol=1e-10, atol=0)
        # just identified, J is rounding noise on both sides
        assert gmm.j_statistic == pytest.approx(j_stat, rel=1e-10, abs=1e-20)
