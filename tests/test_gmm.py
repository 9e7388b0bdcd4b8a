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
            GmmSpec(
                RegressionSpec("y", ("x1", "x2", "x3")),
                ("z1",),
                add_constant_instrument=False,
            )

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ConfigError):
            GmmSpec(RegressionSpec("y", ("x",)), ("z1", "z2"), weighting="iid")


class TestJustIdentified:
    def test_own_instruments_reproduce_ols(self):
        rng = np.random.default_rng(41)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        gmm = fit_linear_gmm(
            d,
            GmmSpec(base, ("x",), weighting=None, weight_updates=0),
        )
        ols = fit_ols(d, base)
        assert np.allclose(gmm.coefficients, ols.coefficients, atol=1e-8)
        assert gmm.j_statistic == pytest.approx(0.0, abs=1e-8)
        assert math.isnan(gmm.j_prob)

    def test_weight_updates_do_not_move_just_identified_estimate(self):
        rng = np.random.default_rng(42)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        a = fit_linear_gmm(d, GmmSpec(base, ("z1",), weight_updates=0))
        b = fit_linear_gmm(d, GmmSpec(base, ("z1",), weight_updates=3))
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-8)


def _two_stage_oracle(y, X, Z):
    P = Z @ np.linalg.solve(Z.T @ Z, Z.T)
    Xh = P @ X
    return np.linalg.solve(Xh.T @ Xh, Xh.T @ y)


class TestTwoStageStep:
    def test_zero_updates_match_2sls_oracle(self):
        rng = np.random.default_rng(43)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        gmm = fit_linear_gmm(
            d, GmmSpec(base, ("z1", "z2", "z3"), weight_updates=0)
        )
        T = gmm.n_obs
        y = np.asarray(d["y"].values)
        X = np.column_stack([np.ones(T), d["x"].values])
        Z = np.column_stack(
            [np.ones(T), d["z1"].values, d["z2"].values, d["z3"].values]
        )
        assert np.allclose(gmm.coefficients, _two_stage_oracle(y, X, Z), atol=1e-8)

    def test_moment_first_order_condition(self):
        from taylorlab.hac import default_bandwidth, long_run_cov

        rng = np.random.default_rng(44)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        step0 = fit_linear_gmm(
            d, GmmSpec(base, ("z1", "z2", "z3"), weight_updates=0)
        )
        final = fit_linear_gmm(d, GmmSpec(base, ("z1", "z2", "z3")))
        T = final.n_obs
        y = np.asarray(d["y"].values)
        X = np.column_stack([np.ones(T), d["x"].values])
        Z = np.column_stack(
            [np.ones(T), d["z1"].values, d["z2"].values, d["z3"].values]
        )
        e0 = y - X @ step0.coefficients
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
        with pytest.raises(CollinearityError):
            fit_linear_gmm(d, GmmSpec(RegressionSpec("y", ("x",)), ("z1", "z2")))


class TestClassicalWeighting:
    def test_classical_just_identified_matches_iv_oracle(self):
        rng = np.random.default_rng(46)
        d = _random_iv_dataset(rng)
        base = RegressionSpec("y", ("const", "x"))
        gmm = fit_linear_gmm(
            d, GmmSpec(base, ("z1",), weighting=None, weight_updates=1)
        )
        T = gmm.n_obs
        y = np.asarray(d["y"].values)
        X = np.column_stack([np.ones(T), d["x"].values])
        Z = np.column_stack([np.ones(T), d["z1"].values])
        oracle = np.linalg.solve(Z.T @ X, Z.T @ y)
        assert np.allclose(gmm.coefficients, oracle, atol=1e-8)
