from fractions import Fraction

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from taylorlab import ols
from taylorlab.errors import CollinearityError, ConfigError, SampleError
from taylorlab.hac import HacConfig
from taylorlab.report import render_table
from taylorlab.ols import RegressionSpec, Term, build_design, fit_ols, solve_ols, summarize
from taylorlab.series import Dataset, Quarter, Series


def _toy_dataset(columns: dict, start=Quarter(2000, 1)) -> Dataset:
    return Dataset(
        "toy", {k: Series(k, start, tuple(v)) for k, v in columns.items()}
    )


def _random_dataset(rng, T=40, names=("y", "x1", "x2", "x3")):
    return _toy_dataset({n: rng.normal(size=T) for n in names})


class TestTermParsing:
    def test_lag_syntax(self):
        t = Term.parse("inflation_gap(-2)")
        assert t.name == "inflation_gap" and t.lag == 2
        assert t.label == "inflation_gap(-2)"

    def test_plain_name(self):
        assert Term.parse("s") == Term("s", 0)

    def test_malformed(self):
        with pytest.raises(ConfigError):
            Term.parse("s(+1)")
        # an Arabic-Indic one is a Unicode decimal, which \d read as lag 1
        with pytest.raises(ConfigError, match="cannot parse term"):
            Term.parse("inflation_gap(-\u0661)")

    def test_lagged_constant_rejected(self):
        with pytest.raises(ConfigError, match="constant takes no lag"):
            Term.parse("const(-1)")
        assert Term.parse("const(-0)") == Term("const", 0)

    @pytest.mark.parametrize("k", [1.5, 1.0, "1", None])
    def test_lag_must_be_an_integer(self, k):
        with pytest.raises(ConfigError, match="lag of x must be a non-negative integer"):
            Term("x", k)

    def test_numpy_integer_lag(self):
        assert Term("x", np.int64(2)) == Term("x", 2)

    def test_boolean_lag_rejected(self):
        # True labelled a fitted column output_gap(-True)
        with pytest.raises(ConfigError, match="lag of output_gap must be a non-negative integer, got True"):
            Term("output_gap", True)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ConfigError):
            RegressionSpec("y", ("x", "x"))

    def test_dependent_as_regressor_rejected(self):
        with pytest.raises(ConfigError, match="dependent variable y"):
            RegressionSpec("y", ("x", "y"))

    def test_lagged_dependent_is_a_regressor(self):
        spec = RegressionSpec("y", ("y(-1)", "x"))
        assert spec.regressors[0] == Term("y", 1)


class TestRegressionSpec:
    def test_constant_is_only_a_term(self):
        # include_constant only appends a missing const; it is not stored
        plain = RegressionSpec("it", ("inflation_gap", "const"))
        flagged = RegressionSpec("it", ("inflation_gap", "const"), include_constant=False)
        assert flagged == plain and hash(flagged) == hash(plain)
        assert flagged.has_constant
        assert not RegressionSpec("it", ("inflation_gap",), include_constant=False).has_constant

    @pytest.mark.parametrize("sample", [
        ("1991Q1", "2000Q1"),
        (Quarter(1991, 1),),
        (Quarter(1991, 1), Quarter(2000, 1), Quarter(2001, 1)),
        [Quarter(1991, 1), Quarter(2000, 1)],
        Quarter(1991, 1),
    ], ids=["strings", "one", "three", "list", "quarter"])
    def test_sample_must_be_a_pair_of_quarters(self, sample):
        with pytest.raises(ConfigError, match="pair of Quarters"):
            RegressionSpec("y", ("x",), sample=sample)

    def test_no_regressor_and_no_constant_rejected(self):
        with pytest.raises(ConfigError, match="^model needs at least one regressor or a constant$"):
            RegressionSpec("it", (), include_constant=False)

    def test_covariance_must_be_a_hac_config(self):
        with pytest.raises(ConfigError, match="^unknown covariance estimator 'hac'$"):
            RegressionSpec("it", ("s",), covariance="hac")


class TestSolveOls:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(solve_ols(X, y), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("T", [2, 3])
    def test_needs_more_rows_than_columns(self, T):
        X = np.column_stack([np.ones(T), np.arange(T), np.arange(T) ** 2.0])
        with pytest.raises(SampleError, match=f"{T} observations cannot identify 3"):
            solve_ols(X, np.ones(T))

    def test_rank_deficiency_names_label(self):
        x = np.arange(1.0, 11.0)
        X = np.column_stack([np.ones(10), x, 2 * x])
        with pytest.raises(CollinearityError, match="double"):
            solve_ols(X, x, ("C", "x", "double"))


class TestUnitScale:
    """``unit_scale`` and White's column peaks reduce a C-ordered transposed
    copy; every value, bit for bit, and every shape is that of the max down
    the strided rows."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        shape=array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9),
        seed=st.integers(0, 2**32 - 1), zero=st.integers(0, 8),
        layout=st.sampled_from(["C", "F", "rows"]),
    )
    def test_equals_the_strided_reduction(self, shape, seed, zero, layout):
        # magnitudes from 1e-300 to 1e300 of either sign, a quarter of the
        # cells zeros of either sign, and one zero column
        rng = np.random.default_rng(seed)
        X = rng.choice([-1.0, 1.0], shape) * rng.uniform(1, 10, shape) * 10.0 ** rng.integers(
            -300, 300, shape
        )
        X[rng.random(shape) < 0.25] = rng.choice([0.0, -0.0])
        X[..., zero % shape[-1]] = rng.choice([0.0, -0.0])
        X = {"C": X, "F": np.asfortranarray(X), "rows": X[..., ::2, :]}[layout]
        strided = np.ldexp(1.0, -np.frexp(np.abs(X).max(axis=-2, keepdims=True))[1])
        scale = ols.unit_scale(X)
        assert (scale.shape, scale.dtype) == (strided.shape, strided.dtype)
        assert scale.tobytes() == strided.tobytes()
        peaks = ols._column_peaks(X)
        assert peaks.shape == X.shape[:-2] + X.shape[-1:]
        assert peaks.tobytes() == np.abs(X).max(axis=-2).tobytes()

    def test_zero_column_scales_by_one(self):
        X = np.array([[0.0, -3.0], [-0.0, 1e-300]])
        assert ols.unit_scale(X).tolist() == [[1.0, 0.25]]


class TestSummarize:
    @settings(max_examples=200, deadline=None)
    @given(
        T=st.integers(2, 400),
        magnitude=st.floats(-8.0, 8.0),
        offset=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
        has_constant=st.booleans(),
    )
    def test_dependent_moments_match_numpy_bit_for_bit(
        self, T, magnitude, offset, seed, has_constant
    ):
        # mean_dep, sd_dep and the centred sum behind R^2 come from one pass
        # over y - mean; each must equal numpy's own figure exactly
        rng = np.random.default_rng(seed)
        scale = 10.0**magnitude
        y = scale * (offset + rng.normal(size=T))
        e = scale * rng.normal(size=T)
        # one regressor whose fitted terms are zero: the exact-fit bound is 0
        stats = summarize(y, e, np.ones((T, 1)), np.zeros(1), has_constant)
        assert stats["mean_dep"] == y.mean()
        assert stats["sd_dep"] == np.std(y, ddof=1)
        tss = np.sum((y - y.mean()) ** 2) if has_constant else y @ y
        assert stats["r2"] == 1.0 - (e @ e) / tss


class TestFitOls:
    def test_exact_fit_rejected(self):
        # y = 2x, and a constant y (a policy rate held at its floor, whose
        # centered TSS is zero): the residuals are rounding noise
        x = np.arange(1.0, 11.0)
        for y in (2 * x, np.full(10, 0.5)):
            with pytest.raises(CollinearityError, match="exact linear combination"):
                fit_ols(_toy_dataset({"y": y, "x": x}), RegressionSpec("y", ("x",)))
        # a residual far above rounding, if tiny, is still a fit
        y = 2 * x + 1e-9 * np.random.default_rng(20).normal(size=10)
        fit = fit_ols(_toy_dataset({"y": y, "x": x}), RegressionSpec("y", ("x",)))
        assert fit.coef("x") == pytest.approx(2.0, abs=1e-9)

    def test_exact_fit_of_cancelling_terms_rejected(self):
        # y = 1e5 x1 - 1e5 x2 + 0.5 with x2 close to x1: the fitted terms
        # cancel, so y'y is far below the rounding level of the residuals
        x1 = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0])
        x2 = x1 + 1e-3 * np.array([2.0, 7.0, -1.0, 8.0, 2.0, -8.0])
        d = _toy_dataset({"y": 1e5 * x1 - 1e5 * x2 + 0.5, "x1": x1, "x2": x2})
        with pytest.raises(CollinearityError, match="exact linear combination"):
            fit_ols(d, RegressionSpec("y", ("x1", "x2")))

    def test_us_baseline_coefficients(self, us_data):
        fit = fit_ols(us_data, RegressionSpec("it", ("inflation_gap", "output_gap", "const")))
        assert fit.n_obs == 117
        assert fit.coef("inflation_gap") == pytest.approx(0.906309, abs=5e-3)
        assert fit.coef("output_gap") == pytest.approx(0.454512, abs=5e-3)
        assert fit.coef("C") == pytest.approx(2.451161, abs=5e-3)
        assert fit.sample == (Quarter(1991, 1), Quarter(2020, 1))

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(21)
        d = _random_dataset(rng)
        spec = RegressionSpec("y", ("x1", "x2", "x3"))
        fit = fit_ols(d, spec)
        e = np.asarray(fit.residuals.values)
        y = build_design(d, spec)[0]
        assert np.max(np.abs(fit.x_matrix.T @ e)) < 1e-8 * np.linalg.norm(y)
        assert abs(e.mean()) < 1e-10  # constant included

    def test_fitted_plus_residuals_reproduce_y(self):
        rng = np.random.default_rng(22)
        d = _random_dataset(rng)
        spec = RegressionSpec("y", ("x1", "x2"))
        fit = fit_ols(d, spec)
        recon = fit.x_matrix @ fit.coefficients + np.asarray(fit.residuals.values)
        assert np.allclose(recon, build_design(d, spec)[0], rtol=1e-12, atol=1e-12)

    def test_adding_regressor_never_decreases_r2(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            d = _random_dataset(rng)
            small = fit_ols(d, RegressionSpec("y", ("x1",)))
            big = fit_ols(d, RegressionSpec("y", ("x1", "x2")))
            assert big.r2 >= small.r2 - 1e-12

    def test_durbin_watson_range(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            d = _random_dataset(rng)
            fit = fit_ols(d, RegressionSpec("y", ("x1", "x2")))
            assert 0.0 <= fit.durbin_watson <= 4.0

    def test_exact_rational_oracle_five_obs(self):
        # normal equations solved exactly in rational arithmetic
        rng = np.random.default_rng(25)
        for _ in range(5):
            Xi = rng.integers(-9, 10, size=(5, 2))
            yi = rng.integers(-9, 10, size=5)
            X = [[Fraction(1), Fraction(int(a)), Fraction(int(b))] for a, b in Xi]
            xtx = [[sum(r[i] * r[j] for r in X) for j in range(3)] for i in range(3)]
            xty = [sum(r[i] * Fraction(int(v)) for r, v in zip(X, yi)) for i in range(3)]
            # gaussian elimination in Fractions
            M = [row[:] + [rhs] for row, rhs in zip(xtx, xty)]
            for col in range(3):
                piv = next(r for r in range(col, 3) if M[r][col] != 0)
                M[col], M[piv] = M[piv], M[col]
                for r in range(3):
                    if r != col:
                        f = M[r][col] / M[col][col]
                        M[r] = [a - f * b for a, b in zip(M[r], M[col])]
            oracle = [float(M[i][3] / M[i][i]) for i in range(3)]

            d = _toy_dataset({
                "y": [float(v) for v in yi],
                "a": [float(v) for v in Xi[:, 0]],
                "b": [float(v) for v in Xi[:, 1]],
            })
            fit = fit_ols(d, RegressionSpec("y", ("const", "a", "b")))
            assert np.allclose(fit.coefficients, oracle, atol=1e-10)

    def test_information_criteria_identities(self, us_data):
        fit = fit_ols(us_data, RegressionSpec("it", ("inflation_gap", "output_gap", "const")))
        T, k, ll = fit.n_obs, fit.n_params, fit.log_likelihood
        assert fit.aic == pytest.approx((-2 * ll + 2 * k) / T, abs=1e-12)
        assert fit.schwarz == pytest.approx((-2 * ll + k * np.log(T)) / T, abs=1e-12)
        assert fit.hannan_quinn == pytest.approx(
            (-2 * ll + 2 * k * np.log(np.log(T))) / T, abs=1e-12
        )

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(26)
        d = _random_dataset(rng)
        fit = fit_ols(d, RegressionSpec("y", ("x1", "x2", "x3")))
        V = fit.covariance
        assert np.allclose(V, V.T, atol=1e-14)
        assert np.linalg.eigvalsh(V).min() >= -1e-10 * np.trace(V)

    def test_collinearity_names_column(self):
        x = np.arange(1.0, 21.0)
        d = _toy_dataset({"y": 2 * x, "x": x, "x2": 3 * x})
        with pytest.raises(CollinearityError, match="x2"):
            fit_ols(d, RegressionSpec("y", ("x", "x2"), include_constant=False))

    def test_sample_too_small(self):
        d = _toy_dataset({"y": [1.0, 2.0], "x": [1.0, 3.0]})
        with pytest.raises(SampleError):
            fit_ols(d, RegressionSpec("y", ("x",)))

    def test_explicit_sample_honored(self, uk_data):
        spec = RegressionSpec(
            "it", ("const", "inflation_gap", "output_gap"),
            sample=(Quarter(1991, 1), Quarter(2020, 1)),
        )
        assert fit_ols(uk_data, spec).n_obs == 117

    def test_constant_position_follows_spec_order(self, us_data):
        head = fit_ols(us_data, RegressionSpec("it", ("const", "inflation_gap")))
        tail = fit_ols(us_data, RegressionSpec("it", ("inflation_gap", "const")))
        assert head.labels == ("C", "inflation_gap")
        assert tail.labels == ("inflation_gap", "C")
        assert head.coef("C") == pytest.approx(tail.coef("C"), abs=1e-12)

    def test_hac_covariance_leaves_point_estimates_unchanged(self, us_data):
        spec_c = RegressionSpec("it", ("inflation_gap", "output_gap", "s", "const"))
        spec_h = RegressionSpec(
            "it", ("inflation_gap", "output_gap", "s", "const"), covariance=HacConfig()
        )
        a, b = fit_ols(us_data, spec_c), fit_ols(us_data, spec_h)
        assert np.allclose(a.coefficients, b.coefficients, atol=0)
        assert not np.allclose(a.std_errors, b.std_errors)

    def test_f_of_a_regressor_orthogonal_to_y_is_zero(self):
        # x is orthogonal to y - mean, so the regression explains nothing and
        # the SSR rounds above the TSS: an unclamped F is below zero
        x = [1, 1, -1, -1, 1, 1, -1, -1]
        d = _toy_dataset({"y": [2, 0, 2, 0, 2, 0, 2, 0], "x": x})
        fit = fit_ols(d, RegressionSpec("y", ("x",)))
        assert 0.0 <= fit.f_statistic < 1e-12
        assert fit.f_prob == pytest.approx(1.0, abs=1e-12)

    def test_f_when_r2_rounds_to_one(self):
        # SSR is about 1e-20 of the TSS, so R^2 is 1.0, yet the fit is not
        # exact: F is the SSR difference over the SSR, not R^2 / (1 - R^2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        y = 1000.0 * x + 5.0 + 1e-6 * rng.normal(size=100)
        fit = fit_ols(_toy_dataset({"y": y, "x": x}), RegressionSpec("y", ("x",)))
        assert fit.r2 == 1.0
        tss = float(np.sum((y - y.mean()) ** 2))
        assert fit.f_statistic == pytest.approx((tss - fit.ssr) / (fit.ssr / 98), rel=1e-12)
        assert 1e19 < fit.f_statistic < 1e20 and fit.f_prob == 0.0
        lines = render_table(fit).splitlines()
        assert lines[-2].split() == ["F-statistic", "7.22596e+19"]
        assert lines[-1].split() == ["Prob(F-statistic)", "0.0000"]
        payload = json.loads(render_table(fit, "json"))
        assert payload["f_statistic"] == fit.f_statistic and payload["f_prob"] == 0.0
