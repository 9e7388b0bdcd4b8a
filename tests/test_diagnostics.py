import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import diagnostics, dist, ols
from taylorlab.diagnostics import (
    _distinct_columns,
    _lm_test,
    breusch_godfrey_test,
    chow_breakpoint_test,
    jarque_bera_test,
    wald_test,
    white_test,
)
from taylorlab.errors import (
    CollinearityError, ConfigError, DomainError, SampleError, TaylorLabError,
)
from taylorlab.hac import HacConfig
from taylorlab.ols import RegressionSpec, fit_ols
from taylorlab.series import Dataset, Quarter, Series
from taylorlab.tables import baseline_spec, run_table


def _toy_dataset(columns: dict, start=Quarter(2000, 1)) -> Dataset:
    return Dataset(
        "toy", {k: Series(k, start, tuple(v)) for k, v in columns.items()}
    )


def _random_fit(rng, T=50):
    d = _toy_dataset({n: rng.normal(size=T) for n in ("y", "x1", "x2")})
    return fit_ols(d, RegressionSpec("y", ("x1", "x2")))


def _exact_white_columns(rng, T):
    """y, x1, x2 whose least-squares residuals are e, with x1 = e^2: e is
    a half and its negative (so sum e = sum e^3 = 0), x2 is orthogonal to
    e, and an odd T adds one zero."""
    base = rng.normal(size=T // 2)
    e = np.concatenate([base, -base, np.zeros(T % 2)])
    z = rng.normal(size=T)
    x1, x2 = e * e, z - (z @ e) / (e @ e) * e
    return {"y": 1.0 + 0.5 * x1 - 0.3 * x2 + e, "x1": x1, "x2": x2}


class TestWald:
    def test_zero_at_unrestricted_estimate(self):
        fit = _random_fit(np.random.default_rng(51))
        R = np.eye(fit.n_params)
        rep = wald_test(fit, R, fit.coefficients)
        assert rep.stat("chi2").value == pytest.approx(0.0, abs=1e-12)
        assert rep.stat("F").p == pytest.approx(1.0, abs=1e-12)

    def test_row_scaling_invariance(self):
        fit = _random_fit(np.random.default_rng(52))
        R = np.array([[1.0, -1.0, 0.0]])
        a = wald_test(fit, R, np.array([0.2]))
        b = wald_test(fit, 7.0 * R, np.array([1.4]))
        assert a.stat("chi2").value == pytest.approx(b.stat("chi2").value, rel=1e-12)

    def test_single_restriction_f_equals_t_squared(self):
        fit = _random_fit(np.random.default_rng(53))
        R = np.zeros((1, fit.n_params))
        R[0, 0] = 1.0
        rep = wald_test(fit, R, np.array([0.0]))
        assert rep.stat("F").value == pytest.approx(fit.t_stats[0] ** 2, rel=1e-10)
        assert rep.stat("F").p == pytest.approx(fit.p_values[0], abs=1e-12)

    def test_rank_deficient_restrictions_rejected(self):
        fit = _random_fit(np.random.default_rng(54))
        R = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DomainError):
            wald_test(fit, R, np.zeros(2))

    def test_shape_mismatch_rejected(self):
        fit = _random_fit(np.random.default_rng(55))
        with pytest.raises(DomainError):
            wald_test(fit, np.eye(5), np.zeros(5))

    @pytest.mark.parametrize("R,r", [
        ([[0.0, np.nan, 0.0]], [0.0]),
        ([[0.0, 1.0, 0.0]], [np.nan]),
        ([[0.0, np.inf, 0.0]], [0.0]),
        ([[0.0, 1.0, 0.0]], [-np.inf]),
    ], ids=["nan-R", "nan-r", "inf-R", "inf-r"])
    def test_non_finite_restrictions_rejected(self, R, r):
        fit = _random_fit(np.random.default_rng(57))
        with pytest.raises(DomainError, match="restrictions must be finite"):
            wald_test(fit, np.array(R), np.array(r))

    def test_overflowing_statistic_rejected(self):
        fit = _random_fit(np.random.default_rng(56))
        R = np.array([[0.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(DomainError, match="not finite"):
                wald_test(fit, R, np.array([1e300]))

    def test_uk_equal_weights_restriction(self, uk_data):
        fit = fit_ols(uk_data, baseline_spec("uk"))
        R = np.zeros((2, fit.n_params))
        R[0, 0] = R[1, 1] = 1.0
        rep = wald_test(fit, R, np.array([0.5, 0.5]))
        assert rep.stat("chi2").value == pytest.approx(195.3682, rel=0.015)
        assert rep.stat("F").value == pytest.approx(97.68412, rel=0.015)
        details = dict(rep.details)
        assert details["restriction:1"] == pytest.approx(2.958729, abs=5e-3)
        assert details["restriction_se:2"] == pytest.approx(0.186942, abs=5e-3)


class TestChow:
    def test_us_2003_break(self, us_data):
        rep = chow_breakpoint_test(us_data, baseline_spec("us"), Quarter(2003, 1))
        assert rep.stat("F").value == pytest.approx(56.8077, rel=0.015)
        assert rep.stat("LR").value == pytest.approx(108.8485, rel=0.015)
        assert rep.stat("chi2").value == pytest.approx(170.4231, rel=0.015)
        assert rep.stat("F").p == pytest.approx(0.0, abs=5e-3)

    def test_wald_form_is_k_times_f(self, us_data):
        spec = baseline_spec("us")
        rep = chow_breakpoint_test(us_data, spec, Quarter(2006, 1))
        k = len(spec.regressors)
        assert rep.stat("chi2").value == pytest.approx(
            k * rep.stat("F").value, rel=1e-12
        )

    def test_stable_relationship_gives_insignificant_f(self):
        rng = np.random.default_rng(56)
        T = 200
        x = rng.normal(size=T)
        d = _toy_dataset({"y": 1.0 + 2.0 * x + 0.01 * rng.normal(size=T), "x": x})
        rep = chow_breakpoint_test(
            d, RegressionSpec("y", ("x",)), Quarter(2025, 1)
        )
        assert rep.stat("F").p > 0.01

    def test_breakpoint_outside_sample(self, us_data):
        with pytest.raises(SampleError):
            chow_breakpoint_test(us_data, baseline_spec("us"), Quarter(1985, 1))

    def test_subsample_too_small(self):
        rng = np.random.default_rng(57)
        d = _toy_dataset({"y": rng.normal(size=20), "x": rng.normal(size=20)})
        with pytest.raises(SampleError, match="2 parameters over the regime 2000Q1..2000Q1$"):
            chow_breakpoint_test(d, RegressionSpec("y", ("x",)), Quarter(2000, 2))

    @pytest.mark.parametrize("break_at", [Quarter(1995, 1), Quarter(2003, 1), Quarter(2016, 4)])
    def test_regimes_match_separate_fits(self, us_data, break_at):
        # each regime solved on its rows of the pooled design equals a full
        # fit over the regime's own sample
        spec = baseline_spec("us")
        pooled = fit_ols(us_data, spec)
        start, end = pooled.sample
        fit1 = fit_ols(us_data, RegressionSpec(spec.dependent, spec.regressors,
                                               sample=(start, break_at.offset(-1))))
        fit2 = fit_ols(us_data, RegressionSpec(spec.dependent, spec.regressors,
                                               sample=(break_at, end)))
        k, T = pooled.n_params, pooled.n_obs
        F = ((pooled.ssr - fit1.ssr - fit2.ssr) / k) / ((fit1.ssr + fit2.ssr) / (T - 2 * k))
        lr = 2.0 * (fit1.log_likelihood + fit2.log_likelihood - pooled.log_likelihood)
        rep = chow_breakpoint_test(us_data, spec, break_at)
        assert rep.stat("F").value == pytest.approx(F, rel=1e-12)
        assert rep.stat("LR").value == pytest.approx(lr, rel=1e-12)
        assert rep.stat("F").df == (k, T - 2 * k)
        assert rep.stat("LR").df == rep.stat("chi2").df == (k,)

    @pytest.mark.parametrize("cov", [HacConfig(1), HacConfig(5), HacConfig(10**17)],
                             ids=["hac1", "hac5", "hac1e17"])
    def test_report_does_not_depend_on_covariance(self, us_data, cov):
        # built from SSRs alone; at 1e17 every Bartlett weight rounds to 1,
        # so the pooled fit's moment covariance is singular
        spec = baseline_spec("us")
        hac = RegressionSpec(spec.dependent, spec.regressors, covariance=cov)
        if cov.bandwidth == 10**17:
            with pytest.raises(CollinearityError, match="singular moment covariance"):
                fit_ols(us_data, hac)
        for q in (Quarter(2003, 1), Quarter(2006, 1)):
            assert chow_breakpoint_test(us_data, hac, q) == chow_breakpoint_test(us_data, spec, q)

    def test_pooled_model_is_solved_not_fitted(self, us_data, monkeypatch):
        hac = run_table(8, us_data).spec
        calls = []

        def counting_fit_ols(*args):
            calls.append(args)
            return fit_ols(*args)

        monkeypatch.setattr(ols, "fit_ols", counting_fit_ols)
        monkeypatch.setattr(diagnostics, "fit_ols", counting_fit_ols, raising=False)
        chow_breakpoint_test(us_data, hac, Quarter(2003, 1))
        assert calls == []

    def test_negative_lr_takes_the_tail_at_zero(self):
        # two identical regimes fit exactly as well as the pooled model, so
        # LR is zero in exact arithmetic; here it rounds to about -8.9e-15
        rng = np.random.default_rng(4)
        x = rng.normal(size=20)
        y = 1.0 + 2.0 * x + rng.normal(size=20)
        d = _toy_dataset({"y": np.tile(y, 2), "x": np.tile(x, 2)})
        lr = chow_breakpoint_test(d, RegressionSpec("y", ("x",)), Quarter(2005, 1)).stat("LR")
        assert np.isfinite(lr.value)
        assert lr.p == pytest.approx(1.0, abs=1e-12)

    def test_pooled_exact_fit_raises(self):
        rng = np.random.default_rng(66)
        x = rng.normal(size=40)
        d = _toy_dataset({"y": 1.0 + 2.0 * x, "x": x})
        with pytest.raises(CollinearityError, match="regressors$"):
            chow_breakpoint_test(d, RegressionSpec("y", ("x",)), Quarter(2005, 1))

    def test_regime_exact_fit_of_cancelling_terms_raises(self):
        # the first six quarters are the exact fit of
        # tests/test_ols.py::TestFitOls::test_exact_fit_of_cancelling_terms_rejected
        rng = np.random.default_rng(67)
        x1 = np.r_[3.0, -1.0, 4.0, 1.0, -5.0, 9.0, rng.normal(size=24)]
        x2 = x1 + np.r_[1e-3 * np.array([2.0, 7.0, -1.0, 8.0, 2.0, -8.0]), rng.normal(size=24)]
        y = 1e5 * x1 - 1e5 * x2 + 0.5 + np.r_[np.zeros(6), rng.normal(size=24)]
        d = _toy_dataset({"y": y, "x1": x1, "x2": x2})
        with pytest.raises(CollinearityError, match="over the regime 2000Q1..2001Q2$"):
            chow_breakpoint_test(d, RegressionSpec("y", ("x1", "x2")), Quarter(2001, 3))

    def test_regime_collinearity_names_column(self):
        # a dummy that is zero before the break is collinear in regime one
        rng = np.random.default_rng(65)
        dummy = np.r_[np.zeros(10), np.ones(10)] + np.r_[np.zeros(10), rng.normal(size=10)]
        d = _toy_dataset({"y": rng.normal(size=20), "x": rng.normal(size=20), "dummy": dummy})
        with pytest.raises(CollinearityError, match="dummy"):
            chow_breakpoint_test(d, RegressionSpec("y", ("x", "dummy")), Quarter(2002, 3))


def _chow_by_system(d, spec, break_at):
    """Chow's F, LR and Wald form with each system fitted alone, in the
    error order of ``chow_breakpoint_test``: the pooled model, the
    breakpoint, then each regime's size, every system's rank and each
    system's exact fit."""
    y, X, (start, end) = ols.build_design(d, spec)
    T, k = X.shape
    ols.reject_unidentified(T, k)
    if not start < break_at <= end:
        raise SampleError(f"breakpoint {break_at} outside sample {start}..{end}")
    n1 = break_at - start
    systems = [
        (slice(None), ""),
        (slice(None, n1), f" over the regime {start}..{break_at.offset(-1)}"),
        (slice(n1, None), f" over the regime {break_at}..{end}"),
    ]
    for rows, where in systems[1:]:
        ols.reject_unidentified(len(y[rows]), k, where)
    labels = [t.label for t in spec.regressors]
    betas = [ols.solve_ols(X[rows], y[rows], labels) for rows, _ in systems]
    ssrs = []
    for (rows, where), beta in zip(systems, betas):
        e = y[rows] - X[rows] @ beta
        ssrs.append(float(e @ e))
        ols.reject_exact_fit(ssrs[-1], X[rows], beta, where)
    ssr, ssr1, ssr2 = ssrs
    F = max(ssr - ssr1 - ssr2, 0.0) / k / ((ssr1 + ssr2) / (T - 2 * k))
    lr = 2.0 * sum(ols.log_likelihood(s, n) for s, n in ((ssr1, n1), (ssr2, T - n1)))
    lr -= 2.0 * ols.log_likelihood(ssr, T)
    return F, lr, k * F


def _chow_outcome(test, d, spec, break_at):
    try:
        return test(d, spec, break_at)
    except TaylorLabError as exc:
        return type(exc).__name__, str(exc)


class TestChowStack:
    """The stacked Chow test against each system fitted alone, on drawn
    designs and breaks: the same statistics up to rounding, and the same
    error, type, text and order, for regimes of the minimum size, rank
    deficient regimes and regimes that are exact fits."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1), regs=st.integers(1, 3), constant=st.booleans(),
        # any break, or one that leaves a regime of k or k + 1 quarters, or
        # one outside the sample
        where=st.sampled_from(["any", "any", "any", "k", "k+1", "T-k", "T-k-1", "outside"]),
        # y an exact fit, or x0 zero, over the pooled sample or a regime
        fault=st.sampled_from([None, None, None, "exact", "zero"]), system=st.integers(0, 2),
        scale=st.sampled_from([1e-6, 1.0, 1e6]), short=st.booleans(),
    )
    def test_matches_each_system_fitted_alone(
        self, seed, regs, constant, where, fault, system, scale, short
    ):
        rng = np.random.default_rng(seed)
        # a short sample can leave both regimes too small
        T, k = int(rng.integers(4, 9) if short else rng.integers(9, 61)), regs + constant
        at = {
            "any": int(rng.integers(1, T)), "k": k, "k+1": k + 1, "T-k": T - k,
            "T-k-1": T - k - 1, "outside": int(rng.choice([-1, 0, T, T + 1])),
        }[where]
        names = [f"x{j}" for j in range(regs)]
        X = scale * rng.normal(size=(T, regs))
        y = X @ rng.normal(size=regs) + 0.5 + scale * rng.normal(size=T)
        start = Quarter(2000, 1)
        rows = [slice(None), slice(None, max(at, 0)), slice(max(at, 0), None)][system]
        if fault == "exact":
            y[rows] = X[rows] @ np.arange(1.0, regs + 1) + 0.5 * constant
        elif fault == "zero":
            X[rows, 0] = 0.0
        d = _toy_dataset({"y": y, **dict(zip(names, X.T))}, start)
        spec = RegressionSpec("y", names, include_constant=constant)
        break_at = start.offset(at)
        got = _chow_outcome(chow_breakpoint_test, d, spec, break_at)
        want = _chow_outcome(_chow_by_system, d, spec, break_at)
        if isinstance(want[0], str):
            assert got == want
        else:
            stats = tuple(got.stat(form).value for form in ("F", "LR", "chi2"))
            # F and its Wald form within 1e-9 max(1, |F|) of the reference,
            # LR within 1e-9 max(T, |LR|)
            assert stats[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)
            assert stats[2] == pytest.approx(want[2], rel=1e-9, abs=1e-9)
            assert stats[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9 * T)

    @pytest.mark.parametrize("noise", [3, 50])
    def test_regime_exact_fit_rule_counts_its_own_quarters(self, noise):
        # the rule SSR <= (eps n)^2 |f|^2 for the n = 6 quarters of regime
        # one, not the T = 400 of the stack: residuals of norm 3 eps |f| are
        # an exact fit, of 50 eps |f| are not, as for a fit of those quarters
        rng = np.random.default_rng(68)
        x, y = rng.normal(size=400), rng.normal(size=400)
        f = np.abs(x[:6]) * 2.0 + 1.0
        z = rng.normal(size=6)
        z -= np.column_stack([np.ones(6), x[:6]]) @ np.linalg.lstsq(
            np.column_stack([np.ones(6), x[:6]]), z, rcond=None)[0]
        y[:6] = 1.0 + 2.0 * x[:6] + noise * np.finfo(float).eps * np.linalg.norm(f) * z / np.linalg.norm(z)
        d, spec = _toy_dataset({"y": y, "x": x}), RegressionSpec("y", ("x",))
        alone = RegressionSpec("y", ("x",), sample=(Quarter(2000, 1), Quarter(2001, 2)))
        if noise == 3:
            for test in (lambda: fit_ols(d, alone),
                         lambda: chow_breakpoint_test(d, spec, Quarter(2001, 3))):
                with pytest.raises(CollinearityError, match="combination of the regressors"):
                    test()
        else:
            assert fit_ols(d, alone).ssr > 0
            assert np.isfinite(chow_breakpoint_test(d, spec, Quarter(2001, 3)).stat("F").value)


def _aux_obs_r2(Xa, y_aux):
    beta, *_ = np.linalg.lstsq(Xa, y_aux, rcond=None)
    resid = y_aux - Xa @ beta
    tss = np.sum((y_aux - y_aux.mean()) ** 2)
    return len(y_aux) * (1.0 - resid @ resid / tss)


def _lstsq_ssr(X, y):
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    return float(resid @ resid)


def _allclose_keep(Xa):
    """White's column dedupe as first written, one np.allclose per pair of
    columns: the reference for ``_distinct_columns``."""
    keep = []
    for i in range(Xa.shape[1]):
        if all(not np.allclose(Xa[:, i], Xa[:, j]) for j in keep):
            keep.append(i)
    return keep


class TestWhite:
    def test_matches_brute_force_aux_regression(self):
        rng = np.random.default_rng(58)
        fit = _random_fit(rng, T=45)
        rep = white_test(fit)
        X, e = fit.x_matrix, np.asarray(fit.residuals.values)
        x1, x2 = X[:, 0], X[:, 1]
        Xa = np.column_stack(
            [np.ones(45), x1, x2, x1 * x1, x2 * x2, x1 * x2]
        )
        assert rep.stat("obs_r2").value == pytest.approx(
            _aux_obs_r2(Xa, e * e), rel=1e-10
        )
        assert rep.stat("obs_r2").df == (5,)

    def test_dummy_square_is_dropped(self):
        rng = np.random.default_rng(67)
        T = 60
        x, dummy = rng.normal(size=T), (rng.random(T) < 0.4).astype(float)
        d = _toy_dataset({"y": x + dummy + rng.normal(size=T), "x": x, "d": dummy})
        fit = fit_ols(d, RegressionSpec("y", ("x", "d")))
        rep = white_test(fit)
        e = np.asarray(fit.residuals.values)
        # d * d equals d, so the auxiliary regression has no d**2 column
        Xa = np.column_stack([np.ones(T), x, dummy, x * x, x * dummy])
        assert rep.stat("obs_r2").df == (4,)
        assert rep.stat("F").df == (4, T - 5)
        assert rep.stat("obs_r2").value == pytest.approx(_aux_obs_r2(Xa, e * e), rel=1e-10)

    @pytest.mark.parametrize("eps,df", [(5e-6, 4), (5e-5, 5)], ids=["inside-rtol", "outside-rtol"])
    def test_near_duplicate_column(self, eps, df):
        # x2 is x1**2 scaled row by row by 1 + eps*u, u in [0.5, 1] (a common
        # factor would make the kept pair exactly collinear): the auxiliary
        # x1**2 column is dropped as a duplicate of x2 only when eps is
        # within np.allclose's rtol of 1e-5
        rng = np.random.default_rng(68)
        T = 60
        x1 = rng.normal(size=T)
        x2 = x1 * x1 * (1.0 + eps * rng.uniform(0.5, 1.0, size=T))
        d = _toy_dataset({"y": x1 + rng.normal(size=T), "x1": x1, "x2": x2})
        fit = fit_ols(d, RegressionSpec("y", ("x1", "x2")))
        rep = white_test(fit)
        e = np.asarray(fit.residuals.values)
        cols = [np.ones(T), x1, x2] + ([] if df == 4 else [x1 * x1]) + [x2 * x2, x1 * x2]
        assert rep.stat("obs_r2").df == (df,)
        assert rep.stat("obs_r2").value == pytest.approx(
            _aux_obs_r2(np.column_stack(cols), e * e), rel=1e-8
        )

    @pytest.mark.parametrize("unit", [1.0, 3.0, 7.7])
    def test_duplicate_rule_is_unit_free(self, unit):
        # a = x1**2 with its largest value just below 1, and x2 = a * (1 + 5e-6):
        # a and x2 peak on either side of a power of two, so a rule applied to
        # columns scaled by powers of two kept both (and the exactly collinear
        # pair then raised) at unit 1 but not at 3 or 7.7; with each column
        # divided by its own largest |x|, the auxiliary a is dropped at every unit
        rng = np.random.default_rng(70)
        T = 60
        a = rng.uniform(0.1, 1.0, size=T)
        a[0] = 1.0 - 1e-7
        x1 = np.sqrt(a) * unit
        x2 = x1 * x1 * (1.0 + 5e-6)
        d = _toy_dataset({"y": x1 + rng.normal(size=T), "x1": x1, "x2": x2})
        fit = fit_ols(d, RegressionSpec("y", ("x1", "x2")))
        rep = white_test(fit)
        e = np.asarray(fit.residuals.values)
        Xa = np.column_stack([np.ones(T), x1, x2, x2 * x2, x1 * x2])
        assert rep.stat("obs_r2").df == (4,)
        assert rep.stat("obs_r2").value == pytest.approx(_aux_obs_r2(Xa, e * e), rel=1e-8)

    def test_keep_set_matches_allclose_loop(self):
        rng = np.random.default_rng(69)
        scales = (1.0, -1.0, 1 + 1e-6, 1 + 5e-6, 1 + 9.99e-6, 1 + 1e-5, 1 - 1e-5,
                  1 + 1.001e-5, 1 + 5e-5)
        shifts = (0.0, 5e-9, 1e-8, 2e-8)
        dropped = 0
        for _ in range(300):
            T, p = int(rng.integers(2, 400)), int(rng.integers(1, 8))
            # the screen's probe rows are every (T // 8)-th, all rows below 16
            off_probe = [r for r in range(T) if r % max(1, T // 8)] or list(range(T))
            # column scales from 1e-9 (within atol of zero) to 1e2
            cols = list(rng.normal(size=(p, T)) * 10.0 ** rng.integers(-9, 3, size=(p, 1)))
            for _ in range(int(rng.integers(0, 7))):
                src = cols[int(rng.integers(len(cols)))]
                kind = int(rng.integers(5))
                if kind == 0:
                    new = [src * rng.choice(scales)]
                elif kind == 1:
                    new = [src + rng.choice(shifts)]
                elif kind == 2:
                    dummy = (src > 0).astype(float)
                    new = [dummy, dummy * dummy]
                elif kind == 3:
                    # a copy that differs on one row, which no probe row sees
                    r = off_probe[int(rng.integers(len(off_probe)))]
                    new = [src.copy()]
                    new[0][r] = src[r] * rng.choice(scales + (2.0,)) + rng.choice(shifts)
                else:
                    new = [np.zeros(T)]
                for c in new:
                    cols.insert(int(rng.integers(len(cols) + 1)), c)
            Xa = np.column_stack(cols)
            keep = _distinct_columns(Xa)
            assert keep == _allclose_keep(Xa)
            dropped += Xa.shape[1] - len(keep)
        assert dropped > 100

    def test_us_published_values(self, us_data):
        rep = white_test(run_table(8, us_data))
        assert rep.stat("F").value == pytest.approx(4.178675, rel=0.015)
        assert rep.stat("obs_r2").value == pytest.approx(30.42807, rel=0.015)
        assert rep.stat("F").df == (9, 107)
        assert rep.stat("obs_r2").p == pytest.approx(0.0004, abs=5e-3)

    def test_uk_published_values(self, uk_data):
        rep = white_test(run_table(16, uk_data))
        assert rep.stat("F").value == pytest.approx(4.223505, rel=0.015)
        assert rep.stat("obs_r2").value == pytest.approx(30.66894, rel=0.015)

    def test_auxiliary_regression_needs_more_rows_than_columns(self):
        # five observations cannot identify the six auxiliary columns
        rng = np.random.default_rng(66)
        fit = _random_fit(rng, T=5)
        with pytest.raises(SampleError, match="5 observations cannot identify 6"):
            white_test(fit)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_auxiliary_fit_raises(self, seed):
        # the residuals are e, and e^2 is the regressor x1: the auxiliary R^2
        # rounds to 1, where F = (r2/q) / ((1 - r2)/(T - p)) divided by zero
        d = _toy_dataset(_exact_white_columns(np.random.default_rng(seed), 60))
        fit = fit_ols(d, RegressionSpec("y", ("x1", "x2")))
        with pytest.raises(CollinearityError, match="in the auxiliary regression"):
            white_test(fit)

    def test_f_when_r2_rounds_to_one(self):
        # SSR is 1e-20 of the TSS, so 1 - r2 is 0, yet the fit is not exact
        rng = np.random.default_rng(67)
        x = rng.normal(size=60)
        u = 1.0 + x + 1e-10 * rng.normal(size=60)
        Xa = np.column_stack([np.ones(60), x])
        beta, *_ = np.linalg.lstsq(Xa, u, rcond=None)
        ssr = float(np.sum((u - Xa @ beta) ** 2))
        tss = float(np.sum((u - u.mean()) ** 2))
        assert 1.0 - ssr / tss == 1.0
        rep = _lm_test("aux", "none", Xa, u, tss, 1)
        assert rep.stat("F").value == pytest.approx(tss / ssr * 58, rel=1e-6)
        assert rep.stat("F").p == 0.0

    def test_lm_test_of_an_unexplained_u_is_zero(self):
        # x is orthogonal to u - mean: the SSR rounds above the TSS
        x = np.array([1, 1, -1, -1, 1, 1, -1, -1.0])
        u = np.array([5, 1, 5, 1, 5, 1, 5, 1.0])
        tss = float(np.sum((u - u.mean()) ** 2))
        rep = _lm_test("aux", "none", np.column_stack([np.ones(8), x]), u, tss, 1)
        assert 0.0 <= rep.stat("F").value < 1e-12
        assert 0.0 <= rep.stat("obs_r2").value < 1e-12
        assert rep.stat("F").p == pytest.approx(1.0, abs=1e-12)
        assert rep.stat("obs_r2").p == pytest.approx(1.0, abs=1e-12)

    def test_one_regressor_matches_brute_force_nested_f(self):
        # the auxiliary design is [1, x, x^2], so q = 2
        rng = np.random.default_rng(59)
        T = 30
        x = rng.normal(size=T)
        d = _toy_dataset({"y": x + (1.0 + x * x) * rng.normal(size=T), "x": x})
        fit = fit_ols(d, RegressionSpec("y", ("x",)))
        rep = white_test(fit)
        u = np.asarray(fit.residuals.values) ** 2
        ssr_r = _lstsq_ssr(np.ones((T, 1)), u)
        ssr_u = _lstsq_ssr(np.column_stack([np.ones(T), x, x * x]), u)
        assert rep.stat("F").df == (2, T - 3)
        assert rep.stat("F").value == pytest.approx(
            (ssr_r - ssr_u) / 2 / (ssr_u / (T - 3)), rel=1e-10
        )
        assert rep.stat("obs_r2").value == pytest.approx(T * (1 - ssr_u / ssr_r), rel=1e-10)

    def test_only_the_constant_survives_the_dedupe(self):
        # without a constant, x = 5 and x^2 = 25 both duplicate the
        # auxiliary constant: q = 0 is a DomainError, not a ZeroDivisionError
        rng = np.random.default_rng(59)
        d = _toy_dataset({"y": rng.normal(size=30), "x": np.full(30, 5.0)})
        fit = fit_ols(d, RegressionSpec("y", ("x",), include_constant=False))
        with pytest.raises(DomainError, match="auxiliary column besides the constant"):
            white_test(fit)


class TestBreuschGodfrey:
    def test_matches_brute_force_aux_regression(self):
        rng = np.random.default_rng(60)
        fit = _random_fit(rng, T=45)
        for lags in (1, 2, 4):
            rep = breusch_godfrey_test(fit, lags=lags)
            e = np.asarray(fit.residuals.values)
            lagged = [
                np.concatenate([np.zeros(j), e[:-j]]) for j in range(1, lags + 1)
            ]
            Xa = np.column_stack([fit.x_matrix] + lagged)
            assert rep.stat("obs_r2").value == pytest.approx(
                _aux_obs_r2(Xa, e), rel=1e-10
            )
            assert rep.stat("obs_r2").df == (lags,)

    def test_us_published_values(self, us_data):
        rep = breusch_godfrey_test(run_table(8, us_data), lags=1)
        assert rep.stat("F").value == pytest.approx(650.9373, rel=0.015)
        assert rep.stat("obs_r2").value == pytest.approx(99.82428, rel=0.015)
        assert rep.stat("F").df == (1, 112)

    def test_uk_published_values(self, uk_data):
        rep = breusch_godfrey_test(run_table(16, uk_data), lags=1)
        assert rep.stat("F").value == pytest.approx(1702.731, rel=0.015)
        assert rep.stat("obs_r2").value == pytest.approx(109.7791, rel=0.015)

    def test_iid_residuals_give_moderate_statistic(self):
        rng = np.random.default_rng(61)
        fit = _random_fit(rng, T=200)
        rep = breusch_godfrey_test(fit, lags=1)
        assert rep.stat("obs_r2").p > 0.001

    def test_invalid_lags(self):
        fit = _random_fit(np.random.default_rng(62))
        with pytest.raises(ConfigError):
            breusch_godfrey_test(fit, lags=0)

    @pytest.mark.parametrize("lags", [1.5, 2.0, float("nan"), "2"])
    def test_non_integer_lags_rejected(self, lags):
        fit = _random_fit(np.random.default_rng(62))
        with pytest.raises(ConfigError, match="lag order must be an integer"):
            breusch_godfrey_test(fit, lags=lags)

    def test_boolean_lags_rejected(self):
        # True ran as one lag, reported as "up to True lag(s)" with df [true, ...] in JSON
        fit = _random_fit(np.random.default_rng(62))
        with pytest.raises(ConfigError, match="lag order must be an integer, got True"):
            breusch_godfrey_test(fit, lags=True)

    def test_sample_too_small_for_lags(self):
        rng = np.random.default_rng(63)
        fit = _random_fit(rng, T=10)
        with pytest.raises(SampleError):
            breusch_godfrey_test(fit, lags=8)


# the non-constant rows of the order-8 Sylvester Hadamard matrix: +-1
# patterns orthogonal to each other and to a constant, also when tiled
_H2 = np.array([[1, 1], [1, -1]])
_WALSH = np.kron(np.kron(_H2, _H2), _H2)[1:]


class TestNestedF:
    """The regression F, Chow, White and Breusch-Godfrey share one F rule,
    the SSR difference clamped at zero; drawn designs, some with a part of
    y exactly orthogonal to every regressor, where the difference rounds
    to either side of zero. y always has a level; a spec drawn without a
    constant leaves it in the residuals, whose mean is then not zero."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        T=st.integers(8, 120),
        k=st.integers(2, 5),
        log_scale=st.floats(-8.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
        walsh=st.booleans(),
        null_slopes=st.booleans(),
        constant=st.booleans(),
    )
    def test_statistics_are_non_negative_and_p_values_are_probabilities(
        self, T, k, log_scale, seed, walsh, null_slopes, constant
    ):
        rng = np.random.default_rng(seed)
        if walsh:
            # regressors and noise are distinct +-1 patterns
            T = 8 * (T // 8)
            rows = rng.choice(len(_WALSH), size=k, replace=False)
            cols = np.tile(_WALSH[rows], T // 8).astype(float)
        else:
            cols = rng.normal(size=(k, T))
        X = np.column_stack([np.ones(T), *cols[1:]])
        beta = rng.normal(size=k)
        if null_slopes:
            beta[1:] = 0.0
        fitted = X @ beta
        y = fitted + 10.0**log_scale * np.sqrt(np.mean(fitted**2)) * cols[0]
        names = [f"x{j}" for j in range(1, k)]
        d = _toy_dataset({"y": y, **dict(zip(names, X[:, 1:].T))})
        spec = RegressionSpec("y", names, include_constant=constant)
        try:
            fit = fit_ols(d, spec)
        except CollinearityError:
            return
        if constant:
            assert np.isfinite(fit.f_statistic) and fit.f_statistic >= 0.0
            assert 0.0 <= fit.f_prob <= 1.0
        if constant and 1.0 - fit.r2 >= 1e-6:
            # continuity with the R^2 form; near R^2 = 0 both are rounding
            old = (fit.r2 / (k - 1)) / ((1.0 - fit.r2) / (T - k))
            assert fit.f_statistic == pytest.approx(old, rel=1e-9, abs=1e-12)

        # Breusch-Godfrey is the nested F of e on X against e on [X, e(-1)]
        Xf, e = fit.x_matrix, np.asarray(fit.residuals.values)
        Xu = np.column_stack([Xf, np.r_[0.0, e[:-1]]])
        ssr_r, ssr_u = _lstsq_ssr(Xf, e), _lstsq_ssr(Xu, e)
        if ssr_u >= 1e-12 * (e @ e):
            try:
                bg = breusch_godfrey_test(fit).stat("F").value
            except CollinearityError:
                pass
            else:
                # the floor is an SSR difference of 1e-9 of e'e, where
                # rounding leaves an F near zero with no relative precision
                scale = ssr_u / (T - Xu.shape[1])
                ref = (ssr_r - ssr_u) / scale
                assert bg == pytest.approx(ref, rel=1e-9, abs=1e-9 * ssr_r / scale)

        tests = [lambda: breusch_godfrey_test(fit)]
        if T > 1 + 2 * (k - 1) + (k - 1) * (k - 2) // 2:  # White's columns
            tests.append(lambda: white_test(fit))
        if T // 2 > k:
            tests.append(lambda: chow_breakpoint_test(d, spec, Quarter(2000, 1).offset(T // 2)))
        for test in tests:
            try:
                rep = test()
            except CollinearityError:
                continue
            for stat in rep.statistics:
                assert 0.0 <= stat.p <= 1.0, (rep.name, stat)
                if stat.form in ("F", "obs_r2"):
                    assert np.isfinite(stat.value) and stat.value >= 0.0, (rep.name, stat)


class TestJarqueBera:
    def test_rademacher_sample(self):
        # skewness 0, kurtosis 1, so the statistic collapses to T/6
        e = Series("e", Quarter(2000, 1), (1.0, -1.0) * 6)
        rep = jarque_bera_test(e)
        assert rep.stat("jb").value == pytest.approx(12 / 6, abs=1e-12)
        assert rep.stat("jb").df == (2,)

    def test_missing_statistic_form_is_a_key_error(self):
        rep = jarque_bera_test(Series("e", Quarter(2000, 1), (1.0, -1.0) * 6))
        with pytest.raises(KeyError) as excinfo:
            rep.stat("F")
        assert excinfo.value.args == ("report 'Jarque-Bera Normality Test' has no 'F' statistic",)

    def test_zero_statistic_sample(self):
        # symmetric with fourth moment ratio exactly 3
        e = Series("e", Quarter(2000, 1), (-1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        rep = jarque_bera_test(e)
        assert rep.stat("jb").value == pytest.approx(0.0, abs=1e-12)
        assert rep.stat("jb").p == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy_oracle(self):
        import scipy.stats

        rng = np.random.default_rng(64)
        for _ in range(5):
            vals = rng.standard_t(df=5, size=80)
            rep = jarque_bera_test(Series("e", Quarter(2000, 1), tuple(vals)))
            stat, p = scipy.stats.jarque_bera(vals)
            assert rep.stat("jb").value == pytest.approx(stat, rel=1e-10)
            assert rep.stat("jb").p == pytest.approx(p, abs=1e-10)

    def test_uk_residuals_reject_normality(self, uk_data):
        fit = run_table(16, uk_data)
        rep = jarque_bera_test(fit.residuals)
        assert rep.stat("jb").p == pytest.approx(0.016, abs=3e-3)

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            jarque_bera_test(Series("e", Quarter(2000, 1), (2.0,) * 10))

    def test_short_sample_rejected(self):
        with pytest.raises(SampleError):
            jarque_bera_test(Series("e", Quarter(2000, 1), (1.0, 2.0, 3.0)))
