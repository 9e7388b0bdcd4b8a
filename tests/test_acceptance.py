"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single PASS/FAIL line on the terminal (bypassing
capture) so a full run yields a compact scoreboard, then asserts.
Tolerances: coefficients and standard errors within 0.005 absolute or
1% relative, test statistics within 1.5% relative, p-values within
0.005 absolute, summary statistics within 1% relative.
"""

import math

import numpy as np
import pytest

from taylorlab import dist
from taylorlab.diagnostics import jarque_bera_test
from taylorlab.gmm import GmmSpec, fit_linear_gmm
from taylorlab.hac import newey_west_cov, default_bandwidth
from taylorlab.ols import RegressionSpec, build_design, fit_ols
from taylorlab.report import compare_golden, load_golden
from taylorlab.tables import run_table
from taylorlab.transform import hp_filter_gap
from taylorlab.series import Quarter, Series


def _coef(obs, exp):
    return abs(obs - exp) <= 0.005 or abs(obs - exp) <= 0.01 * abs(exp)


def _stat(obs, exp):
    return abs(obs - exp) <= 0.015 * abs(exp)


def _pval(obs, exp):
    return abs(obs - exp) <= 0.005


def _summary(obs, exp):
    return abs(obs - exp) <= 0.01 * abs(exp)


@pytest.fixture()
def check(capsys, request):
    def _check(label, ok):
        assert ok, f"acceptance check failed: {label}"

    yield _check
    rep = getattr(request.node, "rep_call", None)
    verdict = "PASS" if rep is not None and rep.passed else "FAIL"
    name = request.node.name.removeprefix("test_")
    with capsys.disabled():
        print(f"[acceptance] {name}: {verdict}")


def test_table01_us_baseline_ols(us_data, check):
    fit = run_table(1, us_data)
    check("inflation", _coef(fit.coef("inflation_gap"), 0.906309))
    check("output", _coef(fit.coef("output_gap"), 0.454512))
    check("const", _coef(fit.coef("C"), 2.451161))
    check("r2", _summary(fit.r2, 0.309850))
    check("dw", _summary(fit.durbin_watson, 0.147860))
    check("aic", _summary(fit.aic, 4.082172))
    check("f", _summary(fit.f_statistic, 25.59074))
    check("golden", compare_golden(fit, load_golden(1)).passed)


def test_table10_uk_baseline_ols(uk_data, check):
    fit = run_table(10, uk_data)
    check("inflation", _coef(fit.coef("inflation_gap"), 1.256408))
    check("output", _coef(fit.coef("output_gap"), 0.514578))
    check("const", _coef(fit.coef("C"), 3.458729))
    check("r2", _summary(fit.r2, 0.292768))
    check("dw", _summary(fit.durbin_watson, 0.048907))
    check("golden", compare_golden(fit, load_golden(10)).passed)


def test_tables_02_11_wald(us_data, uk_data, check):
    us = run_table(2, us_data)
    uk = run_table(11, uk_data)
    check("us_f", _stat(us.stat("F").value, 3.142641))
    check("us_chi2", _stat(us.stat("chi2").value, 6.285282))
    check("uk_f", _stat(uk.stat("F").value, 97.68412))
    check("uk_chi2", _stat(uk.stat("chi2").value, 195.3682))
    us_details = dict(us.details)
    check("us_restriction1", _coef(us_details["restriction:1"], 0.406309))
    check("us_restriction2", _coef(us_details["restriction:2"], -0.045488))
    check("golden_us", compare_golden(us, load_golden(2)).passed)
    check("golden_uk", compare_golden(uk, load_golden(11)).passed)


def test_tables_03_04_12_chow(us_data, uk_data, check):
    us03 = run_table(3, us_data)
    us06 = run_table(4, us_data)
    uk06 = run_table(12, uk_data)
    check("us_2003_f", _stat(us03.stat("F").value, 56.80770))
    check("us_2003_wald", _stat(us03.stat("chi2").value, 170.4231))
    check("us_2003_lr", _stat(us03.stat("LR").value, 108.8485))
    check("us_2006_f", _stat(us06.stat("F").value, 30.36553))
    check("uk_2006_f", _stat(uk06.stat("F").value, 164.4359))
    check("uk_2006_wald", _stat(uk06.stat("chi2").value, 493.3077))
    for rep in (us03, us06, uk06):
        check(
            "wald_is_3f",
            rep.stat("chi2").value == pytest.approx(3 * rep.stat("F").value, rel=1e-12),
        )
    for tid, rep in ((3, us03), (4, us06), (12, uk06)):
        check(f"golden_{tid}", compare_golden(rep, load_golden(tid)).passed)


def test_tables_05_13_augmented_lagged_stock(us_data, uk_data, check):
    us = run_table(5, us_data)
    uk = run_table(13, uk_data)
    check("us_s_coef", _coef(us.coef("s(-1)"), 0.011777))
    check("us_s_t", _stat(us.t_stats[us.labels.index("s(-1)")], 0.973657))
    check("us_s_p", _pval(us.p_values[us.labels.index("s(-1)")], 0.3323))
    check("us_adj_r2", _summary(us.adj_r2, 0.284894))
    check("uk_s_coef", _coef(uk.coef("s(-1)"), 0.025447))
    check("uk_s_t", _stat(uk.t_stats[uk.labels.index("s(-1)")], 1.437320))
    check("uk_s_p", _pval(uk.p_values[uk.labels.index("s(-1)")], 0.1534))
    check("golden_us", compare_golden(us, load_golden(5)).passed)
    check("golden_uk", compare_golden(uk, load_golden(13)).passed)


def test_tables_06_14_white(us_data, uk_data, check):
    us = run_table(6, us_data)
    uk = run_table(14, uk_data)
    check("us_f", _stat(us.stat("F").value, 4.178675))
    check("us_obs_r2", _stat(us.stat("obs_r2").value, 30.42807))
    check("us_f_df", us.stat("F").df == (9, 107))
    check("us_chi2_df", us.stat("obs_r2").df == (9,))
    check("uk_f", _stat(uk.stat("F").value, 4.223505))
    check("uk_obs_r2", _stat(uk.stat("obs_r2").value, 30.66894))
    check("golden_us", compare_golden(us, load_golden(6)).passed)
    check("golden_uk", compare_golden(uk, load_golden(14)).passed)


def test_tables_07_15_breusch_godfrey(us_data, uk_data, check):
    us = run_table(7, us_data)
    uk = run_table(15, uk_data)
    check("us_f", _stat(us.stat("F").value, 650.9373))
    check("us_obs_r2", _stat(us.stat("obs_r2").value, 99.82428))
    check("uk_f", _stat(uk.stat("F").value, 1702.731))
    check("uk_obs_r2", _stat(uk.stat("obs_r2").value, 109.7791))
    check("golden_us", compare_golden(us, load_golden(7)).passed)
    check("golden_uk", compare_golden(uk, load_golden(15)).passed)


def test_tables_08_16_newey_west(us_data, uk_data, check):
    us = run_table(8, us_data)
    uk = run_table(16, uk_data)
    plain = fit_ols(
        us_data, RegressionSpec("it", ("inflation_gap", "output_gap", "s", "const"))
    )
    for lab, exp in zip(us.labels, (0.303483, 0.310041, 0.020404, 0.307917)):
        check(f"us_se_{lab}", _coef(us.std_errors[us.labels.index(lab)], exp))
    check("points_unchanged", np.allclose(us.coefficients, plain.coefficients, atol=0))
    check("uk_inflation_t", _stat(uk.t_stats[uk.labels.index("inflation_gap")], 3.920280))
    check("bandwidth_117", default_bandwidth(117) == 5)
    check("bandwidth_115", default_bandwidth(115) == 5)
    check("golden_us", compare_golden(us, load_golden(8)).passed)
    check("golden_uk", compare_golden(uk, load_golden(16)).passed)


def test_tables_09_17_gmm(us_data, uk_data, check):
    us = run_table(9, us_data)
    uk = run_table(17, uk_data)
    for lab, exp in (
        ("C", 2.807578),
        ("inflation_gap", 0.807066),
        ("output_gap", 0.931545),
        ("s", -0.052630),
    ):
        check(f"us_{lab}", _coef(us.coef(lab), exp))
    check("us_j", _stat(us.j_statistic, 3.683003))
    check("us_j_prob", _pval(us.j_prob, 0.054970))
    check("us_rank", us.instrument_rank == 5)
    check("us_nobs", us.n_obs == 115)
    check("uk_j", _stat(uk.j_statistic, 2.397154))
    check("uk_j_prob", _pval(uk.j_prob, 0.121556))
    check("golden_us", compare_golden(us, load_golden(9)).passed)
    check("golden_uk", compare_golden(uk, load_golden(17)).passed)


def test_us_jarque_bera_rejects_normality(us_data, check):
    # Oracle: the residuals of the coefficients printed in table 8, tested by
    # scipy, so neither the program's OLS solve nor its JB routine is used.
    # They give JB = 5.836, p = 0.054: normality is rejected at 10% but not
    # at 5%. The printed table therefore rules out the 5.99 (5%) bound this
    # test once asserted; over the rounding box of the printed coefficients
    # JB stays within 5.83580-5.83589.
    import scipy.stats

    fit = run_table(8, us_data)
    golden = load_golden(8)
    b_printed = np.array([golden.cells[f"coef:{lab}"].expected for lab in fit.labels])
    y, X, _ = build_design(us_data, fit.spec)
    oracle = scipy.stats.jarque_bera(y - X @ b_printed)
    rep = jarque_bera_test(fit.residuals)
    check("jb_stat", _stat(rep.stat("jb").value, oracle.statistic))
    check("jb_p", _pval(rep.stat("jb").p, oracle.pvalue))


def test_uk_jarque_bera_p_value(uk_data, check):
    rep = jarque_bera_test(run_table(16, uk_data).residuals)
    check("p_near_0.016", abs(rep.stat("jb").p - 0.016) <= 0.003)


def test_property_suites(us_data, check):
    rng = np.random.default_rng(99)

    # OLS orthogonality and exact-rational agreement are exercised in depth
    # in the unit suite; re-assert the headline invariants here.
    fit = fit_ols(us_data, RegressionSpec("it", ("inflation_gap", "output_gap", "const")))
    e = np.asarray(fit.residuals.values)
    check("ols_orthogonality", np.max(np.abs(fit.x_matrix.T @ e)) < 1e-8)

    X = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
    u = rng.normal(size=40)
    hc0 = np.linalg.inv(X.T @ X) @ (
        (X * (u**2)[:, None]).T @ X
    ) @ np.linalg.inv(X.T @ X)
    check(
        "hac_m1_is_hc0",
        np.allclose(newey_west_cov(X, u, 1), hc0 * 40 / 37, atol=1e-12),
    )
    V = newey_west_cov(X, u, 5)
    check("hac_psd", np.linalg.eigvalsh(V).min() >= -1e-12)

    from taylorlab.series import Dataset

    cols = {n: rng.normal(size=50) for n in ("y", "x")}
    toy = Dataset(
        "toy", {k: Series(k, Quarter(2000, 1), tuple(v)) for k, v in cols.items()}
    )
    base = RegressionSpec("y", ("const", "x"))
    gmm = fit_linear_gmm(toy, GmmSpec(base, ("x",), weighting=None))
    ols = fit_ols(toy, base)
    check(
        "just_identified_gmm_is_ols",
        np.allclose(gmm.coefficients, ols.coefficients, atol=1e-8),
    )
    check("just_identified_j_zero", abs(gmm.j_statistic) < 1e-8)

    vals = rng.uniform(80, 120, size=30)
    n = len(vals)
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i : i + 3] = [1.0, -2.0, 1.0]
    trend = np.linalg.solve(np.eye(n) + 1600.0 * D.T @ D, np.log(vals))
    dense = 100.0 * (np.log(vals) - trend)
    hp = hp_filter_gap(Series("gdp", Quarter(2000, 1), tuple(vals)), 1600.0)
    check("hp_matches_dense_oracle", np.allclose(hp.values, dense, atol=1e-8))
    linear = [100.0 * math.exp(0.015 * t) for t in range(30)]
    flat = hp_filter_gap(Series("gdp", Quarter(2000, 1), tuple(linear)), 1600.0)
    check("hp_annihilates_linear_trend", np.max(np.abs(flat.values)) < 1e-8)

    import scipy.integrate
    import scipy.stats

    ok = True
    for df in (1, 4, 20):
        x = 1.7
        quad, _ = scipy.integrate.quad(
            lambda u: scipy.stats.chi2.pdf(u, df), 0, x, limit=200
        )
        ok &= abs(dist.chi2_sf(x, df) - (1 - quad)) < 1e-8
    check("dist_vs_quadrature", ok)
    ok = True
    for t in (0.4, 1.2, 2.8):
        ok &= abs(
            dist.chi2_sf(t * t, 1) - 2 * (1 - dist.normal_cdf(t))
        ) < 1e-12
    check("chi2_df1_vs_normal", ok)


def test_information_criteria_printed_identities(check):
    # Table 1 printed block: logL, T and k reproduce the printed criteria
    # to the fourth decimal.
    ll, T, k = -235.8071, 117, 3
    check("aic", round((-2 * ll + 2 * k) / T, 4) == round(4.082172, 4))
    check("schwarz", round((-2 * ll + k * math.log(T)) / T, 4) == round(4.152997, 4))
    check(
        "hannan_quinn",
        round((-2 * ll + 2 * k * math.log(math.log(T))) / T, 4) == round(4.110926, 4),
    )
