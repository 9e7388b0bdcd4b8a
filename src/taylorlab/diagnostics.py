"""Specification tests: Wald, Chow breakpoint, White, Breusch-Godfrey,
Jarque-Bera."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dist
from .errors import ConfigError, DomainError, SampleError
from .ols import CONST, FitResult, RegressionSpec, fit_ols, solve_ols
from .series import Dataset, Quarter, Series


@dataclass(frozen=True)
class TestStatistic:
    form: str  # F | chi2 | LR | obs_r2 | jb
    value: float
    df: tuple[int, ...]
    p: float


@dataclass(frozen=True)
class TestReport:
    name: str
    null_hypothesis: str
    statistics: tuple[TestStatistic, ...]
    # extra labelled scalars (e.g. normalized restriction values)
    details: tuple[tuple[str, float], ...] = ()

    def stat(self, form: str) -> TestStatistic:
        for s in self.statistics:
            if s.form == form:
                return s
        raise KeyError(f"report {self.name!r} has no {form!r} statistic")


def wald_test(fit: FitResult, R: np.ndarray, r: np.ndarray, null: str = "") -> TestReport:
    """Test the linear restrictions R beta = r against the fit's covariance.

    Reports the chi-square form W and the F form W/q with q restrictions.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    q, k = R.shape
    if k != fit.n_params or len(r) != q:
        raise DomainError(
            f"restriction shape {R.shape} does not match {fit.n_params} parameters"
        )
    if np.linalg.matrix_rank(R) < q:
        raise DomainError("restriction matrix is rank deficient")
    dev = R @ fit.coefficients - r
    middle = R @ fit.covariance @ R.T
    W = float(dev @ np.linalg.solve(middle, dev))
    df2 = fit.n_obs - fit.n_params
    details = []
    for i in range(q):
        details.append((f"restriction:{i + 1}", float(dev[i])))
        details.append((f"restriction_se:{i + 1}", math.sqrt(middle[i, i])))
    return TestReport(
        name="Wald Test",
        null_hypothesis=null or "linear restrictions hold",
        statistics=(
            TestStatistic("F", W / q, (q, df2), dist.f_sf(W / q, q, df2)),
            TestStatistic("chi2", W, (q,), dist.chi2_sf(W, q)),
        ),
        details=tuple(details),
    )


def chow_breakpoint_test(d: Dataset, spec: RegressionSpec, break_at: Quarter) -> TestReport:
    """Chow test for a structural break at a known quarter.

    The pre-break regime ends the quarter before ``break_at``; the second
    regime starts at ``break_at``. Reports F, the likelihood ratio, and
    the Wald form k*F.
    """
    pooled = fit_ols(d, spec)
    start, end = pooled.sample
    k = pooled.n_params
    if not (start < break_at <= end):
        raise SampleError(f"breakpoint {break_at} outside sample {start}..{end}")
    try:
        fit1 = fit_ols(d, replace(spec, sample=(start, break_at.offset(-1))))
        fit2 = fit_ols(d, replace(spec, sample=(break_at, end)))
    except SampleError as exc:
        raise SampleError(f"subsample around {break_at} too small: {exc}") from exc
    T = pooled.n_obs
    ssr_p, ssr1, ssr2 = pooled.ssr, fit1.ssr, fit2.ssr
    F = ((ssr_p - ssr1 - ssr2) / k) / ((ssr1 + ssr2) / (T - 2 * k))
    F = max(F, 0.0)
    lr = 2.0 * (fit1.log_likelihood + fit2.log_likelihood - pooled.log_likelihood)
    wald = k * F
    return TestReport(
        name=f"Chow Breakpoint Test: {break_at}",
        null_hypothesis="no breaks at specified breakpoints",
        statistics=(
            TestStatistic("F", F, (k, T - 2 * k), dist.f_sf(F, k, T - 2 * k)),
            TestStatistic("LR", lr, (k,), dist.chi2_sf(max(lr, 0.0), k)),
            TestStatistic("chi2", wald, (k,), dist.chi2_sf(wald, k)),
        ),
    )


def _aux_fstat(r2: float, p: int, T: int, k_aux: int) -> TestStatistic:
    F = (r2 / p) / ((1.0 - r2) / (T - k_aux))
    return TestStatistic("F", F, (p, T - k_aux), dist.f_sf(F, p, T - k_aux))


def white_test(fit: FitResult) -> TestReport:
    """White heteroskedasticity test with squares and cross-products."""
    X, e = fit.x_matrix, fit.residuals.values
    T = fit.n_obs
    nonconst = [i for i, lab in enumerate(fit.labels) if fit.spec.regressors[i].name != CONST]
    if len(nonconst) < 2:
        raise DomainError("White test needs at least two non-constant regressors")
    regs = [X[:, i] for i in nonconst]
    cols = [np.ones(T)] + regs + [z * z for z in regs]
    cols += [a * b for a, b in itertools.combinations(regs, 2)]
    Xa = np.column_stack(cols)
    # drop duplicated columns (e.g. a dummy equal to its own square)
    keep = []
    for i in range(Xa.shape[1]):
        if all(not np.allclose(Xa[:, i], Xa[:, j]) for j in keep):
            keep.append(i)
    Xa = Xa[:, keep]
    p_aux = Xa.shape[1]
    y_aux = e * e
    beta = solve_ols(Xa, y_aux)
    resid = y_aux - Xa @ beta
    tss = float(np.sum((y_aux - y_aux.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 0.0
    obs_r2 = T * r2
    return TestReport(
        name="Heteroskedasticity Test: White",
        null_hypothesis="homoskedasticity",
        statistics=(
            _aux_fstat(r2, p_aux - 1, T, p_aux),
            TestStatistic("obs_r2", obs_r2, (p_aux - 1,), dist.chi2_sf(obs_r2, p_aux - 1)),
        ),
    )


def breusch_godfrey_test(fit: FitResult, lags: int = 1) -> TestReport:
    """LM test for serial correlation up to the given lag order.

    The auxiliary regression adds lagged residuals to the original
    regressors, with pre-sample residuals set to zero.
    """
    if lags < 1:
        raise ConfigError(f"lag order must be >= 1, got {lags}")
    X, e = fit.x_matrix, fit.residuals.values
    T, k = fit.n_obs, fit.n_params
    if T <= k + lags:
        raise SampleError(f"sample of {T} too small for {lags} residual lags")
    lagged = [np.concatenate([np.zeros(j), e[:-j]]) for j in range(1, lags + 1)]
    Xa = np.column_stack([X] + lagged)
    beta = solve_ols(Xa, e)
    resid = e - Xa @ beta
    tss = float(np.sum((e - e.mean()) ** 2))
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 0.0
    obs_r2 = T * r2
    return TestReport(
        name="Breusch-Godfrey Serial Correlation LM Test",
        null_hypothesis=f"no serial correlation at up to {lags} lag(s)",
        statistics=(
            _aux_fstat(r2, lags, T, k + lags),
            TestStatistic("obs_r2", obs_r2, (lags,), dist.chi2_sf(obs_r2, lags)),
        ),
    )


def jarque_bera_test(residuals: Series) -> TestReport:
    """Normality test from sample skewness and kurtosis, chi-square(2).

    JB = T/6 * (S**2 + (K - 3)**2 / 4), where S and K are the skewness and
    kurtosis built from 1/T central moments of the residuals, as in Jarque
    & Bera (1987), EViews and ``scipy.stats.jarque_bera``.
    """
    e = residuals.values
    T = len(e)
    if T < 4:
        raise SampleError(f"need at least 4 residuals, got {T}")
    m = e - e.mean()
    m2 = float(np.mean(m**2))
    if m2 <= 0:
        raise DomainError("residuals have zero variance")
    skew = float(np.mean(m**3)) / m2**1.5
    kurt = float(np.mean(m**4)) / m2**2
    jb = T / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return TestReport(
        name="Jarque-Bera Normality Test",
        null_hypothesis="residuals are normally distributed",
        statistics=(TestStatistic("jb", jb, (2,), dist.chi2_sf(jb, 2)),),
    )
