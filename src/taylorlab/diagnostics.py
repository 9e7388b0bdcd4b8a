"""Specification tests: Wald, Chow breakpoint, White, Breusch-Godfrey,
Jarque-Bera."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import dist
from .errors import CollinearityError, ConfigError, DomainError, SampleError
from .ols import (
    _EXACT_FIT, CONST, FitResult, RegressionSpec, _column_peaks, _exact_fit, build_design,
    nested_f, reject_exact_fit, reject_unidentified, solve_ols,
)
from .records import Record, is_integer
from .series import Dataset, Quarter, Series


class TestStatistic(Record):
    _fields = ("form", "value", "df", "p")

    def __init__(self, form: str, value: float, df: tuple[int, ...], p: float):
        # form: F | chi2 | LR | obs_r2 | jb
        self.__dict__.update(form=form, value=value, df=df, p=p)


class TestReport(Record):
    _fields = ("name", "null_hypothesis", "statistics", "details")

    # details: extra labelled scalars (e.g. normalized restriction values)
    def __init__(
        self, name: str, null_hypothesis: str, statistics: tuple[TestStatistic, ...],
        details: tuple[tuple[str, float], ...] = (),
    ):
        self.__dict__.update(
            name=name, null_hypothesis=null_hypothesis, statistics=statistics, details=details
        )

    def stat(self, form: str) -> TestStatistic:
        for s in self.statistics:
            if s.form == form:
                return s
        raise KeyError(f"report {self.name!r} has no {form!r} statistic")


def _f(value: float, q: int, df2: int) -> TestStatistic:
    return TestStatistic("F", value, (q, df2), dist.f_sf(value, q, df2))


def _chi2(form: str, value: float, q: int) -> TestStatistic:
    return TestStatistic(form, value, (q,), dist.chi2_sf(value, q))


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
    if not (np.isfinite(R).all() and np.isfinite(r).all()):
        raise DomainError("restrictions must be finite")
    if np.linalg.matrix_rank(R) < q:
        raise DomainError("restriction matrix is rank deficient")
    dev = R @ fit.coefficients - r
    middle = R @ fit.covariance @ R.T
    # W overflows for a huge restriction value: raise below, do not warn
    with np.errstate(over="ignore", invalid="ignore"):
        W = float(dev @ np.linalg.solve(middle, dev))
    if not math.isfinite(W):
        raise DomainError(f"Wald statistic is not finite ({W}); restriction values too large")
    details = []
    for i in range(q):
        details.append((f"restriction:{i + 1}", float(dev[i])))
        details.append((f"restriction_se:{i + 1}", math.sqrt(middle[i, i])))
    return TestReport(
        name="Wald Test",
        null_hypothesis=null or "linear restrictions hold",
        statistics=(_f(W / q, q, fit.n_obs - fit.n_params), _chi2("chi2", W, q)),
        details=tuple(details),
    )


def chow_breakpoint_test(d: Dataset, spec: RegressionSpec, break_at: Quarter) -> TestReport:
    """Chow test for a structural break at a known quarter.

    The pre-break regime ends the quarter before ``break_at``; the second
    regime starts at ``break_at``. The pooled model and each regime, its
    rows of the pooled design followed by zero rows up to T, are solved as
    one stack for their SSRs alone: the residuals and fitted-term sizes of
    all three are one pass over the stack each. The pooled model's errors
    come first; a regime too small to identify the model, or that is an
    exact fit, raises naming its quarters. The statistics are built from
    SSRs, so ``spec.covariance`` plays no part. Reports F (``nested_f`` of
    the pooled SSR against ssr1 + ssr2), the likelihood ratio, and the Wald
    form k*F.
    """
    y, X, (start, end) = build_design(d, spec)
    T, k = X.shape
    reject_unidentified(T, k)  # the pooled model's errors come first
    if not (start < break_at <= end):
        raise SampleError(f"breakpoint {break_at} outside sample {start}..{end}")
    n1 = break_at - start
    sizes = (T, n1, T - n1)  # of the pooled model and the two regimes

    def where(i):  # the quarters of system i, formatted only to raise
        if i == 0:
            return ""
        first, last = (start, break_at.offset(-1)) if i == 1 else (break_at, end)
        return f" over the regime {first}..{last}"

    for i in (1, 2):
        if sizes[i] <= k:
            reject_unidentified(sizes[i], k, where(i))
    Xs, ys = np.zeros((3, T, k)), np.zeros((3, T))
    Xs[0], Xs[1, :n1], Xs[2, : T - n1] = X, X[:n1], X[n1:]
    ys[0], ys[1, :n1], ys[2, : T - n1] = y, y[:n1], y[n1:]
    B = solve_ols(Xs, ys, [t.label for t in spec.regressors])[..., None]
    # zero on the padding rows; the products over each system's own rows
    # are those of its fit alone
    fs = (np.abs(Xs) @ np.abs(B))[..., 0]
    es = ys - (Xs @ B)[..., 0]
    ssrs = [float(e[:n] @ e[:n]) for e, n in zip(es, sizes)]
    for i, (f, n) in enumerate(zip(fs, sizes)):
        if _exact_fit(ssrs[i], float(f[:n] @ f[:n]), n):
            raise CollinearityError(_EXACT_FIT + where(i))
    ssr, ssr1, ssr2 = ssrs
    F = nested_f(ssr, ssr1 + ssr2, k, T - 2 * k)
    # 2 (ll1 + ll2 - ll) with the constants cancelled: ratios of variances,
    # which do not depend on the units of y
    s2 = ssr / T
    lr = n1 * math.log(s2 * n1 / ssr1) + (T - n1) * math.log(s2 * (T - n1) / ssr2)
    return TestReport(
        name=f"Chow Breakpoint Test: {break_at}",
        null_hypothesis="no breaks at specified breakpoints",
        statistics=(
            _f(F, k, T - 2 * k),
            # LR is non-negative in exact arithmetic but can round below
            # zero when the regimes fit as well as the pooled model, so its
            # tail is taken at max(LR, 0)
            TestStatistic("LR", lr, (k,), dist.chi2_sf(max(lr, 0.0), k)),
            _chi2("chi2", k * F, k),
        ),
    )


def _lm_test(name: str, null: str, Xa: np.ndarray, u: np.ndarray, ssr_r: float,
             q: int) -> TestReport:
    """LM test of the last q of Xa's p columns: F on (q, T - p) and T*R^2 on
    q, both from ``nested_f`` of ssr_r, the SSR of u on the other columns,
    which the caller names, against the SSR of u on Xa."""
    T, p = Xa.shape
    beta = solve_ols(Xa, u)
    resid = u - Xa @ beta
    ssr = float(resid @ resid)
    reject_exact_fit(ssr, Xa, beta, " in the auxiliary regression")
    F = nested_f(ssr_r, ssr, q, T - p)
    # R^2 = (SSR_r - SSR) / SSR_r with the difference clamped as in F, where
    # 1 - SSR / SSR_r can round below zero
    r2 = q * F / (q * F + T - p)
    return TestReport(name, null, (_f(F, q, T - p), _chi2("obs_r2", T * r2, q)))


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.allclose``'s elementwise rule |a - b| <= 1e-8 + 1e-5 |b|."""
    return np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)


def _distinct_columns(Xa: np.ndarray) -> list[int]:
    """Greedy keep set: column i is dropped when ``np.allclose(Xa[:, i],
    Xa[:, j])`` holds for a kept j, that is ``_close`` on every row. Every
    pair is first compared at once on about eight probe rows; a pair close
    on every row is close on those, so only the pairs that pass there are
    compared on every row."""
    P = Xa[:: max(1, len(Xa) // 8), :, None]
    near = _close(P, P.swapaxes(1, 2)).all(axis=0).tolist()
    keep: list[int] = []
    for i, a in enumerate(Xa.T):
        if not any(near[i][j] and _close(a, Xa[:, j]).all() for j in keep):
            keep.append(i)
    return keep


def white_test(fit: FitResult) -> TestReport:
    """White heteroskedasticity test: e^2 on a constant, the non-constant
    regressors, their squares and cross-products, against the constant alone."""
    X, u = fit.x_matrix, fit.residuals.values ** 2
    regs = [X[:, i] for i, t in enumerate(fit.spec.regressors) if t.name != CONST]
    cols = [np.ones(fit.n_obs)] + regs + [z * z for z in regs]
    cols += [a * b for a, b in itertools.combinations(regs, 2)]
    Xa = np.column_stack(cols)
    # drop duplicated columns (e.g. a dummy equal to its own square), each
    # divided by its largest |x|, so that the rule, absolute term included,
    # is unit-free; a zero column (two disjoint dummies' product) stays zero
    peak = _column_peaks(Xa)
    keep = _distinct_columns(Xa / np.where(peak > 0, peak, 1.0))
    if len(keep) < 2:
        raise DomainError("White test needs an auxiliary column besides the constant")
    return _lm_test(
        "Heteroskedasticity Test: White", "homoskedasticity", Xa[:, keep], u,
        float(((u - u.mean()) ** 2).sum()), len(keep) - 1,
    )


def breusch_godfrey_test(fit: FitResult, lags: int = 1) -> TestReport:
    """LM test for serial correlation up to the given lag order.

    The auxiliary regression adds lagged residuals, pre-sample ones set to
    zero, to the original regressors; the restricted fit is e on those alone,
    whose SSR is e'e since X'e = 0, so R^2 is uncentred without a constant.
    """
    if not is_integer(lags):
        raise ConfigError(f"lag order must be an integer, got {lags!r}")
    if lags < 1:
        raise ConfigError(f"lag order must be >= 1, got {lags}")
    e = fit.residuals.values
    T = fit.n_obs
    # also guards the lag columns below, which cannot be built for lags > T
    if T <= fit.n_params + lags:
        raise SampleError(f"sample of {T} too small for {lags} residual lags")
    lagged = [np.concatenate([np.zeros(j), e[:-j]]) for j in range(1, lags + 1)]
    return _lm_test(
        "Breusch-Godfrey Serial Correlation LM Test",
        f"no serial correlation at up to {lags} lag(s)",
        np.column_stack([fit.x_matrix] + lagged),
        e, float(e @ e), lags,
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
    m2 = float((m**2).mean())
    if m2 <= 0:
        raise DomainError("residuals have zero variance")
    skew = float((m**3).mean()) / m2**1.5
    kurt = float((m**4).mean()) / m2**2
    jb = T / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return TestReport(
        name="Jarque-Bera Normality Test",
        null_hypothesis="residuals are normally distributed",
        statistics=(_chi2("jb", jb, 2),),
    )
