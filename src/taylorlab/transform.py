"""Model-variable construction: inflation gap, output gap, stock return term.

The three derived series are built from the raw dataset:

* inflation_gap: 100 * (log CPI - log CPI four quarters earlier) minus the
  inflation target,
* output_gap: 100 * (log real GDP minus its estimated trend), with either a
  linear time trend or the Hodrick-Prescott trend (the cycle is solved for
  directly, see ``_hp_cycle``),
* s: 100 * year-over-year log change of the stock index.

Detrending runs on the full data span; the resulting gap series then takes
part in sample adjustment like any other series.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError, SampleError
from .ols import solve_ols
from .records import Record
from .series import Dataset, Series, lag, natural_log


class TransformConfig(Record):
    _fields = ("inflation_target", "detrend", "hp_lambda")

    # detrend "hp_filter" reproduces the published tables
    def __init__(
        self, inflation_target: float = 2.0, detrend: str = "hp_filter", hp_lambda: float = 1600.0
    ):
        if not np.isfinite(inflation_target):
            raise ConfigError("inflation_target must be finite")
        if detrend not in ("linear_trend", "hp_filter"):
            raise ConfigError(f"unknown detrend method {detrend!r}")
        if not 0 < hp_lambda < np.inf:
            raise ConfigError(f"hp_lambda must be finite and positive, got {hp_lambda}")
        self.__dict__.update(
            inflation_target=inflation_target, detrend=detrend, hp_lambda=hp_lambda
        )


def yoy_change(s: Series) -> Series:
    """100 * (s(t) - s(t-4)): the year-over-year change of a quarterly log series."""
    lagged = lag(s, 4)
    return Series(f"yoy_{s.name}", lagged.start, 100.0 * (s.values[4:] - lagged.values))


def inflation_gap(cpi: Series, cfg: TransformConfig = TransformConfig()) -> Series:
    """Year-over-year log-CPI inflation minus the target, in percent."""
    raw = yoy_change(natural_log(cpi))
    return Series("inflation_gap", raw.start, raw.values - cfg.inflation_target)


def linear_trend_gap(gdp: Series) -> Series:
    """100 * residuals of log GDP regressed on a constant and linear trend."""
    if len(gdp) < 3:
        raise SampleError("need at least 3 observations to fit a linear trend")
    y = natural_log(gdp).values
    t = np.arange(len(y), dtype=float)
    X = np.column_stack([np.ones_like(t), t])
    beta = solve_ols(X, y)
    return Series("output_gap", gdp.start, 100.0 * (y - X @ beta))


def _hp_cycle(y: np.ndarray, lam: float) -> np.ndarray:
    """y minus its Hodrick-Prescott trend, accurate for every finite lam > 0.

    The trend solves (I + lam D'D) tau = y, with D the (n-2) x n
    second-difference operator. By Woodbury, y - tau = D'w with
    (DD' + I/lam) w = Dy: DD' is the constant band (1, -4, 6, -4, 1), so the
    system has n-2 rows and no edge rows. The cycle is never formed as
    y - tau, which would cancel digits, and the system keeps its conditioning
    as lam grows: at lam = inf it is DD' itself, and D'(DD')^-1 D projects
    onto the complement of {1, t}, so the cycle becomes the linear-trend
    residual instead of losing the identity in I + lam D'D.
    """
    b = np.diff(y, 2).tolist()
    a = 6.0 + 1.0 / lam
    # LDL' of the band (1, -4, a, -4, 1). L's second subdiagonal is
    # 1/d[i-2], which leaves l[i] = (-4 - l[i-1]) / d[i-1] on the first and
    # d[i] = a - l[i] (-4 - l[i-1]) - 1/d[i-2]. Factor and forward-eliminate
    # in one pass on Python floats, keeping r = 1/d (0 once 1/lam overflows,
    # giving a zero cycle); rows 0 and 1 are unrolled.
    m = len(b)
    L = [0.0] * (m + 1)  # L[i] = l[i]; L[m] = 0 closes the back substitution
    R = [0.0] * m
    Z = [0.0] * m
    R[0] = rpp = 1.0 / a
    L[1] = lp = -4.0 * rpp
    R[1] = rp = 1.0 / (a - 16.0 * rpp)
    Z[0] = zpp = b[0]
    Z[1] = zp = b[1] - lp * zpp
    for i in range(2, m):
        t = -4.0 - lp
        lp = t * rp
        zpp, zp = zp, b[i] - lp * zp - rpp * zpp
        rpp, rp = rp, 1.0 / (a - lp * t - rpp)
        L[i] = lp
        R[i] = rp
        Z[i] = zp
    # back substitution w[i] = (z[i] - w[i+2]) / d[i] - l[i+1] w[i+1], into a
    # copy of w padded with two zeros each side, so D'w is one stencil
    w = [0.0] * (m + 4)
    wn = wnn = 0.0
    for i in range(m - 1, -1, -1):
        wn, wnn = (Z[i] - wnn) * R[i] - L[i + 1] * wn, wn
        w[i + 2] = wn
    w = np.array(w)
    return w[2:] - 2.0 * w[1:-1] + w[:-2]


def hp_filter_gap(gdp: Series, lam: float = 1600.0) -> Series:
    """100 * the Hodrick-Prescott cycle of log GDP (trend curvature penalized by lam)."""
    if not 0 < lam < np.inf:
        raise DomainError(f"smoothing parameter must be finite and positive, got {lam}")
    if len(gdp) < 4:
        raise SampleError("need at least 4 observations for trend filtering")
    return Series("output_gap", gdp.start, 100.0 * _hp_cycle(natural_log(gdp).values, lam))


def build_taylor_dataset(d: Dataset, cfg: TransformConfig = TransformConfig()) -> Dataset:
    """Add inflation_gap, output_gap, s and the policy-rate alias ``it``.

    Raw series are left in place; the new series start later than the raw
    calendar because of the year-over-year construction lags, which is what
    shrinks the common estimation sample.
    """
    d.require_core()
    infl = inflation_gap(d["cpi"], cfg)
    if cfg.detrend == "hp_filter":
        gap = hp_filter_gap(d["real_gdp"], cfg.hp_lambda)
    else:
        gap = linear_trend_gap(d["real_gdp"])
    s = yoy_change(natural_log(d["stock_index"])).renamed("s")
    it = d["interest_rate"].renamed("it")
    return d.with_series(infl, gap, s, it)
