"""Model-variable construction: inflation gap, output gap, stock return term.

The three derived series are built from the raw dataset:

* inflation_gap: 100 * (log CPI - log CPI four quarters earlier) minus the
  inflation target,
* output_gap: 100 * (log real GDP minus its estimated trend), with either a
  linear time trend or a penalized (smoothing) trend,
* s: 100 * year-over-year log change of the stock index.

Detrending runs on the full data span; the resulting gap series then takes
part in sample adjustment like any other series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .errors import ConfigError, DomainError, SampleError
from .series import Dataset, Series, lag, natural_log


@dataclass(frozen=True)
class TransformConfig:
    inflation_target: float = 2.0
    yoy_lag: int = 4
    detrend: str = "hp_filter"  # "hp_filter" reproduces the published tables
    hp_lambda: float = 1600.0

    def __post_init__(self):
        if not np.isfinite(self.inflation_target):
            raise ConfigError("inflation_target must be finite")
        if self.yoy_lag < 1:
            raise ConfigError("yoy_lag must be at least 1")
        if self.detrend not in ("linear_trend", "hp_filter"):
            raise ConfigError(f"unknown detrend method {self.detrend!r}")
        if self.hp_lambda <= 0:
            raise ConfigError("hp_lambda must be positive")


def yoy_change(s: Series, k: int = 4) -> Series:
    """100 * (s(t) - s(t-k)) for a series already in logs."""
    lagged = lag(s, k)
    return Series(f"yoy_{s.name}", lagged.start, 100.0 * (s.values[k:] - lagged.values))


def inflation_gap(cpi: Series, cfg: TransformConfig = TransformConfig()) -> Series:
    """Year-over-year log-CPI inflation minus the target, in percent."""
    raw = yoy_change(natural_log(cpi), cfg.yoy_lag)
    return Series("inflation_gap", raw.start, raw.values - cfg.inflation_target)


def linear_trend_gap(gdp: Series) -> Series:
    """100 * residuals of log GDP regressed on a constant and linear trend."""
    if len(gdp) < 3:
        raise SampleError("need at least 3 observations to fit a linear trend")
    y = natural_log(gdp).values
    t = np.arange(len(y), dtype=float)
    X = np.column_stack([np.ones_like(t), t])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return Series("output_gap", gdp.start, 100.0 * (y - X @ beta))


def _hp_trend(y: np.ndarray, lam: float) -> np.ndarray:
    # (I + lam * D'D) tau = y, with D the second-difference operator.
    # The system matrix is pentadiagonal SPD; solve in banded form.
    n = len(y)
    ab = np.zeros((3, n))
    ab[0, 2:] = lam
    ab[1, 1:] = -4.0 * lam
    ab[1, 1] = -2.0 * lam
    ab[1, -1] = -2.0 * lam
    ab[2, :] = 6.0 * lam + 1.0
    ab[2, 0] = ab[2, -1] = lam + 1.0
    ab[2, 1] = ab[2, -2] = 5.0 * lam + 1.0
    return solveh_banded(ab, y)


def hp_filter_gap(gdp: Series, lam: float = 1600.0) -> Series:
    """100 * (log GDP - smoothed trend), penalizing the trend's curvature."""
    if lam <= 0:
        raise DomainError(f"smoothing parameter must be positive, got {lam}")
    if len(gdp) < 4:
        raise SampleError("need at least 4 observations for trend filtering")
    y = natural_log(gdp).values
    return Series("output_gap", gdp.start, 100.0 * (y - _hp_trend(y, lam)))


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
    s = yoy_change(natural_log(d["stock_index"]), cfg.yoy_lag).renamed("s")
    it = d["interest_rate"].renamed("it")
    return d.with_series(infl, gap, s, it)
