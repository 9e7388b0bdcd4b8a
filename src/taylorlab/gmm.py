"""Linear instrumental-variables GMM with HAC moment weighting.

Estimation starts from two-stage least squares (weighting (Z'Z/T)^-1),
then performs a fixed number of weight updates: each update rebuilds the
Bartlett-kernel long-run covariance of the moment series z_t * e_t from
the current residuals and re-solves the quadratic problem. The J
statistic is evaluated with the weighting matrix the final coefficients
were estimated under; the reported coefficient covariance re-weights with
the final residuals, which is the convention that reproduces the
published standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dist
from .errors import CollinearityError, ConfigError
from .hac import HacConfig, default_bandwidth, long_run_cov
from .ols import (
    CONST, RegressionSpec, Term, auto_sample, build_design, coerce_terms, summarize, term_columns
)
from .series import Dataset, Quarter


@dataclass(frozen=True)
class GmmSpec:
    base: RegressionSpec
    instruments: tuple[Term, ...]
    add_constant_instrument: bool = True
    weighting: HacConfig | None = HacConfig()  # None: classical
    weight_updates: int = 1

    def __post_init__(self):
        inst = list(coerce_terms(self.instruments))
        if self.add_constant_instrument and not any(t.name == CONST for t in inst):
            inst.insert(0, Term(CONST))
        object.__setattr__(self, "instruments", tuple(inst))
        if len(inst) < len(self.base.regressors):
            raise ConfigError(
                f"under-identified: {len(inst)} instruments for "
                f"{len(self.base.regressors)} parameters"
            )
        if self.weighting is not None and not isinstance(self.weighting, HacConfig):
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.weight_updates < 0:
            raise ConfigError("weight_updates must be non-negative")


@dataclass(frozen=True)
class GmmResult:
    spec: GmmSpec
    labels: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    covariance: np.ndarray
    j_statistic: float
    j_prob: float
    instrument_rank: int
    sample: tuple[Quarter, Quarter]
    n_obs: int
    n_params: int
    r2: float
    adj_r2: float
    se_regression: float
    ssr: float
    durbin_watson: float
    mean_dep: float
    sd_dep: float

    def coef(self, label: str) -> float:
        return self.coefficients[self.labels.index(label)]


def _solve_gmm(X, Z, y, W):
    return np.linalg.solve(X.T @ Z @ W @ Z.T @ X, X.T @ Z @ W @ Z.T @ y)


def fit_linear_gmm(d: Dataset, spec: GmmSpec) -> GmmResult:
    """Estimate a linear model by instrumented GMM."""
    base = spec.base
    if base.sample is None:
        terms = [base.dependent, *base.regressors, *spec.instruments]
        base = replace(base, sample=auto_sample(d, terms))
    y, X, sample = build_design(d, base)
    T, k = X.shape
    Z = term_columns(d, spec.instruments, *sample)
    rank = np.linalg.matrix_rank(Z)
    if rank < Z.shape[1]:
        raise CollinearityError("instrument matrix is rank deficient")

    if spec.weighting is None:  # classical: residual variance times Z'Z/T
        df_adjust = True
        moment_cov = lambda e: float(e @ e) / T * (Z.T @ Z) / T
    else:
        m = spec.weighting.bandwidth or default_bandwidth(T)
        df_adjust = spec.weighting.df_adjust
        moment_cov = lambda e: long_run_cov(Z * e[:, None], m)

    # step 0: two-stage least squares
    W = np.linalg.inv(Z.T @ Z / T)
    beta = _solve_gmm(X, Z, y, W)
    for _ in range(spec.weight_updates):
        e = y - X @ beta
        W = np.linalg.inv(moment_cov(e))
        beta = _solve_gmm(X, Z, y, W)

    e = y - X @ beta
    gbar = Z.T @ e / T
    j_stat = float(T * gbar @ W @ gbar)
    over_id = Z.shape[1] - k
    j_prob = dist.chi2_sf(max(j_stat, 0.0), over_id) if over_id > 0 else math.nan

    # reported covariance: re-weight with the final residuals
    W_cov = np.linalg.inv(moment_cov(e))
    V = np.linalg.inv(X.T @ Z @ W_cov @ Z.T @ X) * T
    if df_adjust:
        V *= T / (T - k)
    V = 0.5 * (V + V.T)

    se = np.sqrt(np.diag(V))
    t_stats = beta / se
    p_values = np.array([dist.student_t_sf2(t, T - k) for t in t_stats])
    stats = summarize(y, X, beta, base.has_constant)
    stats.pop("residual_vector")
    stats.pop("log_likelihood")
    return GmmResult(
        spec=spec,
        labels=tuple(t.label for t in base.regressors),
        coefficients=beta,
        std_errors=se,
        t_stats=t_stats,
        p_values=p_values,
        covariance=V,
        j_statistic=j_stat,
        j_prob=j_prob,
        instrument_rank=int(rank),
        sample=sample,
        n_obs=T,
        n_params=k,
        **stats,
    )
