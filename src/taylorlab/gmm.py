"""Linear instrumental-variables GMM with HAC moment weighting.

Estimation is two-step efficient GMM (Hansen 1982) with a constant always
among the instruments: two-stage least squares (weighting (Z'Z/T)^-1), then
one weight update that rebuilds the covariance of the moment series
z_t * e_t (``hac.moment_cov``: classical, or the Bartlett-kernel long-run
covariance) from the 2SLS residuals and re-solves the quadratic problem.
The J statistic is evaluated with that updated weighting; the reported
coefficient covariance (``hac.coef_cov``) re-weights with the final
residuals, which is the convention that reproduces the published standard
errors.
"""

from __future__ import annotations

import math

import numpy as np

from . import dist
from .errors import CollinearityError, ConfigError
from .hac import HacConfig, coef_cov, moment_cov
from .ols import (
    CONST, Estimate, RegressionSpec, Term, auto_sample, build_design, coerce_terms, inference,
    summarize, term_columns,
)
from .records import Record
from .series import Dataset


class GmmSpec(Record):
    _fields = ("base", "instruments", "weighting")

    def __init__(  # weighting None: classical
        self, base: RegressionSpec, instruments, weighting: HacConfig | None = HacConfig()
    ):
        inst = list(coerce_terms(instruments))
        if not any(t.name == CONST for t in inst):
            inst.insert(0, Term(CONST))
        if len(inst) < len(base.regressors):
            raise ConfigError(
                f"under-identified: {len(inst)} instruments for "
                f"{len(base.regressors)} parameters"
            )
        if weighting is not None and not isinstance(weighting, HacConfig):
            raise ConfigError(f"unknown weighting {weighting!r}")
        if base.covariance is not None and base.covariance != weighting:
            raise ConfigError(
                f"GMM covariance comes from weighting={weighting!r}; "
                f"base covariance {base.covariance!r} differs"
            )
        self.__dict__.update(base=base, instruments=tuple(inst), weighting=weighting)


class GmmResult(Estimate):
    """An instrumented fit: the shared estimate plus its spec and the J test.
    Like every estimate it compares by identity."""

    _fields = Estimate._fields + ("spec", "j_statistic", "j_prob", "instrument_rank")


def _solve_gmm(X, Z, y, W):
    return np.linalg.solve(X.T @ Z @ W @ Z.T @ X, X.T @ Z @ W @ Z.T @ y)


def fit_linear_gmm(d: Dataset, spec: GmmSpec) -> GmmResult:
    """Estimate a linear model by instrumented GMM."""
    base = spec.base
    if base.sample is None:
        terms = [base.dependent, *base.regressors, *spec.instruments]
        base = RegressionSpec(
            base.dependent, base.regressors, base.include_constant, auto_sample(d, terms),
            base.covariance,
        )
    y, X, sample = build_design(d, base)
    T, k = X.shape
    Z = term_columns(d, spec.instruments, *sample)
    rank = np.linalg.matrix_rank(Z)
    if rank < Z.shape[1]:
        raise CollinearityError("instrument matrix is rank deficient")

    beta = _solve_gmm(X, Z, y, np.linalg.inv(Z.T @ Z / T))
    W = np.linalg.inv(moment_cov(Z, y - X @ beta, spec.weighting))
    beta = _solve_gmm(X, Z, y, W)

    e = y - X @ beta
    gbar = Z.T @ e / T
    j_stat = float(T * gbar @ W @ gbar)
    over_id = Z.shape[1] - k
    j_prob = dist.chi2_sf(max(j_stat, 0.0), over_id) if over_id > 0 else math.nan
    return GmmResult(
        spec=spec,
        labels=tuple(t.label for t in base.regressors),
        j_statistic=j_stat,
        j_prob=j_prob,
        instrument_rank=int(rank),
        sample=sample,
        # reported covariance: re-weight with the final residuals
        **inference(beta, coef_cov(X, Z, e, spec.weighting), T - k),
        **summarize(y, e, k, base.has_constant),
    )
