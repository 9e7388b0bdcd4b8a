"""Linear instrumental-variables GMM with HAC moment weighting.

Estimation is two-step efficient GMM (Hansen 1982) with a constant always
among the instruments. Two-stage least squares regresses X on Z, then y on
the fitted X. One weight update takes the root M, M'M = S^-1, of the
covariance S of the moments z_t * e_t at the 2SLS residuals
(``hac.moment_root``: classical, or the Bartlett-kernel long-run
covariance) and solves (M Z'X) b = M Z'y. Every solve is ``solve_ols``.
J = T |M gbar|^2 uses that M; the reported coefficient covariance
(``hac.coef_cov``) re-weights with the final residuals, which is the
convention that reproduces the published standard errors.
"""

from __future__ import annotations

import math

from . import dist
from .errors import ConfigError
from .hac import HacConfig, coef_cov, moment_root
from .ols import (
    CONST, Estimate, RegressionSpec, Term, build_design, coerce_terms, inference, solve_ols,
    summarize, term_columns,
)
from .records import Record
from .series import Dataset


class GmmSpec(Record):
    _fields = ("base", "instruments", "weighting")

    def __new__(  # weighting None: classical
        cls, base: RegressionSpec, instruments, weighting: HacConfig | None = HacConfig()
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
        return tuple.__new__(cls, (base, tuple(inst), weighting))


class GmmResult(Estimate):
    """An instrumented fit: the shared estimate plus its spec and the J test.
    Like every estimate it compares by identity."""

    _fields = Estimate._fields + ("spec", "j_statistic", "j_prob", "instrument_rank")


def fit_linear_gmm(d: Dataset, spec: GmmSpec) -> GmmResult:
    """Estimate a linear model by instrumented GMM."""
    base = spec.base
    y, X, sample = build_design(d, base, spec.instruments)
    T, k = X.shape
    Z = term_columns(d, spec.instruments, *sample)
    over_id = Z.shape[1] - k
    labels = tuple(t.label for t in base.regressors)
    beta = solve_ols(Z @ solve_ols(Z, X, [t.label for t in spec.instruments]), y, labels)
    M = moment_root(Z, y - X @ beta, spec.weighting)
    if over_id:  # else just identified: every weighting gives the IV solution
        beta = solve_ols(M @ (Z.T @ X), M @ (Z.T @ y), labels)

    e = y - X @ beta
    g = M @ (Z.T @ e) / T
    j_stat = float(T * g @ g)
    j_prob = dist.chi2_sf(j_stat, over_id) if over_id else math.nan
    return GmmResult(
        spec=spec,
        labels=labels,
        j_statistic=j_stat,
        j_prob=j_prob,
        instrument_rank=Z.shape[1],
        sample=sample,
        # reported covariance: re-weight with the final residuals
        **inference(beta, coef_cov(X, Z, e, spec.weighting), T - k),
        **summarize(y, e, X, beta, base.has_constant),
    )
