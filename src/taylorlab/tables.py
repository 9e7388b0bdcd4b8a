"""Runners that re-estimate each published result table from the embedded data.

Tables 1-9 belong to the US dataset, 10-17 to the UK. Each runner takes
the transformed dataset (with inflation_gap, output_gap, s and it) and
returns the estimation or test result that the matching golden table is
diffed against. Regressor ordering follows each table's printed layout.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import (
    breusch_godfrey_test,
    chow_breakpoint_test,
    wald_test,
    white_test,
)
from .errors import ConfigError
from .gmm import GmmSpec, fit_linear_gmm
from .hac import HacConfig
from .ingest import embedded_dataset
from .ols import RegressionSpec, fit_ols
from .series import Quarter
from .transform import TransformConfig, build_taylor_dataset

US_TABLES = tuple(range(1, 10))
UK_TABLES = tuple(range(10, 18))

# Regressor ordering as printed: constant last in the US baseline table,
# first in the UK one. Specs are immutable, so each is built once and shared.
_BASELINE = {
    "us": RegressionSpec("it", ("inflation_gap", "output_gap", "const")),
    "uk": RegressionSpec("it", ("const", "inflation_gap", "output_gap")),
}
_HAC = RegressionSpec(
    "it", ("inflation_gap", "output_gap", "s", "const"), covariance=HacConfig()
)
_AUGMENTED_LAG = RegressionSpec("it", ("const", "inflation_gap", "output_gap", "s(-1)"))
_GMM = GmmSpec(
    RegressionSpec("it", ("const", "inflation_gap", "output_gap", "s")),
    ("inflation_gap(-1)", "inflation_gap(-2)", "output_gap(-1)", "output_gap(-2)"),
)


def country_for_table(table_id: int) -> str:
    if table_id in US_TABLES:
        return "us"
    if table_id in UK_TABLES:
        return "uk"
    raise ConfigError(f"table id must be 1..17, got {table_id}")


def reproduction_dataset(country: str):
    """Embedded data with the transforms the published tables were built on."""
    return build_taylor_dataset(embedded_dataset(country), TransformConfig())


def baseline_spec(country: str) -> RegressionSpec:
    return _BASELINE[country]


def hac_spec() -> RegressionSpec:
    return _HAC


def _baseline_fit(d):
    return fit_ols(d, baseline_spec(d.country))


def _hac_fit(d):
    return fit_ols(d, hac_spec())


def _wald_equal_weights(d):
    # EViews-style restriction on the first two coefficients of the
    # printed ordering: C(1)=0.5, C(2)=0.5.
    fit = _baseline_fit(d)
    R = np.zeros((2, fit.n_params))
    R[0, 0] = R[1, 1] = 1.0
    return wald_test(fit, R, np.array([0.5, 0.5]), null="coefficients are equally weighted")


def _chow(d, year: int):
    return chow_breakpoint_test(d, baseline_spec(d.country), Quarter(year, 1))


def _augmented_lag_fit(d):
    return fit_ols(d, _AUGMENTED_LAG)


def _gmm(d):
    return fit_linear_gmm(d, _GMM)


TABLE_RUNNERS = {
    1: _baseline_fit,
    2: _wald_equal_weights,
    3: lambda d: _chow(d, 2003),
    4: lambda d: _chow(d, 2006),
    5: _augmented_lag_fit,
    6: lambda d: white_test(_hac_fit(d)),
    7: lambda d: breusch_godfrey_test(_hac_fit(d), lags=1),
    8: _hac_fit,
    9: _gmm,
    10: _baseline_fit,
    11: _wald_equal_weights,
    12: lambda d: _chow(d, 2006),
    13: _augmented_lag_fit,
    14: lambda d: white_test(_hac_fit(d)),
    15: lambda d: breusch_godfrey_test(_hac_fit(d), lags=1),
    16: _hac_fit,
    17: _gmm,
}


def run_table(table_id: int, d):
    """Re-estimate one published table on its country's dataset; returns the result."""
    country = country_for_table(table_id)
    if d.country != country:
        raise ConfigError(
            f"table {table_id} belongs to {country!r}, got dataset {d.country!r}"
        )
    return TABLE_RUNNERS[table_id](d)
