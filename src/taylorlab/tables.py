"""The published result tables as one plan over the embedded data.

Tables 1-9 belong to the US dataset, 10-17 to the UK. Each table is a model
estimated on the transformed dataset (with inflation_gap, output_gap, s and
it), or a test run on one of those models, and its result is diffed against
the matching golden table. Regressor ordering follows each table's layout.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import breusch_godfrey_test, chow_breakpoint_test, wald_test, white_test
from .errors import ConfigError
from .gmm import GmmSpec, fit_linear_gmm
from .hac import HacConfig
from .ingest import embedded_dataset
from .ols import RegressionSpec, fit_ols
from .records import is_integer
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
    # a bool or a float equal to an id is not one: tuple membership tests ==
    if not is_integer(table_id):
        raise ConfigError(f"table id must be 1..17, got {table_id}")
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


def _wald_equal_weights(fit):
    # EViews-style restriction on the first two coefficients of the
    # printed ordering: C(1)=0.5, C(2)=0.5.
    R = np.eye(2, fit.n_params)
    return wald_test(fit, R, np.array([0.5, 0.5]), null="coefficients are equally weighted")


def _chow(d, year: int):
    return chow_breakpoint_test(d, baseline_spec(d.country), Quarter(year, 1))


# A model is estimated from the dataset; a test runs on the fit of the model
# it names. Both call the estimators by their module-level names when they
# run, so that rebinding those names (as a tracer does) reaches them.
# ``run_tables`` shares them only within one call: nothing outlives it.
MODELS = {
    "baseline": lambda d: fit_ols(d, baseline_spec(d.country)),
    "hac": lambda d: fit_ols(d, _HAC),
    "lagged_s": lambda d: fit_ols(d, _AUGMENTED_LAG),
    "gmm": lambda d: fit_linear_gmm(d, _GMM),
    "chow2003": lambda d: _chow(d, 2003),
    "chow2006": lambda d: _chow(d, 2006),
}
TESTS = {
    "wald": ("baseline", _wald_equal_weights),
    "white": ("hac", lambda fit: white_test(fit)),
    "bg": ("hac", lambda fit: breusch_godfrey_test(fit, lags=1)),
}
# The model or test behind each table, tables 1 to 17 in order.
PLAN = (
    "baseline", "wald", "chow2003", "chow2006", "lagged_s", "white", "bg", "hac", "gmm",
    "baseline", "wald", "chow2006", "lagged_s", "white", "bg", "hac", "gmm",
)


def run_tables(table_ids, d) -> list:
    """Re-estimate published tables, a sequence of ids, on their country's
    dataset; returns the results in the order of ``table_ids``. Every id is
    checked against ``d.country`` first, and each model is then estimated
    once in the call."""
    for table_id in table_ids:
        country = country_for_table(table_id)
        if d.country != country:
            raise ConfigError(
                f"table {table_id} belongs to {country!r}, got dataset {d.country!r}"
            )
    done = {}  # filled in a plain loop, so that no reference cycle holds the results
    for name in (PLAN[table_id - 1] for table_id in table_ids):
        model, test = TESTS.get(name, (name, None))
        if model not in done:
            done[model] = MODELS[model](d)
        if test and name not in done:
            done[name] = test(done[model])
    return [done[PLAN[table_id - 1]] for table_id in table_ids]


def run_table(table_id: int, d):
    """Re-estimate one published table on its country's dataset; returns the result."""
    return run_tables((table_id,), d)[0]
