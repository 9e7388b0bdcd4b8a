"""Taylor-rule estimation toolkit: quarterly data handling, OLS with the
full summary block, Newey-West robust covariance, linear IV-GMM, and the
classical specification tests, plus reproduction of the published US/UK
result tables from the embedded datasets."""

from .diagnostics import (
    TestReport,
    breusch_godfrey_test,
    chow_breakpoint_test,
    jarque_bera_test,
    wald_test,
    white_test,
)
from .gmm import GmmResult, GmmSpec, fit_linear_gmm
from .hac import HacConfig, default_bandwidth, newey_west_cov
from .ingest import SourceDescriptor, embedded_dataset, fetch_series, parse_quarterly_csv
from .ols import FitResult, RegressionSpec, Term, fit_ols
from .report import compare_golden, load_golden, render_table
from .series import Dataset, Quarter, Series, align_sample, lag, natural_log
from .tables import reproduction_dataset, run_table, run_tables
from .transform import (
    TransformConfig,
    build_taylor_dataset,
    hp_filter_gap,
    inflation_gap,
    linear_trend_gap,
    yoy_change,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FitResult",
    "GmmResult",
    "GmmSpec",
    "HacConfig",
    "Quarter",
    "RegressionSpec",
    "Series",
    "SourceDescriptor",
    "Term",
    "TestReport",
    "TransformConfig",
    "align_sample",
    "breusch_godfrey_test",
    "build_taylor_dataset",
    "chow_breakpoint_test",
    "compare_golden",
    "default_bandwidth",
    "embedded_dataset",
    "fetch_series",
    "fit_linear_gmm",
    "fit_ols",
    "hp_filter_gap",
    "inflation_gap",
    "jarque_bera_test",
    "lag",
    "linear_trend_gap",
    "load_golden",
    "natural_log",
    "newey_west_cov",
    "parse_quarterly_csv",
    "render_table",
    "reproduction_dataset",
    "run_table",
    "run_tables",
    "wald_test",
    "white_test",
    "yoy_change",
]
