"""Property test: results do not depend on the units of the data. Scaling the
dependent variable, a regressor or an instrument by a power of two rounds
nothing, so every t statistic, p-value and test statistic stays the same to
64 ulps (most stay bit-identical), or the same error is raised."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import diagnostics as dg
from taylorlab.errors import TaylorLabError
from taylorlab.gmm import GmmSpec, fit_linear_gmm
from taylorlab.hac import HacConfig
from taylorlab.ols import RegressionSpec, fit_ols
from taylorlab.series import Dataset, Quarter, Series

T = 40
_rng = np.random.default_rng(71)
_z1, _z2, _z3, _x2 = _rng.normal(size=(4, T))
_x1 = _z1 + 0.5 * _z2 + 0.3 * _rng.normal(size=T)
COLUMNS = {
    "y": 1.0 + 0.5 * _x1 - _x2 + _rng.normal(size=T) * (1.0 + 0.5 * np.abs(_x2)),
    "x1": _x1, "x2": _x2, "z1": _z1, "z2": _z2, "z3": _z3,
    "spike": np.eye(T)[7],
    "step": (np.arange(T) >= 20).astype(float),
}
SPEC = RegressionSpec("y", ("x1", "x2"))
EPS = np.finfo(float).eps


def _fit_values(fit):
    return [*fit.t_stats, *fit.p_values]


def _report_values(rep):
    return [v for s in rep.statistics for v in (s.value, s.p)]


# each check maps a dataset to the numbers it reports
CHECKS = {
    "ols": lambda d: _fit_values(fit_ols(d, SPEC)) + [fit_ols(d, SPEC).f_statistic],
    "ols-hac": lambda d: _fit_values(fit_ols(d, RegressionSpec(
        "y", ("x1", "x2"), covariance=HacConfig()))),
    "white": lambda d: _report_values(dg.white_test(fit_ols(d, SPEC))),
    # the step dummy's square duplicates it, in any units
    "white-step": lambda d: _report_values(dg.white_test(fit_ols(d, RegressionSpec(
        "y", ("x1", "step"))))),
    "bg": lambda d: _report_values(dg.breusch_godfrey_test(fit_ols(d, SPEC), 2)),
    "jb": lambda d: _report_values(dg.jarque_bera_test(fit_ols(d, SPEC).residuals)),
    "wald": lambda d: _report_values(dg.wald_test(fit_ols(d, SPEC), np.eye(3)[:2], np.zeros(2))),
    "chow": lambda d: _report_values(dg.chow_breakpoint_test(d, SPEC, Quarter(2005, 1))),
    "gmm": lambda d: _fit_values(g := fit_linear_gmm(d, GmmSpec(SPEC, ("z1", "z2", "z3", "x2"))))
    + [g.j_statistic, g.j_prob],
    "gmm-classical": lambda d: _fit_values(fit_linear_gmm(d, GmmSpec(
        SPEC, ("z1", "z2", "x2"), weighting=None))),
    # a one-quarter dummy's moment is rounding noise under HAC: this raises
    "spike-hac": lambda d: _fit_values(fit_ols(d, RegressionSpec(
        "y", ("x1", "spike"), covariance=HacConfig()))),
}


def _outcomes(scaled: str, p: int) -> dict:
    cols = dict(COLUMNS)
    cols[scaled] = np.ldexp(cols[scaled], p)
    d = Dataset("toy", {k: Series(k, Quarter(2000, 1), v) for k, v in cols.items()})
    out = {}
    for name, check in CHECKS.items():
        try:
            out[name] = np.array(check(d))
        except TaylorLabError as exc:
            out[name] = (type(exc), str(exc))
    return out


BASE = _outcomes("y", 0)


def test_base_outcomes_cover_values_and_an_error():
    assert isinstance(BASE["spike-hac"], tuple)
    assert all(isinstance(v, np.ndarray) for k, v in BASE.items() if k != "spike-hac")


@settings(max_examples=40, deadline=None)
@given(scaled=st.sampled_from(sorted(COLUMNS)), p=st.integers(-100, 100))
def test_power_of_two_units_change_nothing(scaled, p):
    for name, got in _outcomes(scaled, p).items():
        want = BASE[name]
        if isinstance(want, tuple):
            assert got == want, name
            continue
        assert isinstance(got, np.ndarray), (name, got)
        # a statistic that moves by an ulp (the Wald solve mixes units) moves
        # its tail probability by up to |d log p / d stat| * stat ulps
        assert got == pytest.approx(want, rel=64 * EPS, abs=0), name
