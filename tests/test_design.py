"""Property test: designs sliced from quarter indexes equal designs built from
lagged series. ``auto_sample``, ``term_columns`` and
``build_design`` must return bit-identical arrays and the same quarters as
the lag-based reference below, or raise the same error type and text."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taylorlab.errors import ConfigError, SampleError, TaylorLabError
from taylorlab.gmm import GmmSpec, fit_linear_gmm
from taylorlab.ols import (
    CONST, RegressionSpec, Term, auto_sample, build_design, fit_ols, term_columns,
)
from taylorlab.series import Dataset, Quarter, Series, common_span, lag


# The reference: every term built as a lagged Series, every window taken
# through Series.window.
def ref_auto_sample(d, terms):
    resolved = [lag(d[t.name], t.lag) for t in terms if t.name != CONST]
    if not resolved:
        raise SampleError("cannot infer a sample from a constant-only model")
    start, end = common_span(resolved)
    if end < start:
        raise SampleError("regressors share no common quarter")
    return start, end


def ref_term_columns(d, terms, start, end):
    if end < start:
        raise SampleError(f"empty sample range {start}..{end}")
    return np.column_stack([
        np.ones(end - start + 1) if t.name == CONST else lag(d[t.name], t.lag).window(start, end)
        for t in terms
    ])


def ref_build_design(d, spec):
    terms = [spec.dependent, *spec.regressors]
    start, end = spec.sample if spec.sample is not None else ref_auto_sample(d, terms)
    X = ref_term_columns(d, spec.regressors, start, end)
    dep = spec.dependent
    return lag(d[dep.name], dep.lag).window(start, end), X, (start, end)


def _outcome(fn, *args):
    """What a call returns, arrays as (shape, dtype, bytes), or the error
    it raises as (type, text)."""
    try:
        out = fn(*args)
    except TaylorLabError as exc:
        return type(exc), str(exc)
    return _plain(out)


def _plain(out):
    if isinstance(out, np.ndarray):
        return out.shape, out.dtype, out.tobytes()
    if isinstance(out, tuple):
        return tuple(_plain(o) for o in out)
    return out


BASE = Quarter(1990, 1).index
NAMES = ("a", "b", "c")


@st.composite
def datasets(draw):
    # series with different starts and lengths of 1 to 12 quarters; a
    # dataset's series share a quarter, here BASE + 8
    cols = {}
    for name in NAMES:
        first = draw(st.integers(0, 8))
        n = draw(st.integers(9 - first, 12))
        values = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=n)
        cols[name] = Series(name, _quarter(BASE + first), values)
    return Dataset("toy", cols)


def _quarter(i):
    return Quarter(i // 4, i % 4 + 1)


# names include the constant and a series the dataset lacks; lags run from 0
# to beyond every series' length (a negative lag cannot be built, see
# test_negative_lag_is_refused)
terms = st.builds(
    lambda name, k: Term(name, 0 if name == CONST else k),
    st.sampled_from(NAMES + (CONST, "missing")),
    st.integers(0, 14),
)
# quarters around the data's span: either side of it, possibly inverted
quarters = st.integers(BASE - 2, BASE + 24).map(_quarter)


@settings(max_examples=300, deadline=None)
@given(d=datasets(), ts=st.lists(terms, max_size=4))
def test_auto_sample_matches_reference(d, ts):
    assert _outcome(auto_sample, d, ts) == _outcome(ref_auto_sample, d, ts)


@settings(max_examples=300, deadline=None)
@given(d=datasets(), ts=st.lists(terms, min_size=1, max_size=4), start=quarters, end=quarters)
def test_term_columns_match_reference(d, ts, start, end):
    assert _outcome(term_columns, d, ts, start, end) == _outcome(
        ref_term_columns, d, ts, start, end)


@settings(max_examples=400, deadline=None)
@given(
    d=datasets(), dep=terms, regs=st.lists(terms, min_size=1, max_size=4),
    sample=st.none() | st.tuples(quarters, quarters),
)
def test_build_design_matches_reference(d, dep, regs, sample):
    try:
        spec = RegressionSpec(dep, regs, include_constant=False, sample=sample)
    except TaylorLabError:  # duplicate terms, or the dependent among them
        assume(False)
    assert _outcome(build_design, d, spec) == _outcome(ref_build_design, d, spec)


def test_negative_lag_is_refused():
    # refused where the term is built, not when a fit lags its series
    with pytest.raises(ConfigError, match="lag of a must be a non-negative integer, got -1"):
        Term("a", -1)


def _count_series(monkeypatch):
    built = []
    init = Series.__init__

    def counting_init(self, name, *args):
        built.append(name)
        init(self, name, *args)

    monkeypatch.setattr(Series, "__init__", counting_init)
    return built


def test_gmm_fit_builds_no_series(us_data, monkeypatch):
    # lagged regressors and instruments are sliced, not built as lagged Series
    spec = GmmSpec(
        RegressionSpec("it", ("const", "inflation_gap", "output_gap", "s(-1)")),
        ("inflation_gap(-1)", "inflation_gap(-2)", "output_gap(-1)", "output_gap(-2)"),
    )
    built = _count_series(monkeypatch)
    fit_linear_gmm(us_data, spec)
    assert built == []


def test_ols_fit_builds_only_its_residuals(us_data, monkeypatch):
    built = _count_series(monkeypatch)
    fit_ols(us_data, RegressionSpec("it", ("const", "inflation_gap", "output_gap", "s(-1)")))
    assert built == ["resid"]


@pytest.mark.parametrize("lag", [0, 3])
def test_dependent_is_a_read_only_view(us_data, lag):
    y, _, (start, _) = build_design(
        us_data, RegressionSpec(Term("it", lag), ("inflation_gap",)))
    assert not y.flags.writeable
    assert y[0] == us_data["it"].values[start - us_data["it"].start - lag]
