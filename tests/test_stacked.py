"""Property tests of stacked least squares. ``solve_ols`` on a stack of
designs, each zero-padded to a common number of rows, must match solving
them one at a time, and ``chow_breakpoint_test``, which solves its pooled
model and both regimes as one stack, must match the three-solve test kept
below as its reference, ``_chow_by_system``, which ``test_diagnostics``
also draws on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import diagnostics
from taylorlab.diagnostics import chow_breakpoint_test
from taylorlab.errors import SampleError, TaylorLabError
from taylorlab.ols import (
    RegressionSpec, build_design, log_likelihood, reject_exact_fit, reject_unidentified,
    solve_ols,
)
from taylorlab.series import Dataset, Quarter, Series
from taylorlab.tables import baseline_spec

LABELS = ("a", "b", "c", "d", "e")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TaylorLabError as exc:
        return type(exc), str(exc)


@st.composite
def stacks(draw):
    """Up to three systems of k columns, each on a run of rows of a T-row
    stack, zero elsewhere; one may hold a duplicated or a zero column. Each
    has at least 2k + 2 rows, so that a draw is well conditioned."""
    k = draw(st.integers(1, 5))
    T = draw(st.integers(2 * k + 2, 60))
    c = draw(st.sampled_from([None, 1, 3]))  # y a vector, or a matrix of c columns
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    systems = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2 * k + 2, T))
        lo = draw(st.integers(0, T - n))
        X = rng.normal(size=(n, k)) * np.ldexp(1.0, rng.integers(-30, 30, size=k))
        y = rng.normal(size=(n,) if c is None else (n, c))
        systems.append((slice(lo, lo + n), X, y))
    fault = draw(st.sampled_from([None, "duplicate", "zero"]))
    if fault and k > 1:
        _, X, _ = systems[draw(st.integers(0, len(systems) - 1))]
        i, j = draw(st.permutations(range(k)))[:2]
        X[:, j] = X[:, i] if fault == "duplicate" else 0.0
    return T, systems


def _one_at_a_time(systems):
    return [solve_ols(X, y, LABELS) for _, X, y in systems]


def _stacked(T, systems):
    m, k = len(systems), systems[0][1].shape[1]
    Xs = np.zeros((m, T, k))
    ys = np.zeros((m, T) + systems[0][2].shape[1:])
    for i, (rows, X, y) in enumerate(systems):
        Xs[i, rows], ys[i, rows] = X, y
    return list(solve_ols(Xs, ys, LABELS))


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_zero_padded_stack_matches_solves_one_at_a_time(stack):
    T, systems = stack
    want = _outcome(_one_at_a_time, systems)
    got = _outcome(_stacked, T, systems)
    if isinstance(want, tuple):  # the first deficient system's columns named
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for b, w, (_, X, y) in zip(got, want, systems):
        assert b.shape == w.shape
        # coefficient j is held to 1e-13 of its scale |y| / |x_j|, which a
        # coefficient near 0, a difference, is much smaller than
        err = np.abs(b - w).reshape(X.shape[1], -1) * np.linalg.norm(X, axis=0)[:, None]
        assert (err <= 1e-13 * np.linalg.norm(y.reshape(len(y), -1), axis=0)).all()


def _chow_by_system(d, spec, break_at):
    """Chow's F, LR and Wald form with each system fitted alone, in the
    error order of ``chow_breakpoint_test``: the pooled model, the
    breakpoint, then each regime's size, every system's rank and each
    system's exact fit."""
    y, X, (start, end) = build_design(d, spec)
    T, k = X.shape
    reject_unidentified(T, k)
    if not start < break_at <= end:
        raise SampleError(f"breakpoint {break_at} outside sample {start}..{end}")
    n1 = break_at - start
    systems = [
        (slice(None), ""),
        (slice(None, n1), f" over the regime {start}..{break_at.offset(-1)}"),
        (slice(n1, None), f" over the regime {break_at}..{end}"),
    ]
    for rows, where in systems[1:]:
        reject_unidentified(len(y[rows]), k, where)
    labels = [t.label for t in spec.regressors]
    betas = [solve_ols(X[rows], y[rows], labels) for rows, _ in systems]
    ssrs = []
    for (rows, where), beta in zip(systems, betas):
        ssrs.append(reject_exact_fit(y[rows] - X[rows] @ beta, X[rows], beta, where))
    ssr, ssr1, ssr2 = ssrs
    F = max(ssr - ssr1 - ssr2, 0.0) / k / ((ssr1 + ssr2) / (T - 2 * k))
    lr = 2.0 * sum(log_likelihood(s, n) for s, n in ((ssr1, n1), (ssr2, T - n1)))
    lr -= 2.0 * log_likelihood(ssr, T)
    return F, lr, k * F


START = Quarter(2000, 1)
FAULTS = (
    None, "tiny sample", "break outside", "collinear", "exact fit",
    "regime collinear", "regime exact fit", "small regime",
)


@st.composite
def chow_cases(draw):
    """A toy dataset, spec and breakpoint with at most one fault."""
    T = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fault = draw(st.sampled_from(FAULTS))
    k = 3  # x1, x2 and the constant
    n1 = draw(st.integers(k + 1, T - k - 1))
    x1, x2 = rng.normal(size=(2, T))
    y = 1.0 + 0.5 * x1 - x2 + rng.normal(size=T)
    sample = None
    if fault == "tiny sample":
        sample = (START, START.offset(draw(st.integers(0, k - 1))))
    elif fault == "break outside":
        n1 = draw(st.sampled_from([-3, 0, T, T + 5]))
    elif fault == "collinear":
        x2 = 3.0 * x1
    elif fault == "exact fit":
        y = 1.0 + 0.5 * x1 - x2
    elif fault == "regime collinear":  # x2 is zero before the break
        x2[:n1] = 0.0
    elif fault == "regime exact fit":
        # 12 quarters or more, so that the SSR, rounding noise, is far below
        # the exact-fit bound (eps T)^2 y'y, which grows as T^2
        n1 = min(n1, T - 12)
        y[n1:] = 1.0 + 0.5 * x1[n1:] - x2[n1:]
    elif fault == "small regime":
        n1 = draw(st.sampled_from([1, k, T - k, T - 1]))
    # units: each series scaled by a power of two, which rounds nothing
    units = np.ldexp(1.0, rng.integers(-20, 20, size=3))
    columns = zip(("y", "x1", "x2"), (y, x1, x2), units)
    d = Dataset("toy", {n: Series(n, START, v * u) for n, v, u in columns})
    return d, RegressionSpec("y", ("x1", "x2"), sample=sample), START.offset(n1)


def _chow_values(d, spec, break_at):
    rep = chow_breakpoint_test(d, spec, break_at)
    return tuple(rep.stat(form).value for form in ("F", "LR", "chi2"))


@settings(max_examples=300, deadline=None)
@given(chow_cases())
def test_chow_matches_three_solve_reference(case):
    want = _outcome(_chow_by_system, *case)
    got = _outcome(_chow_values, *case)
    if isinstance(want[0], type):
        assert got == want
        return
    assert not isinstance(got[0], type), got
    # F = (ssr / (ssr1 + ssr2) - 1) (T - 2k) / k is a difference, as LR is
    # of n log(variance ratio) terms: each is held to 1e-12 of the terms it
    # is the difference of, which a statistic near 0 is much smaller than
    _, X, _ = build_design(*case[:2])
    T, k = X.shape
    f_scale = want[0] + (T - 2 * k) / k
    scale = (f_scale, abs(want[1]) + T, k * f_scale)
    for form, g, w, s in zip(("F", "LR", "chi2"), got, want, scale):
        assert abs(g - w) <= 1e-12 * s, form


def test_chow_makes_one_solve(us_data, monkeypatch):
    calls = []

    def counting_solve(X, *args):
        calls.append(X.shape)
        return solve_ols(X, *args)

    monkeypatch.setattr(diagnostics, "solve_ols", counting_solve)
    chow_breakpoint_test(us_data, baseline_spec("us"), Quarter(2003, 1))
    assert calls == [(3, 117, 3)]

