"""Least-squares core with the full summary block of the published tables."""

from __future__ import annotations

import math
import re

import numpy as np

from . import dist
from .errors import CollinearityError, ConfigError, SampleError
from .hac import _EPS, HacConfig, coef_cov
from .records import Frozen, Record, is_integer
from .series import Dataset, Quarter, Series, lag

CONST = "const"

_TERM_RE = re.compile(r"^([A-Za-z_][\w]*)(?:\(-([0-9]+)\))?$")


class Term(Record):
    """A regressor or instrument: a series name plus a non-negative lag."""

    _fields = ("name", "lag")

    def __init__(self, name: str, lag: int = 0):
        if not is_integer(lag) or lag < 0:
            raise ConfigError(f"lag of {name} must be a non-negative integer, got {lag!r}")
        if name == CONST and lag:
            raise ConfigError(f"the constant takes no lag: {name}(-{lag})")
        self.__dict__.update(name=name, lag=lag)

    @classmethod
    def parse(cls, text: str) -> "Term":
        m = _TERM_RE.match(text.strip())
        if not m:
            raise ConfigError(f"cannot parse term {text!r}; expected name or name(-k)")
        return cls(m.group(1), int(m.group(2) or 0))

    @property
    def label(self) -> str:
        if self.name == CONST:
            return "C"
        return self.name if self.lag == 0 else f"{self.name}(-{self.lag})"


def coerce_terms(terms) -> tuple[Term, ...]:
    out = []
    for t in terms:
        out.append(t if isinstance(t, Term) else Term.parse(str(t)))
    if len({(t.name, t.lag) for t in out}) != len(out):
        raise ConfigError("duplicate regressor terms")
    return tuple(out)


class RegressionSpec(Record):
    """Declarative model: dependent, ordered regressors, sample, covariance.

    The constant is the literal term ``const`` and may sit anywhere in the
    regressor list. ``include_constant`` is a constructor switch, not a
    field: it appends ``const`` at the end when absent, and ``has_constant``
    reads the terms. ``sample`` is a (start, end) Quarter pair, or None for
    the maximal sample the regressors allow. ``covariance`` is None for the
    classical estimator or a HacConfig for Newey-West.
    """

    _fields = ("dependent", "regressors", "sample", "covariance")

    def __init__(
        self, dependent: Term | str, regressors, include_constant: bool = True,
        sample: tuple[Quarter, Quarter] | None = None, covariance: HacConfig | None = None,
    ):
        dep = dependent if isinstance(dependent, Term) else Term.parse(str(dependent))
        regs = list(coerce_terms(regressors))
        if include_constant and not any(t.name == CONST for t in regs):
            regs.append(Term(CONST))
        if not regs:
            raise ConfigError("model needs at least one regressor or a constant")
        if dep in regs:
            raise ConfigError(f"dependent variable {dep.label} cannot also be a regressor")
        if sample is not None and not (
            isinstance(sample, tuple) and len(sample) == 2
            and all(isinstance(q, Quarter) for q in sample)
        ):
            raise ConfigError(f"sample must be None or a pair of Quarters, got {sample!r}")
        if covariance is not None and not isinstance(covariance, HacConfig):
            raise ConfigError(f"unknown covariance estimator {covariance!r}")
        self.__dict__.update(
            dependent=dep, regressors=tuple(regs), sample=sample, covariance=covariance
        )

    @property
    def has_constant(self) -> bool:
        return any(t.name == CONST for t in self.regressors)


class Estimate(Frozen):
    """Coefficient table and summary block shared by OLS and GMM results.

    Built from keyword arguments, one per field: the labels, the arrays
    ``coefficients``, ``std_errors``, ``t_stats``, ``p_values`` and
    ``covariance``, the (start, end) ``sample``, and the summary block of
    ``summarize``. An estimate holds arrays, so it compares by identity:
    ``fit == fit`` holds, two fits of one spec are unequal.
    """

    _fields = (
        "labels", "coefficients", "std_errors", "t_stats", "p_values", "covariance", "sample",
        "n_obs", "n_params", "r2", "adj_r2", "se_regression", "ssr", "durbin_watson",
        "mean_dep", "sd_dep",
    )

    def __init__(self, **fields):
        if fields.keys() != set(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(self._fields)}; "
                f"got {', '.join(fields)}"
            )
        self.__dict__.update(fields)

    def coef(self, label: str) -> float:
        return self.coefficients[self.labels.index(label)]


class FitResult(Estimate):
    """Complete estimation output of one least-squares run: the estimate
    plus its spec, residual series and information criteria.

    ``x_matrix`` is the design matrix over the adjusted sample. The White
    and Breusch-Godfrey tests build their auxiliary regressions from it and
    the residuals.
    """

    _fields = Estimate._fields + (
        "spec", "residuals", "log_likelihood", "f_statistic", "f_prob", "aic", "schwarz",
        "hannan_quinn", "x_matrix",
    )


def solve_ols(X: np.ndarray, y: np.ndarray, labels=None) -> np.ndarray:
    """The package's one least-squares solve, via QR. ``X`` is a design
    (T, k) or a stack of designs (m, T, k), with ``y`` a vector or a matrix
    per design; beta has the matching shape. Needs more rows than columns,
    and names the rank-deficient columns of the first deficient design by
    ``labels`` (else index). Columns are scaled by powers of two
    (``unit_scale``), so that the rank rule is unit-free, and beta is
    unscaled exactly. Zero rows change neither R nor Q'y, so designs with
    fewer observations stack zero-padded to T rows."""
    T, k = X.shape[-2:]
    reject_unidentified(T, k)
    s = unit_scale(X)
    Q, R = np.linalg.qr(X * s)
    diag = np.abs(R.diagonal(axis1=-2, axis2=-1))
    tol = 1e-10 * diag.max(axis=-1, keepdims=True) if k else 0.0
    bad = diag <= tol
    if bad.any():
        bad = bad.reshape(-1, k)
        names = labels or [str(i) for i in range(k)]
        cols = np.flatnonzero(bad[bad.any(axis=1).argmax()])
        raise CollinearityError(
            f"design matrix is rank deficient in columns: {', '.join(names[i] for i in cols)}"
        )
    vector = y.ndim < X.ndim
    beta = np.linalg.solve(R, Q.swapaxes(-1, -2) @ (y[..., None] if vector else y))
    beta = beta * s.swapaxes(-1, -2)
    return beta[..., 0] if vector else beta


def unit_scale(X: np.ndarray) -> np.ndarray:
    """Per-column powers of two 2^-e, e from ``np.frexp`` of the column's
    largest |x|, which bring that into [0.5, 1); 1 for a zero column. The
    row axis is kept, so ``X * unit_scale(X)`` scales a design or a stack."""
    return np.ldexp(1.0, -np.frexp(_column_peaks(X))[1])[..., None, :]


def _column_peaks(X: np.ndarray) -> np.ndarray:
    """The largest |x| of each column of a design or a stack of designs,
    reduced along rows of a C-ordered transposed copy: a faster pass than
    down the strided columns, with the same values, as a max rounds nothing.
    The copy costs more than it saves below about 20 to 60 rows (best of 7:
    1.7 against 2.5 µs at 5×4), but the only small design solved per request
    is GMM's 5×4 weighted step, about 1 µs a call, so one path serves all."""
    return np.abs(X.swapaxes(-1, -2), order="C").max(axis=-1)


def reject_unidentified(T: int, k: int, where: str = "") -> None:
    """Raise ``SampleError`` when T observations cannot identify k
    parameters. ``where`` is appended to the message."""
    if T <= k:
        raise SampleError(f"sample of {T} observations cannot identify {k} parameters{where}")


def _span(d: Dataset, t: Term) -> tuple[np.ndarray, int, int]:
    """The values of a non-constant term's series, and the quarter indexes
    of the term's first and last observation: the series lagged by
    ``t.lag``, without building it. A lag that the series cannot take
    raises through ``series.lag``."""
    s = d[t.name]
    values = s.values
    if t.lag >= len(values):
        lag(s, t.lag)
    first = s.start.index
    return values, first + t.lag, first + len(values) - 1


def _window(d: Dataset, t: Term, start: Quarter, end: Quarter) -> np.ndarray:
    """A non-constant term over [start, end] as a read-only view of its
    series' values: the term at quarter index i is ``values[i - first]``.
    A sample that the term does not cover raises through ``Series.window``."""
    values, first, last = _span(d, t)
    lo, hi = start.index, end.index
    if not first <= lo <= hi <= last:
        return lag(d[t.name], t.lag).window(start, end)
    return values[lo - first : hi - first + 1]


def auto_sample(d: Dataset, terms) -> tuple[Quarter, Quarter]:
    """The widest sample over which every non-constant term is observed."""
    spans = [_span(d, t) for t in terms if t.name != CONST]
    if not spans:
        raise SampleError("cannot infer a sample from a constant-only model")
    first = max(span[1] for span in spans)
    last = min(span[2] for span in spans)
    if last < first:
        raise SampleError("regressors share no common quarter")
    return Quarter.from_index(first), Quarter.from_index(last)


def term_columns(d: Dataset, terms, start: Quarter, end: Quarter) -> np.ndarray:
    """One column per term over [start, end]; ``const`` is a column of ones.
    An inverted range raises ``SampleError``."""
    if end < start:
        raise SampleError(f"empty sample range {start}..{end}")
    return np.column_stack([
        np.ones(end - start + 1) if t.name == CONST else _window(d, t, start, end)
        for t in terms
    ])


def build_design(
    d: Dataset, spec: RegressionSpec, instruments=()
) -> tuple[np.ndarray, np.ndarray, tuple[Quarter, Quarter]]:
    """Dependent vector, design matrix and adjusted sample for a spec. Each
    column is sliced from its series' values by quarter index. An automatic
    sample (``spec.sample`` None) is the widest over which the dependent,
    the regressors and the ``instruments`` terms are all observed."""
    terms = [spec.dependent, *spec.regressors, *instruments]
    start, end = spec.sample if spec.sample is not None else auto_sample(d, terms)
    X = term_columns(d, spec.regressors, start, end)
    return _window(d, spec.dependent, start, end), X, (start, end)


_EXACT_FIT = "dependent variable is an exact linear combination of the regressors"


def _exact_fit(ssr: float, ff: float, T: int) -> bool:
    """``reject_exact_fit``'s rule for T observations whose fitted-term
    sizes f have f'f = ff."""
    return ssr <= (_EPS * T) ** 2 * ff


def reject_exact_fit(ssr: float, X: np.ndarray, beta: np.ndarray, where: str = "") -> None:
    """Raise ``CollinearityError`` when SSR <= (eps * T)^2 * |f|^2 for
    f = |X| |beta|, the size of each observation's fitted terms: y is then an
    exact linear combination of the regressors up to rounding. The rounding
    level of the residuals scales with f, not with y, which is much smaller
    where the fitted terms cancel. Each |x_j||b_j| survives a power-of-two
    column scaling exactly, so the rule is unit-free. ``where`` is appended
    to the message."""
    f = np.abs(X) @ np.abs(beta)
    if _exact_fit(ssr, float(f @ f), len(f)):
        raise CollinearityError(_EXACT_FIT + where)


def summarize(
    y: np.ndarray, e: np.ndarray, X: np.ndarray, beta: np.ndarray, has_constant: bool
) -> dict:
    """Summary block shared by plain and instrumented fits, from the
    dependent vector, the residuals, the design and the coefficients.
    An exact fit raises (``reject_exact_fit``).
    """
    T, k = X.shape
    ssr = float(e @ e)
    mean = float(y.mean())
    dev = y - mean
    dev2 = float((dev * dev).sum())  # pairwise, as np.std sums it
    tss = dev2 if has_constant else float(y @ y)
    reject_exact_fit(ssr, X, beta)
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (T - 1) / (T - k)
    dw = float(((e[1:] - e[:-1]) ** 2).sum() / ssr)
    return {
        "n_obs": T,
        "n_params": k,
        "ssr": ssr,
        "r2": r2,
        "adj_r2": adj_r2,
        "se_regression": math.sqrt(ssr / (T - k)),
        "durbin_watson": dw,
        "mean_dep": mean,
        "sd_dep": math.sqrt(dev2 / (T - 1)),
    }


def inference(beta: np.ndarray, V: np.ndarray, df: int) -> dict:
    """Coefficients and covariance with their standard errors, t statistics
    and two-sided Student-t p-values on ``df`` degrees of freedom."""
    se = np.sqrt(V.diagonal())
    t_stats = beta / se
    return {
        "coefficients": beta,
        "covariance": V,
        "std_errors": se,
        "t_stats": t_stats,
        "p_values": np.array([dist.student_t_sf2(t, df) for t in t_stats.tolist()]),
    }


def nested_f(ssr_r: float, ssr_u: float, q: int, df: int) -> float:
    """F of a least-squares fit against its restriction by q linear
    constraints: (SSR_r - SSR_u)/q over SSR_u/df, for df residual degrees of
    freedom of the unrestricted fit. The difference is clamped at zero,
    which it can round below when the restriction costs nothing; SSR_u is
    positive for any fit that ``reject_exact_fit`` lets through."""
    return max(ssr_r - ssr_u, 0.0) / q / (ssr_u / df)


def log_likelihood(ssr: float, T: int) -> float:
    """Gaussian log likelihood of a least-squares fit."""
    return -T / 2.0 * (1.0 + math.log(2.0 * math.pi) + math.log(ssr / T))


def fit_ols(d: Dataset, spec: RegressionSpec) -> FitResult:
    """Estimate a spec by least squares over its adjusted sample."""
    y, X, sample = build_design(d, spec)
    T, k = X.shape
    labels = tuple(t.label for t in spec.regressors)
    beta = solve_ols(X, y, labels)
    e = y - X @ beta
    stats = summarize(y, e, X, beta, spec.has_constant)

    if spec.has_constant and k > 1:
        # against the constant alone, whose SSR is the centred TSS
        f_stat = nested_f(float(((y - stats["mean_dep"]) ** 2).sum()), stats["ssr"], k - 1, T - k)
        f_prob = dist.f_sf(f_stat, k - 1, T - k)
    else:
        f_stat, f_prob = math.nan, math.nan

    ll = log_likelihood(stats["ssr"], T)
    return FitResult(
        spec=spec,
        labels=labels,
        residuals=Series("resid", sample[0], e),
        sample=sample,
        log_likelihood=ll,
        f_statistic=f_stat,
        f_prob=f_prob,
        aic=(-2.0 * ll + 2.0 * k) / T,
        schwarz=(-2.0 * ll + k * math.log(T)) / T,
        hannan_quinn=(-2.0 * ll + 2.0 * k * math.log(math.log(T))) / T,
        x_matrix=X,
        **inference(beta, coef_cov(X, X, e, spec.covariance), T - k),
        **stats,
    )
