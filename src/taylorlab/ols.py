"""Least-squares core with the full summary block of the published tables."""

from __future__ import annotations

import math
import re

import numpy as np

from . import dist
from .errors import CollinearityError, ConfigError, SampleError
from .hac import HacConfig, coef_cov
from .records import Frozen, Record
from .series import Dataset, Quarter, Series, common_span, lag

CONST = "const"

_TERM_RE = re.compile(r"^([A-Za-z_][\w]*)(?:\(-(\d+)\))?$")


class Term(Record):
    """A regressor or instrument: a series name plus a non-negative lag."""

    _fields = ("name", "lag")

    def __init__(self, name: str, lag: int = 0):
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

    def resolve(self, d: Dataset) -> Series:
        return lag(d[self.name], self.lag)


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
    regressor list; ``include_constant`` appends it at the end when absent.
    ``sample`` is a (start, end) Quarter pair, or None for the maximal
    sample the regressors allow. ``covariance`` is None for the classical
    estimator or a HacConfig for Newey-West.
    """

    _fields = ("dependent", "regressors", "include_constant", "sample", "covariance")

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
        if covariance is not None and not isinstance(covariance, HacConfig):
            raise ConfigError(f"unknown covariance estimator {covariance!r}")
        self.__dict__.update(
            dependent=dep, regressors=tuple(regs), include_constant=include_constant,
            sample=sample, covariance=covariance,
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

    ``x_matrix`` and ``y_vector`` are the design matrix and dependent
    vector over the adjusted sample, kept for the Chow regimes and the
    diagnostic tests' auxiliary regressions.
    """

    _fields = Estimate._fields + (
        "spec", "residuals", "log_likelihood", "f_statistic", "f_prob", "aic", "schwarz",
        "hannan_quinn", "x_matrix", "y_vector",
    )


def solve_ols(X: np.ndarray, y: np.ndarray, labels=None) -> np.ndarray:
    """The package's one least-squares solve, via QR. Needs more rows than
    columns, and names rank-deficient columns by ``labels`` (else index).
    Columns are scaled by powers of two (``unit_scale``), so that the rank
    rule is unit-free, and beta, a vector or matrix, is unscaled exactly."""
    T, k = X.shape
    if T <= k:
        raise SampleError(f"sample of {T} observations cannot identify {k} parameters")
    s = unit_scale(X)
    Q, R = np.linalg.qr(X * s)
    diag = np.abs(np.diag(R))
    tol = 1e-10 * diag.max() if diag.size else 0.0
    bad = np.nonzero(diag <= tol)[0]
    if bad.size:
        names = labels or [str(i) for i in range(k)]
        raise CollinearityError(
            f"design matrix is rank deficient in columns: {', '.join(names[i] for i in bad)}"
        )
    return (s * np.linalg.solve(R, Q.T @ y).T).T


def unit_scale(X: np.ndarray) -> np.ndarray:
    """Per-column powers of two 2^-e, e from ``np.frexp`` of the column's
    largest |x|, which bring that into [0.5, 1); 1 for a zero column."""
    return np.ldexp(1.0, -np.frexp(np.abs(X).max(axis=0))[1])


def auto_sample(d: Dataset, terms) -> tuple[Quarter, Quarter]:
    """The widest sample over which every non-constant term is observed."""
    series = [t.resolve(d) for t in terms if t.name != CONST]
    if not series:
        raise SampleError("cannot infer a sample from a constant-only model")
    start, end = common_span(series)
    if end < start:
        raise SampleError("regressors share no common quarter")
    return start, end


def term_columns(d: Dataset, terms, start: Quarter, end: Quarter) -> np.ndarray:
    """One column per term over [start, end]; ``const`` is a column of ones."""
    return np.column_stack([
        np.ones(end - start + 1) if t.name == CONST else t.resolve(d).window(start, end)
        for t in terms
    ])


def build_design(
    d: Dataset, spec: RegressionSpec
) -> tuple[np.ndarray, np.ndarray, tuple[Quarter, Quarter]]:
    """Dependent vector, design matrix and adjusted sample for a spec."""
    terms = [spec.dependent, *spec.regressors]
    start, end = spec.sample if spec.sample is not None else auto_sample(d, terms)
    if end < start:
        raise SampleError(f"empty sample range {start}..{end}")
    X = term_columns(d, spec.regressors, start, end)
    return spec.dependent.resolve(d).window(start, end), X, (start, end)


def reject_exact_fit(ssr: float, y: np.ndarray, where: str = "") -> None:
    """Raise ``CollinearityError`` when SSR <= (eps * T)^2 * y'y: y is then an
    exact linear combination of the regressors up to rounding, and the
    residuals are rounding noise. The scale is y'y, not the TSS of R^2, which
    is zero for a constant y. ``where`` is appended to the message."""
    if ssr <= (np.finfo(float).eps * len(y)) ** 2 * float(y @ y):
        raise CollinearityError(
            f"dependent variable is an exact linear combination of the regressors{where}"
        )


def summarize(y: np.ndarray, e: np.ndarray, k: int, has_constant: bool) -> dict:
    """Summary block shared by plain and instrumented fits, from the
    dependent vector, the residuals and the number of parameters.
    An exact fit raises (``reject_exact_fit``).
    """
    T = len(y)
    ssr = float(e @ e)
    mean = float(y.mean())
    dev = y - mean
    dev2 = float(np.sum(dev * dev))  # pairwise, as np.std sums it
    tss = dev2 if has_constant else float(y @ y)
    reject_exact_fit(ssr, y)
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (T - 1) / (T - k)
    dw = float(np.sum(np.diff(e) ** 2) / ssr)
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
    se = np.sqrt(np.diag(V))
    t_stats = beta / se
    return {
        "coefficients": beta,
        "covariance": V,
        "std_errors": se,
        "t_stats": t_stats,
        "p_values": np.array([dist.student_t_sf2(t, df) for t in t_stats.tolist()]),
    }


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
    stats = summarize(y, e, k, spec.has_constant)

    r2 = stats["r2"]
    if spec.has_constant and k > 1 and r2 < 1.0:
        f_stat = (r2 / (k - 1)) / ((1.0 - r2) / (T - k))
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
        y_vector=y,
        **inference(beta, coef_cov(X, X, e, spec.covariance), T - k),
        **stats,
    )
