"""Least-squares core with the full summary block of the published tables."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import dist
from .errors import CollinearityError, ConfigError, SampleError
from .hac import HacConfig, default_bandwidth, newey_west_cov
from .series import Dataset, Quarter, Series, common_span, lag

CONST = "const"

_TERM_RE = re.compile(r"^([A-Za-z_][\w]*)(?:\(-(\d+)\))?$")


@dataclass(frozen=True)
class Term:
    """A regressor or instrument: a series name plus a non-negative lag."""

    name: str
    lag: int = 0

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


@dataclass(frozen=True)
class RegressionSpec:
    """Declarative model: dependent, ordered regressors, sample, covariance.

    The constant is the literal term ``const`` and may sit anywhere in the
    regressor list; ``include_constant`` appends it at the end when absent.
    ``sample`` is a (start, end) Quarter pair, or None for the maximal
    sample the regressors allow. ``covariance`` is None for the classical
    estimator or a HacConfig for Newey-West.
    """

    dependent: Term
    regressors: tuple[Term, ...]
    include_constant: bool = True
    sample: tuple[Quarter, Quarter] | None = None
    covariance: HacConfig | None = None

    def __post_init__(self):
        dep = self.dependent if isinstance(self.dependent, Term) else Term.parse(str(self.dependent))
        regs = list(coerce_terms(self.regressors))
        if self.include_constant and not any(t.name == CONST for t in regs):
            regs.append(Term(CONST))
        if not regs:
            raise ConfigError("model needs at least one regressor or a constant")
        object.__setattr__(self, "dependent", dep)
        object.__setattr__(self, "regressors", tuple(regs))
        if self.covariance is not None and not isinstance(self.covariance, HacConfig):
            raise ConfigError(f"unknown covariance estimator {self.covariance!r}")

    @property
    def has_constant(self) -> bool:
        return any(t.name == CONST for t in self.regressors)


@dataclass(frozen=True)
class FitResult:
    """Complete estimation output of one least-squares run."""

    spec: RegressionSpec
    labels: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    covariance: np.ndarray
    residuals: Series
    sample: tuple[Quarter, Quarter]
    n_obs: int
    n_params: int
    r2: float
    adj_r2: float
    se_regression: float
    ssr: float
    log_likelihood: float
    f_statistic: float
    f_prob: float
    durbin_watson: float
    aic: float
    schwarz: float
    hannan_quinn: float
    mean_dep: float
    sd_dep: float
    # design matrix and dependent vector over the adjusted sample; kept for
    # the diagnostic tests' auxiliary regressions
    x_matrix: np.ndarray = field(repr=False, default=None)
    y_vector: np.ndarray = field(repr=False, default=None)

    def coef(self, label: str) -> float:
        return self.coefficients[self.labels.index(label)]


def solve_ols(X: np.ndarray, y: np.ndarray, labels=None) -> np.ndarray:
    """Least-squares coefficients via QR with a rank check on diag(R)."""
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    tol = 1e-10 * diag.max() if diag.size else 0.0
    bad = np.nonzero(diag <= tol)[0]
    if bad.size:
        names = (
            ", ".join(labels[i] for i in bad)
            if labels is not None
            else ", ".join(str(i) for i in bad)
        )
        raise CollinearityError(f"design matrix is rank deficient in columns: {names}")
    return np.linalg.solve(R, Q.T @ y)


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


def summarize(
    y: np.ndarray, X: np.ndarray, beta: np.ndarray, has_constant: bool
) -> dict:
    """Summary statistics shared by plain and instrumented fits."""
    T, k = X.shape
    e = y - X @ beta
    ssr = float(e @ e)
    tss = float(np.sum((y - y.mean()) ** 2)) if has_constant else float(y @ y)
    r2 = 1.0 - ssr / tss if tss > 0 else 0.0
    adj_r2 = 1.0 - (1.0 - r2) * (T - 1) / (T - k)
    ll = -T / 2.0 * (1.0 + math.log(2.0 * math.pi) + math.log(ssr / T)) if ssr > 0 else math.inf
    dw = float(np.sum(np.diff(e) ** 2) / ssr) if ssr > 0 else 0.0
    return {
        "residual_vector": e,
        "ssr": ssr,
        "r2": r2,
        "adj_r2": adj_r2,
        "se_regression": math.sqrt(ssr / (T - k)),
        "log_likelihood": ll,
        "durbin_watson": dw,
        "mean_dep": float(y.mean()),
        "sd_dep": float(np.std(y, ddof=1)),
    }


def fit_ols(d: Dataset, spec: RegressionSpec) -> FitResult:
    """Estimate a spec by least squares over its adjusted sample."""
    y, X, sample = build_design(d, spec)
    T, k = X.shape
    if T <= k:
        raise SampleError(f"sample of {T} observations cannot identify {k} parameters")
    labels = tuple(t.label for t in spec.regressors)
    beta = solve_ols(X, y, labels)
    stats = summarize(y, X, beta, spec.has_constant)
    e = stats.pop("residual_vector")

    if spec.covariance is None:
        s2 = stats["ssr"] / (T - k)
        V = s2 * np.linalg.inv(X.T @ X)
    else:
        m = spec.covariance.bandwidth or default_bandwidth(T)
        V = newey_west_cov(X, e, m, spec.covariance.df_adjust)

    se = np.sqrt(np.diag(V))
    t_stats = beta / se
    p_values = np.array([dist.student_t_sf2(t, T - k) for t in t_stats])

    r2 = stats["r2"]
    if spec.has_constant and k > 1 and r2 < 1.0:
        f_stat = (r2 / (k - 1)) / ((1.0 - r2) / (T - k))
        f_prob = dist.f_sf(f_stat, k - 1, T - k)
    else:
        f_stat, f_prob = math.nan, math.nan

    ll = stats["log_likelihood"]
    return FitResult(
        spec=spec,
        labels=labels,
        coefficients=beta,
        std_errors=se,
        t_stats=t_stats,
        p_values=p_values,
        covariance=V,
        residuals=Series("resid", sample[0], e),
        sample=sample,
        n_obs=T,
        n_params=k,
        f_statistic=f_stat,
        f_prob=f_prob,
        aic=(-2.0 * ll + 2.0 * k) / T,
        schwarz=(-2.0 * ll + k * math.log(T)) / T,
        hannan_quinn=(-2.0 * ll + 2.0 * k * math.log(math.log(T))) / T,
        x_matrix=X,
        y_vector=y,
        **stats,
    )
