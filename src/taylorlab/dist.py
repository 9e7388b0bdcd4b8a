"""Tail probabilities for the normal, Student-t, F and chi-square laws.

Built on the regularized incomplete gamma and beta functions: a power
series for the gamma function at small arguments and modified Lentz
continued fractions elsewhere. Target absolute accuracy is 1e-10 or
better over the df ranges used here. A series or fraction that has not
converged within its term cap raises DomainError instead of returning a
partial sum. A df or shape parameter that is not positive and finite, or a
NaN argument, raises DomainError before any series or fraction runs, as
does a parameter whose log-gamma overflows; an infinite statistic has an
upper tail of 0.
"""

from __future__ import annotations

import math

from .errors import DomainError

_EPS = 1e-15
_TINY = 1e-300
# Term cap shared by the power series and the continued fractions; the
# incomplete-beta fraction takes two terms per step of its recurrence.
_MAX_ITER = 1000


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _lgamma(name: str, value: float) -> float:
    """``math.lgamma`` of a df or shape parameter; ``DomainError`` naming
    it when the log-gamma overflows."""
    try:
        return math.lgamma(value)
    except OverflowError:
        raise DomainError(f"{name} is too large for its log-gamma, got {value}") from None


def _gamma_p_series(a: float, x: float) -> float:
    # Power series of the lower regularized P(a, x) without its prefactor;
    # good for x < a + 1.
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise DomainError(
        f"incomplete gamma series did not converge in {_MAX_ITER} terms (a={a}, x={x})"
    )


def _gamma_q_cf(a: float, x: float) -> float:
    # Continued fraction of the upper regularized Q(a, x) without its
    # prefactor, 1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))), by the
    # modified Lentz method.
    # The guards and the convergence test are chained comparisons between
    # bounds held in locals, which take the same branches as abs() against
    # the bound (NaN fails both) without a call.
    tiny, neg_tiny, eps, neg_eps = _TINY, -_TINY, _EPS, -_EPS
    b = x + 1.0 - a
    h = c = b if b != 0.0 else tiny
    d = 0.0
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = b + an * d
        d = 1.0 / (tiny if neg_tiny < d < tiny else d)
        c = b + an / c
        c = tiny if neg_tiny < c < tiny else c
        delta = c * d
        h *= delta
        if neg_eps < delta - 1.0 < eps:
            return 1.0 / h
    raise DomainError(f"continued fraction did not converge in {_MAX_ITER} terms")


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a)."""
    x = float(x)  # numpy scalars would make every term several times slower
    _check_positive("shape parameter", a)
    if not x >= 0:
        raise DomainError(f"argument must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    front = math.exp(-x + a * math.log(x) - _lgamma("shape parameter", a))
    if x < a + 1.0:
        return 1.0 - front * _gamma_p_series(a, x)
    return front * _gamma_q_cf(a, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, 1/(1 + d1/(1 + d2/(1 + ...)))
    # with d_{2m+1} = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1)) and
    # d_{2m} = m(b-m)x / ((a+2m-1)(a+2m)), by modified Lentz. As in Numerical
    # Recipes' betacf, pass m takes d_{2m-1} and then, within the cap, d_{2m}.
    # guards and convergence test as chained comparisons, as in _gamma_q_cf
    tiny, neg_tiny, eps, neg_eps = _TINY, -_TINY, _EPS, -_EPS
    h = c = 1.0
    d = 0.0
    an = -(a + b) * x / (a + 1.0)
    half = _MAX_ITER // 2
    for m in range(1, (_MAX_ITER + 1) // 2 + 1):
        d = 1.0 + an * d
        d = 1.0 / (tiny if neg_tiny < d < tiny else d)
        c = 1.0 + an / c
        c = tiny if neg_tiny < c < tiny else c
        delta = c * d
        h *= delta
        if neg_eps < delta - 1.0 < eps:
            return 1.0 / h
        if m > half:
            break
        a2m = a + 2 * m
        an = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 + an * d
        d = 1.0 / (tiny if neg_tiny < d < tiny else d)
        c = 1.0 + an / c
        c = tiny if neg_tiny < c < tiny else c
        delta = c * d
        h *= delta
        if neg_eps < delta - 1.0 < eps:
            return 1.0 / h
        an = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))
    raise DomainError(f"continued fraction did not converge in {_MAX_ITER} terms")


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    x = float(x)  # numpy scalars would make every term several times slower
    _check_positive("beta parameter a", a)
    _check_positive("beta parameter b", b)
    if not 0 <= x <= 1:
        raise DomainError(f"argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        _lgamma("beta parameter sum a + b", a + b) - _lgamma("beta parameter a", a)
        - _lgamma("beta parameter b", b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # Symmetry switch keeps the continued fraction in its fast region.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail probability P(X > x) for chi-square with df degrees."""
    _check_positive("degrees of freedom", df)
    if not x >= 0:
        raise DomainError(f"chi-square statistic must be non-negative, got {x}")
    return regularized_gamma_q(df / 2.0, x / 2.0)


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided p-value 2 * P(T > |t|) for Student-t: T^2 follows F(1, df)."""
    if math.isnan(t):
        raise DomainError("t statistic is NaN")
    _check_positive("degrees of freedom", df)
    return f_sf(t * t, 1, df)


def f_sf(x: float, df1: float, df2: float) -> float:
    """Upper-tail probability for the Fisher F distribution."""
    _check_positive("df1", df1)
    _check_positive("df2", df2)
    if not x >= 0:
        raise DomainError(f"F statistic must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    return regularized_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))
