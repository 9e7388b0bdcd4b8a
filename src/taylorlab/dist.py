"""Tail probabilities for the normal, Student-t, F and chi-square laws.

Built on the regularized incomplete gamma and beta functions: a power
series for the gamma function at small arguments and modified Lentz
continued fractions elsewhere. Target absolute accuracy is 1e-10 or
better over the df ranges used here.
"""

from __future__ import annotations

import math

from .errors import DomainError

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    # Lower regularized P(a, x) by its power series; good for x < a + 1.
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_cf(a: float, x: float) -> float:
    # Upper regularized Q(a, x) by continued fraction (modified Lentz).
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a)."""
    if a <= 0:
        raise DomainError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise DomainError(f"argument must be non-negative, got {x}")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_cf(a, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise DomainError(f"beta parameters must be positive, got a={a}, b={b}")
    if x < 0 or x > 1:
        raise DomainError(f"argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
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
    if df <= 0:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if not x >= 0:
        raise DomainError(f"chi-square statistic must be non-negative, got {x}")
    if x == math.inf:
        return 0.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def student_t_sf2(t: float, df: float) -> float:
    """Two-sided p-value 2 * P(T > |t|) for Student-t with df degrees."""
    if df <= 0:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if math.isnan(t):
        raise DomainError("t statistic is NaN")
    if t == 0.0:
        return 1.0
    return regularized_beta(df / 2.0, 0.5, df / (df + t * t))


def f_sf(x: float, df1: float, df2: float) -> float:
    """Upper-tail probability for the Fisher F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise DomainError(f"degrees of freedom must be positive, got ({df1}, {df2})")
    if not x >= 0:
        raise DomainError(f"F statistic must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    return regularized_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))
