"""Moment and coefficient covariances for OLS and GMM: classical, or
Bartlett-kernel (Newey-West) long-run covariance for robust inference."""

from __future__ import annotations

import numpy as np

from .errors import CollinearityError, ConfigError, DomainError
from .records import Record


class HacConfig(Record):
    _fields = ("bandwidth",)

    def __init__(self, bandwidth: int | None = None):  # None: sample-size rule
        if bandwidth is not None and bandwidth < 1:
            raise ConfigError(f"bandwidth must be >= 1, got {bandwidth}")
        self.__dict__.update(bandwidth=bandwidth)


def default_bandwidth(T: int) -> int:
    """Fixed Newey-West bandwidth rule: floor(4 * (T/100)^(2/9)) + 1."""
    if T < 2:
        raise DomainError(f"sample size must be at least 2, got {T}")
    return int(4.0 * (T / 100.0) ** (2.0 / 9.0)) + 1


def long_run_cov(u: np.ndarray, m: int) -> np.ndarray:
    """Bartlett-weighted long-run covariance of a score series.

    S = (1/T) [Gamma_0 + sum_{j=1}^{m-1} (1 - j/m) (Gamma_j + Gamma_j')]
    with Gamma_j = sum_t u_t u_{t-j}', which is zero for j >= T, so the sum
    stops at min(m, T).
    """
    u = np.asarray(u, dtype=float)
    T = u.shape[0]
    S = u.T @ u / T
    for j in range(1, min(m, T)):
        gamma = u[j:].T @ u[:-j] / T
        S += (1.0 - j / m) * (gamma + gamma.T)
    return 0.5 * (S + S.T)


def moment_cov(Z: np.ndarray, e: np.ndarray, cfg: HacConfig | None) -> np.ndarray:
    """Covariance S of the moment series z_t * e_t.

    Classical (``cfg`` None): (e'e/T) Z'Z/T. HAC: the Bartlett long-run
    covariance with ``cfg.bandwidth``, or the sample-size rule when None.

    Raises ``CollinearityError`` when S is singular to rounding: scaled so
    that each moment has its classical size sqrt(z_j'z_j e'e) / T, its
    reciprocal condition number is at most k * eps. A one-quarter dummy
    among the regressors does this (the fit matches its quarter exactly, so
    its moment is rounding noise), and so does a bandwidth so large that
    every Bartlett weight rounds to 1, which leaves S = (Z'e)(Z'e)'/T.
    """
    T, k = Z.shape
    ee = float(e @ e)
    if cfg is None:
        S = ee / T * (Z.T @ Z) / T
    else:
        S = long_run_cov(Z * e[:, None], cfg.bandwidth or default_bandwidth(T))
    scale = np.sqrt(np.einsum("ij,ij->j", Z, Z) * ee) / T
    w = np.linalg.eigvalsh(S / np.outer(scale, scale)) if ee else (0.0,)
    if w[0] <= k * np.finfo(float).eps * w[-1]:
        raise CollinearityError(
            "singular moment covariance: the moments z_t * e_t are linearly dependent "
            "up to rounding"
        )
    return S


def coef_cov(
    X: np.ndarray, Z: np.ndarray, e: np.ndarray, cfg: HacConfig | None
) -> np.ndarray:
    """Coefficient covariance T (X'Z S^-1 Z'X)^-1 with S = moment_cov(Z, e, cfg).

    With Z = X (OLS as GMM with the regressors as their own instruments)
    this is s^2 (X'X)^-1 for classical and the Newey-West sandwich
    (X'X)^-1 T S (X'X)^-1 for HAC. Both carry the EViews small-sample
    factor T/(T-k), which the published standard errors are built with.
    """
    T, k = X.shape
    XZ = X.T @ Z
    V = T * np.linalg.inv(XZ @ np.linalg.solve(moment_cov(Z, e, cfg), XZ.T))
    V *= T / (T - k)
    return 0.5 * (V + V.T)


def newey_west_cov(X: np.ndarray, e: np.ndarray, m: int) -> np.ndarray:
    """HAC coefficient covariance (X'X)^-1 T S (X'X)^-1 times T/(T-k).

    With m = 1 the kernel sum is empty and this reduces to the plain HC0
    sandwich times T/(T-k).
    """
    X = np.asarray(X, dtype=float)
    e = np.asarray(e, dtype=float)
    if X.shape[0] != e.shape[0]:
        raise DomainError(
            f"design has {X.shape[0]} rows but residual vector has {e.shape[0]}"
        )
    if m < 1:
        raise DomainError(f"bandwidth must be >= 1, got {m}")
    return coef_cov(X, X, e, HacConfig(m))
