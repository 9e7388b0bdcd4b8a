"""Moment and coefficient covariances for OLS and GMM: classical, or
Bartlett-kernel (Newey-West) long-run covariance for robust inference."""

from __future__ import annotations

import numpy as np

from .errors import CollinearityError, ConfigError, DomainError
from .records import Record, is_integer


class HacConfig(Record):
    _fields = ("bandwidth",)

    def __init__(self, bandwidth: int | None = None):  # None: sample-size rule
        if bandwidth is not None:
            if not is_integer(bandwidth):
                raise ConfigError(f"bandwidth must be an integer, got {bandwidth!r}")
            if bandwidth < 1:
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


def moment_root(Z: np.ndarray, e: np.ndarray, cfg: HacConfig | None) -> np.ndarray:
    """Root M, with M'M = S^-1, of the covariance S of the moments z_t * e_t,
    from the eigendecomposition of S scaled so that each moment has its
    classical size sqrt(z_j'z_j e'e) / T.

    Classical (``cfg`` None): S = (e'e/T) Z'Z/T. HAC: the Bartlett long-run
    covariance with ``cfg.bandwidth``, or the sample-size rule when None.

    Raises ``CollinearityError`` when the scaled S is singular to rounding:
    its reciprocal condition number is at most k * eps or, as k = 1 needs,
    a diagonal is at most n * eps for n kernel terms summed (min(m, T), or 1
    if classical). A one-quarter dummy among the regressors does this (its
    moment is rounding noise), and so does a bandwidth so large that every
    Bartlett weight rounds to 1, which leaves S = (Z'e)(Z'e)'/T.
    """
    T, k = Z.shape
    ee = float(e @ e)
    if cfg is None:
        S, n = ee / T * (Z.T @ Z) / T, 1
    else:
        m = cfg.bandwidth or default_bandwidth(T)
        S, n = long_run_cov(Z * e[:, None], m), min(m, T)
    scale = np.sqrt(np.einsum("ij,ij->j", Z, Z) * ee) / T
    scale[scale == 0] = 1.0  # a zero moment leaves a zero row, which the rcond test rejects
    S = S / np.outer(scale, scale)
    w, V = np.linalg.eigh(S)
    eps = np.finfo(float).eps
    if w[0] <= k * eps * w[-1]:
        raise CollinearityError(
            "singular moment covariance: the moments z_t * e_t are linearly dependent "
            "up to rounding"
        )
    if np.diag(S).min() <= n * eps:
        raise CollinearityError(
            "singular moment covariance: the variance of a moment z_t * e_t is rounding noise"
        )
    return (V / np.sqrt(w)).T / scale


def coef_cov(
    X: np.ndarray, Z: np.ndarray, e: np.ndarray, cfg: HacConfig | None
) -> np.ndarray:
    """Coefficient covariance T (X'Z S^-1 Z'X)^-1 = T (A'A)^-1 with
    A = M Z'X and M = moment_root(Z, e, cfg). A square A (OLS, or a
    just-identified GMM) is inverted directly, as (A'A)^-1 = A^-1 A^-T;
    an over-identified A goes through the R factor of its QR.

    With Z = X (OLS as GMM with the regressors as their own instruments)
    this is s^2 (X'X)^-1 for classical and the Newey-West sandwich
    (X'X)^-1 T S (X'X)^-1 for HAC. Both carry the EViews small-sample
    factor T/(T-k), which the published standard errors are built with.
    """
    T, k = X.shape
    A = moment_root(Z, e, cfg) @ (Z.T @ X)
    Ai = np.linalg.inv(A if A.shape[0] == k else np.linalg.qr(A, mode="r"))
    return T * T / (T - k) * (Ai @ Ai.T)


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
