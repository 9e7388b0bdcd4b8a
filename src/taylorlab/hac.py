"""Bartlett-kernel (Newey-West) long-run covariance for robust inference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class HacConfig:
    bandwidth: int | None = None  # None: sample-size rule
    # EViews-style small-sample scaling T/(T-k); required to reproduce the
    # published standard errors.
    df_adjust: bool = True

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth < 1:
            raise ConfigError(f"bandwidth must be >= 1, got {self.bandwidth}")


def default_bandwidth(T: int) -> int:
    """Fixed Newey-West bandwidth rule: floor(4 * (T/100)^(2/9)) + 1."""
    if T < 2:
        raise DomainError(f"sample size must be at least 2, got {T}")
    return int(4.0 * (T / 100.0) ** (2.0 / 9.0)) + 1


def long_run_cov(u: np.ndarray, m: int) -> np.ndarray:
    """Bartlett-weighted long-run covariance of a score series.

    S = (1/T) [Gamma_0 + sum_{j=1}^{m-1} (1 - j/m) (Gamma_j + Gamma_j')]
    with Gamma_j = sum_t u_t u_{t-j}'.
    """
    u = np.asarray(u, dtype=float)
    T = u.shape[0]
    S = u.T @ u / T
    for j in range(1, m):
        gamma = u[j:].T @ u[:-j] / T
        S += (1.0 - j / m) * (gamma + gamma.T)
    return 0.5 * (S + S.T)


def newey_west_cov(
    X: np.ndarray, e: np.ndarray, m: int, df_adjust: bool = True
) -> np.ndarray:
    """HAC coefficient covariance (X'X)^-1 T S (X'X)^-1.

    With m = 1 the kernel sum is empty and this reduces to the plain HC0
    sandwich. ``df_adjust`` applies the T/(T-k) small-sample factor.
    """
    X = np.asarray(X, dtype=float)
    e = np.asarray(e, dtype=float)
    if X.shape[0] != e.shape[0]:
        raise DomainError(
            f"design has {X.shape[0]} rows but residual vector has {e.shape[0]}"
        )
    if m < 1:
        raise DomainError(f"bandwidth must be >= 1, got {m}")
    T, k = X.shape
    S = long_run_cov(X * e[:, None], m)
    xtx_inv = np.linalg.inv(X.T @ X)
    V = xtx_inv @ (T * S) @ xtx_inv
    if df_adjust:
        V *= T / (T - k)
    return 0.5 * (V + V.T)
