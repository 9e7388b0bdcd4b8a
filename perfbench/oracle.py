"""Independent checks of panel_scale outputs, run in their own process.

    python oracle.py <outputs.json>

The outputs file holds the seed and, per panel length, what the program
returned. The panels are regenerated from the seed and every check is
recomputed here from the raw levels without taylorlab:

* HP trend: dense solve of (I + lambda D'D) tau = y (np.linalg.solve);
* coefficients against np.linalg.lstsq on an independently built design;
* classical covariance, and HAC covariance as (X'X)^-1 U'KU (X'X)^-1 with K
  the sparse Bartlett weight band;
* every p-value against scipy.stats, and Jarque-Bera against
  scipy.stats.jarque_bera.

scipy is imported only here, never in the measured process. Prints one JSON
line: {"ok": {length: bool}, "errors": [...]}.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import scipy.sparse
import scipy.stats

import panels

HP_LAMBDA = 1600.0
TARGET = 2.0
YOY = 4


def hp_trend(y, lam):
    n = len(y)
    D = scipy.sparse.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(n - 2, n))
    A = (scipy.sparse.identity(n) + lam * (D.T @ D)).toarray()
    return np.linalg.solve(A, y)


def _close(name, got, want, rtol, atol, errors):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol):
        diff = np.max(np.abs(got - want)) if got.shape == want.shape else "shape"
        errors.append(f"{name}: max abs diff {diff}")


def _p_of(stat):
    form, value, df = stat["form"], stat["value"], stat["df"]
    if form == "F":
        return scipy.stats.f.sf(value, df[0], df[1])
    return scipy.stats.chi2.sf(value, df[0])


def check_panel(panel, out, errors):
    n = panel.n
    lg = np.log(panel.levels["real_gdp"])
    lc = np.log(panel.levels["cpi"])
    ls = np.log(panel.levels["stock_index"])
    rate = panel.levels["interest_rate"]

    gap = 100.0 * (lg - hp_trend(lg, HP_LAMBDA))
    _close(f"n={n} output_gap", out["output_gap"], gap, 0, 1e-6, errors)

    infl = 100.0 * (lc[YOY:] - lc[:-YOY]) - TARGET
    s = 100.0 * (ls[YOY:] - ls[:-YOY])
    X = np.column_stack([infl, gap[YOY:], s, np.ones(n - YOY)])
    y = rate[YOY:]
    T, k = X.shape
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    e = y - X @ beta
    xtx_inv = np.linalg.inv(X.T @ X)

    cls, hac = out["classical"], out["hac"]
    for fit in (cls, hac):
        _close(f"n={n} {fit['kind']} coefficients", fit["coefficients"], beta, 1e-7, 1e-10, errors)
        if fit["n_obs"] != T:
            errors.append(f"n={n} sample has {fit['n_obs']} observations, expected {T}")
    want = float(e @ e) / (T - k) * xtx_inv
    _close(f"n={n} classical covariance", out["classical_cov"], want,
           1e-7, 1e-9 * np.abs(want).max(), errors)

    m = int(4.0 * (T / 100.0) ** (2.0 / 9.0)) + 1
    lags = range(-(m - 1), m)
    K = scipy.sparse.diags([np.full(T - abs(j), 1.0 - abs(j) / m) for j in lags], list(lags))
    U = X * e[:, None]
    V = xtx_inv @ (U.T @ (K @ U)) @ xtx_inv * T / (T - k)
    _close(f"n={n} hac covariance", out["hac_cov"], V, 1e-7, 1e-9 * np.abs(V).max(), errors)

    for fit in (cls, hac, out["gmm"]):
        df = fit["n_obs"] - fit["n_params"]
        want = 2.0 * scipy.stats.t.sf(np.abs(fit["t_stats"]), df)
        _close(f"n={n} {fit['kind']} p-values", fit["p_values"], want, 1e-6, 1e-12, errors)
    want = scipy.stats.f.sf(cls["f_statistic"], k - 1, T - k)
    _close(f"n={n} F p-value", cls["f_prob"], want, 1e-6, 1e-12, errors)
    g = out["gmm"]
    over_id = int(g["instrument_rank"]) - g["n_params"]
    _close(f"n={n} J p-value", g["j_prob"], scipy.stats.chi2.sf(g["j_statistic"], over_id),
           1e-6, 1e-12, errors)
    for test in out["tests"]:
        for stat in test["statistics"]:
            _close(f"n={n} {test['name']} {stat['form']} p-value", stat["p"], _p_of(stat),
                   1e-6, 1e-12, errors)
    jb = next(t for t in out["tests"] if t["name"].startswith("Jarque-Bera"))
    _close(f"n={n} Jarque-Bera statistic", jb["statistics"][0]["value"],
           scipy.stats.jarque_bera(e).statistic, 1e-6, 0, errors)


def main(path):
    with open(path) as fh:
        payload = json.load(fh)
    by_length = {p.n: p for p in panels.generate(payload["seed"])}
    ok, errors = {}, []
    for length, out in payload["outputs"].items():
        mine = []
        try:
            check_panel(by_length[int(length)], out, mine)
        except (KeyError, ValueError, TypeError, np.linalg.LinAlgError) as exc:
            mine.append(f"n={length}: {type(exc).__name__}: {exc}")
        ok[length] = not mine
        errors += mine
    print(json.dumps({"ok": ok, "errors": errors}))


if __name__ == "__main__":
    main(sys.argv[1])
