"""Rendering of estimation results and comparison against golden tables."""

from __future__ import annotations

import json
import math
from importlib import resources

from .diagnostics import TestReport
from .errors import ConfigError
from .ols import Estimate, FitResult
from .records import Frozen, Record


def _fmt_p(p: float) -> str:
    # printed convention: tiny p-values render as 0.0000
    return "0.0000" if p < 5e-5 else f"{p:.4f}"


# The summary block as (field, printed label) rows in print order: shared
# rows, then the least-squares or the GMM rows. A row without a label is
# flattened but not printed.
_SHARED_ROWS = (
    ("r2", "R-squared"),
    ("adj_r2", "Adjusted R-squared"),
    ("se_regression", "S.E. of regression"),
    ("ssr", "Sum squared resid"),
    ("durbin_watson", "Durbin-Watson stat"),
    ("mean_dep", "Mean dependent var"),
    ("sd_dep", "S.D. dependent var"),
    ("n_obs", None),
    ("n_params", None),
)
_FIT_ROWS = (
    ("log_likelihood", "Log likelihood"),
    ("aic", "Akaike info criterion"),
    ("schwarz", "Schwarz criterion"),
    ("hannan_quinn", "Hannan-Quinn criter."),
    ("f_statistic", "F-statistic"),
    ("f_prob", "Prob(F-statistic)"),
)
_GMM_ROWS = (
    ("j_statistic", "J-statistic"),
    ("j_prob", "Prob(J-statistic)"),
    ("instrument_rank", "Instrument rank"),
)


def _summary_rows(result: Estimate) -> tuple:
    return _SHARED_ROWS + (_FIT_ROWS if isinstance(result, FitResult) else _GMM_ROWS)


def flatten(result) -> dict:
    """Flat label -> value view of a result, used for golden lookups."""
    if isinstance(result, Estimate):
        out = {}
        for i, lab in enumerate(result.labels):
            out[f"coef:{lab}"] = float(result.coefficients[i])
            out[f"se:{lab}"] = float(result.std_errors[i])
            out[f"t:{lab}"] = float(result.t_stats[i])
            out[f"p:{lab}"] = float(result.p_values[i])
        for key, _ in _summary_rows(result):
            out[key] = float(getattr(result, key))
        return out
    if isinstance(result, TestReport):
        out = {}
        for s in result.statistics:
            out[f"stat:{s.form}"] = s.value
            out[f"p:{s.form}"] = s.p
        out.update(result.details)
        return out
    raise ConfigError(f"cannot flatten object of type {type(result).__name__}")


def _json_number(v: float) -> float | None:
    # JSON has no NaN or infinity: a value that is undefined (the F statistic
    # of a fit without a constant, the J tail of a just-identified GMM) or
    # that overflows a double is null
    return v if math.isfinite(v) else None


def to_dict(result) -> dict:
    """Full-precision structured view for JSON output."""
    if isinstance(result, Estimate):
        d = {
            "kind": "fit" if isinstance(result, FitResult) else "gmm",
            "sample": [str(result.sample[0]), str(result.sample[1])],
            "labels": list(result.labels),
            "coefficients": [float(v) for v in result.coefficients],
            "std_errors": [float(v) for v in result.std_errors],
            "t_stats": [float(v) for v in result.t_stats],
            "p_values": [float(v) for v in result.p_values],
        }
        d.update({k: _json_number(v) for k, v in flatten(result).items()})
        return d
    if isinstance(result, TestReport):
        return {
            "kind": "test",
            "name": result.name,
            "null_hypothesis": result.null_hypothesis,
            "statistics": [
                {"form": s.form, "value": _json_number(s.value), "df": list(s.df),
                 "p": _json_number(s.p)}
                for s in result.statistics
            ],
            "details": dict(result.details),
        }
    raise ConfigError(f"cannot render object of type {type(result).__name__}")


def render_table(result, fmt: str = "text") -> str:
    """Render a fit, GMM fit or test report as text or JSON."""
    if fmt == "json":
        return json.dumps(to_dict(result), sort_keys=True, allow_nan=False)
    if fmt != "text":
        raise ConfigError(f"unknown output format {fmt!r}")

    if isinstance(result, Estimate):
        lines = [
            f"Sample: {result.sample[0]} {result.sample[1]}",
            f"Included observations: {result.n_obs}",
            "",
            f"{'Variable':<18}{'Coefficient':>14}{'Std. Error':>14}"
            f"{'t-Statistic':>14}{'Prob.':>10}",
        ]
        for i, lab in enumerate(result.labels):
            lines.append(
                f"{lab:<18}{result.coefficients[i]:>14.6f}{result.std_errors[i]:>14.6f}"
                f"{result.t_stats[i]:>14.6f}{_fmt_p(result.p_values[i]):>10}"
            )
        lines.append("")
        for key, label in _summary_rows(result):
            value = float(getattr(result, key))
            if label is None or math.isnan(value):
                continue
            text = _fmt_p(value) if label.startswith("Prob") else f"{value:.6f}"
            lines.append(f"{label:<24}{text:>14}")
        return "\n".join(lines) + "\n"

    if isinstance(result, TestReport):
        lines = [result.name, f"Null hypothesis: {result.null_hypothesis}", ""]
        lines.append(f"{'Statistic':<12}{'Value':>14}{'df':>12}{'Prob.':>10}")
        for s in result.statistics:
            df = ",".join(str(v) for v in s.df)
            lines.append(f"{s.form:<12}{s.value:>14.6f}{df:>12}{_fmt_p(s.p):>10}")
        for key, value in result.details:
            lines.append(f"{key:<26}{value:>14.6f}")
        return "\n".join(lines) + "\n"

    raise ConfigError(f"cannot render object of type {type(result).__name__}")


class GoldenCell(Record):
    _fields = ("expected", "abs_tol", "rel_tol")

    def __init__(self, expected: float, abs_tol: float | None, rel_tol: float | None):
        if abs_tol is None and rel_tol is None:
            raise ConfigError("golden cell needs at least one tolerance")
        self.__dict__.update(expected=expected, abs_tol=abs_tol, rel_tol=rel_tol)


class GoldenTable(Frozen):
    """A stored table's cells by label; it holds a dict, so it compares by identity."""

    _fields = ("table_id", "country", "cells")

    def __init__(self, table_id: int, country: str, cells: dict[str, GoldenCell]):
        self.__dict__.update(table_id=table_id, country=country, cells=cells)


class CellDiff(Record):
    _fields = ("label", "observed", "expected", "abs_tol", "rel_tol", "passed")

    def __init__(
        self, label: str, observed: float, expected: float,
        abs_tol: float | None, rel_tol: float | None, passed: bool,
    ):
        self.__dict__.update(
            label=label, observed=observed, expected=expected,
            abs_tol=abs_tol, rel_tol=rel_tol, passed=passed,
        )


class GoldenDiff(Record):
    _fields = ("table_id", "rows")

    def __init__(self, table_id: int, rows: tuple[CellDiff, ...]):
        self.__dict__.update(table_id=table_id, rows=rows)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def load_golden(table_id: int) -> GoldenTable:
    """Load a shipped golden table by id (1..17)."""
    path = resources.files("taylorlab") / "golden" / f"table{table_id:02d}.json"
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"no golden table with id {table_id}") from None
    cells = {
        label: GoldenCell(v[0], v[1], v[2]) for label, v in payload["cells"].items()
    }
    return GoldenTable(payload["table_id"], payload["country"], cells)


def compare_golden(result, golden: GoldenTable) -> GoldenDiff:
    """Per-cell diff of a result against its golden table."""
    values = flatten(result)
    rows = []
    for label, cell in sorted(golden.cells.items()):
        if label not in values:
            raise ConfigError(
                f"golden table {golden.table_id} labels unknown field {label!r}"
            )
        obs = values[label]
        err = abs(obs - cell.expected)
        ok = False
        if cell.abs_tol is not None and err <= cell.abs_tol:
            ok = True
        if cell.rel_tol is not None and err <= cell.rel_tol * abs(cell.expected):
            ok = True
        rows.append(CellDiff(label, obs, cell.expected, cell.abs_tol, cell.rel_tol, ok))
    return GoldenDiff(golden.table_id, tuple(rows))


def render_diff(diff: GoldenDiff) -> str:
    lines = [
        f"Table {diff.table_id}: {'PASS' if diff.passed else 'FAIL'} "
        f"({sum(r.passed for r in diff.rows)}/{len(diff.rows)} cells)"
    ]
    for r in diff.rows:
        mark = "ok  " if r.passed else "FAIL"
        lines.append(
            f"  {mark} {r.label:<24} observed {r.observed:>14.6f}"
            f"  expected {r.expected:>14.6f}"
        )
    return "\n".join(lines) + "\n"
