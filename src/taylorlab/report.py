"""Rendering of estimation results and comparison against golden tables."""

from __future__ import annotations

import json
import math
import os

from .diagnostics import TestReport
from .errors import ConfigError
from .ols import Estimate, FitResult
from .records import Frozen, Record, is_integer

# the shipped golden tables' directory, with a trailing separator
_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "")


def _fmt_p(p: float) -> str:
    # printed convention: tiny p-values render as 0.0000
    return "0.0000" if p < 5e-5 else f"{p:.4f}"


def _fmt_num(v: float, prob: bool = False) -> str:
    """A number for a 14-wide cell: ``.6f`` when that fits in 13 characters
    and does not round a nonzero value to zero, else 6 significant digits,
    which always fit, so that neighbouring cells stay separate tokens. A
    probability (``prob``) keeps ``.6f``: tiny p-values print as zero. The
    text reads as zero exactly when it holds no digit but 0."""
    text = f"{v:.6f}"
    return text if prob or (len(text) <= 13 and (text.strip("-0.") or not v)) else f"{v:.6g}"


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


def _coefficient_rows(result: Estimate):
    """(label, coefficient, standard error, t, p) per regressor, as floats."""
    return zip(result.labels, result.coefficients.tolist(), result.std_errors.tolist(),
               result.t_stats.tolist(), result.p_values.tolist())


def flatten(result) -> dict:
    """Flat label -> value view of a result, used for golden lookups."""
    if isinstance(result, Estimate):
        out = {}
        for lab, coef, se, t, p in _coefficient_rows(result):
            out[f"coef:{lab}"] = coef
            out[f"se:{lab}"] = se
            out[f"t:{lab}"] = t
            out[f"p:{lab}"] = p
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


def to_dict(result) -> dict:
    """Full-precision structured view for JSON output."""
    # JSON has no NaN or infinity: a value that is undefined (the F statistic
    # of a fit without a constant, the J tail of a just-identified GMM) or
    # that overflows a double is null
    isfinite = math.isfinite
    if isinstance(result, Estimate):
        d = {
            "kind": "fit" if isinstance(result, FitResult) else "gmm",
            "sample": [str(result.sample[0]), str(result.sample[1])],
            "labels": list(result.labels),
            "coefficients": result.coefficients.tolist(),
            "std_errors": result.std_errors.tolist(),
            "t_stats": result.t_stats.tolist(),
            "p_values": result.p_values.tolist(),
        }
        d.update({k: v if isfinite(v) else None for k, v in flatten(result).items()})
        return d
    if isinstance(result, TestReport):
        return {
            "kind": "test",
            "name": result.name,
            "null_hypothesis": result.null_hypothesis,
            "statistics": [
                {"form": s.form, "value": s.value if isfinite(s.value) else None,
                 "df": list(s.df), "p": s.p if isfinite(s.p) else None}
                for s in result.statistics
            ],
            "details": dict(result.details),
        }
    raise ConfigError(f"cannot render object of type {type(result).__name__}")


# what json.dumps(..., sort_keys=True, allow_nan=False) builds on every call
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


def render_table(result, fmt: str = "text") -> str:
    """Render a fit, GMM fit or test report as text or JSON."""
    if fmt == "json":
        return _JSON.encode(to_dict(result))
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
        for lab, coef, se, t, p in _coefficient_rows(result):
            lines.append(
                f"{lab:<18}{_fmt_num(coef):>14}{_fmt_num(se):>14}{_fmt_num(t):>14}"
                f"{_fmt_p(p):>10}"
            )
        lines.append("")
        for key, label in _summary_rows(result):
            value = float(getattr(result, key))
            if label is None or math.isnan(value):
                continue
            text = _fmt_p(value) if label.startswith("Prob") else _fmt_num(value)
            lines.append(f"{label:<24}{text:>14}")
        return "\n".join(lines) + "\n"

    if isinstance(result, TestReport):
        lines = [result.name, f"Null hypothesis: {result.null_hypothesis}", ""]
        lines.append(f"{'Statistic':<12}{'Value':>14}{'df':>12}{'Prob.':>10}")
        for s in result.statistics:
            df = ",".join(str(v) for v in s.df)
            lines.append(f"{s.form:<12}{_fmt_num(s.value):>14}{df:>12}{_fmt_p(s.p):>10}")
        for key, value in result.details:
            lines.append(f"{key:<26}{_fmt_num(value):>14}")
        return "\n".join(lines) + "\n"

    raise ConfigError(f"cannot render object of type {type(result).__name__}")


_NO_TOLERANCE = "golden cell needs at least one tolerance"


class GoldenCell(Record):
    _fields = ("expected", "abs_tol", "rel_tol")

    def __new__(cls, expected: float, abs_tol: float | None, rel_tol: float | None):
        if abs_tol is None and rel_tol is None:
            raise ConfigError(_NO_TOLERANCE)
        return tuple.__new__(cls, (expected, abs_tol, rel_tol))


class GoldenTable(Frozen):
    """A stored table's cells by label; it holds a dict, so it compares by identity."""

    _fields = ("table_id", "cells")

    def __init__(self, table_id: int, cells: dict[str, GoldenCell]):
        self.__dict__.update(table_id=table_id, cells=cells)


class CellDiff(Record):
    _fields = ("label", "observed", "expected", "passed")

    def __new__(cls, label: str, observed: float, expected: float, passed: bool):
        return tuple.__new__(cls, (label, observed, expected, passed))


class GoldenDiff(Record):
    _fields = ("table_id", "rows")

    def __new__(cls, table_id: int, rows: tuple[CellDiff, ...]):
        return tuple.__new__(cls, (table_id, rows))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


# A golden file is a few hundred bytes to a few KB: one read takes it whole.
_READ_SIZE = 1 << 16


def load_golden(table_id: int) -> GoldenTable:
    """Load a shipped golden table by id (1..17)."""
    if not is_integer(table_id):
        raise ConfigError(f"no golden table with id {table_id}")
    try:
        fd = os.open(f"{_GOLDEN_DIR}table{table_id:02d}.json", os.O_RDONLY)
    except FileNotFoundError:
        raise ConfigError(f"no golden table with id {table_id}") from None
    try:
        chunks = [os.read(fd, _READ_SIZE)]
        while len(chunks[-1]) == _READ_SIZE:
            chunks.append(os.read(fd, _READ_SIZE))
    finally:
        os.close(fd)
    # the files are ASCII, which json.loads reads as bytes with no text decoder
    payload = json.loads(b"".join(chunks))
    cells = payload["cells"]
    for v in cells.values():
        if v[1] is None and v[2] is None:
            raise ConfigError(_NO_TOLERANCE)
    new = tuple.__new__
    return GoldenTable(payload["table_id"], {
        label: new(GoldenCell, v) for label, v in cells.items()
    })


def compare_golden(result, golden: GoldenTable) -> GoldenDiff:
    """Per-cell diff of a result against its golden table: a cell passes when
    its error is within its absolute or its relative tolerance."""
    values = flatten(result)
    new = tuple.__new__
    rows = []
    for label, (expected, abs_tol, rel_tol) in sorted(golden.cells.items()):
        try:
            obs = values[label]
        except KeyError:
            raise ConfigError(
                f"golden table {golden.table_id} labels unknown field {label!r}"
            ) from None
        err = abs(obs - expected)
        # a bool, even where a numpy observation compares to a numpy bool
        ok = True if ((abs_tol is not None and err <= abs_tol)
                      or (rel_tol is not None and err <= rel_tol * abs(expected))) else False
        rows.append(new(CellDiff, (label, obs, expected, ok)))
    return GoldenDiff(golden.table_id, tuple(rows))


def render_diff(diff: GoldenDiff) -> str:
    lines = [
        f"Table {diff.table_id}: {'PASS' if diff.passed else 'FAIL'} "
        f"({sum(r.passed for r in diff.rows)}/{len(diff.rows)} cells)"
    ]
    for r in diff.rows:
        mark = "ok  " if r.passed else "FAIL"
        prob = r.label.startswith("p:") or r.label.endswith("_prob")
        lines.append(
            f"  {mark} {r.label:<24} observed {_fmt_num(r.observed, prob):>14}"
            f"  expected {_fmt_num(r.expected, prob):>14}"
        )
    return "\n".join(lines) + "\n"
