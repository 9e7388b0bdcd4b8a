import codecs
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab import diagnostics, report
from taylorlab.diagnostics import jarque_bera_test, wald_test
from taylorlab.errors import ConfigError
from taylorlab.gmm import GmmSpec, fit_linear_gmm
from taylorlab.ols import Estimate, FitResult, RegressionSpec, fit_ols
from taylorlab.report import (
    CellDiff,
    GoldenCell,
    GoldenTable,
    _fmt_num,
    compare_golden,
    flatten,
    load_golden,
    render_diff,
    render_table,
    to_dict,
)
from taylorlab.tables import baseline_spec, run_table


@pytest.fixture(scope="module")
def us_fit(us_data):
    return fit_ols(us_data, baseline_spec("us"))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFlatten:
    def test_fit_labels(self, us_fit):
        flat = flatten(us_fit)
        assert flat["coef:inflation_gap"] == us_fit.coef("inflation_gap")
        assert flat["n_obs"] == 117.0
        assert "aic" in flat and "f_statistic" in flat

    def test_gmm_has_j_keys(self, us_data):
        flat = flatten(run_table(9, us_data))
        assert "j_statistic" in flat and "j_prob" in flat
        assert flat["instrument_rank"] == 5.0
        assert "aic" not in flat

    def test_test_report_keys(self, us_data):
        flat = flatten(run_table(3, us_data))
        assert set(flat) == {
            "stat:F", "p:F", "stat:LR", "p:LR", "stat:chi2", "p:chi2"
        }

    def test_unknown_object_rejected(self):
        with pytest.raises(ConfigError):
            flatten(object())


class TestRenderTable:
    def test_text_contains_coefficients(self, us_fit):
        text = render_table(us_fit, "text")
        assert "inflation_gap" in text
        assert f"{us_fit.coef('inflation_gap'):.6f}" in text
        assert "R-squared" in text
        assert "Included observations: 117" in text

    def test_tiny_p_renders_as_zero(self, us_fit):
        assert "0.0000" in render_table(us_fit, "text")

    def test_json_round_trip(self, us_fit):
        assert json.loads(render_table(us_fit, "json")) == to_dict(us_fit)

    def test_json_keeps_test_details(self, us_fit):
        # the Wald restriction values print in the text; JSON carries them too
        report = wald_test(us_fit, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.5, 0.5])
        details = json.loads(render_table(report, "json"))["details"]
        flat = flatten(report)
        assert set(details) == {
            "restriction:1", "restriction_se:1", "restriction:2", "restriction_se:2"
        }
        assert details == {k: flat[k] for k in details}
        assert to_dict(report)["details"] == dict(report.details)

    def test_json_undefined_values_are_null(self, us_data):
        # no F statistic without a constant, no J tail when just identified
        no_const = fit_ols(us_data, RegressionSpec("it", ("inflation_gap", "output_gap"),
                                                   include_constant=False))
        gmm = fit_linear_gmm(
            us_data, GmmSpec(RegressionSpec("it", ("inflation_gap",)), ("inflation_gap(-1)",))
        )
        for result, keys in ((no_const, ("f_statistic", "f_prob")), (gmm, ("j_prob",))):
            text = render_table(result, "json")
            payload = json.loads(text, parse_constant=_reject_constant)
            assert all(payload[k] is None for k in keys)
            assert payload == to_dict(result)
            assert np.isnan([flatten(result)[k] for k in keys]).all()

    def test_json_refuses_a_stray_nan(self, us_fit, monkeypatch):
        monkeypatch.setattr("taylorlab.report.to_dict", lambda r: {"x": float("nan")})
        with pytest.raises(ValueError):
            render_table(us_fit, "json")

    def test_test_report_text(self, us_data):
        rep = jarque_bera_test(fit_ols(us_data, baseline_spec("us")).residuals)
        text = render_table(rep, "text")
        assert "Jarque-Bera" in text
        assert "Null hypothesis" in text

    def test_rendering_is_deterministic(self, us_fit):
        assert render_table(us_fit, "text") == render_table(us_fit, "text")
        assert render_table(us_fit, "json") == render_table(us_fit, "json")

    def test_unknown_format_rejected(self, us_fit):
        with pytest.raises(ConfigError):
            render_table(us_fit, "yaml")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unknown_result_type_rejected(self, fmt):
        with pytest.raises(ConfigError, match="^cannot render object of type object$"):
            render_table(object(), fmt)


def _parent_json_number(v):
    return v if math.isfinite(v) else None


def _parent_to_dict(result):
    # the JSON view as it was written with a mapping function per number
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
        d.update({k: _parent_json_number(v) for k, v in flatten(result).items()})
        return d
    return {
        "kind": "test",
        "name": result.name,
        "null_hypothesis": result.null_hypothesis,
        "statistics": [
            {"form": s.form, "value": _parent_json_number(s.value), "df": list(s.df),
             "p": _parent_json_number(s.p)}
            for s in result.statistics
        ],
        "details": dict(result.details),
    }


def _text(view):
    # NaN spelled out, so that two views holding NaN compare equal
    return json.dumps(view, sort_keys=True)


_ODD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.25e300])


class TestToDict:
    @pytest.fixture(scope="class")
    def gmm(self, us_data):
        return run_table(9, us_data)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_estimates_equal_the_mapping_per_number(self, us_fit, gmm, data):
        for result in (us_fit, gmm):
            summary = {key: data.draw(_ODD) for key, _ in report._summary_rows(result)}
            arrays = {
                key: np.array([data.draw(_ODD) for _ in result.labels])
                for key in ("coefficients", "std_errors", "t_stats", "p_values")
            }
            odd = type(result)(**dict(vars(result), **summary, **arrays))
            got = to_dict(odd)
            assert _text(got) == _text(_parent_to_dict(odd))
            assert all(got[k] is None for k, v in summary.items() if not math.isfinite(v))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(value=_ODD, p=_ODD, chi2=_ODD, chi2_p=_ODD, detail=_ODD)
    def test_reports_equal_the_mapping_per_number(self, value, p, chi2, chi2_p, detail):
        stat = diagnostics.TestStatistic
        rep = diagnostics.TestReport("Odd test", "nothing", (
            stat("F", value, (1, 20), p), stat("chi2", chi2, (1,), chi2_p),
        ), details=(("restriction:1", detail),))
        got = to_dict(rep)
        assert _text(got) == _text(_parent_to_dict(rep))
        assert got["statistics"][0]["value"] == (value if math.isfinite(value) else None)


class TestGoldenTables:
    def test_all_seventeen_load(self):
        for tid in range(1, 18):
            g = load_golden(tid)
            assert g.table_id == tid
            assert g.cells

    @pytest.mark.parametrize("tid", range(1, 18))
    def test_read_as_bytes_as_in_text_mode(self, tid):
        # load_golden hands json.loads the file's bytes: for ASCII without a
        # byte-order mark that is the parse of its UTF-8 text
        path = Path(report.__file__).parent / "golden" / f"table{tid:02d}.json"
        raw = path.read_bytes()
        assert raw.isascii() and not raw.startswith(codecs.BOM_UTF8)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        g = load_golden(tid)
        assert g.table_id == payload["table_id"] == tid
        cells = {label: (c.expected, c.abs_tol, c.rel_tol) for label, c in g.cells.items()}
        assert list(cells.items()) == [(label, tuple(v)) for label, v in payload["cells"].items()]

    def test_unknown_id_rejected(self):
        for tid in (0, 18):
            with pytest.raises(ConfigError, match=f"^no golden table with id {tid}$"):
                load_golden(tid)

    def test_cell_needs_a_tolerance(self):
        with pytest.raises(ConfigError, match="^golden cell needs at least one tolerance$"):
            GoldenCell(1.0, None, None)

    @pytest.mark.parametrize("tid", [True, False, 1.0, 2.5, "1", None])
    def test_id_that_is_no_integer_rejected(self, tid):
        # a bool or a float that equals an id is not one (records.is_integer)
        with pytest.raises(ConfigError, match=f"^no golden table with id {re.escape(str(tid))}$"):
            load_golden(tid)

    def test_numpy_integer_id_loads(self):
        assert load_golden(np.int64(5)).cells == load_golden(5).cells
        assert load_golden(np.uint8(12)).table_id == 12

    @pytest.fixture
    def golden_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "_GOLDEN_DIR", f"{tmp_path}{os.sep}")
        return tmp_path

    def test_file_cell_without_tolerance_raises_at_load(self, golden_dir):
        cells = {"coef:C": [1.0, 0.1, None], "se:C": [0.5, None, None]}
        (golden_dir / "table01.json").write_text(json.dumps({"table_id": 1, "cells": cells}))
        with pytest.raises(ConfigError, match="^golden cell needs at least one tolerance$"):
            load_golden(1)

    def test_file_larger_than_one_read_is_read_whole(self, golden_dir):
        cells = {f"stat:x{i:05d}": [i / 7, None, 1e-3] for i in range(3000)}
        raw = json.dumps({"table_id": 2, "cells": cells}, indent=1).encode()
        assert len(raw) > 2 * report._READ_SIZE
        (golden_dir / "table02.json").write_bytes(raw)
        g = load_golden(2)
        assert g.table_id == 2
        assert {label: list(c) for label, c in g.cells.items()} == cells


class TestCompareGolden:
    def test_us_baseline_passes(self, us_fit):
        diff = compare_golden(us_fit, load_golden(1))
        assert diff.passed
        assert all(r.passed for r in diff.rows)

    def test_perturbed_cell_fails(self, us_fit):
        golden = load_golden(1)
        bad = dict(golden.cells)
        bad["coef:inflation_gap"] = GoldenCell(5.0, 0.005, 0.01)
        diff = compare_golden(us_fit, GoldenTable(1, bad))
        assert not diff.passed
        failing = [r for r in diff.rows if not r.passed]
        assert [r.label for r in failing] == ["coef:inflation_gap"]

    def test_unknown_label_raises(self, us_fit):
        golden = GoldenTable(1, {
            "coef:C": GoldenCell(1.0, 0.1, None), "coef:nope": GoldenCell(1.0, 0.1, None),
        })
        with pytest.raises(
            ConfigError, match="^golden table 1 labels unknown field 'coef:nope'$"
        ) as info:
            compare_golden(us_fit, golden)
        assert info.value.__context__ is None or info.value.__suppress_context__

    @pytest.mark.parametrize("which", ["fit", "wald"])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_the_per_cell_rule(self, us_fit, which, data):
        result = us_fit if which == "fit" else wald_test(
            us_fit, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.5, 0.5])
        values = flatten(result)
        labels = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=1, unique=True))
        golden = GoldenTable(7, {label: data.draw(_cells(values[label])) for label in labels})
        diff = compare_golden(result, golden)
        assert diff.table_id == 7
        assert all(type(r) is CellDiff and type(r.passed) is bool for r in diff.rows)
        rows = [(r.label, r.observed, r.expected, r.passed) for r in diff.rows]
        assert rows == _per_cell_rule(values, golden)
        assert diff.passed is all(ok for *_, ok in rows)

    def test_tolerance_is_abs_or_rel(self, us_fit):
        obs = flatten(us_fit)["coef:inflation_gap"]
        # passes on the absolute leg even with a hopeless relative one
        g1 = GoldenTable(1, {"coef:inflation_gap": GoldenCell(obs + 0.004, 0.005, 1e-12)})
        assert compare_golden(us_fit, g1).passed
        # passes on the relative leg even with a hopeless absolute one
        g2 = GoldenTable(1, {"coef:inflation_gap": GoldenCell(obs * 1.001, 1e-12, 0.01)})
        assert compare_golden(us_fit, g2).passed
        # fails when both legs miss
        g3 = GoldenTable(1, {"coef:inflation_gap": GoldenCell(obs + 1.0, 0.005, 0.01)})
        assert not compare_golden(us_fit, g3).passed


def _per_cell_rule(values, golden):
    # the rule compare_golden has always applied, cell by cell in label order
    rows = []
    for label in sorted(golden.cells):
        cell = golden.cells[label]
        obs = values[label]
        err = abs(obs - cell.expected)
        ok = False
        if cell.abs_tol is not None and err <= cell.abs_tol:
            ok = True
        if cell.rel_tol is not None and err <= cell.rel_tol * abs(cell.expected):
            ok = True
        rows.append((label, obs, cell.expected, ok))
    return rows


_TOLERANCE = st.floats(0.0, 10.0)


@st.composite
def _cells(draw, obs):
    """A golden cell for an observed value: an expected value that is zero,
    the negated or the offset observation, or any; and an absolute, a
    relative or both tolerances, either drawn or exactly the cell's error."""
    expected = draw(st.one_of(
        st.just(0.0), st.just(-obs), st.just(obs),
        st.floats(-10.0, 10.0).map(lambda off: obs + off),
        st.floats(-1e6, 1e6),
    ))
    err = abs(obs - expected)
    at_tolerance = draw(st.booleans())
    abs_tol = err if at_tolerance else draw(_TOLERANCE)
    rel_tol = err / abs(expected) if at_tolerance and expected else draw(_TOLERANCE)
    which = draw(st.sampled_from(["abs", "rel", "both"]))
    return GoldenCell(
        expected, None if which == "rel" else abs_tol, None if which == "abs" else rel_tol
    )


class TestRenderDiff:
    def test_pass_line_and_cell_counts(self, us_fit):
        diff = compare_golden(us_fit, load_golden(1))
        text = render_diff(diff)
        assert text.startswith("Table 1: PASS")
        assert f"({len(diff.rows)}/{len(diff.rows)} cells)" in text

    def test_failing_cells_marked(self, us_fit):
        golden = GoldenTable(1, {"coef:inflation_gap": GoldenCell(9.9, 1e-9, 1e-9)})
        text = render_diff(compare_golden(us_fit, golden))
        assert "FAIL" in text


def _parent_fmt_num(v, prob=False):
    # the number format as it was written before it read the digits
    text = f"{v:.6f}"
    return text if prob or (len(text) <= 13 and (float(text) or not v)) else f"{v:.6g}"


_FORMAT_EDGES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    4.999999e-7, 5e-7, 5.000001e-7, -4.999999e-7, -5e-7, -5.000001e-7, 1e-6, -1e-6,
    99999.9999995, 999999.9999994, 999999.9999995, -99999.9999995, -999999.9999995,
    9999999.5, 1e7, 1e8, -1e8, 1e9, math.nan, math.inf, -math.inf,
])


class TestNumberFormat:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(
        v=st.one_of(
            _FORMAT_EDGES,
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-1e-6, 1e-6),
            st.floats(1e4, 1e10).flatmap(lambda x: st.sampled_from([x, -x])),
            st.floats(min_value=-2.3e-308, max_value=2.3e-308),
        ),
        prob=st.booleans(),
    )
    def test_equals_the_parsing_rule(self, v, prob):
        expected = _parent_fmt_num(np.float64(v), prob)
        assert _parent_fmt_num(v, prob) == expected
        assert _fmt_num(v, prob) == expected
        assert _fmt_num(np.float64(v), prob) == expected

    @pytest.mark.parametrize("value,text", [
        (2.890802, "2.890802"),
        (-999999.0, "-999999"),
        (999999.0, "999999.000000"),
        (138555569.773041, "1.38556e+08"),
        (-866659422733.9508, "-8.66659e+11"),
        (1.0697e-07, "1.0697e-07"),
        (-4e-7, "-4e-07"),
        (6e-7, "0.000001"),
        (-1.234567e-100, "-1.23457e-100"),
        (0.0, "0.000000"),
    ])
    def test_fixed_unless_it_overflows_or_hides_the_value(self, value, text):
        assert _fmt_num(value) == text
        assert len(text) <= 13

    def test_diff_keeps_fixed_point_probabilities(self, us_fit):
        golden = GoldenTable(1, {
            "p:C": GoldenCell(0.0, 1e-4, None),
            "ssr": GoldenCell(1e12, None, 1e-6),
        })
        text = render_diff(compare_golden(us_fit, golden))
        assert f"p:C{' ' * 22}observed {'0.000000':>14}  expected {'0.000000':>14}" in text
        assert f"expected {'1e+12':>14}" in text
