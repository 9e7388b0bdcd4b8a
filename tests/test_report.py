import codecs
import json
from pathlib import Path

import numpy as np
import pytest

from taylorlab import report
from taylorlab.diagnostics import jarque_bera_test, wald_test
from taylorlab.errors import ConfigError
from taylorlab.gmm import GmmSpec, fit_linear_gmm
from taylorlab.ols import RegressionSpec, fit_ols
from taylorlab.report import (
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
        with pytest.raises(ConfigError):
            GoldenCell(1.0, None, None)


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
        golden = GoldenTable(1, {"coef:nope": GoldenCell(1.0, 0.1, None)})
        with pytest.raises(ConfigError, match="coef:nope"):
            compare_golden(us_fit, golden)

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


class TestNumberFormat:
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
