import json

import pytest

from taylorlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReproduce:
    def test_us_all_tables_pass(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--country", "us")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert all(line.endswith("PASS") for line in lines)

    def test_uk_all_tables_pass(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--country", "uk")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.endswith("PASS") for line in lines)

    def test_single_table_verbose(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--country", "us", "1", "-v")
        assert code == 0
        assert out.startswith("Table 1: PASS")
        assert "coef:inflation_gap" in out

    def test_wrong_country_table_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--country", "us", "12")
        assert code == 2
        assert "usage error" in err

    def test_unknown_table_id(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--country", "us", "99")
        assert code == 2

    def test_missing_country_flag(self, capsys):
        code, _, _ = run_cli(capsys, "reproduce")
        assert code == 2


class TestFit:
    def test_baseline_numbers_in_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--country", "us",
            "--reg", "inflation_gap,output_gap,const", "--no-const",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coef:inflation_gap"] == pytest.approx(0.906309, abs=5e-3)
        assert payload["coef:output_gap"] == pytest.approx(0.454512, abs=5e-3)
        assert payload["coef:C"] == pytest.approx(2.451161, abs=5e-3)
        assert payload["n_obs"] == 117

    def test_lagged_regressor_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--country", "us",
            "--reg", "const,inflation_gap,output_gap,s(-1)", "--no-const",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "fit"
        assert payload["n_obs"] == 116
        assert payload["coef:s(-1)"] == pytest.approx(0.011777, abs=5e-3)

    def test_hac_covariance_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--country", "us",
            "--reg", "inflation_gap,output_gap,s,const", "--no-const",
            "--cov", "hac", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["se:inflation_gap"] == pytest.approx(0.303483, abs=5e-3)

    def test_unknown_series_is_error(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--country", "us", "--reg", "wages"
        )
        assert code == 2
        assert err

    def test_explicit_sample(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--country", "uk", "--reg", "inflation_gap",
            "--sample", "1995Q1:2005Q4",
        )
        assert code == 0
        assert "Included observations: 44" in out

    def test_bad_sample_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--country", "us", "--reg", "inflation_gap",
            "--sample", "whenever",
        )
        assert code == 2
        assert "usage error" in err

    def test_missing_regressors(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--country", "us")
        assert code == 2

    def test_csv_input(self, capsys, tmp_path):
        from taylorlab.ingest import embedded_dataset, export_quarterly_csv

        p = tmp_path / "us.csv"
        p.write_text(export_quarterly_csv(embedded_dataset("us")))
        code, out, _ = run_cli(
            capsys, "fit", "--csv", str(p),
            "--reg", "inflation_gap,output_gap,const", "--no-const",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["coef:inflation_gap"] == pytest.approx(
            0.906309, abs=5e-3
        )


    def test_missing_csv_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "fit", "--csv", str(tmp_path / "missing.csv"),
            "--reg", "inflation_gap",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestTest:
    def test_wald_restriction(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "wald", "--country", "uk",
            "--reg", "const,inflation_gap,output_gap", "--no-const",
            "--restrict", "b1=0.5,b2=0.5",
        )
        assert code == 0
        assert "Wald" in out
        assert "195.3" in out

    def test_wald_without_restrictions(self, capsys):
        code, _, err = run_cli(
            capsys, "test", "wald", "--country", "us", "--reg", "inflation_gap"
        )
        assert code == 2

    def test_chow_breakpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "chow", "--country", "us",
            "--reg", "inflation_gap,output_gap,const", "--no-const",
            "--break", "2003Q1",
        )
        assert code == 0
        assert "Chow" in out
        assert "56.8" in out

    def test_bg_lags(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "bg", "--country", "us",
            "--reg", "inflation_gap,output_gap,s,const", "--no-const",
            "--lags", "1",
        )
        assert code == 0
        assert "Breusch-Godfrey" in out

    def test_jb_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "jb", "--country", "uk",
            "--reg", "inflation_gap,output_gap,s,const", "--no-const",
            "--cov", "hac", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "test"
        assert payload["statistics"][0]["p"] == pytest.approx(0.016, abs=3e-3)

    def test_unknown_kind(self, capsys):
        code, _, _ = run_cli(capsys, "test", "anova", "--country", "us")
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        _, a, _ = run_cli(capsys, "reproduce", "--country", "us", "1", "-v")
        _, b, _ = run_cli(capsys, "reproduce", "--country", "us", "1", "-v")
        assert a == b
