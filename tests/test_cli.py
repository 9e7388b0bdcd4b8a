import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import taylorlab
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
        p = tmp_path / "us.csv"
        p.write_bytes((Path(taylorlab.__file__).parent / "data" / "us.csv").read_bytes())
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

    def test_non_utf8_csv_is_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"date,a\n2000-Q1,1.0\xff\n")
        code, out, err = run_cli(capsys, "fit", "--csv", str(p), "--reg", "a")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_oversized_csv_field_is_error(self, capsys, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("date,a\n2000-Q1," + "1" * 200_000 + "\n")
        code, out, err = run_cli(capsys, "fit", "--csv", str(p), "--reg", "a")
        assert code == 2
        assert out == ""
        assert err == "error: CSV, line 2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--reg", "rate_copy"),
            ("test", "white", "--reg", "rate_copy,output_gap"),
            ("test", "jb", "--reg", "rate_copy"),
            ("fit", "--country", "uk", "--reg", "inflation_gap", "--sample", "2010Q1:2015Q4"),
        ],
        ids=["fit", "white", "jb", "uk-rate-at-floor"],
    )
    def test_exact_fit_is_estimation_error(self, capsys, tmp_path, argv):
        # rate_copy repeats interest_rate, the dependent variable; the UK
        # policy rate is 0.50 throughout 2010-2015
        lines = (Path(taylorlab.__file__).parent / "data" / "us.csv").read_text().splitlines()
        rate = lines[0].split(",").index("interest_rate")
        p = tmp_path / "copy.csv"
        p.write_text("\n".join(
            [lines[0] + ",rate_copy"] + [f"{line},{line.split(',')[rate]}" for line in lines[1:]]
        ))
        if "--country" not in argv:
            argv += ("--csv", str(p))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == ("estimation error: dependent variable is an exact linear "
                       "combination of the regressors\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--reg", "inflation_gap,output_gap,spike", "--cov", "hac"),
            ("test", "white", "--reg", "inflation_gap,output_gap,spike", "--cov", "hac"),
            ("fit", "--reg", "inflation_gap,output_gap,interest_rate,rate_spike",
             "--dep", "s", "--cov", "hac"),
        ],
        ids=["fit", "white", "sum-with-spike"],
    )
    def test_singular_hac_moment_covariance_is_estimation_error(self, capsys, tmp_path, argv):
        # the fit matches the one quarter of the dummy `spike` exactly, so the
        # moment spike * e is rounding noise; so is rate_spike * e minus
        # interest_rate * e, although neither moment is
        lines = (Path(taylorlab.__file__).parent / "data" / "us.csv").read_text().splitlines()
        rate = lines[0].split(",").index("interest_rate")
        rows = [lines[0] + ",spike,rate_spike"]
        for n, line in enumerate(lines[1:]):
            spike = 1.0 if n == 60 else 0.0
            rows.append(f"{line},{spike},{float(line.split(',')[rate]) + spike}")
        p = tmp_path / "spike.csv"
        p.write_text("\n".join(rows))
        code, out, err = run_cli(capsys, *argv, "--csv", str(p))
        assert code == 1
        assert out == ""
        assert err == ("estimation error: singular moment covariance: the moments "
                       "z_t * e_t are linearly dependent up to rounding\n")

    def test_bandwidth_beyond_weight_precision_is_estimation_error(self, capsys):
        # every weight 1 - j/m rounds to 1, so S = (X'e)(X'e)'/T, and X'e is
        # zero up to rounding at the least-squares fit; no residual is small
        code, out, err = run_cli(
            capsys, "fit", "--country", "us", "--reg", "inflation_gap,output_gap",
            "--cov", "hac", "--bandwidth", str(10**19),
        )
        assert code == 1
        assert out == ""
        assert err == ("estimation error: singular moment covariance: the moments "
                       "z_t * e_t are linearly dependent up to rounding\n")

    @pytest.mark.parametrize("cov", [[], ["--cov", "classical"]])
    def test_bandwidth_without_hac_is_usage_error(self, capsys, cov):
        # the classical covariance takes no bandwidth; dropping it silently
        # would print classical standard errors for a Newey-West request
        code, out, err = run_cli(
            capsys, "fit", "--country", "us", "--reg", "inflation_gap,output_gap",
            *cov, "--bandwidth", "7",
        )
        assert code == 2
        assert out == ""
        assert err == "usage error: --bandwidth needs --cov hac\n"

    def test_single_moment_at_rounding_level_is_estimation_error(self, capsys):
        # k = 1, so the condition number of S is 1; the kernel sum cancels to
        # 9.4e-15 of the moment's classical size, below min(m, T) * eps
        code, out, err = run_cli(
            capsys, "fit", "--country", "us", "--reg", "const",
            "--cov", "hac", "--bandwidth", str(10**17),
        )
        assert code == 1
        assert out == ""
        assert err == ("estimation error: singular moment covariance: the variance of a "
                       "moment z_t * e_t is rounding noise\n")

    @staticmethod
    def _gdp_scaled(tmp_path, factor):
        lines = (Path(taylorlab.__file__).parent / "data" / "us.csv").read_text().splitlines()
        col = lines[0].split(",").index("real_gdp")
        rows = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[col] = repr(float(cells[col]) * factor)
            rows.append(",".join(cells))
        p = tmp_path / "gdp.csv"
        p.write_text("\n".join(rows))
        return str(p)

    def test_gdp_in_dollars_prints_separate_cells(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "fit", "--csv", self._gdp_scaled(tmp_path, 1e9),
            "--dep", "real_gdp", "--reg", "interest_rate",
        )
        assert code == 0
        rows = out.splitlines()[3:6]
        assert rows[1].split() == ["interest_rate", "-8.66659e+11", "8.04307e+10",
                                   "-10.775236", "0.0000"]
        assert rows[2].split()[0] == "C" and len(rows[2].split()) == 5

    @pytest.mark.parametrize("factor", [1.0, 1e3, 1e6, 1e9], ids=["billions", "millions",
                                                                  "thousands", "dollars"])
    def test_gdp_in_any_unit_gives_the_same_t(self, capsys, tmp_path, factor):
        # the rank rule is unit-free, and a small standard error is not 0.000000
        code, out, _ = run_cli(
            capsys, "fit", "--csv", self._gdp_scaled(tmp_path, factor),
            "--reg", "real_gdp,stock_index",
        )
        assert code == 0
        row = out.splitlines()[4].split()
        assert row[0] == "real_gdp" and row[3] == "-11.314449"
        assert float(row[2]) > 0

    def test_duplicate_csv_column_is_error(self, capsys, tmp_path):
        lines = (Path(taylorlab.__file__).parent / "data" / "us.csv").read_text().splitlines()
        p = tmp_path / "dup.csv"
        p.write_text(
            "\n".join([lines[0] + ",interest_rate"] + [line + ",1.0" for line in lines[1:]])
        )
        code, out, err = run_cli(
            capsys, "fit", "--csv", str(p), "--reg", "inflation_gap,output_gap",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'interest_rate'" in err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_hp_lambda_is_error(self, capsys, lam):
        code, out, err = run_cli(
            capsys, "fit", "--country", "us", "--reg", "inflation_gap",
            "--hp-lambda", lam,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_huge_hp_lambda_gives_linear_trend_gap(self, capsys):
        def output_gap_coef(*flags):
            code, out, _ = run_cli(
                capsys, "fit", "--country", "us",
                "--reg", "inflation_gap,output_gap", "--format", "json", *flags,
            )
            assert code == 0
            return json.loads(out)["coef:output_gap"]

        hp = output_gap_coef("--hp-lambda", "1e16")
        assert hp == pytest.approx(output_gap_coef("--detrend", "linear_trend"), abs=1e-8)

    @pytest.mark.parametrize("argv", [
        ("--country", "us", "--reg", "it,inflation_gap"),
        ("--country", "uk", "--reg", "it", "--sample", "1995Q1:2000Q4"),
    ], ids=["us", "uk-short"])
    def test_dependent_as_regressor_is_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "fit", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: dependent variable it") and err.count("\n") == 1

    def test_lagged_constant_is_error(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--country", "us", "--reg", "const(-1)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the constant takes no lag") and err.count("\n") == 1

    def test_json_without_constant_is_strict(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--country", "us", "--reg", "inflation_gap,output_gap",
            "--no-const", "--format", "json",
        )
        assert code == 0
        assert "NaN" not in out
        payload = json.loads(out)
        assert payload["f_statistic"] is None and payload["f_prob"] is None
        assert payload["r2"] is not None


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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_wald_non_finite_restriction_is_usage_error(self, capsys, value):
        code, out, err = run_cli(
            capsys, "test", "wald", "--country", "us", "--reg", "inflation_gap",
            "--restrict", f"b1={value}",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_wald_overflow_is_error(self, capsys):
        code, out, err = run_cli(
            capsys, "test", "wald", "--country", "us", "--reg", "s,output_gap",
            "--restrict", "b2=1e300",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: Wald statistic is not finite") and err.count("\n") == 1

    def test_chow_breakpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "chow", "--country", "us",
            "--reg", "inflation_gap,output_gap,const", "--no-const",
            "--break", "2003Q1",
        )
        assert code == 0
        assert "Chow" in out
        assert "56.8" in out

    def test_chow_exact_fit_regime_is_estimation_error(self, capsys):
        # Bank Rate is 0.50 throughout 2009Q3-2016Q2, the second regime
        code, out, err = run_cli(
            capsys, "test", "chow", "--country", "uk", "--reg", "inflation_gap",
            "--sample", "2007Q1:2016Q2", "--break", "2009Q3",
        )
        assert code == 1
        assert out == ""
        assert err == ("estimation error: dependent variable is an exact linear combination "
                       "of the regressors over the regime 2009Q3..2016Q2\n")

    def test_chow_regime_too_small_is_named(self, capsys):
        # the sample starts in 1991Q1, after the 4-quarter change, so the
        # first regime holds 2 of its 117 quarters for 3 parameters
        code, out, err = run_cli(
            capsys, "test", "chow", "--country", "us", "--reg", "inflation_gap,output_gap",
            "--break", "1991Q3",
        )
        assert code == 2
        assert out == ""
        assert err == ("error: sample of 2 observations cannot identify 3 parameters "
                       "over the regime 1991Q1..1991Q2\n")

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

    def test_white_sample_too_short_for_auxiliary_regression(self, capsys):
        code, out, err = run_cli(
            capsys, "test", "white", "--country", "us", "--reg", "output_gap,s(-1)",
            "--sample", "2019Q1:2020Q1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_white_exact_auxiliary_fit_is_estimation_error(self, capsys, tmp_path):
        # fit residuals e with x1 = e^2 make the auxiliary R^2 round to 1
        lines = (Path(taylorlab.__file__).parent / "data" / "us.csv").read_text().splitlines()
        T = len(lines) - 1
        rng = np.random.default_rng(7)
        base = rng.normal(size=T // 2)
        e = np.concatenate([base, -base, np.zeros(T % 2)])
        z = rng.normal(size=T)
        x1, x2 = e * e, z - (z @ e) / (e @ e) * e
        cols = zip(lines[1:], (1.0 + 0.5 * x1 - 0.3 * x2 + e).tolist(), x1.tolist(), x2.tolist())
        p = tmp_path / "white.csv"
        p.write_text("\n".join(
            [lines[0] + ",y,x1,x2"] + [f"{line},{y!r},{a!r},{b!r}" for line, y, a, b in cols]
        ))
        code, out, err = run_cli(
            capsys, "test", "white", "--csv", str(p), "--dep", "y", "--reg", "x1,x2",
        )
        assert code == 1
        assert out == ""
        assert err == ("estimation error: dependent variable is an exact linear combination "
                       "of the regressors in the auxiliary regression\n")

    def test_chow_ignores_singular_pooled_moment_covariance(self, capsys):
        # the statistic is built from SSRs; the pooled fit's HAC covariance,
        # singular at this bandwidth, is never formed
        common = ("test", "chow", "--country", "us", "--reg", "const", "--break", "2003Q1")
        code, out, err = run_cli(capsys, *common, "--cov", "hac", "--bandwidth", str(10**17))
        assert code == 0 and err == ""
        assert "133.842715" in out
        assert (code, out) == run_cli(capsys, *common)[:2]

    def test_bg_lag_order_beyond_sample(self, capsys):
        code, out, err = run_cli(
            capsys, "test", "bg", "--country", "us", "--reg", "inflation_gap",
            "--lags", "1000",
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_kind(self, capsys):
        code, _, _ = run_cli(capsys, "test", "anova", "--country", "us")
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        _, a, _ = run_cli(capsys, "reproduce", "--country", "us", "1", "-v")
        _, b, _ = run_cli(capsys, "reproduce", "--country", "us", "1", "-v")
        assert a == b


class TestStartup:
    def test_cli_import_skips_scipy_and_urllib_request(self):
        # scipy is a test-only dependency and urllib.request, urllib.error and
        # hashlib are needed only for a remote fetch; each would add to every
        # cold start (scipy more than doubles it)
        modules = ("scipy", "urllib.request", "urllib.error", "hashlib")
        probe = (
            "import sys, taylorlab.cli; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))"
        )
        src = str(Path(taylorlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.strip() == "[]"

    def test_cli_import_builds_no_dataclass(self):
        # building a dataclass runs exec per generated method, about 1 ms a
        # class at every cold start
        probe = (
            "import sys, taylorlab.cli; "
            "print('dataclasses' in sys.modules, sorted("
            "f'{m}.{n}' for m, mod in list(sys.modules.items()) if m.split('.')[0] == 'taylorlab' "
            "for n, v in vars(mod).items() if isinstance(v, type) "
            "and hasattr(v, '__dataclass_fields__')))"
        )
        src = str(Path(taylorlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.strip() == "False []"

    def test_clean_cli_import_skips_fetch_and_resource_modules(self):
        # without ``site`` (-S) nothing is preloaded by a .pth file, as in a
        # user's interpreter; package data is opened relative to __file__,
        # and only a remote fetch needs tempfile, pathlib and urllib.parse
        modules = ("importlib.resources", "pathlib", "tempfile", "urllib.parse")
        probe = (
            "import sys, taylorlab.cli; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))"
        )
        src = str(Path(taylorlab.__file__).resolve().parents[1])
        site_packages = str(Path(np.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, site_packages])}
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True,
            env=env,
        ).stdout
        assert out.strip() == "[]"
