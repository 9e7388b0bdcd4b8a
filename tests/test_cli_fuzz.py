"""Property test of the CLI contract over drawn invocations: every run exits
0, 1 or 2 without a traceback, and ``--format json`` output is strict JSON."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlab.cli import main

# the model's series drawn more often than the dependent, the constant, a
# raw series and an unknown name, so that most draws reach the estimators
SERIES = ("inflation_gap", "output_gap", "s") * 3 + ("it", "const", "cpi", "wages")
LAGS = (0,) * 6 + (1, 2, 40, 500)
# flag values at 0, negative, huge, nan and inf, plus ordinary ones
NUMBERS = ("0", "-1", "2", "100", "1600", "1e16", "1e300", "nan", "inf", "-inf")
INTEGERS = ("0", "-3", "1", "2", "4", "1000", "1000000000")

terms = st.builds(
    lambda name, k: name if k == 0 else f"{name}(-{k})",
    st.sampled_from(SERIES),
    st.sampled_from(LAGS),
)
quarters = st.builds(
    lambda year, q: f"{year}Q{q}", st.integers(1990, 2021), st.integers(1, 4)
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def invocations(draw, bad_csvs):
    command = draw(st.sampled_from(
        ("reproduce", "fit", "wald", "chow", "white", "bg", "jb")
    ))
    country = draw(st.sampled_from(("us", "uk") * 2 + ("fr",) + ("us", "uk") * 2))
    if command == "reproduce":
        tables = draw(st.lists(st.integers(0, 19), max_size=2))
        return ["reproduce", "--country", country, *map(str, tables), "-v"]
    argv = ["fit"] if command == "fit" else ["test", command]
    use_csv = draw(st.sampled_from((False,) * 9 + (True,) + (False,) * 10))
    argv += ["--csv", draw(st.sampled_from(bad_csvs))] if use_csv else ["--country", country]
    argv += ["--reg", ",".join(draw(st.lists(terms, min_size=1, max_size=4, unique=True)))]
    if command == "chow":
        argv += ["--break", draw(quarters)]
    if command == "wald":
        argv += ["--restrict", f"b{draw(st.integers(0, 5))}={draw(st.sampled_from(NUMBERS))}"]
    optional = {
        "--no-const": [],
        "--cov": ["hac"],
        "--bandwidth": [draw(st.sampled_from(INTEGERS))],
        "--lags": [draw(st.sampled_from(INTEGERS))],
        "--hp-lambda": [draw(st.sampled_from(NUMBERS))],
        "--target": [draw(st.sampled_from(NUMBERS))],
        "--detrend": ["linear_trend"],
        "--sample": [f"{draw(quarters)}:{draw(quarters)}"],
        "--format": ["json"],
    }
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=3)):
        argv += [flag, *optional[flag]]
    return argv


@pytest.fixture(scope="module")
def bad_csvs(tmp_path_factory):
    """A file that is not UTF-8, and one whose value field exceeds the csv
    module's 131,072-character field limit."""
    latin1 = tmp_path_factory.mktemp("fuzz") / "latin1.csv"
    latin1.write_bytes(b"date,cpi\n2000-Q1,1.0\xff\n")
    oversized = latin1.with_name("oversized.csv")
    oversized.write_text("date,cpi\n2000-Q1," + "1" * 200_000 + "\n")
    return (str(latin1), str(oversized))


def test_cli_contract_holds_for_drawn_invocations(bad_csvs):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(invocations(bad_csvs))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 0 and "--format" in argv:
            json.loads(out.getvalue(), parse_constant=_reject_constant)

    check()
