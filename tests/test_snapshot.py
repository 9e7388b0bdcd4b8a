"""Snapshots of the printed output.

``tests/snapshots/`` holds the text of all 17 tables (``tableNN.txt``), the
output of ``reproduce --country us|uk -v``, and the JSON of all 17 tables
(``tableNN.json``), which keeps the digits that the text rounds away. The
text and the JSON of the over-identified GMM tables 9 and 17 must match
byte for byte. The JSON of the other tables must match in keys and strings,
with numbers within 1e-12 relative, so that a change in rounding order
shows as drift, not as failure. ``cli.txt`` and ``cli.json`` hold the text
and the JSON of a fixed list of ad hoc ``fit`` and ``test`` commands on
both countries, under the same two rules: text byte for byte, JSON within
1e-12. A change that is meant to keep the output
identical must leave these files as they are; one that changes the output
on purpose writes them again with

    PYTHONPATH=src python tests/test_snapshot.py
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from taylorlab.cli import main
from taylorlab.report import render_table
from taylorlab.tables import UK_TABLES, US_TABLES, reproduction_dataset, run_table

SNAPSHOTS = Path(__file__).parent / "snapshots"
TABLES = US_TABLES + UK_TABLES
GMM_TABLES = (9, 17)
OTHER_TABLES = tuple(t for t in TABLES if t not in GMM_TABLES)
COUNTRIES = ("us", "uk")
_GAPS = "inflation_gap,output_gap"
# classical and HAC fits, with and without a bandwidth, without a constant
# and with lagged regressors; every test kind, Chow at a table's break
# (2003Q1) and at one no table uses, Breusch-Godfrey at one and three lags
CLI_COMMANDS = tuple(
    f"{command} --country {country}"
    for country in COUNTRIES
    for command in (
        f"fit --reg {_GAPS}",
        f"fit --reg {_GAPS} --cov hac",
        f"fit --reg {_GAPS} --cov hac --bandwidth 8",
        f"fit --reg {_GAPS} --no-const",
        f"fit --reg {_GAPS},s(-1)",
        f"fit --reg it(-1),{_GAPS} --cov hac",
        f"fit --reg {_GAPS},s --sample 1995Q1:2015Q4",
        f"test wald --reg {_GAPS} --restrict b1=1.5,b2=0.5",
        f"test chow --reg {_GAPS} --break 2003Q1",
        f"test chow --reg {_GAPS} --break 2008Q3",
        f"test white --reg {_GAPS}",
        f"test white --reg {_GAPS},s(-1) --no-const",
        f"test bg --reg {_GAPS}",
        f"test bg --reg {_GAPS} --lags 3",
        f"test jb --reg {_GAPS}",
    )
)


def table_text(table_id: int, datasets: dict, fmt: str = "text") -> str:
    d = datasets["us" if table_id in US_TABLES else "uk"]
    return render_table(run_table(table_id, d), fmt)


def reproduce_verbose(country: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reproduce", "--country", country, "-v"])
    assert code == 0
    return out.getvalue()


def cli_output(command: str, fmt: str = "text") -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*command.split(), "--format", fmt])
    assert code == 0
    return out.getvalue()


def cli_text(command: str) -> str:
    """The command's text output headed by a ``$ taylorlab`` line."""
    return f"$ taylorlab {command}\n{cli_output(command)}"


@pytest.fixture(scope="module")
def datasets(us_data, uk_data):
    return {"us": us_data, "uk": uk_data}


@pytest.mark.parametrize("table_id", TABLES)
def test_table_text_matches_snapshot(table_id, datasets):
    expected = (SNAPSHOTS / f"table{table_id:02d}.txt").read_text()
    assert table_text(table_id, datasets) == expected


@pytest.mark.parametrize("table_id", GMM_TABLES)
def test_gmm_table_json_matches_snapshot(table_id, datasets):
    expected = (SNAPSHOTS / f"table{table_id:02d}.json").read_text()
    assert table_text(table_id, datasets, "json") == expected


def assert_json_close(got, want, path="$"):
    """Equal keys, lengths and non-numbers; numbers within 1e-12 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("table_id", OTHER_TABLES)
def test_table_json_within_1e12_of_snapshot(table_id, datasets):
    expected = json.loads((SNAPSHOTS / f"table{table_id:02d}.json").read_text())
    assert_json_close(json.loads(table_text(table_id, datasets, "json")), expected)


@pytest.mark.parametrize("country", COUNTRIES)
def test_reproduce_verbose_matches_snapshot(country):
    expected = (SNAPSHOTS / f"reproduce_{country}_v.txt").read_text()
    assert reproduce_verbose(country) == expected


@pytest.fixture(scope="module")
def cli_snapshot():
    sections = re.split(r"^(?=\$ taylorlab )", (SNAPSHOTS / "cli.txt").read_text(), flags=re.M)
    return {section.partition("\n")[0][12:]: section for section in sections if section}


def test_cli_snapshot_lists_the_commands(cli_snapshot):
    assert tuple(cli_snapshot) == CLI_COMMANDS
    assert tuple(json.loads((SNAPSHOTS / "cli.json").read_text())) == CLI_COMMANDS


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_text_matches_snapshot(command, cli_snapshot):
    assert cli_text(command) == cli_snapshot[command]


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_json_within_1e12_of_snapshot(command):
    expected = json.loads((SNAPSHOTS / "cli.json").read_text())[command]
    assert_json_close(json.loads(cli_output(command, "json")), expected)


def _holds(path: Path, text: str) -> bool:
    """Whether the snapshot file already holds ``text`` under its own rule:
    within 1e-12 for ``cli.json`` and the JSON of the tables other than 9
    and 17, byte for byte for the rest."""
    if not path.exists():
        return False
    if path.name == "cli.json" or path.name in {f"table{t:02d}.json" for t in OTHER_TABLES}:
        try:
            assert_json_close(json.loads(text), json.loads(path.read_text()))
        except AssertionError:
            return False
        return True
    return path.read_text() == text


def write_snapshots() -> None:
    """Write each snapshot file that the program's output fails, so that
    regenerating one group leaves the others, and JSON digits that drifted
    within the 1e-12 rule, as they are."""
    SNAPSHOTS.mkdir(exist_ok=True)
    datasets = {c: reproduction_dataset(c) for c in COUNTRIES}
    files = {}
    for tid in TABLES:
        files[f"table{tid:02d}.txt"] = table_text(tid, datasets)
        files[f"table{tid:02d}.json"] = table_text(tid, datasets, "json")
    for c in COUNTRIES:
        files[f"reproduce_{c}_v.txt"] = reproduce_verbose(c)
    files["cli.txt"] = "".join(cli_text(c) for c in CLI_COMMANDS)
    cli_json = {c: json.loads(cli_output(c, "json")) for c in CLI_COMMANDS}
    files["cli.json"] = json.dumps(cli_json, indent=1) + "\n"
    for name, text in files.items():
        if not _holds(SNAPSHOTS / name, text):
            (SNAPSHOTS / name).write_text(text)


if __name__ == "__main__":
    write_snapshots()
