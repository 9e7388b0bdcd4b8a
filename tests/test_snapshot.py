"""Snapshots of the printed output.

``tests/snapshots/`` holds the text of all 17 tables (``tableNN.txt``), the
output of ``reproduce --country us|uk -v``, and the JSON of all 17 tables
(``tableNN.json``), which keeps the digits that the text rounds away. The
text and the JSON of the over-identified GMM tables 9 and 17 must match
byte for byte. The JSON of the other tables must match in keys and strings,
with numbers within 1e-12 relative, so that a change in rounding order
shows as drift, not as failure. A change that is meant to keep the output
identical must leave these files as they are; one that changes the output
on purpose writes them again with

    PYTHONPATH=src python tests/test_snapshot.py
"""

import contextlib
import io
import json
import math
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


def table_text(table_id: int, datasets: dict, fmt: str = "text") -> str:
    d = datasets["us" if table_id in US_TABLES else "uk"]
    return render_table(run_table(table_id, d), fmt)


def reproduce_verbose(country: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reproduce", "--country", country, "-v"])
    assert code == 0
    return out.getvalue()


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


def write_snapshots() -> None:
    SNAPSHOTS.mkdir(exist_ok=True)
    datasets = {c: reproduction_dataset(c) for c in COUNTRIES}
    for tid in TABLES:
        (SNAPSHOTS / f"table{tid:02d}.txt").write_text(table_text(tid, datasets))
        (SNAPSHOTS / f"table{tid:02d}.json").write_text(table_text(tid, datasets, "json"))
    for c in COUNTRIES:
        (SNAPSHOTS / f"reproduce_{c}_v.txt").write_text(reproduce_verbose(c))


if __name__ == "__main__":
    write_snapshots()
