"""Byte-for-byte snapshots of the printed output.

``tests/snapshots/`` holds the text of all 17 tables (``tableNN.txt``) and
the output of ``reproduce --country us|uk -v``. A change that is meant to
keep the output identical must leave these files as they are; one that
changes the output on purpose writes them again with

    PYTHONPATH=src python tests/test_snapshot.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from taylorlab.cli import main
from taylorlab.report import render_table
from taylorlab.tables import UK_TABLES, US_TABLES, reproduction_dataset, run_table

SNAPSHOTS = Path(__file__).parent / "snapshots"
TABLES = US_TABLES + UK_TABLES
COUNTRIES = ("us", "uk")


def table_text(table_id: int, datasets: dict) -> str:
    d = datasets["us" if table_id in US_TABLES else "uk"]
    return render_table(run_table(table_id, d), "text")


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


@pytest.mark.parametrize("country", COUNTRIES)
def test_reproduce_verbose_matches_snapshot(country):
    expected = (SNAPSHOTS / f"reproduce_{country}_v.txt").read_text()
    assert reproduce_verbose(country) == expected


def write_snapshots() -> None:
    SNAPSHOTS.mkdir(exist_ok=True)
    datasets = {c: reproduction_dataset(c) for c in COUNTRIES}
    for tid in TABLES:
        (SNAPSHOTS / f"table{tid:02d}.txt").write_text(table_text(tid, datasets))
    for c in COUNTRIES:
        (SNAPSHOTS / f"reproduce_{c}_v.txt").write_text(reproduce_verbose(c))


if __name__ == "__main__":
    write_snapshots()
