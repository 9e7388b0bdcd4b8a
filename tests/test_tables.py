"""The table plan: each shared model is estimated once per ``run_tables`` call,
the results equal those of ``run_table`` table by table, and a table of the
wrong country is refused before anything is estimated."""

import contextlib
import gc
import io
import random
import sys

import numpy as np
import pytest

import taylorlab.tables as tables
from taylorlab.cli import main
from taylorlab.errors import ConfigError
from taylorlab.report import render_table


@pytest.fixture
def fits(monkeypatch):
    """The specs of every ``fit_ols`` call the plan makes, in call order."""
    calls = []
    fit_ols = tables.fit_ols

    def counting_fit_ols(d, spec):
        calls.append(spec)
        return fit_ols(d, spec)

    monkeypatch.setattr(tables, "fit_ols", counting_fit_ols)
    return calls


@pytest.mark.parametrize("country", ["us", "uk"])
def test_reproduce_fits_each_ols_model_once(country, fits):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reproduce", "--country", country]) == 0
    # baseline, lagged s and HAC; the baseline serves its Wald test and the
    # HAC fit its White and Breusch-Godfrey tests
    assert len(fits) == 3
    assert len(set(fits)) == 3


@pytest.mark.parametrize("country", ["us", "uk"])
def test_run_tables_renders_as_run_table_per_id(country, us_data, uk_data):
    d = {"us": us_data, "uk": uk_data}[country]
    ids = list(tables.US_TABLES if country == "us" else tables.UK_TABLES)
    random.Random(16).shuffle(ids)
    together = tables.run_tables(ids, d)
    assert len(together) == len(ids)
    for table_id, result in zip(ids, together):
        alone = tables.run_table(table_id, d)
        for fmt in ("text", "json"):
            assert render_table(result, fmt) == render_table(alone, fmt), (table_id, fmt)


def test_tests_run_on_their_model_fit_and_nothing_outlives_the_call(us_data, fits):
    hac, baseline = tables.run_table(8, us_data).spec, tables.baseline_spec("us")
    fits.clear()
    tables.run_tables([6, 8, 7, 1, 2], us_data)
    assert fits == [hac, baseline]
    tables.run_tables([8, 1], us_data)
    assert fits == [hac, baseline, hac, baseline]


def test_chow_table_makes_no_ols_fit(us_data, fits):
    tables.run_table(3, us_data)
    assert fits == []


def test_table_of_other_country_is_refused_before_any_fit(us_data, fits):
    with pytest.raises(ConfigError, match="table 12 belongs to 'uk'"):
        tables.run_tables([1, 12], us_data)
    assert fits == []


def test_unknown_table_id_is_refused(us_data, fits):
    with pytest.raises(ConfigError, match="1..17"):
        tables.run_tables([1, 18], us_data)
    assert fits == []


@pytest.mark.parametrize("table_id", [True, False, 1.0, 3.0, "1", None])
def test_table_id_that_is_no_integer_is_refused(us_data, fits, table_id):
    # a bool or a float that equals an id is not one (records.is_integer)
    message = f"^table id must be 1..17, got {table_id}$"
    with pytest.raises(ConfigError, match=message):
        tables.country_for_table(table_id)
    with pytest.raises(ConfigError, match=message):
        tables.run_table(table_id, us_data)
    with pytest.raises(ConfigError, match=message):
        tables.run_tables([1, table_id], us_data)
    assert fits == []


def test_numpy_integer_table_ids_run(us_data):
    assert tables.country_for_table(np.int64(12)) == "uk"
    assert tables.country_for_table(np.uint8(3)) == "us"
    by_numpy = tables.run_tables([np.int64(2), np.int32(7)], us_data)
    assert [render_table(r) for r in by_numpy] == [
        render_table(r) for r in tables.run_tables([2, 7], us_data)
    ]


@pytest.mark.parametrize("table_id", [1, 6, 9, 12])
def test_a_result_is_freed_without_the_cycle_collector(us_data, uk_data, table_id):
    # the call's shared results form no reference cycle, so a result goes
    # when its last reference does, not at the next collection. A White
    # report (tables 6 and 12) is a tuple, which takes no weak reference, so
    # the check is that only this frame holds the result: its reference
    # count equals that of an object that only a local name holds
    d = us_data if table_id in tables.US_TABLES else uk_data
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = tables.run_table(table_id, d)
        lone = object()
        assert sys.getrefcount(result) == sys.getrefcount(lone)
    finally:
        if enabled:
            gc.enable()
