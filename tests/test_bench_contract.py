"""The program API that the benchmark in perfbench/ relies on.

perfbench wraps named functions and methods of taylorlab for its per-layer
trace, and its panel_scale workload feeds the same panel through CSV
parsing and a FRED-style fetch. These tests run that code unchanged, so a
change to the program that would break the benchmark fails here first.
"""

import os
import sys
from pathlib import Path

import pytest

import taylorlab.cli  # noqa: F401  (the benchmark traces the modules it loads)
import taylorlab.tables  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads

    return layers, workloads


def _bindings():
    """Every attribute of every taylorlab module and of the classes in them."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname != "taylorlab" and not modname.startswith("taylorlab."):
            continue
        for attr, value in vars(module).items():
            out[modname, attr] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    out[modname, attr, name] = member
    return out


def test_tracer_installs_and_undo_restores_every_original(perfbench):
    layers, _ = perfbench
    before = _bindings()
    uninstall = layers.install(layers.Tracer())
    try:
        during = _bindings()
        wrapped = [k for k, v in before.items() if during.get(k) is not v]
        assert ("taylorlab.ingest", "fetch_series") in wrapped
        assert ("taylorlab.series", "Series", "__init__") in wrapped
    finally:
        uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_panel_scale_csv_and_fred_requests_pass_check(perfbench, tmp_path, monkeypatch):
    _, workloads = perfbench
    monkeypatch.setenv(workloads.API_KEY_ENV, "synthetic")
    ctx = workloads.Context(
        root=PERFBENCH.parent, work=tmp_path, env=dict(os.environ), here=PERFBENCH
    )
    panel_scale = workloads.PanelScale(ctx, 1)
    for i in (0, 1):  # request 0 parses CSV text, request 1 fetches FRED JSON
        _, output = panel_scale.request(i)
        assert panel_scale.check(i, output)
    assert len(list((tmp_path / "fred-cache").iterdir())) == 1  # the fetched source's one file


def test_traced_reproduce_warm_request_counts_every_table_and_fit(perfbench, tmp_path):
    # reproduce_warm calls run_table once per table, so the layer wrappers
    # see each table's own fits and tests; a table plan that held the
    # estimators as function objects would escape them and count fewer
    layers, workloads = perfbench
    ctx = workloads.Context(
        root=PERFBENCH.parent, work=tmp_path, env=dict(os.environ), here=PERFBENCH
    )
    reproduce_warm = workloads.ReproduceWarm(ctx, 1)
    reproduce_warm.trace(True)
    try:
        _, output = reproduce_warm.request(0)
    finally:
        reproduce_warm.trace(False)
    assert reproduce_warm.check(0, output)
    expected = {"ols.fits": 12, "tables.runs": 17, "gmm.fits": 2, "diagnostics.tests": 9}
    metrics = reproduce_warm.layer_metrics(1)
    assert {k: metrics[k] for k in expected} == expected
