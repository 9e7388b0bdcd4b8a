"""Per-layer tracing of taylorlab, installed from outside the package.

Each layer is one taylorlab module. ``install`` replaces the module's public
functions with timing wrappers at every name a caller binds: the defining
module, every other taylorlab module that imported the name, and the
package namespace. Methods are wrapped on their class.

A call that enters a layer from another layer (or from the benchmark) opens
a span. A layer's self time is its spans' duration minus the time of the
spans they opened in other layers, so layer self times add up to the time
spent inside the package. Calls within one layer open no span. Counters and
inclusive timers are kept per function at the same wrappers.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
import time

LAYERS = (
    "ingest", "series", "transform", "ols", "hac", "gmm",
    "diagnostics", "dist", "tables", "report",
)


def _series_built(counts, args, result, boundary):
    counts["series.constructed"] += 1
    counts["series.values"] += len(args[0].values)


def _rows(counts, args, result, boundary):
    if boundary:
        counts["ingest.rows"] += max(len(s) for s in result.series.values())


def _count(key):
    def count(counts, args, result, boundary):
        counts[key] += 1
    return count


def _cells(counts, args, result, boundary):
    counts["report.cells_compared"] += len(result.rows)


def _bytes(counts, args, result, boundary):
    counts["report.bytes_rendered"] += len(result.encode())


# layer -> module -> {public name: (inclusive timer key or None, counter or None)}
_PLAN = {
    "ingest": {"taylorlab.ingest": {
        "parse_quarterly_csv": (None, _rows),
        "fetch_series": ("ingest.fetch_ns", _rows),
        "embedded_dataset": (None, _rows),
    }},
    "series": {"taylorlab.series": {
        "Series.__init__": (None, _series_built),
        "Series.window": (None, None),
        "Series.at": (None, None),
        "Series.renamed": (None, None),
        "Dataset.__init__": (None, None),
        "Dataset.with_series": (None, None),
        "lag": (None, None),
        "natural_log": (None, None),
        "align_sample": (None, None),
    }},
    "transform": {"taylorlab.transform": {
        "build_taylor_dataset": (None, None),
        "hp_filter_gap": ("transform.hp_filter_ns", None),
        "linear_trend_gap": (None, None),
        "inflation_gap": (None, None),
        "yoy_change": (None, None),
    }},
    "ols": {"taylorlab.ols": {
        "fit_ols": (None, _count("ols.fits")),
        "build_design": ("ols.design_ns", None),
        "solve_ols": ("ols.solve_ns", None),
        "summarize": (None, None),
    }},
    "hac": {"taylorlab.hac": {
        "newey_west_cov": (None, None),
        "long_run_cov": (None, None),
        "default_bandwidth": (None, None),
    }},
    "gmm": {"taylorlab.gmm": {
        "fit_linear_gmm": (None, _count("gmm.fits")),
    }},
    "diagnostics": {"taylorlab.diagnostics": {
        "wald_test": (None, _count("diagnostics.tests")),
        "chow_breakpoint_test": (None, _count("diagnostics.tests")),
        "white_test": ("diagnostics.white_ns", _count("diagnostics.tests")),
        "breusch_godfrey_test": (None, _count("diagnostics.tests")),
        "jarque_bera_test": (None, _count("diagnostics.tests")),
    }},
    "dist": {"taylorlab.dist": {
        "chi2_sf": (None, None),
        "student_t_sf2": (None, None),
        "f_sf": (None, None),
        "normal_cdf": (None, None),
        "regularized_gamma_q": (None, None),
        "regularized_beta": (None, None),
    }},
    "tables": {"taylorlab.tables": {
        "run_table": (None, _count("tables.runs")),
        "reproduction_dataset": (None, None),
    }},
    "report": {"taylorlab.report": {
        "compare_golden": ("report.compare_ns", _cells),
        "load_golden": (None, None),
        "render_table": ("report.render_ns", _bytes),
        "render_diff": (None, None),
    }},
}


class Tracer:
    """Span stack and counters for one process. Times are in nanoseconds."""

    def __init__(self):
        self.counts = collections.Counter()
        self._stack = []  # [layer, ns spent in spans opened from this one]

    def wrap(self, fn, layer, timer=None, counter=None):
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns
        self_key, calls_key, errors_key = f"{layer}.self_ns", f"{layer}.calls", f"{layer}.errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            boundary = not stack or stack[-1][0] != layer
            if not boundary and timer is None and counter is None:
                return fn(*args, **kwargs)
            if boundary:
                frame = [layer, 0]
                stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if boundary:
                    counts[errors_key] += 1
                raise
            finally:
                dt = clock() - t0
                if boundary:
                    stack.pop()
                    counts[self_key] += dt - frame[1]
                    counts[calls_key] += 1
                    if stack:
                        stack[-1][1] += dt
                if timer is not None:
                    counts[timer] += dt
            if counter is not None:
                counter(counts, args, result, boundary)
            return result

        return traced


def _snapshot(directory):
    try:
        with os.scandir(directory) as it:
            return {e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size) for e in it}
    except FileNotFoundError:
        return {}


def _count_cache_writes(counts, fetch):
    """Count files the fetch created or replaced in its cache directory."""

    @functools.wraps(fetch)
    def fetch_series(desc, *args, **kwargs):
        cache_dir = getattr(desc, "cache_dir", "") or None
        before = _snapshot(cache_dir) if cache_dir else {}
        try:
            return fetch(desc, *args, **kwargs)
        finally:
            if cache_dir:
                written = [v for k, v in _snapshot(cache_dir).items() if before.get(k) != v]
                counts["ingest.cache_files_written"] += len(written)
                counts["ingest.cache_bytes_written"] += sum(v[2] for v in written)

    return fetch_series


def install(tracer: Tracer):
    """Wrap every planned function of the already imported taylorlab.

    Returns a function that puts the originals back.
    """
    replace = {}  # id(original) -> (original, wrapper)
    undo = []  # (owner, attribute, original)
    for layer, modules in _PLAN.items():
        for modname, names in modules.items():
            module = sys.modules[modname]
            for name, (timer, counter) in names.items():
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[meth]
                    setattr(cls, meth, tracer.wrap(original, layer, timer, counter))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, name)
                wrapper = tracer.wrap(original, layer, timer, counter)
                if name == "fetch_series":
                    wrapper = _count_cache_writes(tracer.counts, wrapper)
                replace[id(original)] = (original, wrapper)
    for modname, module in list(sys.modules.items()):
        if modname != "taylorlab" and not modname.startswith("taylorlab."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def per_request(counts, requests: int) -> dict:
    """Per-layer metrics as per-request means, times in ms."""
    out = {}
    per = lambda key: counts.get(key, 0) / requests
    ms = lambda key: per(key) / 1e6
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(f"{layer}.self_ns")
        out[f"{layer}.errors"] = per(f"{layer}.errors")
    out.update({
        "ingest.calls": per("ingest.calls"),
        "ingest.rows": per("ingest.rows"),
        "ingest.fetch_ms": ms("ingest.fetch_ns"),
        "ingest.cache_files_written": per("ingest.cache_files_written"),
        "ingest.cache_bytes_written": per("ingest.cache_bytes_written"),
        "series.constructed": per("series.constructed"),
        "series.values": per("series.values"),
        "transform.calls": per("transform.calls"),
        "transform.hp_filter_ms": ms("transform.hp_filter_ns"),
        "ols.fits": per("ols.fits"),
        "ols.design_ms": ms("ols.design_ns"),
        "ols.solve_ms": ms("ols.solve_ns"),
        "hac.calls": per("hac.calls"),
        "gmm.fits": per("gmm.fits"),
        "diagnostics.tests": per("diagnostics.tests"),
        "diagnostics.white_ms": ms("diagnostics.white_ns"),
        "dist.calls": per("dist.calls"),
        "tables.runs": per("tables.runs"),
        "report.cells_compared": per("report.cells_compared"),
        "report.compare_ms": ms("report.compare_ns"),
        "report.render_ms": ms("report.render_ns"),
        "report.bytes_rendered": per("report.bytes_rendered"),
    })
    return out
