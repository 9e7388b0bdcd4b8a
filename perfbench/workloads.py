"""The three workloads: request generation, timing and output checks.

Each workload exposes
    pass_size         requests in one pass over its input set; runs stop
                      only at pass boundaries, so every run has the same mix
    kernel_runs       calibration kernel runs before each request, enough
                      to gauge the machine's speed over the run
    request(i)        do request i; returns (seconds, output), timing only
                      the program's work
    check(i, output)  verify the output, outside the timed region
    finalize(oks)     deferred checks that may mark requests failed
    trace(on)         switch the following requests into or out of tracing
    layer_metrics(n)  per-request layer metrics of the n traced requests

and cli_cold, whose requests are processes of their own, also
    peak_rss_mb()     peak resident memory of its CLI processes
The in-process workloads' memory is measured in the set-up probes.
"""

from __future__ import annotations

import collections
import json
import os
import random
import statistics
import subprocess
import sys
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Context:
    root: Path  # checkout root, holding src/taylorlab
    work: Path  # scratch directory inside the checkout, removed after the run
    env: dict  # environment of every child process
    here: Path  # the benchmark's own directory

    def golden(self, table_id: int) -> dict:
        path = self.root / "src" / "taylorlab" / "golden" / f"table{table_id:02d}.json"
        return json.loads(path.read_text())["cells"]


def golden_mismatches(cells: dict, values: dict) -> list[str]:
    """Labels whose value misses its golden cell (abs or rel tolerance)."""
    bad = []
    for label, (expected, abs_tol, rel_tol) in cells.items():
        value = values.get(label)
        if value is None:
            bad.append(f"{label} missing")
            continue
        err = abs(value - expected)
        if not ((abs_tol is not None and err <= abs_tol)
                or (rel_tol is not None and err <= rel_tol * abs(expected))):
            bad.append(f"{label}={value!r}, golden {expected!r}")
    return bad


def values_of_rendering(text: str, js: str) -> dict:
    """Golden-table labels from a result's JSON and text renderings."""
    payload = json.loads(js)
    if payload["kind"] != "test":
        return payload
    values = {}
    for s in payload["statistics"]:
        values[f"stat:{s['form']}"] = s["value"]
        values[f"p:{s['form']}"] = s["p"]
    for line in text.splitlines():  # labelled details appear in text only
        fields = line.split()
        if len(fields) == 2 and ":" in fields[0]:
            values[fields[0]] = float(fields[1])
    return values


def import_metrics(samples: list[dict]) -> dict:
    """Median import times and mean import errors over processes."""
    return {
        k: (statistics.fmean if k == "import.errors" else statistics.median)(s[k] for s in samples)
        for k in samples[0]
    }


# ---------------------------------------------------------------- cli_cold


class CliCold:
    """Fresh `python -m taylorlab.cli` processes, one at a time."""

    COMMANDS = (
        ("reproduce", "--country", "us"),
        ("reproduce", "--country", "uk"),
        ("fit", "--country", "us", "--reg", "inflation_gap,output_gap,s",
         "--cov", "hac", "--format", "json"),
        ("test", "white", "--country", "uk", "--reg", "inflation_gap,output_gap,s"),
    )
    pass_size = len(COMMANDS)
    kernel_runs = 8  # a request takes about 0.5 s, and a run holds few

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.offset = seed % len(self.COMMANDS)
        self.golden_fit = ctx.golden(8)
        self.golden_white = ctx.golden(14)
        self.stderr_path = ctx.work / "cli.stderr"
        self.trace_path = ctx.work / "cli.trace.json"
        self.traced = False
        self.peak_kb = 0
        self.counts = collections.Counter()
        self.imports = []

    def trace(self, on):
        self.traced = on

    def request(self, i):
        cmd = self.COMMANDS[(i + self.offset) % len(self.COMMANDS)]
        env = self.ctx.env
        if self.traced:
            argv = [sys.executable, "-X", "importtime", str(self.ctx.here / "child.py"), "cli", *cmd]
            env = dict(env, PERFBENCH_TRACE_OUT=str(self.trace_path))
            self.trace_path.unlink(missing_ok=True)
        else:
            argv = [sys.executable, "-m", "taylorlab.cli", *cmd]
        with open(self.stderr_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=self.ctx.root)
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            dt = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        if not self.traced:
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return dt, (cmd, proc.returncode, stdout.decode())

    def check(self, i, output):
        cmd, rc, stdout = output
        if self.traced:
            import envinfo  # loads ctypes, so not at the top: child.py imports this module

            self.imports.append(envinfo.import_times(self.stderr_path.read_text()))
            self.counts.update(json.loads(self.trace_path.read_text()))
        if rc != 0:
            return False
        if cmd[0] == "reproduce":
            ids = range(1, 10) if cmd[2] == "us" else range(10, 18)
            return stdout.splitlines() == [f"Table {t}: PASS" for t in ids]
        if cmd[0] == "fit":
            return not golden_mismatches(self.golden_fit, json.loads(stdout))
        values = {}
        for line in stdout.splitlines():  # "<form> <value> <df> <prob>"
            fields = line.split()
            if len(fields) == 4 and fields[0] in ("F", "obs_r2"):
                values[f"stat:{fields[0]}"] = float(fields[1])
                values[f"p:{fields[0]}"] = float(fields[3])
        return not golden_mismatches(self.golden_white, values)

    def finalize(self, oks):
        pass

    def layer_metrics(self, requests):
        import layers

        out = layers.per_request(self.counts, requests)
        out["cli.work_ms"] = self.counts["cli.work_ns"] / 1e6 / requests
        out["cli.errors"] = self.counts["cli.errors"] / requests
        out.update(import_metrics(self.imports))
        return out

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0


# ---------------------------------------------------------- in-process base


class InProcess:
    """Shared tracing of the in-process workloads."""

    kernel_runs = 1
    tracer = None
    uninstall = None

    def trace(self, on):
        import layers

        if self.tracer is None:
            self.tracer = layers.Tracer()
        if on and self.uninstall is None:
            self.uninstall = layers.install(self.tracer)
        elif not on and self.uninstall is not None:
            self.uninstall()
            self.uninstall = None

    def layer_metrics(self, requests):
        import layers

        out = layers.per_request(self.tracer.counts, requests)
        out["cli.work_ms"] = 0.0
        out["cli.errors"] = 0.0
        return out

    def finalize(self, oks):
        pass


# ----------------------------------------------------------- reproduce_warm


class ReproduceWarm(InProcess):
    """All 17 tables per request: run, golden diff, text and JSON render."""

    pass_size = 8  # about 0.2 s: the grain at which traced and untraced passes alternate

    def __init__(self, ctx: Context, seed: int):
        import taylorlab.report
        import taylorlab.tables

        # modules, not functions: names are looked up at call time so that
        # the layer wrappers take effect in the traced phase
        self.tables, self.report = taylorlab.tables, taylorlab.report
        self.datasets = {c: self.tables.reproduction_dataset(c) for c in ("us", "uk")}
        ids = list(range(1, 18))
        random.Random(seed).shuffle(ids)
        self.ids = [(t, self.tables.country_for_table(t)) for t in ids]
        self.golden = {t: ctx.golden(t) for t in ids}
        self.reference = None
        self.reference_ok = False

    def request(self, i):
        tables, report = self.tables, self.report
        out = []
        t0 = perf_counter()
        for tid, country in self.ids:
            result = tables.run_table(tid, self.datasets[country])
            diff = report.compare_golden(result, report.load_golden(tid))
            out.append((tid, diff.passed, report.render_table(result, "text"),
                        report.render_table(result, "json")))
        return perf_counter() - t0, out

    def check(self, i, output):
        if not all(passed for _, passed, _, _ in output):
            return False
        if self.reference is None:
            self.reference = output
            self.reference_ok = all(
                not golden_mismatches(self.golden[tid], values_of_rendering(text, js))
                for tid, _, text, js in output
            )
        return self.reference_ok and output == self.reference


# -------------------------------------------------------------- panel_scale


REGRESSORS = ("inflation_gap", "output_gap", "s")
GMM_REGRESSORS = ("const", "inflation_gap", "output_gap", "s")
INSTRUMENTS = ("inflation_gap(-1)", "inflation_gap(-2)", "output_gap(-1)", "output_gap(-2)")
API_KEY_ENV = "PERFBENCH_API_KEY"


class PanelScale(InProcess):
    """Long synthetic panels: ingest, HP filter, fits, GMM, tests, JSON."""

    def __init__(self, ctx: Context, seed: int):
        import numpy as np
        import taylorlab

        import panels

        self.ctx, self.seed = ctx, seed
        self.tl = taylorlab
        self.ingest = sys.modules["taylorlab.ingest"]
        self.panels = panels.generate(seed)
        random.Random(seed).shuffle(self.panels)
        # even requests parse CSV text, odd ones fetch JSON; both see every panel
        self.pass_size = 2 * len(self.panels)
        self.payloads = {sid: body for p in self.panels for sid, body in p.payloads.items()}
        cache = ctx.work / "fred-cache"
        remote = self.ingest.RemoteConfig(
            base_url="bench://fred/series/observations", api_key_env=API_KEY_ENV
        )
        os.environ[API_KEY_ENV] = "synthetic"
        self.sources = {
            p.n: taylorlab.SourceDescriptor("remote", "synthetic", p.series_ids, cache, remote=remote)
            for p in self.panels
        }
        self.breaks = {}
        for p in self.panels:  # sample starts after the year-over-year lag
            first, n = 4, p.n - 4
            self.breaks[p.n] = [taylorlab.Quarter(*p.quarter(first + n * f // 4)) for f in (1, 2, 3)]
        # Wald restriction b1 = b2 = 0.5 on (inflation_gap, output_gap, s, const)
        self.wald = (np.eye(2, len(REGRESSORS) + 1), np.array([0.5, 0.5]))
        self.reference = {}  # length -> rendered outputs of its first request
        self.oracle_inputs = {}

    def _http_get(self, url):
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)
        return self.payloads[query["series_id"][0]]

    def request(self, i):
        tl, ingest = self.tl, self.ingest
        panel = self.panels[(i // 2) % len(self.panels)]
        t0 = perf_counter()
        if i % 2 == 0:
            raw = ingest.parse_quarterly_csv(panel.csv_text, "synthetic")
        else:
            raw = ingest.fetch_series(self.sources[panel.n], http_get=self._http_get)
        d = tl.build_taylor_dataset(raw)
        spec = tl.RegressionSpec("it", REGRESSORS)
        classical = tl.fit_ols(d, spec)
        hac = tl.fit_ols(d, tl.RegressionSpec("it", REGRESSORS, covariance=tl.HacConfig()))
        gmm = tl.fit_linear_gmm(d, tl.GmmSpec(tl.RegressionSpec("it", GMM_REGRESSORS), INSTRUMENTS))
        tests = [
            tl.white_test(hac),
            tl.breusch_godfrey_test(hac, lags=4),
            tl.jarque_bera_test(hac.residuals),
            tl.wald_test(classical, *self.wald),
        ] + [tl.chow_breakpoint_test(d, spec, q) for q in self.breaks[panel.n]]
        rendered = [tl.render_table(r, "json") for r in (classical, hac, gmm, *tests)]
        dt = perf_counter() - t0
        return dt, (panel.n, rendered, d, classical, hac)

    def check(self, i, output):
        n, rendered, d, classical, hac = output
        if n not in self.reference:
            self.reference[n] = rendered
            parsed = [json.loads(r) for r in rendered]
            self.oracle_inputs[str(n)] = {
                "output_gap": [float(v) for v in d["output_gap"].values],
                "classical": parsed[0],
                "hac": parsed[1],
                "gmm": parsed[2],
                "tests": parsed[3:],
                "classical_cov": classical.covariance.tolist(),
                "hac_cov": hac.covariance.tolist(),
            }
        # CSV and JSON ingestion of one panel must give identical results
        return rendered == self.reference[n]

    def finalize(self, oks):
        """Run the scipy-backed oracle in its own process; mark failures."""
        path = self.ctx.work / "oracle-inputs.json"
        path.write_text(json.dumps({"seed": self.seed, "outputs": self.oracle_inputs}))
        self.oracle_inputs = {}
        proc = subprocess.run(
            [sys.executable, str(self.ctx.here / "oracle.py"), str(path)],
            capture_output=True, text=True, env=self.ctx.env, cwd=self.ctx.root, timeout=120,
        )
        try:
            verdict = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(f"perfbench: oracle failed:\n{proc.stderr}\n")
            verdict = {"ok": {}, "errors": ["oracle produced no verdict"]}
        for message in verdict["errors"]:
            sys.stderr.write(f"perfbench: oracle: {message}\n")
        for i in range(len(oks)):
            n = self.panels[(i // 2) % len(self.panels)].n
            if not verdict["ok"].get(str(n), False):
                oks[i] = False


WORKLOADS = {"cli_cold": CliCold, "reproduce_warm": ReproduceWarm, "panel_scale": PanelScale}
