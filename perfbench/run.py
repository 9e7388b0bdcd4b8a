"""taylorlab benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload <cli_cold|reproduce_warm|panel_scale>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ./src. The
last line of stdout is the result JSON. With --trace 0 it holds the
end-to-end metrics; with --trace 1 the per-layer metrics, measured in
traced passes that alternate with untraced ones (the untraced over the
traced throughput is trace.overhead_ratio). The line before it records the
request count, fail_ratio, every metric, and the machine and library facts.

Set-up time is the median over fresh interpreters timed from spawn until
the program is imported and the workload's set-up is done. Latencies and
throughput are scaled to the reference speed of calibrate.py. Every process
runs with single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import envinfo

# before numpy is first imported, here and in every child
os.environ.update(envinfo.BLAS_ENV)

import calibrate  # noqa: E402 (imports numpy)
import workloads  # noqa: E402

SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_written") or name.endswith("bytes_rendered"):
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class BenchError(Exception):
    pass


def probe_setup(ctx, workload, seed, importtime, with_env):
    """Spawn a fresh interpreter; seconds until its set-up is done.

    After set-up the child runs one untimed pass of the workload (not for
    cli_cold), so its peak resident memory, taken here from wait4, is that
    of set-up and requests without the benchmark's checks and oracle inputs.
    """
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            str(ctx.here / "child.py"), "setup", workload, str(seed), str(ctx.work / "probe"),
            *(["--env"] if with_env else [])]
    stderr_path = ctx.work / "probe.stderr"
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=ctx.env,
                                cwd=ctx.root, text=True)
        ready = proc.stdout.readline()
        seconds = perf_counter() - t0
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"set-up probe failed (exit {rc}):\n{stderr}")
    env = json.loads(rest.splitlines()[0]) if with_env else None
    imports = envinfo.import_times(stderr) if importtime else None
    return seconds, imports, env, usage.ru_maxrss / 1024.0


def measure(workload, seconds, oks, alternate, probe):
    """Closed loop over whole passes for at least `seconds`.

    With `alternate`, odd passes are traced and the run ends after an even
    number of passes. Between passes, SETUP_PROBES calls of `probe` are
    spread evenly over the run, so set-up is sampled across the machine's
    slow and fast stretches. The calibration kernel runs
    `workload.kernel_runs` times before each request. Returns the passes,
    each a pair of its request latencies and kernel times, untraced and
    traced, and the probe results.
    """
    plain, traced, probes = [], [], []
    i = 0
    start = perf_counter()
    while not plain or perf_counter() - start < seconds or (alternate and len(traced) < len(plain)):
        if perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        on = alternate and len(plain) > len(traced)
        workload.trace(on)
        latencies, kernel = [], []
        for _ in range(workload.pass_size):
            kernel += [calibrate.kernel_seconds() for _ in range(workload.kernel_runs)]
            t0 = perf_counter()
            try:
                dt, output = workload.request(i)
                ok = workload.check(i, output)
            except Exception:  # a failed request: count it and keep the loop running
                dt, ok = perf_counter() - t0, False
                if all(oks):
                    traceback.print_exc(file=sys.stderr)
            latencies.append(dt)
            oks.append(ok)
            i += 1
        (traced if on else plain).append((latencies, kernel))
    workload.trace(False)
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    return plain, traced, probes


# On a shared 2-vCPU cloud VM, neighbouring tenants slowed runs down by up
# to 1.6x for stretches of 5-15 s, and the machine's speed drifted by up to
# 1.4x over minutes, so whole runs of the same code differ by more than a
# regression bound. The timings are therefore scaled to the reference speed
# of calibrate.py by the kernel's mean time over the same passes; the
# unscaled values are printed in the info line. Every request counts.


def run(args, ctx):
    traced = bool(args.trace)
    _, _, env, _ = probe_setup(ctx, args.workload, args.seed, False, True)  # warm-up: bytecode, page cache
    src = str(ctx.root / "src")
    if not env["taylorlab_file"].startswith(src + os.sep):
        raise BenchError(f"children import taylorlab from {env['taylorlab_file']}, not {src}")
    workload = workloads.WORKLOADS[args.workload](ctx, args.seed)
    if args.workload != "cli_cold":
        import taylorlab

        if not taylorlab.__file__.startswith(src + os.sep):
            raise BenchError(f"taylorlab imported from {taylorlab.__file__}, not {src}")
        env["blas_threads_measured_process"] = envinfo.blas_threads()

    oks = []
    plain, with_trace, probes = measure(
        workload, args.seconds, oks, traced,
        lambda: probe_setup(ctx, args.workload, args.seed, traced, False),
    )
    workload.finalize(oks)
    if not traced:
        lat = [dt for latencies, _ in plain for dt in latencies]
        # the calibration kernel's reference time over its mean time in the run
        scale = calibrate.REFERENCE_S / statistics.fmean(k for _, kernel in plain for k in kernel)
        if args.workload == "cli_cold":
            peak = workload.peak_rss_mb()  # the largest CLI process
        else:
            peak = statistics.median(p[3] for p in probes)  # set-up plus one pass
        setup_s = statistics.median(p[0] for p in probes)
        raw = {
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            # requests over the program's time on them, checks excluded
            "throughput_rps": len(lat) / sum(lat),
        }
        metrics = {
            "setup_s": setup_s,  # unscaled: scaling it widened its spread in trials
            "latency_p50_ms": raw["latency_p50_ms"] * scale,
            "latency_p90_ms": raw["latency_p90_ms"] * scale,
            "throughput_rps": raw["throughput_rps"] / scale,
            "success_ratio": sum(oks) / len(oks),
            "peak_rss_mb": peak,
        }
        info_extra = {"speed_scale": scale, "unscaled": raw}
        latency_samples = len(lat)
        units = END_TO_END
    else:
        metrics = workload.layer_metrics(sum(len(t[0]) for t in with_trace))
        if args.workload != "cli_cold":
            metrics.update(workloads.import_metrics([p[1] for p in probes]))
        # each traced pass against the untraced pass just before it
        metrics["trace.overhead_ratio"] = statistics.median(
            sum(t[0]) / sum(p[0]) for p, t in zip(plain, with_trace)
        )
        metrics["trace.requests"] = sum(len(t[0]) for t in with_trace)
        metrics = dict(sorted(metrics.items()))
        units = {k: layer_unit(k) for k in metrics}
        latency_samples = metrics["trace.requests"]
        info_extra = {}

    failed = oks.count(False)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": len(oks), "fail_ratio": failed / len(oks),
        "latency_samples": latency_samples,
        "client": "closed loop, 1 client", "setup_probes": [p[0] for p in probes],
        **info_extra, "environment": env, "metrics": metrics,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "taylorlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no taylorlab sources under {root}/src; "
                         "run from the root of a checkout\n")
        return 2
    src = str(root / "src")
    sys.path.insert(0, src)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    ctx = workloads.Context(root, work, child_env, Path(__file__).resolve().parent)
    try:
        info, result = run(args, ctx)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
