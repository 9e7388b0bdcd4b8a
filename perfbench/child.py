"""Fresh-interpreter children of the benchmark.

    python child.py setup <workload> <seed> <work dir> [--env]
        Import taylorlab and do the workload's set-up, then print "ready".
        The parent times the process from spawn to that line. With --env,
        print the machine and library facts as a JSON line afterwards.
        Then, except for cli_cold, run one pass of the workload's requests
        (writing under <work dir>), so that the parent can read the peak
        resident memory of set-up and requests.
    python child.py cli <taylorlab cli arguments...>
        One traced CLI request: import taylorlab.cli, install the layer
        wrappers, run main() and write the counters as JSON to the file
        named by PERFBENCH_TRACE_OUT.

Nothing outside the standard modules loaded at start-up is imported before
taylorlab, so set-up time and import time measure the program alone. The
markers on stderr delimit the imports for ``-X importtime``.
"""

import sys
import time

# the same markers as envinfo's, which is not imported here before taylorlab
# because it loads ctypes
IMPORT_BEGIN = "#perfbench import-begin"
IMPORT_END = "#perfbench import-end"


def _mark(text):
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def setup(workload, seed, work, with_env):
    _mark(IMPORT_BEGIN)
    if workload == "cli_cold":
        import taylorlab.cli  # noqa: F401
    else:
        import taylorlab.tables
    _mark(IMPORT_END)
    if workload == "reproduce_warm":
        for country in ("us", "uk"):
            taylorlab.tables.reproduction_dataset(country)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if with_env:
        import json

        import envinfo

        info = envinfo.describe()
        info["taylorlab_file"] = sys.modules["taylorlab"].__file__
        sys.stdout.write(json.dumps(info) + "\n")
    if workload != "cli_cold":
        import os
        from pathlib import Path

        import workloads

        ctx = workloads.Context(Path.cwd(), Path(work), dict(os.environ), Path(__file__).parent)
        requests = workloads.WORKLOADS[workload](ctx, seed)
        for i in range(requests.pass_size):
            try:
                requests.request(i)
            except Exception:  # the measured loop reports failed requests
                pass


def cli(argv):
    _mark(IMPORT_BEGIN)
    import taylorlab.cli

    _mark(IMPORT_END)
    import json
    import os

    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    t0 = time.perf_counter_ns()
    rc = 1
    try:
        rc = taylorlab.cli.main(argv)
    finally:
        tracer.counts["cli.work_ns"] += time.perf_counter_ns() - t0
        tracer.counts["cli.errors"] += rc != 0
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(dict(tracer.counts), fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4], "--env" in sys.argv[5:])
    else:
        sys.exit(cli(sys.argv[2:]))
