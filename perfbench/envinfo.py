"""Machine and library facts recorded with each result, and the parser for
``python -X importtime`` output."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

# Every process the benchmark starts runs single-threaded BLAS: with two
# OpenBLAS threads on a 2-vCPU machine, QR calls stalled in some processes.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

IMPORT_BEGIN = "#perfbench import-begin"
IMPORT_END = "#perfbench import-end"


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe() -> dict:
    """Python, numpy, scipy and BLAS facts of the current process."""
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    scipy = sys.modules.get("scipy")
    info["scipy"] = scipy.__version__ if scipy is not None else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas_build"] = "unknown"
    return info


def import_times(stderr_text: str) -> dict:
    """Import time in ms by origin, from the lines between the markers.

    ``-X importtime`` prints each module's self time, children before their
    parent, indented by depth. Every module counts once, toward the
    outermost numpy or scipy import that pulled it in, else toward its own
    package (taylorlab) or toward stdlib. So ``scipy_ms`` is what importing
    scipy adds, numpy modules that only scipy needs included;
    ``taylorlab_ms`` holds no numpy or scipy time; and ``urllib.request``
    imported by taylorlab counts as stdlib.
    """
    modules = []  # (depth, name, self us), in printed order
    inside = False
    for line in stderr_text.splitlines():
        if line.startswith(IMPORT_BEGIN):
            inside = True
        elif line.startswith(IMPORT_END):
            break
        elif inside and line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():  # skip the header
                name = fields[2].rstrip()
                depth = (len(name) - len(name.lstrip()) - 1) // 2
                modules.append((depth, name.strip(), int(fields[0])))
    totals = dict.fromkeys(("numpy", "scipy", "taylorlab", "stdlib", "other"), 0)
    owners = []  # owner attributed at each depth of the current ancestry
    for depth, name, self_us in reversed(modules):  # parents before children
        del owners[depth:]
        top = name.split(".")[0]
        inherited = next((o for o in owners if o in ("numpy", "scipy")), None)
        if inherited:
            owner = inherited
        elif top in ("numpy", "scipy", "taylorlab"):
            owner = top
        else:
            owner = "stdlib" if top in sys.stdlib_module_names else "other"
        owners += [None] * (depth - len(owners)) + [owner]
        totals[owner] += self_us
    out = {f"import.{k}_ms": v / 1000.0 for k, v in totals.items() if k != "other"}
    out["import.total_ms"] = sum(totals.values()) / 1000.0
    out["import.errors"] = 0 if IMPORT_END in stderr_text else 1
    return out
