"""Run header: the machine, the toolchain and the BLAS a result came from."""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS a wheel bundles, queried through ctypes.

    threadpoolctl would report this, but it is not a dependency; the
    library the package already loaded is opened again by path and asked.
    """
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                        f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _THREAD_QUERIES:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def collect() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    # numpy and scipy each bundle their own OpenBLAS
    threads = {"numpy": _openblas_threads(np), "scipy": _openblas_threads(scipy)}
    if max((t for t in threads.values() if t is not None), default=0) > nproc:
        raise RuntimeError(f"BLAS runs {threads} threads on {nproc} processors")
    return {
        "git_commit": _git_commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        # without threadpoolctl the CLI's --threads option does nothing
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads": threads,
    }
