"""Environment record attached to every result, so numbers from different
machines are never compared silently."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from importlib import metadata

import numpy as np


def _blas_libraries():
    """Loaded OpenBLAS builds with their configuration and thread count."""
    paths = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    out = []
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace").strip()
        out.append(entry)
    return out


def _caches():
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    return caches


def record() -> dict:
    try:
        blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas_build.get("name"), "version": blas_build.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_loaded": _blas_libraries(),
        "caches": _caches(),
    }
