"""Machine and library stamp printed with every benchmark result.

Timings from different machines or library builds are not comparable; the
stamp and its short ``id`` make such a comparison visible.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads():
    """Run BLAS single-threaded; must happen before numpy is imported.

    Each workload is one client on one core. On the 2-core reference box a
    second BLAS thread made dense-50k slower (17.1 s vs 15.8 s per scene)
    and serve-4k latency noisier, and it cannot exceed nproc either way.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    """{'L2': bytes, 'L3': bytes} from sysconf, else from sysfs."""
    sizes = {}
    for level in (2, 3):
        try:
            v = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
        except (ValueError, OSError):
            v = 0
        if v > 0:
            sizes[f"L{level}"] = v
    base = "/sys/devices/system/cpu/cpu0/cache"
    if len(sizes) < 2 and os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(base, entry, "size")) as fh:
                    raw = fh.read().strip()
            except (OSError, ValueError):
                continue
            mult = {"K": 1024, "M": 1024**2}.get(raw[-1:], 1)
            key = f"L{level}"
            if level in (2, 3) and key not in sizes:
                sizes[key] = int(raw.rstrip("KM")) * mult
    return sizes


def _blas():
    """(library description, {loaded OpenBLAS library: runtime thread count})."""
    import numpy as np

    name = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    libs = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and path not in libs:
                    libs.append(path)
    except OSError:
        pass
    threads = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(path)] = fn()
                break
    return name, threads


def stamp():
    import numpy as np
    import scipy

    blas_name, blas_threads = _blas()
    info = {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "cache_bytes": _cache_sizes(),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }
    info["id"] = hashlib.sha256(json.dumps(info, sort_keys=True).encode()).hexdigest()[:12]
    return info
