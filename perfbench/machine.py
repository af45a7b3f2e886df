"""Machine descriptor written with every benchmark result.

Two results may be compared only when their ``machine_id`` values match; the
id is a hash of every other field, thread counts included.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        size = _read(str(index / "size")).strip()
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _ram_mb() -> int:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) // 1024
    return 0


def _openblas() -> dict:
    """Version string and thread count of the OpenBLAS that numpy loaded."""
    paths = sorted(
        {
            line.split()[-1]
            for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info["config"] = get_config().decode(errors="replace")
                info["threads"] = get_threads()
                return info
    return {"library": None, "config": None, "threads": None}


def describe() -> dict:
    import numpy
    import scipy

    blas = _openblas()
    desc = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas["config"],
        "openblas_library": blas["library"],
        "blas_threads": blas["threads"],
        "IMT_THREADS": os.environ.get("IMT_THREADS"),
    }
    digest = hashlib.sha1(json.dumps(desc, sort_keys=True).encode()).hexdigest()
    desc["machine_id"] = digest[:12]
    return desc
