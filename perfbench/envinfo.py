"""Environment record for a benchmark result: commit, machine, interpreter,
numeric libraries and BLAS threading.

The BLAS thread count matters for correctness checks, not only for speed:
multithreaded OpenBLAS splits large products differently from a single
thread, so the CMA-ES trajectory (and its fitness digests) depends on it.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy


def _openblas_symbol(name):
    """Function ``name`` of the OpenBLAS bundled with numpy, or None.

    Bundled builds prefix and suffix their symbols (``scipy_openblas_..64_``).
    """
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


def _blas_library():
    """numpy's BLAS name and version from its build configuration."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown", "unknown"
    return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself.

    Falls back to the environment variables OpenBLAS reads, then the CPU
    count, when the library exposes no query.
    """
    query = _openblas_symbol("get_num_threads")
    if query is not None:
        query.restype = ctypes.c_int
        query.argtypes = []
        return int(query())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return os.cpu_count() or 1


def set_blas_threads(n):
    """Make numpy's OpenBLAS use ``n`` threads from now on; a no-op without
    OpenBLAS (the environment record then shows the count in use)."""
    setter = _openblas_symbol("set_num_threads")
    if setter is not None:
        setter.restype = None
        setter.argtypes = [ctypes.c_int]
        setter(n)


def blas_key():
    """Key for expected digests: BLAS library and its thread count."""
    name, _ = _blas_library()
    return f"{name}:{_blas_threads()}"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path):
    """Git commit of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(package_dir: Path):
    """SHA-256 over the package's Python sources, in path order."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, package_dir: Path):
    name, version = _blas_library()
    return {
        "commit": _commit(root),
        "src_sha256": source_digest(package_dir),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": _blas_threads(),
        "num_threads_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }
