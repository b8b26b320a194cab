"""Environment block recorded with every benchmark result, and the check
that BLAS really runs on the one thread the benchmark pins it to.

The pin itself is set in ``run.py`` before numpy is first imported; here we
only read back what the loaded BLAS library reports.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_library():
    """The OpenBLAS shared object mapped into this process, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if path.endswith(".so") or ".so." in path:
            return ctypes.CDLL(path)
    return None


def _symbol(lib, stem: str):
    """OpenBLAS builds export ``openblas_<stem>`` under several prefixes and
    suffixes (plain, scipy-openblas, 64-bit-integer ABI)."""
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            name = f"{prefix}openblas_{stem}{suffix}"
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def blas_runtime() -> tuple[int | None, str]:
    """(thread count the BLAS library reports, its config string)."""
    lib = _openblas_library()
    if lib is None:
        return None, "no OpenBLAS library loaded"
    threads, config = _symbol(lib, "get_num_threads"), _symbol(lib, "get_config")
    count = None
    if threads is not None:
        threads.restype = ctypes.c_int
        threads.argtypes = []
        count = int(threads())
    text = "unknown"
    if config is not None:
        config.restype = ctypes.c_char_p
        config.argtypes = []
        text = config().decode("ascii", "replace").strip()
    return count, text


def check_blas_pin() -> str | None:
    """None when BLAS runs on PINNED_THREADS threads, else the reason not."""
    count, _ = blas_runtime()
    if count is None:
        return "cannot read the BLAS thread count (OpenBLAS not found)"
    if count != PINNED_THREADS:
        return f"BLAS runs {count} threads, expected {PINNED_THREADS}"
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash(root: Path) -> str:
    """sha256 over src/querymix/**/*.py, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "querymix").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": config,
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": source_hash(root),
    }
