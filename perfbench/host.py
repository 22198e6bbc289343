"""Host fingerprint and code identity, attached to every benchmark record."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

__all__ = ["fingerprint", "numeric_key"]

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> str:
    """The BLAS thread setting from the environment, or ``default``."""
    for var in _BLAS_THREAD_VARS:
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "default"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git`` directly (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    """SHA-256 over every source file's path and bytes: identity without git."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "simd": list(config.get("SIMD Extensions", {}).get("found", [])),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "src_digest": _src_digest(root),
    }


def numeric_key(fp: dict) -> str:
    """The part of the fingerprint that decides floating-point results."""
    return (f"py{fp['python']}-np{fp['numpy']}-{fp['blas']}"
            f"{fp['blas_version']}-{fp['cpu']}-{'+'.join(fp['simd'])}")
