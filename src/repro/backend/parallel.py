"""Process-wide thread and heap policy for repro processes.

**Thread budget.**  The system's own schedulers (fleet workers, sweep
threads, serve job threads) are the only source of parallelism, so every
GEMM runs single-threaded inside its caller's thread.
:func:`pin_blas_threads` sets the loaded OpenBLAS to one thread;
``repro.cli.main`` and process-mode sweep helpers call it before any
work.
:func:`available_cores` is the one core-count probe in the package.

**Heap policy.**  :func:`retain_heap` keeps freed array buffers resident
(glibc's ``mallopt``), so a forward pass reuses the pages the previous one
freed instead of faulting fresh ones in; the same two places call it.
Importing this module changes no process state.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["available_cores", "pin_blas_threads", "blas_threads",
           "retain_heap"]


def available_cores() -> int:
    """CPU cores actually available to *this process*.

    ``os.process_cpu_count()`` (3.13+) and the scheduler affinity mask both
    see container/cgroup CPU limits that plain ``os.cpu_count()`` ignores.
    """
    count = getattr(os, "process_cpu_count", None)
    if count is not None:
        n = count()
    else:
        try:
            n = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            n = os.cpu_count()
    return n or 1


#: (set, get) symbol pairs: NumPy 2 wheels' scipy-openblas, then distro
#: builds.  The first pair a mapped library exports is the one used.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _read_maps() -> str:
    """This process's memory map ("" where there is no ``/proc``)."""
    try:
        with open("/proc/self/maps") as fh:
            return fh.read()
    except OSError:
        return ""


def _openblas() -> list[tuple]:
    """``(set_num_threads, get_num_threads)`` for every mapped OpenBLAS."""
    paths = set()
    for line in _read_maps().splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in \
                os.path.basename(fields[5]).lower():
            paths.add(fields[5])
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (AttributeError, OSError):
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = lib[set_name], lib[get_name]
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return found


def blas_threads() -> int | None:
    """The thread width the loaded OpenBLAS reports, or ``None`` if no
    OpenBLAS is mapped into this process."""
    widths = [get() for _, get in _openblas()]
    return max(widths) if widths else None


def pin_blas_threads() -> int | None:
    """Pin the loaded OpenBLAS to one thread; returns the width read back.

    An ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` the operator set is
    honoured as-is (the width is only read back).  Returns ``None`` and
    changes nothing where no OpenBLAS is loaded.  Imports NumPy first, so
    the library is mapped before it is looked for.
    """
    import numpy  # noqa: F401 — maps OpenBLAS into the process

    libs = _openblas()
    if not libs:
        return None
    if not (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS")):
        for setter, _ in libs:
            setter(1)
    return max(get() for _, get in libs)


#: glibc ``mallopt`` parameters (``malloc.h``) and the values
#: :func:`retain_heap` sets, in the order it sets them.  32 MiB is the
#: ceiling of glibc's own dynamic mmap threshold on 64-bit; the trim
#: threshold keeps up to 128 MiB of freed heap resident.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 128 << 20))

#: glibc's own malloc thresholds, each settable as ``MALLOC_<NAME>_`` or
#: as ``glibc.malloc.<name>`` in ``GLIBC_TUNABLES``; an operator who set
#: any of them keeps them.
_MALLOC_SETTINGS = ("trim_threshold", "top_pad", "mmap_threshold",
                    "mmap_max")


def _malloc_set_by_operator() -> bool:
    """Whether the environment sets one of glibc's malloc thresholds."""
    if any(os.environ.get(f"MALLOC_{name.upper()}_")
           for name in _MALLOC_SETTINGS):
        return True
    tunables = {item.split("=", 1)[0]
                for item in os.environ.get("GLIBC_TUNABLES", "").split(":")}
    return any(f"glibc.malloc.{name}" in tunables
               for name in _MALLOC_SETTINGS)


def _libc():
    """The C library's global namespace (``None`` where it cannot be
    opened)."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def retain_heap() -> bool:
    """Keep freed array buffers resident for the next array.

    By default glibc serves each multi-MB NumPy temporary from a fresh
    ``mmap`` and unmaps it on free, so every forward pass faults its
    activations in page by page.  Two ``mallopt`` calls — the mmap
    threshold to 32 MiB, then the trim threshold to 128 MiB — serve those
    arrays from the heap and keep freed memory for reuse.  Both must be
    set: setting either one turns glibc's dynamic threshold off, which
    leaves the other at its 128 KiB default.

    Returns whether glibc accepted both calls.  Returns ``False`` and
    changes nothing where the C library has no ``mallopt`` or the operator
    set a glibc malloc threshold (``MALLOC_*_`` or ``glibc.malloc.*`` in
    ``GLIBC_TUNABLES``).  Values, shapes and strides of arrays are
    unaffected; only where their buffers live changes.
    """
    if _malloc_set_by_operator():
        return False
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # Stop at the first refusal, so one threshold is never left alone.
    return all(mallopt(param, value) == 1 for param, value in _HEAP_POLICY)
