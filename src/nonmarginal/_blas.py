"""numpy's OpenBLAS on one thread for the package's small dense algebra.

The operands here are at most a few thousand rows by a few dozen columns.  On
OpenBLAS's default threads a 2000 x 41 ``Z'Z`` stalls for about 50 ms and a
worker spins on for about 0.1 s of CPU after a 41 x 41 ``eigh``; on one thread
each takes under a millisecond.  The thread count does not change their bits.

The thread-count functions of the OpenBLAS that numpy's wheels ship are looked
up once, at import; the count changes only inside ``one_blas_thread``.  Under
any other BLAS the helper does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _numpy_blas() -> dict:
    return np.__config__.CONFIG["Build Dependencies"]["blas"]


def _openblas_thread_functions():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or None."""
    if not str(_numpy_blas().get("name")).startswith("scipy-openblas"):
        return None
    package = Path(np.__file__).parent
    # beside the package on Linux and Windows, inside it on macOS
    for path in [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_THREADS = _openblas_thread_functions()


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count."""
    if _THREADS is None:
        yield
        return
    get, set_ = _THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def blas_version() -> dict:
    """numpy's BLAS name and version, and whether ``one_blas_thread`` limits it."""
    blas = _numpy_blas()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "one_thread": _THREADS is not None}
