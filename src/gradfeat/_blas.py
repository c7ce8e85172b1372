"""Read and set the thread count of the OpenBLAS that numpy has loaded.

The library is found among the files this process has mapped; ``ctypes.CDLL``
on its path returns the handle already loaded.  The count is process-wide.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy  # noqa: F401  -- loads the OpenBLAS looked for here

# numpy 2 wheels, numpy 1.x wheels, other builds.  The LP64 copy in scipy's
# wheel names its functions without ``64_`` and matches none of these.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_PIN_LOCK = threading.Lock()
_pin = {"depth": 0, "saved": None}  # blocks inside one_thread, the count before them


@functools.cache
def _openblas():
    """numpy's OpenBLAS ``(get, set)`` thread-count functions, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:  # not Linux
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    libs = [ctypes.CDLL(p) for p in paths if "openblas" in os.path.basename(p)]
    for get_name, set_name in _SYMBOLS:
        for lib in libs:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None  # Accelerate, MKL, ...


def threads() -> int | None:
    """numpy's OpenBLAS thread count, or ``None`` where none is found."""
    found = _openblas()
    return None if found is None else found[0]()


@contextmanager
def one_thread():
    """Pin numpy's OpenBLAS to one thread for the block, then restore the count.

    Of overlapping blocks on any threads, the first saves the count and pins
    it, and the last restores it.  Where no OpenBLAS is found it runs unpinned.
    """
    found = _openblas()
    if found is None:
        yield
        return
    get, set_ = found
    with _PIN_LOCK:
        if _pin["depth"] == 0:
            _pin["saved"] = get()
            set_(1)
        _pin["depth"] += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin["depth"] -= 1
            if _pin["depth"] == 0:
                set_(_pin["saved"])
