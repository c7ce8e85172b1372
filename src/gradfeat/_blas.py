"""Read and set the thread count of the OpenBLAS that numpy has loaded, and
call its LAPACK ``dgeqrf`` on an array in place.

The library is found among the files this process has mapped; ``ctypes.CDLL``
on its path returns the handle already loaded.  The count is process-wide.
A ``ctypes`` call releases the GIL, as numpy's own LAPACK calls do.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np  # also loads the OpenBLAS looked for here

# numpy 2 wheels, numpy 1.x wheels, other builds: the thread-count getter and
# setter, LAPACK's dgeqrf, and the integer type of its arguments.  The LP64
# copy in scipy's wheel names its functions without ``64_`` and matches none.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_dgeqrf_64_", ctypes.c_int64),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_", "dgeqrf_64_", ctypes.c_int64),
    ("openblas_get_num_threads", "openblas_set_num_threads", "dgeqrf_", ctypes.c_int),
)

_PIN_LOCK = threading.Lock()
_pin = {"depth": 0, "saved": None}  # blocks inside one_thread, the count before them


@functools.cache
def _library():
    """numpy's OpenBLAS and the entry of ``_SYMBOLS`` it matches, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:  # not Linux
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    libs = [ctypes.CDLL(p) for p in paths if "openblas" in os.path.basename(p)]
    for names in _SYMBOLS:
        for lib in libs:
            if hasattr(lib, names[0]) and hasattr(lib, names[1]):
                return lib, names
    return None  # Accelerate, MKL, ...


@functools.cache
def _openblas():
    """numpy's OpenBLAS ``(get, set)`` thread-count functions, or ``None``."""
    found = _library()
    if found is None:
        return None
    lib, (get_name, set_name, _, _) = found
    get, set_ = getattr(lib, get_name), getattr(lib, set_name)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def geqrf():
    """``factor(a)``, which overwrites a Fortran-ordered float64 array with
    its QR factorization by numpy's OpenBLAS ``dgeqrf`` (``R`` on and above
    the diagonal, the reflectors below it), or ``None`` where none is found.

    The workspace is sized by LAPACK's query, as numpy's ``qr`` sizes it, so
    the blocking and thus the bits are those of ``np.linalg.qr``.
    """
    found = _library()
    if found is None:
        return None
    lib, (_, _, name, int_t) = found
    if not hasattr(lib, name):
        return None
    fn, ref = getattr(lib, name), ctypes.POINTER(int_t)
    fn.argtypes = [ref, ref, ctypes.c_void_p, ref, ctypes.c_void_p, ctypes.c_void_p, ref, ref]
    fn.restype = None

    def factor(a: np.ndarray) -> None:
        if a.dtype != np.float64 or not a.flags.f_contiguous or not a.flags.writeable:
            raise ValueError("dgeqrf needs a writeable Fortran-ordered float64 array")
        m, n = a.shape
        tau, query, info = np.empty(min(m, n)), np.empty(1), int_t(0)
        head = (int_t(m), int_t(n), a.ctypes.data, int_t(max(1, m)), tau.ctypes.data)
        fn(*head, query.ctypes.data, int_t(-1), ctypes.byref(info))
        work = np.empty(max(1, n, int(query[0])))
        fn(*head, work.ctypes.data, int_t(len(work)), ctypes.byref(info))
        if info.value != 0:
            raise np.linalg.LinAlgError(f"dgeqrf failed, info = {info.value}")

    return factor


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
