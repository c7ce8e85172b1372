"""Read and set the thread count of the OpenBLAS that numpy has loaded, and
call its LAPACK ``dgeqrt`` on an array in place.

The library is found among the files this process has mapped; ``ctypes.CDLL``
on its path returns the handle already loaded.  The count is process-wide.
A ``ctypes`` call releases the GIL, as numpy's own LAPACK calls do.

``dgeqrt``, not the ``dgeqrf`` of ``np.linalg.qr``, which factors its last NX =
128 columns (LAPACK's ``ilaenv`` crossover) unblocked, one ``dgemv`` and one
``dger`` per column.  ``dgeqrt`` factors every panel of ``_PANEL`` = 32 columns
and applies it by ``dlarfb`` (``dgemm``, ``dtrmm``): the same backward
stability, other last digits.  One BLAS thread (2-vCPU Xeon, OpenBLAS 0.3.31
SkylakeX), median of 15, ms, ``dgeqrf`` / ``dgeqrt``: 2000 x 152 7.55 / 3.59,
2500 x 152 10.0 / 4.57, 2500 x 302 20.6 / 15.2, 1000 x 104 2.20 / 1.06, stacked
606 x 303 4.64 / 3.93.  32 beat 8, 16, 64 but 8 at 1000 x 104 (2-16%).
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np  # also loads the OpenBLAS looked for here

# numpy 2 wheels, numpy 1.x wheels, other builds: thread-count getter and setter,
# dgeqrt, its integer type.  scipy's LP64 copy lacks ``64_`` and matches none.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_dgeqrt_64_", ctypes.c_int64),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_", "dgeqrt_64_", ctypes.c_int64),
    ("openblas_get_num_threads", "openblas_set_num_threads", "dgeqrt_", ctypes.c_int),
)

_PANEL = 32  # columns per dgeqrt panel (module docstring)
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
    get, set_ = (getattr(found[0], name) for name in found[1][:2])
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def geqrt():
    """``factor(a)``, which overwrites a Fortran-ordered float64 array with
    its QR factorization by numpy's OpenBLAS ``dgeqrt`` (``R`` on and above
    the diagonal, the reflectors below it), or ``None`` where none is found.
    """
    found = _library()
    if found is None or not hasattr(found[0], found[1][2]):
        return None
    lib, (_, _, name, int_t) = found
    fn, ref = getattr(lib, name), ctypes.POINTER(int_t)
    fn.argtypes = [ref, ref, ref, ctypes.c_void_p, ref, ctypes.c_void_p, ref, ctypes.c_void_p, ref]
    fn.restype = None

    def factor(a: np.ndarray) -> None:
        if a.dtype != np.float64 or not a.flags.f_contiguous or not a.flags.writeable:
            raise ValueError("dgeqrt needs a writeable Fortran-ordered float64 array")
        m, n = a.shape
        nb, info = max(1, min(_PANEL, m, n)), int_t(0)
        t, work = np.empty(nb * max(1, min(m, n))), np.empty(nb * max(1, n))
        fn(int_t(m), int_t(n), int_t(nb), a.ctypes.data, int_t(max(1, m)),
           t.ctypes.data, int_t(nb), work.ctypes.data, ctypes.byref(info))
        if info.value != 0:
            raise np.linalg.LinAlgError(f"dgeqrt failed, info = {info.value}")

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
