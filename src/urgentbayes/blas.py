"""One BLAS thread for the serving forward.

NumPy's OpenBLAS splits a matrix product over every core once it holds
more than about 2.6e5 multiply-adds, which most LSTM steps of a served
batch do.  The serving products are small (one step of a 64-post forum
batch is 4.2e6 multiply-adds): on 2 vCPUs a second thread made forum
prediction 10-12% faster while the other core was idle, and while another
process kept that core busy each product waited for a thread that was not
running, so forum mcd served 51 posts/s on two threads against 115 on one.
`predict_batch` therefore runs under `one_thread()`.  The thread count
changes no product's bytes, since OpenBLAS splits the rows and columns of
a product over threads but never its inner sums.

The count is process-wide: a product another Python thread runs while a
prediction is under way also gets one thread.  Where NumPy's BLAS is not
an OpenBLAS this process has loaded, `one_thread()` does nothing."""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

# (get, set) pairs: scipy-openblas wheels, 64-bit-integer builds, plain builds
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_UNRESOLVED = object()
_controls = _UNRESOLVED


def _find_openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def one_thread():
    """Runs the block with OpenBLAS on one thread, then restores the count
    it had."""
    global _controls
    if _controls is _UNRESOLVED:
        _controls = _find_openblas()
    before = _controls[0]() if _controls else 1
    if before == 1:
        yield
        return
    _controls[1](1)
    try:
        yield
    finally:
        _controls[1](before)
