"""The OpenBLAS copies numpy and scipy bundle, reached through ctypes.

numpy loads its own OpenBLAS (ILP64, libscipy_openblas64_) and scipy its own
(LP64, libscipy_openblas), each with its own thread pool.  `openblas` finds
the copies this process has loaded, `pin_blas` sets their thread counts in a
pool worker, and `cholesky_in_place` factors a Gram in place on numpy's copy,
the one whose gemm formed it.  Every lookup runs at its first call, never at
import.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

# per copy, the symbol that sets its thread count and the one that reads it
_OPENBLAS_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                     ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))

# LAPACKE's dpotrf in numpy's copy: lapack_int (int matrix_layout, char uplo,
# lapack_int n, double *a, lapack_int lda), lapack_int 64 bits wide
_DPOTRF = "scipy_LAPACKE_dpotrf64_"
_COL_MAJOR = 102

# BLAS threads in each pool worker, so that the workers' threads do not
# outnumber the CPUs: unpinned, each worker started one thread per CPU, and a
# 2-worker preset sweep (20 replicates, 2 vCPUs) took 13.6-24.4 s against
# 1.4-2.5 s in one process
WORKER_BLAS_THREADS = 1


def _loaded_paths() -> list:
    """The files of the OpenBLAS copies this process has loaded, as
    /proc/self/maps lists them; empty where that file is missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # a line naming a file ends in its path, the sixth field
            return sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                           if "openblas" in line})
    except OSError:
        return []


@functools.lru_cache(maxsize=1)
def openblas() -> tuple:
    """(file name, set_num_threads, get_num_threads) of each bundled OpenBLAS
    copy this process has loaded; empty where none is found."""
    found = []
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)  # already loaded: dlopen returns its handle
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((os.path.basename(path), setter, getter))
                break
    return tuple(found)


def pin_blas() -> None:
    """Pool initializer: each OpenBLAS copy of the worker runs WORKER_BLAS_THREADS threads."""
    for _, set_threads, _ in openblas():
        set_threads(WORKER_BLAS_THREADS)


@functools.lru_cache(maxsize=1)
def _lapacke_dpotrf() -> tuple | None:
    """(file name, dpotrf) of numpy's OpenBLAS copy, or None where no
    loaded copy exports LAPACKE's ILP64 dpotrf."""
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)
        if hasattr(lib, _DPOTRF):
            potrf = getattr(lib, _DPOTRF)
            potrf.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p,
                              ctypes.c_int64]
            potrf.restype = ctypes.c_int64
            return os.path.basename(path), potrf
    return None


def factor_backend() -> str:
    """What `cholesky_in_place` runs on: the file name of numpy's OpenBLAS
    copy, or "scipy" where that copy or its dpotrf is missing."""
    found = _lapacke_dpotrf()
    return "scipy" if found is None else found[0]


def cholesky_in_place(a: np.ndarray) -> int:
    """Factor a = U^T U in place and return LAPACK dpotrf's info.

    a is a writable, Fortran-ordered square float64 array whose upper
    triangle holds a symmetric matrix; on info 0 that triangle holds U, and
    the part below the diagonal is neither read nor written.  info > 0
    where the leading minor of that order is not positive definite (U is
    then incomplete), and info < 0 where LAPACKE refuses an argument; its
    NaN check refuses a NaN in the triangle with info -4.

    dpotrf runs on numpy's OpenBLAS copy, the pool that formed the Gram, on
    a's own memory: np.linalg.cholesky factors a copy and returns a third
    array.  Where that copy or its symbol is missing, scipy's dpotrf, which
    runs on scipy's own copy, overwrites a instead.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError("cholesky_in_place needs a writable Fortran-ordered square "
                         "float64 array")
    n = a.shape[0]
    found = _lapacke_dpotrf()
    if found is None:
        from scipy.linalg.lapack import dpotrf

        # f2py hands a Fortran-ordered float64 array to LAPACK as it is, so
        # the factor is written into a
        _, info = dpotrf(a, lower=0, clean=0, overwrite_a=1)
        return int(info)
    return int(found[1](_COL_MAJOR, b"U", n, a.ctypes.data, max(n, 1)))
