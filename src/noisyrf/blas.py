"""The OpenBLAS copies numpy and scipy bundle, reached through ctypes.

numpy loads its own OpenBLAS (ILP64, libscipy_openblas64_) and scipy its own
(LP64, libscipy_openblas), each with its own thread pool.  `openblas` finds
the copies this process has loaded, `pin_blas` sets their thread counts in a
pool worker, `cholesky_in_place` factors a Gram in place on numpy's copy,
the one whose gemm formed it, and `triangular_inverse_in_place` inverts a
triangular factor there.  Every lookup runs at its first call, never at
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

# LAPACKE's dpotrf and dtrtri in numpy's copy, lapack_int 64 bits wide:
# dpotrf(int matrix_layout, char uplo, lapack_int n, double *a, lapack_int lda)
# and dtrtri(int matrix_layout, char uplo, char diag, lapack_int n, double *a,
# lapack_int lda)
_DPOTRF = ("scipy_LAPACKE_dpotrf64_", (ctypes.c_int, ctypes.c_char, ctypes.c_int64,
                                       ctypes.c_void_p, ctypes.c_int64))
_DTRTRI = ("scipy_LAPACKE_dtrtri64_", (ctypes.c_int, ctypes.c_char, ctypes.c_char,
                                       ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64))
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


def _lapacke(symbol: str, argtypes: tuple) -> tuple | None:
    """(file name, routine) of the loaded OpenBLAS copy that exports the
    LAPACKE symbol, numpy's, or None where none does."""
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)
        if hasattr(lib, symbol):
            routine = getattr(lib, symbol)
            routine.argtypes, routine.restype = list(argtypes), ctypes.c_int64
            return os.path.basename(path), routine
    return None


@functools.lru_cache(maxsize=1)
def _lapacke_dpotrf() -> tuple | None:
    """(file name, dpotrf) of numpy's OpenBLAS copy, or None where no
    loaded copy exports LAPACKE's ILP64 dpotrf."""
    return _lapacke(*_DPOTRF)


@functools.lru_cache(maxsize=1)
def _lapacke_dtrtri() -> tuple | None:
    """(file name, dtrtri) of numpy's OpenBLAS copy, or None where no
    loaded copy exports LAPACKE's ILP64 dtrtri."""
    return _lapacke(*_DTRTRI)


def _check_in_place(a: np.ndarray, name: str) -> None:
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError(f"{name} needs a writable Fortran-ordered square float64 array")


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
    _check_in_place(a, "cholesky_in_place")
    n = a.shape[0]
    found = _lapacke_dpotrf()
    if found is None:
        from scipy.linalg.lapack import dpotrf

        # f2py hands a Fortran-ordered float64 array to LAPACK as it is, so
        # the factor is written into a
        _, info = dpotrf(a, lower=0, clean=0, overwrite_a=1)
        return int(info)
    return int(found[1](_COL_MAJOR, b"U", n, a.ctypes.data, max(n, 1)))


def triangular_inverse_in_place(a: np.ndarray) -> int:
    """Overwrite the upper triangle of a with its inverse and return LAPACK
    dtrtri's info.

    a is a writable, Fortran-ordered square float64 array whose upper
    triangle holds a triangle with a nonzero diagonal; the part below the
    diagonal is neither read nor written.  info > 0 where that diagonal
    entry is exactly zero (a is then unchanged), info < 0 where LAPACKE
    refuses an argument.  dtrtri runs on numpy's OpenBLAS copy, in a's own
    memory, for n^3 / 3 flops: `np.linalg.inv` takes an LU of a copy
    (1.6 ms against 0.3 ms on a 201 x 201 triangle, 2 vCPUs), and scipy's
    own copy keeps its BLAS threads busy into numpy's next gemms (twenty
    2000 x 201 by 201 x 201 products took 56 ms after scipy's dtrtri of
    that triangle, 26-27 ms after this one or none).  Where numpy's copy
    or its symbol is missing, scipy's dtrtri overwrites a instead.
    """
    _check_in_place(a, "triangular_inverse_in_place")
    n = a.shape[0]
    found = _lapacke_dtrtri()
    if found is None:
        from scipy.linalg.lapack import dtrtri

        _, info = dtrtri(a, lower=0, unitdiag=0, overwrite_c=1)
        return int(info)
    return int(found[1](_COL_MAJOR, b"U", b"N", n, a.ctypes.data, max(n, 1)))
