"""The OpenBLAS copies numpy and scipy bundle, reached through ctypes.

numpy loads its own OpenBLAS (ILP64, libscipy_openblas64_) and scipy its own
(LP64, libscipy_openblas), each with its own thread pool.  `openblas` finds
the copies this process has loaded and `pin_blas` sets their thread counts
in a pool worker.  The rest run on numpy's copy, the pool whose gemms formed
the arrays they read, in those arrays' own memory:

- `blocked_cholesky_in_place` factors a Gram held in one triangle of a
  square buffer into the other, in fixed blocks, so that its leading
  blocks do not depend on the buffer's size;
- `cholesky_solve_in_place` solves with a leading block of that factor;
- `pack_upper`, `packed_cholesky_in_place` and `packed_cholesky_solve_in_place`
  copy a leading upper triangle into rectangular full packed storage (RFP;
  Gustavson et al., ACM TOMS 37(2), 2010), n (n + 1) / 2 doubles, and
  factor and solve there; `rfp_diagonal` finds the diagonal in it;
- `triangular_inverse_in_place` inverts a triangular factor.

They call the routines `numpy_routines` finds, one lookup over one symbol
table, run at its first call, never at import.  Where numpy's copy does not
export every symbol (numpy < 2 wheels, a source build on another BLAS) it
finds None, and no caller calls these: the unrealizable target forms no
Gram and takes its two Householder QRs (`risk._solve_unrealizable`), and
the one Cholesky helper of the other Grams, `estimator.cholesky_factor`,
inverts its factor by `np.linalg.inv`, so a design, phi's row basis and W's
complement frame take the routes they take on numpy's copy.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

# per copy, the symbol that sets its thread count and the one that reads it
_OPENBLAS_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                     ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))

_INT, _I64, _DBL, _PTR, _CHAR = (ctypes.c_int, ctypes.c_int64, ctypes.c_double,
                                 ctypes.c_void_p, ctypes.c_char)

# numpy's copy's routines, by name: (symbol, argtypes, restype).  lapack_int
# and blasint are 64 bits wide, cblas's enums int, and a LAPACKE routine
# returns its info.  LAPACKE: dpotrf(matrix_layout, uplo, n, a, lda),
# dtrtri(matrix_layout, uplo, diag, n, a, lda), and the RFP routines
# dtrttf(matrix_layout, transr, uplo, n, a, lda, arf), dpftrf(matrix_layout,
# transr, uplo, n, a) and dpftrs(matrix_layout, transr, uplo, n, nrhs, a, b,
# ldb).  cblas: dcopy(n, x, incx, y, incy), dsyrk(order, uplo, trans, n, k,
# alpha, a, lda, beta, c, ldc), dgemm(order, transa, transb, m, n, k, alpha,
# a, lda, b, ldb, beta, c, ldc), dtrsm(order, side, uplo, transa, diag, m, n,
# alpha, a, lda, b, ldb) and dtrsv(order, uplo, transa, diag, n, a, lda, x,
# incx)
_SYMBOLS = {
    "dpotrf": ("scipy_LAPACKE_dpotrf64_", (_INT, _CHAR, _I64, _PTR, _I64), _I64),
    "dtrtri": ("scipy_LAPACKE_dtrtri64_", (_INT, _CHAR, _CHAR, _I64, _PTR, _I64), _I64),
    "dtrttf": ("scipy_LAPACKE_dtrttf64_", (_INT, _CHAR, _CHAR, _I64, _PTR, _I64, _PTR), _I64),
    "dpftrf": ("scipy_LAPACKE_dpftrf64_", (_INT, _CHAR, _CHAR, _I64, _PTR), _I64),
    "dpftrs": ("scipy_LAPACKE_dpftrs64_", (_INT, _CHAR, _CHAR, _I64, _I64, _PTR, _PTR, _I64),
               _I64),
    "dcopy": ("scipy_cblas_dcopy64_", (_I64, _PTR, _I64, _PTR, _I64), None),
    "dsyrk": ("scipy_cblas_dsyrk64_", (_INT, _INT, _INT, _I64, _I64, _DBL, _PTR, _I64, _DBL,
                                       _PTR, _I64), None),
    "dgemm": ("scipy_cblas_dgemm64_", (_INT, _INT, _INT, _I64, _I64, _I64, _DBL, _PTR, _I64,
                                       _PTR, _I64, _DBL, _PTR, _I64), None),
    "dtrsm": ("scipy_cblas_dtrsm64_", (_INT, _INT, _INT, _INT, _INT, _I64, _I64, _DBL, _PTR,
                                       _I64, _PTR, _I64), None),
    "dtrsv": ("scipy_cblas_dtrsv64_", (_INT, _INT, _INT, _INT, _I64, _PTR, _I64, _PTR, _I64),
              None),
}
_COL_MAJOR = 102
# the tile of a blocked factor's diagonal blocks: OpenBLAS's dpotrf runs its
# threaded variant from order 64 on, whose rounding moves with the thread
# count, while its gemm, syrk and trsm split rows and columns among threads
# and sum each entry in one order
_DIAGONAL_TILE = 32
_NO_TRANS, _TRANS, _LOWER, _NON_UNIT, _RIGHT = 111, 112, 122, 131, 142

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
def numpy_routines() -> tuple | None:
    """(file name, {name: routine}) of the loaded OpenBLAS copy that exports
    every symbol of _SYMBOLS, numpy's, or None where none does.  Callers of
    this module's factors and solves take their numpy-only route on None."""
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)
        if all(hasattr(lib, symbol) for symbol, _, _ in _SYMBOLS.values()):
            found = {}
            for name, (symbol, argtypes, restype) in _SYMBOLS.items():
                routine = getattr(lib, symbol)
                routine.argtypes, routine.restype = list(argtypes), restype
                found[name] = routine
            return os.path.basename(path), found
    return None


def _routines() -> dict:
    found = numpy_routines()
    if found is None:
        raise RuntimeError("numpy's OpenBLAS copy does not export the routines blas calls; "
                           "check numpy_routines() first")
    return found[1]


def _check_in_place(a: np.ndarray, name: str) -> None:
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError(f"{name} needs a writable Fortran-ordered square float64 array")


def _check_leading(a: np.ndarray, n: int, name: str) -> None:
    if a.dtype != np.float64 or a.ndim != 2 or not a.flags.f_contiguous \
            or not 0 <= n <= min(a.shape):
        raise ValueError(f"{name} needs a Fortran-ordered float64 array with a leading "
                         f"{n} x {n} block")


def _check_vector(x: np.ndarray, n: int, name: str) -> None:
    if x.dtype != np.float64 or x.shape != (n,) or not x.flags.c_contiguous \
            or not x.flags.writeable:
        raise ValueError(f"{name} needs a writable contiguous float64 vector of {n} entries")


def blocked_cholesky_in_place(a: np.ndarray, block: int) -> int:
    """Factor the symmetric matrix H whose upper triangle a holds as
    H = L L^T, L written on and below a's diagonal, and return the order of
    the first leading minor found not positive definite, or 0.

    a is a writable, Fortran-ordered square float64 array.  The strict
    upper triangle is first mirrored below the diagonal, one dcopy per
    column by stride (a numpy slice assignment between the two triangles
    would copy its source first, since the two views overlap in extent).
    The factor is then left-looking in block x block tiles: block column j
    takes one dsyrk of its diagonal tile, a factor of that tile, then one
    dgemm and one dtrsm per tile below it.  Every call reads tiles of block
    columns up to j alone, in a shape set by the tile's block indices, so
    where a is whole blocks wide, L's leading k x k block, k a multiple of
    block, is to the bit that of any wider H with the same leading k x k
    block.  One dpotrf of the whole matrix is not: its leading block moves
    with the order it factors.  Each dgemm and dtrsm updates one tile, so
    no call grows with the buffer.  A diagonal tile is factored the same way
    in
    _DIAGONAL_TILE-wide tiles, each by one dpotrf, whose order then stays
    below the one at which OpenBLAS's dpotrf turns threaded, so L does not
    depend on the BLAS thread count either.

    On return a's strict upper triangle still holds H; its diagonal holds
    L's, so a caller that needs H's copies it first.  Where the return is
    k > 0, L's leading k - 1 columns are complete on their leading
    (k - 1) x (k - 1) block and the rest is unfinished; k < 0 where
    LAPACKE refuses an argument (a NaN in a diagonal tile gives -4).  Every
    call runs on numpy's OpenBLAS copy, on a's own memory.
    """
    _check_in_place(a, "blocked_cholesky_in_place")
    if block < 1:
        raise ValueError(f"block must be positive, got {block!r}")
    calls = _tile_calls(a)
    calls[0]()
    return _left_looking(calls, 0, a.shape[0], (block, min(block, _DIAGONAL_TILE)))


def _left_looking(calls, top_left: int, order: int, blocks: tuple) -> int:
    """The left-looking factor of `blocked_cholesky_in_place` over the
    order x order block at (top_left, top_left), in blocks[0] tiles, each
    diagonal tile in blocks[1:] tiles, or by one dpotrf where blocks has
    no more entries; returns the same info, counted from top_left."""
    _, syrk, potrf, gemm, trsm = calls
    size = blocks[0]
    for lo in range(0, order, size):
        w, d = min(size, order - lo), top_left + lo
        if lo:
            syrk(d, w, top_left, lo)
        info = _left_looking(calls, d, w, blocks[1:]) if blocks[1:] else potrf(d, w)
        if info:
            return info if info < 0 else lo + info
        for top in range(d + w, top_left + order, size):
            h = min(size, top_left + order - top)
            if lo:
                gemm(top, h, d, w, top_left, lo)
            trsm(top, h, d, w)
    return 0


def _tile_calls(a: np.ndarray) -> tuple:
    """(mirror, syrk, potrf, gemm, trsm) on tiles of a, addressed by row and
    column offsets, through numpy's OpenBLAS copy:

    - mirror(): a's strict upper triangle copied below its diagonal;
    - syrk(r, w, c, k): tril(a[r:r+w, r:r+w]) -= X X^T, X = a[r:r+w, c:c+k];
    - potrf(r, w): a[r:r+w, r:r+w]'s lower Cholesky factor in place, and
      LAPACK's info;
    - gemm(t, h, r, w, c, k): a[t:t+h, r:r+w] -= a[t:t+h, c:c+k]
      a[r:r+w, c:c+k]^T;
    - trsm(t, h, r, w): a[t:t+h, r:r+w] <- a[t:t+h, r:r+w] L^-T, L the
      lower triangle of a[r:r+w, r:r+w].
    """
    blas = _routines()
    n, base = a.shape[0], a.ctypes.data

    def at(i, j):
        return base + 8 * (i + j * n)

    def mirror():
        for k in range(n):
            blas["dcopy"](n - k - 1, at(k, k + 1), n, at(k + 1, k), 1)

    def syrk(r, w, c, k):
        blas["dsyrk"](_COL_MAJOR, _LOWER, _NO_TRANS, w, k, -1.0, at(r, c), n, 1.0, at(r, r), n)

    def factor(r, w):
        return int(blas["dpotrf"](_COL_MAJOR, b"L", w, at(r, r), n))

    def gemm(t, h, r, w, c, k):
        blas["dgemm"](_COL_MAJOR, _NO_TRANS, _TRANS, h, w, k, -1.0, at(t, c), n, at(r, c), n,
                      1.0, at(t, r), n)

    def trsm(t, h, r, w):
        blas["dtrsm"](_COL_MAJOR, _RIGHT, _LOWER, _TRANS, _NON_UNIT, h, w, 1.0, at(r, r), n,
                      at(t, r), n)

    return mirror, syrk, factor, gemm, trsm


def cholesky_solve_in_place(a: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """x <- (L L^T)^-1 x and return x, with L the lower triangle of a's
    leading n x n block: two dtrsv calls on numpy's OpenBLAS copy, reading a
    in place at its own leading dimension, so a's leading block of a
    `blocked_cholesky_in_place` factor serves without a copy.  a may be
    read-only; x is a writable contiguous float64 n-vector."""
    _check_leading(a, n, "cholesky_solve_in_place")
    _check_vector(x, n, "cholesky_solve_in_place")
    dtrsv = _routines()["dtrsv"]
    for trans in (_NO_TRANS, _TRANS):
        dtrsv(_COL_MAJOR, _LOWER, trans, _NON_UNIT, n, a.ctypes.data, a.shape[0],
              x.ctypes.data, 1)
    return x


def rfp_diagonal(n: int) -> np.ndarray:
    """The positions of an n x n matrix's diagonal in its RFP array
    (TRANSR 'N', UPLO 'U'), as `pack_upper` writes it.

    That array is column-major with k = n // 2 columns of n + 1 rows for
    even n, (n + 1) / 2 columns of n rows for odd n.  Column c holds the
    upper triangle's column k + c on its rows 0..k + c, and on its rows
    from k + 1 + c on the upper triangle's row c within its first k
    columns, from the diagonal on.  So diagonal entry i >= k sits at row i
    of column i - k, and entry i < k at row k + 1 + i of column i.
    """
    k = n // 2
    rows = n + 1 - n % 2
    i = np.arange(n)
    return np.where(i >= k, (i - k) * rows + i, i * rows + k + 1 + i)


def pack_upper(a: np.ndarray, n: int) -> np.ndarray:
    """The upper triangle of a's leading n x n block, diagonal included, as
    a new RFP array of n (n + 1) / 2 doubles (TRANSR 'N', UPLO 'U'; see
    `rfp_diagonal`): LAPACKE's dtrttf on numpy's OpenBLAS copy, reading a in
    place at its own leading dimension; a may be read-only."""
    _check_leading(a, n, "pack_upper")
    arf = np.empty(n * (n + 1) // 2)
    info = _routines()["dtrttf"](_COL_MAJOR, b"N", b"U", n, a.ctypes.data, max(a.shape[0], 1),
                              arf.ctypes.data)
    if info:
        raise ValueError(f"dtrttf refused its arguments (info {info})")
    return arf


def packed_cholesky_in_place(arf: np.ndarray, n: int) -> int:
    """Factor the n x n symmetric matrix held in the RFP array arf (TRANSR
    'N', UPLO 'U') as U^T U in place, and return LAPACK dpftrf's info: > 0
    where the leading minor of that order is not positive definite, < 0
    where LAPACKE refuses an argument.  It runs on numpy's OpenBLAS copy."""
    _check_vector(arf, n * (n + 1) // 2, "packed_cholesky_in_place")
    return int(_routines()["dpftrf"](_COL_MAJOR, b"N", b"U", n, arf.ctypes.data))


def packed_cholesky_solve_in_place(arf: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """x <- (U^T U)^-1 x and return x, with arf a `packed_cholesky_in_place`
    factor of order n: LAPACK's dpftrs on numpy's OpenBLAS copy."""
    _check_vector(arf, n * (n + 1) // 2, "packed_cholesky_solve_in_place")
    _check_vector(x, n, "packed_cholesky_solve_in_place")
    _routines()["dpftrs"](_COL_MAJOR, b"N", b"U", n, 1, arf.ctypes.data, x.ctypes.data,
                       max(n, 1))
    return x


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
    that triangle, 26-27 ms after this one or none).
    """
    _check_in_place(a, "triangular_inverse_in_place")
    n = a.shape[0]
    return int(_routines()["dtrtri"](_COL_MAJOR, b"U", b"N", n, a.ctypes.data, max(n, 1)))
