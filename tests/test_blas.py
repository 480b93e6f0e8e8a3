"""The in-place Gram factor and triangular inverse on numpy's OpenBLAS, and
their scipy fallbacks."""

import os
import subprocess
import sys

import numpy as np
import pytest

from noisyrf import blas as blas_mod
from noisyrf.seeding import seed_stream


@pytest.fixture(params=["openblas", "scipy"])
def backend(request, monkeypatch):
    """Each test runs on numpy's OpenBLAS, then with the lookups finding
    nothing, on scipy's dpotrf and dtrtri."""
    if request.param == "scipy":
        monkeypatch.setattr(blas_mod, "_lapacke_dpotrf", lambda: None)
        monkeypatch.setattr(blas_mod, "_lapacke_dtrtri", lambda: None)
    elif blas_mod._lapacke_dpotrf() is None or blas_mod._lapacke_dtrtri() is None:
        pytest.skip("no loaded OpenBLAS copy exports LAPACKE's ILP64 dpotrf and dtrtri")
    return request.param


def test_backend_names_the_library_or_scipy(backend):
    name = blas_mod.factor_backend()
    if backend == "scipy":
        assert name == "scipy"
    else:
        assert name.startswith("libscipy_openblas64_")
        assert name in [lib for lib, _, _ in blas_mod.openblas()]


@pytest.mark.parametrize("s", [1, 255, 256, 257, 600])
def test_factor_matches_numpy_cholesky(backend, s):
    # the upper triangle becomes L^T, L numpy's lower factor, to 1e-12 of
    # its norm (entries near zero differ by rounding of the large ones);
    # the part below the diagonal is neither read nor written
    X = seed_stream(0, "spd", s).standard_normal((s + 40, s))
    H = X.T @ X
    a = H.copy(order="F")
    below = np.tril_indices(s, -1)
    a[below] = np.nan
    assert blas_mod.cholesky_in_place(a) == 0
    want = np.linalg.cholesky(H).T
    assert np.linalg.norm(np.triu(a) - want) <= 1e-12 * np.linalg.norm(want)
    assert np.isnan(a[below]).all()


def test_indefinite_matrix_reports_its_minor(backend):
    # the leading 2 x 2 minor is positive definite, the 3 x 3 one is not
    a = np.asfortranarray(np.diag([4.0, 1.0, -1.0, 2.0]))
    assert blas_mod.cholesky_in_place(a) == 3


@pytest.mark.parametrize("s", [1, 100, 201, 600])
def test_triangular_inverse_matches_numpy_inv(backend, s):
    # the upper triangle becomes its inverse, to 1e-12 of its norm times
    # the triangle's condition; the part below the diagonal is neither read
    # nor written
    X = seed_stream(1, "tri", s).standard_normal((s + 40, s))
    T = np.linalg.cholesky(X.T @ X).T
    a = np.array(T, order="F")
    below = np.tril_indices(s, -1)
    a[below] = np.nan
    assert blas_mod.triangular_inverse_in_place(a) == 0
    want = np.linalg.inv(T)
    assert np.isnan(a[below]).all()
    assert np.linalg.norm(np.triu(a) - want) <= 1e-12 * np.linalg.cond(T) * np.linalg.norm(want)


def test_triangular_inverse_reports_a_zero_diagonal(backend):
    a = np.asfortranarray(np.triu(np.ones((4, 4))))
    a[2, 2] = 0.0
    assert blas_mod.triangular_inverse_in_place(a) == 3


UNUSABLE = pytest.mark.parametrize(
    "a", [np.eye(3), np.eye(3, dtype=np.float32, order="F"), np.eye(4, order="F")[:3, :3],
          np.ones((3, 4), order="F")],
    ids=["c-order", "float32", "strided", "not-square"])


@UNUSABLE
def test_refuses_what_it_cannot_factor_in_place(a):
    with pytest.raises(ValueError, match="Fortran-ordered square float64"):
        blas_mod.cholesky_in_place(a)


@UNUSABLE
def test_triangular_inverse_refuses_what_it_cannot_invert_in_place(a):
    with pytest.raises(ValueError, match="Fortran-ordered square float64"):
        blas_mod.triangular_inverse_in_place(a)


def test_refuses_a_read_only_buffer():
    for routine in (blas_mod.cholesky_in_place, blas_mod.triangular_inverse_in_place):
        a = np.eye(3, order="F")
        a.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            routine(a)


def test_importing_the_package_looks_nothing_up():
    # the libraries and dpotrf are found by their first caller, never at
    # import
    src = os.path.dirname(os.path.dirname(os.path.abspath(blas_mod.__file__)))
    code = ("import noisyrf\n"
            "from noisyrf import blas\n"
            "assert blas._lapacke_dpotrf.cache_info().currsize == 0\n"
            "assert blas._lapacke_dtrtri.cache_info().currsize == 0\n"
            "assert blas.openblas.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=src))


def test_scipy_fallback_rows_match_the_primary_route(monkeypatch):
    # a small unrealizable grid whose cells cross weight-block edges, swept
    # on numpy's OpenBLAS and again with the lookup finding nothing: scipy's
    # dpotrf factors the same buffers, on another pool, and the rows agree
    # to rounding
    from scipy.linalg import lapack

    from noisyrf.config import parse_config
    from noisyrf.sweep import run_sweep

    cfg = parse_config({"n": 20, "p": 600, "s_grid": [6, 257, 520], "ensemble_replicates": 2,
                        "master_seed": 5, "target_mode": "unrealizable"})

    def rows():
        result = run_sweep(cfg)
        assert not result.errors
        return [[r.B, r.V, r.M, r.R] for r in result.records]

    primary = rows()
    monkeypatch.setattr(blas_mod, "_lapacke_dpotrf", lambda: None)
    calls, real = [], lapack.dpotrf
    monkeypatch.setattr(lapack, "dpotrf", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert blas_mod.factor_backend() == "scipy"
    fallback = rows()
    # H's factor and G's in each of the 6 cells
    assert len(calls) == 2 * 6
    np.testing.assert_allclose(fallback, primary, rtol=1e-12, atol=0)
