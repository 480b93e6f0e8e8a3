"""The blocked in-place Gram factor, its solve, the packed (RFP) factor and
the triangular inverse on numpy's OpenBLAS, and the routes their callers take
where numpy's copy does not export them."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from noisyrf import blas as blas_mod
from noisyrf.seeding import seed_stream


@pytest.fixture(params=["openblas"])
def backend(request):
    """Each test runs on numpy's OpenBLAS copy, the one backend (the test
    id names it), and is skipped where that copy does not export every
    routine blas calls."""
    if blas_mod.numpy_routines() is None:
        pytest.skip("no loaded OpenBLAS copy exports every ILP64 routine blas calls")
    return request.param


def spd(s, seed=0):
    """A well-conditioned s x s Gram and its np.linalg.cholesky factor."""
    X = seed_stream(seed, "spd", s).standard_normal((s + 40, s))
    H = X.T @ X
    return H, np.linalg.cholesky(H)


def test_lookup_finds_every_routine_in_numpy_s_copy(backend):
    # numpy's ILP64 copy, one of the copies loaded, exports the whole table
    name, routines = blas_mod.numpy_routines()
    assert name.startswith("libscipy_openblas64_")
    assert name in [lib for lib, _, _ in blas_mod.openblas()]
    assert set(routines) == set(blas_mod._SYMBOLS)


def test_without_the_routines_a_call_raises(monkeypatch):
    # every caller checks numpy_routines() first; a call that did not gets
    # an error, never a pointer into a missing library
    monkeypatch.setattr(blas_mod, "numpy_routines", lambda: None)
    with pytest.raises(RuntimeError, match="numpy_routines"):
        blas_mod.triangular_inverse_in_place(np.eye(3, order="F"))
    with pytest.raises(RuntimeError, match="numpy_routines"):
        blas_mod.blocked_cholesky_in_place(np.eye(3, order="F"), 2)


def blocked_factor_matches_numpy(s, block):
    # the lower triangle becomes L, numpy's lower factor, to 1e-12 of its
    # norm (entries near zero differ by rounding of the large ones); the
    # part above the diagonal, H's, is read and left as it was
    H, L = spd(s)
    a = H.copy(order="F")
    a[np.tril_indices(s, -1)] = np.nan
    above = np.triu(a, 1)
    assert blas_mod.blocked_cholesky_in_place(a, block) == 0
    assert np.linalg.norm(np.tril(a) - L) <= 1e-12 * np.linalg.norm(L)
    np.testing.assert_array_equal(np.triu(a, 1), above)


@pytest.mark.parametrize("s", [1, 255, 256, 257, 600])
def test_factor_matches_numpy_cholesky(backend, s):
    blocked_factor_matches_numpy(s, 256)


@pytest.mark.parametrize("block", [1, 7, 33])
@pytest.mark.parametrize("s", [1, 70, 257])
def test_factor_matches_numpy_cholesky_at_any_block(backend, s, block):
    blocked_factor_matches_numpy(s, block)


def test_indefinite_matrix_reports_its_minor(backend):
    # the leading 2 x 2 minor is positive definite, the 3 x 3 one is not:
    # in 2 x 2 blocks too, where the second tile's dpotrf stops at its
    # first order
    for block in (256, 2):
        a = np.asfortranarray(np.diag([4.0, 1.0, -1.0, 2.0]))
        assert blas_mod.blocked_cholesky_in_place(a, block) == 3
        np.testing.assert_array_equal(np.diag(a)[:2], [2.0, 1.0])


def test_blocked_factor_prefix_does_not_depend_on_the_pool_width(backend):
    # pools 256, 512 and 768 wide of one p = 600 draw: the 768 pool's Gram
    # has rank 600, so its factor stops past order 600, by design.  On
    # every order below where a factor stopped, the lower triangles are
    # identical to the bit.  Where a factor ran to the end it agrees with
    # np.linalg.cholesky: two backward-stable factors of H differ by about
    # eps sqrt(cond(H)) relative, so the leading 256 block (cond 2.9e5)
    # within 1e-13 and the 512 one (cond 1.4e7) within 2 eps sqrt(cond(H)),
    # 1.7e-12.  Past p the leading block's condition leaves only rounding
    # to compare
    from noisyrf.features import WEIGHT_BLOCK, sample_weights
    from noisyrf.risk import lambda_gram
    from noisyrf.spectral import make_spectrum

    p = 600
    lam = make_spectrum("polynomial", p, gamma=2.0).eigenvalues
    pool = sample_weights(p, 3 * WEIGHT_BLOCK, seed_stream(3, "pool"))
    factors, orders = [], []
    for width in (WEIGHT_BLOCK, 2 * WEIGHT_BLOCK, 3 * WEIGHT_BLOCK):
        a = lambda_gram(pool[:, :width], lam)
        upper = np.triu(a)
        info = blas_mod.blocked_cholesky_in_place(a, WEIGHT_BLOCK)
        factors.append((a, upper))
        orders.append(width if info == 0 else info - 1)
    assert orders[:2] == [WEIGHT_BLOCK, 2 * WEIGHT_BLOCK] and p <= orders[2] < 3 * WEIGHT_BLOCK
    for (narrow, upper), k in zip(factors, orders):
        for wide, _ in factors:
            if wide.shape[0] >= k:
                np.testing.assert_array_equal(np.tril(wide[:k, :k]), np.tril(narrow[:k, :k]))
        if k < narrow.shape[0]:
            continue
        H = upper + np.triu(upper, 1).T
        L = np.linalg.cholesky(H)
        rtol = 1e-13 if k == WEIGHT_BLOCK else \
            2 * np.finfo(float).eps * math.sqrt(np.linalg.cond(H))
        assert np.linalg.norm(np.tril(narrow) - L) <= rtol * np.linalg.norm(L)


def test_blocked_factor_does_not_depend_on_the_thread_count(tmp_path):
    # OpenBLAS's dpotrf runs a threaded variant from order 64 on, whose
    # rounding moves with the thread count; the blocked factor's diagonal
    # tiles are factored in 32-wide pieces, so one Gram factors to the same
    # bits on 1 and 2 threads, where a 256 tile once stopped at order 25 on
    # one and 26 on the other (a p = 24 pool)
    from noisyrf.features import WEIGHT_BLOCK, sample_weights
    from noisyrf.risk import lambda_gram
    from noisyrf.spectral import make_spectrum

    src = os.path.dirname(os.path.dirname(os.path.abspath(blas_mod.__file__)))
    for p in (24, 600):
        lam = make_spectrum("polynomial", p, gamma=2.0).eigenvalues
        np.save(tmp_path / f"gram{p}.npy",
                lambda_gram(sample_weights(p, 2 * WEIGHT_BLOCK, seed_stream(9, "t", p)), lam))
    code = ("import sys, numpy as np\n"
            "from noisyrf.blas import blocked_cholesky_in_place\n"
            "for p in (24, 600):\n"
            "    a = np.asfortranarray(np.load(sys.argv[1] + f'/gram{p}.npy'))\n"
            "    info = blocked_cholesky_in_place(a, 256)\n"
            "    np.save(sys.argv[1] + f'/factor{p}-{sys.argv[2]}.npy', a)\n"
            "    print(info)\n")
    infos = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path), threads],
                             capture_output=True, text=True, env=env, check=True, timeout=120)
        infos.append(out.stdout.split())
    # the p = 24 pool's factor stops past order 24, the p = 600 one runs to the end
    assert infos[0] == infos[1] and int(infos[0][0]) > 24 and infos[0][1] == "0"
    for p in (24, 600):
        np.testing.assert_array_equal(np.load(tmp_path / f"factor{p}-1.npy"),
                                      np.load(tmp_path / f"factor{p}-2.npy"))


@pytest.mark.parametrize("s", [1, 2, 255, 300])
def test_cholesky_solve_reads_a_leading_block(backend, s):
    # the leading s x s block of a wider factor, read-only, at its own
    # leading dimension; the solve overwrites x and returns it
    H, L = spd(s + 20, seed=4)
    a = np.asfortranarray(np.tril(L))
    a.flags.writeable = False
    b = seed_stream(4, "b", s).standard_normal(s)
    x = b.copy()
    assert blas_mod.cholesky_solve_in_place(a, s, x) is x
    want = np.linalg.solve(H[:s, :s], b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.cond(H[:s, :s]) * np.linalg.norm(want)


@pytest.mark.parametrize("s", [*range(1, 10), 256, 1001])
def test_rfp_diagonal_matches_dtrttf(backend, s):
    # a leading s x s block inside a wider buffer, its diagonal marked with
    # values no other entry takes: dtrttf puts each at rfp_diagonal's
    # position, and nothing else there
    a = np.asfortranarray(seed_stream(5, "rfp", s).random((s + 3, s + 2)))
    a[np.arange(s), np.arange(s)] = -1.0 - np.arange(s)
    arf = blas_mod.pack_upper(a, s)
    assert arf.shape == (s * (s + 1) // 2,)
    np.testing.assert_array_equal(arf[blas_mod.rfp_diagonal(s)], -1.0 - np.arange(s))
    assert np.sum(arf < 0) == s
    # the packed array holds the upper triangle and nothing else
    assert sorted(arf) == sorted(a[:s, :s][np.triu_indices(s)])


@pytest.mark.parametrize("s", [1, 2, 3, 256, 601])
def test_packed_factor_solves_like_numpy(backend, s):
    H, _ = spd(s, seed=6)
    a = np.asfortranarray(H)
    a[np.tril_indices(s, -1)] = np.nan
    arf = blas_mod.pack_upper(a, s)
    assert blas_mod.packed_cholesky_in_place(arf, s) == 0
    b = seed_stream(6, "b", s).standard_normal(s)
    x = b.copy()
    assert blas_mod.packed_cholesky_solve_in_place(arf, s, x) is x
    want = np.linalg.solve(H, b)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.cond(H) * np.linalg.norm(want)


def test_packed_factor_reports_its_minor(backend):
    a = np.asfortranarray(np.diag([4.0, 1.0, -1.0, 2.0]))
    assert blas_mod.packed_cholesky_in_place(blas_mod.pack_upper(a, 4), 4) == 3


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
        blas_mod.blocked_cholesky_in_place(a, 2)


@UNUSABLE
def test_triangular_inverse_refuses_what_it_cannot_invert_in_place(a):
    with pytest.raises(ValueError, match="Fortran-ordered square float64"):
        blas_mod.triangular_inverse_in_place(a)


def test_refuses_a_read_only_buffer():
    for routine in (lambda a: blas_mod.blocked_cholesky_in_place(a, 2),
                    blas_mod.triangular_inverse_in_place):
        a = np.eye(3, order="F")
        a.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            routine(a)


def test_reads_only_what_it_can_read_in_place():
    # ctypes passes raw pointers, so every shape is checked before a call:
    # a C-ordered or too small matrix, a vector of the wrong length, order
    # or mutability, and a packed array of the wrong length are refused
    a, x = np.eye(4, order="F"), np.ones(4)
    read_only = np.ones(4)
    read_only.flags.writeable = False
    for bad in (np.eye(4), np.eye(4, dtype=np.float32, order="F")):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            blas_mod.cholesky_solve_in_place(bad, 4, x)
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            blas_mod.pack_upper(bad, 4)
    with pytest.raises(ValueError, match="leading 5 x 5"):
        blas_mod.pack_upper(a, 5)
    for bad in (np.ones(3), np.ones(8)[::2], read_only):
        with pytest.raises(ValueError, match="contiguous float64 vector of 4"):
            blas_mod.cholesky_solve_in_place(a, 4, bad)
    with pytest.raises(ValueError, match="vector of 10"):
        blas_mod.packed_cholesky_in_place(np.ones(9), 4)
    with pytest.raises(ValueError, match="vector of 10"):
        blas_mod.packed_cholesky_solve_in_place(np.ones(9), 4, x)


def test_importing_the_package_looks_nothing_up():
    # the libraries and their routines are found by their first caller,
    # never at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(blas_mod.__file__)))
    code = ("import noisyrf\n"
            "from noisyrf import blas\n"
            "assert blas.numpy_routines.cache_info().currsize == 0\n"
            "assert blas.openblas.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("preset,overrides", [
    (None, {"n": 20, "p": 600, "s_grid": [6, 257, 520], "ensemble_replicates": 2,
            "master_seed": 5, "target_mode": "unrealizable"}),
    ("double-descent-default", {"ensemble_replicates": 2, "master_seed": 7}),
], ids=["unrealizable", "preset"])
def test_fallback_rows_match_the_primary_route(monkeypatch, backend, preset, overrides):
    # swept on numpy's OpenBLAS, then with the lookup finding nothing: no
    # Gram is formed for the unrealizable target, every unrealizable cell
    # takes its two QRs, the preset's Cholesky factors are inverted by
    # np.linalg.inv, and none of scipy's copies of the routines blas calls
    # runs.  The rows
    # agree to rounding: at most 7.0e-15 relative on the small grid,
    # 3.1e-13 on the preset.  The small grid's cells cross weight-block
    # edges, and its pool, 768 wide past p = 600, stops past order 600
    from scipy.linalg import lapack

    from noisyrf import risk
    from noisyrf.config import parse_config, preset_config
    from noisyrf.sweep import run_sweep

    cfg = parse_config(overrides) if preset is None else preset_config(preset, overrides)

    def rows():
        result = run_sweep(cfg)
        assert not result.errors
        return [[r.B, r.V, r.M, r.R] for r in result.records]

    def counting(module, attr, calls):
        real = getattr(module, attr)

        def call(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, call)

    primary = rows()
    monkeypatch.setattr(blas_mod, "numpy_routines", lambda: None)
    qrs, scipy_calls = {}, {}
    for attr in ("_qr_projection", "_ridge_fit"):
        counting(risk, attr, qrs)
    for attr in ("dpotrf", "dpftrf", "dtrttf", "dpftrs", "dtrtri"):
        counting(lapack, attr, scipy_calls)
    fallback = rows()
    cells = len(cfg.s_grid) * cfg.ensemble_replicates
    unrealizable = cfg.target_mode == "unrealizable"
    assert qrs == ({"_qr_projection": cells, "_ridge_fit": cells} if unrealizable else {})
    assert scipy_calls == {}
    np.testing.assert_allclose(fallback, primary, rtol=1e-10, atol=0)
