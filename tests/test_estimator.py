import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh

from noisyrf import estimator as estimator_mod
from noisyrf import sweep as sweep_mod
from noisyrf.config import preset_config
from noisyrf.estimator import GRAM_RTOL, default_rtol, projector_diag, ridge_fit, svd_factors
from noisyrf.seeding import seed_stream
from sampled_reference import svd_reference

EPS = np.finfo(float).eps


def pinv_oracle(Z, tol=1e-11):
    """Independent pseudoinverse via eigendecomposition of the normal matrix.

    Deliberately avoids np.linalg.svd / lstsq / pinv so the production path is
    checked against a different factorization route.
    """
    A = Z.T @ Z
    w, V = eigh(A)
    top = w.max(initial=0.0)
    inv = np.where(w > tol * max(top, 1.0), 1.0 / np.where(w > 0, w, 1.0), 0.0)
    return (V * inv) @ V.T @ Z.T


def min_norm_oracle(Z, Y):
    return pinv_oracle(Z) @ Y


def fit(Z, Y):
    """The fit `risk.decompose` runs: the design's SVD factors applied to Y."""
    return svd_factors(Z).apply_pinv(Y)


def rank_deficient(rng, n, s, rank):
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, s))


class TestMnlsFit:
    def test_identity_design(self):
        f = svd_factors(np.eye(2))
        np.testing.assert_allclose(f.apply_pinv(np.array([3.0, 5.0])), [3.0, 5.0], atol=1e-12)
        assert f.rank == 2

    def test_min_norm_on_line(self):
        beta = fit(np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_tall(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        beta = fit(Z, np.array([1.0, 3.0]))
        np.testing.assert_allclose(beta, [2.0, 0.0], atol=1e-12)
        fitted = Z @ beta
        np.testing.assert_allclose(fitted, [2.0, 2.0], atol=1e-12)
        residual = fitted - np.array([1.0, 3.0])
        np.testing.assert_allclose(Z.T @ residual, 0.0, atol=1e-10)

    def test_all_zero_design(self):
        # rank 0 leaves empty factors, and the pseudoinverse of zero is zero,
        # tall or wide, for one label vector or several
        for n, s in ((3, 2), (2, 3)):
            f = svd_factors(np.zeros((n, s)))
            assert f.rank == 0 and f.Tinv.shape == (0, 0)
            np.testing.assert_array_equal(f.apply_pinv(np.arange(1.0, n + 1)), np.zeros(s))
            np.testing.assert_array_equal(f.apply_pinv(np.ones((n, 4))), np.zeros((s, 4)))

    def test_fuzz_against_eigh_oracle(self):
        rng = seed_stream(101)
        shapes = set()
        for trial in range(200):
            n = int(rng.integers(1, 13))
            s = int(rng.integers(1, 13))
            Z = rng.standard_normal((n, s))
            if trial % 3 == 0 and min(n, s) > 1:
                Z[:, -1] = Z[:, 0]  # force rank deficiency
            Y = rng.standard_normal(n)
            shapes.add("wide" if n < s else "tall" if n > s else "square")
            np.testing.assert_allclose(fit(Z, Y), min_norm_oracle(Z, Y),
                                       atol=1e-8, rtol=1e-8)
        # a wide design is factored through its Gram or its transpose: both
        # the wide and the tall branch ran
        assert {"tall", "wide"} <= shapes

    def test_row_space_membership(self):
        # wide designs, and tall ones of rank 3 < s, so that the row space is
        # a proper subspace on both branches
        rng = seed_stream(102)
        for _ in range(50):
            for Z in (rng.standard_normal((4, 9)), rank_deficient(rng, 9, 4, 3)):
                beta = fit(Z, rng.standard_normal(Z.shape[0]))
                proj = pinv_oracle(Z) @ (Z @ beta)
                assert np.linalg.norm(beta - proj) <= 1e-8 * max(np.linalg.norm(beta), 1e-12)

    def test_interpolation_when_full_row_rank(self):
        rng = seed_stream(103)
        Z = rng.standard_normal((5, 11))
        Y = rng.standard_normal(5)
        assert np.linalg.norm(Z @ fit(Z, Y) - Y) <= 1e-8 * np.linalg.norm(Y)

    def test_min_norm_dominance(self):
        # random designs, mostly wide, and tall ones of rank below s, so that
        # the tall branch meets a null space too
        rng = seed_stream(104)
        for _ in range(200):
            n, s = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            tall = rank_deficient(rng, s + n, s, int(rng.integers(1, s)))
            for Z in (rng.standard_normal((n, s)), tall):
                beta = fit(Z, rng.standard_normal(Z.shape[0]))
                null = (np.eye(s) - pinv_oracle(Z) @ Z) @ rng.standard_normal(s)
                assert np.linalg.norm(beta + null) >= np.linalg.norm(beta) - 1e-10

    def test_default_rtol(self):
        assert default_rtol(100, 5000) == pytest.approx(1e-10 * 5000)


class TestSvdFactors:
    @pytest.mark.parametrize("rank", [None, 5])
    def test_wide_design_through_its_gram_or_transpose(self, rank):
        # n < s is factored through Z Z^T's Cholesky factor at full rank and
        # as Z^T's SVD at rank 5; the factors must still describe Z itself
        rng = seed_stream(120, rank or 0)
        n, s = 20, 300
        Z = rng.standard_normal((n, s))
        if rank is not None:
            Z = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, s))
        f = svd_factors(Z)
        r = f.rank
        assert f.U.shape == (n, r) and f.V.shape == (s, r) and f.Tinv.shape == (r, r)
        scale = np.linalg.norm(Z, 2)
        np.testing.assert_allclose(f.U @ np.linalg.inv(f.Tinv) @ f.V.T, Z, rtol=0,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(r), rtol=0, atol=1e-13)
        np.testing.assert_allclose(f.V.T @ f.V, np.eye(r), rtol=0, atol=1e-13)
        if rank is None:
            # the Gram route: U = I and T = L, lower triangular with a
            # positive diagonal, and so is L^-1
            assert f.T is None
            np.testing.assert_array_equal(f.U, np.eye(n))
            assert not np.triu(f.Tinv, 1).any() and np.all(np.diagonal(f.Tinv) > 0)
        else:
            sv = np.diagonal(f.T)
            np.testing.assert_array_equal(f.T, np.diag(sv))
            assert np.all(np.diff(sv) <= 0)
            np.testing.assert_array_equal(f.Tinv, np.diag(1.0 / sv))
        # the transpose, tall, through its s x s Gram at full rank: V = I
        # and T = L^T, upper triangular
        tall = svd_factors(np.ascontiguousarray(Z.T))
        if rank is None:
            np.testing.assert_array_equal(tall.V, np.eye(n))
            assert not np.tril(tall.T, -1).any() and np.all(np.diagonal(tall.T) > 0)
        assert r == tall.rank == (rank or n)
        # Z^+ = ((Z^T)^+)^T, and V V^T projects on Z's rows as U U^T does
        # on Z^T's columns
        pinv = f.apply_pinv(np.eye(n))
        np.testing.assert_allclose(pinv, tall.apply_pinv(np.eye(s)).T, rtol=0,
                                   atol=1e-12 * np.linalg.norm(pinv, 2))
        np.testing.assert_allclose(f.V @ f.V.T, tall.U @ tall.U.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,s,rank,route", [(20, 300, None, "gram"), (300, 20, None, "gram"),
                                                (20, 300, 5, "svd"), (300, 20, 5, "svd"),
                                                (20, 20, None, "svd")])
    def test_qr_coords_locate_v_in_the_qr_basis_of_the_rows(self, linalg_calls, n, s, rank,
                                                            route):
        # V = Q B for Z^T = Q R with R's diagonal positive, on the Gram route
        # (wide or tall, full rank) and the SVD route (rank-deficient, square)
        rng = seed_stream(121, n, s, rank or 0)
        Z = rng.standard_normal((n, s))
        if rank is not None:
            Z = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, s))
        calls = linalg_calls("svd")
        f = svd_factors(Z)
        assert calls == {"svd": int(route == "svd")}
        B = f.qr_coords()
        r = f.rank
        assert B.shape == (r, r) and (f.T is None) == (route == "gram" and n < s)
        np.testing.assert_allclose(B.T @ B, np.eye(r), rtol=0, atol=1e-13)
        # Z^T's QR with R's diagonal made positive, restricted to the rank
        Q, R = np.linalg.qr(Z.T)
        Q = Q[:, :r] * np.sign(np.diagonal(R)[:r])
        np.testing.assert_allclose(f.V, Q @ B, rtol=0, atol=1e-12)


def conditioned_design(n, s, cond, seed):
    """An n x s design with singular values spread geometrically from 1 to
    1 / cond, between random orthonormal bases."""
    rng = seed_stream(seed, "conditioned")
    left = np.linalg.qr(rng.standard_normal((n, n)))[0]
    right = np.linalg.qr(rng.standard_normal((s, n)))[0]
    return (left * np.geomspace(1.0, 1.0 / cond, n)) @ right.T


def invariant_forms(f, Y):
    """Z^+ Y, (Z Z^T)^+ = U T^-T T^-1 U^T and V V^T: what the factors give
    whatever basis and triangle the factorization picked."""
    M = f.U @ f.Tinv.T
    return f.apply_pinv(Y), M @ M.T, f.V @ f.V.T


def gram_kappa(cond, n=20):
    """||G||_F ||G^-1||_F for conditioned_design's G = Z Z^T, whose
    eigenvalues are geometric from 1 to cond^-2."""
    d = np.geomspace(1.0, cond ** -2.0, n)
    return float(np.linalg.norm(d) * np.linalg.norm(1.0 / d))


class _Captured(Exception):
    pass


def preset_cell(monkeypatch, s, seed=7):
    """decompose's (args, kwargs) in one replicate-0 cell of the
    double-descent preset."""
    def capture(*args, **kwargs):
        raise _Captured(args, kwargs)

    cfg = preset_config("double-descent-default", {"master_seed": seed})
    with monkeypatch.context() as m:
        m.setattr(sweep_mod, "decompose", capture)
        with pytest.raises(_Captured) as exc:
            sweep_mod.compute_row(cfg, cfg.s_grid.index(s), 0)
    return exc.value.args


def preset_design(monkeypatch, s, seed=7):
    """The design one replicate-0 cell of the double-descent preset fits."""
    return preset_cell(monkeypatch, s, seed)[0][0].design


class TestGramRoute:
    """A design that is not square is factored through the Cholesky factor
    of its smaller Gram where eps ||G||_F ||G^-1||_F <= GRAM_RTOL; the error
    of every form read off the factors then grows like eps cond(Z)^2 =
    eps cond(G), against eps cond(Z) for the SVD."""

    # on these designs kappa = ||G||_F ||G^-1||_F is 1.17-1.61x cond(Z)^2:
    # cond(Z) 100 and 550 pass the switch (eps kappa = 3.6e-12 and 9.1e-11);
    # 700 and 1e4 fail it (1.5e-10 and 2.6e-8) and keep the SVD
    @pytest.mark.parametrize("cond,route", [(100.0, "gram"), (550.0, "gram"),
                                            (700.0, "svd"), (1e4, "svd")])
    def test_both_sides_of_the_switch_match_the_svd(self, linalg_calls, cond, route):
        n, s = 20, 300
        assert (EPS * gram_kappa(cond) <= GRAM_RTOL) == (route == "gram")
        # the bound's error, eps cond^2 on the Gram side and eps cond on the
        # SVD side, with a factor 4 for the constants the bound leaves out
        tol = 4 * EPS * (cond ** 2 if route == "gram" else cond)
        for seed in range(3):
            Z = conditioned_design(n, s, cond, seed)
            Y = seed_stream(seed, "labels").standard_normal((n, 3))
            calls = linalg_calls("svd", "cholesky")
            f = svd_factors(Z)
            assert calls == {"svd": int(route == "svd"), "cholesky": 1}
            assert f.rank == n and f.U.shape == (n, n) and f.V.shape == (s, n)
            assert (f.T is None) == (route == "gram")
            ref = svd_reference(Z)
            for got, want in zip(invariant_forms(f, Y), invariant_forms(ref, Y)):
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
            # ||T^-1||_F^2 = tr((Z Z^T)^-1), what the variance reads
            np.testing.assert_allclose(np.linalg.norm(f.Tinv), np.linalg.norm(ref.Tinv),
                                       rtol=tol, atol=0)

    @pytest.mark.parametrize("cond,route", [(100.0, "gram"), (550.0, "gram"),
                                            (700.0, "svd"), (1e4, "svd")])
    def test_tall_design_takes_the_same_switch(self, linalg_calls, cond, route):
        # the transposes of the designs above, 300 x 20: the s x s Gram
        # Z^T Z has the same condition, so the same bound and tolerance hold
        n, s = 300, 20
        tol = 4 * EPS * (cond ** 2 if route == "gram" else cond)
        for seed in range(3):
            Z = np.ascontiguousarray(conditioned_design(s, n, cond, seed).T)
            Y = seed_stream(seed, "labels").standard_normal((n, 3))
            calls = linalg_calls("svd", "cholesky")
            f = svd_factors(Z)
            assert calls == {"svd": int(route == "svd"), "cholesky": 1}
            assert f.rank == s and f.U.shape == (n, s) and f.V.shape == (s, s)
            ref = svd_reference(Z)
            for got, want in zip(invariant_forms(f, Y), invariant_forms(ref, Y)):
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
            np.testing.assert_allclose(np.linalg.norm(f.Tinv), np.linalg.norm(ref.Tinv),
                                       rtol=tol, atol=0)

    # G's condition as a multiple of the switch's edge GRAM_RTOL / eps,
    # about 4.5e5: two designs inside it, two past it
    @pytest.mark.parametrize("multiple", [0.3, 0.7, 1.5, 10.0])
    def test_certified_bound_is_at_least_the_gram_condition(self, multiple):
        n, s = 20, 300
        edge = GRAM_RTOL / EPS
        for seed in range(3):
            Z = conditioned_design(n, s, math.sqrt(multiple * edge), seed)
            sv = np.linalg.svd(Z, compute_uv=False)
            cond = float(sv[0] / sv[-1]) ** 2
            kappa, _, _ = estimator_mod._gram_factor(Z)
            # ||G||_F ||G^-1||_F <= n cond(G)
            assert cond <= kappa <= n * cond
            assert (svd_factors(Z).T is None) == (EPS * kappa <= GRAM_RTOL)
            if multiple > 1:
                assert svd_factors(Z).T is not None

    def test_preset_wide_cell_runs_no_svd(self, monkeypatch, linalg_calls):
        Z = preset_design(monkeypatch, 10000)
        calls = linalg_calls("svd", "cholesky", "eigh")
        f = svd_factors(Z)
        assert calls == {"svd": 0, "cholesky": 1, "eigh": 0} and f.rank == 100

    def test_preset_peak_cell_runs_the_svd(self, monkeypatch, linalg_calls):
        # s = n: the design is square and its condition reaches 1e3-1e5
        Z = preset_design(monkeypatch, 100)
        calls = linalg_calls("svd")
        svd_factors(Z)
        assert calls == {"svd": 1}

    def test_rank_deficient_wide_design_runs_the_svd(self, linalg_calls):
        # the Gram of a rank-5 design has 15 eigenvalues at rounding level
        Z = rank_deficient(seed_stream(140), 20, 300, 5)
        calls = linalg_calls("svd")
        f = svd_factors(Z)
        assert calls == {"svd": 1} and f.rank == 5

    def test_cutoff_that_would_drop_a_direction_keeps_the_svd(self, monkeypatch,
                                                              linalg_calls):
        # cond 10 passes the Gram bound, but a cutoff rtol = 0.5 cuts the
        # singular values below half the top one, which only the SVD route drops
        Z = conditioned_design(20, 300, 10.0, 141)
        monkeypatch.setattr(estimator_mod, "default_rtol", lambda n, s: 0.5)
        calls = linalg_calls("svd")
        f = svd_factors(Z)
        assert calls == {"svd": 1}
        assert f.rank == int(np.count_nonzero(np.geomspace(1.0, 0.1, 20) > 0.5))

    @pytest.mark.parametrize("shape", [(20, 300), (300, 20)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_refused_by_name(self, linalg_calls, shape, bad):
        # a NaN design failed in LAPACK with "SVD did not converge"; neither
        # route reaches a factorization
        Z = seed_stream(142).standard_normal(shape)
        Z[3, 7] = bad
        calls = linalg_calls("svd", "cholesky")
        with pytest.raises(ValueError, match="design has a NaN or infinite entry"):
            svd_factors(Z)
        assert calls == {"svd": 0, "cholesky": 0}

    def test_route_calls_no_scipy_lapack(self, monkeypatch, scipy_lapack_refused):
        # every step runs on numpy's OpenBLAS: no scipy LAPACK entry point
        # runs through a preset row-space cell's whole split and a wide
        # design's factors
        from noisyrf import risk as risk_mod

        args, kwargs = preset_cell(monkeypatch, 1000)
        scipy_lapack_refused()
        assert svd_factors(conditioned_design(20, 300, 10.0, 143)).T is None
        assert svd_factors(conditioned_design(20, 300, 10.0, 143).T).T is not None
        assert risk_mod.decompose(*args, **kwargs).rank == 100


class TestRidgeFit:
    def test_hand_solved_2x2(self):
        # n = s = 2, lambda chosen so the normal-equation shift n*lambda*s = 1
        beta = ridge_fit(np.eye(2), np.array([1.0, 0.0]), 1.0 / 4.0)
        np.testing.assert_allclose(beta, [0.5, 0.0], atol=1e-12)

    def test_shrinks_with_lambda(self):
        rng = seed_stream(110)
        Z = rng.standard_normal((6, 4))
        Y = rng.standard_normal(6)
        norms = [np.linalg.norm(ridge_fit(Z, Y, lam))
                 for lam in (1e-3, 1e-1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_matches_mnls_at_tiny_lambda(self):
        rng = seed_stream(111)
        Z = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        Y = rng.standard_normal(4)
        beta = ridge_fit(Z, Y, 1e-12)
        np.testing.assert_allclose(beta, fit(Z, Y), atol=1e-6)

    def test_monotone_approach_to_mnls(self):
        rng = seed_stream(112)
        Z = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        Y = rng.standard_normal(5)
        ref = fit(Z, Y)
        gaps = [np.linalg.norm(ridge_fit(Z, Y, lam) - ref)
                for lam in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_zero_lambda_singular_raises(self):
        Z = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="apply_pinv"):
            ridge_fit(Z, np.array([1.0, 2.0]), 0.0)

    def test_zero_lambda_full_rank_ok(self):
        beta = ridge_fit(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(beta, [1.0, 2.0, 3.0], atol=1e-12)


class TestProjector:
    def test_identity_design(self):
        diag = projector_diag(np.eye(3))
        assert diag.pi_norm <= 1e-8
        assert diag.null_dim == 0

    def test_wide_rank_one(self):
        diag = projector_diag(np.array([[1.0, 1.0]]))
        assert diag.pi_norm == pytest.approx(1.0)
        assert diag.null_dim == 1

    def test_fuzz_idempotency(self):
        rng = seed_stream(120)
        for _ in range(100):
            n, s = int(rng.integers(1, 7)), int(rng.integers(2, 12))
            Z = rng.standard_normal((n, s))
            diag = projector_diag(Z)
            assert diag.idempotency_defect <= 1e-8
            assert diag.pi_norm <= 1 + 1e-8
            if s > n:
                assert diag.pi_norm == pytest.approx(1.0)

    def test_explicit_projector_algebra(self):
        # Pi = Z+Z - I; check Pi^2 + Pi = 0 against a dense construction
        rng = seed_stream(121)
        Z = rng.standard_normal((3, 8))
        Pi = pinv_oracle(Z) @ Z - np.eye(8)
        assert np.linalg.norm(Pi @ Pi + Pi, 2) <= 1e-10
        diag = projector_diag(Z)
        assert diag.pi_norm == pytest.approx(np.linalg.norm(Pi, 2), abs=1e-9)


class TestPredict:
    def test_training_interpolation(self):
        rng = seed_stream(130)
        Z = rng.standard_normal((6, 14))
        Y = rng.standard_normal(6)
        np.testing.assert_allclose(Z @ fit(Z, Y), Y, atol=1e-8 * np.linalg.norm(Y))

    def test_zero_beta(self):
        beta = fit(np.zeros((2, 3)), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(np.ones((5, 3)) @ beta, np.zeros(5))

    @given(n=st.integers(1, 6), s=st.integers(1, 6), seed=st.integers(0, 1000))
    def test_residual_orthogonality_property(self, n, s, seed):
        # Z and its transpose: one tall and one wide design unless n = s
        rng = seed_stream(seed, "resid")
        Z = rng.standard_normal((n, s))
        for design in (Z, Z.T):
            Y = rng.standard_normal(design.shape[0])
            resid = design @ fit(design, Y) - Y
            bound = 1e-8 * max(np.linalg.norm(design) * np.linalg.norm(Y), 1e-12)
            assert np.linalg.norm(design.T @ resid) <= bound
