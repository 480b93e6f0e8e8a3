import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh

from noisyrf import estimator as estimator_mod
from noisyrf import sweep as sweep_mod
from noisyrf.config import preset_config
from noisyrf.estimator import default_rtol, projector_diag, ridge_fit, svd_factors
from noisyrf.seeding import seed_stream
from noisyrf.spectral import GRAM_RTOL
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
            assert f.rank == 0 and f.sv.shape == (0,)
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
        # n < s is factored through Z Z^T at full rank and as Z^T at rank 5;
        # the factors must still describe Z itself
        rng = seed_stream(120, rank or 0)
        n, s = 20, 300
        Z = rng.standard_normal((n, s))
        if rank is not None:
            Z = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, s))
        f = svd_factors(Z)
        assert f.U.shape == (n, f.rank) and f.V.shape == (s, f.rank)
        np.testing.assert_allclose((f.U * f.sv) @ f.V.T, Z, rtol=0, atol=1e-12 * f.sv[0])
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(f.rank), rtol=0, atol=1e-13)
        np.testing.assert_allclose(f.V.T @ f.V, np.eye(f.rank), rtol=0, atol=1e-13)
        tall = svd_factors(np.ascontiguousarray(Z.T))
        assert f.rank == tall.rank == (rank or n)
        np.testing.assert_allclose(f.sv, tall.sv, rtol=1e-13, atol=1e-13 * f.sv[0])
        assert np.all(np.diff(f.sv) <= 0)


def conditioned_design(n, s, cond, seed):
    """An n x s design with singular values spread geometrically from 1 to
    1 / cond, between random orthonormal bases."""
    rng = seed_stream(seed, "conditioned")
    left = np.linalg.qr(rng.standard_normal((n, n)))[0]
    right = np.linalg.qr(rng.standard_normal((s, n)))[0]
    return (left * np.geomspace(1.0, 1.0 / cond, n)) @ right.T


def invariant_forms(f, Y):
    """Z^+ Y, U Sigma^-2 U^T and V V^T: what the factors give whatever basis
    the factorization picked."""
    return f.apply_pinv(Y), (f.U / f.sv ** 2) @ f.U.T, f.V @ f.V.T


class _Captured(Exception):
    pass


def preset_design(monkeypatch, s, seed=7):
    """The design one replicate-0 cell of the double-descent preset fits."""
    def capture(ensemble, *args, **kwargs):
        raise _Captured(ensemble.design)

    cfg = preset_config("double-descent-default", {"master_seed": seed})
    with monkeypatch.context() as m:
        m.setattr(sweep_mod, "decompose", capture)
        with pytest.raises(_Captured) as exc:
            sweep_mod.compute_row(cfg, cfg.s_grid.index(s), 0)
    return exc.value.args[0]


class TestGramRoute:
    """A wide design is factored through its n x n Gram where eps d_max / d_min
    <= GRAM_RTOL; the error of every form read off the factors then grows
    like eps cond(Z)^2 = eps d_max / d_min, against eps cond(Z) for the SVD."""

    # cond(Z) 100 and 600 pass the switch (eps cond^2 = 2.2e-12 and 8.0e-11);
    # 700 and 1e4 fail it (1.1e-10 and 2.2e-8) and keep the SVD
    @pytest.mark.parametrize("cond,route", [(100.0, "gram"), (600.0, "gram"),
                                            (700.0, "svd"), (1e4, "svd")])
    def test_both_sides_of_the_switch_match_the_svd(self, linalg_calls, cond, route):
        n, s = 20, 300
        assert (EPS * cond ** 2 <= GRAM_RTOL) == (route == "gram")
        # the bound's error, eps cond^2 on the Gram side and eps cond on the
        # SVD side, with a factor 4 for the constants the bound leaves out
        tol = 4 * EPS * (cond ** 2 if route == "gram" else cond)
        for seed in range(3):
            Z = conditioned_design(n, s, cond, seed)
            Y = seed_stream(seed, "labels").standard_normal((n, 3))
            calls = linalg_calls("svd", "eigh")
            f = svd_factors(Z)
            assert calls == {"svd": int(route == "svd"), "eigh": 1}
            assert f.rank == n and f.U.shape == (n, n) and f.V.shape == (s, n)
            assert np.all(np.diff(f.sv) <= 0)
            ref = svd_reference(Z)
            for got, want in zip(invariant_forms(f, Y), invariant_forms(ref, Y)):
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
            np.testing.assert_allclose(f.sv, ref.sv, rtol=tol, atol=0)

    def test_preset_wide_cell_runs_no_svd(self, monkeypatch, linalg_calls):
        Z = preset_design(monkeypatch, 10000)
        calls = linalg_calls("svd")
        f = svd_factors(Z)
        assert calls == {"svd": 0} and f.rank == 100

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
        calls = linalg_calls("svd", "eigh")
        with pytest.raises(ValueError, match="design has a NaN or infinite entry"):
            svd_factors(Z)
        assert calls == {"svd": 0, "eigh": 0}


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
