import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh

from noisyrf.estimator import default_rtol, mnls_fit, projector_diag, ridge_fit
from noisyrf.seeding import seed_stream


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


class TestMnlsFit:
    def test_identity_design(self):
        fit = mnls_fit(np.eye(2), np.array([3.0, 5.0]))
        np.testing.assert_allclose(fit.beta, [3.0, 5.0], atol=1e-12)
        assert fit.rank == 2

    def test_min_norm_on_line(self):
        fit = mnls_fit(np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(fit.beta, [1.0, 1.0], atol=1e-12)

    def test_rank_deficient_tall(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        fit = mnls_fit(Z, np.array([1.0, 3.0]))
        np.testing.assert_allclose(fit.beta, [2.0, 0.0], atol=1e-12)
        fitted = Z @ fit.beta
        np.testing.assert_allclose(fitted, [2.0, 2.0], atol=1e-12)
        residual = fitted - np.array([1.0, 3.0])
        np.testing.assert_allclose(Z.T @ residual, 0.0, atol=1e-10)

    def test_all_zero_design(self):
        fit = mnls_fit(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(fit.beta, [0.0, 0.0])
        assert fit.rank == 0
        assert fit.residual_norm > 0
        assert not fit.interpolates

    def test_bad_rtol_rejected(self):
        with pytest.raises(ValueError):
            mnls_fit(np.eye(2), np.zeros(2), rtol=1.5)

    def test_fuzz_against_eigh_oracle(self):
        rng = seed_stream(101)
        for trial in range(200):
            n = int(rng.integers(1, 13))
            s = int(rng.integers(1, 13))
            Z = rng.standard_normal((n, s))
            if trial % 3 == 0 and min(n, s) > 1:
                Z[:, -1] = Z[:, 0]  # force rank deficiency
            Y = rng.standard_normal(n)
            fit = mnls_fit(Z, Y)
            np.testing.assert_allclose(fit.beta, min_norm_oracle(Z, Y),
                                       atol=1e-8, rtol=1e-8)

    def test_row_space_membership(self):
        rng = seed_stream(102)
        for _ in range(50):
            Z = rng.standard_normal((4, 9))
            Y = rng.standard_normal(4)
            fit = mnls_fit(Z, Y)
            proj = pinv_oracle(Z) @ (Z @ fit.beta)
            assert np.linalg.norm(fit.beta - proj) <= 1e-8 * max(np.linalg.norm(fit.beta), 1e-12)

    def test_interpolation_when_full_row_rank(self):
        rng = seed_stream(103)
        Z = rng.standard_normal((5, 11))
        Y = rng.standard_normal(5)
        fit = mnls_fit(Z, Y)
        assert np.linalg.norm(Z @ fit.beta - Y) <= 1e-8 * np.linalg.norm(Y)
        assert fit.interpolates

    def test_min_norm_dominance(self):
        rng = seed_stream(104)
        for _ in range(200):
            n, s = int(rng.integers(1, 6)), int(rng.integers(2, 10))
            Z = rng.standard_normal((n, s))
            Y = rng.standard_normal(n)
            fit = mnls_fit(Z, Y)
            null = (np.eye(s) - pinv_oracle(Z) @ Z) @ rng.standard_normal(s)
            other = fit.beta + null
            assert np.linalg.norm(other) >= np.linalg.norm(fit.beta) - 1e-10

    def test_default_rtol(self):
        assert default_rtol(100, 5000) == pytest.approx(1e-10 * 5000)


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
        np.testing.assert_allclose(beta, mnls_fit(Z, Y).beta, atol=1e-6)

    def test_monotone_approach_to_mnls(self):
        rng = seed_stream(112)
        Z = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        Y = rng.standard_normal(5)
        ref = mnls_fit(Z, Y).beta
        gaps = [np.linalg.norm(ridge_fit(Z, Y, lam) - ref)
                for lam in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_zero_lambda_singular_raises(self):
        Z = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="mnls"):
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
        fit = mnls_fit(Z, Y)
        np.testing.assert_allclose(Z @ fit.beta, Y, atol=1e-8 * np.linalg.norm(Y))

    def test_zero_beta(self):
        fit = mnls_fit(np.zeros((2, 3)), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(np.ones((5, 3)) @ fit.beta, np.zeros(5))

    @given(n=st.integers(1, 6), s=st.integers(1, 6), seed=st.integers(0, 1000))
    def test_residual_orthogonality_property(self, n, s, seed):
        rng = seed_stream(seed, "resid")
        Z = rng.standard_normal((n, s))
        Y = rng.standard_normal(n)
        fit = mnls_fit(Z, Y)
        resid = Z @ fit.beta - Y
        bound = 1e-8 * max(np.linalg.norm(Z) * np.linalg.norm(Y), 1e-12)
        assert np.linalg.norm(Z.T @ resid) <= bound
