import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisyrf.estimator import GRAM_RTOL, svd_factors
from noisyrf.features import row_space_factor
from noisyrf.seeding import seed_stream
from noisyrf.spectral import (eigenfeature_matrix, empirical_covariance, fourier_basis,
                              make_spectrum, numerical_support, sample_covariates,
                              suggest_truncation, trace_and_rank)
from sampled_reference import kernel_eval


def poly_tail(p):
    # Euler-Maclaurin tail of sum i^-2 beyond p; error term far below 1e-12 here
    return 1.0 / p - 1.0 / (2.0 * p * p) + 1.0 / (6.0 * p ** 3)


class TestMakeSpectrum:
    def test_polynomial_values(self):
        sp = make_spectrum("polynomial", 4, gamma=2.0)
        np.testing.assert_allclose(sp.eigenvalues,
                                   [1.0, 0.25, 0.1111111111111111, 0.0625],
                                   rtol=0, atol=1e-15)

    def test_finite_rank_values(self):
        sp = make_spectrum("finite-rank", 5, d=2)
        np.testing.assert_array_equal(sp.eigenvalues, [1.0, 1.0, 0.0, 0.0, 0.0])

    def test_exponential_values(self):
        sp = make_spectrum("exponential", 3, omega1=2.0)
        np.testing.assert_allclose(sp.eigenvalues,
                                   [2 * math.exp(-1), 2 * math.exp(-2), 2 * math.exp(-3)])

    def test_divergent_decay_rejected(self):
        with pytest.raises(ValueError, match="gamma > 1"):
            make_spectrum("polynomial", 4, gamma=0.9)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            make_spectrum("polynomial", 4, gamma=2.0, omega1=0.0)

    @pytest.mark.parametrize("kind,param,value", [
        ("polynomial", "gamma", math.inf), ("polynomial", "gamma", math.nan),
        ("polynomial", "omega1", math.inf), ("exponential", "omega1", math.nan)])
    def test_non_finite_parameter_rejected(self, kind, param, value):
        # gamma = inf once gave a one-eigenvalue spectrum
        kwargs = {"gamma": 2.0, param: value}
        with pytest.raises(ValueError, match=f"{param} must be finite"):
            make_spectrum(kind, 4, **kwargs)

    def test_finite_rank_needs_valid_d(self):
        with pytest.raises(ValueError):
            make_spectrum("finite-rank", 5, d=6)
        with pytest.raises(ValueError):
            make_spectrum("finite-rank", 5, d=0)

    def test_custom_requires_sorted(self):
        with pytest.raises(ValueError):
            make_spectrum("custom", 3, eigenvalues=[0.1, 0.5, 0.2])

    @given(p=st.integers(1, 60), gamma=st.floats(1.01, 6.0), omega1=st.floats(0.01, 10.0))
    def test_invariants_polynomial(self, p, gamma, omega1):
        sp = make_spectrum("polynomial", p, gamma=gamma, omega1=omega1)
        vals = sp.eigenvalues
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 0)
        assert np.isfinite(vals.sum())

    @given(p=st.integers(1, 60), d=st.integers(1, 60))
    def test_invariants_finite_rank(self, p, d):
        if d > p:
            with pytest.raises(ValueError):
                make_spectrum("finite-rank", p, d=d)
            return
        sp = make_spectrum("finite-rank", p, d=d)
        assert np.count_nonzero(sp.eigenvalues) == d


class TestTraceAndRank:
    def test_simple(self):
        sp = make_spectrum("custom", 3, eigenvalues=[2.0, 1.0, 1.0])
        assert trace_and_rank(sp) == (4.0, 2.0)

    def test_flat(self):
        sp = make_spectrum("finite-rank", 7, d=7)
        assert trace_and_rank(sp) == (7.0, 7.0)

    def test_basel_partial_sum(self):
        sp = make_spectrum("polynomial", 10000, gamma=2.0)
        trace, _ = trace_and_rank(sp)
        oracle = math.fsum(1.0 / k ** 2 for k in range(1, 10001))
        assert trace == pytest.approx(oracle, rel=1e-13)
        assert trace == pytest.approx(math.pi ** 2 / 6, abs=2e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            trace_and_rank(make_spectrum("custom", 2, eigenvalues=[0.0, 0.0]))


class TestSuggestTruncation:
    def test_polynomial_gamma2(self):
        p = suggest_truncation("polynomial", gamma=2.0)
        assert p == 6079
        thresh = 1e-4 * (math.pi ** 2 / 6)
        assert poly_tail(p) <= thresh < poly_tail(p - 1)

    def test_exponential(self):
        # geometric tail fraction is exactly e^{-p}
        assert suggest_truncation("exponential") == 10

    def test_finite_rank(self):
        assert suggest_truncation("finite-rank", d=17) == 17


class TestCovariates:
    def test_fourier_in_unit_interval(self):
        x = sample_covariates("fourier", 3, seed_stream(1))
        assert x.shape == (3,)
        assert np.all((x >= 0) & (x < 1))

    def test_eigencoordinate_shape(self):
        g = sample_covariates("eigencoordinate", 5, seed_stream(7), p=4)
        assert g.shape == (5, 4)

    def test_same_seed_same_draw(self):
        a = sample_covariates("fourier", 10, seed_stream(3))
        b = sample_covariates("fourier", 10, seed_stream(3))
        np.testing.assert_array_equal(a, b)

    def test_eigencoordinate_mean_shrinks(self):
        g = sample_covariates("eigencoordinate", 20000, seed_stream(5), p=2)
        assert np.abs(g.mean(axis=0)).max() < 0.05


class TestEigenfeatures:
    def test_fourier_at_zero(self):
        sp = make_spectrum("custom", 3, eigenvalues=[1.0, 1.0, 1.0])
        np.testing.assert_allclose(eigenfeature_matrix(sp, "fourier", 0.0),
                                   [[1.0, math.sqrt(2), 0.0]], atol=1e-15)

    def test_eigencoordinate_scaling(self):
        sp = make_spectrum("custom", 2, eigenvalues=[4.0, 1.0])
        np.testing.assert_allclose(eigenfeature_matrix(sp, "eigencoordinate",
                                                       np.array([1.0, -1.0])),
                                   [[2.0, -1.0]])

    def test_fourier_orthonormality_monte_carlo(self):
        m = 100_000
        x = sample_covariates("fourier", m, seed_stream(11))
        E = fourier_basis(5, x)
        gram = E.T @ E / m
        tol = 5.0 / math.sqrt(m)
        np.testing.assert_allclose(gram, np.eye(5), atol=tol)

    def test_feature_second_moment_matches_spectrum(self):
        sp = make_spectrum("polynomial", 4, gamma=2.0)
        m = 100_000
        x = sample_covariates("fourier", m, seed_stream(13))
        phi = eigenfeature_matrix(sp, "fourier", x)
        second = phi.T @ phi / m
        se = 3.0 / math.sqrt(m)
        np.testing.assert_allclose(second, np.diag(sp.eigenvalues), atol=3 * se)


class TestKernel:
    def test_diagonal_nonnegative(self):
        sp = make_spectrum("polynomial", 6, gamma=2.0)
        for x in (0.0, 0.3, 0.77):
            assert kernel_eval(sp, "fourier", x, x) >= 0

    def test_constant_eigenfunction_only(self):
        sp = make_spectrum("custom", 4, eigenvalues=[1.0, 0.0, 0.0, 0.0])
        assert kernel_eval(sp, "fourier", 0.2, 0.9) == pytest.approx(1.0)

    def test_symmetry(self):
        sp = make_spectrum("exponential", 5)
        assert kernel_eval(sp, "fourier", 0.1, 0.6) == pytest.approx(
            kernel_eval(sp, "fourier", 0.6, 0.1), rel=1e-14)

    def test_gram_psd(self):
        sp = make_spectrum("polynomial", 8, gamma=2.0)
        x = sample_covariates("fourier", 5, seed_stream(17))
        K = kernel_eval(sp, "fourier", np.repeat(x, 5), np.tile(x, 5)).reshape(5, 5)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert np.linalg.eigvalsh(K).min() >= -1e-10


class TestNumericalSupport:
    @pytest.mark.parametrize("kind,p,params,support", [
        ("finite-rank", 40, {"d": 12}, 12),
        ("polynomial", 2000, {"gamma": 2.0}, 2000),
        # e^-(i-1) > p eps holds for i <= 32 at p = 60, and for both at p = 2
        ("exponential", 60, {}, 32), ("exponential", 2, {}, 2),
        ("polynomial", 2000, {"gamma": 8.0}, 34)])
    def test_counts_eigenvalues_above_p_eps_of_the_top(self, kind, p, params, support):
        sp = make_spectrum(kind, p, omega1=3.0, **params)
        assert numerical_support(sp) == support
        floor = p * np.finfo(float).eps * sp.eigenvalues[0]
        assert sp.eigenvalues[support - 1] > floor
        assert support == p or sp.eigenvalues[support] <= floor


class TestEmpiricalCovariance:
    def test_single_row(self):
        # one row: the only nonzero eigenvalue, the n x n Gram's
        np.testing.assert_allclose(empirical_covariance(np.array([[1.0, 0.0]])), [1.0],
                                   atol=1e-14)

    def test_orthogonal_rows(self):
        eigs = empirical_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(eigs, [0.5, 0.5], atol=1e-14)

    @pytest.mark.parametrize("n,dim", [(3, 7), (7, 7), (7, 3)])
    def test_min_n_dim_values_on_both_branches(self, n, dim):
        rows = seed_stream(23, n, dim).standard_normal((n, dim))
        eigs = empirical_covariance(rows)
        assert eigs.shape == (min(n, dim),)
        assert np.all(np.diff(eigs) <= 0) and eigs[-1] >= 0
        want = np.linalg.eigvalsh(rows.T @ rows / n)[::-1][:min(n, dim)]
        np.testing.assert_allclose(eigs, want, rtol=1e-12, atol=1e-12 * want[0])

    @pytest.mark.parametrize("n,dim", [(3, 7), (7, 3), (5, 5)])
    def test_rows_and_their_transpose_agree(self, n, dim):
        # rows^T rows and rows rows^T share their nonzero eigenvalues, so the
        # two branches agree once each is scaled back by its own row count
        rows = seed_stream(24, n, dim).standard_normal((n, dim))
        tall, wide = n * empirical_covariance(rows), dim * empirical_covariance(rows.T)
        np.testing.assert_allclose(tall, wide, rtol=1e-12, atol=1e-12 * tall[0])

    def test_rank_deficient_rows_clip_at_zero(self):
        rows = np.outer(seed_stream(25).standard_normal(6), np.ones(4))
        eigs = empirical_covariance(rows)
        assert eigs.shape == (4,) and np.all(eigs >= 0)
        assert eigs[0] == pytest.approx(float(np.sum(rows * rows)) / 6, rel=1e-12)

    def test_concentration_at_n2000(self):
        # calibrated: operator error below 0.15 in at least 95% of 200 seeds
        sp = make_spectrum("custom", 2, eigenvalues=[1.0, 0.25])
        hits = 0
        for seed in range(200):
            g = sample_covariates("eigencoordinate", 2000, seed_stream(seed, "cov"), p=2)
            phi = eigenfeature_matrix(sp, "eigencoordinate", g)
            emp = empirical_covariance(phi)
            M = (phi.T @ phi) / 2000
            err = np.linalg.norm(M - np.diag(sp.eigenvalues), 2)
            if err <= 0.15:
                hits += 1
            assert emp[0] == pytest.approx(np.linalg.eigvalsh(M)[-1], rel=1e-8)
        assert hits >= 190

    def test_error_decreasing_in_sample_size(self):
        sp = make_spectrum("custom", 2, eigenvalues=[1.0, 0.25])
        target = np.diag(sp.eigenvalues)
        medians = []
        for m in (500, 2000, 8000):
            errs = []
            for seed in range(50):
                g = sample_covariates("eigencoordinate", m, seed_stream(seed, "conv", m), p=2)
                phi = eigenfeature_matrix(sp, "eigencoordinate", g)
                errs.append(np.linalg.norm(phi.T @ phi / m - target, 2))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestWellConditioned:
    """The one certificate (`estimator.certified_gram_factor`) decides both
    wide factorizations of the rows: the design's (`svd_factors`) and phi's
    row basis (`row_space_factor`).  Where it passes, both take the Gram's
    Cholesky factor; where it refuses, both take their own fallbacks
    (LAPACK's SVD, the thin QR)."""

    # the Gram condition d_max / d_min at the certificate's edge, about 4.5e5
    EDGE = GRAM_RTOL / np.finfo(float).eps

    @classmethod
    def rows(cls, side, condition):
        """One 20 x 300 matrix, read as a design and as eigenfeature rows,
        with its Gram's eigenvalues geometric from 1 to 1 / (condition *
        EDGE)."""
        n, s = 20, 300
        rng = seed_stream(150, side)
        left = np.linalg.qr(rng.standard_normal((n, n)))[0]
        right = np.linalg.qr(rng.standard_normal((s, n)))[0]
        return (left * np.geomspace(1.0, (condition * cls.EDGE) ** -0.5, n)) @ right.T

    # on these geometric spectra ||G||_F ||G^-1||_F is about 1.35 d_max /
    # d_min, so the certificate refuses from about 0.74 EDGE on
    @pytest.mark.parametrize("side,condition", [("gram", 0.5), ("fallback", 0.9),
                                                ("fallback", 1.1)])
    def test_both_callers_take_the_same_side(self, linalg_calls, side, condition):
        rows = self.rows(side, condition)
        calls = linalg_calls("svd", "qr", "cholesky")
        assert svd_factors(rows).rank == 20
        row_space_factor(rows)
        fallback = int(side == "fallback")
        assert calls == {"cholesky": 2, "svd": fallback, "qr": fallback}
