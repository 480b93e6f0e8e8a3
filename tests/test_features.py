import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisyrf import blas as blas_mod
from noisyrf import features as features_mod
from noisyrf.estimator import GRAM_RTOL
from noisyrf.features import (WEIGHT_BLOCK, build_ensemble, make_noise_spec,
                              noise_matrix, row_space_factor, sample_weights)
from noisyrf.seeding import seed_sequence, seed_stream
from noisyrf.spectral import eigenfeature_matrix, make_spectrum, sample_covariates
from sampled_reference import kernel_eval


class TestSampleWeights:
    def test_determinism(self):
        a = sample_weights(2, 3, seed_stream(42))
        b = sample_weights(2, 3, seed_stream(42))
        np.testing.assert_array_equal(a, b)

    def test_shape_and_moments(self):
        W = sample_weights(200, 200, seed_stream(0))
        assert W.shape == (200, 200)
        assert 0.96 <= W.var() <= 1.04
        assert abs(W.mean()) <= 4.0 / math.sqrt(200 * 200)

    def test_column_covariance(self):
        W = sample_weights(5, 10_000, seed_stream(1))
        C = W @ W.T / 10_000
        np.testing.assert_allclose(C, np.eye(5), atol=4.0 / math.sqrt(10_000))

    @given(p=st.integers(1, 8), s=st.integers(1, 8), seed=st.integers(0, 50))
    def test_stream_determinism(self, p, s, seed):
        a = sample_weights(p, s, seed_stream(seed))
        b = sample_weights(p, s, seed_stream(seed))
        np.testing.assert_array_equal(a, b)

    def test_block_j_comes_from_child_j(self):
        s = 2 * WEIGHT_BLOCK + 5
        W = sample_weights(3, s, seed_stream(9))
        assert W.flags.f_contiguous
        children = seed_sequence(9).spawn(3)
        for j, child in enumerate(children):
            block = W[:, j * WEIGHT_BLOCK:(j + 1) * WEIGHT_BLOCK]
            # an F-ordered block is filled in memory order, column by column
            want = np.random.default_rng(child).standard_normal(block.shape[::-1]).T
            np.testing.assert_array_equal(block, want)

    @pytest.mark.parametrize("s", [1, WEIGHT_BLOCK - 1, WEIGHT_BLOCK, WEIGHT_BLOCK + 1,
                                   3 * WEIGHT_BLOCK - 2])
    def test_narrow_draw_is_a_prefix_of_a_wide_one(self, s):
        # an unrealizable replicate's cells read the first s columns of one
        # p x S pool; each must be the draw of p x s from the same stream, bit
        # for bit, on either side of a block edge and one short of S
        S = 3 * WEIGHT_BLOCK - 1
        wide = sample_weights(7, S, seed_stream(11, "pool"))
        narrow = sample_weights(7, s, seed_stream(11, "pool"))
        assert wide[:, :s].flags.f_contiguous
        np.testing.assert_array_equal(narrow, wide[:, :s])


class TestFeatureMatrix:
    def test_single_feature_reduction(self):
        sp = make_spectrum("custom", 3, eigenvalues=[1.0, 0.5, 0.25])
        W = sample_weights(3, 1, seed_stream(5))
        x = sample_covariates("eigencoordinate", 4, seed_stream(6), p=3)
        Z = build_ensemble(sp, "eigencoordinate",
                           eigenfeature_matrix(sp, "eigencoordinate", x), W).Z
        phi = eigenfeature_matrix(sp, "eigencoordinate", x)
        np.testing.assert_allclose(Z, phi @ W, rtol=1e-14)

    def test_dimension_mismatch(self):
        sp = make_spectrum("custom", 3, eigenvalues=[1.0, 0.5, 0.25])
        W = sample_weights(4, 2, seed_stream(5))
        x = sample_covariates("eigencoordinate", 4, seed_stream(6), p=3)
        with pytest.raises(ValueError):
            build_ensemble(sp, "eigencoordinate", eigenfeature_matrix(sp, "eigencoordinate", x),
                           W)

    def test_kernel_consistency_monte_carlo(self):
        # E_W[(Z Z^T)_{12}] equals the kernel value between the two points
        sp = make_spectrum("polynomial", 6, gamma=2.0)
        x = np.array([0.15, 0.7])
        want = kernel_eval(sp, "fourier", x[0], x[1])
        rng = seed_stream(9)
        vals = np.empty(2000)
        for i in range(2000):
            W = sample_weights(6, 20, rng)
            Z = build_ensemble(sp, "fourier", eigenfeature_matrix(sp, "fourier", x), W).Z
            vals[i] = Z[0] @ Z[1]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - want) <= 3 * se

    def test_scale_invariance_in_s(self):
        sp = make_spectrum("polynomial", 5, gamma=2.0)
        x = np.array([0.3, 0.8])
        rng = seed_stream(10)
        means, ses = [], []
        for s in (50, 100):
            vals = np.empty(1500)
            for i in range(1500):
                W = sample_weights(5, s, rng)
                Z = build_ensemble(sp, "fourier", eigenfeature_matrix(sp, "fourier", x), W).Z
                vals[i] = Z[0] @ Z[1]
            means.append(vals.mean())
            ses.append(vals.std(ddof=1) / math.sqrt(vals.size))
        joint = math.hypot(ses[0], ses[1])
        assert abs(means[0] - means[1]) <= 3 * joint

    def test_error_scales_like_inverse_sqrt_resamples(self):
        sp = make_spectrum("custom", 4, eigenvalues=[1.0, 0.5, 0.25, 0.125])
        x = np.array([0.2, 0.55])
        want = kernel_eval(sp, "fourier", x[0], x[1])
        rng = seed_stream(12)

        def mean_abs_err(resamples, batches=20):
            errs = []
            for _ in range(batches):
                vals = np.empty(resamples)
                for i in range(resamples):
                    W = sample_weights(4, 10, rng)
                    Z = build_ensemble(sp, "fourier", eigenfeature_matrix(sp, "fourier", x), W).Z
                    vals[i] = Z[0] @ Z[1]
                errs.append(abs(vals.mean() - want))
            return float(np.mean(errs))

        e_small = mean_abs_err(125)
        e_big = mean_abs_err(2000)
        expected_ratio = math.sqrt(2000 / 125)
        assert expected_ratio / 2 <= e_small / e_big <= expected_ratio * 2


class TestNoiseSpec:
    def test_alpha_zero(self):
        spec = make_noise_spec("gaussian", 0.0, 100)
        assert spec.sigma0_sq == 1.0
        assert spec.entry_variance == pytest.approx(0.01)

    def test_alpha_one(self):
        spec = make_noise_spec("gaussian", 1.0, 100)
        assert spec.sigma0_sq == pytest.approx(0.01)
        assert spec.entry_variance == pytest.approx(1e-4)

    def test_rademacher_support(self):
        spec = make_noise_spec("rademacher", 0.5, 4)
        assert spec.sigma0_sq == pytest.approx(0.5)
        draws = noise_matrix(spec, (200, 4), seed_stream(3))
        level = math.sqrt(0.5 / 4)
        assert set(np.round(np.unique(np.abs(draws)), 12)) == {round(level, 12)}

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            make_noise_spec("gaussian", -0.1, 10)

    def test_infinite_alpha_kills_noise(self):
        assert make_noise_spec("gaussian", math.inf, 10).sigma0_sq == 0.0

    @given(alpha=st.floats(0.0, 6.0), s=st.integers(1, 10_000))
    def test_energy_formula_exact(self, alpha, s):
        spec = make_noise_spec("gaussian", alpha, s)
        assert spec.sigma0_sq == float(s) ** (-alpha)


class TestInjectNoise:
    def test_zero_variance(self):
        spec = make_noise_spec("gaussian", math.inf, 4)
        np.testing.assert_array_equal(noise_matrix(spec, (3, 4), seed_stream(0)), 0.0)
        # a noiseless spec needs no generator and leaves the design clean
        sp = make_spectrum("polynomial", 5, gamma=2.0)
        x = sample_covariates("eigencoordinate", 3, seed_stream(1), p=5)
        ens = build_ensemble(sp, "eigencoordinate", eigenfeature_matrix(sp, "eigencoordinate", x),
                             sample_weights(5, 4, seed_stream(2)), spec)
        np.testing.assert_array_equal(ens.design, ens.Z)
        assert ens.design is ens.Z

    def test_additivity_exact(self):
        # the noisy design is the clean one plus exactly one noise_matrix draw
        sp = make_spectrum("polynomial", 5, gamma=2.0)
        x = sample_covariates("eigencoordinate", 6, seed_stream(1), p=5)
        W = sample_weights(5, 5, seed_stream(3))
        spec = make_noise_spec("uniform", 0.3, 5)
        ens = build_ensemble(sp, "eigencoordinate", eigenfeature_matrix(sp, "eigencoordinate", x),
                             W, spec, seed_stream(2))
        Xi = noise_matrix(spec, ens.Z.shape, seed_stream(2))
        np.testing.assert_array_equal(ens.design, ens.Z + Xi)

    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
    def test_entry_variance(self, family):
        spec = make_noise_spec(family, 0.5, 100)
        Xi = noise_matrix(spec, (1000, 100), seed_stream(4, family))
        want = spec.sigma0_sq / 100
        assert abs(Xi.var() / want - 1.0) <= 0.10

    def test_families_match_variance(self):
        g = noise_matrix(make_noise_spec("gaussian", 0.0, 50), (2000, 50), seed_stream(5))
        r = noise_matrix(make_noise_spec("rademacher", 0.0, 50), (2000, 50), seed_stream(6))
        vg, vr = g.var(), r.var()
        # gaussian entry variance has its own sampling error; rademacher is exact
        se = math.sqrt(2.0 / g.size) * 0.02
        assert abs(vg - vr) <= 5 * se

    @pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
    def test_unit_base_after_unscaling(self, family):
        spec = make_noise_spec(family, 0.7, 64)
        Xi = noise_matrix(spec, (2000, 64), seed_stream(7, family))
        base = Xi / spec.entry_scale
        assert abs(base.mean()) <= 4.0 / math.sqrt(base.size)
        assert abs(base.var() - 1.0) <= 0.05

    def test_width_must_match_spec(self):
        spec = make_noise_spec("gaussian", 0.5, 8)
        with pytest.raises(ValueError):
            noise_matrix(spec, (3, 9), seed_stream(0))
        # also for a noiseless spec, which draws nothing
        sp = make_spectrum("polynomial", 5, gamma=2.0)
        x = sample_covariates("eigencoordinate", 3, seed_stream(1), p=5)
        with pytest.raises(ValueError, match="noise width"):
            build_ensemble(sp, "eigencoordinate", eigenfeature_matrix(sp, "eigencoordinate", x),
                           sample_weights(5, 9, seed_stream(2)),
                           make_noise_spec("gaussian", math.inf, 8))


class TestEnsemble:
    def _build(self):
        sp = make_spectrum("polynomial", 5, gamma=2.0)
        x = sample_covariates("eigencoordinate", 7, seed_stream(30), p=5)
        W = sample_weights(5, 9, seed_stream(31))
        spec = make_noise_spec("gaussian", 0.5, 9)
        return build_ensemble(sp, "eigencoordinate",
                              eigenfeature_matrix(sp, "eigencoordinate", x), W, spec,
                              seed_stream(32))

    def test_recompute_bit_exact(self):
        # the stored eigenfeature rows and weights rebuild Z bit for bit
        ens = self._build()
        np.testing.assert_array_equal(ens.phi @ ens.weights / math.sqrt(ens.s), ens.Z)

    def test_noise_additivity(self):
        ens = self._build()
        Xi = noise_matrix(ens.noise_spec, ens.Z.shape, seed_stream(32))
        np.testing.assert_array_equal(ens.design, ens.Z + Xi)

    def test_clean_design_without_noise(self):
        sp = make_spectrum("polynomial", 5, gamma=2.0)
        x = sample_covariates("eigencoordinate", 7, seed_stream(30), p=5)
        W = sample_weights(5, 9, seed_stream(31))
        ens = build_ensemble(sp, "eigencoordinate", eigenfeature_matrix(sp, "eigencoordinate", x),
                             W)
        assert ens.noise_spec is None
        np.testing.assert_array_equal(ens.design, ens.Z)
        assert ens.design is ens.Z

    def test_row_space_features(self):
        # Z = T^T G / sqrt(s) is phi W / sqrt(s) for every W whose part in the
        # eigenfeature rows' span is R G; G has min(n, p) rows
        sp = make_spectrum("polynomial", 9, gamma=2.0)
        x = sample_covariates("eigencoordinate", 4, seed_stream(40), p=9)
        phi = eigenfeature_matrix(sp, "eigencoordinate", x)
        G = sample_weights(4, 7, seed_stream(41))
        ens = build_ensemble(sp, "eigencoordinate", phi, G, complement=seed_stream(42))
        R, _ = row_space_factor(phi)
        np.testing.assert_allclose(R.T @ R, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(ens.Z, phi @ (R @ G) / math.sqrt(7), rtol=1e-12, atol=1e-14)
        with pytest.raises(ValueError, match="min\\(n, p\\)"):
            build_ensemble(sp, "eigencoordinate", phi, sample_weights(9, 7, seed_stream(41)),
                           complement=seed_stream(42))


def counted_factor(monkeypatch, phi):
    """(R, T^T, np.linalg.qr calls) of row_space_factor(phi)."""
    calls = []
    real_qr = np.linalg.qr

    def qr(a, mode="reduced"):
        calls.append(a.shape)
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)
    R, Tt = row_space_factor(phi)
    return R, Tt, len(calls)


def preset_phi(seed):
    """phi of the double-descent preset's n = 100 rows over p = 2000, i^-2."""
    sp = make_spectrum("polynomial", 2000, gamma=2.0)
    return eigenfeature_matrix(sp, "eigencoordinate", sample_covariates(
        "eigencoordinate", 100, seed_stream(seed, "cov"), p=2000))


def defect(R):
    return float(np.abs(R.T @ R - np.eye(R.shape[1])).max())


def conditioned_rows(n, p, condition, seed):
    """n x p rows whose Gram has eigenvalues geometric from 1 to 1 / condition."""
    A = np.linalg.qr(seed_stream(seed, "a").standard_normal((n, n)))[0]
    B = np.linalg.qr(seed_stream(seed, "b").standard_normal((p, n)))[0]
    return (A * np.sqrt(np.geomspace(1.0, 1.0 / condition, n))) @ B.T


class TestRowSpaceFactor:
    """phi^T = R T from the Gram's Cholesky factor, or from a QR past the
    certificate."""

    # the Gram condition d_max / d_min at the certificate's edge, about 4.5e5
    EDGE = GRAM_RTOL / np.finfo(float).eps

    @pytest.mark.parametrize("seed", [7, 13])
    def test_preset_rows_take_the_eigenpairs(self, monkeypatch, seed):
        # n = 100, p = 2000, i^-2: the Gram's condition is about 1.5e4, so
        # the certificate passes and no QR runs; T^T is the lower Cholesky
        # factor and R's defect stays within the bound (measured about 5e-13)
        phi = preset_phi(seed)
        R, Tt, qr_calls = counted_factor(monkeypatch, phi)
        assert qr_calls == 0
        assert R.shape == (2000, 100) and Tt.shape == (100, 100)
        assert defect(R) <= GRAM_RTOL
        assert np.array_equal(Tt, np.tril(Tt))
        np.testing.assert_allclose(R @ Tt.T, phi.T, atol=1e-12 * np.abs(phi).max())

    def test_preset_rows_without_numpy_routines_take_the_same_factor(self, monkeypatch):
        # where numpy's OpenBLAS lacks dtrtri, L^-1 comes from np.linalg.inv:
        # still no QR, and the same factor to rounding
        phi = preset_phi(7)
        R0, Tt0 = row_space_factor(phi)
        monkeypatch.setattr(blas_mod, "numpy_routines", lambda: None)
        R, Tt, qr_calls = counted_factor(monkeypatch, phi)
        assert qr_calls == 0
        np.testing.assert_allclose(R, R0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Tt, Tt0, rtol=0, atol=1e-12)

    # on these 40-row geometric spectra ||G||_F ||G^-1||_F is about 2.1
    # d_max / d_min, so the certificate refuses from about 0.47 EDGE on
    @pytest.mark.parametrize("side,condition", [("cholesky", 0.4), ("qr", 1.1)])
    def test_switch_edge(self, monkeypatch, side, condition):
        # inside the edge the Cholesky factor's R meets the stated bound;
        # past it the QR's R is orthonormal to rounding
        phi = conditioned_rows(40, 300, condition * self.EDGE, seed=3)
        R, Tt, qr_calls = counted_factor(monkeypatch, phi)
        assert qr_calls == (1 if side == "qr" else 0)
        assert defect(R) <= (GRAM_RTOL if side == "cholesky" else 1e-14)
        np.testing.assert_allclose(R @ Tt.T, phi.T, atol=1e-12 * np.abs(phi).max())

    @pytest.mark.parametrize("kind,n,p,params", [
        ("polynomial", 30, 12, {"gamma": 2.0}),       # p < n: the Gram is singular
        ("finite-rank", 20, 60, {"d": 8}),            # rank d < n
        ("exponential", 20, 60, {}),                  # rounding-level eigenvalues
        ("polynomial", 20, 400, {"gamma": 8.0})])     # a steep polynomial
    def test_singular_grams_take_the_qr(self, monkeypatch, kind, n, p, params):
        sp = make_spectrum(kind, p, **params)
        phi = eigenfeature_matrix(sp, "eigencoordinate", sample_covariates(
            "eigencoordinate", n, seed_stream(5, kind, n, p), p=p))
        R, Tt, qr_calls = counted_factor(monkeypatch, phi)
        assert qr_calls == 1
        assert R.shape == (p, min(n, p)) and defect(R) <= 1e-14
        np.testing.assert_allclose(R @ Tt.T, phi.T, atol=1e-14 * np.abs(phi).max())

    def test_ensemble_takes_the_callers_eigenpairs(self, monkeypatch):
        # given the caller's factor, build_ensemble runs no factorization of
        # its own and takes the caller's T^T
        sp = make_spectrum("polynomial", 30, gamma=2.0)
        phi = eigenfeature_matrix(sp, "eigencoordinate", sample_covariates(
            "eigencoordinate", 6, seed_stream(6), p=30))
        factor = row_space_factor(phi)
        monkeypatch.setattr(features_mod, "certified_gram_factor", None)
        monkeypatch.setattr(features_mod, "row_space_factor", None)
        G = sample_weights(6, 9, seed_stream(7))
        ens = build_ensemble(sp, "eigencoordinate", phi, G, complement=seed_stream(8),
                             factor=factor)
        np.testing.assert_array_equal(ens.Z, factor[1] @ G / 3.0)
        np.testing.assert_allclose(ens.Z, phi @ (factor[0] @ G) / 3.0, atol=1e-14)
