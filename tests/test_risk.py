import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from noisyrf.estimator import projector_diag, svd_factors
from noisyrf.features import (build_ensemble, make_noise_spec, noise_matrix,
                              sample_weights)
from noisyrf.risk import (LabelModel, TargetFunction, TestFeatures, bias_term,
                          decompose, excess_risk_mc, gen_labels, make_target,
                          make_test_features, misspec_term, target_train_values,
                          variance_closed, variance_mc)
from noisyrf.seeding import seed_stream
from noisyrf.spectral import (eigenfeature_matrix, make_spectrum,
                              sample_covariates)

MODE = "eigencoordinate"


def mk_ensemble(n, s, p=None, gamma=2.0, alpha=None, seed=0):
    """Polynomial-spectrum ensemble in eigencoordinate mode, optionally noisy."""
    p = p or max(2 * s, 64)
    sp = make_spectrum("polynomial", p, gamma=gamma)
    X = sample_covariates(MODE, n, seed_stream(seed, "cov"), p=p)
    W = sample_weights(p, s, seed_stream(seed, "w"))
    spec = rng = None
    if alpha is not None:
        spec = make_noise_spec("gaussian", alpha, s)
        rng = seed_stream(seed, "noise")
    return build_ensemble(sp, MODE, X, W, noise_spec=spec, noise_rng=rng)


def quadratic_oracle(Z, rows):
    # per-row z^T (Z^T Z)^+ z through LAPACK's pinv, independent of the
    # estimator's own SVD plumbing
    core = rows @ sla.pinv(np.asarray(Z, dtype=float))
    return np.sum(core * core, axis=1)


class TestMakeTarget:
    def test_norm_exact(self):
        ens = mk_ensemble(10, 25)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(3, "t"))
        assert abs(np.linalg.norm(t.beta_star) - 1.0) <= 1e-12
        assert t.norm == 1.0
        assert t.tail_coeffs is None

    def test_determinism(self):
        ens = mk_ensemble(10, 25)
        a = make_target("realizable-clean", ens, 2.0, seed_stream(4, "t"))
        b = make_target("realizable-clean", ens, 2.0, seed_stream(4, "t"))
        np.testing.assert_array_equal(a.beta_star, b.beta_star)

    def test_mode_validation(self):
        ens = mk_ensemble(10, 25)
        with pytest.raises(ValueError, match="target mode"):
            make_target("banana", ens, 1.0, seed_stream(0))

    def test_norm_validation(self):
        ens = mk_ensemble(10, 25)
        with pytest.raises(ValueError, match="norm"):
            make_target("realizable-clean", ens, 0.0, seed_stream(0))

    def test_noisy_needs_injected_ensemble(self):
        ens = mk_ensemble(10, 25)  # no noise injected
        with pytest.raises(ValueError, match="injected noise"):
            make_target("realizable-noisy", ens, 1.0, seed_stream(0))

    def test_unrealizable_needs_overcomplete_basis(self):
        ens = mk_ensemble(10, 64, p=64)
        with pytest.raises(ValueError, match="p > s"):
            make_target("unrealizable", ens, 1.0, seed_stream(0))

    def test_unrealizable_tail_energy(self):
        ens = mk_ensemble(12, 20, p=80)
        t = make_target("unrealizable", ens, 1.0, seed_stream(5, "t"), tail_energy=0.7)
        lam = ens.spectrum.eigenvalues
        energy = float(np.sum(lam * t.tail_coeffs ** 2))
        assert abs(energy - 0.7) <= 1e-10

    def test_unrealizable_tail_orthogonal_to_span(self):
        # population inner product of the tail with every feature direction
        ens = mk_ensemble(12, 20, p=80)
        t = make_target("unrealizable", ens, 1.0, seed_stream(6, "t"))
        lam = ens.spectrum.eigenvalues
        overlap = ens.weights.entries.T @ (lam * t.tail_coeffs)
        assert np.max(np.abs(overlap)) <= 1e-8

    def test_tail_energy_validation(self):
        ens = mk_ensemble(12, 20, p=80)
        with pytest.raises(ValueError, match="tail_energy"):
            make_target("unrealizable", ens, 1.0, seed_stream(0), tail_energy=0.0)


class TestTargetValuesAndLabels:
    def test_clean_values(self):
        ens = mk_ensemble(15, 30)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(7, "t"))
        np.testing.assert_array_equal(target_train_values(t, ens), ens.Z @ t.beta_star)

    def test_noisy_values_use_noisy_design(self):
        ens = mk_ensemble(15, 30, alpha=0.3, seed=7)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(7, "t"))
        f = target_train_values(t, ens)
        np.testing.assert_array_equal(f, ens.Z_noisy @ t.beta_star)
        assert not np.array_equal(f, ens.Z @ t.beta_star)

    def test_noisy_values_reject_clean_ensemble(self):
        ens = mk_ensemble(15, 30)
        t = TargetFunction(mode="realizable-noisy", beta_star=np.zeros(30),
                           tail_coeffs=None, norm=0.0)
        with pytest.raises(ValueError, match="injected noise"):
            target_train_values(t, ens)

    def test_unrealizable_adds_tail(self):
        ens = mk_ensemble(15, 30, p=90)
        t = make_target("unrealizable", ens, 1.0, seed_stream(8, "t"))
        phi = eigenfeature_matrix(ens.spectrum, MODE, ens.covariates)
        want = ens.Z @ t.beta_star + phi @ t.tail_coeffs
        np.testing.assert_allclose(target_train_values(t, ens), want, rtol=1e-12)

    def test_noiseless_labels_exact(self):
        ens = mk_ensemble(15, 30)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(9, "t"))
        y = gen_labels(t, ens, LabelModel(0.0), seed_stream(9, "y"))
        np.testing.assert_array_equal(y, target_train_values(t, ens))

    def test_label_noise_variance(self):
        ens = mk_ensemble(10_000, 4, p=8, seed=5)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(5, "t"))
        y = gen_labels(t, ens, LabelModel(2.0), seed_stream(5, "y"))
        resid = y - target_train_values(t, ens)
        assert abs(np.var(resid, ddof=1) - 2.0) <= 0.2

    def test_label_model_validation(self):
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        with pytest.raises(ValueError, match="gaussian"):
            gen_labels(t, ens, LabelModel(1.0, distribution="laplace"), seed_stream(0))
        with pytest.raises(ValueError, match="sigma_sq"):
            gen_labels(t, ens, LabelModel(-1.0), seed_stream(0))


class TestMakeTestFeatures:
    def test_clean_ensemble_has_single_row_set(self):
        ens = mk_ensemble(10, 20)
        tf = make_test_features(ens, 50, seed_stream(11, "tf"))
        assert tf.m == 50
        np.testing.assert_array_equal(tf.predictor, tf.clean)
        np.testing.assert_array_equal(tf.target_rows, tf.clean)

    def test_noisy_predictor_rows_perturbed(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = make_test_features(ens, 50, seed_stream(12, "tf"))
        assert not np.array_equal(tf.predictor, tf.clean)

    def test_clean_test_flag(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = make_test_features(ens, 50, seed_stream(12, "tf"), clean_test=True)
        np.testing.assert_array_equal(tf.predictor, tf.clean)

    def test_target_noise_shared(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = make_test_features(ens, 50, seed_stream(13, "tf"), target_noise="shared")
        np.testing.assert_array_equal(tf.target_rows, tf.predictor)

    def test_target_noise_fresh_is_independent(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = make_test_features(ens, 50, seed_stream(13, "tf"), target_noise="fresh")
        assert not np.array_equal(tf.target_rows, tf.predictor)
        assert not np.array_equal(tf.target_rows, tf.clean)

    def test_target_noise_clean(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = make_test_features(ens, 50, seed_stream(13, "tf"), target_noise="clean")
        np.testing.assert_array_equal(tf.target_rows, tf.clean)

    def test_target_noise_validation(self):
        ens = mk_ensemble(10, 20)
        with pytest.raises(ValueError, match="target_noise"):
            make_test_features(ens, 5, seed_stream(0), target_noise="dirty")

    def test_determinism(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        a = make_test_features(ens, 20, seed_stream(14, "tf"))
        b = make_test_features(ens, 20, seed_stream(14, "tf"))
        np.testing.assert_array_equal(a.predictor, b.predictor)
        np.testing.assert_array_equal(a.target_rows, b.target_rows)


class TestBiasTerm:
    def test_full_column_rank_kills_bias(self):
        # s <= n with generic gaussian features: nothing outside the row space
        ens = mk_ensemble(40, 12)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(15, "t"))
        tf = make_test_features(ens, 100, seed_stream(15, "tf"))
        b, se = bias_term(ens, t, tf)
        assert b <= 1e-20

    def test_beta_in_row_space_kills_bias(self):
        ens = mk_ensemble(20, 50)
        w = seed_stream(16, "coef").standard_normal(20)
        beta = ens.Z.T @ w
        t = TargetFunction(mode="realizable-clean", beta_star=beta,
                           tail_coeffs=None, norm=float(np.linalg.norm(beta)))
        tf = make_test_features(ens, 100, seed_stream(16, "tf"))
        b, se = bias_term(ens, t, tf)
        assert b <= 1e-20

    def test_small_instance_matches_pinv_oracle(self):
        ens = mk_ensemble(2, 3, p=6, seed=17)
        t = make_target("realizable-clean", ens, 1.5, seed_stream(17, "t"))
        tf = make_test_features(ens, 3, seed_stream(17, "tf"))
        Z = np.asarray(ens.design, dtype=float)
        pib = sla.pinv(Z) @ (Z @ t.beta_star) - t.beta_star
        vals = (tf.predictor @ pib) ** 2
        b, se = bias_term(ens, t, tf)
        np.testing.assert_allclose(b, vals.mean(), rtol=1e-10)
        np.testing.assert_allclose(se, vals.std(ddof=1) / math.sqrt(3), rtol=1e-10)

    def test_rejects_unrealizable(self):
        ens = mk_ensemble(10, 20, p=60)
        t = make_target("unrealizable", ens, 1.0, seed_stream(18, "t"))
        tf = make_test_features(ens, 10, seed_stream(18, "tf"))
        with pytest.raises(ValueError, match="realizable"):
            bias_term(ens, t, tf)


class TestVarianceClosed:
    def test_scalar_identity(self):
        assert variance_closed(np.array([[1.0]]), np.array([[1.0]]), 1.0) == 1.0

    def test_identity_design(self):
        # Z = I: each basis test row contributes exactly sigma^2
        Z = np.eye(4)
        assert variance_closed(Z, np.eye(4), 2.5) == pytest.approx(2.5, rel=1e-14)

    def test_sample_route_matches_pinv_oracle(self):
        for seed, (n, s) in enumerate([(5, 9), (9, 5), (12, 12)]):
            rng = seed_stream(19, "v", seed)
            Z = rng.standard_normal((n, s))
            rows = rng.standard_normal((30, s))
            want = float(np.mean(quadratic_oracle(Z, rows)))
            got = variance_closed(Z, rows, 1.3)
            np.testing.assert_allclose(got, 1.3 * want, rtol=1e-10)

    def test_rank_zero(self):
        assert variance_closed(np.zeros((3, 4)), np.eye(4), 1.0) == 0.0

    def test_population_route_needs_weights(self):
        ens = mk_ensemble(10, 20)
        with pytest.raises(ValueError, match="weight"):
            variance_closed(ens.design, ens.spectrum, 1.0)

    def test_population_noise_term_explicit(self):
        # the feature-noise part adds sigma0^2/s * sum of inverse squared
        # singular values, on top of the clean population term
        ens = mk_ensemble(15, 40, alpha=0.5, seed=20)
        base = variance_closed(ens.design, ens.spectrum, 2.0, weights=ens.weights)
        with_noise = variance_closed(ens.design, ens.spectrum, 2.0,
                                     weights=ens.weights, noise_spec=ens.noise_spec)
        sv = sla.svdvals(np.asarray(ens.design, dtype=float))
        sv = sv[sv > 1e-12]
        extra = 2.0 * ens.noise_spec.sigma0_sq / 40 * float(np.sum(1.0 / sv ** 2))
        np.testing.assert_allclose(with_noise - base, extra, rtol=1e-9)

    def test_population_matches_sample_monte_carlo(self):
        ens = mk_ensemble(25, 70, p=140, alpha=0.5, seed=6)
        rng = seed_stream(6, "pop")
        m = 40_000
        X = sample_covariates(MODE, m, rng, p=140)
        phi = eigenfeature_matrix(ens.spectrum, MODE, X)
        rows = phi @ ens.weights.entries / math.sqrt(70) + noise_matrix(ens.noise_spec, (m, 70), rng)
        v_pop = variance_closed(ens.design, ens.spectrum, 1.0,
                                weights=ens.weights, noise_spec=ens.noise_spec)
        vals = quadratic_oracle(ens.design, rows)
        v_smp = variance_closed(ens.design, rows, 1.0)
        np.testing.assert_allclose(v_smp, vals.mean(), rtol=1e-10)
        se = vals.std(ddof=1) / math.sqrt(m)
        assert abs(v_smp - v_pop) <= 4 * se


class TestVarianceMc:
    def test_zero_label_noise_is_exactly_zero(self):
        ens = mk_ensemble(12, 30)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(21, "t"))
        tf = make_test_features(ens, 40, seed_stream(21, "tf"))
        v, se = variance_mc(ens, t, LabelModel(0.0), tf, 50, seed_stream(21, "v"))
        assert v == 0.0

    def test_exact_sigma_scaling_same_stream(self):
        # the same underlying normal draws are scaled by sigma, so the
        # empirical variance scales by exactly sigma^2
        ens = mk_ensemble(30, 80, alpha=0.5, seed=2)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(2, "t"))
        tf = make_test_features(ens, 200, seed_stream(2, "tf"))
        v1, _ = variance_mc(ens, t, LabelModel(1.0), tf, 300, seed_stream(41, "v"))
        v4, _ = variance_mc(ens, t, LabelModel(4.0), tf, 300, seed_stream(41, "v"))
        np.testing.assert_allclose(v4, 4.0 * v1, rtol=1e-12)

    def test_matches_closed_form(self):
        for seed in range(3):
            ens = mk_ensemble(25, 60, alpha=0.5, seed=seed)
            t = make_target("realizable-noisy", ens, 1.0, seed_stream(seed, "t"))
            tf = make_test_features(ens, 2000, seed_stream(seed, "tf"))
            vc = variance_closed(ens.design, tf.predictor, 1.0)
            vm, se = variance_mc(ens, t, LabelModel(1.0), tf, 4000, seed_stream(seed, "v"))
            assert abs(vm - vc) <= 0.05 * vc + 3 * se

    def test_trials_validation(self):
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        tf = make_test_features(ens, 5, seed_stream(0, "tf"))
        with pytest.raises(ValueError, match="redraws"):
            variance_mc(ens, t, LabelModel(1.0), tf, 1, seed_stream(0))


class TestExcessRiskMc:
    def test_noiseless_full_column_rank_fit_is_exact(self):
        # rank-s design recovers beta exactly from noiseless labels
        ens = mk_ensemble(40, 12)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(22, "t"))
        tf = make_test_features(ens, 100, seed_stream(22, "tf"))
        r, se = excess_risk_mc(ens, t, LabelModel(0.0), tf, 5, seed_stream(22, "e"))
        assert r <= 1e-20

    def test_scalar_hand_value(self):
        # one point, one feature, Z = [[1]]: the fit returns y, and
        # E[(y - f*)^2] is the label variance
        sp = make_spectrum("custom", 1, eigenvalues=[1.0])
        W = sample_weights(1, 1, seed_stream(0))
        W.entries[:] = 1.0
        ens = build_ensemble(sp, MODE, np.array([[1.0]]), W)
        t = TargetFunction(mode="realizable-clean", beta_star=np.array([0.5]),
                           tail_coeffs=None, norm=0.5)
        tf = TestFeatures(covariates=np.array([[1.0]]), phi=np.array([[1.0]]),
                          clean=np.array([[1.0]]), predictor=np.array([[1.0]]),
                          target_rows=np.array([[1.0]]))
        trials = 50_000
        r, _ = excess_risk_mc(ens, t, LabelModel(1.0), tf, trials, seed_stream(0, "e"))
        # chi^2 mean concentrates at rate sqrt(2/trials)
        assert abs(r - 1.0) <= 5 * math.sqrt(2 / trials)

    def test_trials_validation(self):
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        tf = make_test_features(ens, 5, seed_stream(0, "tf"))
        with pytest.raises(ValueError, match="trials"):
            excess_risk_mc(ens, t, LabelModel(1.0), tf, 0, seed_stream(0))


def tiny_misspec_instance(train_cov):
    """Two eigendirections, one feature that sees only the first; the target
    lives entirely in the second, so the test sample decorrelates exactly."""
    sp = make_spectrum("custom", 2, eigenvalues=[1.0, 1.0])
    W = sample_weights(2, 1, seed_stream(0))
    W.entries[:] = np.array([[1.0], [0.0]])
    ens = build_ensemble(sp, MODE, np.asarray(train_cov, dtype=float), W)
    t = TargetFunction(mode="unrealizable", beta_star=np.zeros(1),
                       tail_coeffs=np.array([0.0, 1.0]), norm=0.0)
    phi = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    clean = phi @ W.entries
    tf = TestFeatures(covariates=phi, phi=phi, clean=clean,
                      predictor=clean, target_rows=clean)
    return ens, t, tf


class TestMisspecTerm:
    def test_realizable_target_gives_zero(self):
        ens = mk_ensemble(15, 10)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(23, "t"))
        tf = make_test_features(ens, 200, seed_stream(23, "tf"))
        res = misspec_term(ens, t, tf)
        assert res.total <= 1e-16
        assert res.first_term <= 1e-16 and res.second_term <= 1e-16

    def test_hand_instance_pure_tail(self):
        # training rows orthogonal to the tail: no leakage, unit distance
        ens, t, tf = tiny_misspec_instance([[1.0, 0.0], [0.0, 1.0]])
        res = misspec_term(ens, t, tf)
        assert res.first_term == 0.0
        assert res.second_term == 1.0
        assert res.total == 1.0
        assert res.stderr == 0.0

    def test_hand_instance_with_leakage(self):
        # first training point mixes both directions: the fit leaks exactly
        # one unit of tail energy through the pseudoinverse
        ens, t, tf = tiny_misspec_instance([[1.0, 1.0], [0.0, 1.0]])
        res = misspec_term(ens, t, tf)
        assert res.first_term == pytest.approx(1.0, rel=1e-12)
        assert res.second_term == 1.0
        assert res.total == pytest.approx(2.0, rel=1e-12)

    def test_shrinks_as_features_accumulate(self):
        # fixed out-of-span component, growing feature count: the span
        # captures more of it, so the median estimate must fall
        p = 256
        sp = make_spectrum("polynomial", p, gamma=2.0)
        c = seed_stream(99, "tail").standard_normal(p)
        lam = sp.eigenvalues
        c = c / math.sqrt(float(np.sum(lam * c * c)))
        medians = {}
        for s in (8, 32, 128):
            tots = []
            for seed in range(20):
                X = sample_covariates(MODE, 64, seed_stream(seed, "cov", s), p=p)
                W = sample_weights(p, s, seed_stream(seed, "w", s))
                ens = build_ensemble(sp, MODE, X, W)
                t = TargetFunction(mode="unrealizable", beta_star=np.zeros(s),
                                   tail_coeffs=c, norm=0.0)
                tf = make_test_features(ens, 1200, seed_stream(seed, "tf", s))
                tots.append(misspec_term(ens, t, tf).total)
            medians[s] = float(np.median(tots))
        assert medians[8] > medians[32] > medians[128]


class TestDecompose:
    def test_identity_monte_carlo(self):
        # R = B + V up to redraw and test-sampling noise
        for (n, s) in [(20, 30), (20, 80), (50, 200)]:
            for seed in (0, 1):
                ens = mk_ensemble(n, s, seed=seed)
                t = make_target("realizable-clean", ens, 1.0, seed_stream(seed, "t"))
                tf = make_test_features(ens, 1500, seed_stream(seed, "tf"))
                d = decompose(ens, t, LabelModel(1.0), tf, 2000, seed_stream(seed, "d"))
                gap = abs(d.total - d.bias - d.variance)
                comb = math.sqrt(d.bias_se ** 2 + d.variance_se ** 2 + d.total_se ** 2)
                assert gap <= 3 * comb

    def test_identity_closed_form_exact(self):
        ens = mk_ensemble(30, 90, seed=3)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(3, "t"))
        tf = make_test_features(ens, 400, seed_stream(3, "tf"))
        d = decompose(ens, t, LabelModel(0.7), tf, 2, seed_stream(0), method="closed-form")
        assert abs(d.total - d.bias - d.variance) <= 1e-12 * d.total
        assert d.method == "closed-form"

    def test_closed_form_variance_linearity(self):
        ens = mk_ensemble(25, 70, seed=4)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(4, "t"))
        tf = make_test_features(ens, 300, seed_stream(4, "tf"))
        d1 = decompose(ens, t, LabelModel(1.0), tf, 2, seed_stream(0), method="closed-form")
        d4 = decompose(ens, t, LabelModel(4.0), tf, 2, seed_stream(0), method="closed-form")
        np.testing.assert_allclose(d4.variance, 4.0 * d1.variance, rtol=1e-12)
        assert d4.bias == d1.bias

    def test_streamed_bias_invariant_under_sigma(self):
        # label draws are consumed before the test blocks, and always the
        # same number of them, so the test sample cannot shift with sigma
        ens = mk_ensemble(30, 100, alpha=0.5, seed=9)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(9, "t"))
        d1 = decompose(ens, t, LabelModel(1.0), 800, 60, seed_stream(21, "q"))
        d2 = decompose(ens, t, LabelModel(100.0), 800, 60, seed_stream(21, "q"))
        assert d1.bias == d2.bias and d1.bias_se == d2.bias_se
        np.testing.assert_allclose(d2.variance, 100.0 * d1.variance, rtol=1e-9)

    def test_streamed_matches_materialized_exactly_when_clean(self):
        # closed form draws nothing but covariates, in the same stream order
        ens = mk_ensemble(40, 120, seed=7)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(7, "t"))
        m = 1300
        d_s = decompose(ens, t, LabelModel(1.0), m, 2, seed_stream(11, "x"),
                        method="closed-form")
        tf = make_test_features(ens, m, seed_stream(11, "x"))
        d_m = decompose(ens, t, LabelModel(1.0), tf, 2, seed_stream(0),
                        method="closed-form")
        np.testing.assert_allclose(
            [d_s.bias, d_s.variance, d_s.total],
            [d_m.bias, d_m.variance, d_m.total], rtol=1e-9)

    def test_streamed_agrees_with_materialized_when_noisy(self):
        ens = mk_ensemble(40, 120, alpha=0.5, seed=8)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(8, "t"))
        d_s = decompose(ens, t, LabelModel(1.0), 3000, 500, seed_stream(12, "x"))
        tf = make_test_features(ens, 3000, seed_stream(13, "x"))
        d_m = decompose(ens, t, LabelModel(1.0), tf, 500, seed_stream(14, "x"))
        for field in ("bias", "variance", "total"):
            a, b = getattr(d_s, field), getattr(d_m, field)
            sa, sb = getattr(d_s, field + "_se"), getattr(d_m, field + "_se")
            assert abs(a - b) <= 4 * math.sqrt(sa ** 2 + sb ** 2)

    def test_monte_carlo_variance_tracks_closed_form(self):
        ens = mk_ensemble(30, 80, alpha=0.5, seed=2)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(2, "t"))
        tf = make_test_features(ens, 2500, seed_stream(2, "tf"))
        dc = decompose(ens, t, LabelModel(1.0), tf, 2, seed_stream(0), method="closed-form")
        dm = decompose(ens, t, LabelModel(1.0), tf, 3000, seed_stream(30, "m"))
        assert dm.bias == dc.bias
        assert abs(dm.variance - dc.variance) <= 0.05 * dc.variance + 3 * dm.variance_se

    def test_unrealizable_misspec_matches_standalone(self):
        ens = mk_ensemble(20, 40, p=120, seed=24)
        t = make_target("unrealizable", ens, 1.0, seed_stream(24, "t"))
        tf = make_test_features(ens, 600, seed_stream(24, "tf"))
        d = decompose(ens, t, LabelModel(1.0), tf, 400, seed_stream(24, "d"))
        res = misspec_term(ens, t, tf)
        np.testing.assert_allclose(d.misspec, res.total, rtol=1e-12)
        assert d.misspec > 0

    @pytest.mark.parametrize("n,s,p,mode,materialized", [
        (20, 12, 64, "realizable-clean", False), (20, 60, 120, "realizable-clean", False),
        (20, 12, 64, "realizable-clean", True), (20, 60, 120, "unrealizable", True)])
    def test_rank_matches_design_factorization(self, n, s, p, mode, materialized):
        ens = mk_ensemble(n, s, p=p, seed=27)
        t = make_target(mode, ens, 1.0, seed_stream(27, "t"))
        test = make_test_features(ens, 200, seed_stream(27, "tf")) if materialized else 200
        d = decompose(ens, t, LabelModel(1.0), test, 20, seed_stream(27, "d"))
        assert d.rank == svd_factors(ens.design).rank == min(n, s)
        assert projector_diag(ens.design).null_dim == s - d.rank

    def test_realizable_reports_zero_misspec(self):
        ens = mk_ensemble(20, 40, seed=25)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(25, "t"))
        tf = make_test_features(ens, 200, seed_stream(25, "tf"))
        d = decompose(ens, t, LabelModel(1.0), tf, 100, seed_stream(25, "d"))
        assert d.misspec == 0.0 and d.misspec_se == 0.0

    def test_all_target_modes_run(self):
        for mode, alpha, p in [("realizable-clean", None, 80),
                               ("realizable-noisy", 0.5, 80),
                               ("unrealizable", None, 120)]:
            ens = mk_ensemble(15, 40, p=p, alpha=alpha, seed=26)
            t = make_target(mode, ens, 1.0, seed_stream(26, "t"))
            d = decompose(ens, t, LabelModel(1.0), 300, 50, seed_stream(26, "d", mode))
            assert d.total >= 0 and d.variance >= 0 and d.bias >= 0

    def test_argument_validation(self):
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        with pytest.raises(ValueError, match="method"):
            decompose(ens, t, LabelModel(1.0), 10, 50, seed_stream(0), method="analytic")
        with pytest.raises(ValueError, match="redraws"):
            decompose(ens, t, LabelModel(1.0), 10, 1, seed_stream(0))
        with pytest.raises(ValueError, match="test point"):
            decompose(ens, t, LabelModel(1.0), 0, 50, seed_stream(0))

    @settings(max_examples=20)
    @given(n=st.integers(3, 10), s=st.integers(2, 12), seed=st.integers(0, 30))
    def test_closed_form_identity_property(self, n, s, seed):
        ens = mk_ensemble(n, s, p=24, seed=seed)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(seed, "t"))
        tf = make_test_features(ens, 25, seed_stream(seed, "tf"))
        d = decompose(ens, t, LabelModel(0.5), tf, 2, seed_stream(0), method="closed-form")
        assert d.bias >= 0 and d.variance >= 0
        assert abs(d.total - d.bias - d.variance) <= 1e-10 * max(d.total, 1.0)
