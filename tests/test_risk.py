import copy
import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from noisyrf import estimator as estimator_mod
from noisyrf import risk as risk_mod
from noisyrf import sweep as sweep_mod
from noisyrf.config import PRESETS, preset_config
from noisyrf.estimator import default_rtol, projector_diag, svd_factors
from noisyrf.features import (RowSpaceWeights, build_ensemble, complement_frame, make_noise_spec,
                              row_space_factor, sample_weights)
from noisyrf.risk import TargetFunction, decompose, make_target, target_train_values
from noisyrf.seeding import seed_stream
from noisyrf.spectral import (GRAM_RTOL, eigenfeature_matrix, gram_eigh, make_spectrum,
                              numerical_support, sample_covariates)
from sampled_reference import (TestSample, draw_test_sample, sampled_decompose,
                               standalone_best_fit, svd_reference)

MODE = "eigencoordinate"


def mk_ensemble(n, s, p=None, gamma=2.0, alpha=None, seed=0, family="gaussian",
                jitter=0.0, mode=MODE, spectrum=None):
    """Polynomial-spectrum ensemble (or over `spectrum`), optionally noisy.

    jitter multiplies each weight by 1 + jitter * N(0, 1); every other draw
    is the same as without it.
    """
    if spectrum is None:
        p = p or max(2 * s, 64)
        spectrum = make_spectrum("polynomial", p, gamma=gamma)
    p = spectrum.p
    X = sample_covariates(mode, n, seed_stream(seed, "cov"), p=p)
    W = sample_weights(p, s, seed_stream(seed, "w"))
    if jitter:
        W *= 1.0 + jitter * seed_stream(seed, "jitter").standard_normal(W.shape)
    spec = rng = None
    if alpha is not None:
        spec = make_noise_spec(family, alpha, s)
        rng = seed_stream(seed, "noise")
    return build_ensemble(spectrum, mode, eigenfeature_matrix(spectrum, mode, X), W,
                          noise_spec=spec, noise_rng=rng)


class NoDraws:
    """A generator stand-in that fails any draw: arguments must be checked
    before the first one."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the arguments were checked")


def identity_ensemble(X):
    """Unit spectrum and W = sqrt(s) I, so the design is the covariates X
    and a test row's features are its eigencoordinates."""
    X = np.asarray(X, dtype=float)
    s = X.shape[1]
    W = sample_weights(s, s, seed_stream(0))
    W[:] = math.sqrt(s) * np.eye(s)
    sp = make_spectrum("custom", s, eigenvalues=[1.0] * s)
    return build_ensemble(sp, MODE, eigenfeature_matrix(sp, MODE, X), W)


def rows_sample(rows):
    rows = np.asarray(rows, dtype=float)
    return TestSample(phi=rows, clean=rows, predictor=rows, target_rows=rows)


def zero_target(s):
    return TargetFunction(mode="realizable-clean", beta_star=np.zeros(s),
                          tail_coeffs=None, norm=0.0)


def no_qr(*args, **kwargs):
    """np.linalg.qr's stand-in where the Gram route must run no QR."""
    raise AssertionError("np.linalg.qr called on the Gram route")


class _Captured(Exception):
    pass


def preset_cell(monkeypatch, s, seed=7, replicate=0):
    """decompose's (args, kwargs) in one cell of the double-descent preset."""
    def capture(*args, **kwargs):
        raise _Captured(args, kwargs)

    cfg = preset_config("double-descent-default", {"master_seed": seed})
    with monkeypatch.context() as m:
        m.setattr(sweep_mod, "decompose", capture)
        with pytest.raises(_Captured) as exc:
            sweep_mod.compute_row(cfg, cfg.s_grid.index(s), replicate)
    return exc.value.args


def decompose_cell(args, **kwargs):
    """decompose on a cell captured by preset_cell.  Each call gets its own
    copy of the cell's weights: row-space weights draw W's complement once,
    and every copy draws the same one."""
    ens = dataclasses.replace(args[0], weights=copy.deepcopy(args[0].weights))
    return decompose(ens, *args[1:], **kwargs)


def quadratic_oracle(Z, rows):
    # per-row z^T (Z^T Z)^+ z through LAPACK's pinv, independent of the
    # estimator's own SVD plumbing
    core = rows @ sla.pinv(np.asarray(Z, dtype=float))
    return np.sum(core * core, axis=1)


def se(d, field):
    """A piece's standard error: the sampled reference's over its test
    points, or 0 for decompose's exact split."""
    return getattr(d, field + "_se", 0.0)


def assert_agree_within_4se(d1, d2):
    for field in ("bias", "variance", "misspec", "total"):
        a, b = getattr(d1, field), getattr(d2, field)
        assert abs(a - b) <= 4 * math.sqrt(se(d1, field) ** 2 + se(d2, field) ** 2), field


def measure(ens, t, sigma_sq, sample=None, **kwargs):
    """decompose over the test population when sample is None, else the
    sampled reference over sample, label noise integrated on both."""
    if sample is None:
        return decompose(ens, t, sigma_sq, **kwargs)
    return sampled_decompose(ens, t, sigma_sq, sample, **kwargs)


def closed_form(ens, t, sample=None):
    return measure(ens, t, 1.0, sample)


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

    @pytest.mark.parametrize("mode", ["realizable-clean", "unrealizable"])
    @pytest.mark.parametrize("norm", [math.nan, math.inf])
    def test_non_finite_norm_refused_before_any_draw(self, mode, norm):
        # passed through, nan or inf gave a NaN bias and total with no error
        ens = mk_ensemble(12, 20, p=80)
        with pytest.raises(ValueError, match="norm must be positive and finite"):
            make_target(mode, ens, norm, NoDraws())

    @pytest.mark.parametrize("tail_energy", [math.nan, math.inf])
    def test_non_finite_tail_energy_refused_before_any_draw(self, tail_energy):
        # passed through, it failed later as a tail not orthogonal to the span
        ens = mk_ensemble(12, 20, p=80, alpha=0.5)
        with pytest.raises(ValueError, match="tail_energy must be positive and finite"):
            make_target("unrealizable", ens, 1.0, NoDraws(), tail_energy=tail_energy)

    def test_unrealizable_target_on_row_space_weights_refused_before_any_draw(self):
        # its solves need the dense p x s W; row-space weights raised a
        # TypeError from inside the projection
        sp = make_spectrum("polynomial", 80, gamma=2.0)
        phi = eigenfeature_matrix(sp, MODE, sample_covariates(MODE, 12, seed_stream(0, "cov"),
                                                              p=80))
        G = sample_weights(12, 20, seed_stream(0, "w"))
        ens = build_ensemble(sp, MODE, phi, G, complement=seed_stream(0, "wc"))
        assert isinstance(ens.weights, RowSpaceWeights)
        with pytest.raises(ValueError, match="needs the dense p x s W"):
            make_target("unrealizable", ens, 1.0, NoDraws())

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
        overlap = ens.weights.T @ (lam * t.tail_coeffs)
        assert np.max(np.abs(overlap)) <= 1e-8

    def test_tail_energy_validation(self):
        ens = mk_ensemble(12, 20, p=80)
        with pytest.raises(ValueError, match="tail_energy"):
            make_target("unrealizable", ens, 1.0, seed_stream(0), tail_energy=0.0)

    @pytest.mark.parametrize("eigenvalues", [
        [1.0] * 5 + [0.0] * 55,     # finite rank d = 5: the QR's R is singular
        [1.0] * 5 + [1e-30] * 55])  # a tail at rounding level: R is not
    def test_span_holding_the_support_is_degenerate(self, eigenvalues):
        # p=60, s=20 columns cover all 5 directions that carry energy, so the
        # out-of-span residual is rounding; scaling it up to tail_energy
        # gave a tail that M (0.018 for the finite rank) did not reflect
        ens = mk_ensemble(10, 20, spectrum=make_spectrum("custom", 60, eigenvalues=eigenvalues))
        with pytest.raises(ValueError, match="degenerate out-of-span draw"):
            make_target("unrealizable", ens, 1.0, seed_stream(0, "t"))

    def test_degenerate_draw_is_refused_on_the_gram_route(self, monkeypatch):
        # 20 columns span the 20 directions that carry energy, and H is well
        # conditioned, so the Gram route projects the draw and refuses it
        # on its projected energy, with no QR
        ens = mk_ensemble(10, 20, spectrum=make_spectrum(
            "custom", 60, eigenvalues=[1.0] * 20 + [1e-30] * 40))
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        with pytest.raises(ValueError, match="degenerate out-of-span draw"):
            make_target("unrealizable", ens, 1.0, seed_stream(0, "t"))

    @pytest.mark.parametrize("clean_test", [False, True])
    def test_finite_rank_wider_than_the_span_keeps_misspec_above_the_tail(self, clean_test):
        # d = 30 > s = 20: a genuine tail, whose energy M must contain
        ens = mk_ensemble(10, 20, alpha=0.5, spectrum=make_spectrum("finite-rank", 60, d=30))
        t = make_target("unrealizable", ens, 1.0, seed_stream(1, "t"), tail_energy=0.8)
        lam = ens.spectrum.eigenvalues
        assert float(np.sum(lam * t.tail_coeffs ** 2)) == pytest.approx(0.8, rel=1e-12)
        d = decompose(ens, t, 1.0, clean_test=clean_test)
        assert d.misspec >= 0.8 * (1 - 1e-12)


class TestTargetValuesAndLabels:
    def test_clean_values(self):
        ens = mk_ensemble(15, 30)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(7, "t"))
        np.testing.assert_array_equal(target_train_values(t, ens), ens.Z @ t.beta_star)

    def test_noisy_values_use_noisy_design(self):
        ens = mk_ensemble(15, 30, alpha=0.3, seed=7)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(7, "t"))
        f = target_train_values(t, ens)
        np.testing.assert_array_equal(f, ens.design @ t.beta_star)
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
        want = ens.Z @ t.beta_star + ens.phi @ t.tail_coeffs
        np.testing.assert_allclose(target_train_values(t, ens), want, rtol=1e-12)

    def test_label_model_validation(self):
        # a negative or undefined label variance is refused, not turned into a
        # negative or NaN risk
        ens = mk_ensemble(10, 30)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        for sigma_sq in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_sq must be finite and >= 0"):
                decompose(ens, t, sigma_sq)


class TestMakeTestFeatures:
    """The sampled reference's test points (`draw_test_sample`)."""

    def test_clean_ensemble_has_single_row_set(self):
        ens = mk_ensemble(10, 20)
        tf = draw_test_sample(ens, 50, seed_stream(11, "tf"))
        assert tf.m == 50
        np.testing.assert_array_equal(tf.predictor, tf.clean)
        np.testing.assert_array_equal(tf.target_rows, tf.clean)

    def test_noisy_predictor_rows_perturbed(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = draw_test_sample(ens, 50, seed_stream(12, "tf"))
        assert not np.array_equal(tf.predictor, tf.clean)

    def test_clean_test_flag(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = draw_test_sample(ens, 50, seed_stream(12, "tf"), clean_test=True)
        np.testing.assert_array_equal(tf.predictor, tf.clean)

    def test_target_noise_shared(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = draw_test_sample(ens, 50, seed_stream(13, "tf"), target_noise="shared")
        np.testing.assert_array_equal(tf.target_rows, tf.predictor)

    def test_target_noise_fresh_is_independent(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = draw_test_sample(ens, 50, seed_stream(13, "tf"), target_noise="fresh")
        assert not np.array_equal(tf.target_rows, tf.predictor)
        assert not np.array_equal(tf.target_rows, tf.clean)

    def test_target_noise_clean(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        tf = draw_test_sample(ens, 50, seed_stream(13, "tf"), target_noise="clean")
        np.testing.assert_array_equal(tf.target_rows, tf.clean)

    def test_target_noise_validation(self):
        ens = mk_ensemble(10, 20)
        with pytest.raises(ValueError, match="target_noise"):
            draw_test_sample(ens, 5, seed_stream(0), target_noise="dirty")

    def test_determinism(self):
        ens = mk_ensemble(10, 20, alpha=0.3, seed=1)
        a = draw_test_sample(ens, 20, seed_stream(14, "tf"))
        b = draw_test_sample(ens, 20, seed_stream(14, "tf"))
        np.testing.assert_array_equal(a.predictor, b.predictor)
        np.testing.assert_array_equal(a.target_rows, b.target_rows)


class TestBiasTerm:
    """decompose's bias piece."""

    def test_full_column_rank_kills_bias(self):
        # s <= n with generic gaussian features: nothing outside the row space
        ens = mk_ensemble(40, 12)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(15, "t"))
        tf = draw_test_sample(ens, 100, seed_stream(15, "tf"))
        assert closed_form(ens, t, tf).bias <= 1e-20
        assert closed_form(ens, t).bias <= 1e-20

    def test_beta_in_row_space_kills_bias(self):
        ens = mk_ensemble(20, 50)
        w = seed_stream(16, "coef").standard_normal(20)
        beta = ens.Z.T @ w
        t = TargetFunction(mode="realizable-clean", beta_star=beta,
                           tail_coeffs=None, norm=float(np.linalg.norm(beta)))
        tf = draw_test_sample(ens, 100, seed_stream(16, "tf"))
        assert closed_form(ens, t, tf).bias <= 1e-20
        assert closed_form(ens, t).bias <= 1e-20

    def test_small_instance_matches_pinv_oracle(self):
        ens = mk_ensemble(2, 3, p=6, seed=17)
        t = make_target("realizable-clean", ens, 1.5, seed_stream(17, "t"))
        tf = draw_test_sample(ens, 3, seed_stream(17, "tf"))
        Z = np.asarray(ens.design, dtype=float)
        pib = sla.pinv(Z) @ (Z @ t.beta_star) - t.beta_star
        vals = (tf.predictor @ pib) ** 2
        d = closed_form(ens, t, tf)
        np.testing.assert_allclose(d.bias, vals.mean(), rtol=1e-10)
        np.testing.assert_allclose(d.bias_se, vals.std(ddof=1) / math.sqrt(3), rtol=1e-10)
        # over the population, E[z z^T] = W^T Lambda W / s
        W = ens.weights
        A = np.sqrt(ens.spectrum.eigenvalues)[:, None] * W / math.sqrt(3)
        np.testing.assert_allclose(closed_form(ens, t).bias, float(np.sum((A @ pib) ** 2)),
                                   rtol=1e-10)


class TestVarianceClosed:
    """decompose's closed-form variance, over test samples and the population."""

    def test_scalar_identity(self):
        ens = identity_ensemble([[1.0]])
        for test in (rows_sample([[1.0]]), None):
            assert closed_form(ens, zero_target(1), test).variance == 1.0

    def test_identity_design(self):
        # Z = I: each basis test row contributes exactly sigma^2, and the
        # population (E[z z^T] = I) sums the four of them
        ens = identity_ensemble(np.eye(4))
        t = zero_target(4)
        for test, want in ((rows_sample(np.eye(4)), 2.5), (None, 4 * 2.5)):
            d = measure(ens, t, 2.5, test)
            assert d.variance == pytest.approx(want, rel=1e-14)

    def test_sample_route_matches_pinv_oracle(self):
        for seed, (n, s) in enumerate([(5, 9), (9, 5), (12, 12)]):
            rng = seed_stream(19, "v", seed)
            ens = identity_ensemble(rng.standard_normal((n, s)))
            rows = rng.standard_normal((30, s))
            want = float(np.mean(quadratic_oracle(ens.design, rows)))
            d = sampled_decompose(ens, zero_target(s), 1.3, rows_sample(rows))
            np.testing.assert_allclose(d.variance, 1.3 * want, rtol=1e-10)
            d = decompose(ens, zero_target(s), 1.3)
            pinv = sla.pinv(np.asarray(ens.design))
            np.testing.assert_allclose(d.variance, 1.3 * float(np.sum(pinv * pinv)),
                                       rtol=1e-10)

    def test_rank_zero(self):
        ens = identity_ensemble(np.zeros((3, 4)))
        for test in (rows_sample(np.eye(4)), None):
            assert closed_form(ens, zero_target(4), test).variance == 0.0

    def test_population_noise_term_explicit(self):
        # the feature-noise part adds sigma0^2/s * sum of inverse squared
        # singular values, on top of the clean population term
        ens = mk_ensemble(15, 40, alpha=0.5, seed=20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(20, "t"))
        base = decompose(ens, t, 2.0, clean_test=True).variance
        with_noise = decompose(ens, t, 2.0).variance
        sv = sla.svdvals(np.asarray(ens.design, dtype=float))
        sv = sv[sv > 1e-12]
        extra = 2.0 * ens.noise_spec.sigma0_sq / 40 * float(np.sum(1.0 / sv ** 2))
        np.testing.assert_allclose(with_noise - base, extra, rtol=1e-9)

    def test_population_matches_sample_monte_carlo(self):
        ens = mk_ensemble(25, 70, p=140, alpha=0.5, seed=6)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(6, "t"))
        m = 40_000
        tf = draw_test_sample(ens, m, seed_stream(6, "pop"))
        v_pop = closed_form(ens, t).variance
        vals = quadratic_oracle(ens.design, tf.predictor)
        d = closed_form(ens, t, tf)
        np.testing.assert_allclose(d.variance, vals.mean(), rtol=1e-10)
        se = vals.std(ddof=1) / math.sqrt(m)
        assert abs(d.variance - v_pop) <= 4 * se


class TestVarianceMc:
    """The sampled reference's monte-carlo variance, which redraws the labels."""

    def test_zero_label_noise_is_exactly_zero(self):
        ens = mk_ensemble(12, 30)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(21, "t"))
        tf = draw_test_sample(ens, 40, seed_stream(21, "tf"))
        d = sampled_decompose(ens, t, 0.0, tf, seed_stream(21, "v"), 50)
        assert d.variance == 0.0 and d.variance_se == 0.0
        assert decompose(ens, t, 0.0).variance == 0.0

    def test_exact_sigma_scaling_same_stream(self):
        # the same underlying normal draws are scaled by sigma, so the
        # empirical variance scales by exactly sigma^2
        ens = mk_ensemble(30, 80, alpha=0.5, seed=2)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(2, "t"))
        tf = draw_test_sample(ens, 200, seed_stream(2, "tf"))
        d1 = sampled_decompose(ens, t, 1.0, tf, seed_stream(41, "v"), 300)
        d4 = sampled_decompose(ens, t, 4.0, tf, seed_stream(41, "v"), 300)
        np.testing.assert_allclose(d4.variance, 4.0 * d1.variance, rtol=1e-12)

    def test_matches_closed_form(self):
        for seed in range(3):
            ens = mk_ensemble(25, 60, alpha=0.5, seed=seed)
            t = make_target("realizable-noisy", ens, 1.0, seed_stream(seed, "t"))
            tf = draw_test_sample(ens, 2000, seed_stream(seed, "tf"))
            vc = closed_form(ens, t, tf).variance
            d = sampled_decompose(ens, t, 1.0, tf, seed_stream(seed, "v"), 4000)
            assert abs(d.variance - vc) <= 0.05 * vc + 3 * d.variance_se

    def test_trials_validation(self):
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        tf = draw_test_sample(ens, 5, seed_stream(0, "tf"))
        with pytest.raises(ValueError, match="redraws"):
            sampled_decompose(ens, t, 1.0, tf, seed_stream(0), 1)


class TestExcessRiskMc:
    """The total risk: the sampled reference's monte-carlo one, which redraws
    the labels, and decompose's exact one."""

    def test_noiseless_full_column_rank_fit_is_exact(self):
        # rank-s design recovers beta exactly from noiseless labels
        ens = mk_ensemble(40, 12)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(22, "t"))
        tf = draw_test_sample(ens, 100, seed_stream(22, "tf"))
        assert sampled_decompose(ens, t, 0.0, tf, seed_stream(22, "e"), 5).total <= 1e-20
        assert decompose(ens, t, 0.0).total <= 1e-20

    def test_scalar_hand_value(self):
        # one point, one feature, Z = [[1]]: the fit returns y, and
        # E[(y - f*)^2] is the label variance
        ens = identity_ensemble([[1.0]])
        t = TargetFunction(mode="realizable-clean", beta_star=np.array([0.5]),
                           tail_coeffs=None, norm=0.5)
        trials = 50_000
        d = sampled_decompose(ens, t, 1.0, rows_sample([[1.0]]), seed_stream(0, "e"), trials)
        # chi^2 mean concentrates at rate sqrt(2/trials)
        assert abs(d.total - 1.0) <= 5 * math.sqrt(2 / trials)
        assert decompose(ens, t, 1.0).total == 1.0

    def test_trials_validation(self):
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        tf = draw_test_sample(ens, 5, seed_stream(0, "tf"))
        with pytest.raises(ValueError, match="redraws"):
            sampled_decompose(ens, t, 1.0, tf, seed_stream(0), 0)


def tiny_misspec_instance(train_cov):
    """Two eigendirections, one feature that sees only the first; the target
    lives entirely in the second.  The four test points' eigenfeatures have
    second moment I = Lambda, so their sample is the population exactly."""
    sp = make_spectrum("custom", 2, eigenvalues=[1.0, 1.0])
    W = sample_weights(2, 1, seed_stream(0))
    W[:] = np.array([[1.0], [0.0]])
    ens = build_ensemble(sp, MODE,
                         eigenfeature_matrix(sp, MODE, np.asarray(train_cov, dtype=float)), W)
    t = TargetFunction(mode="unrealizable", beta_star=np.zeros(1),
                       tail_coeffs=np.array([0.0, 1.0]), norm=0.0)
    phi = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    clean = phi @ W
    tf = TestSample(phi=phi, clean=clean, predictor=clean, target_rows=clean)
    return ens, t, tf


def noiseless(ens, t, test):
    return measure(ens, t, 0.0, test)


class TestMisspecTerm:
    """decompose's misspecification piece."""

    def test_realizable_target_gives_zero(self):
        ens = mk_ensemble(15, 10)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(23, "t"))
        tf = draw_test_sample(ens, 200, seed_stream(23, "tf"))
        for test in (tf, None):
            d = measure(ens, t, 1.0, test)
            assert d.misspec == 0.0 and se(d, "misspec") == 0.0

    def test_hand_instance_pure_tail(self):
        # training rows orthogonal to the tail: no leakage, unit distance
        ens, t, tf = tiny_misspec_instance([[1.0, 0.0], [0.0, 1.0]])
        for test in (tf, None):
            d = noiseless(ens, t, test)
            assert d.bias == 0.0
            assert d.misspec == 1.0 and se(d, "misspec") == 0.0
            assert d.total == 1.0

    def test_hand_instance_with_leakage(self):
        # first training point mixes both directions: the fit leaks exactly
        # one unit of tail energy through the pseudoinverse, which the bias
        # holds on top of the unit distance
        ens, t, tf = tiny_misspec_instance([[1.0, 1.0], [0.0, 1.0]])
        for test in (tf, None):
            d = noiseless(ens, t, test)
            assert d.bias == pytest.approx(1.0, rel=1e-12)
            assert d.misspec == pytest.approx(1.0, rel=1e-12)
            assert d.total == pytest.approx(2.0, rel=1e-12)

    def test_shrinks_as_features_accumulate(self):
        # fixed component, growing feature count: the span captures more of
        # it, so the median distance of what each span leaves must fall
        p = 256
        sp = make_spectrum("polynomial", p, gamma=2.0)
        c = seed_stream(99, "tail").standard_normal(p)
        lam = sp.eigenvalues
        sqrt_lam = np.sqrt(lam)
        c = c / math.sqrt(float(np.sum(lam * c * c)))
        medians = {}
        for s in (8, 32, 128):
            tots = []
            for seed in range(20):
                X = sample_covariates(MODE, 64, seed_stream(seed, "cov", s), p=p)
                W = sample_weights(p, s, seed_stream(seed, "w", s))
                ens = build_ensemble(sp, MODE, eigenfeature_matrix(sp, MODE, X), W)
                # c's part outside this span in the population inner product,
                # not renormalized: its energy is c's distance from the span
                coef, *_ = np.linalg.lstsq(sqrt_lam[:, None] * W, sqrt_lam * c, rcond=None)
                t = TargetFunction(mode="unrealizable", beta_star=np.zeros(s),
                                   tail_coeffs=c - W @ coef, norm=0.0)
                tots.append(closed_form(ens, t).misspec)
            medians[s] = float(np.median(tots))
        assert medians[8] > medians[32] > medians[128]

    def test_tail_with_a_span_component_is_refused(self):
        # M = tail energy + the fit's in-span risk only holds for a tail
        # orthogonal to the span; the unprojected c is not
        p, s = 256, 8
        sp = make_spectrum("polynomial", p, gamma=2.0)
        X = sample_covariates(MODE, 64, seed_stream(0, "cov"), p=p)
        W = sample_weights(p, s, seed_stream(0, "w"))
        ens = build_ensemble(sp, MODE, eigenfeature_matrix(sp, MODE, X), W)
        t = TargetFunction(mode="unrealizable", beta_star=np.zeros(s),
                           tail_coeffs=seed_stream(99, "tail").standard_normal(p), norm=0.0)
        with pytest.raises(ValueError, match="not orthogonal"):
            closed_form(ens, t)

    def test_noisy_test_features_need_the_stored_fit(self):
        # a hand-built target carries no best in-span fit, and one drawn on a
        # noiseless ensemble or at another noise level carries none for q_p
        ens = mk_ensemble(20, 40, p=120, alpha=0.5, seed=3)
        t = make_target("unrealizable", ens, 1.0, seed_stream(3, "t"))
        bare = dataclasses.replace(t, b_star=None, rho_sq=0.0, fit_q=0.0)
        other = mk_ensemble(20, 40, p=120, alpha=0.25, seed=3)
        for ensemble, target in [(ens, bare), (other, t)]:
            with pytest.raises(ValueError, match="no best in-span fit"):
                closed_form(ensemble, target)
            # clean test features need none: b* = beta*
            d = decompose(ensemble, target, 1.0, clean_test=True)
            assert d.misspec == pytest.approx(float(np.sum(
                ensemble.spectrum.eigenvalues * t.tail_coeffs ** 2)), rel=1e-12)


class TestDecompose:
    def test_identity_monte_carlo(self):
        # R = B + V: up to redraw and test-sampling noise on the sampled
        # reference's redrawn labels, exactly over the population
        for (n, s) in [(20, 30), (20, 80), (50, 200)]:
            for seed in (0, 1):
                ens = mk_ensemble(n, s, seed=seed)
                t = make_target("realizable-clean", ens, 1.0, seed_stream(seed, "t"))
                tf = draw_test_sample(ens, 1500, seed_stream(seed, "tf"))
                d = sampled_decompose(ens, t, 1.0, tf, seed_stream(seed, "d"), 2000)
                gap = abs(d.total - d.bias - d.variance)
                comb = math.sqrt(d.bias_se ** 2 + d.variance_se ** 2 + d.total_se ** 2)
                assert gap <= 3 * comb
                d = decompose(ens, t, 1.0)
                assert d.total == d.bias + d.variance

    def test_identity_closed_form_exact(self):
        ens = mk_ensemble(30, 90, seed=3)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(3, "t"))
        tf = draw_test_sample(ens, 400, seed_stream(3, "tf"))
        for test in (tf, None):
            d = measure(ens, t, 0.7, test)
            assert abs(d.total - d.bias - d.variance) <= 1e-12 * d.total

    @pytest.mark.parametrize("mode,alpha,p", [
        ("realizable-clean", None, 80), ("realizable-noisy", 0.5, 80),
        ("unrealizable", 0.5, 120)])
    def test_population_total_is_the_sum_to_the_bit(self, mode, alpha, p):
        # a sweep row's se columns read 0, so the benchmark's se bracket has
        # no slack: the split must add up exactly, with and without label noise
        ens = mk_ensemble(20, 40, p=p, alpha=alpha, seed=28)
        t = make_target(mode, ens, 1.0, seed_stream(28, "t"))
        for sigma_sq in (0.7, 0.0):
            d = decompose(ens, t, sigma_sq)
            assert d.total == d.bias + d.variance + d.misspec

    def test_closed_form_variance_linearity(self):
        ens = mk_ensemble(25, 70, seed=4)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(4, "t"))
        tf = draw_test_sample(ens, 300, seed_stream(4, "tf"))
        for test in (tf, None):
            d1 = measure(ens, t, 1.0, test)
            d4 = measure(ens, t, 4.0, test)
            np.testing.assert_allclose(d4.variance, 4.0 * d1.variance, rtol=1e-12)
            assert d4.bias == d1.bias

    def test_population_bias_invariant_under_sigma(self):
        # the bias does not read the label noise; the variance is linear in it
        ens = mk_ensemble(30, 100, alpha=0.5, seed=9)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(9, "t"))
        d1 = decompose(ens, t, 1.0)
        d2 = decompose(ens, t, 100.0)
        assert d1.bias == d2.bias
        np.testing.assert_allclose(d2.variance, 100.0 * d1.variance, rtol=1e-9)

    def test_population_agrees_with_the_sampled_reference_when_clean(self):
        ens = mk_ensemble(40, 120, seed=7)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(7, "t"))
        d_s = closed_form(ens, t)
        d_m = closed_form(ens, t, draw_test_sample(ens, 3000, seed_stream(13, "x")))
        assert_agree_within_4se(d_s, d_m)

    @pytest.mark.parametrize("clean_test,target_noise,family,mode,target_mode", [
        pytest.param(clean_test, target_noise, "gaussian", MODE, "realizable-noisy",
                     id=f"{clean_test}-{target_noise}")
        for clean_test in (False, True) for target_noise in ("fresh", "shared", "clean")] + [
        pytest.param(False, "fresh", family, MODE, "realizable-noisy",
                     id=f"False-fresh-{family}")
        for family in ("rademacher", "uniform")] + [
        pytest.param(clean_test, "shared", "gaussian", mode, target_mode,
                     id=f"{mode}-{target_mode}-{clean_test}")
        for mode, target_mode in (("fourier", "realizable-noisy"), (MODE, "unrealizable"),
                                  ("fourier", "unrealizable"))
        for clean_test in (False, True)])
    def test_population_agrees_with_the_sampled_reference_when_noisy(
            self, clean_test, target_noise, family, mode, target_mode):
        ens = mk_ensemble(40, 120, alpha=0.5, seed=8, family=family, mode=mode)
        t = make_target(target_mode, ens, 1.0, seed_stream(8, "t"))
        flags = dict(clean_test=clean_test, target_noise=target_noise)
        # label noise integrated on both routes, so only the test sample differs
        d_s = decompose(ens, t, 1.0, **flags)
        tf = draw_test_sample(ens, 3000, seed_stream(13, "x"), **flags)
        d_m = sampled_decompose(ens, t, 1.0, tf, **flags)
        assert_agree_within_4se(d_s, d_m)

    @pytest.mark.parametrize("alpha", [None, 0.5])
    @pytest.mark.parametrize("s", [20, 40, 90])
    def test_population_split_is_stable_under_rounding(self, s, alpha):
        # n = 40, so s < n, s = n and s > n: a 1e-13 nudge of W moves the
        # exact split by rounding only.  Tolerances are relative to R: a clean
        # fit of full column rank has a bias of rounding, ~1e-31
        n, p, seed = 40, 200, 5
        mode = "realizable-clean" if alpha is None else "realizable-noisy"
        splits = []
        for jitter in (0.0, 1e-13):
            ens = mk_ensemble(n, s, p=p, alpha=alpha, seed=seed, jitter=jitter)
            t = make_target(mode, ens, 1.0, seed_stream(seed, "t"))
            d = decompose(ens, t, 1.0)
            splits.append([d.bias, d.variance, d.total])
        np.testing.assert_allclose(splits[1], splits[0], rtol=1e-9, atol=1e-9 * splits[0][2])

    @pytest.mark.parametrize("s", [75, 100, 133])
    def test_population_risk_at_the_peak_is_stable_under_rtol(self, monkeypatch, s):
        # n = 100: at s = n the design is nearly singular (smallest kept
        # singular value ~1e-5 of the top), yet the rank cutoff sits far from
        # every singular value, so scaling it 100x either way moves nothing
        args, kwargs = preset_cell(monkeypatch, s)
        runs = []
        for k in (1.0, 0.01, 100.0):
            monkeypatch.setattr(estimator_mod, "default_rtol",
                                lambda n, s, k=k: k * default_rtol(n, s))
            runs.append(decompose_cell(args, **kwargs))
        assert runs[0].rank == min(100, s)
        for d in runs[1:]:
            assert d == runs[0]

    @pytest.mark.parametrize("mode,target_noise", [
        ("realizable-noisy", "shared"), ("realizable-noisy", "fresh"), ("unrealizable", "fresh")])
    def test_total_is_the_expected_risk_of_the_refit_labels(self, mode, target_noise):
        # the fit of labels y + eps is P (y + eps), P the pseudoinverse by
        # LAPACK's pinv, and its population risk is ||A w - t||^2 + q||w||^2 -
        # 2 q_x w.beta + q_t||beta||^2; over eps ~ N(0, sigma^2 I) that
        # averages to the risk of P y plus sigma^2 (||A P||_F^2 + q ||P||_F^2)
        n, s, sigma_sq = 20, 40, 0.8
        ens = mk_ensemble(n, s, p=120, alpha=0.5, seed=31)
        t = make_target(mode, ens, 1.0, seed_stream(31, "t"))
        d = decompose(ens, t, sigma_sq, target_noise=target_noise)
        sqrt_lam = np.sqrt(ens.spectrum.eigenvalues)
        A = sqrt_lam[:, None] * ens.weights / math.sqrt(s)
        target_vals = A @ t.beta_star
        if mode == "unrealizable":
            target_vals = target_vals + sqrt_lam * t.tail_coeffs
        q = ens.noise_spec.entry_variance
        q_t = q if mode == "realizable-noisy" else 0.0
        q_x = q_t if target_noise == "shared" else 0.0
        P = sla.pinv(np.asarray(ens.design))
        w = P @ target_train_values(t, ens)
        risk = float(np.sum((A @ w - target_vals) ** 2)) + q * (w @ w) \
            - 2 * q_x * (w @ t.beta_star) + q_t * (t.beta_star @ t.beta_star)
        noise = sigma_sq * (float(np.sum((A @ P) ** 2)) + q * float(np.sum(P * P)))
        np.testing.assert_allclose(d.variance, noise, rtol=1e-9)
        np.testing.assert_allclose(d.total, risk + noise, rtol=1e-9)

    def test_monte_carlo_variance_tracks_closed_form(self):
        # the sampled reference's two label-noise routes over one test sample
        ens = mk_ensemble(30, 80, alpha=0.5, seed=2)
        t = make_target("realizable-noisy", ens, 1.0, seed_stream(2, "t"))
        tf = draw_test_sample(ens, 2500, seed_stream(2, "tf"))
        dc = sampled_decompose(ens, t, 1.0, tf)
        dm = sampled_decompose(ens, t, 1.0, tf, seed_stream(30, "m"), 3000)
        assert dm.bias == dc.bias
        assert abs(dm.variance - dc.variance) <= 0.05 * dc.variance + 3 * dm.variance_se

    def test_unrealizable_misspec_matches_standalone(self):
        # M against a standalone population least squares, and the sample's
        # misspec rows against the same best in-span fit
        ens = mk_ensemble(20, 40, p=120, alpha=0.5, seed=24)
        t = make_target("unrealizable", ens, 1.0, seed_stream(24, "t"))
        b, misspec = standalone_best_fit(ens, t, ens.noise_spec.entry_variance)
        d = decompose(ens, t, 1.0)
        np.testing.assert_allclose(d.misspec, misspec, rtol=1e-10)
        assert d.misspec > 0
        tf = draw_test_sample(ens, 600, seed_stream(24, "tf"))
        d_m = sampled_decompose(ens, t, 1.0, tf)
        fst = tf.clean @ t.beta_star + tf.phi @ t.tail_coeffs
        np.testing.assert_allclose(d_m.misspec, np.mean((tf.predictor @ b - fst) ** 2),
                                   rtol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_unrealizable_closed_form_total_adds_only_span_distance(self, seed):
        # the normal equations at the best in-span fit kill the cross term:
        # R = B + V + M exactly, with B holding the residual the fit leaks
        ens = mk_ensemble(20, 40, p=120, alpha=0.5, seed=seed)
        t = make_target("unrealizable", ens, 1.0, seed_stream(seed, "t"))
        d = closed_form(ens, t)
        assert d.bias > 0 and d.misspec > 0
        assert d.total == d.bias + d.variance + d.misspec
        # the risk of u_hat, evaluated directly, is that sum
        f = svd_factors(ens.design)
        u_hat = f.apply_pinv(target_train_values(t, ens))
        sqrt_lam = np.sqrt(ens.spectrum.eigenvalues)
        A = sqrt_lam[:, None] * ens.weights / math.sqrt(40)
        r = A @ u_hat - A @ t.beta_star - sqrt_lam * t.tail_coeffs
        q = ens.noise_spec.entry_variance
        np.testing.assert_allclose(d.bias + d.misspec, r @ r + q * (u_hat @ u_hat),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n,s,p,mode", [
        (20, 12, 64, "realizable-clean"), (20, 60, 120, "realizable-clean"),
        (20, 12, 64, "unrealizable"), (20, 60, 120, "unrealizable")])
    def test_rank_matches_design_factorization(self, n, s, p, mode):
        ens = mk_ensemble(n, s, p=p, seed=27)
        t = make_target(mode, ens, 1.0, seed_stream(27, "t"))
        d = decompose(ens, t, 1.0)
        assert d.rank == svd_factors(ens.design).rank == min(n, s)
        assert projector_diag(ens.design).null_dim == s - d.rank

    def test_realizable_reports_zero_misspec(self):
        ens = mk_ensemble(20, 40, seed=25)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(25, "t"))
        tf = draw_test_sample(ens, 200, seed_stream(25, "tf"))
        for test in (tf, None):
            d = measure(ens, t, 1.0, test)
            assert d.misspec == 0.0 and se(d, "misspec") == 0.0

    def test_all_target_modes_run(self):
        for mode, alpha, p in [("realizable-clean", None, 80),
                               ("realizable-noisy", 0.5, 80),
                               ("unrealizable", None, 120)]:
            ens = mk_ensemble(15, 40, p=p, alpha=alpha, seed=26)
            t = make_target(mode, ens, 1.0, seed_stream(26, "t"))
            d = decompose(ens, t, 1.0)
            assert d.total >= 0 and d.variance >= 0 and d.bias >= 0

    def test_argument_validation(self):
        # one route: a redraw count, an rng or a method is refused, not ignored
        ens = mk_ensemble(10, 20)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(0, "t"))
        with pytest.raises(TypeError):
            decompose(ens, t, 1.0, 50, seed_stream(0))
        with pytest.raises(TypeError):
            decompose(ens, t, 1.0, method="monte-carlo")

    def test_unknown_target_noise_rejected_on_every_route(self):
        ens = mk_ensemble(10, 20, p=80, alpha=0.5)
        realizable = make_target("realizable-noisy", ens, 1.0, seed_stream(0, "t"))
        unrealizable = make_target("unrealizable", ens, 1.0, seed_stream(0, "t"))
        for target in (realizable, unrealizable):
            with pytest.raises(ValueError, match="target_noise"):
                decompose(ens, target, 1.0, target_noise="dirty")

    @settings(max_examples=20)
    @given(n=st.integers(3, 10), s=st.integers(2, 12), seed=st.integers(0, 30))
    def test_closed_form_identity_property(self, n, s, seed):
        ens = mk_ensemble(n, s, p=24, seed=seed)
        t = make_target("realizable-clean", ens, 1.0, seed_stream(seed, "t"))
        tf = draw_test_sample(ens, 25, seed_stream(seed, "tf"))
        for test in (tf, None):
            d = measure(ens, t, 0.5, test)
            assert d.bias >= 0 and d.variance >= 0
            assert abs(d.total - d.bias - d.variance) <= 1e-10 * max(d.total, 1.0)


class TestUnrealizableSolves:
    """make_target's projection and the best in-span fit it solves from the
    projection's own triangle, an unrealizable cell's two least-squares
    solves, against test-side references."""

    @pytest.mark.parametrize("clean_test", [False, True])
    def test_near_square_population_matrix(self, clean_test):
        # p=120, s=110: sqrt(Lambda) W is at its worst conditioned
        n, s, p = 20, 110, 120
        ens = mk_ensemble(n, s, p=p, alpha=0.5, seed=31)
        t = make_target("unrealizable", ens, 1.0, seed_stream(31, "t"))
        sqrt_lam = np.sqrt(ens.spectrum.eigenvalues)
        W = ens.weights
        # the same draws as make_target, projected by lstsq (SVD-based)
        rng = seed_stream(31, "t")
        rng.standard_normal(s)
        c = rng.standard_normal(p)
        coef, *_ = np.linalg.lstsq(sqrt_lam[:, None] * W, sqrt_lam * c, rcond=None)
        ref = sqrt_lam * (c - W @ coef)
        ref /= np.linalg.norm(ref)  # tail_energy 1
        part = sqrt_lam * t.tail_coeffs
        assert np.linalg.norm(part - ref) <= 1e-9 * np.linalg.norm(ref)
        # orthogonal to every feature direction in the population inner product
        A = sqrt_lam[:, None] * W
        overlap = np.linalg.norm(A.T @ part)
        assert overlap <= 1e-10 * np.linalg.norm(A, 2) * np.linalg.norm(part)
        # M against the standalone ridge least squares
        _, misspec = standalone_best_fit(
            ens, t, 0.0 if clean_test else ens.noise_spec.entry_variance)
        d = decompose(ens, t, 1.0, clean_test=clean_test)
        np.testing.assert_allclose(d.misspec, misspec, rtol=1e-10)

    def test_traced_peak_stays_within_the_solve_buffers(self, monkeypatch):
        # The Gram route's buffers: the scaled p x s copy B = sqrt(Lambda) W,
        # H = B^T B and H's factor L, then G formed in H's place and G's
        # factor, 8 p s or 8 s^2 bytes each.  B must go before H is factored
        # and L before G is: until the first Cholesky the peak is B and H,
        # from there to the second H and L, and from there on G and its
        # factor, each with up to 16 s- and p-vectors.  numpy's Cholesky
        # factors a copy of its input in a LAPACK buffer malloc'd out of
        # tracemalloc's sight, so that copy is not counted.  decompose
        # factors nothing as large.
        n, p, s = 20, 400, 360
        ens = mk_ensemble(n, s, p=p, alpha=0.5, seed=5)
        square, copy = 8 * s * s, 8 * p * s
        events = []
        real_chol = np.linalg.cholesky

        def peak(what):
            events.append((what, tracemalloc.get_traced_memory()[1] - base))
            tracemalloc.reset_peak()

        def cholesky(a):
            peak("cholesky")
            return real_chol(a)

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t = make_target("unrealizable", ens, 1.0, seed_stream(5, "t"))
            decompose(ens, t, 1.0)
            peak("end")
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert [what for what, _ in events] == ["cholesky", "cholesky", "end"]
        (_, gram), (_, projection), (_, ridge) = events
        vectors = 16 * 8 * (p + s)
        assert gram <= copy + square + vectors, (gram - copy) / square
        assert projection <= 2 * square + vectors, projection / square
        assert ridge <= 2 * square + vectors, ridge / square


    @pytest.mark.parametrize("route", ["projection", "fit"])
    def test_traced_peak_of_a_qr_fallback_stays_within_its_buffers(self, monkeypatch,
                                                                   route):
        # Each fallback QR runs after the Gram route has released G: the
        # projection's (TAIL_RTOL stubbed to 0 fails the Gram projection's
        # check) on the p x (s+1) matrix [sqrt(Lambda) W | sqrt(Lambda) c],
        # the fit's (alpha 2, where cond(G) is past the switch's limit) on
        # the (p+s) x (s+1) stack.  Until the QR the peak is the larger of
        # the Gram route's B and H and the QR's input.  numpy's QR copies it and
        # factors the copy in a LAPACK buffer of its own, malloc'd out of
        # tracemalloc's sight, so two traced buffers are live until the
        # input is released.  The input must go before the factor: freed
        # the other way round, it stayed resident as heap in every later
        # sweep.  While the factor lives no s x s buffer does, and after it
        # only decompose runs, whose buffers are n x s and p x (n+1).  A
        # finalizer runs before its array's memory goes, so each window
        # after one counts the released array too.  The stack's fill writes
        # a strided block, for which numpy's ufunc loop allocates two
        # buffers of np.getbufsize() doubles.
        n, p, s = 20, 400, 360
        alpha, m = (0.5, p) if route == "projection" else (2.0, p + s)
        ens = mk_ensemble(n, s, p=p, alpha=alpha, seed=5)
        square, copy = 8 * s * s, 8 * p * s
        events = []
        real_qr = np.linalg.qr

        def released(what):
            events.append((what, tracemalloc.get_traced_memory()[1] - base))
            tracemalloc.reset_peak()

        def qr(a, mode="reduced"):
            released("qr")
            weakref.finalize(a, released, "input")
            out = real_qr(a, mode=mode)
            # the raw factor is a transposed view: watch the array that owns
            # its memory, which a view of the factor keeps alive
            weakref.finalize(out[0].base, released, "factor")
            return out

        if route == "projection":
            monkeypatch.setattr(risk_mod, "TAIL_RTOL", 0.0)
        monkeypatch.setattr(np.linalg, "qr", qr)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t = make_target("unrealizable", ens, 1.0, seed_stream(5, "t"))
            decompose(ens, t, 1.0)
            released("end")
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert [what for what, _ in events] == ["qr", "input", "factor", "end"]
        peaks = dict(events)
        factor = 8 * m * (s + 1)
        vectors = 16 * 8 * (m + s) + 2 * 8 * np.getbufsize()
        assert peaks["qr"] <= max(copy + square, factor) + vectors, peaks["qr"] / square
        assert peaks["input"] <= 2.25 * factor, peaks["input"] / factor
        # the input, counted as it goes, and the factor
        assert peaks["factor"] <= 2 * factor + vectors, (peaks["factor"] - factor) / square
        # the factor, counted as it goes, and decompose
        decomposed = 4 * 8 * (n * s + p * (n + 1))
        assert peaks["end"] <= factor + decomposed + vectors, \
            (peaks["end"] - factor) / decomposed


class TestBestInSpanFit:
    """An unrealizable target's b* and M: the ridge fit make_target solves
    on the Gram H it factors for the projection, against lstsq on
    [A; sqrt(q) I]."""

    @staticmethod
    def cell(monkeypatch, s, p, alpha, family, clean_test):
        """(ensemble, target, decomposition, the b* decompose measured
        against, np.linalg.qr calls, np.linalg.cholesky calls) of one
        closed-form cell."""
        ens = mk_ensemble(20, s, p=p, alpha=alpha, family=family, seed=s)
        calls, refs = {"qr": 0, "cholesky": 0}, []
        real_qr, real_chol = np.linalg.qr, np.linalg.cholesky
        real_split = risk_mod._population_split

        def qr(a, mode="reduced"):
            calls["qr"] += 1
            return real_qr(a, mode=mode)

        def cholesky(a):
            calls["cholesky"] += 1
            return real_chol(a)

        def split(*args):
            refs.append(args[3])
            return real_split(*args)

        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        monkeypatch.setattr(risk_mod, "_population_split", split)
        t = make_target("unrealizable", ens, 1.0, seed_stream(s, "t"))
        d = decompose(ens, t, 1.0, clean_test=clean_test)
        return ens, t, d, refs[0], calls["qr"], calls["cholesky"]

    @staticmethod
    def kappa(ens):
        """The ridge switch's first bound on cond(G): 1 + tr(H) / (s q), with
        tr(H) = ||sqrt(Lambda) W||_F^2."""
        W = ens.weights
        fro_sq = float(ens.spectrum.eigenvalues @ np.einsum("ij,ij->i", W, W))
        return 1.0 + fro_sq / (ens.s * ens.noise_spec.entry_variance)

    @staticmethod
    def cond_g(ens):
        """cond(G) of G = A^T A + q I, from the singular values of A."""
        A = np.sqrt(ens.spectrum.eigenvalues)[:, None] * ens.weights / math.sqrt(ens.s)
        sv = np.linalg.svd(A, compute_uv=False)
        q = ens.noise_spec.entry_variance
        return (sv[0] ** 2 + q) / (sv[-1] ** 2 + q)

    @pytest.mark.parametrize("s,p", [(110, 120), (12, 200)])
    @pytest.mark.parametrize("family", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("clean_test", [False, True])
    def test_noisy_ensemble_matches_standalone(self, monkeypatch, s, p, family, clean_test):
        ens, t, d, b, qr_calls, chol_calls = self.cell(monkeypatch, s, p, 0.5, family,
                                                       clean_test)
        q = 0.0 if clean_test else ens.noise_spec.entry_variance
        b_ref, m_ref = standalone_best_fit(ens, t, q)
        assert np.linalg.norm(b - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        np.testing.assert_allclose(d.misspec, m_ref, rtol=1e-10)
        # the fit is solved once, with the target, whatever the test side:
        # H's Cholesky for the projection and G's for the ridge step, no QR
        assert (qr_calls, chol_calls) == (0, 2)
        if clean_test:
            assert b is t.beta_star
            tail = float(np.sum(ens.spectrum.eigenvalues * t.tail_coeffs ** 2))
            np.testing.assert_allclose(d.misspec, tail, rtol=1e-12)
        else:
            assert b is t.b_star and t.fit_q == q

    @pytest.mark.parametrize("s,alpha,side", [(110, 0.5, "cholesky"), (110, 1.665, "cholesky"),
                                              (110, 1.71, "qr"), (110, 2.0, "qr"),
                                              (110, 8.0, "qr"), (60, 8.0, "qr")])
    def test_ridge_switch_sides_match_standalone(self, monkeypatch, s, alpha, side):
        # p=120: kappa = 1 + tr(H) / (s q) is 1.7e3 at s = 110, alpha 0.5,
        # 0.90x the switch's limit GRAM_RTOL / eps = 4.5e5 at alpha 1.665 and
        # 1.11x at alpha 1.71, 2.0e6 at alpha 2, 3.5e18 at alpha 8 and 1.5e16
        # at s = 60, alpha 8.  cond(G) itself is 2.0e5 and 2.4e5 at the edge,
        # and 6.0e5, 1.3e6 and 1.8e4 past it: the switch reads kappa alone,
        # so the well-conditioned s = 60 fit takes the QR too
        ens, t, d, b, qr_calls, chol_calls = self.cell(monkeypatch, s, 120, alpha,
                                                       "gaussian", False)
        limit = GRAM_RTOL / np.finfo(float).eps
        assert (self.kappa(ens) <= limit) == (side == "cholesky")
        assert self.cond_g(ens) <= self.kappa(ens)
        # the QR side: H's Cholesky still does the projection, G is never
        # formed, and the fit alone takes the stack QR
        assert (qr_calls, chol_calls) == ((0, 2) if side == "cholesky" else (1, 1))
        b_ref, m_ref = standalone_best_fit(ens, t, ens.noise_spec.entry_variance)
        assert np.linalg.norm(b - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        np.testing.assert_allclose(d.misspec, m_ref, rtol=1e-10)

    def test_failed_cholesky_takes_the_stack_qr(self, monkeypatch):
        def refuse(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        ens, t, d, b, qr_calls, chol_calls = self.cell(monkeypatch, 110, 120, 0.5, "gaussian",
                                                       False)
        # H's Cholesky and G's, both refused: the projection's QR and the
        # stack QR
        assert (qr_calls, chol_calls) == (2, 2)
        b_ref, m_ref = standalone_best_fit(ens, t, ens.noise_spec.entry_variance)
        assert np.linalg.norm(b - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        np.testing.assert_allclose(d.misspec, m_ref, rtol=1e-10)

    @pytest.mark.parametrize("handover", ["h-cholesky", "orthogonality", "steep"])
    def test_failed_gram_route_takes_the_projection_qr(self, monkeypatch, linalg_calls,
                                                        handover):
        # the QR route runs when H's Cholesky raises (the first Cholesky
        # refused), when the projected tail fails the orthogonality check
        # (TAIL_RTOL stubbed to 0), and on a steep spectrum inside
        # validate's support (exponential, p = 60, support 32, s = 31), where
        # two Cholesky passes leave ||W^T Lambda c|| above TAIL_RTOL
        s, p, spectrum = 110, 120, None
        if handover == "h-cholesky":
            real_chol, first = np.linalg.cholesky, []

            def refuse_first(a):
                if not first:
                    first.append(True)
                    raise np.linalg.LinAlgError("Matrix is not positive definite")
                return real_chol(a)

            monkeypatch.setattr(np.linalg, "cholesky", refuse_first)
        elif handover == "orthogonality":
            monkeypatch.setattr(risk_mod, "TAIL_RTOL", 0.0)
        else:
            s, p, spectrum = 31, 60, make_spectrum("exponential", 60)
            assert numerical_support(spectrum) == 32
        ens = mk_ensemble(20, s, p=p, alpha=0.5, seed=s, spectrum=spectrum)
        calls = linalg_calls("qr", "cholesky")
        t = make_target("unrealizable", ens, 1.0, seed_stream(s, "t"))
        # H's Cholesky, the ridge step's Cholesky on G, then the projection's
        # QR: the fit does not follow the projection onto the QR
        assert calls == {"qr": 1, "cholesky": 2}
        d = decompose(ens, t, 1.0)
        b_ref, m_ref = standalone_best_fit(ens, t, ens.noise_spec.entry_variance)
        assert np.linalg.norm(t.b_star - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        np.testing.assert_allclose(d.misspec, m_ref, rtol=1e-10)

    @pytest.mark.parametrize("s,p", [(110, 120), (12, 200)])
    @pytest.mark.parametrize("clean_test", [False, True])
    def test_noiseless_ensemble_fits_beta_star(self, monkeypatch, s, p, clean_test):
        ens, t, d, b, qr_calls, chol_calls = self.cell(monkeypatch, s, p, None, "gaussian",
                                                       clean_test)
        assert t.b_star is None and t.rho_sq == 0.0
        assert b is t.beta_star
        tail = float(np.sum(ens.spectrum.eigenvalues * t.tail_coeffs ** 2))
        np.testing.assert_allclose(d.misspec, tail, rtol=1e-12)
        b_ref, m_ref = standalone_best_fit(ens, t, 0.0)
        assert np.linalg.norm(b - b_ref) <= 1e-10 * np.linalg.norm(b_ref)
        np.testing.assert_allclose(d.misspec, m_ref, rtol=1e-10)
        assert (qr_calls, chol_calls) == (0, 1)

    @pytest.mark.parametrize("kind,gamma,p,s", [("polynomial", 6.0, 200, 190),
                                                ("exponential", None, 40, 30)])
    def test_steep_spectrum_tail_passes_the_guard(self, kind, gamma, p, s):
        # one projection leaves ||W^T Lambda c|| at about eps cond(sqrt(Lambda)
        # W) relative, above decompose's 1e-10 on these spectra; make_target's
        # second pass brings it to rounding level
        sp = make_spectrum(kind, p, gamma=gamma)
        ens = mk_ensemble(20, s, alpha=0.5, seed=9, spectrum=sp)
        t = make_target("unrealizable", ens, 1.0, seed_stream(9, "t"))
        d = decompose(ens, t, 1.0)
        _, m_ref = standalone_best_fit(ens, t, ens.noise_spec.entry_variance)
        np.testing.assert_allclose(d.misspec, m_ref, rtol=1e-10)


class TestFactorizationRoute:
    """A wide design's split does not depend on which route factored it."""

    @staticmethod
    def _assert_same_split(monkeypatch, linalg_calls, decompose_once):
        calls = linalg_calls("svd")
        gram = decompose_once()
        assert calls == {"svd": 0}
        with monkeypatch.context() as m:
            m.setattr(risk_mod, "svd_factors", svd_reference)
            forced = decompose_once()
        assert calls == {"svd": 1} and forced.rank == gram.rank
        # both routes are within eps cond(Z)^2 <= GRAM_RTOL of the exact split
        # (spectral.GramEigen)
        for field in ("bias", "variance", "misspec", "total"):
            np.testing.assert_allclose(getattr(gram, field), getattr(forced, field),
                                       rtol=GRAM_RTOL, atol=0, err_msg=field)

    @pytest.mark.parametrize("s", [133, 1000])
    def test_row_space_cell(self, monkeypatch, linalg_calls, s):
        # each call gets its own copy of the cell's weights: the same
        # complement draw, attached to each route's own basis
        args, kwargs = preset_cell(monkeypatch, s)
        assert isinstance(args[0].weights, RowSpaceWeights)
        self._assert_same_split(monkeypatch, linalg_calls,
                                lambda: decompose_cell(args, **kwargs))

    @pytest.mark.parametrize("clean_test", [False, True])
    def test_unrealizable_cell(self, monkeypatch, linalg_calls, clean_test):
        ens = mk_ensemble(40, 300, p=600, alpha=0.5, seed=12)
        t = make_target("unrealizable", ens, 1.0, seed_stream(12, "t"))
        self._assert_same_split(monkeypatch, linalg_calls,
                                lambda: decompose(ens, t, 0.5, clean_test=clean_test))


def law_cell(route, key, n, p, s, target_mode, clean_test, family, mode, kind="polynomial",
             alpha=0.5):
    """(B, V, R) of one closed-form cell whose weights take `route`: the dense
    p x s W, G = R^T W with W's complement drawn by the risk split
    ("row-space"), or the reduced ensemble, m + 1 wide ("reduced").  Its
    draws come from the streams seed_stream(*key, purpose).  The spectrum is
    i^-2, or exp(-i) for kind "exponential"."""
    spectrum = make_spectrum(kind, p, **({"gamma": 2.0} if kind == "polynomial" else {}))
    phi = eigenfeature_matrix(spectrum, mode,
                              sample_covariates(mode, n, seed_stream(*key, "cov"), p=p))
    spec = make_noise_spec(family, alpha, s)
    if route == "dense":
        W = sample_weights(p, s, seed_stream(*key, "w"))
        ens = build_ensemble(spectrum, mode, phi, W, spec, seed_stream(*key, "noise"))
    else:
        G = seed_stream(*key, "w") if route == "reduced" else \
            sample_weights(min(n, p), s, seed_stream(*key, "w"))
        ens = build_ensemble(spectrum, mode, phi, G, spec, seed_stream(*key, "noise"),
                             complement=seed_stream(*key, "wc"))
        assert ens.reduced == (route == "reduced")
    t = make_target(target_mode, ens, 1.0, seed_stream(*key, "t"))
    d = decompose(ens, t, 0.5, clean_test=clean_test)
    return d.bias, d.variance, d.total


# |z| bound on the difference of the two routes' sample means of B, V and R
LAW_Z = 4.0
LAW_DRAWS = 300
# (target mode, clean_test, noise family, covariate mode): each level of each
# factor appears at least once
LAW_CASES = [("realizable-clean", False, "gaussian", "eigencoordinate"),
             ("realizable-noisy", True, "rademacher", "fourier"),
             ("realizable-noisy", False, "rademacher", "eigencoordinate"),
             ("realizable-clean", True, "gaussian", "fourier")]


def assert_same_law(routes, n, p, s, case, kind="polynomial", alpha=0.5):
    """B, V and R of the two routes' cells have the same means, to LAW_Z."""
    # two independent samples: every draw of either route has its own seed;
    # alpha enters the key where it is not the default 0.5
    tag = () if alpha == 0.5 else (repr(alpha),)
    a, b = (np.array([law_cell(route, (11, route, n, p, s, *case, kind, *tag, i), n, p, s,
                               *case, kind, alpha) for i in range(LAW_DRAWS)])
            for route in routes)
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    z = (b.mean(axis=0) - a.mean(axis=0)) / se
    assert np.all(np.abs(z) <= LAW_Z), dict(zip("BVR", z))


class TestRowSpaceRoute:
    """Weights held in the eigenfeature rows' span against the dense W."""

    @pytest.mark.parametrize("s", [10, 40, 200])
    @pytest.mark.parametrize("case", LAW_CASES)
    def test_same_law_as_dense(self, case, s):
        assert_same_law(("dense", "row-space"), 20, 60, s, case)

    @pytest.mark.parametrize("s", [10, 40, 200])
    def test_same_law_as_dense_with_p_below_n(self, s):
        # k = p: the basis spans every eigendirection and the complement is empty
        assert_same_law(("dense", "row-space"), 20, 12, s, LAW_CASES[0])

    @pytest.mark.parametrize("s", [10, 40, 200])
    def test_same_law_as_dense_past_the_switch(self, monkeypatch, s):
        # exp(-i) at n = 20, p = 60 leaves the Gram's condition above 1e9, so
        # every row-space cell takes its basis from the QR of phi^T; the i^-2
        # eigencoordinate cases stay near 1e3, on the eigenpairs' side
        qr_calls = []
        real_qr = np.linalg.qr

        def qr(a, mode="reduced"):
            qr_calls.append(a.shape)
            return real_qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr)
        assert_same_law(("dense", "row-space"), 20, 60, s, LAW_CASES[0], kind="exponential")
        assert qr_calls == [(60, 20)] * LAW_DRAWS

    def test_product_has_the_dense_second_moments(self):
        # for a fixed G and C = [V, e], on a flat spectrum: Y^T Y = (W C)^T
        # (W C) = (G C)^T (G C) + M^T M, where the complement part
        # M = (I - R R^T) W C has E[M^T M] = (p - k) C^T C
        n, p, s, r, draws = 6, 30, 40, 4, 4000
        phi = seed_stream(1, "phi").standard_normal((n, p))
        G = sample_weights(n, s, seed_stream(1, "g"))
        V = np.linalg.qr(seed_stream(1, "v").standard_normal((s, r)))[0]
        e = V @ seed_stream(1, "a").standard_normal(r) \
            + 0.5 * seed_stream(1, "e").standard_normal(s)
        C = np.column_stack([V, e])
        rng = seed_stream(1, "complement")
        R, _ = row_space_factor(phi, gram_eigh(phi))
        GC = G @ C
        gram = np.zeros((r + 1, r + 1))
        for _ in range(draws):
            frame = complement_frame(R, np.ones(p), n, rng)
            WC = RowSpaceWeights(G, frame).times(V, np.eye(n, r), e)
            gram += WC.T @ WC - GC.T @ GC
        # Wishart entries: var((M^T M)_ij) = (p - k) (S_ij^2 + S_ii S_jj), S = C^T C
        S = C.T @ C
        se = np.sqrt((p - n) * (S ** 2 + np.outer(np.diag(S), np.diag(S))) / draws)
        assert np.all(np.abs(gram / draws - (p - n) * S) <= LAW_Z * se)

    def test_product_transforms_with_the_basis(self):
        # (V O, U O) for an orthogonal O: the same complement draw gives the
        # (V, U) product times O, and e's column unchanged, so a factorization
        # that picks other signs or rotates a cluster gives the same row
        n, p, s, r = 6, 30, 40, 4
        phi = seed_stream(3, "phi").standard_normal((n, p))
        G = sample_weights(n, s, seed_stream(3, "g"))
        spectrum = make_spectrum("polynomial", p, gamma=2.0)
        R, _ = row_space_factor(phi, gram_eigh(phi))
        frame = complement_frame(R, spectrum.eigenvalues, n, seed_stream(3, "complement"))
        V = np.linalg.qr(seed_stream(3, "v").standard_normal((s, r)))[0]
        U = np.linalg.qr(seed_stream(3, "u").standard_normal((n, r)))[0]
        O = np.linalg.qr(seed_stream(3, "o").standard_normal((r, r)))[0]
        e = V @ seed_stream(3, "a").standard_normal(r) \
            + 0.5 * seed_stream(3, "e").standard_normal(s)
        WC = RowSpaceWeights(G, frame).times(V, U, e)
        turned = RowSpaceWeights(G, frame).times(V @ O, U @ O, e)
        scale = np.abs(WC).max()
        np.testing.assert_allclose(turned[:, :r], WC[:, :r] @ O, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(turned[:, r], WC[:, r], rtol=0, atol=1e-13 * scale)

    # (spectrum kind, its parameters, n, p, whether CholeskyQR2 certifies T):
    # the preset's i^-2 takes T; exp(-i) and a rank-10 spectrum leave E^T E
    # singular to rounding, and p = 30 < 2n + 1 = 41 makes E wider than tall
    ORACLE_CASES = [("polynomial", {"gamma": 2.0}, 100, 2000, True),
                    ("exponential", {}, 20, 60, False),
                    ("finite-rank", {"d": 10}, 20, 60, False),
                    ("polynomial", {"gamma": 2.0}, 20, 30, False)]

    @pytest.mark.parametrize("kind,params,n,p,triangle", ORACLE_CASES)
    def test_product_matches_the_p_row_product(self, kind, params, n, p, triangle):
        # the frame's product against sqrt(Lambda) W [V, e] built in p rows
        # from the same F and G: R G [V, e] + (I - R R^T) [H1 U, H1 U a + rho h]
        s, r = 3 * n, n - 2
        spectrum = make_spectrum(kind, p, **params)
        phi = eigenfeature_matrix(spectrum, MODE,
                                  sample_covariates(MODE, n, seed_stream(6, "cov"), p=p))
        R, _ = row_space_factor(phi, gram_eigh(phi))
        k = R.shape[1]
        G = sample_weights(k, s, seed_stream(6, "g"))
        V = np.linalg.qr(seed_stream(6, "v").standard_normal((s, r)))[0]
        U = np.linalg.qr(seed_stream(6, "u").standard_normal((n, r)))[0]
        e = V @ seed_stream(6, "a").standard_normal(r) \
            + 0.5 * seed_stream(6, "e").standard_normal(s)
        frame = complement_frame(R, spectrum.eigenvalues, n, seed_stream(6, "wc"))
        assert frame.left.shape == ((k + n + 1, k + n + 1) if triangle else (p, k + n + 1))
        Y = RowSpaceWeights(G, frame).times(V, U, e)

        F = seed_stream(6, "wc").standard_normal((p, n + 1))
        a = V.T @ e
        out = F[:, :n] @ np.column_stack([U, U @ a])
        out[:, r] += np.linalg.norm(e - V @ a) * F[:, n]
        WC = R @ (G @ np.column_stack([V, e])) + out - R @ (R.T @ out)
        X = np.sqrt(spectrum.eigenvalues)[:, None] * WC
        norms = np.linalg.norm(X, axis=0)
        # 1e-12 is 200x the error measured on the CholeskyQR2 side, about 5e-15
        np.testing.assert_allclose(np.linalg.norm(Y, axis=0), norms, rtol=1e-12, atol=0)
        np.testing.assert_array_less(np.abs(Y.T @ Y - X.T @ X),
                                     1e-12 * np.outer(norms, norms))
        # down to E's smallest singular direction, where one Cholesky of
        # E^T E errs most: about 1e-12 on the preset, against 3e-15 for the
        # frame's two passes
        E = np.sqrt(spectrum.eigenvalues)[:, None] * np.column_stack([R, F])
        Vt = np.linalg.svd(E, full_matrices=False)[2]
        np.testing.assert_allclose(np.linalg.norm(frame.left @ Vt.T, axis=0),
                                   np.linalg.norm(E @ Vt.T, axis=0), rtol=1e-12, atol=0)

    def test_second_product_raises(self):
        ens = build_ensemble(make_spectrum("polynomial", 30, gamma=2.0), MODE,
                             seed_stream(2, "phi").standard_normal((6, 30)),
                             sample_weights(6, 40, seed_stream(2, "g")),
                             complement=seed_stream(2, "complement"))
        V = np.linalg.qr(seed_stream(2, "v").standard_normal((40, 3)))[0]
        e = seed_stream(2, "e").standard_normal(40)
        ens.weights.times(V, np.eye(6, 3), e)
        with pytest.raises(RuntimeError, match="already taken"):
            ens.weights.times(V, np.eye(6, 3), e)
        # nor can the sampled reference draw a test sample, which needs the dense W
        with pytest.raises(TypeError):
            draw_test_sample(ens, 5, seed_stream(2, "tf"))


# (target mode, clean_test, covariate mode, alpha) under gaussian noise: each
# level of each factor appears at least once; alpha = inf is the noiseless limit
REDUCED_CASES = [("realizable-clean", False, "eigencoordinate", 0.5),
                 ("realizable-noisy", True, "fourier", 0.5),
                 ("realizable-noisy", False, "fourier", math.inf),
                 ("realizable-clean", True, "eigencoordinate", math.inf)]


class TestReducedRoute:
    """The reduced ensemble, m + 1 wide, against row-space weights s wide."""

    @pytest.mark.parametrize("s", [41, 400])
    @pytest.mark.parametrize("case", REDUCED_CASES)
    def test_same_law_as_row_space(self, case, s):
        # n = 20, p = 60: m = min(n, p) + n = 40, so s = 41 is just past the
        # switch and s = 400 is 10 m
        target_mode, clean_test, mode, alpha = case
        assert_same_law(("row-space", "reduced"), 20, 60, s,
                        (target_mode, clean_test, "gaussian", mode), alpha=alpha)

    @pytest.mark.parametrize("s", [33, 320])
    def test_same_law_as_row_space_with_p_below_n(self, s):
        # k = p = 12: m = 32, and W's complement is empty
        assert_same_law(("row-space", "reduced"), 20, 12, s,
                        ("realizable-noisy", False, "gaussian", "eigencoordinate"))

    def test_ensemble_carries_the_true_s(self):
        n, p, s = 6, 30, 1000
        sp = make_spectrum("polynomial", p, gamma=2.0)
        phi = eigenfeature_matrix(sp, MODE, sample_covariates(MODE, n, seed_stream(4), p=p))
        spec = make_noise_spec("gaussian", 0.5, s)
        ens = build_ensemble(sp, MODE, phi, seed_stream(4, "w"), spec,
                             complement=seed_stream(4, "wc"))
        m = min(n, p) + n
        assert ens.reduced and ens.s == s and ens.width == m + 1
        assert ens.design.shape == (n, m + 1) and ens.weights.coords.shape == (n, m + 1)
        # the last column carries only beta*'s part outside [G; Xi]'s span
        assert not ens.design[:, m:].any() and not ens.weights.coords[:, m:].any()
        t = make_target("realizable-clean", ens, 2.0, seed_stream(4, "t"))
        assert t.beta_star.shape == (m + 1,) and np.linalg.norm(t.beta_star) == \
            pytest.approx(2.0, rel=1e-14)
        d = decompose(ens, t, 0.5)
        assert d.rank == n and d.misspec == 0.0

    @pytest.mark.parametrize("family,s", [("rademacher", 100), ("uniform", 100),
                                          ("gaussian", 12)])
    def test_refused_where_the_law_would_change(self, family, s):
        # rademacher and uniform noise are not rotation invariant, and no
        # Bartlett factor of [G; Xi] exists for s <= m = 12
        sp = make_spectrum("polynomial", 30, gamma=2.0)
        phi = eigenfeature_matrix(sp, MODE, sample_covariates(MODE, 6, seed_stream(5), p=30))
        with pytest.raises(ValueError, match="reduced ensemble"):
            build_ensemble(sp, MODE, phi, seed_stream(5, "w"), make_noise_spec(family, 0.5, s),
                           complement=seed_stream(5, "wc"))
        with pytest.raises(ValueError, match="needs a complement"):
            build_ensemble(sp, MODE, phi, seed_stream(5, "w"),
                           make_noise_spec("gaussian", 0.5, 100))


def route_of(monkeypatch, cfg, s_index):
    """The route of one sweep cell's weights: "dense", "row-space" or
    "reduced", read off the ensemble compute_row hands make_target."""
    def capture(mode, ensemble, *args, **kwargs):
        raise _Captured(ensemble)

    with monkeypatch.context() as m:
        m.setattr(sweep_mod, "make_target", capture)
        with pytest.raises(_Captured) as exc:
            sweep_mod.compute_row(cfg, s_index, 0)
    ens = exc.value.args[0]
    if isinstance(ens.weights, np.ndarray):
        return "dense"
    return "reduced" if ens.reduced else "row-space"


class TestReducedRoutePin:
    """Which preset cells compute_row reduces."""

    def test_preset_grid(self, monkeypatch):
        cfg = preset_config("double-descent-default", {"master_seed": 7})
        routes = {s: route_of(monkeypatch, cfg, i) for i, s in enumerate(cfg.s_grid)}
        assert {s for s, r in routes.items() if r == "reduced"} == \
            {s for s in cfg.s_grid if s >= 237}
        assert all(routes[s] != "reduced" for s in cfg.s_grid if s <= 178)

    @pytest.mark.parametrize("overrides", [{"noise_family": "rademacher"},
                                           {"noise_family": "uniform"},
                                           {"target_mode": "unrealizable"}],
                             ids=["rademacher", "uniform", "unrealizable"])
    def test_never_reduced(self, monkeypatch, overrides):
        # an unrealizable target needs s < p = 2000
        top = 2000 if "target_mode" in overrides else math.inf
        grid = [s for s in PRESETS["double-descent-default"]["s_grid"] if 237 <= s < top]
        cfg = preset_config("double-descent-default",
                            {"master_seed": 7, "s_grid": grid, **overrides})
        want = "dense" if "target_mode" in overrides else "row-space"
        assert [route_of(monkeypatch, cfg, i) for i in range(len(grid))] == [want] * len(grid)

    def test_rows_with_a_tail_index_keep_the_dense_w(self, monkeypatch):
        # unit noise energy (alpha = 0) makes k* exist at every s here, all
        # past m = 40: these rows state the bias bound, whose lambda_W reads W
        cfg = preset_config("double-descent-default",
                            {"master_seed": 3, "n": 20, "p": 200, "alpha": 0.0,
                             "s_grid": [50, 100, 150, 1000]})
        assert all(sweep_mod.compute_row(cfg, i, 0).k_star is not None for i in range(4))
        assert [route_of(monkeypatch, cfg, i) for i in range(4)] == ["dense"] * 4
