"""Excess-risk measurement and its bias / variance / misspecification split.

The risk is measured over the test population exactly.  Given a cell's
training draw, the prediction error at a test point is linear in its
eigenfeatures phi and its feature-noise draw xi, and the second moments are
known: E[phi phi^T] = Lambda in both covariate modes, and E[xi xi^T] =
(sigma0^2 / s) I for every noise family.  So every piece of the split is a
quadratic form over the weights W, the design's one SVD and the
conditional-mean coefficients u_hat.  Label noise is integrated in closed form
or redrawn (monte-carlo); the standard errors then measure the redraw error.
A materialized test sample (`make_test_features`) is the reference measure
the tests check the population route against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .estimator import SvdFactors, svd_factors
from .features import FeatureEnsemble, noise_matrix
from .spectral import eigenfeature_matrix, sample_covariates

TARGET_MODES = ("realizable-clean", "realizable-noisy", "unrealizable")
TARGET_NOISE_MODES = ("shared", "fresh", "clean")


@dataclass(eq=False)
class TargetFunction:
    """Ground-truth regression function.

    realizable-clean : f*(x) = z_x . beta_star on the noiseless features
    realizable-noisy : f*(x) = z_x^noisy . beta_star, sharing the training
                       noise on training points
    unrealizable     : adds an eigenfeature component orthogonal (in the
                       population inner product) to everything the sampled
                       features can express
    """

    mode: str
    beta_star: np.ndarray
    tail_coeffs: np.ndarray | None
    norm: float


@dataclass(eq=False)
class TestFeatures:
    """Materialized test-point features: raw covariates, eigenfeatures, and
    the clean / predictor-side / target-side sampled feature rows."""

    __test__ = False  # keep pytest from collecting this despite the name

    covariates: np.ndarray
    phi: np.ndarray
    clean: np.ndarray
    predictor: np.ndarray
    target_rows: np.ndarray

    @property
    def m(self) -> int:
        return self.clean.shape[0]


@dataclass(frozen=True)
class RiskDecomposition:
    """The risk split total = bias + variance + misspec, with standard errors.

    bias is the risk of the conditional-mean fit u_hat in excess of the best
    in-span fit b*: b* = beta_star for a realizable target, whose misspec is
    0; for an unrealizable target b* minimizes the population risk over the
    feature span, and misspec is that minimum, the target's population
    distance from the span.  variance is the label-noise variance.

    Over the population the split is exact: in closed form total = bias +
    variance + misspec to rounding and every se is 0.  Monte-carlo replaces
    the label-noise part of total and variance by averages over the label
    redraws, with se over the redraws (bias and misspec stay exact, se 0).
    Over a test sample every piece is a sample mean with its se over the
    test points.
    """

    bias: float
    bias_se: float
    variance: float
    variance_se: float
    misspec: float
    misspec_se: float
    total: float
    total_se: float
    method: str  # monte-carlo | closed-form
    rank: int    # numerical rank of the design in the factorization the split used


def make_target(mode: str, ensemble: FeatureEnsemble, norm: float,
                rng: np.random.Generator, *, tail_energy: float = 1.0) -> TargetFunction:
    """Draw a target: beta_star uniform on the radius-`norm` sphere, plus an
    out-of-span component of the requested energy in unrealizable mode."""
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown target mode {mode!r}; expected one of {TARGET_MODES}")
    if norm <= 0:
        raise ValueError("norm must be positive")
    s = ensemble.s
    v = rng.standard_normal(s)
    beta = norm * v / np.linalg.norm(v)
    tail = None
    if mode == "realizable-noisy" and ensemble.Z_noisy is None:
        raise ValueError("realizable-noisy target needs an ensemble with injected noise")
    if mode == "unrealizable":
        p = ensemble.p
        if p <= s:
            raise ValueError("unrealizable target needs p > s so something lies outside the span")
        if tail_energy <= 0:
            raise ValueError("tail_energy must be positive")
        lam = ensemble.spectrum.eigenvalues
        sqrt_lam = np.sqrt(lam)
        c = rng.standard_normal(p)
        # remove the part of c the features can express, in the population
        # inner product <u, v> = sum_i lambda_i u_i v_i
        W = ensemble.weights.entries
        coef, *_ = np.linalg.lstsq(sqrt_lam[:, None] * W, sqrt_lam * c, rcond=None)
        c = c - W @ coef
        energy = float(np.sum(lam * c * c))
        if energy <= 0:
            raise ValueError("degenerate out-of-span draw; eigenvalues may vanish outside the span")
        tail = c * math.sqrt(tail_energy / energy)
    return TargetFunction(mode=mode, beta_star=beta, tail_coeffs=tail, norm=norm)


def target_train_values(target: TargetFunction, ensemble: FeatureEnsemble) -> np.ndarray:
    """f* evaluated on the training covariates."""
    if target.mode == "realizable-clean":
        return ensemble.Z @ target.beta_star
    if target.mode == "realizable-noisy":
        if ensemble.Z_noisy is None:
            raise ValueError("realizable-noisy target needs an ensemble with injected noise")
        return ensemble.Z_noisy @ target.beta_star
    Phi = eigenfeature_matrix(ensemble.spectrum, ensemble.mode, ensemble.covariates)
    return ensemble.Z @ target.beta_star + Phi @ target.tail_coeffs


def _check_target_noise(target_noise: str) -> None:
    if target_noise not in TARGET_NOISE_MODES:
        raise ValueError("target_noise must be shared, fresh or clean")


def make_test_features(ensemble: FeatureEnsemble, m: int, rng: np.random.Generator, *,
                       clean_test: bool = False, target_noise: str = "fresh") -> TestFeatures:
    """Sample m test points and their feature rows, the reference measure that
    `decompose`'s exact population route is checked against.

    Predictor-side rows carry a fresh feature-noise draw whenever the ensemble
    was fit on noisy features (clean_test=True evaluates on clean features
    instead).  Target-side rows get their own independent noise draw by
    default ("fresh"); "shared" reuses the predictor rows and "clean" strips
    target-side noise entirely.  They only matter for realizable-noisy targets.
    """
    _check_target_noise(target_noise)
    spectrum, mode = ensemble.spectrum, ensemble.mode
    X = sample_covariates(mode, m, rng, p=spectrum.p)
    phi = eigenfeature_matrix(spectrum, mode, X)
    clean = phi @ ensemble.weights.entries / math.sqrt(ensemble.s)
    spec = ensemble.noise_spec
    noisy_ensemble = spec is not None and ensemble.Z_noisy is not None
    if noisy_ensemble and not clean_test:
        predictor = clean + noise_matrix(spec, clean.shape, rng)
    else:
        predictor = clean
    if not noisy_ensemble or target_noise == "clean":
        target_rows = clean
    elif target_noise == "shared" and predictor is not clean:
        target_rows = predictor
    else:
        target_rows = clean + noise_matrix(spec, clean.shape, rng)
    return TestFeatures(covariates=X, phi=phi, clean=clean, predictor=predictor,
                        target_rows=target_rows)


def _target_test_values(target: TargetFunction, tf: TestFeatures) -> np.ndarray:
    if target.mode == "realizable-clean":
        return tf.clean @ target.beta_star
    if target.mode == "realizable-noisy":
        return tf.target_rows @ target.beta_star
    return tf.clean @ target.beta_star + tf.phi @ target.tail_coeffs


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = values.size
    if m < 2:
        return float(values.mean()) if m else 0.0, 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(m))


def _label_draws(sigma_sq: float, n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    # always consume the same number of draws so downstream streams do not
    # shift when sigma_sq hits zero
    return math.sqrt(sigma_sq) * rng.standard_normal((n, trials))


def _test_noise(ensemble: FeatureEnsemble, target: TargetFunction, clean_test: bool,
                target_noise: str) -> tuple[float, float, float]:
    """Per-entry variances (q_p, q_x, q_t) of a test point's feature noise.

    q_p is the predictor row's, q_t the target row's (realizable-noisy
    targets only) and q_x the part the two share; the law is the one
    `make_test_features` draws from.
    """
    spec = ensemble.noise_spec
    q = spec.entry_variance if spec is not None and ensemble.Z_noisy is not None else 0.0
    q_p = 0.0 if clean_test else q
    q_t = q if target.mode == "realizable-noisy" and target_noise != "clean" else 0.0
    q_x = q_t if q_p > 0 and target_noise == "shared" else 0.0
    return q_p, q_x, q_t


def _best_in_span(ensemble: FeatureEnsemble, target: TargetFunction,
                  q_p: float) -> tuple[np.ndarray, float]:
    """An unrealizable target's best in-span fit b* and its population risk M.

    The risk of coefficients w is ||A w - t||^2 + q_p ||w||^2, with
    A = sqrt(Lambda) W / sqrt(s) and t = A beta_star + sqrt(Lambda) c, so b*
    is the least-squares solution on [A; sqrt(q_p) I] and M its squared
    residual: one QR of [A, t; sqrt(q_p) I, 0] gives both.
    """
    p, s = ensemble.weights.entries.shape
    sqrt_lam = np.sqrt(ensemble.spectrum.eigenvalues)
    aug = np.zeros((p + s, s + 1))
    A = aug[:p, :s]
    np.multiply(sqrt_lam[:, None] / math.sqrt(s), ensemble.weights.entries, out=A)
    aug[:p, s] = A @ target.beta_star + sqrt_lam * target.tail_coeffs
    aug[p + np.arange(s), np.arange(s)] = math.sqrt(q_p)
    R = np.linalg.qr(aug, mode="r")
    return solve_triangular(R[:s, :s], R[:s, s]), float(R[s, s] ** 2)


def _population_split(ensemble: FeatureEnsemble, f: SvdFactors, u_hat: np.ndarray,
                      ref: np.ndarray, q_e: float, q_u: float, q_r: float,
                      E: np.ndarray | None, sigma_sq: float):
    """(bias, variance, variance_se, label-noise part of total, its se) over the
    test population.

    The risk of coefficients w, less M, is ||A e||^2 + q_e ||e||^2 +
    q_u ||w||^2 + q_r ||ref||^2 with e = w - ref and A = sqrt(Lambda) W /
    sqrt(s).  A label draw eps moves the fit to u_hat + V Sigma^-1 g with
    g = U^T eps, which adds 2 l.g + g^T Q g to that risk, where K = A V Sigma^-1,
    Q = K^T K + q_p Sigma^-2 with q_p = q_e + q_u, and l = K^T A e +
    Sigma^-1 V^T (q_e e + q_u u_hat).  A is never formed: W @ [V, e] is all
    the split needs.
    """
    e = u_hat - ref
    sqrt_lam = np.sqrt(ensemble.spectrum.eigenvalues)
    AC = sqrt_lam[:, None] * (ensemble.weights.entries @ np.column_stack([f.V, e]))
    AC /= math.sqrt(ensemble.s)
    K, Ae = AC[:, :f.rank] / f.sv, AC[:, f.rank]
    bias = float(Ae @ Ae) + q_e * float(e @ e) + q_u * float(u_hat @ u_hat) \
        + q_r * float(ref @ ref)
    Q = K.T @ K + np.diag((q_e + q_u) / f.sv ** 2)
    if E is None:
        variance = sigma_sq * float(np.trace(Q))
        return bias, variance, 0.0, variance, 0.0
    g = f.U.T @ E
    ell = K.T @ Ae + (f.V.T @ (q_e * e + q_u * u_hat)) / f.sv
    noise, noise_se = _mean_se(2.0 * (ell @ g) + np.sum(g * (Q @ g), axis=0))
    trials = E.shape[1]
    gc = g - g.mean(axis=1, keepdims=True)
    variance, variance_se = _mean_se(np.sum(gc * (Q @ gc), axis=0) * (trials / (trials - 1)))
    return bias, variance, variance_se, noise, noise_se


def _sampled_split(tf: TestFeatures, target: TargetFunction, f: SvdFactors,
                   u_hat: np.ndarray, b_star: np.ndarray | None, E: np.ndarray | None,
                   sigma_sq: float):
    """Per-test-point (bias, variance, total, misspec) rows over a sample.

    b_star is an unrealizable target's best in-span fit (None for a
    realizable one); bias and misspec are measured against its test values.
    """
    G = tf.predictor @ (f.V / f.sv) @ f.U.T
    a = tf.predictor @ u_hat
    fst = _target_test_values(target, tf)
    d = a - fst
    if E is None:
        v = sigma_sq * np.sum(G * G, axis=1)
        r = d * d + v
    else:
        trials = E.shape[1]
        P = G @ E
        mp = P.mean(axis=1)
        mp2 = np.mean(P * P, axis=1)
        v = (mp2 - mp * mp) * (trials / (trials - 1))
        r = d * d + 2 * d * mp + mp2
    if b_star is None:
        return d * d, v, r, np.zeros(0)
    fit = tf.predictor @ b_star
    return (a - fit) ** 2, v, r, (fit - fst) ** 2


def decompose(ensemble: FeatureEnsemble, target: TargetFunction, sigma_sq: float,
              test: TestFeatures | None, trials: int, rng: np.random.Generator, *,
              rtol: float | None = None, clean_test: bool = False,
              target_noise: str = "fresh", method: str = "monte-carlo") -> RiskDecomposition:
    """Full risk decomposition, exact over the test population.

    The labels carry gaussian noise of variance `sigma_sq` >= 0.  `test=None`
    integrates over the test population exactly; a TestFeatures sample
    averages over its points instead (the reference measure, drawn with the
    same clean_test and target_noise).  A count of test points is rejected,
    as is an unknown `target_noise`.  The monte-carlo method redraws the
    labels `trials` times, and they are the only draws taken from `rng`; the
    closed-form method integrates the label noise exactly and draws nothing.
    The design is factored once, and the result's `rank` reports its
    numerical rank, so callers need no second SVD for it.
    """
    if method not in ("monte-carlo", "closed-form"):
        raise ValueError("method must be monte-carlo or closed-form")
    if method == "monte-carlo" and trials < 2:
        raise ValueError("monte-carlo decomposition needs at least 2 label redraws")
    if not sigma_sq >= 0:
        raise ValueError("sigma_sq must be >= 0")
    _check_target_noise(target_noise)
    if test is not None and not isinstance(test, TestFeatures):
        raise ValueError("test must be None (the exact population) or a TestFeatures "
                         f"sample, not {test!r}; a count of test points is not accepted")
    f = svd_factors(ensemble.design, rtol)
    u_hat = f.apply_pinv(target_train_values(target, ensemble))
    q_p, q_x, q_t = _test_noise(ensemble, target, clean_test, target_noise)
    b_star = None
    misspec = 0.0
    if target.mode == "unrealizable":
        b_star, misspec = _best_in_span(ensemble, target, q_p)
    E = None
    if method == "monte-carlo":
        E = _label_draws(sigma_sq, ensemble.n, trials, rng)
    if test is not None:
        b, v, r, mis = _sampled_split(test, target, f, u_hat, b_star, E, sigma_sq)
        (bias, bias_se), (var, var_se) = _mean_se(b), _mean_se(v)
        (total, total_se), (misspec, misspec_se) = _mean_se(r), _mean_se(mis)
        return RiskDecomposition(bias=bias, bias_se=bias_se, variance=var, variance_se=var_se,
                                 misspec=misspec, misspec_se=misspec_se, total=total,
                                 total_se=total_se, method=method, rank=f.rank)
    if b_star is None:
        # q_p |w|^2 - 2 q_x w.beta + q_t |beta|^2 regrouped with non-negative
        # weights, so the bias cannot round below zero
        ref, q_e, q_u, q_r = target.beta_star, q_x, q_p - q_x, q_t - q_x
    else:
        # the normal equations at b* kill the cross term
        ref, q_e, q_u, q_r = b_star, q_p, 0.0, 0.0
    bias, var, var_se, noise, noise_se = _population_split(
        ensemble, f, u_hat, ref, q_e, q_u, q_r, E, sigma_sq)
    total = bias + var + misspec if E is None else bias + misspec + noise
    return RiskDecomposition(bias=bias, bias_se=0.0, variance=var, variance_se=var_se,
                             misspec=misspec, misspec_se=0.0, total=total,
                             total_se=noise_se, method=method, rank=f.rank)
