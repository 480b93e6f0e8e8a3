"""Excess-risk measurement and its bias / variance / misspecification split.

All quantities are averages over a fresh sample of test points.  For a fixed
draw of covariates, weights and feature noise, the conditional mean of the
fitted predictor over label noise is exactly computable from the pseudoinverse,
so the bias piece carries only test-sampling error; the variance piece is
either estimated from label redraws or evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import SvdFactors, apply_projector, svd_factors
from .features import FeatureEnsemble, noise_matrix
from .spectral import (EIGENCOORDINATE, Spectrum, eigenfeature_matrix,
                       fourier_basis, sample_covariates)

TARGET_MODES = ("realizable-clean", "realizable-noisy", "unrealizable")

# Test points are processed in slabs of this many rows so that generated
# feature noise never needs m-by-s storage.
BLOCK_ROWS = 512


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


@dataclass(frozen=True)
class LabelModel:
    sigma_sq: float
    distribution: str = "gaussian"


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
class MisspecResult:
    first_term: float   # energy the unexpressible residual leaks into the fit
    second_term: float  # squared distance of f* from the feature span
    total: float
    stderr: float


@dataclass(frozen=True)
class RiskDecomposition:
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


def gen_labels(target: TargetFunction, ensemble: FeatureEnsemble, label_model: LabelModel,
               rng: np.random.Generator) -> np.ndarray:
    """Y = f*(X) + homoscedastic gaussian noise."""
    if label_model.distribution != "gaussian":
        raise ValueError("only gaussian label noise is implemented")
    if label_model.sigma_sq < 0:
        raise ValueError("sigma_sq must be >= 0")
    f = target_train_values(target, ensemble)
    return f + math.sqrt(label_model.sigma_sq) * rng.standard_normal(ensemble.n)


def make_test_features(ensemble: FeatureEnsemble, m: int, rng: np.random.Generator, *,
                       clean_test: bool = False, target_noise: str = "fresh") -> TestFeatures:
    """Sample m test points and their feature rows.

    Predictor-side rows carry a fresh feature-noise draw whenever the ensemble
    was fit on noisy features (clean_test=True evaluates on clean features
    instead).  Target-side rows get their own independent noise draw by
    default ("fresh"); "shared" reuses the predictor rows and "clean" strips
    target-side noise entirely.  They only matter for realizable-noisy targets.
    """
    if target_noise not in ("shared", "fresh", "clean"):
        raise ValueError("target_noise must be shared, fresh or clean")
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


def bias_term(ensemble: FeatureEnsemble, target: TargetFunction, tf: TestFeatures,
              rtol: float | None = None) -> tuple[float, float]:
    """Mean over test points of (z_x . Pi beta_star)^2 plus its stderr.

    Exact as the squared conditional-mean error when labels were generated
    from the same design the fit uses (realizable targets).
    """
    if target.mode == "unrealizable":
        raise ValueError("bias_term applies to realizable targets; decompose handles the rest")
    f = svd_factors(ensemble.design, rtol)
    pib = apply_projector(f, target.beta_star)
    vals = (tf.predictor @ pib) ** 2
    return _mean_se(vals)


def variance_closed(Z_design: np.ndarray, test, sigma_sq: float, *,
                    weights=None, noise_spec=None, rtol: float | None = None) -> float:
    """Exact label-noise variance sigma^2 * E_x[z_x^T (Z^T Z)^+ z_x].

    `test` selects the averaging measure: a Spectrum integrates over the
    population of test points in eigencoordinate mode (weights required, and
    noise_spec adds the diagonal feature-noise term); an array of feature rows
    averages over that sample.
    """
    f = svd_factors(np.asarray(Z_design, dtype=float), rtol)
    if f.rank == 0:
        return 0.0
    if isinstance(test, Spectrum):
        if weights is None:
            raise ValueError("population averaging needs the weight matrix")
        W = weights.entries if hasattr(weights, "entries") else np.asarray(weights)
        s = W.shape[1]
        core = (np.sqrt(test.eigenvalues)[:, None] * W) @ (f.V / f.sv)
        val = float(np.sum(core * core)) / s
        if noise_spec is not None and noise_spec.sigma0_sq > 0:
            val += noise_spec.sigma0_sq / s * float(np.sum(1.0 / f.sv ** 2))
        return sigma_sq * val
    rows = np.asarray(test, dtype=float)
    core = rows @ (f.V / f.sv)
    return sigma_sq * float(np.mean(np.sum(core * core, axis=1)))


def _label_draws(sigma_sq: float, n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    # always consume the same number of draws so downstream streams do not
    # shift when sigma_sq hits zero
    return math.sqrt(sigma_sq) * rng.standard_normal((n, trials))


def variance_mc(ensemble: FeatureEnsemble, target: TargetFunction, label_model: LabelModel,
                tf: TestFeatures, trials: int, rng: np.random.Generator,
                rtol: float | None = None) -> tuple[float, float]:
    """Per-point empirical variance of predictions over label redraws, averaged."""
    if trials < 2:
        raise ValueError("variance estimation needs at least 2 label redraws")
    f = svd_factors(ensemble.design, rtol)
    E = _label_draws(label_model.sigma_sq, ensemble.n, trials, rng)
    G = (tf.predictor @ (f.V / f.sv)) @ f.U.T
    P = G @ E
    v = P.var(axis=1, ddof=1)
    return _mean_se(v)


def excess_risk_mc(ensemble: FeatureEnsemble, target: TargetFunction, label_model: LabelModel,
                   tf: TestFeatures, trials: int, rng: np.random.Generator,
                   rtol: float | None = None) -> tuple[float, float]:
    """Mean over label redraws and test points of (fitted(x) - f*(x))^2."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    f = svd_factors(ensemble.design, rtol)
    fstarX = target_train_values(target, ensemble)
    E = _label_draws(label_model.sigma_sq, ensemble.n, trials, rng)
    hat = f.hat_matrix()
    preds = tf.predictor @ (hat @ (fstarX[:, None] + E))
    fst = _target_test_values(target, tf)
    r = np.mean((preds - fst[:, None]) ** 2, axis=1)
    return _mean_se(r)


def misspec_term(ensemble: FeatureEnsemble, target: TargetFunction, tf: TestFeatures,
                 rtol: float | None = None) -> MisspecResult:
    """Both misspecification summands, estimated on the test sample.

    The best in-span approximation of f* is the least-squares projection of
    its test values onto the test feature rows.  Realizable targets are legal
    input and give zero up to numerical error.
    """
    f = svd_factors(ensemble.design, rtol)
    fst = _target_test_values(target, tf)
    beta_h, *_ = np.linalg.lstsq(tf.predictor, fst, rcond=None)
    fh = tf.predictor @ beta_h
    r_train = target_train_values(target, ensemble) - ensemble.design @ beta_h
    w = f.apply_pinv(r_train)
    first = (tf.predictor @ w) ** 2
    second = (fst - fh) ** 2
    total, se = _mean_se(first + second)
    return MisspecResult(first_term=float(first.mean()), second_term=float(second.mean()),
                         total=total, stderr=se)


def _summarize(b, v, r, mis, method, rank) -> RiskDecomposition:
    bias, bias_se = _mean_se(b)
    var, var_se = _mean_se(v)
    total, total_se = _mean_se(r)
    if mis is None:
        mspec, mspec_se = 0.0, 0.0
    else:
        mspec, mspec_se = _mean_se(mis)
    return RiskDecomposition(bias=bias, bias_se=bias_se, variance=var, variance_se=var_se,
                             misspec=mspec, misspec_se=mspec_se, total=total,
                             total_se=total_se, method=method, rank=rank)


def _decompose_materialized(ensemble, target, label_model, tf: TestFeatures, trials, rng,
                            rtol, method) -> RiskDecomposition:
    f = svd_factors(ensemble.design, rtol)
    fstarX = target_train_values(target, ensemble)
    u_hat = f.apply_pinv(fstarX)
    a = tf.predictor @ u_hat
    fst = _target_test_values(target, tf)
    mis = None
    ref = fst
    if target.mode == "unrealizable":
        beta_h, *_ = np.linalg.lstsq(tf.predictor, fst, rcond=None)
        fh = tf.predictor @ beta_h
        w = f.apply_pinv(fstarX - ensemble.design @ beta_h)
        mis = (tf.predictor @ w) ** 2 + (fst - fh) ** 2
        ref = fh
    d_bias = a - ref
    d_tot = a - fst
    G = (tf.predictor @ (f.V / f.sv)) @ f.U.T
    if method == "monte-carlo":
        E = _label_draws(label_model.sigma_sq, ensemble.n, trials, rng)
        P = G @ E
        mp = P.mean(axis=1)
        mp2 = np.mean(P * P, axis=1)
        v = (mp2 - mp * mp) * (trials / (trials - 1))
        r = d_tot * d_tot + 2 * d_tot * mp + mp2
    else:
        v = label_model.sigma_sq * np.sum(G * G, axis=1)
        r = d_tot * d_tot + v
    return _summarize(d_bias * d_bias, v, r, mis, method, f.rank)


def _decompose_streamed(ensemble, target, label_model, m, trials, rng, rtol, method,
                        clean_test, target_noise) -> RiskDecomposition:
    spectrum, mode = ensemble.spectrum, ensemble.mode
    design = ensemble.design
    f = svd_factors(design, rtol)
    fstarX = target_train_values(target, ensemble)
    u_hat = f.apply_pinv(fstarX)
    n, s = design.shape
    rank = f.rank
    spec = ensemble.noise_spec
    noisy_ensemble = spec is not None and ensemble.Z_noisy is not None and spec.sigma0_sq > 0
    pred_noisy = noisy_ensemble and not clean_test
    targ_noisy = target.mode == "realizable-noisy" and noisy_ensemble
    share = targ_noisy and pred_noisy and target_noise == "shared"
    targ_clean_eval = targ_noisy and target_noise == "clean"

    mc = method == "monte-carlo"
    if mc:
        E = _label_draws(label_model.sigma_sq, n, trials, rng)

    # push every needed s-vector through the test features in one product:
    # the kept right-singular directions, the conditional-mean coefficients,
    # and the target coefficients
    C = np.concatenate([f.V, u_hat[:, None], target.beta_star[:, None]], axis=1)
    SWC = (np.sqrt(spectrum.eigenvalues)[:, None] * (ensemble.weights.entries @ C)) / math.sqrt(s)
    inv_sv = 1.0 / f.sv

    b = np.empty(m)
    v = np.empty(m)
    r = np.empty(m)
    for start in range(0, m, BLOCK_ROWS):
        mb = min(BLOCK_ROWS, m - start)
        sl = slice(start, start + mb)
        if mode == EIGENCOORDINATE:
            base = rng.standard_normal((mb, spectrum.p)) @ SWC
        else:
            base = fourier_basis(spectrum.p, rng.random(mb)) @ SWC
        if pred_noisy or share:
            NC = noise_matrix(spec, (mb, s), rng) @ C
        a = base[:, rank]
        G = base[:, :rank].copy()
        if pred_noisy:
            a = a + NC[:, rank]
            G += NC[:, :rank]
        G = (G * inv_sv) @ f.U.T
        fst = base[:, rank + 1]
        if targ_noisy and not targ_clean_eval:
            if share:
                fst = fst + NC[:, rank + 1]
            else:
                fst = fst + noise_matrix(spec, (mb, s), rng) @ target.beta_star
        d = a - fst
        if mc:
            P = G @ E
            mp = P.mean(axis=1)
            mp2 = np.mean(P * P, axis=1)
            v[sl] = (mp2 - mp * mp) * (trials / (trials - 1))
            r[sl] = d * d + 2 * d * mp + mp2
        else:
            v[sl] = label_model.sigma_sq * np.sum(G * G, axis=1)
            r[sl] = d * d + v[sl]
        b[sl] = d * d
    return _summarize(b, v, r, None, method, rank)


def decompose(ensemble: FeatureEnsemble, target: TargetFunction, label_model: LabelModel,
              test, trials: int, rng: np.random.Generator, *, rtol: float | None = None,
              clean_test: bool = False, target_noise: str = "fresh",
              method: str = "monte-carlo") -> RiskDecomposition:
    """Full risk decomposition over a test sample.

    `test` is either a TestFeatures bundle or an integer count of test points
    to generate on the fly (generated points are processed in fixed-size
    blocks, so feature noise never needs m-by-s storage).  Realizable modes
    report misspec = 0; the monte-carlo method redraws labels `trials` times,
    the closed-form method integrates the label noise exactly.  The design is
    factored once, and the result's `rank` reports its numerical rank, so
    callers need no second SVD for it.
    """
    if method not in ("monte-carlo", "closed-form"):
        raise ValueError("method must be monte-carlo or closed-form")
    if method == "monte-carlo" and trials < 2:
        raise ValueError("monte-carlo decomposition needs at least 2 label redraws")
    if isinstance(test, TestFeatures):
        return _decompose_materialized(ensemble, target, label_model, test, trials, rng,
                                       rtol, method)
    m = int(test)
    if m < 1:
        raise ValueError("need at least one test point")
    if target.mode == "unrealizable":
        tf = make_test_features(ensemble, m, rng, clean_test=clean_test,
                                target_noise=target_noise)
        return _decompose_materialized(ensemble, target, label_model, tf, trials, rng,
                                       rtol, method)
    return _decompose_streamed(ensemble, target, label_model, m, trials, rng, rtol,
                               method, clean_test, target_noise)
