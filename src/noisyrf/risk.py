"""Excess-risk measurement and its bias / variance / misspecification split.

All quantities are averages over a fresh sample of test points (streamed
points are drawn, where their law allows it, directly in the few directions
the risk depends on).  For a fixed draw of covariates, weights and feature
noise, the conditional mean of the fitted predictor over label noise is
exactly computable from the pseudoinverse, so the bias piece carries only
test-sampling error; the variance piece is either estimated from label
redraws or evaluated in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import SvdFactors, svd_factors
from .features import FeatureEnsemble, noise_matrix
from .spectral import (EIGENCOORDINATE, Spectrum, eigenfeature_matrix,
                       fourier_basis, sample_covariates)

TARGET_MODES = ("realizable-clean", "realizable-noisy", "unrealizable")
TARGET_NOISE_MODES = ("shared", "fresh", "clean")

# Generated test points are processed in slabs of this many rows.  Gaussian
# draws already land in the (rank+2)-dim image the kernel uses; the slabs
# bound the m-by-s storage that fourier covariates and non-gaussian feature
# noise would otherwise need.
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
    """Per-test-point averages of the risk split, with standard errors.

    For realizable targets total = bias + variance (exactly in closed form,
    up to redraw noise in monte-carlo).  For an unrealizable target the bias
    is measured against the best in-span fit, so it already holds the
    misspecification's first term (the leaked residual); misspec repeats it.
    The exact identity is total = bias + variance + misspec second term
    (the cross term vanishes because the least-squares residual is
    orthogonal to the test rows), so total lies in
    [bias + variance, bias + variance + misspec] rather than at the sum.
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


def gen_labels(target: TargetFunction, ensemble: FeatureEnsemble, label_model: LabelModel,
               rng: np.random.Generator) -> np.ndarray:
    """Y = f*(X) + homoscedastic gaussian noise."""
    if label_model.distribution != "gaussian":
        raise ValueError("only gaussian label noise is implemented")
    if label_model.sigma_sq < 0:
        raise ValueError("sigma_sq must be >= 0")
    f = target_train_values(target, ensemble)
    return f + math.sqrt(label_model.sigma_sq) * rng.standard_normal(ensemble.n)


def _check_target_noise(target_noise: str) -> None:
    if target_noise not in TARGET_NOISE_MODES:
        raise ValueError("target_noise must be shared, fresh or clean")


def make_test_features(ensemble: FeatureEnsemble, m: int, rng: np.random.Generator, *,
                       clean_test: bool = False, target_noise: str = "fresh") -> TestFeatures:
    """Sample m test points and their feature rows.

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


def _misspec_rows(f: SvdFactors, ensemble: FeatureEnsemble, tf: TestFeatures,
                  fst: np.ndarray, fstarX: np.ndarray):
    """Per-test-point misspecification summands and the best in-span fit.

    The best in-span approximation of f* is the least-squares projection of
    its test values onto the test feature rows; its residual is orthogonal to
    every test row.
    """
    beta_h, *_ = np.linalg.lstsq(tf.predictor, fst, rcond=None)
    fh = tf.predictor @ beta_h
    w = f.apply_pinv(fstarX - ensemble.design @ beta_h)
    return (tf.predictor @ w) ** 2, (fst - fh) ** 2, fh


def misspec_term(ensemble: FeatureEnsemble, target: TargetFunction, tf: TestFeatures,
                 rtol: float | None = None) -> MisspecResult:
    """Both misspecification summands, estimated on the test sample.

    Realizable targets are legal input and give zero up to numerical error.
    """
    f = svd_factors(ensemble.design, rtol)
    first, second, _ = _misspec_rows(f, ensemble, tf, _target_test_values(target, tf),
                                     target_train_values(target, ensemble))
    total, se = _mean_se(first + second)
    return MisspecResult(first_term=float(first.mean()), second_term=float(second.mean()),
                         total=total, stderr=se)


def _materialized_slabs(ensemble, target, f: SvdFactors, fstarX, u_hat, tf: TestFeatures):
    """Slab source over a materialized sample: one slab with every test row,
    because an unrealizable target's best in-span fit needs all of them."""
    a = tf.predictor @ u_hat
    fst = _target_test_values(target, tf)
    mis, ref = None, fst
    if target.mode == "unrealizable":
        first, second, ref = _misspec_rows(f, ensemble, tf, fst, fstarX)
        mis = first + second
    yield tf.predictor @ (f.V / f.sv), a, fst, ref, mis


def _gaussian_image(A: np.ndarray, rng: np.random.Generator, scale: float = 1.0):
    """Sampler of rows with the law of scale * g @ A, g ~ N(0, I).

    With A = Q R, g @ A = (g @ Q) @ R and g @ Q ~ N(0, I_k) for k = R's row
    count, so each row costs k normals instead of A's row count.  A's
    dependent columns must come after its independent ones: otherwise QR
    picks a rounding-level direction that carries O(1) weight of the next
    column, and the draws stop being stable under rounding.
    """
    R = scale * np.linalg.qr(A, mode="r")
    return lambda mb: rng.standard_normal((mb, R.shape[0])) @ R


def _noise_image(spec, A: np.ndarray, rng: np.random.Generator):
    """Sampler of rows with the law of noise_matrix(spec, (mb, s), rng) @ A."""
    if spec.family == "gaussian":
        return _gaussian_image(A, rng, spec.entry_scale)
    return lambda mb: noise_matrix(spec, (mb, A.shape[0]), rng) @ A


def _streamed_slabs(ensemble, target, f: SvdFactors, u_hat, m, rng, clean_test,
                    target_noise):
    """Slab source that draws BLOCK_ROWS realizable-target test points at a
    time.

    The kernel only sees each test point's image under C = [V, beta_star,
    u_hat], the kept right-singular directions, the target coefficients and
    the conditional-mean coefficients.  Gaussian pieces are drawn in that
    (rank+2)-dim image directly (`_gaussian_image`): eigencoordinate
    covariates and gaussian feature noise cost rank+2 normals per test point
    instead of p and s.  Fourier covariates and the other noise families are
    drawn in full and projected.  u_hat lies in span(V), and beta_star does
    when rank = s, which is why they are C's last columns.
    """
    spectrum = ensemble.spectrum
    s = ensemble.s
    rank = f.rank
    spec = ensemble.noise_spec
    noisy_ensemble = spec is not None and ensemble.Z_noisy is not None and spec.sigma0_sq > 0
    pred_noisy = noisy_ensemble and not clean_test
    targ_noisy = target.mode == "realizable-noisy" and noisy_ensemble
    share = targ_noisy and pred_noisy and target_noise == "shared"
    fresh = targ_noisy and not share and target_noise != "clean"

    C = np.concatenate([f.V, target.beta_star[:, None], u_hat[:, None]], axis=1)
    SWC = (np.sqrt(spectrum.eigenvalues)[:, None] * (ensemble.weights.entries @ C)) / math.sqrt(s)
    if ensemble.mode == EIGENCOORDINATE:
        draw_base = _gaussian_image(SWC, rng)
    else:
        def draw_base(mb):
            return fourier_basis(spectrum.p, rng.random(mb)) @ SWC
    draw_NC = _noise_image(spec, C, rng) if pred_noisy else None
    draw_fresh = _noise_image(spec, target.beta_star[:, None], rng) if fresh else None
    inv_sv = 1.0 / f.sv
    for start in range(0, m, BLOCK_ROWS):
        mb = min(BLOCK_ROWS, m - start)
        base = draw_base(mb)
        H = base[:, :rank]
        fst = base[:, rank]
        a = base[:, rank + 1]
        if pred_noisy:
            NC = draw_NC(mb)
            H = H + NC[:, :rank]
            a = a + NC[:, rank + 1]
            if share:
                fst = fst + NC[:, rank]
        if fresh:
            fst = fst + draw_fresh(mb)[:, 0]
        yield H * inv_sv, a, fst, fst, None


def _risk_rows(slabs, U: np.ndarray, E: np.ndarray | None, sigma_sq: float):
    """The risk kernel: per-test-point bias, variance, total and misspec.

    Each slab is (H, a, fst, ref, mis) over a block of test points: H holds
    the predictor rows in the design's kept right-singular directions scaled
    by 1/sv, so G = H U^T maps training labels to predictions; a is the
    conditional-mean prediction, fst the target value, ref what the bias is
    measured against and mis the misspecification rows (None when the target
    is realizable).  E holds the label redraws (monte-carlo), or is None to
    integrate the label noise exactly (closed-form).
    """
    parts = []
    for H, a, fst, ref, mis in slabs:
        G = H @ U.T
        d = a - fst
        if E is None:
            v = sigma_sq * np.sum(G * G, axis=1)
            r = d * d + v
        else:
            trials = E.shape[1]
            P = G @ E
            mp = P.mean(axis=1)
            mp2 = np.mean(P * P, axis=1)
            del P  # drop it before the source draws the next slab; holding it raised peak RSS
            v = (mp2 - mp * mp) * (trials / (trials - 1))
            r = d * d + 2 * d * mp + mp2
        d_bias = a - ref
        parts.append((d_bias * d_bias, v, r, mis))
    b, v, r, mis = zip(*parts)
    return (np.concatenate(b), np.concatenate(v), np.concatenate(r),
            None if mis[0] is None else np.concatenate(mis))


def decompose(ensemble: FeatureEnsemble, target: TargetFunction, label_model: LabelModel,
              test, trials: int, rng: np.random.Generator, *, rtol: float | None = None,
              clean_test: bool = False, target_noise: str = "fresh",
              method: str = "monte-carlo") -> RiskDecomposition:
    """Full risk decomposition over a test sample.

    `test` is either a TestFeatures bundle or an integer count of test points
    to generate on the fly (generated points are processed in fixed-size
    blocks, with gaussian pieces drawn in the (rank+2)-dim image the kernel
    uses, see `_streamed_slabs`; an unrealizable target materializes them
    instead).  An unknown `target_noise` is rejected on every route, as
    `make_test_features` rejects it.  Realizable modes report misspec = 0;
    the monte-carlo method redraws labels `trials` times, the closed-form
    method integrates the label noise exactly.  The design is factored once,
    and the result's `rank` reports its numerical rank, so callers need no
    second SVD for it.  Draws come from `rng` in a fixed order: generated
    unrealizable test features, then the label redraws, then the streamed
    test blocks.
    """
    if method not in ("monte-carlo", "closed-form"):
        raise ValueError("method must be monte-carlo or closed-form")
    if method == "monte-carlo" and trials < 2:
        raise ValueError("monte-carlo decomposition needs at least 2 label redraws")
    _check_target_noise(target_noise)
    tf = test if isinstance(test, TestFeatures) else None
    if tf is None:
        m = int(test)
        if m < 1:
            raise ValueError("need at least one test point")
        if target.mode == "unrealizable":
            tf = make_test_features(ensemble, m, rng, clean_test=clean_test,
                                    target_noise=target_noise)
    f = svd_factors(ensemble.design, rtol)
    fstarX = target_train_values(target, ensemble)
    u_hat = f.apply_pinv(fstarX)
    E = None
    if method == "monte-carlo":
        E = _label_draws(label_model.sigma_sq, ensemble.n, trials, rng)
    if tf is None:
        slabs = _streamed_slabs(ensemble, target, f, u_hat, m, rng, clean_test, target_noise)
    else:
        slabs = _materialized_slabs(ensemble, target, f, fstarX, u_hat, tf)
    b, v, r, mis = _risk_rows(slabs, f.U, E, label_model.sigma_sq)
    bias, bias_se = _mean_se(b)
    var, var_se = _mean_se(v)
    total, total_se = _mean_se(r)
    mspec, mspec_se = (0.0, 0.0) if mis is None else _mean_se(mis)
    return RiskDecomposition(bias=bias, bias_se=bias_se, variance=var, variance_se=var_se,
                             misspec=mspec, misspec_se=mspec_se, total=total,
                             total_se=total_se, method=method, rank=f.rank)
