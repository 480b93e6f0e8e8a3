"""A sampled test measure: the reference `noisyrf.risk.decompose` is checked
against.

`decompose` integrates the risk over the test population in closed form.
This module measures it the plain way instead: draw m test points, evaluate
the fit and the target on them, and average.  It shares only its inputs with
`decompose`: the ensemble and the target.  It factors the design again
through `estimator.svd_factors`, draws its test rows from the law `decompose`
integrates over, takes an unrealizable target's best in-span fit b* from
`standalone_best_fit`, a dense lstsq, not from the fit `make_target` stored on
the target, and either integrates the label noise per test point or redraws
the labels by Monte Carlo.  `kernel_eval` is the kernel the sampled
features approximate, the oracle the feature tests compare inner products of
feature rows against.  `svd_reference` factors a design by LAPACK's SVD
alone, the route `svd_factors` takes past its Gram switch, so a test can
force that route on a design the switch would send to the Gram.

pytest does not collect this module (its name does not start with test_);
the test modules import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from noisyrf.estimator import SvdFactors, default_rtol, svd_factors
from noisyrf.features import FeatureEnsemble, noise_matrix
from noisyrf.risk import TARGET_NOISE_MODES, TargetFunction, target_train_values
from noisyrf.spectral import (Spectrum, eigenfeature_matrix, eigenfunction_values,
                              sample_covariates)


@dataclass(eq=False)
class TestSample:
    """Sampled test points: eigenfeatures and the clean / predictor-side /
    target-side feature rows."""

    __test__ = False  # keep pytest from collecting this despite the name

    phi: np.ndarray
    clean: np.ndarray
    predictor: np.ndarray
    target_rows: np.ndarray

    @property
    def m(self) -> int:
        return self.clean.shape[0]


def draw_test_sample(ens: FeatureEnsemble, m: int, rng: np.random.Generator, *,
                     clean_test: bool = False, target_noise: str = "fresh") -> TestSample:
    """Sample m test points and their feature rows.

    Predictor-side rows carry a fresh feature-noise draw whenever the ensemble
    was fit on noisy features (clean_test=True evaluates on clean features
    instead).  Target-side rows get their own independent noise draw by
    default ("fresh"); "shared" reuses the predictor rows and "clean" strips
    target-side noise entirely.  They only matter for realizable-noisy
    targets.  Row-space weights hold no dense W to evaluate test rows with,
    so they raise TypeError.
    """
    if target_noise not in TARGET_NOISE_MODES:
        raise ValueError("target_noise must be shared, fresh or clean")
    if not isinstance(ens.weights, np.ndarray):
        raise TypeError("a test sample needs the dense p x s W, not row-space weights")
    spectrum, mode = ens.spectrum, ens.mode
    X = sample_covariates(mode, m, rng, p=spectrum.p)
    phi = eigenfeature_matrix(spectrum, mode, X)
    clean = phi @ ens.weights / math.sqrt(ens.s)
    spec = ens.noise_spec
    if spec is not None and not clean_test:
        predictor = clean + noise_matrix(spec, clean.shape, rng)
    else:
        predictor = clean
    if spec is None or target_noise == "clean":
        target_rows = clean
    elif target_noise == "shared" and predictor is not clean:
        target_rows = predictor
    else:
        target_rows = clean + noise_matrix(spec, clean.shape, rng)
    return TestSample(phi=phi, clean=clean, predictor=predictor, target_rows=target_rows)


def kernel_eval(spectrum: Spectrum, mode: str, x, y):
    """Kernel value k(x, y) = sum_i lambda_i e_i(x) e_i(y), elementwise over batches."""
    Vx = eigenfunction_values(mode, spectrum.p, x)
    Vy = eigenfunction_values(mode, spectrum.p, y)
    if Vx.shape[0] != Vy.shape[0]:
        raise ValueError("x and y batches must have equal length")
    vals = np.einsum("ij,j,ij->i", Vx, spectrum.eigenvalues, Vy)
    return vals if vals.size > 1 else float(vals[0])


def svd_reference(Z: np.ndarray) -> SvdFactors:
    """`svd_factors(Z)` by LAPACK's SVD of Z, whatever Z's shape and
    conditioning: the same cutoff default_rtol(n, s) * sv_max, no Gram."""
    Z = np.asarray(Z, dtype=float)
    U, sv, Vt = np.linalg.svd(Z, full_matrices=False)
    cutoff = default_rtol(*Z.shape) * float(sv[0]) if sv.size else 0.0
    keep = sv > cutoff
    return SvdFactors(U=U[:, keep], sv=sv[keep], V=Vt.T[:, keep],
                      rank=int(np.count_nonzero(keep)), cutoff=cutoff)


def standalone_best_fit(ens: FeatureEnsemble, t: TargetFunction, q: float):
    """An unrealizable target's b* and M by lstsq on [A; sqrt(q) I], with
    A = sqrt(Lambda) W / sqrt(s)."""
    s = ens.s
    sqrt_lam = np.sqrt(ens.spectrum.eigenvalues)
    A = sqrt_lam[:, None] * ens.weights / math.sqrt(s)
    target_vals = A @ t.beta_star + sqrt_lam * t.tail_coeffs
    b, *_ = np.linalg.lstsq(np.vstack([A, math.sqrt(q) * np.eye(s)]),
                            np.concatenate([target_vals, np.zeros(s)]), rcond=None)
    r = A @ b - target_vals
    return b, r @ r + q * (b @ b)


@dataclass(frozen=True)
class SampledSplit:
    """The risk split total = bias + variance + misspec as sample means over
    the test points, each with its standard error over them (and over the
    label redraws, where the labels were redrawn)."""

    bias: float
    bias_se: float
    variance: float
    variance_se: float
    misspec: float
    misspec_se: float
    total: float
    total_se: float
    rank: int


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = values.size
    if m < 2:
        return float(values.mean()), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(m))


def sampled_decompose(ens: FeatureEnsemble, target: TargetFunction, sigma_sq: float,
                      sample: TestSample, rng: np.random.Generator | None = None,
                      trials: int = 0, *, clean_test: bool = False,
                      target_noise: str = "fresh") -> SampledSplit:
    """The risk split averaged over `sample`.

    The sample must have been drawn with the same clean_test and target_noise.
    Without rng the label noise is integrated at each test point; with rng
    the labels are redrawn `trials` >= 2 times, as sqrt(sigma_sq) *
    rng.standard_normal((n, trials)), and every piece but bias and misspec
    averages over the redraws too (Monte Carlo).
    """
    if target_noise not in TARGET_NOISE_MODES:
        raise ValueError("target_noise must be shared, fresh or clean")
    if rng is not None and trials < 2:
        raise ValueError("monte-carlo needs at least 2 label redraws")
    f = svd_factors(ens.design)
    u_hat = f.apply_pinv(target_train_values(target, ens))
    # each test point's prediction is linear in the labels: row i of G maps
    # a label vector to that point's prediction
    G = sample.predictor @ (f.V / f.sv) @ f.U.T
    a = sample.predictor @ u_hat
    if target.mode == "realizable-clean":
        fst = sample.clean @ target.beta_star
    elif target.mode == "realizable-noisy":
        fst = sample.target_rows @ target.beta_star
    else:
        fst = sample.clean @ target.beta_star + sample.phi @ target.tail_coeffs
    d = a - fst
    if rng is None:
        v = sigma_sq * np.sum(G * G, axis=1)
        r = d * d + v
    else:
        E = math.sqrt(sigma_sq) * rng.standard_normal((ens.n, trials))
        P = G @ E
        mp = P.mean(axis=1)
        mp2 = np.mean(P * P, axis=1)
        v = (mp2 - mp * mp) * (trials / (trials - 1))
        r = d * d + 2 * d * mp + mp2
    if target.mode == "unrealizable":
        q = 0.0 if clean_test or ens.noise_spec is None else ens.noise_spec.entry_variance
        fit = sample.predictor @ standalone_best_fit(ens, target, q)[0]
        b, mis = (a - fit) ** 2, (fit - fst) ** 2
    else:
        b, mis = d * d, np.zeros_like(d)
    (bias, bias_se), (var, var_se) = _mean_se(b), _mean_se(v)
    (total, total_se), (misspec, misspec_se) = _mean_se(r), _mean_se(mis)
    return SampledSplit(bias=bias, bias_se=bias_se, variance=var, variance_se=var_se,
                        misspec=misspec, misspec_se=misspec_se, total=total,
                        total_se=total_se, rank=f.rank)
