"""Closed-form risk bounds for the (noisy) minimum-norm interpolator.

The central object is the tail index k_star: the smallest head length after
which the remaining noise-shifted empirical eigenvalues, summed, dominate the
next eigenvalue by a factor n/a.  Bias bounds are only stated when that index
exists.  Every bound carries the unit constants it is stated with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import noise_energy
from .spectral import Spectrum, empirical_covariance, sample_covariates, eigenfeature_matrix, trace_and_rank

REGIMES = ("classical", "threshold", "benign", "explosive")


@dataclass(eq=False)
class BoundInputs:
    """Everything the closed-form bounds consume."""

    n: int
    s: int
    lambda_hat: np.ndarray      # empirical eigenvalues, at most n entries
    sigma0_sq: float            # feature-noise energy
    sigma_sq: float             # label-noise variance
    trace_Sigma: float
    op_norm_Sigma: float
    lambda_W: float             # ||W^T W||, its edge surrogate, or nan when not computed
    pi_norm: float              # norm of the row-space defect projector
    beta_norm: float
    delta: float = 0.05
    a: float = 2.0

    @property
    def effective_rank(self) -> float:
        return self.trace_Sigma / self.op_norm_Sigma


def _padded(lambda_hat, n: int) -> np.ndarray:
    lam = np.asarray(lambda_hat, dtype=float)
    if lam.ndim != 1:
        raise ValueError("lambda_hat must be a vector")
    if lam.size > n:
        raise ValueError(f"lambda_hat has {lam.size} entries; at most n={n} are allowed")
    if np.any(lam < 0) or np.any(np.diff(lam) > 1e-12 * max(1.0, float(lam[0]) if lam.size else 1.0)):
        raise ValueError("lambda_hat must be nonnegative and non-increasing")
    out = np.zeros(n)
    out[: lam.size] = lam
    return out


def k_star(lambda_hat, sigma0_sq: float, n: int, a: float = 2.0) -> int | None:
    """Smallest k with sum_{i>k} (lam_i + sigma0_sq/n) >= (n/a) * (lam_{k+1} + sigma0_sq/n).

    lambda_hat is zero-padded to length n; candidates whose pivot eigenvalue is
    exactly zero are skipped.  Returns None when no k in [0, n) qualifies.

    A sweep cell takes k* on its n empirical eigenvalues (the nonzero
    spectrum of the empirical covariance of its n samples), zero-padded and
    each shifted by sigma0_sq/n: the spectrum as the bound states it.
    Neither the spectrum, its truncation, the shift nor a is tuned until the
    bound appears.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a <= 0:
        raise ValueError("a must be positive")
    if sigma0_sq < 0:
        raise ValueError("sigma0_sq must be >= 0")
    shifted = _padded(lambda_hat, n) + sigma0_sq / n
    tails = np.cumsum(shifted[::-1])[::-1]  # tails[k] = sum over indices k..n-1
    threshold = n / a
    for k in range(n):
        pivot = shifted[k]
        if pivot == 0.0:
            continue
        if tails[k] >= threshold * pivot:
            return k
    return None


def _concentration(inputs: BoundInputs) -> float:
    """(lambda_W / s) times the covariance concentration bound."""
    return (inputs.lambda_W / inputs.s) * cov_concentration_bound(
        inputs.op_norm_Sigma, inputs.effective_rank, inputs.n, inputs.delta)


def _bias_formula(inputs: BoundInputs) -> float:
    """Conditional-mean error bound for the interpolator fit on noisy features.

    It holds where the tail index exists for the noise-shifted spectrum; the
    value scales the squared projector norm and target norm by the
    concentration term plus the noise scale and its square.
    """
    sigma0 = math.sqrt(inputs.sigma0_sq)
    return (_concentration(inputs) + sigma0 + inputs.sigma0_sq) \
        * inputs.pi_norm ** 2 * inputs.beta_norm ** 2


def variance_bound(sigma_sq: float, trace_Sigma: float, s: int, n: int) -> float:
    """Label-noise variance bound sigma^2 * trace * s / n^2 for the noisy fit."""
    return sigma_sq * trace_Sigma * s / float(n) ** 2


def clean_mnls_bounds(inputs: BoundInputs) -> tuple[float, float, int]:
    """(upper, lower, k) risk bounds for the noiseless-feature interpolator.

    The tail index is computed with no noise shift.  Upper adds the bias
    concentration term to sigma^2 * (s/n) * trace / tail-mass; lower is that
    variance shape alone.
    """
    k = k_star(inputs.lambda_hat, 0.0, inputs.n, inputs.a)
    if k is None:
        raise ValueError("no tail index exists for these eigenvalues; the bounds are not stated")
    lam = _padded(inputs.lambda_hat, inputs.n)
    tail = float(np.sum(lam[k:]))
    conc = _concentration(inputs) * inputs.pi_norm ** 2 * inputs.beta_norm ** 2
    vshape = inputs.sigma_sq * (inputs.s / inputs.n) * inputs.trace_Sigma / tail
    return conc + vshape, vshape, k


def cov_concentration_bound(op_norm: float, effective_rank: float, n: int,
                            delta: float) -> float:
    """High-probability operator-norm error of the empirical covariance:
    ||Sigma|| * sqrt(log(14 r / delta) / n)."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if effective_rank < 1:
        raise ValueError("effective rank is at least 1")
    return op_norm * math.sqrt(math.log(14.0 * effective_rank / delta) / n)


@dataclass(frozen=True)
class RegimeLabel:
    regime: str
    gamma: float              # log s / log n
    variance_exponent: float  # variance scales like n ** this
    rate: str                 # textual rate label for the regime
    note: str


def regime_classify(n: int, s: int) -> RegimeLabel:
    """Which overparameterization regime (n, s) falls in.

    classical s < n; threshold s = n; benign n < s with log s / log n < 2
    (variance decays); explosive beyond (variance grows like n^(gamma-2)).
    """
    if n < 2 or s < 1:
        raise ValueError("need n >= 2 and s >= 1")
    gamma = math.log(s) / math.log(n)
    exponent = gamma - 2.0
    if s < n:
        return RegimeLabel("classical", gamma, exponent,
                           "no stated rate (s < n)",
                           "underparameterized: out-of-span error dominates")
    if s == n:
        return RegimeLabel("threshold", gamma, exponent,
                           "B: O(p/n^1.5 + sigma0 + sigma0^2); V: O(1/n)",
                           "interpolation threshold: variance peaks")
    if gamma < 2.0:
        return RegimeLabel("benign", gamma, exponent,
                           "V: O(n^{:+.2f})".format(exponent),
                           "overparameterized: variance decays as n^{:+.2f}".format(exponent))
    return RegimeLabel("explosive", gamma, exponent,
                       "V: Theta(n^{:+.2f})".format(exponent),
                       "too many features: variance grows as n^{:+.2f}".format(exponent))


@dataclass(frozen=True)
class CurvePoint:
    s: int
    sigma0_sq: float
    k_star: int | None
    bias_bound: float
    variance_bound: float
    total: float
    regime: str


@dataclass(frozen=True)
class BoundReport:
    """The bound columns of one sweep.csv row."""

    k_star: int | None
    bias_bound: float
    variance_bound: float
    regime: str


def bound_report(inputs: BoundInputs) -> BoundReport:
    """The tail index, the bias and variance bounds and the regime of one cell.

    The bias bound is stated only where the tail index exists and the fit has
    a null space (pi_norm > 0): the bound speaks about the out-of-span
    projector, whose premise is vacuous for an underparameterized fit.
    Elsewhere it reads nan, as it does where lambda_W is nan (a sweep row
    computes lambda_W only where it states the bias bound).
    """
    ks = k_star(inputs.lambda_hat, inputs.sigma0_sq, inputs.n, inputs.a)
    states_bias = ks is not None and inputs.pi_norm > 0
    return BoundReport(
        k_star=ks, bias_bound=_bias_formula(inputs) if states_bias else float("nan"),
        variance_bound=variance_bound(inputs.sigma_sq, inputs.trace_Sigma, inputs.s, inputs.n),
        regime=regime_classify(inputs.n, inputs.s).regime)


def empirical_eigenvalues(spectrum: Spectrum, mode: str, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """First min(n, p) eigenvalues of the empirical covariance from n fresh covariates."""
    X = sample_covariates(mode, n, rng, p=spectrum.p)
    Phi = eigenfeature_matrix(spectrum, mode, X)
    summary = empirical_covariance(Phi)
    return summary.eigenvalues[: min(n, spectrum.p)]


def double_descent_curve(spectrum: Spectrum, n: int, alpha: float, sigma_sq: float,
                         s_grid, lambda_hat, *, delta: float = 0.05, a: float = 2.0,
                         beta_norm: float = 1.0) -> list[CurvePoint]:
    """Bound-predicted risk curve across a feature-count grid.

    lambda_hat is the empirical spectrum the tail index is taken on (at most
    n entries).  Each s gets sigma0_sq = s**(-alpha), lambda_W at the Bai-Yin
    edge (sqrt(p) + sqrt(s))^2 of a Gaussian p x s W's squared top singular
    value, and the projector norm pinned at its worst case 1.  Below the
    interpolation threshold the bias column is an illustrative out-of-span
    proxy 0.1 * sigma_sq * (n / s); it is marked by the classical regime label
    and is not a stated bound.  Above the threshold the bias column is the
    formula value itself; the k_star column reports whether its hypothesis
    held (nan when not).
    """
    trace, _ = trace_and_rank(spectrum)
    op = float(spectrum.eigenvalues[0])
    points = []
    for s in s_grid:
        s = int(s)
        sigma0_sq = noise_energy(alpha, s)
        inputs = BoundInputs(n=n, s=s, lambda_hat=lambda_hat,
                             sigma0_sq=sigma0_sq, sigma_sq=sigma_sq, trace_Sigma=trace,
                             op_norm_Sigma=op,
                             lambda_W=(math.sqrt(spectrum.p) + math.sqrt(s)) ** 2, pi_norm=1.0,
                             beta_norm=beta_norm, delta=delta, a=a)
        ks = k_star(lambda_hat, sigma0_sq, n, a)
        var = variance_bound(sigma_sq, trace, s, n)
        reg = regime_classify(n, s).regime
        if s < n:
            bias = 0.1 * sigma_sq * (n / s)
        else:
            bias = _bias_formula(inputs)
        points.append(CurvePoint(s=s, sigma0_sq=sigma0_sq, k_star=ks, bias_bound=bias,
                                 variance_bound=var, total=bias + var, regime=reg))
    return points
