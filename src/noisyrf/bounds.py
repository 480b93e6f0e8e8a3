"""Closed-form risk bounds for the (noisy) minimum-norm interpolator.

The central object is the tail index k_star: the smallest head length after
which the remaining noise-shifted empirical eigenvalues, summed, dominate the
next eigenvalue by a factor n/a.  Bias bounds are only stated when that index
exists.  All bounds carry unit constant multipliers by default; callers can
rescale them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .features import noise_energy
from .spectral import Spectrum, empirical_covariance, sample_covariates, eigenfeature_matrix, trace_and_rank

REGIMES = ("classical", "threshold", "benign", "explosive")


@dataclass(eq=False)
class BoundInputs:
    """Everything the closed-form bounds consume."""

    n: int
    s: int
    p: int
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


def _bias_formula(inputs: BoundInputs, b: float) -> float:
    sigma0 = math.sqrt(inputs.sigma0_sq)
    conc = (inputs.lambda_W / inputs.s) * inputs.op_norm_Sigma * math.sqrt(
        math.log(14.0 * inputs.effective_rank / inputs.delta) / inputs.n)
    return b * (conc + sigma0 + inputs.sigma0_sq) * inputs.pi_norm ** 2 * inputs.beta_norm ** 2


def bias_bound(inputs: BoundInputs, b: float = 1.0) -> float:
    """Conditional-mean error bound for the interpolator fit on noisy features.

    Requires the tail index to exist for the noise-shifted spectrum; the value
    scales the squared projector norm and target norm by a concentration term
    plus the noise scale and its square.
    """
    if k_star(inputs.lambda_hat, inputs.sigma0_sq, inputs.n, inputs.a) is None:
        raise ValueError("no tail index exists for these eigenvalues; the bias bound is not stated")
    return _bias_formula(inputs, b)


def variance_bound(sigma_sq: float, trace_Sigma: float, s: int, n: int,
                   c: float = 1.0) -> float:
    """Label-noise variance bound c * sigma^2 * trace * s / n^2 for the noisy fit."""
    return c * sigma_sq * trace_Sigma * s / float(n) ** 2


def clean_mnls_bounds(inputs: BoundInputs, b: float = 1.0, c: float = 1.0,
                      c_prime: float = 1.0) -> tuple[float, float, int]:
    """(upper, lower, k) risk bounds for the noiseless-feature interpolator.

    The tail index is computed with no noise shift.  Upper combines the bias
    concentration term with sigma^2 * (s/n) * trace / tail-mass; lower is the
    same variance shape with its own constant.
    """
    k = k_star(inputs.lambda_hat, 0.0, inputs.n, inputs.a)
    if k is None:
        raise ValueError("no tail index exists for these eigenvalues; the bounds are not stated")
    lam = _padded(inputs.lambda_hat, inputs.n)
    tail = float(np.sum(lam[k:]))
    conc = b * (inputs.lambda_W / inputs.s) * inputs.pi_norm ** 2 * inputs.beta_norm ** 2 \
        * inputs.op_norm_Sigma * math.sqrt(math.log(14.0 * inputs.effective_rank / inputs.delta) / inputs.n)
    vshape = inputs.sigma_sq * (inputs.s / inputs.n) * inputs.trace_Sigma / tail
    return conc + c * vshape, c_prime * vshape, k


def cov_concentration_bound(op_norm: float, effective_rank: float, n: int, delta: float,
                            c: float = 1.0) -> float:
    """High-probability operator-norm error of the empirical covariance:
    c * ||Sigma|| * sqrt(log(14 r / delta) / n)."""
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if effective_rank < 1:
        raise ValueError("effective rank is at least 1")
    return c * op_norm * math.sqrt(math.log(14.0 * effective_rank / delta) / n)


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


@dataclass(eq=False)
class BoundReport:
    """All bound values for one configuration, JSON-friendly."""

    n: int
    s: int
    p: int
    sigma0_sq: float
    k_star: int | None
    bias_bound: float
    variance_bound: float
    clean_upper: float
    clean_lower: float
    clean_k_star: int | None
    cov_bound: float
    regime: str
    gamma: float
    rates: str

    def to_dict(self) -> dict:
        return asdict(self)


def bound_report(inputs: BoundInputs, b: float = 1.0, c: float = 1.0) -> BoundReport:
    """Evaluate every bound that is defined for the given inputs.

    Undefined pieces (missing tail index) are reported as nan rather than
    raised, so a report can always be produced.  lambda_W may be nan (a sweep
    row computes it only where it states the bias bound); bias_bound and
    clean_upper then read nan.
    """
    ks = k_star(inputs.lambda_hat, inputs.sigma0_sq, inputs.n, inputs.a)
    bias = _bias_formula(inputs, b) if ks is not None else float("nan")
    var = variance_bound(inputs.sigma_sq, inputs.trace_Sigma, inputs.s, inputs.n, c)
    try:
        upper, lower, kc = clean_mnls_bounds(inputs, b, c)
    except ValueError:
        upper, lower, kc = float("nan"), float("nan"), None
    cov = cov_concentration_bound(inputs.op_norm_Sigma, inputs.effective_rank,
                                  inputs.n, inputs.delta, c)
    reg = regime_classify(inputs.n, inputs.s)
    return BoundReport(n=inputs.n, s=inputs.s, p=inputs.p, sigma0_sq=inputs.sigma0_sq,
                       k_star=ks, bias_bound=bias, variance_bound=var, clean_upper=upper,
                       clean_lower=lower, clean_k_star=kc, cov_bound=cov,
                       regime=reg.regime, gamma=reg.gamma, rates=reg.rate)


def empirical_eigenvalues(spectrum: Spectrum, mode: str, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """First min(n, p) eigenvalues of the empirical covariance from n fresh covariates."""
    X = sample_covariates(mode, n, rng, p=spectrum.p)
    Phi = eigenfeature_matrix(spectrum, mode, X)
    summary = empirical_covariance(Phi)
    return summary.eigenvalues[: min(n, spectrum.p)]


def double_descent_curve(spectrum: Spectrum, n: int, alpha: float, sigma_sq: float,
                         s_grid, *, mode: str = "eigencoordinate", delta: float = 0.05,
                         a: float = 2.0, beta_norm: float = 1.0, m0: float | None = None,
                         b: float = 1.0, c: float = 1.0, lambda_hat=None,
                         rng: np.random.Generator | None = None) -> list[CurvePoint]:
    """Bound-predicted risk curve across a feature-count grid.

    Each s gets sigma0_sq = s**(-alpha), lambda_W at the Bai-Yin edge
    (sqrt(p) + sqrt(s))^2 of a Gaussian p x s W's squared top singular value,
    and the projector norm pinned at its worst case 1.  Below the interpolation
    threshold the bias column is an illustrative out-of-span proxy
    m0 * (n / s), m0 defaulting to 0.1 * sigma_sq; it is marked by the
    classical regime label and is not a stated bound.  Above the threshold the
    bias column is the formula value itself; the k_star column reports whether
    its hypothesis held (nan when not).
    """
    if lambda_hat is None:
        if rng is not None:
            lambda_hat = empirical_eigenvalues(spectrum, mode, n, rng)
        else:
            lambda_hat = spectrum.eigenvalues[:n]
    trace, eff_rank = trace_and_rank(spectrum)
    op = float(spectrum.eigenvalues[0])
    if m0 is None:
        m0 = 0.1 * sigma_sq
    points = []
    for s in s_grid:
        s = int(s)
        sigma0_sq = noise_energy(alpha, s)
        inputs = BoundInputs(n=n, s=s, p=spectrum.p, lambda_hat=lambda_hat,
                             sigma0_sq=sigma0_sq, sigma_sq=sigma_sq, trace_Sigma=trace,
                             op_norm_Sigma=op,
                             lambda_W=(math.sqrt(spectrum.p) + math.sqrt(s)) ** 2, pi_norm=1.0,
                             beta_norm=beta_norm, delta=delta, a=a)
        ks = k_star(lambda_hat, sigma0_sq, n, a)
        var = variance_bound(sigma_sq, trace, s, n, c)
        reg = regime_classify(n, s).regime
        if s < n:
            bias = m0 * (n / s)
        else:
            bias = _bias_formula(inputs, b)
        points.append(CurvePoint(s=s, sigma0_sq=sigma0_sq, k_star=ks, bias_bound=bias,
                                 variance_bound=var, total=bias + var, regime=reg))
    return points
