"""Random feature sampling and feature-noise injection.

Features are inner products of eigenfeatures with i.i.d. standard normal
weights: z(x) = W^T phi(x) / sqrt(s) for a p-by-s weight matrix W.  Averaged
over W, z(x)^T z(y) recovers the kernel.  Feature noise perturbs every sampled
feature entry independently with variance sigma0^2 / s, where sigma0^2 decays
with the feature count as s**(-alpha).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum, eigenfeature_matrix

NOISE_FAMILIES = ("gaussian", "rademacher", "uniform")
_ROOT3 = math.sqrt(3.0)
# W is drawn in blocks of this many columns; block j comes from child j of the
# weight generator's seed sequence, so W does not depend on the thread count
# and any block can be regenerated on its own
WEIGHT_BLOCK = 256


@dataclass(eq=False)
class WeightMatrix:
    entries: np.ndarray  # (p, s), i.i.d. N(0, 1), Fortran-ordered

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def s(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-entry feature perturbation law.

    sigma0_sq is the total noise energy per feature vector; each of the s
    entries gets variance sigma0_sq / s from a unit-variance base draw of the
    chosen family.
    """

    family: str
    alpha: float
    s: int
    sigma0_sq: float

    @property
    def entry_variance(self) -> float:
        return self.sigma0_sq / self.s

    @property
    def entry_scale(self) -> float:
        return math.sqrt(self.sigma0_sq / self.s)


def sample_weights(p: int, s: int, rng: np.random.Generator, *,
                   threads: int = 1) -> WeightMatrix:
    """Draw W column block by column block, `threads` blocks at a time.

    Block j (the WEIGHT_BLOCK columns from j * WEIGHT_BLOCK on) is filled in
    place by child j of `rng.spawn`, so the result is the same for every
    thread count.
    """
    if p < 1 or s < 1:
        raise ValueError("weight matrix dimensions must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    entries = np.empty((p, s), order="F")
    starts = range(0, s, WEIGHT_BLOCK)
    children = rng.spawn(len(starts))

    def fill(j):
        lo = starts[j]
        children[j].standard_normal(out=entries[:, lo:lo + WEIGHT_BLOCK])

    workers = min(threads, len(starts))
    if workers == 1:
        for j in range(len(starts)):
            fill(j)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(len(starts))))
    return WeightMatrix(entries=entries)


def feature_matrix(weights: WeightMatrix, covariates, spectrum: Spectrum, mode: str) -> np.ndarray:
    """Sampled feature rows Z with Z[i] = W^T phi(x_i) / sqrt(s), shape (n, s)."""
    Phi = eigenfeature_matrix(spectrum, mode, covariates)
    if Phi.shape[1] != weights.p:
        raise ValueError(f"weight rows ({weights.p}) must match eigenfeature dimension ({Phi.shape[1]})")
    return Phi @ weights.entries / math.sqrt(weights.s)


def make_noise_spec(family: str, alpha: float, s: int) -> NoiseSpec:
    """Noise spec with sigma0_sq = s**(-alpha).

    alpha = inf is accepted as the exactly-noiseless limit.
    """
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family {family!r}; expected one of {NOISE_FAMILIES}")
    if s < 1:
        raise ValueError("s must be >= 1")
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0: the noise energy s**(-alpha) may not grow with s")
    sigma0_sq = 0.0 if math.isinf(alpha) else float(s) ** (-alpha)
    return NoiseSpec(family=family, alpha=float(alpha), s=int(s), sigma0_sq=sigma0_sq)


def _unit_variance_draw(family: str, shape, rng: np.random.Generator) -> np.ndarray:
    if family == "gaussian":
        return rng.standard_normal(shape)
    if family == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if family == "uniform":
        return rng.uniform(-_ROOT3, _ROOT3, size=shape)
    raise ValueError(f"unknown noise family {family!r}")


def noise_matrix(spec: NoiseSpec, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw a noise matrix with i.i.d. entries of variance sigma0_sq / s."""
    if shape[-1] != spec.s:
        raise ValueError(f"noise width must equal the feature count s={spec.s}")
    if spec.sigma0_sq == 0.0:
        return np.zeros(shape)
    return spec.entry_scale * _unit_variance_draw(spec.family, shape, rng)


@dataclass(eq=False)
class FeatureEnsemble:
    """Everything sampled for one training design: spectrum, covariates, W, Z, noise."""

    spectrum: Spectrum
    mode: str
    covariates: np.ndarray
    weights: WeightMatrix
    Z: np.ndarray
    noise_spec: NoiseSpec | None = None
    Z_noisy: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def s(self) -> int:
        return self.Z.shape[1]

    @property
    def p(self) -> int:
        return self.spectrum.p

    @property
    def design(self) -> np.ndarray:
        """The matrix the estimator fits on: noisy when noise was injected."""
        return self.Z if self.Z_noisy is None else self.Z_noisy


def build_ensemble(spectrum: Spectrum, mode: str, covariates, weights: WeightMatrix,
                   noise_spec: NoiseSpec | None = None,
                   noise_rng: np.random.Generator | None = None) -> FeatureEnsemble:
    Z = feature_matrix(weights, covariates, spectrum, mode)
    Z_noisy = None
    if noise_spec is not None:
        if noise_rng is None and noise_spec.sigma0_sq != 0.0:
            raise ValueError("noise injection needs a generator")
        # a noiseless spec returns zeros without touching the generator
        Z_noisy = Z + noise_matrix(noise_spec, Z.shape, noise_rng)
    return FeatureEnsemble(spectrum=spectrum, mode=mode, covariates=np.asarray(covariates),
                           weights=weights, Z=Z, noise_spec=noise_spec, Z_noisy=Z_noisy)

