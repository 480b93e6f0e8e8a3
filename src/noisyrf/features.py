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


@dataclass(frozen=True)
class NoiseSpec:
    """Per-entry feature perturbation law.

    sigma0_sq is the total noise energy per feature vector; each of the s
    entries gets variance sigma0_sq / s from a unit-variance base draw of the
    chosen family.
    """

    family: str
    s: int
    sigma0_sq: float

    @property
    def entry_variance(self) -> float:
        return self.sigma0_sq / self.s

    @property
    def entry_scale(self) -> float:
        return math.sqrt(self.sigma0_sq / self.s)


def sample_weights(p: int, s: int, rng: np.random.Generator, *,
                   threads: int = 1) -> np.ndarray:
    """Draw the p x s weights W, i.i.d. N(0, 1) and Fortran-ordered, column
    block by column block, `threads` blocks at a time.

    Block j (the WEIGHT_BLOCK columns from j * WEIGHT_BLOCK on) is filled in
    place by child j of `rng.spawn`, so the result is the same for every
    thread count.
    """
    if p < 1 or s < 1:
        raise ValueError("weight matrix dimensions must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    W = np.empty((p, s), order="F")
    starts = range(0, s, WEIGHT_BLOCK)
    children = rng.spawn(len(starts))

    def fill(j):
        lo = starts[j]
        children[j].standard_normal(out=W[:, lo:lo + WEIGHT_BLOCK])

    workers = min(threads, len(starts))
    if workers == 1:
        for j in range(len(starts)):
            fill(j)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(len(starts))))
    return W


def noise_energy(alpha: float, s: int) -> float:
    """The noise law sigma0^2 = s**(-alpha); alpha = inf gives exactly 0."""
    return 0.0 if math.isinf(alpha) else float(s) ** (-alpha)


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
    return NoiseSpec(family=family, s=int(s), sigma0_sq=noise_energy(alpha, s))


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
    """One training design: the spectrum, the eigenfeature rows phi(X), the
    weights W, the features Z = phi(X) W / sqrt(s) and the design fit on."""

    spectrum: Spectrum
    mode: str
    phi: np.ndarray      # (n, p)
    weights: np.ndarray  # (p, s), Fortran-ordered
    Z: np.ndarray        # (n, s)
    # the matrix the fit uses: Z itself unless noise of positive energy was added
    design: np.ndarray
    noise_spec: NoiseSpec | None = None

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def s(self) -> int:
        return self.Z.shape[1]

    @property
    def p(self) -> int:
        return self.spectrum.p


def build_ensemble(spectrum: Spectrum, mode: str, covariates, weights: np.ndarray,
                   noise_spec: NoiseSpec | None = None,
                   noise_rng: np.random.Generator | None = None) -> FeatureEnsemble:
    """Evaluate the eigenfeature map once, then the features and the design."""
    phi = eigenfeature_matrix(spectrum, mode, covariates)
    p, s = weights.shape
    if phi.shape[1] != p:
        raise ValueError(f"weight rows ({p}) must match eigenfeature dimension ({phi.shape[1]})")
    if noise_spec is not None and noise_spec.s != s:
        raise ValueError(f"noise width must equal the feature count s={noise_spec.s}")
    Z = phi @ weights / math.sqrt(s)
    design = Z
    if noise_spec is not None and noise_spec.sigma0_sq != 0.0:
        if noise_rng is None:
            raise ValueError("noise injection needs a generator")
        design = Z + noise_matrix(noise_spec, Z.shape, noise_rng)
    return FeatureEnsemble(spectrum=spectrum, mode=mode, phi=phi, weights=weights, Z=Z,
                           design=design, noise_spec=noise_spec)
