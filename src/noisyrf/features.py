"""Random feature sampling and feature-noise injection.

Features are inner products of eigenfeatures with i.i.d. standard normal
weights: z(x) = W^T phi(x) / sqrt(s) for a p-by-s weight matrix W.  Averaged
over W, z(x)^T z(y) recovers the kernel.  Feature noise perturbs every sampled
feature entry independently with variance sigma0^2 / s, where sigma0^2 decays
with the feature count as s**(-alpha).

A training design sees W only through phi(X) W.  With a factorization
phi(X)^T = R T (R p x k orthonormal, k = min(n, p); see `row_space_factor`),
that is T^T G for G = R^T W, a k x s standard normal matrix; the rest of W,
(I - R R^T) W, is a Gaussian independent of G.  An ensemble may therefore
hold W in one of two forms: the dense p x s array, or a `RowSpaceWeights`
that keeps only R and G and draws W's complement when the one product a cell
needs is taken.  Both give every quantity of the cell the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import GramEigen, Spectrum, gram_eigh

NOISE_FAMILIES = ("gaussian", "rademacher", "uniform")
_ROOT3 = math.sqrt(3.0)
# W is drawn in blocks of this many columns; block j comes from child j of the
# weight generator's seed sequence, so any block can be regenerated on its own
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


def sample_weights(p: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the p x s weights W, i.i.d. N(0, 1) and Fortran-ordered, column
    block by column block.

    Block j (the WEIGHT_BLOCK columns from j * WEIGHT_BLOCK on) is filled in
    place by child j of `rng.spawn`.
    """
    if p < 1 or s < 1:
        raise ValueError("weight matrix dimensions must be positive")
    W = np.empty((p, s), order="F")
    starts = range(0, s, WEIGHT_BLOCK)
    for child, lo in zip(rng.spawn(len(starts)), starts):
        child.standard_normal(out=W[:, lo:lo + WEIGHT_BLOCK])
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


class RowSpaceWeights:
    """The p x s weights W held as R and G = R^T W, R an orthonormal basis of
    the eigenfeature rows' span; W's complement (I - R R^T) W is not drawn
    until `times` needs it.

    The complement is a Gaussian independent of G, of the covariates and of
    every later draw of the cell, so `times` can draw it from its own
    generator and give W [V, e] exactly the law a dense W gives.  It draws
    once: a second product would need the same complement and raises.
    """

    # an ndarray on the left of @ defers to this class, which has no
    # __rmatmul__: phi @ weights raises instead of building an object array
    __array_ufunc__ = None

    def __init__(self, basis: np.ndarray, coords: np.ndarray,
                 complement_rng: np.random.Generator):
        self.basis = basis    # R, (p, k) with orthonormal columns
        self.coords = coords  # G = R^T W, (k, s)
        self._complement_rng = complement_rng

    def times(self, V: np.ndarray, U: np.ndarray, e: np.ndarray) -> np.ndarray:
        """W [V, e] in the law of a dense W, for the design's thin SVD
        D = U Sigma V^T (V s x r and U n x r with orthonormal columns) and a
        coefficient vector e.

        The row-space part is R (G [V, e]).  The complement part is
        (I - R R^T) W [V, e].  W's complement times D^T has the law of
        (I - R R^T) H1 (D D^T)^1/2 = (I - R R^T) H1 U Sigma U^T for a fresh
        p x n standard normal H1, so its product with V = D^T U Sigma^-1 is
        (I - R R^T) H1 U.  e's part outside V, e - V a with a = V^T e and
        rho = ||e - V a||, is met by one more fresh column h, independent of
        H1 U: (I - R R^T) (H1 U a + rho h).  The draw is attached to the
        design's rows, not to V's columns, so it transforms with the basis:
        (V O, U O) for an orthogonal O gives this product times O.  A
        factorization that picks other signs, or another rotation inside a
        cluster of close singular values, gives the same row.
        """
        rng = self._complement_rng
        if rng is None:
            raise RuntimeError("W's complement is already drawn; a second product "
                               "would not see the same W")
        self._complement_rng = None
        R = self.basis
        p, r = R.shape[0], V.shape[1]
        # out before H1, so that H1, freed first, leaves no hole under it
        out = np.empty((p, r + 1), order="F")
        H1 = rng.standard_normal((p, U.shape[0]))
        np.matmul(H1, U, out=out[:, :r])
        del H1
        h = rng.standard_normal(p)
        a = V.T @ e
        h *= float(np.linalg.norm(e - V @ a))
        out[:, r] = out[:, :r] @ a + h
        # R G [V, e] + (I - R R^T) out, with one product through R
        GC = column_product(self.coords, V, e)
        GC -= R.T @ out
        out += R @ GC
        return out


def column_product(M: np.ndarray, V: np.ndarray, e: np.ndarray) -> np.ndarray:
    """M [V, e], Fortran-ordered, without forming the s x (r+1) stack [V, e]."""
    out = np.empty((M.shape[0], V.shape[1] + 1), order="F")
    np.matmul(M, V, out=out[:, :-1])
    np.matmul(M, e, out=out[:, -1])
    return out


@dataclass(eq=False)
class FeatureEnsemble:
    """One training design: the spectrum, the eigenfeature rows phi(X), the
    weights W, the features Z = phi(X) W / sqrt(s) and the design fit on.

    `weights` is W as a p x s array, or a RowSpaceWeights whose one product
    is W [V, e] (see the module docstring); the first is what `make_target`,
    the unrealizable risk split and lambda_W need.
    """

    spectrum: Spectrum
    mode: str
    phi: np.ndarray      # (n, p)
    weights: np.ndarray | RowSpaceWeights  # (p, s), Fortran-ordered when an array
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


def row_space_factor(phi: np.ndarray, gram: GramEigen) -> tuple[np.ndarray, np.ndarray]:
    """(R, T^T) with phi^T = R T: R p x k with orthonormal columns, T^T n x k,
    k = min(n, p), from the eigenpairs `gram` of phi's Gram (`gram_eigh(phi)`).

    With phi phi^T = U D U^T, T is the Gram's square root U D^1/2 U^T and
    R = phi^T U D^-1/2 U^T, the polar factor of phi^T: two n x n products and
    one product with phi, and no factorization beyond the eigensolve the
    cell already ran for its empirical spectrum.  Not U D^1/2 itself: the
    eigenvectors of a cluster of close eigenvalues are fixed only up to a
    rotation within it, which the Gram's last bits (the BLAS thread count)
    move, and that rotation would move G = R^T W with it.  U D^1/2 U^T and
    U D^-1/2 U^T do not depend on it, so Z repeats across thread counts.

    R's orthonormality defect max |R^T R - I| is about eps * d_max / d_min
    (derived in `GramEigen`), so the eigenpairs give the factor where n <= p
    and the Gram passes `GramEigen.well_conditioned`, which holds the
    defect within 1e-10 (d_min / d_max above about 2.2e-6).  A Gram that is
    singular or nearer to it (p < n, a finite rank below n, an exponential
    or a steep polynomial spectrum) takes the thin QR phi^T = R T instead,
    whose R is orthonormal to rounding whatever phi's conditioning.
    """
    n, p = phi.shape
    if n <= p and gram.well_conditioned:
        U = gram.vectors
        root = np.sqrt(gram.values)
        return phi.T @ ((U / root) @ U.T), (U * root) @ U.T
    basis, tri = np.linalg.qr(phi.T)
    return basis, tri.T


def build_ensemble(spectrum: Spectrum, mode: str, phi: np.ndarray, weights: np.ndarray,
                   noise_spec: NoiseSpec | None = None,
                   noise_rng: np.random.Generator | None = None, *,
                   complement_rng: np.random.Generator | None = None,
                   gram: GramEigen | None = None) -> FeatureEnsemble:
    """The features and the design over the eigenfeature rows phi = phi(X), (n, p).

    weights is W, p x s.  With complement_rng it is instead G = R^T W, a
    min(n, p) x s standard normal draw, where phi^T = R T comes from
    `row_space_factor` on phi's Gram eigenpairs `gram` (taken here when the
    caller has not: `compute_row` passes the ones its empirical spectrum
    came from): then Z = T^T G / sqrt(s) and the ensemble holds
    RowSpaceWeights(R, G, complement_rng).
    """
    p = phi.shape[1]
    s = weights.shape[1]
    if noise_spec is not None and noise_spec.s != s:
        raise ValueError(f"noise width must equal the feature count s={noise_spec.s}")
    if complement_rng is None:
        if weights.shape[0] != p:
            raise ValueError(f"weight rows ({weights.shape[0]}) must match eigenfeature "
                             f"dimension ({p})")
        Z = phi @ weights / math.sqrt(s)
    else:
        if weights.shape[0] != min(phi.shape):
            raise ValueError(f"row-space weight rows ({weights.shape[0]}) must equal "
                             f"min(n, p) = {min(phi.shape)}")
        basis, tri_t = row_space_factor(phi, gram if gram is not None else gram_eigh(phi))
        Z = tri_t @ weights / math.sqrt(s)
        weights = RowSpaceWeights(basis, weights, complement_rng)
    design = Z
    if noise_spec is not None and noise_spec.sigma0_sq != 0.0:
        if noise_rng is None:
            raise ValueError("noise injection needs a generator")
        design = Z + noise_matrix(noise_spec, Z.shape, noise_rng)
    return FeatureEnsemble(spectrum=spectrum, mode=mode, phi=phi, weights=weights, Z=Z,
                           design=design, noise_spec=noise_spec)
