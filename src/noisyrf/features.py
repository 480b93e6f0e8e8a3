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
that keeps only G and reads W's complement, in the one product a cell
needs, from a `ComplementFrame`: one p x (n + 1) standard normal draw F,
made once per training set and kept as R^T F and a (k + n + 1)-square
triangle, so that product costs no p-row array and no draw.  Both forms
give every quantity of the cell the same law.

With Gaussian feature noise Xi (or none), a cell's law does not change under
W -> W O, Xi -> Xi O, beta* -> O^T beta* for an orthogonal s x s O, so all it
computes lives in the row span of M = [G; Xi], of dimension m = min(n, p) + n.
By Bartlett's decomposition M = L Q^T, with L m x m lower-triangular,
L_ii = sqrt(chi^2_{s-i+1}) and N(0, 1) below the diagonal, all independent,
and Q^T Haar on the rows, independent of L.  Turning Q into the first m
coordinates and beta*'s part outside Q's span into coordinate m + 1 leaves a
reduced ensemble m + 1 wide: G' = [L[:k], 0], the noise rows [L[k:], 0] and
the true s, whatever s is (`build_ensemble` given the weights stream itself,
for s > m; `reducible` says where).  Its G' is held as row-space weights, so
W's complement is read as on any row-space cell; `risk.make_target` draws
beta*'s reduced image.
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


def reducible(spec: NoiseSpec, n: int, p: int) -> bool:
    """Whether a cell of n rows over p eigenfeatures, with feature noise
    `spec`, may take the reduced route (module docstring): wider than
    m = min(n, p) + n, with noise that is Gaussian or absent, the one law of
    the three that an orthogonal turn of the columns leaves as it is."""
    rotation_invariant = spec.family == "gaussian" or spec.sigma0_sq == 0.0
    return rotation_invariant and spec.s > min(n, p) + n


def _reduced_draw(shape: tuple[int, int], spec: NoiseSpec | None,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(G', Xi'): the reduced images [L[:k], 0] and [L[k:], 0] of G = R^T W
    and of the unit-variance noise Xi, both m + 1 wide, for the Bartlett
    factor L of M = [G; Xi] (module docstring; k = min(n, p), m = k + n).

    rng draws L's diagonal first, sqrt(chi^2_{s-i+1}) for i = 1..m, then its
    entries below the diagonal, row by row."""
    n, p = shape
    if spec is None or not reducible(spec, n, p):
        raise ValueError("a reduced ensemble needs a noise spec, Gaussian noise or none, and "
                         f"s > min(n, p) + n = {min(n, p) + n}")
    k = min(n, p)
    m = k + n
    L = np.zeros((m, m + 1))
    L[np.arange(m), np.arange(m)] = np.sqrt(rng.chisquare(spec.s - np.arange(m)))
    below = np.tril_indices(m, -1)
    L[below] = rng.standard_normal(below[0].size)
    return L[:k], L[k:]


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


@dataclass(frozen=True, eq=False)
class ComplementFrame:
    """W's complement for every row-space cell of one training set, held in
    k + n + 1 coordinates (k = min(n, p); see `complement_frame`).

    F = [H1, h] is one p x (n + 1) standard normal draw.  The frame keeps
    R^T F and the left factor: an upper triangle T, k + n + 1 square, with
    T^T T = E^T E for E = sqrt(Lambda) [R, F], or E itself where no such T
    is certified.  Column norms and inner products of E M are those of
    left M.
    """

    RtF: np.ndarray   # R^T F, (k, n + 1)
    left: np.ndarray  # T, (k + n + 1, k + n + 1), or E, (p, k + n + 1)


# rows of E = sqrt(Lambda) [R, F] formed at a time by the CholeskyQR2 passes,
# so that a frame with a triangle never holds E, p x (k + n + 1)
_FRAME_BLOCK = 256


def _gram_of_blocks(R: np.ndarray, F: np.ndarray, scale: np.ndarray,
                    right: np.ndarray | None = None) -> np.ndarray:
    """(E right)^T (E right), or E^T E without right, for E = scale [R, F],
    summed over blocks of _FRAME_BLOCK rows."""
    c = R.shape[1] + F.shape[1]
    gram = np.zeros((c, c))
    for lo in range(0, R.shape[0], _FRAME_BLOCK):
        block = np.hstack([R[lo:lo + _FRAME_BLOCK], F[lo:lo + _FRAME_BLOCK]])
        block *= scale[lo:lo + _FRAME_BLOCK, None]
        if right is not None:
            block = block @ right
        gram += block.T @ block
    return gram


def _cholesky_qr2(R: np.ndarray, F: np.ndarray, scale: np.ndarray) -> np.ndarray | None:
    """The upper triangle T with T^T T = E^T E for E = scale [R, F], by
    CholeskyQR2 on numpy's BLAS, or None where no T is certified.

    T1 is the Cholesky factor of E^T E and T2 that of E1^T E1 for
    E1 = E T1^-1; T = T2 T1.  Both Grams are summed over row blocks of E, so
    neither E nor E1 is held.  E1's orthogonality defect is about
    eps cond(E)^2; the second pass takes it to rounding where the defect is
    small, which ||E1^T E1 - I||_F <= 1/2 certifies (Yamamoto et al. 2015).
    Then T M has E M's column norms to about eps cond(E), as a Householder
    QR would give.  A single Cholesky of E^T E errs by up to
    eps cond(E)^2, about 2e-9 on the preset, above `spectral.GRAM_RTOL`.
    None where E is wider than tall, E^T E's Cholesky raises or the test
    fails: exponential and finite-rank spectra, and p < k + n + 1.
    """
    p, c = R.shape[0], R.shape[1] + F.shape[1]
    if p < c:
        return None
    try:
        T1 = np.linalg.cholesky(_gram_of_blocks(R, F, scale)).T
    except np.linalg.LinAlgError:
        return None
    # an upper triangle's LU does not pivot, so this is its triangular inverse
    gram = _gram_of_blocks(R, F, scale, np.linalg.inv(T1))
    if not np.linalg.norm(gram - np.eye(c)) <= 0.5:
        return None
    return np.linalg.cholesky(gram).T @ T1


def complement_frame(basis: np.ndarray, eigenvalues: np.ndarray, n: int,
                     rng: np.random.Generator) -> ComplementFrame:
    """Draw F = [H1, h], one p x (n + 1) standard normal draw from rng, and
    hold it against R = basis and sqrt(Lambda) for `RowSpaceWeights.times`:
    R^T F and the left factor of E = sqrt(Lambda) [R, F], p x (k + n + 1),
    the triangle of `_cholesky_qr2` where it certifies one, else E itself.
    F is the only p-row buffer a frame with a triangle forms."""
    F = rng.standard_normal((basis.shape[0], n + 1))
    scale = np.sqrt(eigenvalues)
    left = _cholesky_qr2(basis, F, scale)
    if left is None:
        left = np.hstack([basis, F])
        left *= scale[:, None]
    return ComplementFrame(basis.T @ F, left)


class RowSpaceWeights:
    """The p x s weights W held as G = R^T W, R an orthonormal basis of the
    eigenfeature rows' span, and W's complement (I - R R^T) W as the
    training set's `ComplementFrame`, which holds R's part of the product.

    The complement is a Gaussian independent of G, of the covariates and of
    every later draw of the cell, so the frame's F, drawn once for the
    training set, gives W [V, e] exactly the law a dense W gives in each
    cell.  A cell takes one product: a second one would need the complement
    that the first one's design fixed, and raises.
    """

    # an ndarray on the left of @ defers to this class, which has no
    # __rmatmul__: phi @ weights raises instead of building an object array
    __array_ufunc__ = None

    def __init__(self, coords: np.ndarray, complement: ComplementFrame):
        self.coords = coords  # G = R^T W, (k, s)
        self._complement = complement

    def times(self, V: np.ndarray, U: np.ndarray, e: np.ndarray) -> np.ndarray:
        """An array Y, k + n + 1 rows (p where the frame holds E), whose
        columns have the norms and inner products of sqrt(Lambda) W [V, e]'s,
        W in the law of a dense W, for the design's thin SVD D = U Sigma V^T
        (V s x r and U n x r with orthonormal columns) and a coefficient
        vector e.

        W's complement times D^T has the law of (I - R R^T) H1 (D D^T)^1/2 =
        (I - R R^T) H1 U Sigma U^T, so its product with V = D^T U Sigma^-1 is
        (I - R R^T) H1 U.  e's part outside V, e - V a with a = V^T e and
        rho = ||e - V a||, is met by F's last column h, independent of H1 U:
        (I - R R^T) (H1 U a + rho h).  With B = [[U, U a], [0, rho]],
        (n + 1) x (r + 1), that is (I - R R^T) F B, and

            W [V, e] = R (G [V, e] - RtF B) + F B = [R, F] M,
            M = [G [V, e] - RtF B; B],

        so Y = left M, (k + n + 1) x (r + 1), with no p-row array and no draw
        (`ComplementFrame`).  F is attached to the design's rows, not to V's
        columns, so Y transforms with the basis: (V O, U O) for an orthogonal
        O gives Y times O.  A factorization that picks other signs, or
        another rotation inside a cluster of close singular values, gives
        the same row.
        """
        frame = self._complement
        if frame is None:
            raise RuntimeError("this cell's product with W is already taken; a second "
                               "product would not see the same W")
        self._complement = None
        n, r = U.shape[0], V.shape[1]
        a = V.T @ e
        B = np.zeros((n + 1, r + 1))
        B[:n, :r] = U
        B[:n, r] = U @ a
        B[n, r] = np.linalg.norm(e - V @ a)
        C = column_product(self.coords, V, e)
        C -= frame.RtF @ B
        return frame.left @ np.concatenate([C, B])


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
    the unrealizable risk split and lambda_W need.  A reduced ensemble's Z
    and design are m + 1 wide (`width`), at most its s features.
    """

    spectrum: Spectrum
    mode: str
    phi: np.ndarray      # (n, p)
    weights: np.ndarray | RowSpaceWeights  # (p, s), Fortran-ordered when an array
    Z: np.ndarray        # (n, s)
    # the matrix the fit uses: Z itself unless noise of positive energy was added
    design: np.ndarray
    noise_spec: NoiseSpec | None = None
    # drawn in the reduced span by build_ensemble (module docstring)
    reduced: bool = False

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def width(self) -> int:
        return self.Z.shape[1]

    @property
    def s(self) -> int:
        """The feature count: the noise spec's s where there is one (which
        `build_ensemble` holds to the width, except on a reduced ensemble),
        else the width."""
        return self.noise_spec.s if self.noise_spec is not None else self.width

    @property
    def p(self) -> int:
        return self.spectrum.p


def row_space_factor(phi: np.ndarray, gram: GramEigen) -> tuple[np.ndarray, np.ndarray]:
    """(R, T^T) with phi^T = R T: R p x k with orthonormal columns, T^T n x k,
    k = min(n, p), from the eigenpairs `gram` of phi's Gram (`gram_eigh(phi)`).

    With phi phi^T = U D U^T, T is the Gram's square root U D^1/2 U^T and
    R = phi^T U D^-1/2 U^T, the polar factor of phi^T: two n x n products and
    one product with phi, and no factorization beyond the eigensolve that
    gave the replicate's empirical spectrum.  Not U D^1/2 itself: the
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


def build_ensemble(spectrum: Spectrum, mode: str, phi: np.ndarray,
                   weights: np.ndarray | np.random.Generator,
                   noise_spec: NoiseSpec | None = None,
                   noise_rng: np.random.Generator | None = None, *,
                   complement: ComplementFrame | np.random.Generator | None = None,
                   factor: tuple[np.ndarray, np.ndarray] | None = None) -> FeatureEnsemble:
    """The features and the design over the eigenfeature rows phi = phi(X), (n, p).

    weights is W, p x s.  With a complement it is instead G = R^T W, a
    min(n, p) x s standard normal draw, where factor = (R, T^T) is
    `row_space_factor`'s phi^T = R T (taken here from phi's Gram when the
    caller has not: `compute_row` passes its replicate's, computed once
    from the eigenpairs its empirical spectrum came from): then
    Z = T^T G / sqrt(s) and the ensemble holds RowSpaceWeights(G, frame).
    complement is that frame (`compute_row` passes its replicate's), or a
    generator that `complement_frame` draws one from here.  A dense
    ensemble reads neither factor nor complement.

    weights may instead be the `weights` stream's generator itself, with a
    complement and a noise spec that `reducible` accepts: then it draws
    the Bartlett factor of [G; Xi] and the ensemble is reduced (module
    docstring): Z = T^T G' / sqrt(s) and the design Z + sqrt(q) Xi', m + 1
    wide, with the spec's s and q = sigma0^2 / s.  noise_rng is not read.
    """
    n, p = phi.shape
    noise = None
    if isinstance(weights, np.random.Generator):
        if complement is None:
            raise ValueError("a reduced ensemble holds row-space weights: it needs "
                             "a complement")
        weights, noise = _reduced_draw(phi.shape, noise_spec, weights)
        s = noise_spec.s
    else:
        s = weights.shape[1]
        if noise_spec is not None and noise_spec.s != s:
            raise ValueError(f"noise width must equal the feature count s={noise_spec.s}")
    if complement is None:
        if weights.shape[0] != p:
            raise ValueError(f"weight rows ({weights.shape[0]}) must match eigenfeature "
                             f"dimension ({p})")
        Z = phi @ weights / math.sqrt(s)
    else:
        if weights.shape[0] != min(phi.shape):
            raise ValueError(f"row-space weight rows ({weights.shape[0]}) must equal "
                             f"min(n, p) = {min(phi.shape)}")
        basis, tri_t = factor if factor is not None else row_space_factor(phi, gram_eigh(phi))
        Z = tri_t @ weights / math.sqrt(s)
        if isinstance(complement, np.random.Generator):
            complement = complement_frame(basis, spectrum.eigenvalues, n, complement)
        weights = RowSpaceWeights(weights, complement)
    design = Z
    if noise_spec is not None and noise_spec.sigma0_sq != 0.0:
        if noise is not None:
            design = Z + noise_spec.entry_scale * noise
        elif noise_rng is None:
            raise ValueError("noise injection needs a generator")
        else:
            design = Z + noise_matrix(noise_spec, Z.shape, noise_rng)
    return FeatureEnsemble(spectrum=spectrum, mode=mode, phi=phi, weights=weights, Z=Z,
                           design=design, noise_spec=noise_spec, reduced=noise is not None)
