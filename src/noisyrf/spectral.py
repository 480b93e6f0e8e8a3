"""Eigenvalue spectra, covariates, eigenfeature maps and the empirical spectrum.

A kernel is described by its spectrum (a non-increasing, nonnegative sequence
``lambda_1 >= lambda_2 >= ... >= lambda_p``) together with an orthonormal
eigenfunction family.  Two families are supported:

* ``eigencoordinate``: the covariate *is* the coordinate vector g ~ N(0, I_p)
  and the eigenfeature map is phi(g) = sqrt(lambda) * g, so the population
  covariance of phi is exactly diag(lambda).
* ``fourier``: covariates are scalars on [0, 1] and the eigenfunctions are
  1, sqrt(2)cos(2 pi k x), sqrt(2)sin(2 pi k x), ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("finite-rank", "exponential", "polynomial", "custom")
EIGENCOORDINATE = "eigencoordinate"
FOURIER = "fourier"
MODES = (EIGENCOORDINATE, FOURIER)

# Default truncation target: keep the discarded tail below this fraction of
# the full trace.
TAIL_FRACTION = 1e-4


@dataclass(eq=False)
class Spectrum:
    """A finite, sorted eigenvalue sequence plus the recipe that produced it."""

    kind: str
    p: int
    eigenvalues: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if self.kind not in KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}; expected one of {KINDS}")
        if self.p < 1:
            raise ValueError("spectrum length p must be >= 1")
        if self.eigenvalues.shape != (self.p,):
            raise ValueError("eigenvalues must be a length-p vector")
        if np.any(self.eigenvalues < 0) or not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("eigenvalues must be finite and nonnegative")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be non-increasing")


def make_spectrum(kind: str, p: int, *, gamma: float | None = None, d: int | None = None,
                  omega1: float = 1.0, eigenvalues=None) -> Spectrum:
    """Construct a spectrum of the given kind and length.

    polynomial : lambda_i = omega1 * i**(-gamma) for i = 1..p, gamma > 1
    exponential: lambda_i = omega1 * exp(-i)
    finite-rank: lambda_i = omega1 for i <= d, 0 beyond
    custom     : caller-supplied eigenvalues (validated)
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    for name, value in (("gamma", gamma), ("omega1", omega1)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value!r}")
    if kind == "custom":
        if eigenvalues is None:
            raise ValueError("custom spectrum requires eigenvalues")
        return Spectrum("custom", p, np.asarray(eigenvalues, dtype=float))
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    idx = np.arange(1, p + 1, dtype=float)
    if kind == "polynomial":
        if gamma is None or gamma <= 1:
            raise ValueError("polynomial decay requires gamma > 1 (slower decay has a divergent trace)")
        vals = omega1 * idx ** (-gamma)
        params = {"gamma": float(gamma), "omega1": float(omega1)}
    elif kind == "exponential":
        vals = omega1 * np.exp(-idx)
        params = {"omega1": float(omega1)}
    elif kind == "finite-rank":
        if d is None or not (1 <= d <= p):
            raise ValueError("finite-rank spectrum requires 1 <= d <= p")
        vals = np.where(idx <= d, omega1, 0.0)
        params = {"d": int(d), "omega1": float(omega1)}
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}; expected one of {KINDS}")
    return Spectrum(kind, p, vals, params)


def trace_and_rank(spectrum: Spectrum) -> tuple[float, float]:
    """Return (trace, trace / top eigenvalue).

    The second entry is the effective rank of the covariance operator the
    spectrum defines.  Errors on an all-zero spectrum.
    """
    vals = spectrum.eigenvalues
    top = vals[0]
    if top == 0.0:
        raise ValueError("effective rank undefined for an all-zero spectrum")
    tr = float(math.fsum(vals.tolist()))
    return tr, tr / float(top)


def suggest_truncation(kind: str, *, gamma: float | None = None, d: int | None = None,
                       tail_fraction: float = TAIL_FRACTION) -> int:
    """Smallest p whose discarded tail mass is <= tail_fraction of the full trace.

    Uses the closed-form tail of the infinite sequence, so the suggestion does
    not depend on omega1.
    """
    if not (0 < tail_fraction < 1):
        raise ValueError("tail_fraction must lie in (0, 1)")
    if kind == "finite-rank":
        if d is None or d < 1:
            raise ValueError("finite-rank truncation requires d >= 1")
        return int(d)
    if kind == "exponential":
        # tail(p) / trace = exp(-p), independent of the geometric prefactor
        return max(1, math.ceil(-math.log(tail_fraction)))
    if kind == "polynomial":
        if gamma is None or gamma <= 1:
            raise ValueError("polynomial truncation requires gamma > 1")
        # imported here: only `noisyrf spectrum` truncates, and scipy.special
        # would otherwise load on every start
        from scipy.special import zeta

        total = float(zeta(gamma, 1))
        target = tail_fraction * total
        lo, hi = 1, 2
        while float(zeta(gamma, hi + 1)) > target:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if float(zeta(gamma, mid + 1)) <= target:
                hi = mid
            else:
                lo = mid + 1
        return lo
    raise ValueError("truncation is defined for finite-rank, exponential and polynomial kinds")


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"unknown eigenfeature mode {mode!r}; expected one of {MODES}")


def sample_covariates(mode: str, n: int, rng: np.random.Generator, *, p: int | None = None) -> np.ndarray:
    """Draw n covariates for the given mode.

    eigencoordinate -> (n, p) standard normal coordinates (p required);
    fourier -> (n,) uniform points on [0, 1].
    """
    _check_mode(mode)
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == EIGENCOORDINATE:
        if p is None:
            raise ValueError("eigencoordinate covariates need the dimension p")
        return rng.standard_normal((n, p))
    return rng.random(n)


def fourier_basis(p: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the first p orthonormal Fourier eigenfunctions on [0, 1].

    Ordering: constant, then cos/sin pairs of increasing frequency.
    Returns an (len(x), p) matrix.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, p))
    out[:, 0] = 1.0
    root2 = math.sqrt(2.0)
    for i in range(1, p):
        k = (i + 1) // 2
        angle = 2.0 * math.pi * k * x
        out[:, i] = root2 * (np.cos(angle) if i % 2 == 1 else np.sin(angle))
    return out


def eigenfunction_values(mode: str, p: int, X) -> np.ndarray:
    """Matrix of eigenfunction values e_i(x_j), shape (n, p)."""
    _check_mode(mode)
    if mode == EIGENCOORDINATE:
        V = np.atleast_2d(np.asarray(X, dtype=float))
        if V.shape[1] != p:
            raise ValueError(f"eigencoordinate covariates must have dimension {p}")
        return V
    return fourier_basis(p, X)


def eigenfeature_matrix(spectrum: Spectrum, mode: str, X) -> np.ndarray:
    """Rows phi(x_j) for a batch of covariates, shape (n, p)."""
    V = eigenfunction_values(mode, spectrum.p, X)
    return V * np.sqrt(spectrum.eigenvalues)


# the largest eps cond(G) of a Gram G whose eigenpairs or Cholesky factor may
# stand in for a factorization of its rows (see GramEigen)
GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class GramEigen:
    """The eigenpairs of the smaller Gram of n rows (an n x dim matrix).

    For n <= dim that is rows rows^T = U diag(d) U^T, n x n; for n > dim it
    is rows^T rows, dim x dim.  `values` is d non-increasing as
    `np.linalg.eigh` returns it (a rounding-level negative stays) and
    `vectors` holds the matching orthonormal eigenvectors as columns.

    A factor of the rows read off the eigenpairs costs accuracy.  M = rows
    rows^T is formed, and eigh solves it, with a backward error of about
    eps d_max, so d_i is off by about eps d_max / d_i relative.  Every form
    read off the eigenpairs then carries about eps d_max / d_min =
    eps cond(rows)^2: M^-1, rows^+ Y = rows^T M^-1 Y, and the orthonormality
    of the basis rows^T U D^-1/2 U^T (`features.row_space_factor`'s R),
    whose Gram is off from I by about eps d_max / sqrt(d_i d_j).  An SVD or
    QR of the rows errs by eps cond(rows) instead.  `well_conditioned`
    holds the error within GRAM_RTOL = 1e-10, 10x inside the 1e-9 at which
    sweeps are checked to repeat: cond(rows) up to about 670, d_min / d_max
    above about 2.2e-6.

    `estimator.svd_factors` holds a design's Gram route to the same
    budget without the eigenpairs.  Cholesky's backward error is also about
    eps ||M||, so M = L L^T gives M^-1, rows^+ Y and the basis
    L^-1 rows, orthonormal to about eps cond(M), the same eps cond(rows)^2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 10).  Without the eigenvalues it reads the computable upper bound
    kappa = ||M||_F ||M^-1||_F >= cond(M) and asks eps kappa <= GRAM_RTOL,
    which implies `well_conditioned` of the same rows.

    `risk`'s ridge step holds its Cholesky side to the same budget.
    G = A^T A + q I is the Gram of the stack [A; sqrt(q) I] that its QR side
    factors.  Cholesky's backward error leaves the computed G^-1 beta off by
    about eps cond(G) relative, and q G^-1 has its eigenvalues in (0, 1], so
    b* = beta - q G^-1 beta is off by at most about eps cond(G) ||beta||.
    The switch runs before G is packed from the replicate's Gram, so it
    reads an upper bound kappa >= cond(G) in place of d_max / d_min and
    asks eps kappa <= GRAM_RTOL (`risk._ridge_cholesky`, which factors G in
    packed storage).
    """

    values: np.ndarray
    vectors: np.ndarray
    n: int

    @property
    def lambda_hat(self) -> np.ndarray:
        """The min(n, dim) leading eigenvalues of (1/n) rows^T rows,
        non-increasing and clipped at 0."""
        return np.clip(self.values / self.n, 0.0, None)

    @property
    def well_conditioned(self) -> bool:
        """d_min > 0 and eps d_max <= GRAM_RTOL d_min: the one test under which
        the eigenpairs stand in for a factorization of the rows."""
        d_max, d_min = float(self.values[0]), float(self.values[-1])
        return d_min > 0 and np.finfo(float).eps * d_max <= GRAM_RTOL * d_min


def gram_eigh(feature_rows: np.ndarray) -> GramEigen:
    """One symmetric eigensolve of the smaller of the n x n Gram and the
    dim x dim covariance of the rows.

    It is the one factorization behind both the empirical spectrum and the
    row-space basis of `features.row_space_factor`: a sweep runs it once
    per replicate on phi and hands the result to both.
    """
    rows = np.asarray(feature_rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("feature_rows must be a 2-d array")
    n, dim = rows.shape
    small = rows @ rows.T if n <= dim else rows.T @ rows
    values, vectors = np.linalg.eigh(small)
    return GramEigen(values=values[::-1], vectors=vectors[:, ::-1], n=n)


def empirical_covariance(feature_rows: np.ndarray) -> np.ndarray:
    """The min(n, dim) leading eigenvalues of (1/n) * rows^T rows.

    They come non-increasing and clipped at 0; the other dim - n eigenvalues
    of an n < dim estimate are exactly zero and are not returned.  Works on
    eigenfeature rows (giving the empirical covariance of phi) or on sampled
    feature rows (giving the feature-space covariance estimate).  The smaller
    of the n x n Gram and the dim x dim covariance is factored, by
    `gram_eigh`; a sweep calls that itself, once per replicate, since it
    also needs the eigenvectors.
    """
    return gram_eigh(feature_rows).lambda_hat


def numerical_support(spectrum: Spectrum) -> int:
    """How many eigenvalues exceed p * eps times the top one.

    The floor has the form of numpy's `matrix_rank` tolerance: an eigenvalue
    at or below it is rounding next to the top one, so no computed feature span
    can be told apart from one that holds its direction.  A finite-rank
    spectrum's support is its rank d, an exponential one's about
    -ln(p * eps) (32 at p = 60) and a polynomial one's about
    (p * eps)^(-1/gamma), when that is below p.
    """
    vals = spectrum.eigenvalues
    floor = spectrum.p * np.finfo(float).eps * vals[0]
    return int(np.count_nonzero(vals > floor))
