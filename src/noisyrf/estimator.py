"""Minimum-norm least squares and ridge estimators, with rank diagnostics.

The interpolating fit is `svd_factors(Z).apply_pinv(Y)`, the route
`risk.decompose` runs: singular values at or below rtol * sigma_max are
treated as zero, the remaining directions are inverted, and the result is the
least-squares solution of minimum Euclidean norm.  A wide design whose n x n
Gram is well conditioned is factored through that Gram's eigensolve, every
other design by LAPACK's SVD; both give the same `SvdFactors` contract (see
`svd_factors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import gram_eigh


def default_rtol(n: int, s: int) -> float:
    return 1e-10 * max(n, s)


@dataclass(eq=False)
class SvdFactors:
    """Thin SVD of a design restricted to its numerically nonzero directions."""

    U: np.ndarray      # (n, rank)
    sv: np.ndarray     # (rank,)
    V: np.ndarray      # (s, rank)
    rank: int
    cutoff: float

    def apply_pinv(self, Y: np.ndarray) -> np.ndarray:
        """Z^+ Y, the minimum-norm least-squares coefficients.

        At rank 0 (an all-zero design) the factors are empty and this is zero.
        """
        return self.V @ ((self.U.T @ Y).T / self.sv).T


def svd_factors(Z: np.ndarray, rtol: float | None = None) -> SvdFactors:
    """The thin SVD Z = U diag(sv) V^T restricted to the singular values above
    rtol * sv_max, sv descending; a design with a NaN or infinite entry is
    refused with a ValueError.

    A wide design (n < s) is factored through its n x n Gram where that Gram
    passes `GramEigen.well_conditioned` (eps d_max / d_min <= 1e-10, cond(Z)
    up to about 670) and rtol sv_max < sv_min, so that every direction is
    kept and the rank is n: `spectral.gram_eigh` gives Z Z^T = U D U^T (one
    syrk, one eigh), then sv = sqrt(d) and V^T = U^T Z / sv, scaled in
    place.  The forms the risk split reads, Z^+ Y, U Sigma^-2 U^T and V V^T,
    then carry about eps cond(Z)^2 (see `GramEigen`).  Everywhere else, and
    for every tall design, LAPACK's SVD runs, whose error is eps cond(Z): on
    the tall transpose Z^T = V S U^T for a wide design (LAPACK's path for a
    wide matrix is about twice as slow as the same call on its transpose),
    on Z itself for a tall one.  That covers the peak s ~ n, where cond(Z)
    reaches 1e3-1e5, and rank-deficient and steep designs.

    The two routes give different orthonormal bases: signs differ, and
    inside a cluster of close singular values the Gram route's vectors
    rotate with the BLAS thread count.  Only basis-invariant forms of the
    factors are meant to be read, such as the ones above.
    """
    Z = np.asarray(Z, dtype=float)
    n, s = Z.shape
    if rtol is None:
        rtol = default_rtol(n, s)
    if not (0.0 < rtol < 1.0):
        raise ValueError("rtol must lie in (0, 1)")
    if not np.isfinite(Z).all():
        raise ValueError("design has a NaN or infinite entry")
    if n < s:
        gram = gram_eigh(Z)
        d = gram.values
        if gram.well_conditioned and rtol * math.sqrt(d[0]) < math.sqrt(d[-1]):
            sv = np.sqrt(d)
            U = np.ascontiguousarray(gram.vectors)
            # taken as the n x s U^T Z: on two OpenBLAS threads the s x n
            # product Z^T U left up to 16 MB resident after it was freed
            Vt = U.T @ Z
            Vt /= sv[:, None]
            return SvdFactors(U=U, sv=sv, V=Vt.T, rank=n, cutoff=rtol * float(sv[0]))
        V, sv, Ut = np.linalg.svd(Z.T, full_matrices=False)
        U = Ut.T
    else:
        U, sv, Vt = np.linalg.svd(Z, full_matrices=False)
        V = Vt.T
    top = sv[0] if sv.size else 0.0
    cutoff = rtol * float(top)
    keep = sv > cutoff
    rank = int(np.count_nonzero(keep))
    return SvdFactors(U=U[:, keep], sv=sv[keep], V=V[:, keep], rank=rank,
                      cutoff=cutoff)


def ridge_fit(Z: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (Z^T Z + n * lam * s * I) beta = Z^T Y.

    The penalty enters the normal equations multiplied by both the sample
    count and the feature count, matching a squared-error objective averaged
    over n with an s-scaled norm penalty.  lam = 0 is only accepted when
    Z^T Z is invertible; otherwise use svd_factors(Z).apply_pinv(Y).
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, s = Z.shape
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0:
        if n < s or np.linalg.matrix_rank(Z) < s:
            raise ValueError("lam = 0 with a rank-deficient design has no unique solution; "
                             "use svd_factors(Z).apply_pinv(Y) for the minimum-norm interpolator")
    A = Z.T @ Z + (n * lam * s) * np.eye(s)
    return np.linalg.solve(A, Z.T @ Y)


@dataclass(eq=False)
class ProjectorDiag:
    """Diagnostics of Pi = (Z^T Z)^+ (Z^T Z) - I, i.e. minus the null-space projector."""

    pi_norm: float
    idempotency_defect: float  # ||Pi^2 + Pi||
    null_dim: int
    rank: int


def projector_diag(Z: np.ndarray, rtol: float | None = None) -> ProjectorDiag:
    """Operator norm and idempotency defect of the row-space defect projector.

    Pi vanishes exactly when the design has full column rank and is minus an
    orthogonal projector otherwise, so its norm is 0 or 1 up to rounding in
    the computed singular basis.  This factors the design itself, so the
    sweep does not call it: a sweep cell takes the rank from the factorization
    `risk.decompose` already made, sets null_dim = s - rank and uses
    pi_norm = 1 when null_dim > 0.  It stays as the standalone diagnostic
    that checks that shortcut.
    """
    f = svd_factors(Z, rtol)
    s = Z.shape[1]
    null_dim = s - f.rank
    if f.rank == 0:
        # Pi = -I
        return ProjectorDiag(pi_norm=1.0, idempotency_defect=0.0, null_dim=s, rank=0)
    gram_defect = f.V.T @ f.V - np.eye(f.rank)
    defect = float(np.linalg.norm(gram_defect, 2))
    pi_norm = 1.0 if null_dim > 0 else defect
    return ProjectorDiag(pi_norm=pi_norm, idempotency_defect=defect,
                         null_dim=null_dim, rank=f.rank)
