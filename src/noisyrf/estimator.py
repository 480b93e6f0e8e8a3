"""Minimum-norm least squares and ridge estimators, with rank diagnostics.

The interpolating fit is `svd_factors(Z).apply_pinv(Y)`, the route
`risk.decompose` runs: singular values at or below the one rank cutoff,
`default_rtol(n, s)` * sigma_max, are treated as zero, the remaining
directions are inverted, and the result is the least-squares solution of
minimum Euclidean norm.  A design whose smaller Gram is certified well
conditioned is factored through that Gram's Cholesky factor, every other
design by LAPACK's SVD; both give the same `SvdFactors` contract (see
`svd_factors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import triangular_inverse_in_place
from .spectral import GRAM_RTOL

_EPS = float(np.finfo(float).eps)


def default_rtol(n: int, s: int) -> float:
    """The rank cutoff of an n x s design, relative to its top singular
    value."""
    return 1e-10 * max(n, s)


@dataclass(eq=False)
class SvdFactors:
    """An n x s design D factored on its numerically nonzero directions:
    D = U T V^T, with U (n x r) and V (s x r) of orthonormal columns and T
    an invertible r x r triangle, r the rank.

    LAPACK's SVD gives T = diag(sv), sv descending.  The Gram route of
    `svd_factors` factors the smaller Gram G = L L^T: U = I, T = L and
    V = D^T L^-T for a wide D (G = D D^T), U = D L^-T, T = L^T and V = I
    for a tall one (G = D^T D).  Only forms that do not depend on that
    choice are meant to be read: D^+ Y = V T^-1 U^T Y (`apply_pinv`),
    V V^T, the Frobenius norms of T^-1 and of M V T^-1 for any M (the risk
    split's variance), and V's coordinates in the QR basis of D^T
    (`qr_coords`).
    """

    U: np.ndarray      # (n, rank)
    Tinv: np.ndarray   # (rank, rank): T^-1, triangular or diagonal
    V: np.ndarray      # (s, rank)
    rank: int
    # T itself where `qr_coords` needs it: diag(sv) on the SVD route, L^T
    # on a tall design's Gram route; None on a wide design's, where V is
    # already the QR basis
    T: np.ndarray | None = None

    def apply_pinv(self, Y: np.ndarray) -> np.ndarray:
        """D^+ Y, the minimum-norm least-squares coefficients.

        At rank 0 (an all-zero design) the factors are empty and this is zero.
        """
        return self.V @ (self.Tinv @ (self.U.T @ Y))

    def qr_coords(self) -> np.ndarray:
        """The orthogonal r x r matrix B with V = Q B, for D^T = Q R the QR
        factorization whose R (r x n, upper) has a positive diagonal.

        Q depends on D alone, not on the route that factored it, so B is
        how a draw attached to D's rows reaches V (`features.RowSpaceWeights`).
        On a wide design's Gram route D^T = V L^T is that factorization, so
        B = I.  Elsewhere D^T = V (U T)^T, and the QR (U T)^T = Q' R of one
        r x n matrix gives Q = V Q' and B = Q'^T: (U T)^T is Sigma U^T on
        the SVD route and D^T itself on a tall design's Gram route.
        """
        if self.T is None:
            return np.eye(self.rank)
        q, r = np.linalg.qr((self.U @ self.T).T)
        # turn R's diagonal positive; an exact zero stays, with sign +1
        q *= np.where(np.diagonal(r) < 0, -1.0, 1.0)
        return q.T


def _svd_route(U: np.ndarray, sv: np.ndarray, V: np.ndarray, rtol: float) -> SvdFactors:
    """The factors of a thin SVD U diag(sv) V^T, sv descending, kept where
    sv > rtol * sv_max."""
    cutoff = rtol * (float(sv[0]) if sv.size else 0.0)
    keep = sv > cutoff
    sv = sv[keep]
    return SvdFactors(U=U[:, keep], Tinv=np.diag(1.0 / sv), V=V[:, keep], rank=sv.size,
                      T=np.diag(sv))


def _gram_factor(rows: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(kappa, L, L^-1) for the Cholesky factor G = rows rows^T = L L^T of
    a wide array, with kappa = ||G||_F ||G^-1||_F >= cond(G); None where
    the Cholesky or the triangular inversion fails."""
    gram = rows @ rows.T
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    # a Fortran copy of L^T, inverted in place: L^-T, and G^-1 = L^-T L^-1
    Lt_inv = np.array(L.T, order="F")
    if triangular_inverse_in_place(Lt_inv) != 0:
        return None
    kappa = float(np.linalg.norm(gram)) * float(np.linalg.norm(Lt_inv @ Lt_inv.T))
    return kappa, L, Lt_inv.T


def _gram_route(Z: np.ndarray, rtol: float) -> SvdFactors | None:
    """The Gram route of `svd_factors` for a wide or tall Z, or None where
    its certificate refuses."""
    n, s = Z.shape
    tall = s < n
    found = _gram_factor(Z.T if tall else Z)
    if found is None:
        return None
    kappa, L, L_inv = found
    if not (_EPS * kappa <= GRAM_RTOL and rtol * rtol * kappa < 1.0):
        return None
    if tall:
        # Z = (Z L^-T) L^T, and Z L^-T has orthonormal columns
        return SvdFactors(U=Z @ L_inv.T, Tinv=L_inv.T, V=np.eye(s), rank=s, T=L.T)
    # taken as the n x s L^-1 Z: on two OpenBLAS threads an s x n product
    # left up to 16 MB resident after it was freed
    Vt = L_inv @ Z
    return SvdFactors(U=np.eye(n), Tinv=L_inv, V=Vt.T, rank=n)


def svd_factors(Z: np.ndarray) -> SvdFactors:
    """Z = U T V^T on the singular values above rtol * sv_max, with
    rtol = default_rtol(n, s) (`SvdFactors`); a design with a NaN or
    infinite entry is refused with a ValueError.

    A design that is not square is factored through its smaller Gram G,
    Z Z^T (n x n) for a wide one and Z^T Z (s x s) for a tall one, where a
    computed bound certifies it: G = L L^T (one syrk, one Cholesky), L^-1
    by one in-place triangular inversion on numpy's OpenBLAS, and
    kappa = ||G||_F ||G^-1||_F >= cond(G) must satisfy eps kappa <=
    GRAM_RTOL (1e-10, cond(Z) up to about 670) and rtol^2 kappa < 1, so
    that every direction clears the rank cutoff and the rank is min(n, s).
    A wide Z then has U = I, T = L and V^T = L^-1 Z, an orthonormal basis of
    its rows; a tall one has U = Z L^-T, an orthonormal basis of its
    columns, T = L^T and V = I.  Cholesky's backward error leaves every form
    the risk split reads (Z^+ Y, ||T^-1||_F, V V^T) within about
    eps cond(G) = eps cond(Z)^2 <= GRAM_RTOL (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10; `spectral.GramEigen`
    holds the budget).  Everywhere else, and for every square design,
    LAPACK's SVD runs, whose error is eps cond(Z): on the tall transpose
    Z^T = V S U^T for a wide design (LAPACK's path for a wide matrix is
    about twice as slow as the same call on its transpose), on Z itself
    otherwise.  That covers the peak s = n, where cond(Z) reaches 1e3-1e5,
    and rank-deficient and steep designs.

    The routes give different bases: T is triangular on one and diagonal on
    the other, and the SVD's vectors inside a cluster of close singular
    values rotate with the BLAS thread count.  Only basis-invariant forms of
    the factors are meant to be read (`SvdFactors`).
    """
    Z = np.asarray(Z, dtype=float)
    n, s = Z.shape
    rtol = default_rtol(n, s)
    if not np.isfinite(Z).all():
        raise ValueError("design has a NaN or infinite entry")
    if n != s:
        factors = _gram_route(Z, rtol)
        if factors is not None:
            return factors
    if n < s:
        V, sv, Ut = np.linalg.svd(Z.T, full_matrices=False)
        return _svd_route(Ut.T, sv, V, rtol)
    U, sv, Vt = np.linalg.svd(Z, full_matrices=False)
    return _svd_route(U, sv, Vt.T, rtol)


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


def projector_diag(Z: np.ndarray) -> ProjectorDiag:
    """Operator norm and idempotency defect of the row-space defect projector.

    Pi vanishes exactly when the design has full column rank and is minus an
    orthogonal projector otherwise, so its norm is 0 or 1 up to rounding in
    the computed singular basis.  This factors the design itself, so the
    sweep does not call it: a sweep cell takes the rank from the factorization
    `risk.decompose` already made, sets null_dim = s - rank and uses
    pi_norm = 1 when null_dim > 0.  It stays as the standalone diagnostic
    that checks that shortcut.
    """
    f = svd_factors(Z)
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
