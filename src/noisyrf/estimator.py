"""Minimum-norm least squares and ridge estimators, with rank diagnostics.

The interpolating fit is assembled from the SVD of the design: singular values
at or below rtol * sigma_max are treated as zero, the remaining directions are
inverted, and the returned coefficient vector is the least-squares solution of
minimum Euclidean norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def default_rtol(n: int, s: int) -> float:
    return 1e-10 * max(n, s)


@dataclass(eq=False)
class MnlsFit:
    beta: np.ndarray
    rank: int
    singular_values: np.ndarray  # all min(n, s) values, non-increasing
    cutoff: float                # absolute threshold used for rank decisions
    residual_norm: float         # ||Z beta - Y||; nonzero when Y is not fitted exactly

    @property
    def interpolates(self) -> bool:
        return self.residual_norm <= 1e-8 * max(1.0, float(np.linalg.norm(self.beta)))


@dataclass(eq=False)
class SvdFactors:
    """Thin SVD of a design restricted to its numerically nonzero directions."""

    U: np.ndarray      # (n, rank)
    sv: np.ndarray     # (rank,)
    V: np.ndarray      # (s, rank)
    rank: int
    cutoff: float
    all_sv: np.ndarray

    def apply_pinv(self, Y: np.ndarray) -> np.ndarray:
        """Z^+ Y, the minimum-norm least-squares coefficients."""
        return self.V @ ((self.U.T @ Y).T / self.sv).T


def svd_factors(Z: np.ndarray, rtol: float | None = None) -> SvdFactors:
    Z = np.asarray(Z, dtype=float)
    n, s = Z.shape
    if rtol is None:
        rtol = default_rtol(n, s)
    if not (0.0 < rtol < 1.0):
        raise ValueError("rtol must lie in (0, 1)")
    U, sv, Vt = np.linalg.svd(Z, full_matrices=False)
    top = sv[0] if sv.size else 0.0
    cutoff = rtol * float(top)
    keep = sv > cutoff
    rank = int(np.count_nonzero(keep))
    return SvdFactors(U=U[:, keep], sv=sv[keep], V=Vt[keep].T, rank=rank,
                      cutoff=cutoff, all_sv=sv)


def mnls_fit(Z: np.ndarray, Y: np.ndarray, rtol: float | None = None) -> MnlsFit:
    """Minimum-norm least-squares fit of Y on the rows of Z.

    An all-zero design is legal: the fit is beta = 0 and the residual norm
    records the unfitted labels.
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Z.ndim != 2 or Y.shape[0] != Z.shape[0]:
        raise ValueError("Z must be (n, s) and Y length n")
    f = svd_factors(Z, rtol)
    beta = f.apply_pinv(Y) if f.rank else np.zeros(Z.shape[1])
    residual = float(np.linalg.norm(Z @ beta - Y))
    return MnlsFit(beta=beta, rank=f.rank, singular_values=f.all_sv,
                   cutoff=f.cutoff, residual_norm=residual)


def ridge_fit(Z: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (Z^T Z + n * lam * s * I) beta = Z^T Y.

    The penalty enters the normal equations multiplied by both the sample
    count and the feature count, matching a squared-error objective averaged
    over n with an s-scaled norm penalty.  lam = 0 is only accepted when
    Z^T Z is invertible; otherwise use mnls_fit.
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n, s = Z.shape
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0:
        if n < s or np.linalg.matrix_rank(Z) < s:
            raise ValueError("lam = 0 with a rank-deficient design has no unique solution; "
                             "use mnls_fit for the minimum-norm interpolator")
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
