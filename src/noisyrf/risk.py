"""Excess-risk measurement and its bias / variance / misspecification split.

The risk is measured over the test population exactly.  Given a cell's
training draw, the prediction error at a test point is linear in its
eigenfeatures phi and its feature-noise draw xi, and the second moments are
known: E[phi phi^T] = Lambda in both covariate modes, and E[xi xi^T] =
(sigma0^2 / s) I for every noise family.  So every piece of the split is a
quadratic form over the weights W, the design's one factorization
D = U T V^T (`estimator.svd_factors`: the Cholesky factor of the design's
smaller Gram where it is well conditioned, else the SVD) and the
conditional-mean coefficients u_hat.  Label noise is integrated in closed form
too: its variance is sigma^2 tr(Q) (see `_population_split`), so nothing is
redrawn and the split has no sampling error.  The tests check this route
against a sampled test measure of their own (`tests/sampled_reference.py`),
which shares only its inputs with it and redraws labels by Monte Carlo.

A realizable target reads W only through the column norms and inner
products of sqrt(Lambda) W [V, e], so its split also runs on row-space
weights (`features.RowSpaceWeights`), which give them in k + n + 1
coordinates, k = min(n, p), from W's part outside the eigenfeature rows'
span as their training set's one draw F (`features.ComplementFrame`),
attached to the design's rows through the QR basis of D^T, which does not
depend on the route that factored D (`SvdFactors.qr_coords`).  An
unrealizable target needs the dense p x s W.  A reduced ensemble (features module) runs
the same split at width m + 1 = min(n, p) + n + 1: the design, its factors,
beta* and the fit live in those coordinates, while 1/sqrt(s) and the noise
variance q = sigma0^2 / s read the ensemble's true s.  The last coordinate
is zero in the design and in G', so beta*'s part outside the span of
[G; Xi] meets W only through ||e - V a||, the weight that W's complement
gives e's part outside V.

An unrealizable target's tail is orthogonal to the feature span in the
population inner product, so with A = sqrt(Lambda) W / sqrt(s) and test
feature-noise variance q_p the risk of coefficients w is ||A (w - beta*)||^2
+ q_p ||w||^2 plus the tail's energy.  Its best in-span fit b* is the ridge
fit with penalty q_p.  `make_target` solves the projection and that fit from
one Gram H = (sqrt(Lambda) W)^T (sqrt(Lambda) W) = s A^T A and its Cholesky
factor H = L L^T, read-only: the leading s x s blocks of the replicate's
`FactoredGram` in a sweep (`lambda_gram`, then `factor_gram` in the same
buffer, whose leading blocks do not depend on W's width), else formed and
factored for the call.  The projection's two passes solve on L's leading
block in place; the ridge Gram G = H / s + q_p I is packed from H's upper
triangle into the cell's one buffer, half an s x s square in RFP storage,
and factored there, where one bound, eps (1 + tr(H) / (s q_p)) <=
GRAM_RTOL on G's condition, keeps the fit's error within the budget every
Gram here is held to (`spectral.GramEigen`; see `_ridge_cholesky`).  Every
factor and solve runs on numpy's OpenBLAS (`blas`).  Each solve falls back
to a Householder QR on its own: the projection where H's factor stopped
before order s or the projection's check fails (`_qr_projection`), the fit
where the bound refuses or G's factor fails (`_ridge_fit`).  `decompose`
reads b* off the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .blas import (blocked_cholesky_in_place, cholesky_solve_in_place, pack_upper,
                   packed_cholesky_in_place, packed_cholesky_solve_in_place, rfp_diagonal)
from .estimator import SvdFactors, default_rtol, svd_factors
from .features import WEIGHT_BLOCK, FeatureEnsemble, column_product
from .spectral import GRAM_RTOL

TARGET_MODES = ("realizable-clean", "realizable-noisy", "unrealizable")
TARGET_NOISE_MODES = ("shared", "fresh", "clean")


@dataclass(eq=False)
class TargetFunction:
    """Ground-truth regression function.

    realizable-clean : f*(x) = z_x . beta_star on the noiseless features
    realizable-noisy : f*(x) = z_x^noisy . beta_star, sharing the training
                       noise on training points
    unrealizable     : adds an eigenfeature component orthogonal (in the
                       population inner product) to everything the sampled
                       features can express: W^T Lambda tail_coeffs = 0

    An unrealizable target drawn on a noisy ensemble also carries its best
    in-span fit at the ensemble's feature-noise entry variance fit_q:
    b_star minimizes ||A (w - beta_star)||^2 + fit_q ||w||^2 over w, with
    A = sqrt(Lambda) W / sqrt(s), and rho_sq is that minimum.  Without
    feature noise b_star is beta_star itself, so it is left None and rho_sq
    is 0.
    """

    mode: str
    beta_star: np.ndarray
    tail_coeffs: np.ndarray | None
    norm: float
    b_star: np.ndarray | None = None
    rho_sq: float = 0.0
    fit_q: float = 0.0


@dataclass(frozen=True)
class RiskDecomposition:
    """The risk split total = bias + variance + misspec over the test population.

    bias is the risk of the conditional-mean fit u_hat in excess of the best
    in-span fit b*: b* = beta_star for a realizable target, whose misspec is
    0; for an unrealizable target b* minimizes the population risk over the
    feature span, and misspec is that minimum, the target's population
    distance from the span.  That b* is the ridge fit at the test points'
    feature-noise variance, the one `make_target` stored on the target, or
    beta_star on clean test features; misspec is the tail's energy plus the
    fit's in-span risk.  variance is the label-noise variance.  Every piece is
    exact, and total is their sum.
    """

    bias: float
    variance: float
    misspec: float
    total: float
    rank: int    # numerical rank of the design in the factorization the split used


@dataclass(frozen=True, eq=False)
class FactoredGram:
    """A Gram H = (sqrt(Lambda) W)^T (sqrt(Lambda) W) of p x S weights W and
    its Cholesky factor H = L L^T in one S x S Fortran buffer
    (`factor_gram`): buffer holds H strictly above its diagonal and L on and
    below it, diagonal holds H's diagonal, and order is the order of L's
    largest complete leading block, S where the factor ran to the end and
    k - 1 where it stopped at the order k of a leading minor it found not
    positive definite.  The cell at s reads the leading s x s blocks: H_s
    from the upper triangle and diagonal, and L_s, H_s's factor, where
    s <= order.  A pool wider than p, or than the spectrum's support, gives
    an H of lower rank than S, whose factor stops past that rank by design.
    """

    buffer: np.ndarray
    diagonal: np.ndarray
    order: int


def _lstsq_qr(m: int, k: int, fill) -> tuple[np.ndarray, float, np.ndarray]:
    """Least squares of y on X by one Householder QR of aug = [X | y].

    fill writes the m x k matrix X and the m-vector y into a zeroed,
    Fortran-ordered m x (k+1) array.  With aug = Q [R, r; 0, rho], the
    coefficients x minimizing ||X x - y|| solve R x = r and the minimum is
    rho^2; returns (x, rho^2, factor).  numpy's raw QR of a Fortran array
    hands back the transpose of LAPACK's Fortran output, whose first k
    columns are contiguous, so the triangular solve reads R there in place:
    no triangle is copied out.  factor is those m x k columns, R on and
    above the diagonal of the top k rows and Householder vectors below it.
    As a view it keeps the whole QR output alive, so a caller that does not
    read R drops it; `_qr_projection` reads it for its second pass.  This QR
    is the fallback only: `_qr_projection` and the ridge step's stack
    (`_ridge_fit`).  Fortran order also makes the fill from a
    Fortran-ordered W and numpy's copies of aug into LAPACK's buffer
    straight column copies.  Raises LinAlgError when R has a zero on its
    diagonal.
    """
    aug = np.zeros((m, k + 1), order="F")
    fill(aug)
    h, _ = np.linalg.qr(aug, mode="raw")
    # released before h, so the allocator can return both at once; freed the
    # other way round, aug stayed resident as heap in every later sweep
    del aug
    out = h.T
    x, info = dtrtrs(out[:, :k], out[:k, k], lower=0)
    if info > 0:
        raise np.linalg.LinAlgError("least-squares matrix is rank deficient")
    return x, float(out[k, k] ** 2), out[:, :k]


# the largest ||W^T Lambda t|| / sqrt(tr(H) energy) of a tail t (see
# _span_overlap) that decompose accepts as orthogonal to the feature span
TAIL_ACCEPT_RTOL = 1e-10
# the largest such ratio the Gram projection may leave (see make_target):
# 100x inside TAIL_ACCEPT_RTOL and about 100x above the rounding of
# W^T Lambda c itself, about sqrt(p) eps ~ 1e-14 at p = 2000
TAIL_RTOL = 1e-12
_DEGENERATE = "degenerate out-of-span draw; eigenvalues may vanish outside the span"


def _cho_solve(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(U^T U)^-1 b by two triangular solves on the upper triangle held in
    the top rows of U, read in place."""
    y, _ = dtrtrs(U, b, lower=0, trans=1)
    x, _ = dtrtrs(U, y, lower=0, trans=0)
    return x


def _projection_pass(solve, W: np.ndarray, lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c - W H^-1 W^T Lambda c: one pass of the span projection, with
    solve(x) = H^-1 x for H = (sqrt(Lambda) W)^T (sqrt(Lambda) W) through a
    Cholesky factor of H."""
    return c - W @ solve(W.T @ (lam * c))


def _span_overlap(W: np.ndarray, lam: np.ndarray,
                  t: np.ndarray) -> tuple[float, float]:
    """(sum(lambda t^2), ||W^T Lambda t||): a tail's energy and its overlap
    with the feature span in the population inner product, which both
    orthogonality tests hold below a multiple of sqrt(tr(H) energy)."""
    lam_t = lam * t
    return float(t @ lam_t), float(np.linalg.norm(W.T @ lam_t))


def _gram_projection(gram: FactoredGram, W: np.ndarray, lam: np.ndarray, c: np.ndarray,
                     tr: float) -> np.ndarray | None:
    """c with its feature-span part projected out by two passes on the
    leading s x s block of gram's factor L, H = L L^T, read in place
    (`blas.cholesky_solve_in_place`), with tr = tr(H); None where that
    block is not complete (the factor stopped at an order k <= s) or the
    projected tail fails the orthogonality check (see `make_target`)."""
    p, s = W.shape
    if s > gram.order:
        return None

    def solve(x):
        return cholesky_solve_in_place(gram.buffer, s, x)

    c0_energy = float(c @ (lam * c))
    # the second pass takes the first's error, about eps cond(H) relative, to
    # its square
    c = _projection_pass(solve, W, lam, _projection_pass(solve, W, lam, c))
    energy, overlap = _span_overlap(W, lam, c)
    # the projection only adds an in-span part to the true residual, so a
    # residual at rounding level here is one in exact arithmetic too
    if energy <= default_rtol(p, s) ** 2 * c0_energy:
        raise ValueError(_DEGENERATE)
    if not overlap <= TAIL_RTOL * math.sqrt(tr * energy):
        return None
    return c


def _qr_projection(W: np.ndarray, lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c with its feature-span part projected out by one Householder QR of
    [sqrt(Lambda) W | sqrt(Lambda) c] and a second pass on its triangle R;
    the fallback of `_gram_projection` (see `make_target`)."""
    p, s = W.shape
    sqrt_lam = np.sqrt(lam)
    y = sqrt_lam * c

    def fill(aug):
        np.multiply(sqrt_lam[:, None], W, out=aug[:, :s])
        aug[:, s] = y

    try:
        coef, rss, factor = _lstsq_qr(p, s, fill)
    except np.linalg.LinAlgError:  # zero eigenvalues left sqrt(Lambda) W rank < s
        rss = 0.0
    # a residual at rounding level means the span holds all of c's support
    if rss <= default_rtol(p, s) ** 2 * float(y @ y):
        raise ValueError(_DEGENERATE)
    # one more projection through the same factor: the first leaves c
    # orthogonal to the span only to about eps times cond(sqrt(Lambda) W),
    # which steep spectra push past what decompose accepts; the second brings
    # it to rounding level
    return _projection_pass(lambda x: _cho_solve(factor, x), W, lam, c - W @ coef)


def _ridge_cholesky(gram: FactoredGram, beta: np.ndarray, q: float,
                    tr: float) -> tuple[np.ndarray, float] | None:
    """(b*, rho^2) by the Cholesky side of the ridge step, or None where its
    switch refuses or G's factor fails (see `_ridge_fit`).  tr is tr(H_s)
    of the leading s x s block H_s of gram's H, s = beta.size.
    G = H_s / s + q I is the Gram of the stack the QR side factors, so the
    switch holds it to `spectral.GramEigen`'s budget: eps kappa <=
    GRAM_RTOL with kappa = 1 + tr / (s q) >= cond(G), kappa up to about
    4.5e5.  It reads only tr, so a cell it refuses packs nothing.
    Otherwise G is packed straight from gram's upper triangle, H's, into the
    cell's one buffer, s (s + 1) / 2 doubles in RFP storage
    (`blas.pack_upper`), H's diagonal taken from gram.diagonal, and
    factored and solved there (`blas.packed_cholesky_in_place`)."""
    s = beta.size
    if np.finfo(float).eps * (1.0 + tr / (s * q)) > GRAM_RTOL:
        return None
    G = pack_upper(gram.buffer, s)
    G /= s
    # pack_upper copied L's diagonal, which shares the buffer's diagonal
    G[rfp_diagonal(s)] = gram.diagonal[:s] / s + q
    if packed_cholesky_in_place(G, s) != 0:
        return None
    b_star = beta - q * packed_cholesky_solve_in_place(G, s, beta.copy())
    return b_star, q * float(beta @ b_star)


def _ridge_fit(W: np.ndarray, lam: np.ndarray, beta: np.ndarray,
               q: float) -> tuple[np.ndarray, float]:
    """(b*, rho^2): the w minimizing ||A (w - beta)||^2 + q ||w||^2, q > 0,
    with A = sqrt(Lambda) W / sqrt(s), and that minimum, by one QR of the
    (p+s) x (s+1) stack [A, A beta; sqrt(q) I, 0]: the QR side of the ridge
    step.

    The Cholesky side (`_ridge_cholesky`) packs G = A^T A + q I = H / s + q I
    from H = s A^T A into the cell's one buffer, s (s + 1) / 2 doubles in
    RFP storage, factors G = U^T U there on numpy's BLAS and sets
    b* = beta - q G^-1 beta by two triangular solves; rho^2 = q beta . b*,
    the objective at the exact minimizer.  Its switch reads the a-priori
    bound kappa = 1 + tr(H) / (s q) >= cond(G) = (lambda_max(H) / s + q) /
    (lambda_min(H) / s + q), from lambda_max(H) <= tr(H) =
    ||sqrt(Lambda) W||_F^2 and lambda_min(H) >= 0, before G is packed.
    Where it refuses (large alpha, q tiny), and where G's factor fails
    (info > 0), this QR runs instead: it works on the square root of G's
    condition, and reads sqrt(Lambda) W itself, since H carries rounding of
    about eps ||H||, which any factor of it would carry into the fit at
    cond(G).
    """
    p, s = W.shape
    scale = np.sqrt(lam / s)

    def fill_stack(stack):
        top = stack[:p, :s]
        np.multiply(scale[:, None], W, out=top)
        stack[:p, s] = top @ beta
        stack[p + np.arange(s), np.arange(s)] = math.sqrt(q)

    b_star, rho_sq, _ = _lstsq_qr(p + s, s, fill_stack)
    return b_star, rho_sq


def lambda_gram(W: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """H = (sqrt(Lambda) W)^T (sqrt(Lambda) W) = W^T Lambda W of the p x s
    weights W, on and above its diagonal blocks, as an s x s Fortran array.

    Block column j, the WEIGHT_BLOCK columns from lo = j WEIGHT_BLOCK to hi,
    holds W[:, :hi]^T (Lambda W[:, lo:hi]) in its first hi rows: one gemm on
    numpy's BLAS per block column, beside one p x WEIGHT_BLOCK panel
    Lambda W[:, lo:hi].  The blocks below are zero; the factor and the trace
    read only the upper triangle.  A block column reads W's first hi columns
    alone, through a gemm whose shape depends on j alone, so where W is
    whole blocks wide its H is the leading block, to the bit, of the H of
    any wider W that starts with it.  One syrk of W is not: its leading
    block moves with the width it factors.
    """
    s = W.shape[1]
    H = np.zeros((s, s), order="F")
    for lo in range(0, s, WEIGHT_BLOCK):
        hi = min(lo + WEIGHT_BLOCK, s)
        np.matmul(W[:, :hi].T, lam[:, None] * W[:, lo:hi], out=H[:hi, lo:hi])
    return H


def factor_gram(H: np.ndarray) -> FactoredGram:
    """H's Cholesky factor, taken in H's own buffer: H is a writable
    Fortran-ordered square array holding the Gram on and above its diagonal
    (`lambda_gram`), and is factored in fixed WEIGHT_BLOCK blocks
    (`blas.blocked_cholesky_in_place`), so that where H is whole blocks wide
    the leading blocks of its factor are those of any wider Gram whose
    leading blocks are H's, to the bit.  H's diagonal is copied out first."""
    diagonal = H.diagonal().copy()
    info = blocked_cholesky_in_place(H, WEIGHT_BLOCK)
    return FactoredGram(H, diagonal, H.shape[0] if info == 0 else max(info - 1, 0))


def _solve_unrealizable(W: np.ndarray, lam: np.ndarray, c: np.ndarray, beta: np.ndarray,
                        q: float, gram: FactoredGram | None
                        ) -> tuple[np.ndarray, np.ndarray | None, float]:
    """(tail, b*, rho^2) of an unrealizable target drawn as c with
    beta_star = beta, at feature-noise variance q, on the leading s x s
    blocks of gram, or of `factor_gram(lambda_gram(W, lam))` formed here
    where gram is None (see `make_target`)."""
    s = W.shape[1]
    if gram is None:
        gram = factor_gram(lambda_gram(W, lam))
    tr = float(np.sum(gram.diagonal[:s]))
    projected = _gram_projection(gram, W, lam, c, tr)
    fit = _ridge_cholesky(gram, beta, q, tr) if q > 0 else (None, 0.0)
    # a gram formed here goes before either QR
    del gram
    if projected is None:
        projected = _qr_projection(W, lam, c)
    if fit is None:
        fit = _ridge_fit(W, lam, beta, q)
    return projected, *fit


def make_target(mode: str, ensemble: FeatureEnsemble, norm: float,
                rng: np.random.Generator, *, tail_energy: float = 1.0,
                gram: np.ndarray | None = None) -> TargetFunction:
    """Draw a target: beta_star uniform on the radius-`norm` sphere, plus an
    out-of-span component of the requested energy in unrealizable mode.

    The component is a gaussian draw c with its feature-span part projected
    out in the population inner product <u, v> = sum_i lambda_i u_i v_i; a
    draw whose remainder is rounding (the span holds every direction the
    spectrum gives energy to) is refused with a ValueError.  On a noisy
    ensemble the unrealizable target also gets its best in-span fit (see
    TargetFunction), a ridge fit with penalty q, the feature-noise entry
    variance.  A norm or tail_energy that is not positive and finite, and an
    unrealizable target on row-space weights, whose solves need the dense
    p x s W, are refused before any draw.  On a reduced ensemble (m + 1
    wide, `features.build_ensemble`) beta_star is drawn as its image there:
    g ~ N(0, I_m), then rho^2 ~ chi^2_{s-m}, and beta_star =
    norm [g, rho] / sqrt(||g||^2 + rho^2).

    Both solves run on one Gram H = (sqrt(Lambda) W)^T (sqrt(Lambda) W)
    and its Cholesky factor H = L L^T (`_solve_unrealizable`): the leading
    s x s blocks of gram, the `factor_gram(lambda_gram(...))` of a W whose
    first s columns are the ensemble's (a sweep forms one per unrealizable
    replicate), or else of `lambda_gram(W, lam)` formed and factored here
    by the same two routines.  gram is only read, and never copied.  The
    projection c <- c - W H^-1 W^T Lambda c runs twice, each pass two
    triangular solves on L's leading block in place, on numpy's OpenBLAS
    (`blas.cholesky_solve_in_place`, `_gram_projection`); the second takes
    the first's error, about eps cond(H) relative, to its square, which is
    rounding while cond(sqrt(Lambda) W) <= eps^-1/2 (CholeskyQR2's range;
    Fukaya et al. 2014).  The draw is degenerate where the projected energy
    sum(lambda c^2) <= default_rtol(p, s)^2 ||sqrt(Lambda) c_0||^2.  Where
    the ridge switch's one bound, eps (1 + tr(H) / (s q)) <= GRAM_RTOL,
    holds, G = H / s + q I is packed from gram's upper triangle and
    diagonal into the cell's one buffer, s (s + 1) / 2 doubles in RFP
    storage, and factored and solved there (`_ridge_cholesky`).  The
    fallbacks, each for its own solve: where gram's factor stopped at an
    order k <= s, or the projected tail fails ||W^T Lambda c||
    <= TAIL_RTOL sqrt(tr(H) energy) with TAIL_RTOL = 1e-12, 100x inside the
    TAIL_ACCEPT_RTOL = 1e-10 `decompose` demands, the projection reruns as
    one Householder QR of [sqrt(Lambda) W | sqrt(Lambda) c] and a second
    pass on its triangle (`_qr_projection`); where the ridge switch refuses
    or G's factor fails, the fit is one QR of the stack
    [A, A beta; sqrt(q) I, 0] (`_ridge_fit`).  Both QRs run after the
    packed buffer, and a Gram formed here, is released.  A gram whose
    buffer is not square or has fewer than s rows is refused before any
    draw.
    """
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown target mode {mode!r}; expected one of {TARGET_MODES}")
    if not 0 < norm < math.inf:
        raise ValueError(f"norm must be positive and finite, got {norm!r}")
    s, p = ensemble.s, ensemble.p
    if mode == "realizable-noisy" and ensemble.noise_spec is None:
        raise ValueError("realizable-noisy target needs an ensemble with injected noise")
    if mode == "unrealizable":
        if p <= s:
            raise ValueError("unrealizable target needs p > s so something lies outside "
                             "the span")
        if not 0 < tail_energy < math.inf:
            raise ValueError(f"tail_energy must be positive and finite, got {tail_energy!r}")
        if not isinstance(ensemble.weights, np.ndarray):
            raise ValueError("unrealizable target needs the dense p x s W; build the "
                             "ensemble without a complement")
        if gram is not None and not (gram.buffer.ndim == 2
                                     and gram.buffer.shape[0] == gram.buffer.shape[1] >= s):
            raise ValueError(f"gram must be square with at least s = {s} rows, got shape "
                             f"{gram.buffer.shape}")
    if ensemble.reduced:
        # beta*'s image in the reduced coordinates (features module): its
        # part in the span of [G; Xi], then the norm of the rest
        m = ensemble.width - 1
        v = np.append(rng.standard_normal(m), math.sqrt(rng.chisquare(s - m)))
    else:
        v = rng.standard_normal(s)
    beta = norm * v / np.linalg.norm(v)
    if mode != "unrealizable":
        return TargetFunction(mode=mode, beta_star=beta, tail_coeffs=None, norm=norm)
    lam = ensemble.spectrum.eigenvalues
    c = rng.standard_normal(p)
    spec = ensemble.noise_spec
    q = spec.entry_variance if spec is not None else 0.0
    W = ensemble.weights
    c, b_star, rho_sq = _solve_unrealizable(W, lam, c, beta, q, gram)
    tail = c * math.sqrt(tail_energy / float(np.sum(lam * c * c)))
    # without feature noise b_star is None, rho_sq 0 and fit_q 0: the defaults
    return TargetFunction(mode=mode, beta_star=beta, tail_coeffs=tail, norm=norm,
                          b_star=b_star, rho_sq=rho_sq, fit_q=q)


def target_train_values(target: TargetFunction, ensemble: FeatureEnsemble) -> np.ndarray:
    """f* evaluated on the training covariates."""
    if target.mode == "realizable-clean":
        return ensemble.Z @ target.beta_star
    if target.mode == "realizable-noisy":
        if ensemble.noise_spec is None:
            raise ValueError("realizable-noisy target needs an ensemble with injected noise")
        return ensemble.design @ target.beta_star
    return ensemble.Z @ target.beta_star + ensemble.phi @ target.tail_coeffs


def _test_noise(ensemble: FeatureEnsemble, target: TargetFunction, clean_test: bool,
                target_noise: str) -> tuple[float, float, float]:
    """Per-entry variances (q_p, q_x, q_t) of a test point's feature noise.

    q_p is the predictor row's, q_t the target row's (realizable-noisy
    targets only) and q_x the part the two share.  The predictor row's noise
    is a fresh draw unless clean_test; the target row's is a fresh draw
    ("fresh"), the predictor row's own ("shared") or none ("clean").
    """
    spec = ensemble.noise_spec
    q = spec.entry_variance if spec is not None else 0.0
    q_p = 0.0 if clean_test else q
    q_t = q if target.mode == "realizable-noisy" and target_noise != "clean" else 0.0
    q_x = q_t if q_p > 0 and target_noise == "shared" else 0.0
    return q_p, q_x, q_t


def _tail_energy(ensemble: FeatureEnsemble, target: TargetFunction) -> float:
    """An unrealizable target's tail energy sum(lambda * tail^2), once its
    tail is checked to be orthogonal to the feature span in the population
    inner product, the premise under which b* and M need no cross term; a
    tail that is not is refused with a ValueError."""
    lam = ensemble.spectrum.eigenvalues
    W = ensemble.weights
    energy, overlap = _span_overlap(W, lam, target.tail_coeffs)
    # tr(H) = ||sqrt(Lambda) W||_F^2
    tr = float(np.einsum("ij,ij->i", W, W) @ lam)
    if not overlap <= TAIL_ACCEPT_RTOL * math.sqrt(tr * energy):
        raise ValueError("unrealizable target's tail is not orthogonal to the feature span "
                         "in the population inner product; make_target draws one that is")
    return energy


def _population_split(ensemble: FeatureEnsemble, f: SvdFactors, u_hat: np.ndarray,
                      ref: np.ndarray, q_e: float, q_u: float, q_r: float,
                      sigma_sq: float) -> tuple[float, float]:
    """(bias, variance) over the test population.

    The risk of coefficients w, less M, is ||A e||^2 + q_e ||e||^2 +
    q_u ||w||^2 + q_r ||ref||^2 with e = w - ref and A = sqrt(Lambda) W /
    sqrt(s).  With the design's factors D = U T V^T, a label draw eps moves
    the fit to u_hat + V T^-1 g with g = U^T eps, which adds to that risk a
    term linear in g and g^T Q g, where K = A V T^-1 and
    Q = K^T K + (q_e + q_u) T^-T T^-1.  g has mean 0 and covariance
    sigma^2 I, so on average the label noise adds sigma^2 tr(Q) =
    sigma^2 (||K||_F^2 + (q_e + q_u) ||T^-1||_F^2): the variance.  On the
    SVD route T = diag(sv), and this is sigma^2 sum((||A v_i||^2 +
    q_e + q_u) / sv_i^2).  A is never formed, nor K^T K: the split reads
    only column norms.  Dense weights give them from sqrt(Lambda) W V T^-1
    and sqrt(Lambda) W e, taken without stacking the two; row-space weights
    give them from `RowSpaceWeights.times`, k + n + 1 rows whose columns
    have the norms and inner products of sqrt(Lambda) W [V, e]'s, with W's
    complement attached to V's coordinates in the design's QR basis
    (`SvdFactors.qr_coords`), then times T^-1.  ||A e||^2 and tr(Q) do not
    depend on the factorization the design took.
    """
    e = u_hat - ref
    W = ensemble.weights
    r = f.rank
    if isinstance(W, np.ndarray):
        # V T^-1 is s x r, cheaper than the p x r product's T^-1 for s < p
        AC = column_product(W, f.V @ f.Tinv, e)
        AC *= np.sqrt(ensemble.spectrum.eigenvalues)[:, None]
    else:
        AC = W.times(f.V, f.qr_coords(), e)
        AC[:, :r] = AC[:, :r] @ f.Tinv
    # the squared column norms of A [V T^-1, e]
    energy = np.einsum("ij,ij->j", AC, AC) / ensemble.s
    bias = float(energy[r]) + q_e * float(e @ e) + q_u * float(u_hat @ u_hat) \
        + q_r * float(ref @ ref)
    tinv_sq = float(np.einsum("ij,ij->", f.Tinv, f.Tinv))
    return bias, sigma_sq * (float(np.sum(energy[:r])) + (q_e + q_u) * tinv_sq)


def decompose(ensemble: FeatureEnsemble, target: TargetFunction, sigma_sq: float, *,
              clean_test: bool = False, target_noise: str = "fresh") -> RiskDecomposition:
    """Full risk decomposition, exact over the test population.

    The labels carry gaussian noise of finite variance `sigma_sq` >= 0,
    integrated in closed form, so nothing is drawn.  An unknown
    `target_noise` is rejected.  The design is factored once, and the
    result's `rank` reports its numerical rank, so callers need no second
    factorization for it.
    """
    if not 0 <= sigma_sq < math.inf:
        raise ValueError(f"sigma_sq must be finite and >= 0, got {sigma_sq!r}")
    if target_noise not in TARGET_NOISE_MODES:
        raise ValueError("target_noise must be shared, fresh or clean")
    f = svd_factors(ensemble.design)
    u_hat = f.apply_pinv(target_train_values(target, ensemble))
    q_p, q_x, q_t = _test_noise(ensemble, target, clean_test, target_noise)
    b_star = None
    misspec = 0.0
    if target.mode == "unrealizable":
        misspec = _tail_energy(ensemble, target)
        if q_p == 0:
            b_star = target.beta_star
        elif target.b_star is None or target.fit_q != q_p:
            raise ValueError("unrealizable target carries no best in-span fit at the test "
                             f"feature-noise variance {q_p!r}; draw it with make_target on "
                             "this ensemble")
        else:
            b_star, misspec = target.b_star, misspec + target.rho_sq
    if b_star is None:
        # q_p |w|^2 - 2 q_x w.beta + q_t |beta|^2 regrouped with non-negative
        # weights, so the bias cannot round below zero
        ref, q_e, q_u, q_r = target.beta_star, q_x, q_p - q_x, q_t - q_x
    else:
        # the normal equations at b* kill the cross term
        ref, q_e, q_u, q_r = b_star, q_p, 0.0, 0.0
    bias, var = _population_split(ensemble, f, u_hat, ref, q_e, q_u, q_r, sigma_sq)
    return RiskDecomposition(bias=bias, variance=var, misspec=misspec,
                             total=bias + var + misspec, rank=f.rank)
