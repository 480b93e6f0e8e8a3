"""Excess-risk measurement and its bias / variance / misspecification split.

The risk is measured over the test population exactly.  Given a cell's
training draw, the prediction error at a test point is linear in its
eigenfeatures phi and its feature-noise draw xi, and the second moments are
known: E[phi phi^T] = Lambda in both covariate modes, and E[xi xi^T] =
(sigma0^2 / s) I for every noise family.  So every piece of the split is a
quadratic form over the weights W, the design's one SVD and the
conditional-mean coefficients u_hat.  Label noise is integrated in closed form
too: its variance is sigma^2 tr(Q) (see `_population_split`), so nothing is
redrawn and the split has no sampling error.  The tests check this route
against a sampled test measure of their own (`tests/sampled_reference.py`),
which shares only its inputs with it and redraws labels by Monte Carlo.

A realizable target reads W only through the column norms of
sqrt(Lambda) W [V, e], so its split also runs on row-space weights
(`features.RowSpaceWeights`), which give those norms in k + n + 1
coordinates, k = min(n, p), from W's part outside the eigenfeature rows'
span as their training set's one draw F (`features.ComplementFrame`).  An
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
one Gram H = (sqrt(Lambda) W)^T (sqrt(Lambda) W) = s A^T A: two projection
passes on H's Cholesky factor, then a Cholesky of G = H / s + q_p I formed
in H's place where one bound, eps (1 + tr(H) / (s q_p)) <= GRAM_RTOL on
G's condition, keeps the fit's error within the budget every Gram here is
held to (`spectral.GramEigen`; see `_ridge_cholesky`).  Each solve falls
back to a Householder QR on its own: the projection where H's factor or the
projection's check fails (`_qr_projection`), the fit where the bound
refuses (`_ridge_fit`).  `decompose` reads b* off the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .estimator import SvdFactors, default_rtol, svd_factors
from .features import FeatureEnsemble, column_product
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


def _upper_cholesky(X: np.ndarray) -> np.ndarray | None:
    """The upper triangle U with U^T U = X, or None where X's Cholesky raises.
    U = L^T is Fortran-ordered, so dtrtrs reads it without a copy."""
    try:
        return np.linalg.cholesky(X).T
    except np.linalg.LinAlgError:
        return None


def _cho_solve(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(U^T U)^-1 b by two triangular solves on the upper triangle held in
    the top rows of U, read in place."""
    y, _ = dtrtrs(U, b, lower=0, trans=1)
    x, _ = dtrtrs(U, y, lower=0, trans=0)
    return x


def _projection_pass(U: np.ndarray, W: np.ndarray, lam: np.ndarray,
                     c: np.ndarray) -> np.ndarray:
    """c - W (U^T U)^-1 W^T Lambda c: one pass of the span projection on the
    upper triangle U with U^T U = (sqrt(Lambda) W)^T (sqrt(Lambda) W), read in
    place from the top s rows of U."""
    return c - W @ _cho_solve(U, W.T @ (lam * c))


def _span_overlap(W: np.ndarray, lam: np.ndarray,
                  t: np.ndarray) -> tuple[float, float]:
    """(sum(lambda t^2), ||W^T Lambda t||): a tail's energy and its overlap
    with the feature span in the population inner product, which both
    orthogonality tests hold below a multiple of sqrt(tr(H) energy)."""
    lam_t = lam * t
    return float(t @ lam_t), float(np.linalg.norm(W.T @ lam_t))


def _gram_projection(H: np.ndarray, W: np.ndarray, lam: np.ndarray, c: np.ndarray,
                     tr: float) -> np.ndarray | None:
    """c with its feature-span part projected out by two passes on the
    Cholesky factor of H = (sqrt(Lambda) W)^T (sqrt(Lambda) W), whose trace
    is tr, or None where H's Cholesky raises or the projected tail fails the
    orthogonality check (see `make_target`).  H is left as it is."""
    p, s = W.shape
    U = _upper_cholesky(H)
    if U is None:
        return None
    c0_energy = float(c @ (lam * c))
    # the second pass takes the first's error, about eps cond(H) relative, to
    # its square
    c = _projection_pass(U, W, lam, _projection_pass(U, W, lam, c))
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
    return _projection_pass(factor, W, lam, c - W @ coef)


def _ridge_cholesky(H: np.ndarray, beta: np.ndarray, q: float,
                    tr: float) -> tuple[np.ndarray, float] | None:
    """(b*, rho^2) by the Cholesky side of the ridge step, or None where its
    switch refuses or G's Cholesky raises (see `_ridge_fit`).  tr is H's
    trace.  G = H / s + q I is the Gram of the stack the QR side factors, so
    the switch holds it to `spectral.GramEigen`'s budget: eps kappa <=
    GRAM_RTOL with kappa = 1 + tr(H) / (s q) >= cond(G), kappa up to about
    4.5e5.  It reads only tr, so a cell it refuses leaves H as it is;
    otherwise G is formed in H's place."""
    s = beta.size
    if np.finfo(float).eps * (1.0 + tr / (s * q)) > GRAM_RTOL:
        return None
    G = H
    G /= s
    G.flat[::s + 1] += q
    U = _upper_cholesky(G)
    if U is None:
        return None
    b_star = beta - q * _cho_solve(U, beta)
    return b_star, q * float(beta @ b_star)


def _ridge_fit(W: np.ndarray, lam: np.ndarray, beta: np.ndarray,
               q: float) -> tuple[np.ndarray, float]:
    """(b*, rho^2): the w minimizing ||A (w - beta)||^2 + q ||w||^2, q > 0,
    with A = sqrt(Lambda) W / sqrt(s), and that minimum, by one QR of the
    (p+s) x (s+1) stack [A, A beta; sqrt(q) I, 0]: the QR side of the ridge
    step.

    The Cholesky side (`_ridge_cholesky`) forms G = A^T A + q I = H / s + q I
    in the place of H = s A^T A, factors G = L L^T on numpy's BLAS and sets
    b* = beta - q G^-1 beta by two triangular solves; rho^2 = q beta . b*,
    the objective at the exact minimizer.  Its switch reads the a-priori
    bound kappa = 1 + tr(H) / (s q) >= cond(G) = (lambda_max(H) / s + q) /
    (lambda_min(H) / s + q), from lambda_max(H) <= tr(H) =
    ||sqrt(Lambda) W||_F^2 and lambda_min(H) >= 0, before G is formed.
    Where it refuses (large alpha, q tiny), and where G's Cholesky raises
    LinAlgError, this QR runs instead: it works on the square root of G's
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


def _solve_unrealizable(W: np.ndarray, lam: np.ndarray, c: np.ndarray, beta: np.ndarray,
                        q: float) -> tuple[np.ndarray, np.ndarray | None, float]:
    """(tail, b*, rho^2) of an unrealizable target drawn as c with
    beta_star = beta, at feature-noise variance q (see `make_target`)."""
    B = np.sqrt(lam)[:, None] * W
    H = B.T @ B   # numpy runs A^T A as a syrk
    # released before H is factored: kept alive next to H and L, it raised
    # the peak resident set
    del B
    tr = float(np.trace(H))
    projected = _gram_projection(H, W, lam, c, tr)
    fit = _ridge_cholesky(H, beta, q, tr) if q > 0 else (None, 0.0)
    # H, or G in its place, goes before either QR
    del H
    if projected is None:
        projected = _qr_projection(W, lam, c)
    if fit is None:
        fit = _ridge_fit(W, lam, beta, q)
    return projected, *fit


def make_target(mode: str, ensemble: FeatureEnsemble, norm: float,
                rng: np.random.Generator, *, tail_energy: float = 1.0) -> TargetFunction:
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
    (`_solve_unrealizable`): one syrk on numpy's BLAS, then one Cholesky
    H = L L^T (`_gram_projection`).  The projection c <- c - W H^-1 W^T
    Lambda c runs twice, each pass two triangular solves on L; the second
    takes the first's error, about eps cond(H) relative, to its square,
    which is rounding while cond(sqrt(Lambda) W) <= eps^-1/2 (CholeskyQR2's
    range; Fukaya et al. 2014).  The draw is degenerate where the projected
    energy sum(lambda c^2) <= default_rtol(p, s)^2 ||sqrt(Lambda) c_0||^2.
    L is released, and where the ridge switch's one bound, eps (1 + tr(H) /
    (s q)) <= GRAM_RTOL, holds, the fit factors G = H / s + q I, formed in
    H's place (`_ridge_cholesky`).  The fallbacks, each for its own solve:
    where H's Cholesky raises, or the projected tail fails ||W^T Lambda c||
    <= TAIL_RTOL sqrt(tr(H) energy) with TAIL_RTOL = 1e-12, 100x inside the
    TAIL_ACCEPT_RTOL = 1e-10 `decompose` demands, the projection reruns as
    one Householder QR of [sqrt(Lambda) W | sqrt(Lambda) c] and a second
    pass on its triangle (`_qr_projection`); where the ridge switch refuses
    or G's Cholesky raises, the fit is one QR of the stack
    [A, A beta; sqrt(q) I, 0] (`_ridge_fit`).  Both QRs run after H, or G in
    its place, is released.
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
    c, b_star, rho_sq = _solve_unrealizable(W, lam, c, beta, q)
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
    sqrt(s).  A label draw eps moves the fit to u_hat + V Sigma^-1 g with
    g = U^T eps, which adds to that risk a term linear in g and g^T Q g,
    where K = A V Sigma^-1 and Q = K^T K + (q_e + q_u) Sigma^-2.  g has mean
    0 and covariance sigma^2 I, so on average the label noise adds sigma^2
    tr(Q) = sigma^2 (||K||_F^2 + sum((q_e + q_u) / sv^2)): the variance.
    A is never formed, nor K^T K: the split reads only the column norms of
    A [V, e].  Dense weights give them from sqrt(Lambda) W V and
    sqrt(Lambda) W e, taken without stacking [V, e]; row-space weights give
    them from `RowSpaceWeights.times`, k + n + 1 rows whose columns have
    the norms of sqrt(Lambda) W [V, e]'s, with W's complement attached to
    the design's left singular vectors U.  ||A e||^2 and tr(Q) do not change
    when (U, V) turn to (U O, V O), so the split does not depend on the
    basis the factorization picked.
    """
    e = u_hat - ref
    W = ensemble.weights
    if isinstance(W, np.ndarray):
        AC = column_product(W, f.V, e)
        AC *= np.sqrt(ensemble.spectrum.eigenvalues)[:, None]
    else:
        AC = W.times(f.V, f.U, e)
    # the squared column norms of A [V, e]
    energy = np.einsum("ij,ij->j", AC, AC) / ensemble.s
    bias = float(energy[f.rank]) + q_e * float(e @ e) + q_u * float(u_hat @ u_hat) \
        + q_r * float(ref @ ref)
    return bias, sigma_sq * float(np.sum((energy[:f.rank] + (q_e + q_u)) / f.sv ** 2))


def decompose(ensemble: FeatureEnsemble, target: TargetFunction, sigma_sq: float, *,
              clean_test: bool = False, target_noise: str = "fresh") -> RiskDecomposition:
    """Full risk decomposition, exact over the test population.

    The labels carry gaussian noise of finite variance `sigma_sq` >= 0,
    integrated in closed form, so nothing is drawn.  An unknown
    `target_noise` is rejected.  The design is factored once, and the result's `rank` reports
    its numerical rank, so callers need no second SVD for it.
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
