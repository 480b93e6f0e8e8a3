"""Monte Carlo experiments probing the concentration facts the bounds rest on.

Each experiment returns an ExperimentReport: parameters, sample statistics,
the stated bound it is checked against, and a verdict.  Assert-class
experiments compare an empirical tail or quantile against a generously
rescaled bound; report-only experiments measure quantities whose stated
interval is itself under scrutiny and take no side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .features import _unit_variance_draw

DEFAULT_TRIALS = {
    "mgf-product": 100_000,
    "norm-concentration": 10_000,
    "weighted-subexp-sum": 10_000,
    "gram-eigenvalues": 200,
    "cross-outer-norm": 300,
    "noisy-spectrum-identity": 400,
}

# nominal tail level used where an experiment needs a fixed exceedance target
TAIL_LEVEL = 0.05


@dataclass(eq=False)
class ExperimentReport:
    name: str
    params: dict
    trials: int
    stats: dict
    stated_bound: dict | None
    verdict: str  # assert-pass | assert-fail | report-only

    def to_dict(self) -> dict:
        return _jsonable({"name": self.name, "params": self.params, "trials": self.trials,
                          "stats": self.stats, "stated_bound": self.stated_bound,
                          "verdict": self.verdict})

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @property
    def passed(self) -> bool:
        return self.verdict != "assert-fail"


def _jsonable(x):
    """x with numpy values as Python values and non-finite floats as None, so
    json.dumps writes strict JSON (no NaN or Infinity tokens)."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _trial_count(name: str, trials: int | None) -> int:
    """The trial count of experiment `name`: its default unless given.

    Every verdict below rests on a sample spread or quantile, so fewer than
    2 trials is refused before anything is drawn.
    """
    trials = DEFAULT_TRIALS[name] if trials is None else int(trials)
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    return trials


def mgf_product_check(t: float, trials: int | None = None,
                      rng: np.random.Generator | None = None) -> ExperimentReport:
    """Sample mean of exp(t * x * y) for independent standard normals x, y.

    The exact value is 1 / sqrt(1 - t^2) for |t| < 1.  Passes when the mean
    lands within 5 sample stderrs of it.
    """
    if not abs(t) < 1:
        raise ValueError("the product moment generating function diverges for |t| >= 1")
    trials = DEFAULT_TRIALS["mgf-product"] if trials is None else int(trials)
    if trials < 10_000:
        raise ValueError("use at least 10^4 trials; the integrand has heavy tails")
    rng = rng or np.random.default_rng(0)
    x = rng.standard_normal(trials)
    y = rng.standard_normal(trials)
    vals = np.exp(t * x * y)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    target = 1.0 / math.sqrt(1.0 - t * t)
    ok = abs(mean - target) <= 5.0 * stderr
    return ExperimentReport(
        name="mgf-product", params={"t": t}, trials=trials,
        stats={"mean": mean, "stderr": stderr, "target": target,
               "abs_error": abs(mean - target), "max_sample": float(vals.max())},
        stated_bound={"target": target, "tolerance": "5 * stderr"},
        verdict="assert-pass" if ok else "assert-fail")


def norm_concentration_check(n: int, family: str = "gaussian", trials: int | None = None,
                             rng: np.random.Generator | None = None) -> ExperimentReport:
    """Distribution of ||w||^2 / n for i.i.d. unit-variance coordinates.

    Passes when the 0.999 empirical quantile stays below 1 + 8 / sqrt(n).
    Rademacher coordinates give exactly 1 and pass trivially.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    trials = _trial_count("norm-concentration", trials)
    rng = rng or np.random.default_rng(0)
    vals = np.empty(trials)
    chunk = max(1, min(trials, 2_000_000 // max(n, 1)))
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        w = _unit_variance_draw(family, (size, n), rng)
        vals[start:start + size] = np.sum(w * w, axis=1) / n
    q999 = float(np.quantile(vals, 0.999))
    bound = 1.0 + 8.0 / math.sqrt(n)
    ok = q999 <= bound
    return ExperimentReport(
        name="norm-concentration", params={"n": n, "family": family}, trials=trials,
        stats={"mean": float(vals.mean()), "std": float(vals.std(ddof=1)),
               "q999": q999, "max": float(vals.max())},
        stated_bound={"q999_bound": bound},
        verdict="assert-pass" if ok else "assert-fail")


def weighted_subexp_sum_check(lambda_seq, trials: int | None = None,
                              rng: np.random.Generator | None = None) -> ExperimentReport:
    """Tail of |sum_i lambda_i (w_i^2 - 1)| against max(lambda_1 t, sqrt(t sum lambda^2)).

    At the nominal tail level the unit-constant bound is reported as-is; the
    asserted statement is the generous one, exceedance of 4x the bound at most
    0.25.
    """
    lam = np.asarray(lambda_seq, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or np.any(lam < 0):
        raise ValueError("lambda_seq must be a nonempty nonnegative vector")
    trials = _trial_count("weighted-subexp-sum", trials)
    rng = rng or np.random.default_rng(0)
    t = math.log(2.0 / TAIL_LEVEL)
    base = max(float(lam.max(initial=0.0)) * t, math.sqrt(t * float(np.sum(lam * lam))))
    S = np.abs((rng.standard_normal((trials, lam.size)) ** 2 - 1.0) @ lam)
    exceed1 = float(np.mean(S > base))
    exceed4 = float(np.mean(S > 4.0 * base))
    ok = exceed4 <= 0.25
    return ExperimentReport(
        name="weighted-subexp-sum", params={"lambda_len": int(lam.size), "t": t}, trials=trials,
        stats={"emp_std": float(S.std(ddof=1)), "pred_std": math.sqrt(2.0 * float(np.sum(lam * lam))),
               "exceed_at_bound": exceed1, "exceed_at_4x": exceed4},
        stated_bound={"base": base, "nominal_level": 2.0 * math.exp(-t)},
        verdict="assert-pass" if ok else "assert-fail")


def gram_eigen_experiment(lambda_hat, n: int, s: int, trials: int | None = None,
                          rng: np.random.Generator | None = None, k: int = 0) -> ExperimentReport:
    """Extreme eigenvalues of A = sum_{i>k} lam_i w_i w_i^T, w_i in R^s standard normal.

    Report-only: the stated interval (all eigenvalues within Lambda of the
    eigenvalue sum) and the alternative scaling mu_i ~ lam_i * s are both
    measured; neither is asserted.  A Marchenko-Pastur edge ratio is included
    as an oracle for the flat-spectrum case.
    """
    lam_full = np.asarray(lambda_hat, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= k < lam_full.size):
        raise ValueError("k must index into lambda_hat")
    if s < 1:
        raise ValueError("s must be >= 1")
    lam = lam_full[k:]
    q = lam.size
    trials = _trial_count("gram-eigenvalues", trials)
    rng = rng or np.random.default_rng(0)
    top_count = min(5, q)
    mu_max = np.empty(trials)
    mu_min = np.empty(trials)
    mu_top = np.empty((trials, top_count))
    sqrt_lam = np.sqrt(lam)
    for i in range(trials):
        R = sqrt_lam[:, None] * rng.standard_normal((q, s))
        eigs = np.linalg.eigvalsh(R @ R.T)
        mu_max[i] = eigs[-1]
        mu_min[i] = eigs[0]
        mu_top[i] = eigs[::-1][:top_count]
    lam_sum = float(lam.sum())
    t = float(n)
    width_unit = float(lam.max()) * (t + n * math.log(9.0)) + math.sqrt(
        (t + n * math.log(9.0)) * float(np.sum(lam * lam)))
    dev = max(abs(float(mu_max.mean()) - lam_sum), abs(float(mu_min.mean()) - lam_sum))
    ratios = mu_top.mean(axis=0) / (lam[:top_count] * s)
    stats = {
        "mu_max_mean": float(mu_max.mean()), "mu_max_se": float(mu_max.std(ddof=1) / math.sqrt(trials)),
        "mu_min_mean": float(mu_min.mean()), "mu_min_se": float(mu_min.std(ddof=1) / math.sqrt(trials)),
        "eigen_sum": lam_sum,
        "fitted_b": dev / width_unit if width_unit > 0 else float("nan"),
        "ratio_mu_over_lam_s": ratios,
        "edge_ratio_median": float(np.median(mu_max / np.maximum(mu_min, 1e-300))),
    }
    if q < s:
        edge = (1.0 + math.sqrt(q / s)) ** 2 / (1.0 - math.sqrt(q / s)) ** 2
        stats["mp_edge_ratio"] = edge
    return ExperimentReport(
        name="gram-eigenvalues", params={"n": n, "s": s, "k": k, "tail_len": q}, trials=trials,
        stats=stats,
        stated_bound={"interval_center": lam_sum, "interval_halfwidth_unit_b": width_unit},
        verdict="report-only")


def cross_outer_norm_check(lambda_seq, n: int, trials: int | None = None,
                           rng: np.random.Generator | None = None) -> ExperimentReport:
    """Operator norm of sum_i lambda_i w_i u_i^T for independent normal vectors in R^n.

    For n >= 2 the 0.99 quantile of ||A|| / n is checked against
    8 sqrt(sum lambda^2) + lambda_1.  For n = 1 the statistic is the scalar
    weighted product sum and the check is its tail beyond 4x the mixed bound
    lambda_1 t + sqrt(t sum lambda^2) at t = 3 (exceedance at most 0.25).
    """
    lam = np.asarray(lambda_seq, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or np.any(lam < 0):
        raise ValueError("lambda_seq must be a nonempty nonnegative vector")
    if n < 1:
        raise ValueError("n must be >= 1")
    trials = _trial_count("cross-outer-norm", trials)
    rng = rng or np.random.default_rng(0)
    q = lam.size
    l2 = math.sqrt(float(np.sum(lam * lam)))
    l1top = float(lam.max())
    if n == 1:
        t = 3.0
        vals = np.abs((rng.standard_normal((trials, q)) * rng.standard_normal((trials, q))) @ lam)
        bound = l1top * t + math.sqrt(t) * l2
        exceed = float(np.mean(vals > 4.0 * bound))
        ok = exceed <= 0.25
        return ExperimentReport(
            name="cross-outer-norm", params={"n": 1, "lambda_len": q, "t": t}, trials=trials,
            stats={"exceed_at_4x": exceed, "q99": float(np.quantile(vals, 0.99))},
            stated_bound={"base": bound},
            verdict="assert-pass" if ok else "assert-fail")
    norms = np.empty(trials)
    for i in range(trials):
        Wr = rng.standard_normal((q, n))
        Ur = rng.standard_normal((q, n))
        A = Wr.T @ (lam[:, None] * Ur)
        norms[i] = np.linalg.norm(A, 2)
    q99 = float(np.quantile(norms / n, 0.99))
    bound = 8.0 * l2 + l1top
    ok = q99 <= bound
    return ExperimentReport(
        name="cross-outer-norm", params={"n": n, "lambda_len": q}, trials=trials,
        stats={"q99_over_n": q99, "mean_over_n": float(norms.mean() / n)},
        stated_bound={"q99_bound": bound},
        verdict="assert-pass" if ok else "assert-fail")


def noisy_spectrum_identity_check(lambda_hat, sigma0_sq: float, n: int, s: int,
                                  trials: int | None = None,
                                  rng: np.random.Generator | None = None,
                                  top: int = 5) -> ExperimentReport:
    """Spectrum of the rescaled noisy Gram vs. the noise-shifted eigenvalue mixture.

    Route A samples features whose empirical covariance is exactly diag(lam),
    adds feature noise, and takes the top eigenvalues of (s/n) (Z+Xi)^T (Z+Xi).
    Route B draws sum_i (lam_i + sigma0_sq/n) w_i w_i^T directly.  The two are
    equal in distribution; the check asserts their top eigenvalue means agree
    within 3 joint stderrs.
    """
    lam = np.asarray(lambda_hat, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if lam.size != n:
        raise ValueError("lambda_hat must have length n (the empirical spectrum of one draw)")
    if sigma0_sq < 0:
        raise ValueError("sigma0_sq must be >= 0")
    if s < 1:
        raise ValueError("s must be >= 1")
    trials = _trial_count("noisy-spectrum-identity", trials)
    rng = rng or np.random.default_rng(0)
    top = min(top, n)
    sigma0 = math.sqrt(sigma0_sq)
    scaleA = np.sqrt(n * lam)[:, None]
    scaleB = np.sqrt(lam + sigma0_sq / n)[:, None]
    eigsA = np.empty((trials, top))
    eigsB = np.empty((trials, top))
    for i in range(trials):
        M = scaleA * rng.standard_normal((n, s))
        if sigma0 > 0:
            M = M + sigma0 * rng.standard_normal((n, s))
        M /= math.sqrt(s)
        eigsA[i] = np.linalg.eigvalsh((s / n) * (M @ M.T))[::-1][:top]
        B = scaleB * rng.standard_normal((n, s))
        eigsB[i] = np.linalg.eigvalsh(B @ B.T)[::-1][:top]
    meanA, meanB = eigsA.mean(axis=0), eigsB.mean(axis=0)
    seA = eigsA.std(axis=0, ddof=1) / math.sqrt(trials)
    seB = eigsB.std(axis=0, ddof=1) / math.sqrt(trials)
    joint = np.sqrt(seA ** 2 + seB ** 2)
    z = np.abs(meanA - meanB) / np.where(joint > 0, joint, 1.0)
    ok = bool(np.all(np.abs(meanA - meanB) <= 3.0 * joint))
    return ExperimentReport(
        name="noisy-spectrum-identity",
        params={"n": n, "s": s, "sigma0_sq": sigma0_sq, "top": top}, trials=trials,
        stats={"mean_pipeline": meanA, "mean_direct": meanB,
               "se_pipeline": seA, "se_direct": seB, "max_z": float(z.max())},
        stated_bound={"tolerance": "3 joint stderr per eigenvalue"},
        verdict="assert-pass" if ok else "assert-fail")


def run_default_suite(seed: int = 1) -> list[ExperimentReport]:
    """Run every experiment at its default size from one master seed."""
    from .seeding import seed_stream
    flat = np.full(20, 0.05)
    poly = 1.0 / np.arange(1, 21, dtype=float) ** 2
    return [
        mgf_product_check(0.5, rng=seed_stream(seed, "mgf")),
        norm_concentration_check(256, "gaussian", rng=seed_stream(seed, "norm")),
        weighted_subexp_sum_check(poly, rng=seed_stream(seed, "subexp")),
        gram_eigen_experiment(flat, n=20, s=400, rng=seed_stream(seed, "gram")),
        cross_outer_norm_check(poly, n=50, rng=seed_stream(seed, "cross")),
        noisy_spectrum_identity_check(poly, 0.5, n=20, s=40, rng=seed_stream(seed, "noisy-spectrum")),
    ]
