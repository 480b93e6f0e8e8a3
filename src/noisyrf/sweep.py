"""Feature-count sweeps: per-row pipelines, aggregation, artifact emission.

Every row is a pure function of (config, master_seed, s-index, replicate), so
a sweep re-run with the same seed reproduces sweep.csv byte for byte and the
worker count never changes results, only wall time.  Measured timings are
deliberately kept out of the CSV (they would break that property) and land in
manifest.json instead.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .config import ARTIFACT_VERSION, ExperimentConfig
# not called here: the sweep takes the rank from decompose; perfbench's tracer
# looks projector_diag up in this module by name, so it stays importable here
from .estimator import projector_diag  # noqa: F401
from .features import WEIGHT_BLOCK, build_ensemble, make_noise_spec, sample_weights
from .risk import decompose, make_target
from .seeding import seed_stream
# empirical_covariance likewise: compute_row takes the spectrum from its own
# gram_eigh call, whose eigenvectors it also needs; the tracer looks the name
# up here
from .spectral import (GRAM_RTOL, eigenfeature_matrix, empirical_covariance,  # noqa: F401
                       gram_eigh, make_spectrum, sample_covariates, trace_and_rank)

CSV_COLUMNS = ["s", "replicate", "sigma0_sq", "k_star", "B", "B_se", "V", "V_se",
               "M", "M_se", "R", "R_se", "bias_bound", "variance_bound",
               "regime", "wall_ms"]

AGGREGATE_COLUMNS = ["s", "sigma0_sq", "replicates", "B_mean", "B_se", "B_median",
                     "V_mean", "V_se", "V_median", "M_mean", "M_se", "R_mean", "R_se",
                     "R_median", "bias_bound_mean", "variance_bound_mean"]

CURVE_COLUMNS = ["s", "sigma0_sq", "k_star", "bias_bound", "variance_bound", "total",
                 "regime"]

NAN = float("nan")


@dataclass
class SweepRecord:
    s: int
    replicate: int
    sigma0_sq: float
    k_star: int | None
    B: float
    B_se: float
    V: float
    V_se: float
    M: float
    M_se: float
    R: float
    R_se: float
    bias_bound: float
    variance_bound: float
    regime: str
    wall_ms: float
    error: str = ""


@dataclass
class SweepSummary:
    s: int
    sigma0_sq: float
    replicates: int
    B_mean: float
    B_se: float
    B_median: float
    V_mean: float
    V_se: float
    V_median: float
    M_mean: float
    M_se: float
    R_mean: float
    R_se: float
    R_median: float
    bias_bound_mean: float
    variance_bound_mean: float


@dataclass
class SweepResult:
    records: list
    timings_ms: dict
    errors: dict


def _make_spectrum(cfg: ExperimentConfig):
    return make_spectrum(cfg.spectrum_kind, cfg.p, gamma=cfg.gamma, d=cfg.d,
                         omega1=cfg.omega1)


def bound_curve(cfg: ExperimentConfig) -> list:
    """The closed-form bound curve over the config's grid, as bounds_curve.csv holds it.

    Its tail index is taken on the empirical spectrum of n covariates drawn
    from the `curve` stream.
    """
    spectrum = _make_spectrum(cfg)
    lam_hat = bounds_mod.empirical_eigenvalues(spectrum, cfg.mode, cfg.n,
                                               seed_stream(cfg.master_seed, "curve"))
    return bounds_mod.double_descent_curve(
        spectrum, cfg.n, cfg.alpha, cfg.sigma_sq, cfg.s_grid, lam_hat,
        delta=cfg.delta, a=cfg.a, beta_norm=cfg.target_norm)


# ARPACK's stopping tolerance on the residual r of the top Ritz pair.  The
# Ritz value's error is at most ||r||^2 / gap, so a 1e-8 relative residual
# already gives lambda_W to rounding; tol=0 (machine epsilon) spends ~40% more
# matvecs for no digit of the eigenvalue.
_EIGSH_TOL = 1e-8


def _lambda_w(W: np.ndarray) -> float:
    """Squared top singular value of the weight matrix.

    Computed as the top eigenvalue of the Gram of W's smaller side (W^T W
    when s <= p, else W W^T; at most min(p, s) square, and W is never
    copied): a dense symmetric eigensolve up to 600, Lanczos above.
    """
    p, s = W.shape
    A = W.T @ W if s <= p else W @ W.T
    m = A.shape[0]
    if m <= 600:
        return float(np.linalg.eigvalsh(A)[-1])
    from scipy.sparse.linalg import eigsh
    v0 = np.full(m, 1.0 / math.sqrt(m))
    return float(eigsh(A, k=1, which="LA", v0=v0, tol=_EIGSH_TOL,
                       return_eigenvectors=False)[0])


def _pool_size(cfg: ExperimentConfig) -> int:
    """Worker processes run_sweep starts: the requested count, never more than the cells."""
    return min(cfg.workers, len(cfg.s_grid) * cfg.ensemble_replicates)


def compute_row(cfg: ExperimentConfig, s_index: int, replicate: int) -> SweepRecord:
    """Run the full pipeline for one (feature count, replicate) cell.

    The cell takes one of two routes to its weights, by target mode and tail
    index alone.  An unrealizable target, or a row where the tail index k*
    exists (the row may state the bias bound, which needs lambda_W), draws
    the dense p x s W.  Any other row draws only G = R^T W, min(n, p) x s,
    R an orthonormal basis of the eigenfeature rows' span; the one product
    its risk split needs draws W's complement from the `weights-complement`
    stream.  Both routes give the row the same law (features module).

    The cell runs one eigensolve of phi's Gram (`gram_eigh`).  It gives the
    empirical spectrum, and a row-space cell's basis R comes from the same
    eigenpairs (`features.row_space_factor`).
    """
    seed = cfg.master_seed
    s = cfg.s_grid[s_index]
    n = cfg.n
    spectrum = _make_spectrum(cfg)
    rng_x = seed_stream(seed, s_index, replicate, "covariates")
    rng_w = seed_stream(seed, s_index, replicate, "weights")
    rng_noise = seed_stream(seed, s_index, replicate, "feature-noise")
    rng_target = seed_stream(seed, s_index, replicate, "target")

    X = sample_covariates(cfg.mode, n, rng_x, p=cfg.p)
    phi = eigenfeature_matrix(spectrum, cfg.mode, X)
    # X is not read again; freed before the weights are drawn, so no cell
    # holds it next to W
    del X
    gram = gram_eigh(phi)
    lam_hat = gram.lambda_hat
    noise_spec = make_noise_spec(cfg.noise_family, cfg.alpha, s)
    k_star = bounds_mod.k_star(lam_hat, noise_spec.sigma0_sq, n, cfg.a)
    if cfg.target_mode == "unrealizable" or k_star is not None:
        rows, rng_complement = cfg.p, None
    else:
        rows = min(n, cfg.p)
        rng_complement = seed_stream(seed, s_index, replicate, "weights-complement")
    weights = sample_weights(rows, s, rng_w)
    ensemble = build_ensemble(spectrum, cfg.mode, phi, weights, noise_spec, rng_noise,
                              complement_rng=rng_complement, gram=gram)
    target = make_target(cfg.target_mode, ensemble, cfg.target_norm, rng_target,
                         tail_energy=cfg.tail_energy)
    dec = decompose(ensemble, target, cfg.sigma_sq, clean_test=cfg.clean_test,
                    target_noise=cfg.target_noise)

    trace, _ = trace_and_rank(spectrum)
    # decompose factored the design; a nonempty null space makes the row-space
    # defect projector an orthogonal projector of norm exactly 1
    null_dim = s - dec.rank
    # the report states the bias bound only where k* exists and the fit has a
    # null space.  lambda_W reaches no other column, so the other rows skip
    # its eigensolve.  A row with k* took the dense route, so it holds the W
    # that lambda_W needs
    states_bias = null_dim > 0 and k_star is not None
    inputs = bounds_mod.BoundInputs(
        n=n, s=s, lambda_hat=lam_hat, sigma0_sq=noise_spec.sigma0_sq,
        sigma_sq=cfg.sigma_sq, trace_Sigma=trace,
        op_norm_Sigma=float(spectrum.eigenvalues[0]),
        lambda_W=_lambda_w(ensemble.weights) if states_bias else NAN,
        pi_norm=1.0 if null_dim > 0 else 0.0,
        beta_norm=target.norm, delta=cfg.delta, a=cfg.a)
    report = bounds_mod.bound_report(inputs)
    # the split is exact, so its standard errors are 0; sweep.csv keeps the
    # columns
    return SweepRecord(
        s=s, replicate=replicate, sigma0_sq=noise_spec.sigma0_sq,
        k_star=report.k_star,
        B=dec.bias, B_se=0.0, V=dec.variance, V_se=0.0,
        M=dec.misspec, M_se=0.0, R=dec.total, R_se=0.0,
        bias_bound=report.bias_bound, variance_bound=report.variance_bound,
        regime=report.regime, wall_ms=NAN)


def _failed_record(cfg: ExperimentConfig, s_index: int, replicate: int,
                   message: str) -> SweepRecord:
    s = cfg.s_grid[s_index]
    noise = make_noise_spec(cfg.noise_family, cfg.alpha, s)
    regime = bounds_mod.regime_classify(cfg.n, s)
    return SweepRecord(s=s, replicate=replicate, sigma0_sq=noise.sigma0_sq,
                       k_star=None, B=NAN, B_se=NAN, V=NAN, V_se=NAN, M=NAN,
                       M_se=NAN, R=NAN, R_se=NAN, bias_bound=NAN,
                       variance_bound=NAN, regime=regime, wall_ms=NAN,
                       error=message)


def _row_task(payload):
    cfg_dict, s_index, replicate = payload
    cfg = ExperimentConfig(**cfg_dict)
    start = time.perf_counter()
    try:
        record = compute_row(cfg, s_index, replicate)
        err = ""
    except Exception as exc:  # a broken cell must not sink the sweep
        record = _failed_record(cfg, s_index, replicate, f"{type(exc).__name__}: {exc}")
        err = record.error
    wall = (time.perf_counter() - start) * 1e3
    return s_index, replicate, record, wall, err


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every (s, replicate) cell; failures are captured per row, not raised."""
    if cfg.master_seed is None:
        raise ValueError("a sweep needs master_seed; artifacts must be replayable")
    tasks = [(cfg.to_dict(), si, r)
             for si in range(len(cfg.s_grid))
             for r in range(cfg.ensemble_replicates)]
    # under fork the pool starts every worker at the first submit, so a pool
    # wider than the grid would only fork idle processes
    workers = _pool_size(cfg)
    if workers <= 1:
        results = [_row_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_row_task, tasks, chunksize=1))
    results.sort(key=lambda item: (item[0], item[1]))
    records, timings, errors = [], {}, {}
    for s_index, replicate, record, wall, err in results:
        key = f"{s_index}:{replicate}"
        records.append(record)
        timings[key] = wall
        if err:
            errors[key] = err
    return SweepResult(records=records, timings_ms=timings, errors=errors)


def aggregate(records) -> list:
    """Collapse replicates into per-s means, stderrs and, for B, V and R,
    medians; failed rows are skipped.

    Near the interpolation threshold the mean does not exist: for an n x s
    Gaussian design E[tr((Z^T Z)^-1)] = s / (n - s - 1) for s <= n - 2 and
    E[tr((Z Z^T)^-1)] = n / (s - n - 1) for s >= n + 2, both infinite for
    |s - n| <= 1 (the inverse-Wishart mean; Edelman 1988 for the smallest
    singular value of a square Gaussian matrix).  So V = sigma^2 tr(Q), and
    R with it, has no finite mean there, and a cell's mean and stderr do not
    settle as replicates grow; its median does.
    """
    by_s = {}
    for rec in records:
        if rec.error:
            continue
        by_s.setdefault(rec.s, []).append(rec)
    out = []
    for s in sorted(by_s):
        group = by_s[s]
        r = len(group)

        def stat(attr):
            vals = np.array([getattr(g, attr) for g in group], dtype=float)
            if np.any(np.isfinite(vals)):
                mean, median = float(np.nanmean(vals)), float(np.nanmedian(vals))
            else:
                mean = median = NAN
            if r >= 2 and np.all(np.isfinite(vals)):
                se = float(vals.std(ddof=1) / math.sqrt(r))
            else:
                se = NAN
            return mean, se, median

        B, B_se, B_med = stat("B")
        V, V_se, V_med = stat("V")
        M, M_se, _ = stat("M")
        R, R_se, R_med = stat("R")
        bb, _, _ = stat("bias_bound")
        vb, _, _ = stat("variance_bound")
        out.append(SweepSummary(s=s, sigma0_sq=group[0].sigma0_sq, replicates=r,
                                B_mean=B, B_se=B_se, B_median=B_med, V_mean=V, V_se=V_se,
                                V_median=V_med, M_mean=M, M_se=M_se, R_mean=R, R_se=R_se,
                                R_median=R_med, bias_bound_mean=bb,
                                variance_bound_mean=vb))
    return out


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through path.tmp, which a failed write or rename removes."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _csv_text(columns, items) -> str:
    """One header line, then one line per item: its attributes named by columns."""
    lines = [",".join(columns)]
    for item in items:
        lines.append(",".join(_fmt(getattr(item, col)) for col in columns))
    return "\n".join(lines) + "\n"


def records_csv(records) -> str:
    return _csv_text(CSV_COLUMNS, records)


def aggregate_csv(summaries) -> str:
    return _csv_text(AGGREGATE_COLUMNS, summaries)


def curve_csv(points) -> str:
    return _csv_text(CURVE_COLUMNS, points)


def artifact_paths(out_dir: str) -> dict:
    """Where emit_outputs writes each artifact under out_dir."""
    return {
        "sweep": os.path.join(out_dir, "sweep.csv"),
        "aggregate": os.path.join(out_dir, "aggregate.csv"),
        "curve": os.path.join(out_dir, "bounds_curve.csv"),
        "manifest": os.path.join(out_dir, "manifest.json"),
    }


def emit_outputs(result: SweepResult, cfg: ExperimentConfig, out_dir: str) -> dict:
    """Write sweep.csv, aggregate.csv, bounds_curve.csv, manifest.json atomically."""
    os.makedirs(out_dir, exist_ok=True)
    paths = artifact_paths(out_dir)
    _write_atomic(paths["sweep"], records_csv(result.records))
    _write_atomic(paths["aggregate"], aggregate_csv(aggregate(result.records)))
    _write_atomic(paths["curve"], curve_csv(bound_curve(cfg)))

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "seed_scheme": "seed_stream(master_seed, s_index, replicate, purpose); "
                       "purposes: covariates, weights, weights-complement, feature-noise, "
                       "target; "
                       f"weight columns drawn in blocks of {WEIGHT_BLOCK}, block j from "
                       "child j of the weights stream's seed sequence (spawn order); "
                       "unrealizable targets and rows where the tail index k* exists "
                       "draw the p x s W there, every other row draws only G = R^T W "
                       "(min(n, p) rows, the same column blocks; R an orthonormal basis "
                       "of the eigenfeature rows' span: R = phi^T U D^-1/2 U^T from the "
                       "eigenpairs phi phi^T = U D U^T where d_min / d_max > "
                       f"eps / {GRAM_RTOL:g}, else the thin QR of phi^T) and "
                       "takes W's complement for its risk split from weights-complement "
                       "as one p x n standard normal draw H1, then one p-vector h: with "
                       "the design's thin SVD U Sigma V^T and the fit's coefficient error "
                       "e = V a + e_perp, W's complement times [V, e] is "
                       "(I - R R^T) [H1 U, H1 U a + ||e_perp|| h]",
        "grid": list(cfg.s_grid),
        "outputs": ["sweep.csv", "aggregate.csv", "bounds_curve.csv"],
        "timings_ms": result.timings_ms,
        "row_errors": result.errors,
    }
    _write_atomic(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
    return paths
