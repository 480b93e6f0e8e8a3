"""Feature-count sweeps: per-row pipelines, aggregation, artifact emission.

Every row is a pure function of (config, master_seed, s-index, replicate), so
a sweep re-run with the same seed reproduces sweep.csv byte for byte and the
worker count never changes results, only wall time.  Measured timings are
deliberately kept out of the CSV (they would break that property) and land in
manifest.json instead.
"""

from __future__ import annotations

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
from .features import build_ensemble, make_noise_spec, sample_weights
from .risk import decompose, make_target
from .seeding import seed_stream
from .spectral import (eigenfeature_matrix, empirical_covariance, make_spectrum,
                       population_covariance, sample_covariates)

CSV_COLUMNS = ["s", "replicate", "sigma0_sq", "k_star", "B", "B_se", "V", "V_se",
               "M", "M_se", "R", "R_se", "bias_bound", "variance_bound",
               "regime", "wall_ms"]

AGGREGATE_COLUMNS = ["s", "sigma0_sq", "replicates", "B_mean", "B_se", "V_mean",
                     "V_se", "M_mean", "M_se", "R_mean", "R_se",
                     "bias_bound_mean", "variance_bound_mean"]

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
    V_mean: float
    V_se: float
    M_mean: float
    M_se: float
    R_mean: float
    R_se: float
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
    """The closed-form bound curve over the config's grid, as bounds_curve.csv holds it."""
    return bounds_mod.double_descent_curve(
        _make_spectrum(cfg), cfg.n, cfg.alpha, cfg.sigma_sq, cfg.s_grid, mode=cfg.mode,
        delta=cfg.delta, a=cfg.a, beta_norm=cfg.target_norm, m0=cfg.m0,
        b=cfg.bias_multiplier, c=cfg.variance_multiplier,
        rng=seed_stream(cfg.master_seed, "curve"))


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
    return float(eigsh(A, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])


def compute_row(cfg: ExperimentConfig, s_index: int, replicate: int) -> SweepRecord:
    """Run the full pipeline for one (feature count, replicate) cell."""
    seed = cfg.master_seed
    s = cfg.s_grid[s_index]
    n = cfg.n
    spectrum = _make_spectrum(cfg)
    rng_x = seed_stream(seed, s_index, replicate, "covariates")
    rng_w = seed_stream(seed, s_index, replicate, "weights")
    rng_noise = seed_stream(seed, s_index, replicate, "feature-noise")
    rng_target = seed_stream(seed, s_index, replicate, "target")
    rng_risk = seed_stream(seed, s_index, replicate, "risk")

    X = sample_covariates(cfg.mode, n, rng_x, p=cfg.p)
    W = sample_weights(cfg.p, s, rng_w)
    noise_spec = make_noise_spec(cfg.noise_family, cfg.alpha, s)
    ensemble = build_ensemble(spectrum, cfg.mode, X, W, noise_spec, rng_noise)
    target = make_target(cfg.target_mode, ensemble, cfg.target_norm, rng_target,
                         tail_energy=cfg.tail_energy)
    dec = decompose(ensemble, target, cfg.sigma_sq, None,
                    cfg.label_redraws, rng_risk, clean_test=cfg.clean_test,
                    target_noise=cfg.target_noise, method=cfg.method)

    phi_train = eigenfeature_matrix(spectrum, cfg.mode, X)
    lam_hat = empirical_covariance(phi_train).eigenvalues[:n]
    pop = population_covariance(spectrum)
    # decompose factored the design; a nonempty null space makes the row-space
    # defect projector an orthogonal projector of norm exactly 1
    null_dim = s - dec.rank
    inputs = bounds_mod.BoundInputs(
        n=n, s=s, p=cfg.p, lambda_hat=lam_hat, sigma0_sq=noise_spec.sigma0_sq,
        sigma_sq=cfg.sigma_sq, trace_Sigma=pop.trace, op_norm_Sigma=pop.operator_norm,
        lambda_W=_lambda_w(W.entries), pi_norm=1.0 if null_dim > 0 else 0.0,
        beta_norm=target.norm, delta=cfg.delta, a=cfg.a)
    report = bounds_mod.bound_report(inputs, b=cfg.bias_multiplier,
                                     c=cfg.variance_multiplier)
    # the bias bound speaks about the out-of-span projector; without a null
    # space (underparameterized fit) its premise is vacuous, so report nan
    bias_bound = report.bias_bound if null_dim > 0 else NAN
    return SweepRecord(
        s=s, replicate=replicate, sigma0_sq=noise_spec.sigma0_sq,
        k_star=report.k_star,
        B=dec.bias, B_se=dec.bias_se, V=dec.variance, V_se=dec.variance_se,
        M=dec.misspec, M_se=dec.misspec_se, R=dec.total, R_se=dec.total_se,
        bias_bound=bias_bound, variance_bound=report.variance_bound,
        regime=report.regime, wall_ms=NAN)


def _failed_record(cfg: ExperimentConfig, s_index: int, replicate: int,
                   message: str) -> SweepRecord:
    s = cfg.s_grid[s_index]
    noise = make_noise_spec(cfg.noise_family, cfg.alpha, s)
    regime = bounds_mod.regime_classify(cfg.n, s).regime
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
    results = []
    if cfg.workers <= 1:
        for t in tasks:
            results.append(_row_task(t))
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
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
    """Collapse replicates into per-s means and stderrs; failed rows are skipped."""
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
            mean = float(np.nanmean(vals)) if np.any(np.isfinite(vals)) else NAN
            if r >= 2 and np.all(np.isfinite(vals)):
                se = float(vals.std(ddof=1) / math.sqrt(r))
            else:
                se = NAN
            return mean, se

        B, B_se = stat("B")
        V, V_se = stat("V")
        M, M_se = stat("M")
        R, R_se = stat("R")
        bb, _ = stat("bias_bound")
        vb, _ = stat("variance_bound")
        out.append(SweepSummary(s=s, sigma0_sq=group[0].sigma0_sq, replicates=r,
                                B_mean=B, B_se=B_se, V_mean=V, V_se=V_se,
                                M_mean=M, M_se=M_se, R_mean=R, R_se=R_se,
                                bias_bound_mean=bb, variance_bound_mean=vb))
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
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def records_csv(records) -> str:
    rows = [[rec.s, rec.replicate, rec.sigma0_sq, rec.k_star, rec.B, rec.B_se,
             rec.V, rec.V_se, rec.M, rec.M_se, rec.R, rec.R_se, rec.bias_bound,
             rec.variance_bound, rec.regime, rec.wall_ms] for rec in records]
    return _csv_text(CSV_COLUMNS, rows)


def aggregate_csv(summaries) -> str:
    rows = [[a.s, a.sigma0_sq, a.replicates, a.B_mean, a.B_se, a.V_mean, a.V_se,
             a.M_mean, a.M_se, a.R_mean, a.R_se, a.bias_bound_mean,
             a.variance_bound_mean] for a in summaries]
    return _csv_text(AGGREGATE_COLUMNS, rows)


def curve_csv(points) -> str:
    cols = ["s", "sigma0_sq", "k_star", "bias_bound", "variance_bound", "total", "regime"]
    rows = [[pt.s, pt.sigma0_sq, pt.k_star, pt.bias_bound, pt.variance_bound,
             pt.total, pt.regime] for pt in points]
    return _csv_text(cols, rows)


def emit_outputs(result: SweepResult, cfg: ExperimentConfig, out_dir: str) -> dict:
    """Write sweep.csv, aggregate.csv, bounds_curve.csv, manifest.json atomically."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "sweep": os.path.join(out_dir, "sweep.csv"),
        "aggregate": os.path.join(out_dir, "aggregate.csv"),
        "curve": os.path.join(out_dir, "bounds_curve.csv"),
        "manifest": os.path.join(out_dir, "manifest.json"),
    }
    _write_atomic(paths["sweep"], records_csv(result.records))
    _write_atomic(paths["aggregate"], aggregate_csv(aggregate(result.records)))
    _write_atomic(paths["curve"], curve_csv(bound_curve(cfg)))

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "seed_scheme": "seed_stream(master_seed, s_index, replicate, purpose); "
                       "purposes: covariates, weights, feature-noise, target, risk",
        "grid": list(cfg.s_grid),
        "outputs": ["sweep.csv", "aggregate.csv", "bounds_curve.csv"],
        "timings_ms": result.timings_ms,
        "row_errors": result.errors,
    }
    _write_atomic(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
    return paths
