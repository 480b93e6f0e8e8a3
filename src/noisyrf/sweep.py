"""Feature-count sweeps: per-row pipelines, aggregation, artifact emission.

Every row is a pure function of (config, master_seed, s-index, replicate), so
a sweep re-run with the same seed reproduces sweep.csv byte for byte and the
worker count never changes results, only wall time.  Measured timings are
deliberately kept out of the CSV (they would break that property) and land in
manifest.json instead.

A replicate is one training set: its covariates are keyed by (master_seed,
replicate) alone, so every cell of the replicate sees the same rows and the
replicate traces one fixed-data risk curve over the s grid.  The rows, their
Gram eigenpairs, the row-space factor and W's complement frame are computed
once per replicate (`_training_rows`) and shared, read-only, by its cells.
"""

from __future__ import annotations

import contextlib
import functools
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
from .features import (WEIGHT_BLOCK, ComplementFrame, build_ensemble, complement_frame,
                       make_noise_spec, reducible, row_space_factor, sample_weights)
from .risk import decompose, make_target
from .seeding import seed_sequence, seed_stream
# empirical_covariance likewise: compute_row takes the spectrum from its
# replicate's gram_eigh call, whose eigenvectors it also needs; the tracer
# looks the name up here
from .spectral import (GRAM_RTOL, GramEigen, eigenfeature_matrix,  # noqa: F401
                       empirical_covariance, gram_eigh, make_spectrum, sample_covariates,
                       trace_and_rank)

CSV_COLUMNS = ["s", "replicate", "sigma0_sq", "k_star", "B", "B_se", "V", "V_se",
               "M", "M_se", "R", "R_se", "bias_bound", "variance_bound",
               "regime", "wall_ms"]

AGGREGATE_COLUMNS = ["s", "sigma0_sq", "replicates", "B_mean", "B_se", "B_median", "B_q25",
                     "B_q75", "V_mean", "V_se", "V_median", "V_q25", "V_q75", "M_mean", "M_se",
                     "R_mean", "R_se", "R_median", "R_q25", "R_q75", "bias_bound_mean",
                     "variance_bound_mean"]

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
    B_q25: float
    B_q75: float
    V_mean: float
    V_se: float
    V_median: float
    V_q25: float
    V_q75: float
    M_mean: float
    M_se: float
    R_mean: float
    R_se: float
    R_median: float
    R_q25: float
    R_q75: float
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


class _TrainingRows:
    """A replicate's training set, shared by every cell of it: the
    spectrum, phi = phi(X) (n x p), gram = gram_eigh(phi) and, formed by the
    first row-space cell that asks, factor = (R, T^T), `row_space_factor`'s
    phi^T = R T from the same eigenpairs, and complement, W's complement
    frame (`features.complement_frame`) drawn from a generator seeded by
    complement_seed, made afresh on each attempt so that every attempt
    draws the same F.  A replicate whose cells all draw the dense W (an
    unrealizable target) forms neither R, p x min(n, p), nor the frame.

    The arrays are read-only: a cell that wrote to one would change the next
    cell's row.
    """

    def __init__(self, spectrum, phi: np.ndarray, gram: GramEigen,
                 complement_seed: np.random.SeedSequence):
        for array in (phi, gram.values, gram.vectors):
            array.flags.writeable = False
        self.spectrum, self.phi, self.gram = spectrum, phi, gram
        self._complement_seed = complement_seed

    @functools.cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        factor = row_space_factor(self.phi, self.gram)
        for array in factor:
            array.flags.writeable = False
        return factor

    @functools.cached_property
    def complement(self) -> ComplementFrame:
        frame = complement_frame(self.factor[0], self.spectrum.eigenvalues, self.phi.shape[0],
                                 np.random.default_rng(self._complement_seed))
        for array in (frame.RtF, frame.left):
            array.flags.writeable = False
        return frame


@functools.lru_cache(maxsize=1)
def _training_rows(master_seed: int, replicate: int, mode: str, n: int, p: int, kind: str,
                   gamma: float | None, d: int | None, omega1: float) -> _TrainingRows:
    """The replicate's training set, its covariates drawn from
    seed_stream(master_seed, replicate, "covariates") and W's complement,
    when a row-space cell asks for it, from seed_stream(master_seed,
    replicate, "weights-complement").

    The arguments are exactly what the rows depend on, so the cache key is
    the argument tuple.  run_sweep clears the cache on entry and on exit.
    """
    spectrum = make_spectrum(kind, p, gamma=gamma, d=d, omega1=omega1)
    X = sample_covariates(mode, n, seed_stream(master_seed, replicate, "covariates"), p=p)
    phi = eigenfeature_matrix(spectrum, mode, X)
    # X is not read again; freed before the Gram is formed
    del X
    return _TrainingRows(spectrum, phi, gram_eigh(phi),
                         seed_sequence(master_seed, replicate, "weights-complement"))


def compute_row(cfg: ExperimentConfig, s_index: int, replicate: int) -> SweepRecord:
    """Run the full pipeline for one (feature count, replicate) cell.

    The cell takes one of three routes to its weights, by target mode, tail
    index, noise law and width alone.  An unrealizable target, or a row
    where the tail index k* exists (the row may state the bias bound, which
    needs lambda_W), draws the dense p x s W.  Any other row holds row-space
    weights: G = R^T W, R an orthonormal basis of the eigenfeature rows'
    span, and the one product its risk split needs reads W's complement
    from the replicate's frame.  Of these, a row that
    `features.reducible` accepts (s > m = min(n, p) + n, and Gaussian noise
    or alpha = inf) is reduced: build_ensemble draws the Bartlett factor of
    [G; Xi] from the `weights` stream and the ensemble is m + 1 wide, so
    its cost does not grow with s; the `feature-noise` stream is not read.
    The other rows draw G, min(n, p) x s.  All three routes give the row
    the same law (features module).

    The training rows are the replicate's (`_training_rows`): its
    covariates, phi, one eigensolve of phi's Gram, the row-space factor
    (R, T^T) from the same eigenpairs and W's complement frame, computed by
    the first cell of the replicate that runs in this process (the factor
    and the frame by the first row-space cell) and reused by the others.
    The eigenpairs give the empirical spectrum; the factor and the frame
    serve row-space cells.
    """
    seed = cfg.master_seed
    s = cfg.s_grid[s_index]
    n = cfg.n
    rows = _training_rows(seed, replicate, cfg.mode, n, cfg.p, cfg.spectrum_kind, cfg.gamma,
                          cfg.d, cfg.omega1)
    spectrum = rows.spectrum
    rng_w = seed_stream(seed, s_index, replicate, "weights")
    rng_noise = seed_stream(seed, s_index, replicate, "feature-noise")
    rng_target = seed_stream(seed, s_index, replicate, "target")

    lam_hat = rows.gram.lambda_hat
    noise_spec = make_noise_spec(cfg.noise_family, cfg.alpha, s)
    k_star = bounds_mod.k_star(lam_hat, noise_spec.sigma0_sq, n, cfg.a)
    if cfg.target_mode == "unrealizable" or k_star is not None:
        weights, complement, factor = sample_weights(cfg.p, s, rng_w), None, None
    else:
        factor, complement = rows.factor, rows.complement
        # a reduced cell's weights and noise are drawn inside build_ensemble
        weights = rng_w if reducible(noise_spec, n, cfg.p) else \
            sample_weights(min(n, cfg.p), s, rng_w)
    ensemble = build_ensemble(spectrum, cfg.mode, rows.phi, weights, noise_spec, rng_noise,
                              complement=complement, factor=factor)
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
    cfg, s_index, replicate = payload
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
    # replicate-major, so the cells a worker takes in turn share their
    # training rows and each replicate's are drawn once per worker
    tasks = [(cfg, si, r)
             for r in range(cfg.ensemble_replicates)
             for si in range(len(cfg.s_grid))]
    # under fork the pool starts every worker at the first submit, so a pool
    # wider than the grid would only fork idle processes
    workers = _pool_size(cfg)
    # cleared on entry, so every sweep (and every forked worker) draws its
    # replicates' rows itself, and on exit, so none stay resident after it
    _training_rows.cache_clear()
    try:
        if workers <= 1:
            results = [_row_task(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_row_task, tasks, chunksize=1))
    finally:
        _training_rows.cache_clear()
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
    medians and quartiles; failed rows are skipped.

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
                q25, q75 = (float(q) for q in np.nanquantile(vals, (0.25, 0.75)))
            else:
                mean = median = q25 = q75 = NAN
            if r >= 2 and np.all(np.isfinite(vals)):
                se = float(vals.std(ddof=1) / math.sqrt(r))
            else:
                se = NAN
            return mean, se, median, q25, q75

        B, B_se, B_med, B_q25, B_q75 = stat("B")
        V, V_se, V_med, V_q25, V_q75 = stat("V")
        M, M_se, *_ = stat("M")
        R, R_se, R_med, R_q25, R_q75 = stat("R")
        bb = stat("bias_bound")[0]
        vb = stat("variance_bound")[0]
        out.append(SweepSummary(s=s, sigma0_sq=group[0].sigma0_sq, replicates=r,
                                B_mean=B, B_se=B_se, B_median=B_med, B_q25=B_q25,
                                B_q75=B_q75, V_mean=V, V_se=V_se, V_median=V_med,
                                V_q25=V_q25, V_q75=V_q75, M_mean=M, M_se=M_se, R_mean=R,
                                R_se=R_se, R_median=R_med, R_q25=R_q25, R_q75=R_q75,
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
        "seed_scheme": "covariates and weights-complement are keyed "
                       "seed_stream(master_seed, replicate, purpose) and shared by every "
                       "s: a replicate is one training set; every other draw is "
                       "seed_stream(master_seed, s_index, replicate, purpose), purposes: "
                       "weights, feature-noise, target; "
                       f"weight columns drawn in blocks of {WEIGHT_BLOCK}, block j from "
                       "child j of the weights stream's seed sequence (spawn order); "
                       "unrealizable targets and rows where the tail index k* exists "
                       "draw the p x s W there. Every other row holds row-space weights, "
                       "G = R^T W with R an orthonormal basis of the eigenfeature rows' "
                       "span (R = phi^T U D^-1/2 U^T from the eigenpairs phi phi^T = "
                       f"U D U^T where d_min / d_max > eps / {GRAM_RTOL:g}, else the thin "
                       "QR of phi^T). A row with s > m = min(n, p) + n and gaussian noise "
                       "or alpha = inf is reduced: the weights stream draws the m x m "
                       "Bartlett factor L of [G; Xi] (the diagonal "
                       "sqrt(chisquare(s - i + 1)) for i = 1..m, then standard normals "
                       "below it, row by row), the target stream draws g ~ N(0, I_m) "
                       "then rho^2 ~ chisquare(s - m), beta* = target_norm [g, rho] / "
                       "sqrt(||g||^2 + rho^2), and feature-noise is not read. The other "
                       "row-space rows draw G, min(n, p) rows, in the same column blocks. "
                       "Every row-space row, reduced or not, takes W's complement for its "
                       "risk split from its replicate's weights-complement stream: one "
                       "(p, n + 1) standard normal draw F = [H1, h], drawn once per "
                       "replicate: with the design's thin SVD "
                       "U Sigma V^T and the fit's coefficient error e = V a + e_perp, W's "
                       "complement times [V, e] is (I - R R^T) F [[U, U a], [0, "
                       "||e_perp||]] = (I - R R^T) [H1 U, H1 U a + ||e_perp|| h]",
        "grid": list(cfg.s_grid),
        "outputs": ["sweep.csv", "aggregate.csv", "bounds_curve.csv"],
        "timings_ms": result.timings_ms,
        "row_errors": result.errors,
    }
    _write_atomic(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
    return paths
