"""Feature-count sweeps: per-row pipelines, aggregation, artifact emission.

Every row is a pure function of (config, master_seed, s-index, replicate), so
at one BLAS thread count a sweep re-run with the same seed, and a cell
recomputed alone (`compute_row`, as `noisyrf risk --s` runs it), reproduce
sweep.csv byte for byte.  A BLAS thread count moves the rounding of a large
product, so rows computed at different counts agree within rtol 1e-9, not to
the bit (measured on the preset: at most 9.5e-12 relative).  Pool workers
run one BLAS thread each while the calling process keeps its own count, so
that tolerance is what holds across worker counts, and between a sweep and
`noisyrf risk --s` run with other thread settings.  Measured timings are
deliberately kept out of the CSV (they would break byte-identity) and land
in manifest.json instead, with the run's environment.

A replicate is one training set: its covariates are keyed by (master_seed,
replicate) alone, so every cell of the replicate sees the same rows and the
replicate traces one fixed-data risk curve over the s grid.  The rows, their
Gram eigenpairs, the row-space factor, W's complement frame and, for an
unrealizable target, the weight pool, p x max(s_grid) rounded up to whole
weight blocks, whose first s columns are each cell's W, and the pool's
Lambda-Gram with its Cholesky factor, whose leading s x s blocks are each
cell's H and H's factor, are computed once per replicate (`_training_rows`)
and shared, read-only, by its cells.  A pool worker runs whole replicates,
so each replicate's shared arrays are drawn once per sweep.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
# _openblas and _pin_blas keep their names here, where the tests look them up
from .blas import WORKER_BLAS_THREADS, factor_backend
from .blas import openblas as _openblas
from .blas import pin_blas as _pin_blas
from .config import ARTIFACT_VERSION, ExperimentConfig
# not called here: the sweep takes the rank from decompose; perfbench's tracer
# looks projector_diag up in this module by name, so it stays importable here
from .estimator import projector_diag  # noqa: F401
from .features import (WEIGHT_BLOCK, ComplementFrame, build_ensemble, complement_frame,
                       make_noise_spec, reducible, row_space_factor, sample_weights)
from .risk import FactoredGram, decompose, factor_gram, lambda_gram, make_target
from .seeding import seed_stream
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


def _tasks(cfg: ExperimentConfig) -> list:
    """The sweep's tasks, (cfg, replicate, s-indices), replicate-major.

    A task is a whole replicate, its cells in s order.  Where the workers
    outnumber the replicates, each replicate is split into k = ceil(workers /
    replicates) interleaved parts instead (s-indices j, j + k, j + 2k, ...;
    k at most the s-values), which share out its cheap narrow and costly
    wide cells alike.
    """
    grid = len(cfg.s_grid)
    parts = min(grid, -(-cfg.workers // cfg.ensemble_replicates))
    return [(cfg, replicate, tuple(range(j, grid, parts)))
            for replicate in range(cfg.ensemble_replicates) for j in range(parts)]


def _pool_size(cfg: ExperimentConfig) -> int:
    """Worker processes run_sweep starts: the requested count, never more than the tasks."""
    return min(cfg.workers, len(_tasks(cfg)))


class _TrainingRows:
    """A replicate's training set, shared by every cell of it: the
    spectrum, phi = phi(X) (n x p), gram = gram_eigh(phi) and the weight
    arrays its cells share, each formed by the first cell that asks:

    - for row-space cells, factor = (R, T^T), `row_space_factor`'s
      phi^T = R T from the same eigenpairs, and complement, W's complement
      frame (`features.complement_frame`) drawn from the replicate's
      weights-complement stream;
    - for unrealizable cells, the weight pool (`weight_pool`), one p x S
      draw from its weights-dense stream, S = max(s_grid) rounded up to
      whole WEIGHT_BLOCK columns, whose first s columns are the W of the
      cell at s, and the pool's Lambda-Gram H_pool = L L^T (`weight_gram`),
      S x S, factored once in its own buffer (`risk.factor_gram`), whose
      leading s x s blocks are that cell's H and H's factor: a cell forms,
      copies and factors no s x s Gram of its own, and packs only its
      ridge Gram, half a square (`risk.make_target`).

    Both streams are made afresh on each attempt, so every attempt draws
    the same arrays.  A replicate whose cells all hold the dense W (an
    unrealizable target) forms neither R, p x min(n, p), nor the frame; a
    realizable one never forms the pool or its Gram.

    The arrays are read-only: a cell that wrote to one would change the next
    cell's row.
    """

    def __init__(self, spectrum, phi: np.ndarray, gram: GramEigen, master_seed: int,
                 replicate: int):
        for array in (phi, gram.values, gram.vectors):
            array.flags.writeable = False
        self.spectrum, self.phi, self.gram = spectrum, phi, gram
        self._key = (master_seed, replicate)
        self._pool = self._pool_gram = None

    @functools.cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        factor = row_space_factor(self.phi, self.gram)
        for array in factor:
            array.flags.writeable = False
        return factor

    @functools.cached_property
    def complement(self) -> ComplementFrame:
        frame = complement_frame(self.factor[0], self.spectrum.eigenvalues, self.phi.shape[0],
                                 seed_stream(*self._key, "weights-complement"))
        for array in (frame.RtF, frame.left):
            array.flags.writeable = False
        return frame

    def weight_pool(self, width: int) -> np.ndarray:
        """The replicate's p x S weight pool, S = width rounded up to whole
        WEIGHT_BLOCK columns: drawn by the first call, and again only by a
        call wider than the pool held.

        `sample_weights` fills column block j from child j of the stream's
        spawn, so the first s columns of a pool are the same p x s array
        whatever its width: a cell's W does not depend on the grid it sits
        in.
        """
        width = -(-width // WEIGHT_BLOCK) * WEIGHT_BLOCK
        if self._pool is None or self._pool.shape[1] < width:
            pool = sample_weights(self.phi.shape[1], width,
                                  seed_stream(*self._key, "weights-dense"))
            pool.flags.writeable = False
            self._pool, self._pool_gram = pool, None
        return self._pool

    def weight_gram(self, width: int) -> FactoredGram:
        """H_pool = (sqrt(Lambda) pool)^T (sqrt(Lambda) pool), S x S, of the
        pool `weight_pool(width)` returns (`risk.lambda_gram`), and its
        Cholesky factor, taken in the same buffer in fixed WEIGHT_BLOCK
        blocks (`risk.factor_gram`): formed by the first call on that pool.
        Their leading s x s blocks are the Gram of the cell at s and its
        factor; the pool is whole blocks wide, so neither block depends on
        the pool's width.  A pool wider than p has a Gram of rank p < S,
        whose factor stops past order p by design: it serves the cells
        below the order it stopped at, and a cell at or past that order
        takes the QR projection (`risk.make_target`).
        """
        pool = self.weight_pool(width)
        if self._pool_gram is None:
            gram = factor_gram(lambda_gram(pool, self.spectrum.eigenvalues))
            gram.buffer.flags.writeable = False
            gram.diagonal.flags.writeable = False
            self._pool_gram = gram
        return self._pool_gram


@functools.lru_cache(maxsize=1)
def _training_rows(master_seed: int, replicate: int, mode: str, n: int, p: int, kind: str,
                   gamma: float | None, d: int | None, omega1: float) -> _TrainingRows:
    """The replicate's training set, its covariates drawn from
    seed_stream(master_seed, replicate, "covariates"); W's complement, when
    a row-space cell asks for it, from seed_stream(master_seed, replicate,
    "weights-complement"), and the weight pool, when an unrealizable cell
    asks for it, from seed_stream(master_seed, replicate, "weights-dense"),
    with its Gram.

    The arguments are exactly what the rows depend on, so the cache key is
    the argument tuple.  run_sweep clears the cache on entry and on exit.
    """
    spectrum = make_spectrum(kind, p, gamma=gamma, d=d, omega1=omega1)
    X = sample_covariates(mode, n, seed_stream(master_seed, replicate, "covariates"), p=p)
    phi = eigenfeature_matrix(spectrum, mode, X)
    # X is not read again; freed before the Gram is formed
    del X
    return _TrainingRows(spectrum, phi, gram_eigh(phi), master_seed, replicate)


def compute_row(cfg: ExperimentConfig, s_index: int, replicate: int) -> SweepRecord:
    """Run the full pipeline for one (feature count, replicate) cell.

    The cell takes one of three routes to its weights, by target mode, tail
    index, noise law and width alone.  An unrealizable target holds the
    dense p x s W as the first s columns of its replicate's weight pool,
    p x max(s_grid) rounded up to whole blocks, drawn once, and reads its
    Gram H and H's factor as the leading s x s blocks of the pool's, formed
    and factored once (`make_target`'s gram); a realizable row where the
    tail index k* exists (the row may state the bias bound, which needs
    lambda_W) draws its own dense W from the `weights` stream.  Any other
    row holds row-space weights: G = R^T W, R an orthonormal basis of the eigenfeature rows'
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
    (R, T^T) from the same eigenpairs, W's complement frame, the weight
    pool and its factored Gram, computed by the first cell of the replicate
    that runs in this process (the factor and the frame by the first
    row-space cell, the pool and its Gram by the first unrealizable one) and
    reused by the others.  The eigenpairs give the empirical spectrum; the factor and the
    frame serve row-space cells, the pool and its Gram unrealizable ones.
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
    pool_gram = None
    if cfg.target_mode == "unrealizable":
        # a view of the replicate's pool, and its factored Gram, neither
        # copied nor formed here
        weights = rows.weight_pool(max(cfg.s_grid))[:, :s]
        pool_gram = rows.weight_gram(max(cfg.s_grid))
        complement = factor = None
    elif k_star is not None:
        weights, complement, factor = sample_weights(cfg.p, s, rng_w), None, None
    else:
        factor, complement = rows.factor, rows.complement
        # a reduced cell's weights and noise are drawn inside build_ensemble
        weights = rng_w if reducible(noise_spec, n, cfg.p) else \
            sample_weights(min(n, cfg.p), s, rng_w)
    ensemble = build_ensemble(spectrum, cfg.mode, rows.phi, weights, noise_spec, rng_noise,
                              complement=complement, factor=factor)
    target = make_target(cfg.target_mode, ensemble, cfg.target_norm, rng_target,
                         tail_energy=cfg.tail_energy, gram=pool_gram)
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


def _row_task(cfg: ExperimentConfig, s_index: int, replicate: int):
    start = time.perf_counter()
    try:
        record = compute_row(cfg, s_index, replicate)
        err = ""
    except Exception as exc:  # a broken cell must not sink the sweep
        record = _failed_record(cfg, s_index, replicate, f"{type(exc).__name__}: {exc}")
        err = record.error
    wall = (time.perf_counter() - start) * 1e3
    return s_index, replicate, record, wall, err


def _replicate_task(task) -> list:
    """One task's cells, in s order, as one list of _row_task results."""
    cfg, replicate, s_indices = task
    return [_row_task(cfg, s_index, replicate) for s_index in s_indices]


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run every (s, replicate) cell; failures are captured per row, not raised."""
    if cfg.master_seed is None:
        raise ValueError("a sweep needs master_seed; artifacts must be replayable")
    # one task per replicate (or per interleaved part of one, where the
    # workers outnumber the replicates): a worker runs a replicate's cells
    # in turn and draws its training rows once, and its records come back
    # in one message
    tasks = _tasks(cfg)
    # under fork the pool starts every worker at the first submit, so a pool
    # wider than the task list would only fork idle processes
    workers = _pool_size(cfg)
    # cleared on entry, so every sweep (and every forked worker) draws its
    # replicates' rows itself, and on exit, so none stay resident after it
    _training_rows.cache_clear()
    try:
        if workers <= 1:
            results = [row for task in tasks for row in _replicate_task(task)]
        else:
            # fork (the platform default), not spawn: a spawned worker would
            # import numpy and scipy again.  Each worker pins its own BLAS
            # threads; the calling process keeps its count
            with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas) as pool:
                results = [row for rows in pool.map(_replicate_task, tasks) for row in rows]
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


# the record fields aggregate.csv summarizes, and whether it holds their
# median and quartiles
_SUMMARIZED = (("B", True), ("V", True), ("R", True), ("M", False), ("bias_bound", False),
               ("variance_bound", False))


def _summary_table(table: np.ndarray, quartiles: bool) -> dict:
    """Per row of a (groups x replicates) table: the mean over its non-NaN
    entries (NaN where none is finite), its stderr (NaN unless every entry
    is finite and there are two or more) and, with quartiles, its median
    and quartiles (NaN where no entry is finite).

    Each statistic is one numpy call over the rows it applies to.  Each row
    is reduced on its own and in full, as a 1-d call on that group alone
    would reduce it, so the values are bit for bit the same; a row that
    holds a NaN among finite entries takes the 1-d NaN-aware calls."""
    groups, r = table.shape
    names = ("mean", "se", "median", "q25", "q75") if quartiles else ("mean", "se")
    out = {name: np.full(groups, NAN) for name in names}
    finite = np.isfinite(table)
    some = finite.any(axis=1)
    if some.any():
        out["mean"][some] = np.nanmean(table[some], axis=1)
    whole = finite.all(axis=1)
    if r >= 2 and whole.any():
        out["se"][whole] = table[whole].std(axis=1, ddof=1) / math.sqrt(r)
    if not quartiles:
        return out
    plain = some & ~np.isnan(table).any(axis=1)
    if plain.any():
        out["median"][plain] = np.median(table[plain], axis=1)
        out["q25"][plain], out["q75"][plain] = np.quantile(table[plain], (0.25, 0.75), axis=1)
    for i in np.flatnonzero(some & ~plain):
        out["median"][i] = np.nanmedian(table[i])
        out["q25"][i], out["q75"][i] = np.nanquantile(table[i], (0.25, 0.75))
    return out


def aggregate(records) -> list:
    """Collapse replicates into the per-s statistics aggregate.csv holds:
    the mean and stderr of B, V, M and R, the median and quartiles of B, V
    and R, and the mean of each bound; failed rows are skipped.

    Near the interpolation threshold the mean does not exist: for an n x s
    Gaussian design E[tr((Z^T Z)^-1)] = s / (n - s - 1) for s <= n - 2 and
    E[tr((Z Z^T)^-1)] = n / (s - n - 1) for s >= n + 2, both infinite for
    |s - n| <= 1 (the inverse-Wishart mean; Edelman 1988 for the smallest
    singular value of a square Gaussian matrix).  So V = sigma^2 tr(Q), and
    R with it, has no finite mean there, and a cell's mean and stderr do not
    settle as replicates grow; its median does.

    The groups of one size form one (s x replicate) table per field, so
    each statistic is one pass over it (`_summary_table`); failed rows can
    leave groups of several sizes, one table each.
    """
    by_s = {}
    for rec in records:
        if rec.error:
            continue
        by_s.setdefault(rec.s, []).append(rec)
    by_size = {}
    for s in sorted(by_s):
        by_size.setdefault(len(by_s[s]), []).append(s)
    stats = {}
    for size, grid in by_size.items():
        for attr, quartiles in _SUMMARIZED:
            table = np.array([[getattr(g, attr) for g in by_s[s]] for s in grid], dtype=float)
            summary = _summary_table(table, quartiles)
            for i, s in enumerate(grid):
                stats[s, attr] = {name: float(col[i]) for name, col in summary.items()}
    out = []
    for s in sorted(by_s):
        B, V, M, R = (stats[s, attr] for attr in ("B", "V", "M", "R"))
        out.append(SweepSummary(s=s, sigma0_sq=by_s[s][0].sigma0_sq, replicates=len(by_s[s]),
                                B_mean=B["mean"], B_se=B["se"], B_median=B["median"],
                                B_q25=B["q25"], B_q75=B["q75"], V_mean=V["mean"],
                                V_se=V["se"], V_median=V["median"], V_q25=V["q25"],
                                V_q75=V["q75"], M_mean=M["mean"], M_se=M["se"],
                                R_mean=R["mean"], R_se=R["se"], R_median=R["median"],
                                R_q25=R["q25"], R_q75=R["q75"],
                                bias_bound_mean=stats[s, "bias_bound"]["mean"],
                                variance_bound_mean=stats[s, "variance_bound"]["mean"]))
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


def _environment(cfg: ExperimentConfig) -> dict:
    """What a sweep of cfg runs on, as manifest.json's `environment` records it.

    numpy's and scipy's versions, os.cpu_count(), the file names of the
    OpenBLAS copies this process has loaded, what factored an unrealizable
    target's Grams (`gram_factor`: the file name of numpy's OpenBLAS copy
    where it exports every routine of that route, or "scipy" where one is
    missing, `blas.factor_backend`; null for the other targets, which
    factor none) and, where run_sweep starts a pool, its width, start
    method and the BLAS threads each worker was pinned to (null where no
    OpenBLAS copy was found to pin); `pool` is null where the cells run in
    the calling process.
    """
    import scipy

    workers, libraries = _pool_size(cfg), _openblas()
    pool = None
    if workers > 1:
        pool = {"workers": workers, "start_method": multiprocessing.get_start_method(),
                "blas_threads": WORKER_BLAS_THREADS if libraries else None}
    return {"numpy": np.__version__, "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "openblas": [name for name, _, _ in libraries],
            "gram_factor": factor_backend() if cfg.target_mode == "unrealizable" else None,
            "pool": pool}


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
        "seed_scheme": "covariates, weights-complement and weights-dense are keyed "
                       "seed_stream(master_seed, replicate, purpose) and shared by every "
                       "s: a replicate is one training set; every other draw is "
                       "seed_stream(master_seed, s_index, replicate, purpose), purposes: "
                       "weights, feature-noise, target; "
                       f"weight columns drawn in blocks of {WEIGHT_BLOCK}, block j from "
                       "child j of the stream's seed sequence (spawn order). An "
                       "unrealizable target draws one p x S pool from weights-dense per "
                       "replicate, S = max(s_grid) rounded up to whole blocks of "
                       f"{WEIGHT_BLOCK} columns, whose first max(s_grid) columns do not "
                       "depend on that rounding, and the row at s takes its first s "
                       "columns as W; a realizable row where the tail index k* exists "
                       "draws its p x s W from weights. Every other row holds row-space weights, "
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
                       "replicate, attached to the design D's rows through the QR "
                       "D^T = Q P whose triangle P has a positive diagonal: with V = Q B "
                       "the orthonormal basis of D's rows the fit used (B = I where a wide "
                       "D's Gram was factored by Cholesky, D^T = V L^T; else B from the QR "
                       "of (U T)^T for D = U T V^T, Sigma U^T where D took the SVD U Sigma "
                       "V^T, D^T where a tall D took its Gram's factor L^T) and the fit's "
                       "coefficient error e = V a + e_perp, W's complement times [V, e] is "
                       "(I - R R^T) F [[B, B a], [0, ||e_perp||]] = (I - R R^T) "
                       "[H1 B, H1 B a + ||e_perp|| h]",
        "grid": list(cfg.s_grid),
        "outputs": ["sweep.csv", "aggregate.csv", "bounds_curve.csv"],
        "timings_ms": result.timings_ms,
        "row_errors": result.errors,
        "environment": _environment(cfg),
    }
    _write_atomic(paths["manifest"], json.dumps(manifest, indent=2) + "\n")
    return paths
