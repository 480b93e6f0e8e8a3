"""Span recorder that wraps noisyrf's public calls from outside the library.

Each wrapped function is replaced in the module namespace where its caller
looks it up (``noisyrf.sweep.decompose``, not ``noisyrf.risk.decompose``), so
the library source stays untouched.  A span is (id, name, start, end, parent
id, cell), with cell = (s_index, replicate) for work done inside a sweep
cell and None otherwise.  Times come from ``time.perf_counter``, the system's
monotonic clock, so spans from forked pool workers share one time base.

Pool workers inherit the wrappers through fork.  A worker cannot hand its
spans to the parent directly, so the ``compute_row`` wrapper moves the spans
of its cell onto the record it returns, and ``collect`` moves them back into
the recorder after the sweep.  Spans of a cell that raises are dropped; the
sweep reports that cell as failed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

CELL_ROOT = "sweep.compute_row"
SPANS_ATTR = "_perfbench_spans"

# (module where the name is looked up, attribute, span name)
LAYERS = (
    ("noisyrf.sweep", "run_sweep", "sweep.run_sweep"),
    ("noisyrf.sweep", "emit_outputs", "sweep.emit_outputs"),
    ("noisyrf.sweep", "compute_row", CELL_ROOT),
    ("noisyrf.sweep", "sample_covariates", "spectral.sample_covariates"),
    ("noisyrf.sweep", "sample_weights", "features.sample_weights"),
    ("noisyrf.sweep", "build_ensemble", "features.build_ensemble"),
    ("noisyrf.sweep", "make_target", "risk.make_target"),
    ("noisyrf.sweep", "decompose", "risk.decompose"),
    ("noisyrf.sweep", "empirical_covariance", "spectral.empirical_covariance"),
    ("noisyrf.sweep", "projector_diag", "estimator.projector_diag"),
    ("noisyrf.sweep", "_lambda_w", "sweep.lambda_w"),
    ("noisyrf.bounds", "bound_report", "bounds.bound_report"),
    # one function, looked up in two places: projector_diag and decompose
    ("noisyrf.estimator", "svd_factors", "estimator.svd_factors"),
    ("noisyrf.risk", "svd_factors", "estimator.svd_factors"),
)


class Tracer:
    """Records spans around the LAYERS calls while installed (use as a context manager)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._cell = None
        self._seq = 0
        self._originals = []

    def __enter__(self):
        for module_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, name, fn):
        is_cell = name == CELL_ROOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._seq += 1
            span_id = f"{os.getpid()}.{self._seq}"
            parent = self._stack[-1] if self._stack else None
            if is_cell:
                # run_sweep calls compute_row(cfg, s_index, replicate)
                outer_cell, self._cell = self._cell, (args[1], args[2])
                mark = len(self.spans)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self._cell))
                if is_cell:
                    cell_spans = self.spans[mark:]
                    del self.spans[mark:]
                    self._cell = outer_cell
            if is_cell:
                setattr(result, SPANS_ATTR, cell_spans)
            return result

        return traced

    def collect(self, records) -> None:
        """Move the spans each successful cell carried back into this recorder."""
        for rec in records:
            spans = rec.__dict__.pop(SPANS_ATTR, None)
            if spans is None and not rec.error:
                raise RuntimeError(
                    f"cell s={rec.s} replicate={rec.replicate} came back without spans; "
                    "tracing pool workers needs the fork start method")
            self.spans.extend(spans or ())

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, cell in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "cell": cell}) + "\n")


# layers whose run total is reported as <name>.busy_s
BUSY = ("risk.decompose", "sweep.lambda_w", "features.sample_weights", "risk.make_target",
        "estimator.projector_diag", "features.build_ensemble", "spectral.sample_covariates",
        "spectral.empirical_covariance", "bounds.bound_report", "sweep.emit_outputs")
# layers whose median time per cell is reported at each of CELL_S as <name>.cell_ms.s<N>
PER_CELL = (CELL_ROOT, "risk.decompose", "sweep.lambda_w", "features.sample_weights",
            "estimator.projector_diag")
CELL_S = (10, 100, 1000, 10000)


def layer_metrics(spans, s_grid, workers: int) -> dict:
    """Per-layer metrics of one traced sweep, as {name: (value, unit)}.

    A cell_ms metric whose s is not on the sweep's grid reads 0.
    """
    children = {}
    for _, _, start, end, parent, _ in spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    busy = {}
    per_cell = {}
    self_s = 0.0
    calls = 0
    sweep_wall = 0.0
    for span_id, name, start, end, _, cell in spans:
        dur = end - start
        busy[name] = busy.get(name, 0.0) + dur
        if name == CELL_ROOT:
            self_s += dur - children.get(span_id, 0.0)
        elif name == "estimator.svd_factors":
            calls += 1
        elif name == "sweep.run_sweep":
            sweep_wall += dur
        if cell is not None:
            per_cell.setdefault((name, s_grid[cell[0]]), []).append(dur)
    out = {f"{name}.busy_s": (busy.get(name, 0.0), "s") for name in BUSY}
    out[f"{CELL_ROOT}.self_s"] = (self_s, "s")
    out["estimator.svd_factors.calls"] = (calls, "count")
    out["sweep.pool_utilization"] = (busy.get(CELL_ROOT, 0.0) / (workers * sweep_wall), "ratio")
    for name in PER_CELL:
        for s in CELL_S:
            durs = per_cell.get((name, s))
            out[f"{name}.cell_ms.s{s}"] = (statistics.median(durs) * 1e3 if durs else 0.0, "ms")
    return out
