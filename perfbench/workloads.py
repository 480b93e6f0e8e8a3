"""The benchmark's workloads: the double-descent preset run three ways.

Each workload is one closed loop with one sweep in flight.  The seed given on
the command line becomes the sweep's master seed, so the same seed always
produces the same inputs.  This module imports nothing heavy: the harness
must set the BLAS thread variables before numpy is first imported.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESET = "double-descent-default"

# Variables that set a BLAS or OpenMP thread count; all are cleared or set
# together so the caller's environment cannot change a workload.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The same preset shrunk so that a whole sweep takes well under a second; the
# self-tests use it to exercise every code path of the harness.
TINY = {"n": 20, "p": 200, "s_grid": [5, 8, 10, 13, 16, 20, 25, 32, 50, 100, 150],
        "test_points": 512, "label_redraws": 50}


@dataclass(frozen=True)
class Workload:
    overrides: dict
    blas_threads: int | None = None  # None keeps the BLAS default (nproc)
    grid_below_p: bool = False  # keep only s < p, where an unrealizable target exists
    curve_shape: bool = False  # the risk curve must peak at s ~ n and fall off past it
    misspec_positive: bool = False  # every cell must report M > 0
    serial_reference: bool = False  # replicate-0 rows must match a serial default-BLAS run


WORKLOADS = {
    # the paper's curve as shipped: decompose's streamed loop, _lambda_w and
    # sample_weights take most of the time
    "dd-serial": Workload(
        overrides={"ensemble_replicates": 1, "workers": 1},
        curve_shape=True),
    # the only workload through run_sweep's process pool; one BLAS thread per
    # worker keeps the thread total at nproc (unpinned, OpenBLAS oversubscribes)
    "dd-pool": Workload(
        overrides={"ensemble_replicates": 2, "workers": 2},
        blas_threads=1, curve_shape=True, serial_reference=True),
    # the materialized risk path (m x s test features, lstsq on them) and
    # make_target's p x s solve; the streamed path is not used at all
    "dd-unrealizable": Workload(
        overrides={"ensemble_replicates": 1, "workers": 1, "target_mode": "unrealizable"},
        grid_below_p=True, misspec_positive=True),
}


def pin_threads(env, threads: int | None):
    """Clear every thread variable in env, then set each to threads unless None."""
    for var in THREAD_VARS:
        env.pop(var, None)
        if threads is not None:
            env[var] = str(threads)
    return env


def add_source_path() -> None:
    """Import noisyrf from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_config(name: str, seed: int, out_dir: str = "out", tiny: bool = False):
    """The validated ExperimentConfig of one workload at one seed."""
    from noisyrf.config import PRESETS, preset_config

    wl = WORKLOADS[name]
    overrides = dict(TINY) if tiny else {}
    overrides.update(wl.overrides)
    if wl.grid_below_p:
        p = overrides.get("p", PRESETS[PRESET]["p"])
        grid = overrides.get("s_grid", PRESETS[PRESET]["s_grid"])
        overrides["s_grid"] = [s for s in grid if s < p]
    overrides.update(master_seed=seed, out_dir=out_dir)
    return preset_config(PRESET, overrides)
