"""Recompute cells of a workload in a fresh interpreter.

    python3 replay.py <workload> <seed> <tiny 0|1> <s_index> [<s_index> ...]

Runs ``noisyrf.sweep.compute_row`` for replicate 0 of each s_index under the
inherited environment (and so its BLAS thread count) and prints the cells'
sweep.csv lines as one JSON list.
"""

import json
import sys

import workloads

workloads.add_source_path()
from noisyrf.sweep import compute_row, records_csv  # noqa: E402

name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
cfg = workloads.make_config(name, seed, tiny=tiny)
records = [compute_row(cfg, int(i), 0) for i in sys.argv[4:]]
print(json.dumps(records_csv(records).splitlines()[1:]))
