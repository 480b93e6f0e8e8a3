"""Self-tests of the benchmark harness: python3 -m pytest perfbench

Every workload runs on the tiny grid (``--tiny``), so the whole file takes
well under a minute.
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=workloads.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        # two SVDs per cell; a third of the attempted cells were the traced sweep
        calls = result["metrics"]["estimator.svd_factors.calls"]["value"]
        assert 3 * calls == 2 * result["attempted"]


def test_cell_known_to_fail_is_counted(tmp_path):
    workloads.add_source_path()
    import run

    args = run.parse_args(["--workload", "dd-unrealizable", "--seed", "3", "--tiny"])
    bench = run.Run(args, workloads.WORKLOADS[args.workload], tmp_path)
    # an unrealizable target needs s < p; the last cell has s > p
    bench.cfg = dataclasses.replace(bench.cfg, s_grid=[10, 20, bench.cfg.p + 50])
    bench.timed_sweep()
    assert bench.attempted == 3
    assert bench.failed == {(0, bench.cfg.p + 50, 0)}


def test_tracer_restores_the_library():
    workloads.add_source_path()
    from tracer import LAYERS, Tracer

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in LAYERS}
    with Tracer():
        assert all(getattr(sys.modules[m], a) is not f for (m, a), f in before.items())
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in before.items())


def test_fails_without_the_library(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "dd-serial", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
