"""The names the benchmark harness in perfbench/ looks up in the library.

perfbench/tracer.py wraps the functions in its LAYERS table by module and
attribute name, perfbench/workloads.py builds its configs through the
preset, perfbench/run.py and replay.py call the sweep and its CSV writer,
and perfbench/checks.py reads SweepRecord fields; a change to the library
that drops one of them breaks `perfbench/run.py` without failing any other
test.  These tests only read perfbench/.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import noisyrf
from noisyrf import sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    qualified = f"_perfbench_{name}"
    spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _load("tracer").LAYERS
    missing = [f"{module}.{attr}" for module, attr, _ in layers
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert layers and missing == []


def test_every_public_name_resolves():
    missing = [name for name in noisyrf.__all__ if not hasattr(noisyrf, name)]
    assert missing == []


def test_every_workload_config_parses():
    workloads = _load("workloads")
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            cfg = workloads.make_config(name, seed=1, tiny=tiny)
            assert cfg.master_seed == 1


@pytest.mark.parametrize("name", ["dd-serial", "dd-unrealizable"])
def test_sweep_calls_of_run_and_replay_resolve(tmp_path, name):
    # run.py: run_sweep, emit_outputs(...)["sweep"], then replay_checks'
    # compute_row rows through records_csv against that file; replay.py
    # makes the same two calls.  Every cell must pass the harness's own
    # correctness check, M > 0 included where the workload asks for it
    workloads, checks = _load("workloads"), _load("checks")
    cfg = workloads.make_config(name, seed=1, out_dir=str(tmp_path), tiny=True)
    result = sweep.run_sweep(cfg)
    paths = sweep.emit_outputs(result, cfg, str(tmp_path / "sweep0"))
    with open(paths["sweep"], "r", encoding="utf-8", newline="") as fh:
        rows = checks.csv_rows(fh.read())
    indices = [0, len(cfg.s_grid) - 1]
    records = [sweep.compute_row(cfg, i, 0) for i in indices]
    lines = sweep.records_csv(records).splitlines()[1:]
    assert len(lines) == len(indices)
    assert all(line == rows[checks.row_key(line)] for line in lines)
    misspec_positive = workloads.WORKLOADS[name].misspec_positive
    assert [checks.cell_problem(rec, misspec_positive) for rec in result.records] == \
        [""] * len(result.records)


def _record_reads(source: str) -> set:
    """Attributes read off a variable named rec: rec.X, and getattr(rec, name)
    with name looping over a literal tuple of strings."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "rec":
            names.add(node.attr)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple) and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                and isinstance(call.args[0], ast.Name) and call.args[0].id == "rec"
                for call in ast.walk(node)):
            names |= {elt.value for elt in node.iter.elts}
    return names


def test_record_fields_the_harness_reads_exist():
    # tracer.py pops its spans out of a record's instance __dict__
    fields = {f.name for f in dataclasses.fields(sweep.SweepRecord)} | {"__dict__"}
    read = set()
    for name in ("checks", "run", "tracer"):
        read |= _record_reads((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))
    assert {"B", "V", "R", "M", "R_se", "error", "s", "replicate"} <= read
    assert read - fields == set()
