"""The names the benchmark harness in perfbench/ looks up in the library.

perfbench/tracer.py wraps the functions in its LAYERS table by module and
attribute name, and perfbench/workloads.py builds its configs through the
preset; a cut to the library's surface that drops one of them breaks
`perfbench/run.py --trace 1` without failing any other test.  These tests
only read perfbench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import noisyrf

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
