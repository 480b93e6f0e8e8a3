import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg as sla

from noisyrf import blas as blas_mod
from noisyrf import bounds as bounds_mod
from noisyrf import cli as cli_mod
from noisyrf import config as config_mod
from noisyrf import estimator as estimator_mod
from noisyrf import risk as risk_mod
from noisyrf import spectral as spectral_mod
from noisyrf import sweep as sweep_mod
from noisyrf.cli import main
from noisyrf.config import (PRESETS, ExperimentConfig, ValidationError,
                            parse_config, preset_config)
from noisyrf.features import WEIGHT_BLOCK, build_ensemble, make_noise_spec, sample_weights
from noisyrf.seeding import seed_sequence, seed_stream
from noisyrf.sweep import (AGGREGATE_COLUMNS, CSV_COLUMNS, SweepRecord,
                           _lambda_w, aggregate, aggregate_csv, compute_row,
                           emit_outputs, records_csv, run_sweep)

NAN = float("nan")


class TestSeeding:
    def test_same_tuple_same_stream(self):
        a = seed_stream(7, "weights", 3).standard_normal(8)
        b = seed_stream(7, "weights", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_distinct_streams(self):
        a = seed_stream(7, "weights").standard_normal(8)
        b = seed_stream(7, "covariates").standard_normal(8)
        c = seed_stream(8, "weights").standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_label_concatenation_not_ambiguous(self):
        a = seed_stream(0, "a", "b").standard_normal(4)
        b = seed_stream(0, "ab").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_numpy_integer_labels(self):
        a = seed_stream(1, np.int64(5)).standard_normal(4)
        b = seed_stream(1, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            seed_stream(0, -1)
        with pytest.raises(TypeError, match="label"):
            seed_stream(0, 1.5)

    def test_entropy_layout(self):
        sq = seed_sequence(3, 2)
        assert list(sq.entropy)[:2] == [3, 2]


class TestConfig:
    def test_minimal_dict_with_defaults(self):
        cfg = parse_config({"n": 4, "p": 8, "s_grid": [2, 4]})
        assert cfg.spectrum_kind == "polynomial" and cfg.gamma == 2.0
        assert cfg.target_noise == "fresh"
        assert cfg.master_seed is None

    def test_round_trip_through_to_dict(self):
        cfg = parse_config({"n": 4, "p": 8, "s_grid": [2, 4], "alpha": 1.5})
        assert parse_config(cfg.to_dict()) == cfg

    def test_collects_every_violation(self):
        with pytest.raises(ValidationError) as exc:
            parse_config({"n": 1, "p": 8, "s_grid": [4, 2], "gamma": 0.5,
                          "sigma_sq": -1.0, "workers": 0, "mystery": 1})
        msgs = "\n".join(exc.value.errors)
        assert len(exc.value.errors) >= 5
        assert "n must" in msgs and "strictly increasing" in msgs
        assert "gamma > 1" in msgs and "sigma_sq" in msgs
        assert "workers" in msgs and "mystery" in msgs

    def test_nested_spectrum_block(self):
        cfg = parse_config({"n": 4, "p": 8, "s_grid": [2],
                            "spectrum": {"kind": "finite-rank", "d": 3}})
        assert cfg.spectrum_kind == "finite-rank" and cfg.d == 3

    def test_unknown_spectrum_key(self):
        with pytest.raises(ValidationError, match="spectrum key"):
            parse_config({"n": 4, "p": 8, "s_grid": [2], "spectrum": {"rank": 3}})

    def test_manifest_replays(self):
        manifest = {"artifact_version": config_mod.ARTIFACT_VERSION,
                    "config": {"n": 4, "p": 8, "s_grid": [2], "master_seed": 9},
                    "timings_ms": {}}
        cfg = parse_config(manifest)
        assert cfg.master_seed == 9

    def test_manifest_of_another_version_is_refused(self):
        # version "1" manifests came from the full p- and s-wide test draws and
        # "2" from sampled test points; replaying one here would not reproduce
        # its numbers
        manifest = {"artifact_version": "1",
                    "config": {"n": 4, "p": 8, "s_grid": [2], "master_seed": 9}}
        with pytest.raises(ValidationError) as exc:
            parse_config(manifest)
        assert "'1'" in str(exc.value)
        assert f"'{config_mod.ARTIFACT_VERSION}'" in str(exc.value)

    @pytest.mark.parametrize("version,retired", [
        # a version "3" config block still holds the retired lower_multiplier;
        # the version check speaks before the unknown key can
        pytest.param("3", {"lower_multiplier": 0.1}, id="3"),
        # a version "6" config block still holds the retired multiplier keys
        pytest.param("6", {"bias_multiplier": 1.0, "variance_multiplier": 1.0, "m0": None},
                     id="6"),
        # version "8" row-space cells took R from the thin QR of phi^T; this
        # code takes it from the Gram's eigenpairs, so their G is another draw
        pytest.param("8", {}, id="8"),
        # version "9" row-space cells attached W's complement draw to the
        # design's right singular vectors V; this code attaches it to the left
        # ones U, so the complement is another draw
        pytest.param("9", {}, id="9"),
        # version "10" drew the k x s G and the n x s noise of every
        # realizable row without k*; this code draws the Bartlett factor of
        # [G; Xi] where s > min(n, p) + n under gaussian noise, and its
        # aggregate.csv has quartile columns
        pytest.param("10", {}, id="10"),
        # version "11" drew each cell's covariates from its own (s_index,
        # replicate) stream; this code draws them once per replicate
        pytest.param("11", {}, id="11"),
        # version "12" drew W's complement for each row-space cell from its
        # own (s_index, replicate) stream, p x n then a p-vector; this code
        # draws one p x (n + 1) F per replicate
        pytest.param("12", {}, id="12"),
        # version "13" drew each unrealizable cell's p x s W from its own
        # (s_index, replicate) weights stream; this code reads the first s
        # columns of one p x max(s_grid) pool per replicate
        pytest.param("13", {}, id="13"),
        # version "14" attached W's complement to each row-space cell's
        # design through (D D^T)^1/2 and factored wide designs through their
        # Gram's eigenpairs, tall ones by the SVD; this code attaches it
        # through the QR basis of D^T and factors both through the Cholesky
        # factor of the smaller Gram
        pytest.param("14", {}, id="14"),
    ])
    def test_old_version_manifest_gets_the_version_error(self, version, retired):
        manifest = {"artifact_version": version,
                    "config": {"n": 4, "p": 8, "s_grid": [2], "master_seed": 9, **retired}}
        with pytest.raises(ValidationError) as exc:
            parse_config(manifest)
        assert exc.value.errors == [
            f"manifest artifact_version '{version}' does not match this code's "
            f"'{config_mod.ARTIFACT_VERSION}'; its draws would differ"]

    @pytest.mark.parametrize("key,value", [
        ("bias_multiplier", 1.0), ("variance_multiplier", 1.0), ("m0", 1.0),
        ("method", "closed-form")])
    def test_retired_knobs_are_unknown_keys(self, key, value):
        # the bounds carry their own unit constants, so nothing rescales them,
        # and the label noise has one route, so nothing selects it
        with pytest.raises(ValidationError) as exc:
            parse_config({"n": 4, "p": 8, "s_grid": [2], key: value})
        assert exc.value.errors == [f"unknown config key: {key!r}"]

    def test_overrides_win(self):
        cfg = parse_config({"n": 4, "p": 8, "s_grid": [2], "alpha": 0.5},
                           overrides={"alpha": 2.0})
        assert cfg.alpha == 2.0

    def test_missing_required_keys(self):
        with pytest.raises(ValidationError) as exc:
            parse_config({"n": 4})
        assert any("missing required" in m for m in exc.value.errors)

    def test_custom_spectrum_kind_is_refused(self):
        # a config cannot carry eigenvalues, so every cell would fail
        with pytest.raises(ValidationError) as exc:
            parse_config({"n": 4, "p": 8, "s_grid": [2], "spectrum": {"kind": "custom"}})
        assert exc.value.errors == [
            "spectrum kind must be one of ('finite-rank', 'exponential', 'polynomial')"]

    def test_finite_rank_exceeding_p(self):
        with pytest.raises(ValidationError, match="exceed"):
            parse_config({"n": 4, "p": 8, "s_grid": [2],
                          "spectrum": {"kind": "finite-rank", "d": 20}})

    def test_preset_is_valid_and_named(self):
        cfg = preset_config("double-descent-default", {"master_seed": 1})
        assert cfg.n == 100 and cfg.p == 2000
        assert cfg.s_grid[0] == 10 and cfg.s_grid[-1] == 10_000
        assert 100 in cfg.s_grid  # the grid must hit the interpolation threshold
        with pytest.raises(ValidationError, match="unknown preset"):
            preset_config("nope")

    def test_presets_all_parse(self):
        for name in PRESETS:
            preset_config(name, {"master_seed": 0})

    @pytest.mark.parametrize("field,value,message", [
        ("n", True, "n must"),
        ("p", True, "p must"),
        ("s_grid", [True, 10], "s_grid"),
        ("test_points", True, "test_points"),
        ("label_redraws", True, "label_redraws"),
        ("ensemble_replicates", True, "ensemble_replicates"),
        ("workers", True, "workers"),
        ("master_seed", True, "master_seed"),
        ("spectrum", {"kind": "finite-rank", "d": True}, "rank d"),
    ])
    def test_bool_is_not_an_integer(self, field, value, message):
        raw = {"n": 20, "p": 40, "s_grid": [5, 10], field: value}
        with pytest.raises(ValidationError) as exc:
            parse_config(raw)
        assert len(exc.value.errors) == 1 and message in exc.value.errors[0]

    @pytest.mark.parametrize("field,value", [
        ("gamma", "2"), ("omega1", "x"), ("alpha", "0.5"), ("alpha", True),
        ("sigma_sq", None), ("target_norm", [1.0]), ("tail_energy", "1"),
        ("a", None), ("delta", "0.05"),
        ("clean_test", "yes"), ("clean_test", 1),
    ])
    def test_malformed_value_is_reported(self, field, value):
        raw = {"n": 20, "p": 40, "s_grid": [5, 10], field: value}
        with pytest.raises(ValidationError) as exc:
            parse_config(raw)
        assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith(field)

    def test_retired_count_keys_are_checked_and_dropped(self):
        # older configs, and the benchmark's shrunken preset, still set them;
        # the risk is exact over the test population, label noise included,
        # so they size nothing
        cfg = preset_config("double-descent-default",
                            {"n": 20, "p": 200, "s_grid": [5, 8], "test_points": 512,
                             "label_redraws": 50, "master_seed": 1})
        assert not hasattr(cfg, "test_points") and not hasattr(cfg, "label_redraws")
        assert cfg == preset_config("double-descent-default",
                                    {"n": 20, "p": 200, "s_grid": [5, 8], "master_seed": 1})
        for key, least in (("test_points", 1), ("label_redraws", 2)):
            with pytest.raises(ValidationError) as exc:
                parse_config({"n": 20, "p": 40, "s_grid": [5], key: least - 1})
            assert exc.value.errors == [f"{key} must be an integer >= {least}"]

    @pytest.mark.parametrize("field,value", [
        ("sigma_sq", math.inf), ("sigma_sq", math.nan), ("target_norm", math.inf),
        ("tail_energy", math.inf), ("omega1", math.inf), ("omega1", -math.inf),
        ("a", math.inf), ("gamma", math.inf)])
    def test_non_finite_value_is_refused(self, field, value):
        # an infinite label or target scale gave nan rows, an infinite omega1
        # failed after the artifacts were written, a = inf silently gave k* = 0
        raw = {"n": 20, "p": 40, "s_grid": [5, 10], "target_mode": "unrealizable",
               field: value}
        with pytest.raises(ValidationError) as exc:
            parse_config(raw)
        assert exc.value.errors == [f"{field} must be finite, not {value!r}"]

    @pytest.mark.parametrize("spectrum,support", [
        ({"kind": "polynomial", "gamma": 2.0}, 40), ({"kind": "finite-rank", "d": 12}, 12),
        ({"kind": "exponential"}, 33)])
    def test_unrealizable_grid_stays_below_the_support(self, spectrum, support):
        # make_target needs a direction outside the feature span: some s
        # below the count of eigenvalues above p * eps times the top one,
        # p or d here, and 33 for exp(-i) at p = 40 (e^-32 > 40 eps > e^-33)
        raw = {"n": 20, "p": 40, "s_grid": [5, 11, 12, 40, 50], "spectrum": spectrum,
               "master_seed": 1}
        assert parse_config(raw).s_grid == [5, 11, 12, 40, 50]
        with pytest.raises(ValidationError) as exc:
            parse_config({**raw, "target_mode": "unrealizable"})
        too_wide = [s for s in raw["s_grid"] if s >= support]
        assert exc.value.errors == [
            f"unrealizable targets need every s below the spectrum's {support} eigenvalues "
            f"above p * eps times the top one; s_grid has {too_wide}"]
        cfg = parse_config({**raw, "target_mode": "unrealizable",
                            "s_grid": [s for s in raw["s_grid"] if s < support]})
        assert all(r.error == "" for r in run_sweep(cfg).records)

    @pytest.mark.parametrize("flags,support", [
        (["--p", "60", "--kind", "exponential"], 32), (["--p", "2000", "--gamma", "8"], 34)])
    def test_unrealizable_grid_past_rounding_is_refused_before_a_write(
            self, tmp_path, capsys, flags, support):
        # exp(-i) at p = 60 gives energy above rounding to 32 directions, and
        # i^-8 at p = 2000 to 34.  Counted as p, both passed validation, and
        # cells past the floor failed at run time ("degenerate out-of-span
        # draw"): s = 40 in 7 of 20 cells of the first, s = 100 in 3 of 5 of
        # the second.  The floor is stated from rounding, not from where
        # make_target starts to fail, so it also refuses the second's s = 40
        argv = ["sweep", "--n", "10", *flags, "--s-grid", "5,40",
                "--target-mode", "unrealizable", "--seed", "1", "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert (f"the spectrum's {support} eigenvalues above p * eps times the top one; "
                "s_grid has [40]") in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_infinite_alpha_is_the_noiseless_limit(self):
        cfg = parse_config({"n": 20, "p": 40, "s_grid": [5], "alpha": math.inf})
        assert cfg.alpha == math.inf

    def test_nullable_float_fields_accept_null(self):
        cfg = parse_config({"n": 20, "p": 40, "s_grid": [5],
                            "spectrum": {"kind": "exponential", "gamma": None}})
        assert cfg.gamma is None


def small_cfg(**kw):
    base = {"n": 12, "p": 24, "s_grid": [6, 20],
            "ensemble_replicates": 1, "master_seed": 5}
    base.update(kw)
    return parse_config(base)


def fail_cells_of_width(monkeypatch, s):
    """Make every cell of feature count s raise inside the sweep's pipeline."""
    inner = sweep_mod.make_target

    def failing(mode, ensemble, *args, **kwargs):
        if ensemble.s == s:
            raise ValueError(f"stub failure at s = {s}")
        return inner(mode, ensemble, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "make_target", failing)


def unrealizable_preset(seed):
    """The double-descent preset with an unrealizable target on its s < p grid."""
    base = PRESETS["double-descent-default"]
    return preset_config("double-descent-default", {
        "master_seed": seed, "target_mode": "unrealizable",
        "s_grid": [s for s in base["s_grid"] if s < base["p"]]})


@pytest.fixture
def weight_shapes(monkeypatch):
    """The (rows, s) shape of every weight draw the sweep makes: p rows for
    the dense W, min(n, p) for the row-space G."""
    shapes = []
    inner = sweep_mod.sample_weights

    def recording(rows, s, rng, **kwargs):
        shapes.append((rows, s))
        return inner(rows, s, rng, **kwargs)

    monkeypatch.setattr(sweep_mod, "sample_weights", recording)
    return shapes


class TestSweep:
    def test_compute_row_fields(self):
        cfg = small_cfg()
        rec = compute_row(cfg, 0, 0)
        assert rec.s == 6 and rec.replicate == 0
        assert rec.sigma0_sq == pytest.approx(6.0 ** -0.5, rel=1e-14)
        assert rec.regime == "classical"
        assert math.isfinite(rec.B) and math.isfinite(rec.V) and math.isfinite(rec.R)
        assert rec.M == 0.0  # realizable target
        # underparameterized: no null space, so the projector premise is void
        assert math.isnan(rec.bias_bound)
        assert math.isfinite(rec.variance_bound)
        assert math.isnan(rec.wall_ms)

    def test_compute_row_overparameterized(self):
        rec = compute_row(small_cfg(), 1, 0)
        assert rec.s == 20 and rec.regime == "benign"
        assert math.isfinite(rec.V)

    def test_run_sweep_requires_seed(self):
        cfg = small_cfg()
        cfg = dataclasses.replace(cfg, master_seed=None)
        with pytest.raises(ValueError, match="master_seed"):
            run_sweep(cfg)

    def test_run_sweep_deterministic(self):
        cfg = small_cfg(ensemble_replicates=2)
        a = records_csv(run_sweep(cfg).records)
        b = records_csv(run_sweep(cfg).records)
        assert a == b

    def test_worker_count_does_not_change_results(self, weight_shapes):
        # no cell has a tail index at alpha = 0.5, so all take the row-space
        # route; at s = 600, G = R^T W spans three weight blocks.  Rademacher
        # noise keeps that cell off the reduced route, which draws no G
        cfg = small_cfg(ensemble_replicates=2, s_grid=[6, 20, 600], noise_family="rademacher")
        serial = records_csv(run_sweep(cfg).records)
        assert sorted(set(weight_shapes)) == [(cfg.n, 6), (cfg.n, 20), (cfg.n, 600)]
        parallel = records_csv(run_sweep(dataclasses.replace(cfg, workers=2)).records)
        assert serial == parallel

    def test_worker_count_does_not_change_reduced_rows(self, weight_shapes):
        # under gaussian noise the s = 600 cell, wider than min(n, p) + n =
        # 24, is reduced: build_ensemble draws its Bartlett factor.  Three
        # replicates, so a worker's cells span more than one replicate's
        # shared rows; replicate 2's rows have a tail index at s = 6, so that
        # cell draws the dense W and the grid holds all three routes
        cfg = small_cfg(ensemble_replicates=3, s_grid=[6, 20, 600])
        serial = records_csv(run_sweep(cfg).records)
        assert sorted(set(weight_shapes)) == [(cfg.n, 6), (cfg.n, 20), (cfg.p, 6)]
        parallel = records_csv(run_sweep(dataclasses.replace(cfg, workers=2)).records)
        assert serial == parallel

    def test_worker_count_does_not_change_unrealizable_rows(self):
        # both least-squares solves of an unrealizable cell run in each
        # worker, over three replicates' shared rows
        cfg = small_cfg(ensemble_replicates=3, target_mode="unrealizable")
        serial = run_sweep(cfg).records
        assert all(r.error == "" and r.M > 0 for r in serial)
        parallel = run_sweep(dataclasses.replace(cfg, workers=2)).records
        assert records_csv(serial) == records_csv(parallel)

    def test_pool_workers_run_one_blas_thread(self, monkeypatch, tmp_path):
        # each cell logs the thread count of every OpenBLAS copy loaded
        # (numpy's ILP64 and scipy's LP64 copy, each with its own pool), read
        # through the copy's own get_num_threads: 1 in every worker, while
        # this process keeps its count
        libraries = sweep_mod._openblas()
        if not libraries:
            pytest.skip("no bundled OpenBLAS copy is loaded")
        assert len(libraries) == 2
        log = tmp_path / "threads.txt"
        inner = sweep_mod.compute_row

        def recording(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {[get() for _, _, get in sweep_mod._openblas()]}\n")
            return inner(*args)

        before = [get() for _, _, get in libraries]
        monkeypatch.setattr(sweep_mod, "compute_row", recording)
        run_sweep(small_cfg(ensemble_replicates=2, workers=2))
        cells = [line.split(" ", 1) for line in log.read_text().splitlines()]
        assert len(cells) == 4 and str(os.getpid()) not in {pid for pid, _ in cells}
        assert {threads for _, threads in cells} == {"[1, 1]"}
        assert [get() for _, _, get in libraries] == before

    def test_worker_count_moves_preset_rows_by_rounding_only(self):
        # with the thread variables unset this process's BLAS runs one thread
        # per CPU and each pool worker one, and a BLAS thread count moves the
        # last bits of a large product: the rows agree to rounding, not byte
        # for byte.  Measured on the preset at 20 replicates (2 vCPUs, seeds
        # 7, 13 and 20260814): 1426-1436 of 2000 values differ, by at most
        # 9.5e-12 relative.  1e-9 is perfbench's pool-vs-serial bound
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        code = ("import json\n"
                "from noisyrf.config import preset_config\n"
                "from noisyrf.sweep import run_sweep\n"
                "rows = []\n"
                "for workers in (1, 2):\n"
                "    cfg = preset_config('double-descent-default', {'master_seed': 29,\n"
                "                        'ensemble_replicates': 4, 'workers': workers})\n"
                "    result = run_sweep(cfg)\n"
                "    assert not result.errors, result.errors\n"
                "    rows.append([[r.B, r.V, r.M, r.R] for r in result.records])\n"
                "print(json.dumps(rows))\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(env, PYTHONPATH=src), check=True, timeout=300)
        serial, pooled = json.loads(out.stdout)
        assert len(serial) == 25 * 4
        np.testing.assert_allclose(pooled, serial, rtol=1e-9, atol=0)

    def test_unrealizable_rows_agree_across_threads_workers_and_the_cli(self):
        # the unrealizable preset grid at 1 replicate, thread variables
        # unset: the calling process runs one BLAS thread per CPU, the pool's
        # two workers (each an interleaved part of the one replicate) one
        # each, and `noisyrf risk --s` its own default.  The grid threads, so
        # its rows move with the thread count: serial rows are not those of
        # an OPENBLAS_NUM_THREADS=1 run, which the pinned workers reproduce
        # byte for byte.  Serial, pooled and CLI rows agree within rtol 1e-9
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        grid = unrealizable_preset(7).s_grid
        code = ("import dataclasses, json, sys\n"
                "from noisyrf.config import preset_config\n"
                "from noisyrf.sweep import _openblas, run_sweep\n"
                "rows, cfg = {}, preset_config('double-descent-default', {\n"
                "    'master_seed': 7, 'target_mode': 'unrealizable', 'ensemble_replicates': 1,\n"
                f"    's_grid': {grid}}})\n"
                "for workers in map(int, sys.argv[1:]):\n"
                "    result = run_sweep(dataclasses.replace(cfg, workers=workers))\n"
                "    assert not result.errors, result.errors\n"
                "    rows[workers] = [[r.B, r.V, r.M, r.R] for r in result.records]\n"
                "print(json.dumps({'threads': [get() for _, _, get in _openblas()],\n"
                "                  'rows': rows}))\n")
        unset = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        unset["PYTHONPATH"] = src

        def run(args, env):
            return json.loads(subprocess.run([sys.executable, *args], capture_output=True,
                                             text=True, env=env, check=True,
                                             timeout=300).stdout)

        default = run(["-c", code, "1", "2"], unset)
        one = run(["-c", code, "1"], dict(unset, OPENBLAS_NUM_THREADS="1",
                                          OMP_NUM_THREADS="1"))
        serial, pooled = default["rows"]["1"], default["rows"]["2"]
        assert len(serial) == len(grid)
        if max(default["threads"]) < 2:
            pytest.skip("numpy's OpenBLAS runs one thread here; nothing to compare")
        assert serial != one["rows"]["1"]
        assert pooled == one["rows"]["1"]
        np.testing.assert_allclose(pooled, serial, rtol=1e-9, atol=0)
        for s in (178, 1778):
            rec = run(["-m", "noisyrf.cli", "risk", "--preset", "double-descent-default",
                       "--seed", "7", "--target-mode", "unrealizable",
                       "--s-grid", ",".join(map(str, grid)), "--s", str(s)], unset)
            np.testing.assert_allclose([rec["B"], rec["V"], rec["M"], rec["R"]],
                                       serial[grid.index(s)], rtol=1e-9, atol=0)

    def test_dropping_the_widest_unrealizable_s_leaves_the_other_rows(self):
        # each cell's W is the first s columns of its replicate's pool, and
        # the pool's prefix does not depend on its width; s = 257 and 520
        # cross weight-block edges, so the pool of the shorter grid ends
        # inside another block than the longer one's
        cfg = small_cfg(p=600, s_grid=[6, 257, 520], ensemble_replicates=2,
                        target_mode="unrealizable")
        full = records_csv(run_sweep(cfg).records).splitlines()
        short = records_csv(run_sweep(dataclasses.replace(cfg, s_grid=[6, 257])).records)
        kept = [line for line in full if not line.startswith("520,")]
        assert len(kept) == 1 + 2 * 2
        assert short.splitlines() == kept

    def test_preset_unrealizable_rows_do_not_depend_on_the_widest_s(self):
        # on the preset's grid the pool is max(s_grid) = 1778 rounded up to
        # 1792, seven blocks; without s = 1778 it is 1334 rounded up to
        # 1536, and without every s >= 1334 it is 1000 rounded up to 1024.
        # Each cell factors the leading block of its pool's Gram, which
        # lambda_gram forms by whole block columns, so the other rows do
        # not move by a bit
        cfg = dataclasses.replace(unrealizable_preset(7), ensemble_replicates=2)
        full = records_csv(run_sweep(cfg).records).splitlines()
        for widest in (1778, 1334):
            grid = [s for s in cfg.s_grid if s < widest]
            short = records_csv(run_sweep(dataclasses.replace(cfg, s_grid=grid)).records)
            kept = [line for line in full[1:] if int(line.split(",")[0]) < widest]
            assert len(kept) == 2 * len(grid)
            assert short.splitlines() == full[:1] + kept

    def test_unrealizable_pool_adds_no_memory_at_the_peak(self):
        # the peak is the widest cell's: the pool, p x S' with S' =
        # max(s_grid) = 1778 rounded up to 1792 whole blocks, its Gram
        # H_pool (S'^2), which holds H_pool's factor too, and the cell's
        # one buffer, G packed in S (S + 1) / 2 doubles (s = S = 1778).  A
        # cell forms no p x s array, and no H or factor of its own.  The
        # slack covers twice the n-row arrays of a cell (phi; Z and the
        # design, n x S).  Two replicates, so the second draws its pool
        # after the first's is gone.  The bound is 73.1 MB
        cfg = dataclasses.replace(unrealizable_preset(7), ensemble_replicates=2)
        n, p, S = cfg.n, cfg.p, max(cfg.s_grid)
        wide = -(-S // WEIGHT_BLOCK) * WEIGHT_BLOCK
        bound = 8 * (p * wide + wide * wide + S * (S + 1) // 2) + 8 * 2 * n * (p + S)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            records = run_sweep(cfg).records
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert all(r.error == "" and r.M > 0 for r in records)
        assert peak < bound, (peak, bound)

    def test_pool_is_never_wider_than_the_grid(self, monkeypatch):
        # a stub executor records the pool size, its initializer and the
        # tasks, and maps in this process, so no worker is ever started
        sizes, initializers, tasks = [], [], []

        class StubPool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)
                initializers.append(initializer)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                tasks.append([item[1:] for item in items])
                return map(fn, items)

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", StubPool)
        cfg = small_cfg(ensemble_replicates=2, workers=5000)
        result = run_sweep(cfg)
        # 2 replicates, each split into one part per s-value
        assert sizes == [4]
        assert tasks[-1] == [(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]
        assert initializers == [sweep_mod._pin_blas]
        assert records_csv(result.records) == records_csv(
            run_sweep(dataclasses.replace(cfg, workers=1)).records)
        run_sweep(dataclasses.replace(cfg, workers=3))
        assert sizes[-1] == 3 and len(tasks[-1]) == 4
        # as many workers as replicates: one task per whole replicate
        run_sweep(dataclasses.replace(cfg, workers=2))
        assert sizes[-1] == 2 and tasks[-1] == [(0, (0, 1)), (1, (0, 1))]

    @pytest.mark.parametrize("target_mode,alpha", [
        ("unrealizable", 0.5), ("realizable-clean", 0.0), ("realizable-clean", 0.5)])
    def test_dense_route_cells_equal_a_hand_assembled_cell(self, weight_shapes, target_mode,
                                                          alpha):
        # an unrealizable cell and one with a tail index (alpha = 0) hold the
        # dense W, bit for bit as a pipeline assembled by hand; a realizable
        # cell without one (alpha = 0.5) takes the row-space route instead.
        # The covariates are the replicate's, keyed without the s index; so
        # is an unrealizable cell's W, the first s columns of the replicate's
        # pool, max(s_grid) = 22 rounded up to one WEIGHT_BLOCK, and its H,
        # the leading s x s block of the pool's Gram.  Replicate 1: at seed
        # 5 its rows have a tail index at alpha = 0, replicate 0's have none
        cfg = small_cfg(target_mode=target_mode, alpha=alpha, ensemble_replicates=2,
                        s_grid=[6, 20, 22])
        seed, s_index, s, rep = cfg.master_seed, 1, cfg.s_grid[1], 1

        def stream(purpose):
            return seed_stream(seed, s_index, rep, purpose)

        spectrum = sweep_mod._make_spectrum(cfg)
        gram = None
        if target_mode == "unrealizable":
            pool = sample_weights(cfg.p, WEIGHT_BLOCK, seed_stream(seed, rep, "weights-dense"))
            W = pool[:, :s]
            gram = risk_mod.factor_gram(risk_mod.lambda_gram(pool, spectrum.eigenvalues))
        else:
            W = sample_weights(cfg.p, s, stream("weights"))

        phi = spectral_mod.eigenfeature_matrix(
            spectrum, cfg.mode, spectral_mod.sample_covariates(
                cfg.mode, cfg.n, seed_stream(seed, rep, "covariates"), p=cfg.p))
        spec = make_noise_spec(cfg.noise_family, cfg.alpha, s)
        ens = build_ensemble(spectrum, cfg.mode, phi, W, spec, stream("feature-noise"))
        target = risk_mod.make_target(cfg.target_mode, ens, cfg.target_norm, stream("target"),
                                      tail_energy=cfg.tail_energy, gram=gram)
        d = risk_mod.decompose(ens, target, cfg.sigma_sq, clean_test=cfg.clean_test,
                               target_noise=cfg.target_noise)
        rec = compute_row(cfg, s_index, rep)
        dense = target_mode == "unrealizable" or alpha == 0.0
        assert (rec.k_star is not None) == (alpha == 0.0)
        assert weight_shapes == [(cfg.p if dense else cfg.n,
                                  WEIGHT_BLOCK if target_mode == "unrealizable" else s)]
        got = (rec.B, rec.V, rec.M, rec.R)
        want = (d.bias, d.variance, d.misspec, d.total)
        assert (got == want) == dense

    def test_row_space_cell_never_holds_a_p_by_s_array(self, weight_shapes):
        # a preset-sized cell without a tail index: its traced peak stays
        # below half of one p x s float64 array (the dense route holds W).
        # Rademacher noise keeps it off the reduced route, which draws no G
        cfg = preset_config("double-descent-default",
                            {"master_seed": 7, "s_grid": [10000], "ensemble_replicates": 1,
                             "noise_family": "rademacher"})
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rec = compute_row(cfg, 0, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert weight_shapes == [(cfg.n, 10000)] and rec.k_star is None
        assert peak < 0.5 * 8 * cfg.p * 10000, peak

    def test_reduced_cell_cost_does_not_grow_with_s(self, weight_shapes):
        # a reduced cell holds no array with s in its shape.  Its largest
        # buffers are p x (n + 1) at most: phi, R and, while the replicate's
        # complement frame is formed, F, three at once; the product the
        # split takes holds none.  The rest is O(m^2) with m = min(n, p) + n:
        # L, Z, the design, V and the frame's triangle.  At
        # s = 10^6 a cell holding G or the noise would allocate several
        # n x s arrays of 800 MB each
        cfg = preset_config("double-descent-default",
                            {"master_seed": 7, "s_grid": [10 ** 6], "ensemble_replicates": 1})
        n, p = cfg.n, cfg.p
        m = min(n, p) + n
        bound = 8 * (5 * p * (n + 1) + 4 * m * (m + 1))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rec = compute_row(cfg, 0, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert weight_shapes == [] and rec.error == ""
        assert rec.k_star is None and all(math.isfinite(x) for x in (rec.B, rec.V, rec.R))
        assert peak < bound, (peak, bound)

    def test_row_failure_captured_not_raised(self, monkeypatch):
        # the stub fails the second grid entry's cell at runtime while the
        # config itself is legal
        fail_cells_of_width(monkeypatch, 24)
        cfg = small_cfg(s_grid=[6, 24])
        result = run_sweep(cfg)
        assert list(result.errors) == ["1:0"]
        good, bad = result.records
        assert good.error == "" and math.isfinite(good.R)
        assert bad.error != "" and math.isnan(bad.R)
        assert bad.s == 24  # identity of the failed cell is preserved

    def test_aggregate_means_and_stderr(self):
        def rec(s, rep, B):
            return SweepRecord(s=s, replicate=rep, sigma0_sq=0.1, k_star=None,
                               B=B, B_se=0.0, V=1.0, V_se=0.0, M=0.0, M_se=0.0,
                               R=B + 1.0, R_se=0.0, bias_bound=0.5,
                               variance_bound=0.25, regime="benign", wall_ms=NAN)

        failed = SweepRecord(s=8, replicate=2, sigma0_sq=0.1, k_star=None, B=NAN,
                             B_se=NAN, V=NAN, V_se=NAN, M=NAN, M_se=NAN, R=NAN,
                             R_se=NAN, bias_bound=NAN, variance_bound=NAN,
                             regime="benign", wall_ms=NAN, error="boom")
        out = aggregate([rec(8, 0, 1.0), rec(8, 1, 3.0), failed, rec(16, 0, 2.0)])
        assert [a.s for a in out] == [8, 16]
        eight = out[0]
        assert eight.replicates == 2
        assert eight.B_mean == pytest.approx(2.0, rel=1e-14)
        assert eight.B_se == pytest.approx(math.sqrt(2) / math.sqrt(2), rel=1e-12)
        assert out[1].replicates == 1
        assert math.isnan(out[1].B_se)  # one replicate has no spread estimate

    def test_aggregate_medians(self):
        # each median and quartile column is np.median or np.quantile over the
        # cell's replicate rows, the failed row skipped; heavy tails (a peak
        # cell's V) move the mean and not the median
        rng = seed_stream(5, "medians")
        records = []
        for s, reps in ((8, 5), (16, 4)):
            for rep in range(reps):
                B, V = rng.exponential(), rng.pareto(0.8)
                records.append(SweepRecord(
                    s=s, replicate=rep, sigma0_sq=0.1, k_star=None, B=B, B_se=0.0,
                    V=V, V_se=0.0, M=0.0, M_se=0.0, R=B + V, R_se=0.0, bias_bound=NAN,
                    variance_bound=NAN, regime="benign", wall_ms=NAN))
        records.append(SweepRecord(s=8, replicate=5, sigma0_sq=0.1, k_star=None, B=NAN,
                                   B_se=NAN, V=NAN, V_se=NAN, M=NAN, M_se=NAN, R=NAN,
                                   R_se=NAN, bias_bound=NAN, variance_bound=NAN,
                                   regime="benign", wall_ms=NAN, error="boom"))
        out = aggregate(records)
        assert [a.s for a in out] == [8, 16]
        for summary in out:
            rows = [r for r in records if r.s == summary.s and not r.error]
            for col in ("B", "V", "R"):
                vals = [getattr(r, col) for r in rows]
                assert getattr(summary, col + "_median") == np.median(vals)
                assert [getattr(summary, col + q) for q in ("_q25", "_q75")] == \
                    list(np.quantile(vals, (0.25, 0.75)))
                assert getattr(summary, col + "_q25") <= getattr(summary, col + "_median") \
                    <= getattr(summary, col + "_q75")
        text = aggregate_csv(out).splitlines()
        header = text[0].split(",")
        assert {f"{col}_{stat}" for col in "BVR" for stat in ("median", "q25", "q75")} \
            <= set(header)
        for col in ("R_median", "R_q25", "R_q75"):
            assert float(text[1].split(",")[header.index(col)]) == getattr(out[0], col)

    def test_cells_next_to_n_have_no_mean(self):
        # E[tr((Z Z^T)^-1)] is infinite at |s - n| <= 1 (see aggregate), so
        # R's sample mean there (s = 19, 20, 21) never settles: its se / mean stays at or above
        # SE_FLOOR from 40 to 400 replicates, where a law with a finite
        # variance would fall like 1 / sqrt(replicates).  Away from n it
        # settles: se / mean below SE_FLOOR / 4 at 400 replicates, and mean and
        # median within MEDIAN_RTOL at both counts.
        SE_FLOOR, MEDIAN_RTOL = 0.1, 0.15
        n, grid, few, many = 20, [12, 19, 20, 21, 30], 40, 400
        cfg = parse_config({"n": n, "p": 200, "s_grid": grid, "master_seed": 7,
                            "ensemble_replicates": many}, None)
        records = [compute_row(cfg, i, r) for i in range(len(grid)) for r in range(many)]
        for reps in (few, many):
            for cell in aggregate([r for r in records if r.replicate < reps]):
                rel_se = cell.R_se / cell.R_mean
                if abs(cell.s - n) <= 1:
                    assert rel_se >= SE_FLOOR, (cell.s, reps, rel_se)
                elif abs(cell.s - n) >= 3:
                    assert abs(cell.R_mean / cell.R_median - 1) <= MEDIAN_RTOL, (cell.s, reps)
                    assert reps == few or rel_se <= SE_FLOOR / 4, (cell.s, rel_se)

    def test_emit_outputs_artifacts(self, tmp_path):
        cfg = small_cfg()
        result = run_sweep(cfg)
        paths = emit_outputs(result, cfg, str(tmp_path))
        for key in ("sweep", "aggregate", "curve", "manifest"):
            assert os.path.exists(paths[key])
        sweep_text = Path(paths["sweep"]).read_text()
        assert sweep_text.splitlines()[0] == ",".join(CSV_COLUMNS)
        agg_text = Path(paths["aggregate"]).read_text()
        assert agg_text.splitlines()[0] == ",".join(AGGREGATE_COLUMNS)
        curve_first = Path(paths["curve"]).read_text().splitlines()[0]
        assert curve_first == "s,sigma0_sq,k_star,bias_bound,variance_bound,total,regime"
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["artifact_version"] == config_mod.ARTIFACT_VERSION
        assert f"blocks of {WEIGHT_BLOCK}" in manifest["seed_scheme"]
        # a replicate's covariates, W's complement and the unrealizable
        # weight pool are shared by its cells; the label noise is integrated,
        # so no stream is drawn for it
        assert manifest["seed_scheme"].startswith(
            "covariates, weights-complement and weights-dense are keyed "
            "seed_stream(master_seed, replicate, purpose) and shared by every s")
        assert "purposes: weights, feature-noise, target; " in manifest["seed_scheme"]
        assert "one (p, n + 1) standard normal draw F = [H1, h], drawn once per replicate" \
            in manifest["seed_scheme"]
        assert "draws one p x S pool from weights-dense per replicate, S = max(s_grid) " \
            f"rounded up to whole blocks of {WEIGHT_BLOCK} columns, whose first max(s_grid) " \
            "columns do not depend on that rounding, and the row at s takes its first s " \
            "columns as W" in manifest["seed_scheme"]
        assert "attached to the design D's rows through the QR D^T = Q P whose triangle " \
            "P has a positive diagonal" in manifest["seed_scheme"]
        assert sweep_mod.ARTIFACT_VERSION == config_mod.ARTIFACT_VERSION == "15"
        assert manifest["grid"] == [6, 20]
        assert set(manifest["timings_ms"]) == {"0:0", "1:0"}
        # a manifest replays: its config block parses to the original config
        assert parse_config(manifest) == cfg
        # the run's environment; one worker runs the cells in this process,
        # and a realizable target factors no Gram
        libraries = [name for name, _, _ in sweep_mod._openblas()]
        assert manifest["environment"] == {
            "numpy": np.__version__, "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "openblas": libraries, "gram_factor": None, "pool": None}
        # an unrealizable target's Grams are factored on numpy's OpenBLAS
        # copy, one of those loaded, or by scipy where it has no dpotrf
        unrealizable = dataclasses.replace(cfg, target_mode="unrealizable")
        paths = emit_outputs(run_sweep(unrealizable), unrealizable, str(tmp_path / "unreal"))
        backend = json.loads(Path(paths["manifest"]).read_text())["environment"]["gram_factor"]
        assert backend == blas_mod.factor_backend()
        assert backend in libraries + ["scipy"]
        # two workers on the two cells: a pool, its workers pinned where an
        # OpenBLAS copy was found; the rows and the replay do not change
        pooled = dataclasses.replace(cfg, workers=2)
        paths = emit_outputs(run_sweep(pooled), pooled, str(tmp_path / "pooled"))
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert manifest["environment"]["pool"] == {
            "workers": 2, "start_method": multiprocessing.get_start_method(),
            "blas_threads": 1 if libraries else None}
        assert Path(paths["sweep"]).read_text() == sweep_text
        assert parse_config(manifest) == pooled

    @pytest.mark.parametrize("missing", [None, "_lapacke_dpotrf", "_cblas", "_lapacke_rfp",
                                         "all"])
    def test_manifest_names_what_ran_the_unrealizable_route(self, monkeypatch, tmp_path,
                                                            missing):
        # gram_factor names numpy's OpenBLAS file only where every routine
        # of the unrealizable route was found there: the blocked factor's
        # dpotrf, the cblas calls of the factor and its solves, and the RFP
        # pack, factor and solve; with any one group missing, scipy's copy
        # runs it, and the manifest says "scipy"
        lookups = ("_lapacke_dpotrf", "_cblas", "_lapacke_rfp")
        found = [getattr(blas_mod, lookup)() for lookup in lookups]
        if missing is None and None in found:
            pytest.skip("numpy's OpenBLAS lacks a routine of the unrealizable route")
        for lookup in lookups if missing == "all" else (missing,) if missing else ():
            monkeypatch.setattr(blas_mod, lookup, lambda: None)
        cfg = small_cfg(target_mode="unrealizable")
        paths = emit_outputs(run_sweep(cfg), cfg, str(tmp_path))
        backend = json.loads(Path(paths["manifest"]).read_text())["environment"]["gram_factor"]
        if missing is None:
            assert backend == found[0][0] and backend.startswith("libscipy_openblas64_")
            assert backend in [name for name, _, _ in sweep_mod._openblas()]
        else:
            assert backend == "scipy"

    def test_lambda_w_matches_lapack(self):
        W = seed_stream(2, "lw").standard_normal((30, 20))
        want = float(sla.svdvals(W)[0] ** 2)
        np.testing.assert_allclose(_lambda_w(W), want, rtol=1e-12)

    def test_lambda_w_iterative_branch(self):
        W = seed_stream(3, "lw").standard_normal((610, 605))
        want = float(np.linalg.svd(W, compute_uv=False)[0] ** 2)
        np.testing.assert_allclose(_lambda_w(W), want, rtol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lambda_w_wide_iterative_branch(self, seed):
        # s > p: Lanczos on W W^T, stopped at the module's ARPACK tolerance
        W = seed_stream(seed, "lw-wide").standard_normal((650, 3000))
        want = float(sla.svdvals(W)[0] ** 2)
        np.testing.assert_allclose(_lambda_w(W), want, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40), (700, 620), (620, 700)])
    def test_lambda_w_either_gram_side(self, shape):
        # tall and wide, with the smaller side on both sides of the
        # dense / iterative cut at 600
        W = seed_stream(4, "lw", *shape).standard_normal(shape)
        want = float(sla.svdvals(W)[0] ** 2)
        np.testing.assert_allclose(_lambda_w(W), want, rtol=1e-12)

    @pytest.mark.parametrize("target_mode,s_index", [
        ("realizable-clean", 0), ("realizable-clean", 1), ("unrealizable", 0)])
    def test_one_design_svd_per_cell(self, monkeypatch, target_mode, s_index):
        calls = []

        def counting(original):
            def wrapped(*args, **kwargs):
                calls.append(args[0].shape)
                return original(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(risk_mod, "svd_factors", counting(risk_mod.svd_factors))
        monkeypatch.setattr(estimator_mod, "svd_factors",
                            counting(estimator_mod.svd_factors))
        cfg = small_cfg(target_mode=target_mode)
        rec = compute_row(cfg, s_index, 0)
        assert rec.error == "" and math.isfinite(rec.R)
        assert calls == [(cfg.n, cfg.s_grid[s_index])]

    @pytest.mark.parametrize("target_mode", ["realizable-clean", "unrealizable"])
    def test_one_eigenfeature_evaluation_per_replicate(self, monkeypatch, target_mode):
        calls = []
        original = spectral_mod.eigenfeature_matrix

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("noisyrf") and \
                    getattr(module, "eigenfeature_matrix", None) is original:
                monkeypatch.setattr(module, "eigenfeature_matrix", counting)
        # every cell of a replicate shares its rows: a serial sweep of two
        # s-values and two replicates evaluates phi twice, not four times
        cfg = small_cfg(target_mode=target_mode, ensemble_replicates=2)
        records = run_sweep(cfg).records
        assert all(r.error == "" and math.isfinite(r.R) for r in records)
        assert calls == [cfg.mode] * cfg.ensemble_replicates

    @pytest.mark.parametrize("target_mode", ["realizable-clean", "unrealizable"])
    def test_sweep_rows_are_exact(self, target_mode):
        # the label noise is integrated, not redrawn: R is the sum to the bit
        # and every se column reads 0, on both sides of s = n
        cfg = small_cfg(target_mode=target_mode, ensemble_replicates=2)
        records = run_sweep(cfg).records
        assert len(records) == 4
        for rec in records:
            assert rec.error == "" and (rec.M > 0) == (target_mode == "unrealizable")
            assert rec.R == rec.B + rec.V + rec.M
            assert rec.B_se == rec.V_se == rec.M_se == rec.R_se == 0.0

    def test_bias_bound_nan_exactly_without_null_space(self):
        # at unit feature-noise energy (alpha = 0) the tail index depends on
        # the replicate's rows alone, so it exists on all of a replicate's
        # cells or on none: at seed 5 on replicate 1's, not on replicate 0's.
        # Where it exists, a nan can only come from the missing null space
        cfg = small_cfg(s_grid=[4, 8, 12, 16, 24, 48], alpha=0.0, ensemble_replicates=2)
        records = run_sweep(cfg).records
        with_index = [r for r in records if r.k_star is not None]
        assert [r.replicate for r in with_index] == [1] * len(cfg.s_grid)
        assert [math.isnan(r.bias_bound) for r in with_index] == \
            [r.s <= cfg.n for r in with_index]
        assert all(math.isnan(r.bias_bound) for r in records if r.k_star is None)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("target_mode", ["realizable-clean", "unrealizable"])
    def test_lambda_w_only_in_rows_that_state_the_bias_bound(self, monkeypatch, alpha,
                                                             target_mode):
        cfg = parse_config({"n": 20, "p": 200, "s_grid": [10, 50, 100, 150],
                            "alpha": alpha, "target_mode": target_mode,
                            "ensemble_replicates": 1,
                            "master_seed": 3})
        evaluated = []

        def counting(W):
            evaluated.append(W.shape[1])
            return _lambda_w(W)

        monkeypatch.setattr(sweep_mod, "_lambda_w", counting)
        records = run_sweep(cfg).records
        assert all(r.error == "" for r in records)
        stated = [r.s for r in records if math.isfinite(r.bias_bound)]
        # unit noise energy makes the tail index exist; at alpha = 0.5 it never does
        assert stated == ([50, 100, 150] if alpha == 0.0 else [])
        assert evaluated == stated
        # the reference: every row's bound report sees the measured lambda_W
        # of its W, the first s columns of the last draw (the draw itself on
        # the realizable rows, the replicate's pool on the unrealizable ones)
        draws = []

        def keeping(*args, **kwargs):
            draws.append(sample_weights(*args, **kwargs))
            return draws[-1]

        def measured(original):
            def report(inputs, **kwargs):
                inputs = dataclasses.replace(inputs,
                                             lambda_W=_lambda_w(draws[-1][:, :inputs.s]))
                return original(inputs, **kwargs)
            return report

        monkeypatch.setattr(sweep_mod, "sample_weights", keeping)
        monkeypatch.setattr(bounds_mod, "bound_report", measured(bounds_mod.bound_report))
        assert records_csv(records) == records_csv(run_sweep(cfg).records)
        # at alpha = 0.5 the realizable cells wider than min(n, p) + n = 40
        # are reduced: build_ensemble draws their weights, sample_weights
        # does not.  The unrealizable replicate draws its pool once,
        # max(s_grid) = 150 rounded up to one WEIGHT_BLOCK
        if target_mode == "unrealizable":
            assert [W.shape for W in draws] == [(cfg.p, WEIGHT_BLOCK)]
        else:
            assert len(draws) == (1 if alpha > 0 else len(cfg.s_grid))

    @pytest.mark.parametrize("s,route", [(100, "row-space"), (10, "dense")])
    def test_preset_cell_factors_the_gram_once(self, monkeypatch, linalg_calls, weight_shapes,
                                               s, route):
        # one eigensolve of phi phi^T per replicate gives both the empirical
        # spectrum and its row-space cells' basis: no QR of the 2000 x 100
        # phi^T, and no cell runs a second eigensolve (lambda_W is not stated
        # on the preset, and designs of s - 5 and s columns keep the SVD).
        # The only QRs are those of Sigma U^T, s x n, by which a row-space
        # cell on the SVD route attaches W's complement (SvdFactors.qr_coords)
        calls = linalg_calls("eigh", "eigvalsh")
        qr_shapes = []
        real_qr = np.linalg.qr

        def qr(a, mode="reduced"):
            qr_shapes.append(a.shape)
            return real_qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr)
        cfg = preset_config("double-descent-default",
                            {"master_seed": 7, "s_grid": [s - 5, s], "ensemble_replicates": 2})
        records = run_sweep(cfg).records
        assert all(r.error == "" and math.isfinite(r.R) for r in records)
        rows = cfg.n if route == "row-space" else cfg.p
        assert weight_shapes == [(rows, s - 5), (rows, s)] * 2
        assert calls == {"eigh": 2, "eigvalsh": 0}
        assert qr_shapes == ([(s - 5, cfg.n), (s, cfg.n)] * 2 if route == "row-space" else [])

    def test_preset_replicate_runs_one_eigensolve(self, linalg_calls):
        # the replicate's one eigensolve is phi's Gram: every design but the
        # square s = n = 100 one takes the Cholesky factor of its smaller
        # Gram, and only that one takes the SVD.  The complement frame's
        # CholeskyQR2 adds two Cholesky factors
        calls = linalg_calls("eigh", "cholesky", "svd")
        cfg = preset_config("double-descent-default",
                            {"master_seed": 7, "ensemble_replicates": 1})
        records = run_sweep(cfg).records
        assert all(r.error == "" and math.isfinite(r.R) for r in records)
        assert cfg.s_grid.count(cfg.n) == 1
        assert calls == {"eigh": 1, "cholesky": len(cfg.s_grid) - 1 + 2, "svd": 1}

    def test_row_space_cells_repeat_across_blas_thread_counts(self):
        # a BLAS thread count changes the Gram's last bits, and with them the
        # eigenvectors eigh picks inside a cluster of close eigenvalues.  The
        # basis R = phi^T U D^-1/2 U^T does not depend on that pick; taken
        # as phi^T U D^-1/2, these cells drew another G on 1 thread than on 2
        # and R moved by up to 150%.  1e-9 is perfbench's pool-vs-serial bound
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        code = ("import json\n"
                "from noisyrf.config import preset_config\n"
                "from noisyrf.sweep import compute_row\n"
                "rows = []\n"
                "for seed, s in [(317, 100), (333, 100), (301, 133)]:\n"
                "    cfg = preset_config('double-descent-default', {'master_seed': seed})\n"
                "    rec = compute_row(cfg, cfg.s_grid.index(s), 0)\n"
                "    rows.append([rec.B, rec.V, rec.R])\n"
                "print(json.dumps(rows))\n")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, check=True, timeout=300)
            runs.append(json.loads(out.stdout))
        np.testing.assert_allclose(runs[0], runs[1], rtol=1e-9, atol=0)

    def test_gram_route_cells_repeat_across_blas_thread_counts(self):
        # these wide designs are factored through their Gram (no SVD runs),
        # whose eigenvectors rotate inside a cluster of close eigenvalues with
        # the BLAS thread count.  The split reads only basis-invariant forms,
        # and W's complement is drawn against the design's rows, not against
        # those eigenvectors; 1e-9 is perfbench's pool-vs-serial bound.  The
        # gaussian cells at s = 1000 and 10000 are reduced (m + 1 = 201
        # wide); the rademacher ones hold the 100 x s G
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        code = ("import json\n"
                "import numpy as np\n"
                "from noisyrf.config import preset_config\n"
                "from noisyrf.sweep import compute_row\n"
                "svd = np.linalg.svd\n"
                "calls = []\n"
                "np.linalg.svd = lambda *a, **k: calls.append(1) or svd(*a, **k)\n"
                "rows = []\n"
                "for seed, family in ((7, 'gaussian'), (13, 'gaussian'), (7, 'rademacher')):\n"
                "    cfg = preset_config('double-descent-default',\n"
                "                        {'master_seed': seed, 'noise_family': family})\n"
                "    for s in (133, 1000, 10000):\n"
                "        rec = compute_row(cfg, cfg.s_grid.index(s), 0)\n"
                "        rows.append([rec.B, rec.V, rec.R])\n"
                "print(json.dumps({'svd_calls': len(calls), 'rows': rows}))\n")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, check=True, timeout=300)
            runs.append(json.loads(out.stdout))
        assert [run["svd_calls"] for run in runs] == [0, 0]
        np.testing.assert_allclose(runs[0]["rows"], runs[1]["rows"], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("s", [10, 1778])
    def test_unrealizable_preset_cell_runs_no_qr(self, linalg_calls, gram_factors, s):
        # make_target's projection and ridge fit share one Gram H: its
        # factor and G's, both in place and both accepted, and no QR.  The
        # one np.linalg.cholesky is the design's own, of its smaller Gram
        # (estimator.svd_factors)
        calls = linalg_calls("qr", "cholesky")
        infos = gram_factors()
        cfg = unrealizable_preset(7)
        rec = compute_row(cfg, cfg.s_grid.index(s), 0)
        assert rec.error == "" and rec.M > 0
        assert calls == {"qr": 0, "cholesky": 1} and infos == [0, 0]

    def test_unrealizable_cells_repeat_across_blas_thread_counts(self):
        # lambda_gram's gemms sum H = W^T Lambda W in another order on 1
        # thread than on 2, which moves H, the tail and b* in their last
        # bits.  b* is within eps cond(G) <= 1.7e-11 of the exact fit on
        # these cells (cond(G) 2.4e3 and 7.8e4), so B moves by at most about
        # 2 ||A|| ||db*|| / sqrt(B) relative, under 1e-9 for B >= 0.01; M
        # moves by q times that, and the tail's energy is scaled to
        # tail_energy exactly
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        code = ("import json\n"
                "from noisyrf.config import PRESETS, preset_config\n"
                "from noisyrf.sweep import compute_row\n"
                "base = PRESETS['double-descent-default']\n"
                "grid = [s for s in base['s_grid'] if s < base['p']]\n"
                "rows = []\n"
                "for seed, s in [(7, 178), (13, 1778)]:\n"
                "    cfg = preset_config('double-descent-default', {\n"
                "        'master_seed': seed, 'target_mode': 'unrealizable', 's_grid': grid})\n"
                "    rec = compute_row(cfg, grid.index(s), 0)\n"
                "    rows.append([rec.B, rec.V, rec.M, rec.R])\n"
                "print(json.dumps(rows))\n")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, check=True, timeout=300)
            runs.append(json.loads(out.stdout))
        assert min(row[0] for row in runs[0]) >= 0.01
        np.testing.assert_allclose(runs[0], runs[1], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("seed", [7, 13])
    def test_preset_never_states_the_bias_bound(self, seed):
        # k* needs only the replicate's covariates (replicate 0), not W: it
        # exists on a prefix of the grid, s <= 42 at seed 7 and s <= 56 at
        # seed 13, all below n, where the fit has no null space, so no row of
        # the preset's sweep.csv states the bias bound
        cfg = preset_config("double-descent-default", {"master_seed": seed})
        spectrum = sweep_mod._make_spectrum(cfg)
        X = spectral_mod.sample_covariates(
            cfg.mode, cfg.n, seed_stream(seed, 0, "covariates"), p=cfg.p)
        lam_hat = spectral_mod.empirical_covariance(
            spectral_mod.eigenfeature_matrix(spectrum, cfg.mode, X))
        with_index = []
        for s in cfg.s_grid:
            sigma0_sq = make_noise_spec(cfg.noise_family, cfg.alpha, s).sigma0_sq
            if bounds_mod.k_star(lam_hat, sigma0_sq, cfg.n, cfg.a) is not None:
                with_index.append(s)
        assert with_index == [s for s in cfg.s_grid if s <= {7: 42, 13: 56}[seed]]
        assert max(with_index) < cfg.n


class TestReplicateRows:
    """A replicate is one training set: its covariates, phi, the Gram's
    eigenpairs, the row-space factor and W's complement frame are drawn once
    and shared, read-only, by every cell of it."""

    def test_cells_of_a_replicate_share_phi(self, monkeypatch):
        phis = []
        inner = sweep_mod.build_ensemble

        def recording(*args, **kwargs):
            ens = inner(*args, **kwargs)
            phis.append(ens.phi)
            return ens

        monkeypatch.setattr(sweep_mod, "build_ensemble", recording)
        # replicate-major: replicate 0's three cells run first, then replicate 1's
        cfg = small_cfg(s_grid=[6, 20, 600], ensemble_replicates=2)
        assert all(r.error == "" for r in run_sweep(cfg).records)
        first, second = phis[:3], phis[3:]
        assert len(second) == 3
        assert all(phi is first[0] for phi in first)
        assert all(phi is second[0] for phi in second)
        assert not np.array_equal(first[0], second[0])

    def test_cells_of_a_replicate_share_one_complement(self, monkeypatch):
        frames = []
        inner = sweep_mod.build_ensemble

        def recording(*args, **kwargs):
            ens = inner(*args, **kwargs)
            if kwargs["complement"] is not None:
                frames.append(kwargs["complement"])
            return ens

        monkeypatch.setattr(sweep_mod, "build_ensemble", recording)
        # s = 20 holds the 12 x 20 G and s = 600 is reduced: both row-space
        cfg = small_cfg(s_grid=[20, 600], ensemble_replicates=2)
        assert all(r.error == "" and r.k_star is None for r in run_sweep(cfg).records)
        assert len(frames) == 4
        assert frames[0] is frames[1] and frames[2] is frames[3]
        assert not np.array_equal(frames[0].RtF, frames[2].RtF)

    def test_complement_frame_repeats_on_a_second_attempt(self):
        # the frame draws from a generator made afresh from the replicate's
        # seed, so a cell that retries it after a failed first attempt draws
        # the same F as the others
        cfg = small_cfg(p=60)
        rows = sweep_mod._training_rows(cfg.master_seed, 0, cfg.mode, cfg.n, cfg.p,
                                        cfg.spectrum_kind, cfg.gamma, cfg.d, cfg.omega1)
        first = rows.complement
        del rows.complement
        second = rows.complement
        assert second is not first
        np.testing.assert_array_equal(second.RtF, first.RtF)
        np.testing.assert_array_equal(second.left, first.left)

    def test_shared_rows_are_read_only(self):
        # p = 60 > k + n + 1 = 25, so the frame holds the triangle T
        cfg = small_cfg(p=60)
        rows = sweep_mod._training_rows(cfg.master_seed, 0, cfg.mode, cfg.n, cfg.p,
                                        cfg.spectrum_kind, cfg.gamma, cfg.d, cfg.omega1)
        frame = rows.complement
        assert frame.left.shape == (25, 25)
        pool, pool_gram = rows.weight_pool(20), rows.weight_gram(20)
        for array in (rows.phi, rows.gram.values, rows.gram.vectors, *rows.factor, frame.RtF,
                      frame.left, pool, pool[:, :6], pool_gram.buffer, pool_gram.buffer[:6, :6],
                      pool_gram.diagonal):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0

    def test_unrealizable_replicate_forms_no_basis(self, monkeypatch):
        # its cells all hold the dense W, so neither R (p x min(n, p)) nor
        # W's complement frame is ever formed
        def refused(*args):
            raise AssertionError("an unrealizable cell formed the row-space factor or the "
                                 "complement frame")

        monkeypatch.setattr(sweep_mod, "row_space_factor", refused)
        monkeypatch.setattr(sweep_mod, "complement_frame", refused)
        records = run_sweep(small_cfg(target_mode="unrealizable", ensemble_replicates=2)).records
        assert all(r.error == "" and r.M > 0 for r in records)

    def test_realizable_replicate_forms_no_pool(self, monkeypatch):
        # dense k* rows (replicate 2 at s = 6), row-space and reduced rows all
        # take their weights from their own cell's stream, and form no Gram
        def refused(*args):
            raise AssertionError("a realizable cell formed the weight pool or a Gram")

        monkeypatch.setattr(sweep_mod._TrainingRows, "weight_pool", refused)
        monkeypatch.setattr(sweep_mod._TrainingRows, "weight_gram", refused)
        monkeypatch.setattr(sweep_mod, "lambda_gram", refused)
        monkeypatch.setattr(risk_mod, "lambda_gram", refused)
        records = run_sweep(small_cfg(ensemble_replicates=3, s_grid=[6, 20, 600])).records
        assert all(r.error == "" for r in records)
        assert [r.s for r in records if r.k_star is not None] == [6]

    def test_unrealizable_replicate_draws_its_pool_once(self, weight_shapes):
        # max(s_grid) = 23, rounded up to one WEIGHT_BLOCK
        cfg = small_cfg(target_mode="unrealizable", s_grid=[6, 20, 23], ensemble_replicates=3)
        assert all(r.error == "" for r in run_sweep(cfg).records)
        assert weight_shapes == [(cfg.p, WEIGHT_BLOCK)] * 3

    def test_unrealizable_replicate_forms_its_gram_once(self, monkeypatch):
        # one lambda_gram per replicate, of its whole pool, and none in a
        # cell: make_target reads each cell's H off it
        grams, standalone = [], []
        inner = sweep_mod.lambda_gram

        def recording(W, lam):
            grams.append(W.shape)
            return inner(W, lam)

        def refused(W, lam):
            standalone.append(W.shape)
            return inner(W, lam)

        monkeypatch.setattr(sweep_mod, "lambda_gram", recording)
        monkeypatch.setattr(risk_mod, "lambda_gram", refused)
        cfg = small_cfg(target_mode="unrealizable", s_grid=[6, 20, 23], ensemble_replicates=3)
        assert all(r.error == "" and r.M > 0 for r in run_sweep(cfg).records)
        assert grams == [(cfg.p, WEIGHT_BLOCK)] * 3 and standalone == []

    def test_unrealizable_sweep_counts_its_factors(self, monkeypatch, linalg_calls):
        # one blocked factor per replicate, of its pool's whole Gram; one
        # packed ridge factor per cell, of order s; and no per-cell factor
        # or copy of H: each cell's two projection passes and the packing
        # of its G read the replicate's own factored buffer in place.  p =
        # 24 < 256, so each pool's factor stops past order 24, above every s
        blocked, packed, reads = [], [], []

        def watch(name, record):
            real = getattr(risk_mod, name)

            def call(*args):
                record(*args)
                return real(*args)
            monkeypatch.setattr(risk_mod, name, call)

        watch("blocked_cholesky_in_place", lambda a, block: blocked.append(a))
        watch("packed_cholesky_in_place", lambda arf, n: packed.append(n))
        watch("cholesky_solve_in_place", lambda a, n, x: reads.append(("solve", a, n)))
        watch("pack_upper", lambda a, n: reads.append(("pack", a, n)))
        calls = linalg_calls("qr")
        cfg = small_cfg(target_mode="unrealizable", s_grid=[6, 20, 23], ensemble_replicates=3)
        assert all(r.error == "" and r.M > 0 for r in run_sweep(cfg).records)
        assert [a.shape for a in blocked] == [(WEIGHT_BLOCK, WEIGHT_BLOCK)] * 3
        assert packed == cfg.s_grid * 3 and calls == {"qr": 0}
        want = [(kind, buffer, s) for buffer in blocked for s in cfg.s_grid
                for kind in ("solve", "solve", "pack")]
        assert [(kind, n) for kind, _, n in reads] == [(kind, n) for kind, _, n in want]
        assert all(a is buffer for (_, a, _), (_, buffer, _) in zip(reads, want))

    def test_a_wider_cell_redraws_the_pool(self):
        # compute_row on two grids of the same rows in one process: a pool
        # is whole blocks wide, so a width in the block it holds reads it; a
        # cell wider than the pool held gets a wider pool, whose prefix is
        # the narrower one's, and a new factored Gram, whose leading block,
        # H above the diagonal and its factor on and below, is the narrower
        # one's to the bit; a narrower cell reads the pool it finds
        cfg = small_cfg(target_mode="unrealizable", p=600)
        rows = sweep_mod._training_rows(cfg.master_seed, 0, cfg.mode, cfg.n, cfg.p,
                                        cfg.spectrum_kind, cfg.gamma, cfg.d, cfg.omega1)
        narrow, narrow_gram = rows.weight_pool(6), rows.weight_gram(6)
        assert rows.weight_pool(WEIGHT_BLOCK) is narrow
        assert rows.weight_gram(20) is narrow_gram
        wide, wide_gram = rows.weight_pool(300), rows.weight_gram(300)
        assert narrow.shape == (cfg.p, WEIGHT_BLOCK) and wide.shape == (cfg.p, 2 * WEIGHT_BLOCK)
        assert wide_gram.buffer.shape == (2 * WEIGHT_BLOCK,) * 2
        assert (narrow_gram.order, wide_gram.order) == (WEIGHT_BLOCK, 2 * WEIGHT_BLOCK)
        np.testing.assert_array_equal(wide[:, :WEIGHT_BLOCK], narrow)
        np.testing.assert_array_equal(wide_gram.buffer[:WEIGHT_BLOCK, :WEIGHT_BLOCK],
                                      narrow_gram.buffer)
        np.testing.assert_array_equal(wide_gram.diagonal[:WEIGHT_BLOCK], narrow_gram.diagonal)
        assert rows.weight_pool(6) is wide and rows.weight_gram(6) is wide_gram

    def test_pool_workers_draw_each_replicates_pool_once(self, monkeypatch, tmp_path):
        # forked workers inherit the recording stubs, which log each draw's
        # process and stream to a file.  A worker runs whole replicates, so
        # each replicate's covariates, W's complement (realizable row-space
        # cells) and weight pool (unrealizable cells) are drawn once per
        # sweep, by a worker, never by this process.  Three replicates on
        # two workers, so one worker runs two of them in turn
        log = tmp_path / "draws.txt"

        def recording(inner, rng_at):
            def draw(*args, **kwargs):
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()} {args[rng_at].bit_generator.seed_seq.entropy}\n")
                return inner(*args, **kwargs)
            return draw

        for name, rng_at in (("sample_covariates", 2), ("complement_frame", 3),
                             ("sample_weights", 2)):
            monkeypatch.setattr(sweep_mod, name, recording(getattr(sweep_mod, name), rng_at))
        for overrides, shared in (
                ({"s_grid": [6, 20, 600]}, ("covariates", "weights-complement")),
                ({"s_grid": [6, 20, 23], "target_mode": "unrealizable"},
                 ("covariates", "weights-dense"))):
            log.write_text("")
            cfg = small_cfg(ensemble_replicates=3, workers=2, **overrides)
            assert all(r.error == "" for r in run_sweep(cfg).records)
            draws = [line.split(" ", 1) for line in log.read_text().splitlines()]
            assert os.getpid() not in {int(pid) for pid, _ in draws}
            streams = sorted(str(seed_sequence(cfg.master_seed, r, purpose).entropy)
                             for r in range(3) for purpose in shared)
            # the realizable grid's dense k* cell (replicate 2, s = 6) draws
            # from its own cell's weights stream, which no other cell reads
            assert sorted(e for _, e in draws if e in streams) == streams

    def test_one_replicate_splits_into_interleaved_parts(self, monkeypatch, tmp_path):
        # one replicate on two workers: its cells run as two tasks, s-indices
        # (0, 2) and (1, 3), each in one worker, and the rows are the serial
        # rows.  s = 600 is a reduced cell, s = 6 and 20 row-space ones
        log = tmp_path / "cells.txt"
        inner = sweep_mod.compute_row

        def recording(cfg, s_index, replicate):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{s_index} {os.getpid()}\n")
            return inner(cfg, s_index, replicate)

        monkeypatch.setattr(sweep_mod, "compute_row", recording)
        cfg = small_cfg(s_grid=[6, 20, 23, 600], workers=2)
        parallel = records_csv(run_sweep(cfg).records)
        pids = dict(line.split() for line in log.read_text().splitlines())
        assert pids["0"] == pids["2"] and pids["1"] == pids["3"]
        assert str(os.getpid()) not in pids.values()
        assert parallel == records_csv(run_sweep(dataclasses.replace(cfg, workers=1)).records)

    def test_memo_is_empty_after_a_sweep(self):
        cfg = small_cfg(ensemble_replicates=3)
        sweep_mod._training_rows(cfg.master_seed, 7, cfg.mode, cfg.n, cfg.p, cfg.spectrum_kind,
                                 cfg.gamma, cfg.d, cfg.omega1)
        run_sweep(cfg)
        assert sweep_mod._training_rows.cache_info().currsize == 0

    def test_warm_memo_cell_equals_a_fresh_interpreter(self):
        # a row-space (s = 20) and a reduced (s = 600) cell, and an
        # unrealizable one (s = 20) that reads the pool its replicate's
        # s = 6 cell drew, each computed after the other cells of its
        # replicate in this process and alone in a fresh one; perfbench's
        # replay check compares rows the same way
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        for overrides, cold in (({"s_grid": [6, 20, 600]}, (1, 2)),
                                ({"s_grid": [6, 20, 23], "target_mode": "unrealizable"}, (1,))):
            overrides = dict(overrides, ensemble_replicates=2)
            cfg = small_cfg(**overrides)
            sweep_mod._training_rows.cache_clear()
            warm = {}
            for s_index in range(len(cfg.s_grid)):
                warm[s_index] = records_csv([compute_row(cfg, s_index, 1)])
            assert sweep_mod._training_rows.cache_info().hits == len(cfg.s_grid) - 1
            for s_index in cold:
                code = ("import sys\n"
                        "from noisyrf.config import parse_config\n"
                        "from noisyrf.sweep import compute_row, records_csv\n"
                        f"cfg = parse_config({dict(cfg.to_dict(), **overrides)!r})\n"
                        f"sys.stdout.write(records_csv([compute_row(cfg, {s_index}, 1)]))\n")
                out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                     text=True, env=dict(os.environ, PYTHONPATH=src),
                                     check=True, timeout=300)
                assert out.stdout == warm[s_index]


RISK_FLAGS = ["--n", "12", "--p", "24", "--s-grid", "8",
              "--replicates", "1", "--seed", "3"]


class TestCli:
    def test_cold_start_leaves_scipy_special_unloaded(self):
        # scipy.special serves only `noisyrf spectrum`'s truncation hint
        src = os.path.dirname(os.path.dirname(os.path.abspath(config_mod.__file__)))
        code = "import sys, noisyrf.cli; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_spectrum_summary(self, capsys):
        assert main(["spectrum", "--p", "16"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "polynomial" and out["p"] == 16
        assert out["suggested_truncation"] == 6079
        assert len(out["head_eigenvalues"]) == 10
        assert out["head_eigenvalues"][0] == 1.0

    def test_spectrum_custom_has_no_suggestion(self, capsys):
        argv = ["spectrum", "--kind", "custom", "--p", "4",
                "--eigenvalues", "1.0,0.5,0.25,0.125"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["suggested_truncation"] is None
        assert out["head_eigenvalues"] == [1.0, 0.5, 0.25, 0.125]

    def test_spectrum_bad_eigenvalue_list(self, capsys):
        argv = ["spectrum", "--kind", "custom", "--p", "2", "--eigenvalues", "1,x"]
        assert main(argv) == 1
        assert "eigenvalues" in capsys.readouterr().err

    def test_config_kind_flag_refuses_custom(self, capsys):
        # only the spectrum command can take eigenvalues
        assert main(["risk", *RISK_FLAGS, "--kind", "custom"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_risk_cell(self, tmp_path, capsys):
        # s = 8 is the second grid entry: its streams are seeded by that index,
        # so risk reproduces the sweep's cell
        flags = [*RISK_FLAGS, "--s-grid", "6,8,20"]
        assert main(["risk", *flags, "--s", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["s"] == 8
        assert out["regime"] == "classical" and "regime_detail" not in out
        assert out["R"] >= 0
        assert main(["sweep", *flags, "--out-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
        row = dict(zip(header.split(","), next(r for r in rows if r.startswith("8,")).split(",")))
        for column in ("B", "V", "M", "R"):
            assert out[column] == float(row[column])

    def test_risk_cell_off_the_grid(self, capsys):
        # an s off the grid runs as the one cell of a one-cell grid
        assert main(["risk", *RISK_FLAGS, "--s", "9"]) == 0
        out = json.loads(capsys.readouterr().out)
        cfg = small_cfg(s_grid=[9], master_seed=3)
        assert out["R"] == compute_row(cfg, 0, 0).R

    @pytest.mark.parametrize("s,problem", [
        ("30", "unrealizable targets need every s below"),
        ("0", "s_grid must be a nonempty list of integers >= 1")])
    def test_risk_cell_off_the_grid_is_validated(self, capsys, s, problem):
        # the one-cell grid an off-grid s makes is checked like any config:
        # neither case reaches compute_row's own errors
        argv = ["risk", "--n", "12", "--p", "24", "--s-grid", "6",
                "--target-mode", "unrealizable", "--s", s]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"--s {s} (run as the grid [{s}]): {problem}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--m0", "1"], ["--method", "closed-form"],
                                       ["--label-redraws", "20"]],
                             ids=["m0", "method", "label-redraws"])
    def test_retired_flags_are_refused(self, flags, capsys):
        assert main(["risk", *RISK_FLAGS, *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bounds_stdout(self, capsys):
        assert main(["bounds", *RISK_FLAGS, "--stdout"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s,sigma0_sq,k_star,bias_bound,variance_bound,total,regime"
        assert len(lines) == 2

    def test_bounds_writes_file(self, tmp_path, capsys):
        assert main(["bounds", *RISK_FLAGS, "--out-dir", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("bounds_curve.csv") and os.path.exists(path)

    def test_bounds_file_survives_a_failed_replace(self, tmp_path, capsys, monkeypatch):
        # the curve is written to a temporary file and renamed into place, so
        # an interrupted write leaves the previous bounds_curve.csv whole
        path = tmp_path / "bounds_curve.csv"
        path.write_text("previous curve\n")

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        assert main(["bounds", *RISK_FLAGS, "--out-dir", str(tmp_path)]) == 1
        assert path.read_text() == "previous curve\n"
        assert not (tmp_path / "bounds_curve.csv.tmp").exists()

    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,20",
                "--replicates", "1", "--seed", "3", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        paths = capsys.readouterr().out.splitlines()
        assert len(paths) == 4 and all(os.path.exists(p) for p in paths)

    def test_replay_refuses_to_overwrite_its_manifest(self, tmp_path, capsys):
        run, replay = tmp_path / "run", tmp_path / "replay"
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,20",
                "--replicates", "1", "--seed", "3",
                "--out-dir", str(run)]
        assert main(argv) == 0
        manifest = run / "manifest.json"
        source = manifest.read_bytes()
        capsys.readouterr()
        # the manifest names run/ as its out_dir
        for extra in ([], ["--out-dir", str(run)]):
            assert main(["sweep", "--config", str(manifest), *extra]) == 1
            assert "--out-dir" in capsys.readouterr().err
            assert manifest.read_bytes() == source
        assert main(["sweep", "--config", str(manifest), "--out-dir", str(replay)]) == 0
        assert manifest.read_bytes() == source
        assert (replay / "sweep.csv").read_bytes() == (run / "sweep.csv").read_bytes()

    def test_version_5_manifest_is_refused_on_replay(self, tmp_path, capsys):
        # version "5" rows drew every cell's dense W; this code draws only the
        # eigenfeature rows' span where no tail index exists
        run = tmp_path / "run"
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,20",
                "--replicates", "1", "--seed", "3",
                "--out-dir", str(run)]
        assert main(argv) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["artifact_version"] = "5"
        old = tmp_path / "v5.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        replay = tmp_path / "replay"
        assert main(["sweep", "--config", str(old), "--out-dir", str(replay)]) == 1
        assert f"'5' does not match this code's '{config_mod.ARTIFACT_VERSION}'" \
            in capsys.readouterr().err
        assert not replay.exists()

    def test_sweep_requires_seed(self, tmp_path, capsys):
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "seed" in capsys.readouterr().err

    def test_sweep_partial_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        fail_cells_of_width(monkeypatch, 24)
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,24",
                "--replicates", "1", "--seed", "3",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "failed" in captured.err
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["row_errors"]

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 12, "p": 24, "s_grid": [8]}))
        argv = ["risk", "--config", str(cfg_path), "--replicates", "2", "--seed", "1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 8

    def test_malformed_config_file_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 12, "p": 24, "s_grid": [8], "omega1": "x"}))
        assert main(["risk", "--config", str(cfg_path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "omega1 must be a real number" in err and "Traceback" not in err

    def test_usage_error_exits_one(self, capsys):
        assert main(["risk", "--n", "notanint"]) == 1
        assert "error" in capsys.readouterr().err

    def test_validation_error_exits_one(self, capsys):
        assert main(["risk", "--n", "1", "--p", "8", "--s-grid", "4"]) == 1
        assert "n must" in capsys.readouterr().err

    def test_conc_single_experiment(self, capsys):
        assert main(["conc", "--experiment", "mgf", "--t", "0.5", "--seed", "1"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1 and reports[0]["name"] == "mgf-product"

    def test_conc_full_suite(self, capsys):
        assert main(["conc", "--experiment", "all", "--seed", "1"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 6

    def test_conc_failure_exits_two(self, capsys):
        # t close to 1: the heavy-tailed integrand defeats 10^5 samples
        assert main(["conc", "--experiment", "mgf", "--t", "0.99", "--seed", "0"]) == 2
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["verdict"] == "assert-fail"

    @pytest.mark.parametrize("experiment", ["norm", "subexp", "gram", "cross",
                                            "noisy-spectrum"])
    def test_conc_refuses_too_few_trials_or_features(self, experiment, capsys, monkeypatch):
        # a spread, quantile or Gram of fewer than 2 trials, of features of
        # width 0 or of no samples has no verdict: refused as a usage error
        # before any draw
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} used before the arguments were checked")

        monkeypatch.setattr(cli_mod, "seed_stream", lambda *labels: NoDraws())
        bad = [(["--trials", "0"], "trials must be"), (["--trials", "1"], "trials must be")]
        if experiment in ("gram", "noisy-spectrum"):
            # a width is refused by the flag's own type, naming the flag
            bad += [([flag, "0"], f"argument {flag}: expected an integer >= 1")
                    for flag in ("--s", "--n")]
        for flags, message in bad:
            assert main(["conc", "--experiment", experiment, *flags]) == 1
            out, err = capsys.readouterr()
            assert out == "" and message in err

    @pytest.mark.parametrize("argv,least", [
        (["spectrum", "--p", "5", "--head", "-2"], 0),
        (["risk", *RISK_FLAGS, "--replicate", "-1"], 0),
        (["conc", "--experiment", "subexp", "--n", "0"], 1),
        (["conc", "--experiment", "cross", "--dim", "0"], 1),
        (["conc", "--experiment", "gram", "--s", "-3"], 1),
        (["conc", "--experiment", "mgf", "--seed", "-1"], 0)],
        ids=["spectrum-head", "risk-replicate", "conc-n", "conc-dim", "conc-s", "conc-seed"])
    def test_negative_count_flags_are_usage_errors(self, argv, least, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"argument {argv[-2]}: expected an integer >= {least}" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--p", "5", "--gamma", "inf"],
        ["spectrum", "--p", "5", "--gamma", "nan"],
        ["spectrum", "--p", "5", "--omega1", "inf"],
        ["spectrum", "--p", "5", "--omega1", "nan"],
        ["conc", "--experiment", "mgf", "--t", "nan"],
        ["conc", "--experiment", "noisy-spectrum", "--sigma0-sq", "nan"],
        ["conc", "--experiment", "noisy-spectrum", "--sigma0-sq", "inf"]],
        ids=["gamma-inf", "gamma-nan", "omega1-inf", "omega1-nan", "t-nan",
             "sigma0-sq-nan", "sigma0-sq-inf"])
    def test_non_finite_real_flags_are_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"argument {argv[-2]}: expected a finite number" in err

    def test_sweep_refuses_an_unrealizable_grid_it_cannot_run(self, tmp_path, capsys):
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,30",
                "--target-mode", "unrealizable", "--seed", "3",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "s_grid has [30]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_preset_listed(self, capsys):
        argv = ["risk", "--preset", "double-descent-default", "--s", "10",
                "--replicates", "1", "--seed", "1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 10
