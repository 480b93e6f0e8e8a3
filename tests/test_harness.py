import dataclasses
import json
import math
import os

import numpy as np
import pytest
import scipy.linalg as sla

from noisyrf import config as config_mod
from noisyrf import estimator as estimator_mod
from noisyrf import risk as risk_mod
from noisyrf import sweep as sweep_mod
from noisyrf.cli import main
from noisyrf.config import (PRESETS, ExperimentConfig, ValidationError,
                            parse_config, preset_config)
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
        assert cfg.method == "monte-carlo"
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
        manifest = {"artifact_version": "4",
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
        assert "'1'" in str(exc.value) and "'4'" in str(exc.value)

    def test_version_3_manifest_gets_the_version_error(self):
        # a version "3" config block still holds the retired lower_multiplier;
        # the version check speaks before the unknown key can
        manifest = {"artifact_version": "3",
                    "config": {"n": 4, "p": 8, "s_grid": [2], "master_seed": 9,
                               "lower_multiplier": 0.1}}
        with pytest.raises(ValidationError) as exc:
            parse_config(manifest)
        assert exc.value.errors == [
            "manifest artifact_version '3' does not match this code's '4'; "
            "its draws would differ"]

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
        ("a", None), ("delta", "0.05"), ("bias_multiplier", True),
        ("variance_multiplier", {}), ("m0", "0"),
        ("clean_test", "yes"), ("clean_test", 1),
    ])
    def test_malformed_value_is_reported(self, field, value):
        raw = {"n": 20, "p": 40, "s_grid": [5, 10], field: value}
        with pytest.raises(ValidationError) as exc:
            parse_config(raw)
        assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith(field)

    def test_retired_test_points_key_is_checked_and_dropped(self):
        # older configs, and the benchmark's shrunken preset, still set it;
        # the risk is exact over the test population, so it sizes nothing
        cfg = preset_config("double-descent-default",
                            {"n": 20, "p": 200, "s_grid": [5, 8], "test_points": 512,
                             "label_redraws": 50, "master_seed": 1})
        assert cfg.label_redraws == 50 and not hasattr(cfg, "test_points")
        with pytest.raises(ValidationError, match="test_points"):
            parse_config({"n": 20, "p": 40, "s_grid": [5], "test_points": 0})

    def test_nullable_float_fields_accept_null(self):
        cfg = parse_config({"n": 20, "p": 40, "s_grid": [5], "m0": None,
                            "spectrum": {"kind": "exponential", "gamma": None}})
        assert cfg.m0 is None and cfg.gamma is None


def small_cfg(**kw):
    base = {"n": 12, "p": 24, "s_grid": [6, 20],
            "label_redraws": 40, "ensemble_replicates": 1, "master_seed": 5}
    base.update(kw)
    return parse_config(base)


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

    def test_worker_count_does_not_change_results(self):
        cfg = small_cfg(ensemble_replicates=2, label_redraws=20)
        serial = records_csv(run_sweep(cfg).records)
        parallel = records_csv(run_sweep(dataclasses.replace(cfg, workers=2)).records)
        assert serial == parallel

    def test_row_failure_captured_not_raised(self):
        # unrealizable targets need p > s; the second grid entry violates
        # that at runtime while the config itself is legal
        cfg = small_cfg(target_mode="unrealizable", s_grid=[6, 24])
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

    def test_emit_outputs_artifacts(self, tmp_path):
        cfg = small_cfg()
        result = run_sweep(cfg)
        paths = emit_outputs(result, cfg, str(tmp_path))
        for key in ("sweep", "aggregate", "curve", "manifest"):
            assert os.path.exists(paths[key])
        sweep_text = open(paths["sweep"]).read()
        assert sweep_text.splitlines()[0] == ",".join(CSV_COLUMNS)
        agg_text = open(paths["aggregate"]).read()
        assert agg_text.splitlines()[0] == ",".join(AGGREGATE_COLUMNS)
        curve_first = open(paths["curve"]).read().splitlines()[0]
        assert curve_first == "s,sigma0_sq,k_star,bias_bound,variance_bound,total,regime"
        manifest = json.load(open(paths["manifest"]))
        assert manifest["artifact_version"] == "4"
        assert sweep_mod.ARTIFACT_VERSION == config_mod.ARTIFACT_VERSION == "4"
        assert manifest["grid"] == [6, 20]
        assert set(manifest["timings_ms"]) == {"0:0", "1:0"}
        # a manifest replays: its config block parses to the original config
        assert parse_config(manifest) == cfg

    def test_lambda_w_matches_lapack(self):
        W = seed_stream(2, "lw").standard_normal((30, 20))
        want = float(sla.svdvals(W)[0] ** 2)
        np.testing.assert_allclose(_lambda_w(W), want, rtol=1e-12)

    def test_lambda_w_iterative_branch(self):
        W = seed_stream(3, "lw").standard_normal((610, 605))
        want = float(np.linalg.svd(W, compute_uv=False)[0] ** 2)
        np.testing.assert_allclose(_lambda_w(W), want, rtol=1e-8)

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

    def test_closed_form_unrealizable_row_is_exact(self):
        cfg = small_cfg(target_mode="unrealizable", method="closed-form")
        for s_index in range(len(cfg.s_grid)):
            rec = compute_row(cfg, s_index, 0)
            assert rec.error == "" and rec.M > 0
            np.testing.assert_allclose(rec.R, rec.B + rec.V + rec.M, rtol=1e-12)
            assert rec.B_se == rec.V_se == rec.M_se == rec.R_se == 0.0

    def test_bias_bound_nan_exactly_without_null_space(self):
        # unit feature-noise energy (alpha = 0) makes the tail index exist on
        # every cell, so a nan can only come from the missing null space
        cfg = small_cfg(s_grid=[4, 8, 12, 16, 24, 48], alpha=0.0)
        records = run_sweep(cfg).records
        assert all(r.k_star is not None for r in records)
        assert [math.isnan(r.bias_bound) for r in records] == \
            [r.s <= cfg.n for r in records]


RISK_FLAGS = ["--n", "12", "--p", "24", "--s-grid", "8",
              "--label-redraws", "30", "--replicates", "1", "--seed", "3"]


class TestCli:
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

    def test_risk_cell(self, capsys):
        assert main(["risk", *RISK_FLAGS, "--s", "8"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["s"] == 8
        assert out["regime_detail"]["regime"] == "classical"
        assert out["R"] >= 0

    def test_bounds_stdout(self, capsys):
        assert main(["bounds", *RISK_FLAGS, "--stdout"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s,sigma0_sq,k_star,bias_bound,variance_bound,total,regime"
        assert len(lines) == 2

    def test_bounds_writes_file(self, tmp_path, capsys):
        assert main(["bounds", *RISK_FLAGS, "--out-dir", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("bounds_curve.csv") and os.path.exists(path)

    def test_sweep_writes_artifacts(self, tmp_path, capsys):
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,20",
                "--label-redraws", "20",
                "--replicates", "1", "--seed", "3", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        paths = capsys.readouterr().out.splitlines()
        assert len(paths) == 4 and all(os.path.exists(p) for p in paths)

    def test_sweep_requires_seed(self, tmp_path, capsys):
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "seed" in capsys.readouterr().err

    def test_sweep_partial_failure_exit_code(self, tmp_path, capsys):
        argv = ["sweep", "--n", "12", "--p", "24", "--s-grid", "6,24",
                "--target-mode", "unrealizable",
                "--label-redraws", "20", "--replicates", "1", "--seed", "3",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "failed" in captured.err
        manifest = json.load(open(os.path.join(str(tmp_path), "manifest.json")))
        assert manifest["row_errors"]

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 12, "p": 24, "s_grid": [8]}))
        argv = ["risk", "--config", str(cfg_path),
                "--label-redraws", "20", "--seed", "1"]
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

    def test_preset_listed(self, capsys):
        argv = ["risk", "--preset", "double-descent-default", "--s", "10",
                "--label-redraws", "20",
                "--replicates", "1", "--seed", "1"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 10
