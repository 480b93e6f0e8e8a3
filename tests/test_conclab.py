import json
import math

import numpy as np
import pytest

from noisyrf.conclab import (DEFAULT_TRIALS, ExperimentReport,
                             cross_outer_norm_check, gram_eigen_experiment,
                             mgf_product_check,
                             noisy_spectrum_identity_check,
                             norm_concentration_check, run_default_suite,
                             weighted_subexp_sum_check)
from noisyrf.seeding import seed_stream

POLY20 = 1.0 / np.arange(1, 21, dtype=float) ** 2


def _no_constants(token):
    raise AssertionError(f"non-strict JSON token {token}")


def test_report_json_is_strict():
    # a degenerate spectrum leaves fitted_b undefined; it must print as null
    r = ExperimentReport(name="x", params={"n": np.int64(3)}, trials=2,
                         stats={"fitted_b": float("nan"), "edge": np.float64(np.inf),
                                "ratios": np.array([np.nan, 0.5])},
                         stated_bound=None, verdict="report-only")
    back = json.loads(r.to_json(), parse_constant=_no_constants)
    assert back["stats"] == {"fitted_b": None, "edge": None, "ratios": [None, 0.5]}
    assert back["params"] == {"n": 3}


class TestMgfProduct:
    def test_exact_target_values(self):
        r = mgf_product_check(0.5, rng=seed_stream(0, "mgf"))
        assert r.stats["target"] == 1.1547005383792517
        r = mgf_product_check(0.8, rng=seed_stream(1, "mgf"))
        assert r.stats["target"] == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_degenerate_t_is_exact(self):
        # exp(0) = 1 for every sample: zero spread, zero error
        r = mgf_product_check(0.0, rng=seed_stream(0, "mgf"))
        assert r.stats["mean"] == 1.0 and r.stats["stderr"] == 0.0
        assert r.verdict == "assert-pass"

    @pytest.mark.parametrize("t,seed", [(0.3, 0), (0.5, 0), (0.8, 1), (-0.5, 0)])
    def test_passes_at_moderate_t(self, t, seed):
        r = mgf_product_check(t, rng=seed_stream(seed, "mgf"))
        assert r.passed
        assert r.stats["abs_error"] <= 5 * r.stats["stderr"]

    def test_divergent_t_rejected(self):
        for t in (1.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="diverges"):
                mgf_product_check(t)

    def test_trial_floor(self):
        with pytest.raises(ValueError, match="10\\^4"):
            mgf_product_check(0.5, trials=100)

    def test_json_round_trip(self):
        r = mgf_product_check(0.5, rng=seed_stream(2, "mgf"))
        back = json.loads(r.to_json())
        assert back["name"] == "mgf-product"
        assert back["verdict"] == r.verdict
        assert back["stats"]["mean"] == r.stats["mean"]


class TestNormConcentration:
    def test_gaussian_passes(self):
        r = norm_concentration_check(256, "gaussian", rng=seed_stream(0, "norm"))
        assert r.passed
        assert abs(r.stats["mean"] - 1.0) <= 0.05

    def test_small_dimension_passes(self):
        # chi^2_4 / 4 has a fat right tail but stays under 1 + 8/sqrt(4)
        r = norm_concentration_check(4, "gaussian", rng=seed_stream(0, "norm"))
        assert r.passed
        assert r.stats["q999"] <= 5.0

    def test_rademacher_is_degenerate(self):
        r = norm_concentration_check(64, "rademacher", rng=seed_stream(0, "norm"))
        assert r.stats["q999"] == 1.0 and r.stats["std"] == 0.0
        assert r.passed

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            norm_concentration_check(0)


class TestWeightedSubexpSum:
    def test_poly_weights_pass(self):
        r = weighted_subexp_sum_check(POLY20, rng=seed_stream(0, "sub"))
        assert r.passed
        assert r.stats["exceed_at_4x"] == 0.0
        # nominal level 0.05: the unit-constant bound should be in the right
        # ballpark even though only the 4x version is asserted
        assert r.stats["exceed_at_bound"] <= 0.1

    def test_folded_std_below_signed_prediction(self):
        # emp_std folds the absolute value, so it must come out below the
        # signed-sum std sqrt(2 sum lambda^2) but not collapse
        r = weighted_subexp_sum_check(POLY20, rng=seed_stream(0, "sub"))
        ratio = r.stats["emp_std"] / r.stats["pred_std"]
        assert 0.5 <= ratio <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            weighted_subexp_sum_check([])
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_subexp_sum_check([1.0, -0.5])


class TestGramEigenvalues:
    def test_report_only_verdict(self):
        r = gram_eigen_experiment(np.full(8, 0.1), n=8, s=64, trials=30,
                                  rng=seed_stream(0, "gram"))
        assert r.verdict == "report-only"
        assert r.passed

    def test_flat_spectrum_tracks_marchenko_pastur(self):
        # mu_top / (lam * s) should sit near the MP upper edge, and the
        # max/min eigenvalue ratio near the squared edge ratio
        flat = np.full(20, 0.05)
        r = gram_eigen_experiment(flat, n=20, s=400, rng=seed_stream(0, "gram"))
        edge = (1.0 + math.sqrt(20 / 400)) ** 2
        assert abs(r.stats["ratio_mu_over_lam_s"][0] - edge) <= 0.15 * edge
        assert abs(r.stats["edge_ratio_median"] - r.stats["mp_edge_ratio"]) \
            <= 0.15 * r.stats["mp_edge_ratio"]

    def test_head_truncation(self):
        lam = np.array([1.0, 0.5, 0.25, 0.125])
        r = gram_eigen_experiment(lam, n=4, s=50, trials=20,
                                  rng=seed_stream(1, "gram"), k=2)
        assert r.params["k"] == 2 and r.params["tail_len"] == 2
        assert r.stats["eigen_sum"] == 0.375

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must"):
            gram_eigen_experiment(np.ones(4), n=4, s=10, trials=5, k=4)

    def test_json_round_trip_with_arrays(self):
        r = gram_eigen_experiment(np.full(6, 0.2), n=6, s=30, trials=10,
                                  rng=seed_stream(2, "gram"))
        back = json.loads(r.to_json())
        assert isinstance(back["stats"]["ratio_mu_over_lam_s"], list)
        assert len(back["stats"]["ratio_mu_over_lam_s"]) == 5


class TestCrossOuterNorm:
    def test_matrix_case_passes(self):
        r = cross_outer_norm_check(POLY20, n=8, trials=300, rng=seed_stream(0, "cr"))
        assert r.passed
        assert r.stats["q99_over_n"] <= r.stated_bound["q99_bound"]

    def test_scalar_case_passes(self):
        r = cross_outer_norm_check(POLY20, n=1, trials=2000, rng=seed_stream(0, "cr1"))
        assert r.params["n"] == 1
        assert r.stats["exceed_at_4x"] <= 0.25
        assert r.passed

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            cross_outer_norm_check([], n=4)
        with pytest.raises(ValueError, match="n must"):
            cross_outer_norm_check([1.0], n=0)


class TestNoisySpectrumIdentity:
    @pytest.mark.parametrize("s", [40, 200])
    @pytest.mark.parametrize("sigma0_sq", [0.0, 0.5, 1.0])
    def test_pipeline_matches_direct_draw(self, s, sigma0_sq):
        r = noisy_spectrum_identity_check(POLY20, sigma0_sq, n=20, s=s,
                                          rng=seed_stream(3, "ns", s, str(sigma0_sq)))
        assert r.passed
        assert r.stats["max_z"] <= 3.0

    def test_determinism(self):
        a = noisy_spectrum_identity_check(POLY20, 0.5, n=20, s=40, trials=50,
                                          rng=seed_stream(7, "ns"))
        b = noisy_spectrum_identity_check(POLY20, 0.5, n=20, s=40, trials=50,
                                          rng=seed_stream(7, "ns"))
        assert a.stats["mean_pipeline"] == pytest.approx(b.stats["mean_pipeline"], rel=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="length n"):
            noisy_spectrum_identity_check(POLY20, 0.5, n=10, s=40)
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} used before the arguments were checked")

        # a non-finite noise energy once drew every trial before failing
        for sigma0_sq in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma0_sq must be finite and >= 0"):
                noisy_spectrum_identity_check(POLY20, sigma0_sq, n=20, s=40, rng=NoDraws())

    def test_top_clamped_to_n(self):
        r = noisy_spectrum_identity_check(np.ones(3), 0.0, n=3, s=12, trials=40,
                                          rng=seed_stream(8, "ns"), top=50)
        assert len(r.stats["mean_pipeline"]) == 3


class TestDefaultSuite:
    def test_all_experiments_pass(self):
        reports = run_default_suite(seed=1)
        names = [r.name for r in reports]
        assert names == ["mgf-product", "norm-concentration", "weighted-subexp-sum",
                         "gram-eigenvalues", "cross-outer-norm", "noisy-spectrum-identity"]
        assert all(r.passed for r in reports)
        assert reports[3].verdict == "report-only"

    def test_suite_deterministic(self):
        a = run_default_suite(seed=2)
        b = run_default_suite(seed=2)
        assert a[0].stats["mean"] == b[0].stats["mean"]
        assert a[5].stats["max_z"] == b[5].stats["max_z"]

    def test_default_trial_counts_wired(self):
        reports = run_default_suite(seed=1)
        for r in reports:
            assert r.trials == DEFAULT_TRIALS[r.name]
