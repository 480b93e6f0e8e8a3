import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisyrf.bounds import (BoundInputs, bound_report, clean_mnls_bounds,
                            cov_concentration_bound, double_descent_curve,
                            empirical_eigenvalues, k_star, regime_classify,
                            variance_bound)
from noisyrf.features import sample_weights
from noisyrf.seeding import seed_stream
from noisyrf.spectral import make_spectrum
from noisyrf.sweep import _lambda_w

DYADIC32 = 2.0 ** -np.arange(32)


def flat_inputs(**kw):
    base = dict(n=100, s=100, lambda_hat=np.ones(100), sigma0_sq=0.01,
                sigma_sq=1.0, trace_Sigma=4.0, op_norm_Sigma=1.0, lambda_W=100.0,
                pi_norm=1.0, beta_norm=1.0, delta=0.1, a=2.0)
    base.update(kw)
    return BoundInputs(**base)


class TestKStar:
    def test_flat_spectrum_starts_at_zero(self):
        # tail mass n always dominates (n/2) * 1
        assert k_star(np.ones(10), 0.0, 10) == 0

    def test_dyadic_has_no_index(self):
        # geometric tails stay within a factor 2 of the pivot
        assert k_star(DYADIC32, 0.0, 32, 2.0) is None

    def test_dyadic_large_a_recovers_zero(self):
        assert k_star(DYADIC32, 0.0, 32, 16.5) == 0

    def test_dyadic_boundary_in_a(self):
        # n=8: tail/pivot = 2 - 2^-7, so the cutoff sits just above a=4
        lam = DYADIC32[:8]
        assert k_star(lam, 0.0, 8, 4.0) is None
        assert k_star(lam, 0.0, 8, 4.1) == 0

    def test_zero_pivots_skipped(self):
        assert k_star([1.0], 0.0, 4, 2.0) is None
        assert k_star([1.0], 0.0, 4, 4.0) == 0

    def test_noise_shift_alone_creates_index(self):
        # zero eigenvalues everywhere: the shift makes the tail exactly
        # n * pivot, which passes for any a >= 1
        assert k_star(np.zeros(5), 0.5, 5, 2.0) == 0

    def test_monotone_in_a(self):
        found = [k_star(DYADIC32, 0.0, 32, a) for a in (2.0, 8.0, 16.0, 17.0, 64.0)]
        assert found == [None, None, None, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            k_star([1.0], 0.0, 0)
        with pytest.raises(ValueError, match="a must"):
            k_star([1.0], 0.0, 4, 0.0)
        with pytest.raises(ValueError, match="sigma0_sq"):
            k_star([1.0], -0.1, 4)
        with pytest.raises(ValueError, match="at most"):
            k_star(np.ones(5), 0.0, 4)
        with pytest.raises(ValueError, match="non-increasing"):
            k_star([1.0, 2.0], 0.0, 4)
        with pytest.raises(ValueError, match="non-increasing"):
            k_star([-1.0], 0.0, 4)

    @given(n=st.integers(1, 40), a=st.floats(0.5, 50), shift=st.floats(0, 2))
    def test_definition_bruteforce(self, n, a, shift):
        # direct transcription of the defining inequality
        rng = np.random.default_rng(n * 1000 + int(a * 7))
        lam = np.sort(rng.uniform(0, 1, size=rng.integers(0, n + 1)))[::-1]
        got = k_star(lam, shift * n, n, a)
        padded = np.zeros(n)
        padded[: lam.size] = lam
        sh = padded + shift
        want = None
        for k in range(n):
            if sh[k] == 0.0:
                continue
            if sh[k:].sum() >= (n / a) * sh[k]:
                want = k
                break
        assert got == want


def bias_bound(inputs):
    return bound_report(inputs).bias_bound


class TestBiasBound:
    def test_frozen_example(self):
        # flat empirical spectrum, sigma0 = 0.1, delta = 0.1, r = 4
        got = bias_bound(flat_inputs())
        want = math.sqrt(math.log(14.0 * 4.0 / 0.1) / 100.0) + 0.1 + 0.01
        assert abs(got - want) <= 1e-12
        assert abs(got - 0.36155390642423335) <= 1e-12

    def test_requires_tail_index(self):
        inp = flat_inputs(n=32, lambda_hat=DYADIC32, sigma0_sq=0.0)
        assert math.isnan(bias_bound(inp))

    def test_quadratic_in_projector_and_target(self):
        a = bias_bound(flat_inputs(pi_norm=1.0, beta_norm=1.0))
        b = bias_bound(flat_inputs(pi_norm=2.0, beta_norm=3.0))
        assert b == pytest.approx(36.0 * a, rel=1e-12)


class TestVarianceBound:
    def test_frozen_example(self):
        assert variance_bound(1.0, 2.0, 100, 10) == 2.0

    def test_exact_ratios(self):
        base = variance_bound(1.0, 3.0, 40, 20)
        assert variance_bound(1.0, 3.0, 80, 20) == pytest.approx(2 * base, rel=1e-14)
        assert variance_bound(1.0, 3.0, 40, 40) == pytest.approx(base / 4, rel=1e-14)
        assert variance_bound(3.0, 3.0, 40, 20) == pytest.approx(3 * base, rel=1e-14)
        assert variance_bound(1.0, 15.0, 40, 20) == pytest.approx(5 * base, rel=1e-14)


class TestCleanBounds:
    def test_flat_spectrum_values(self):
        inp = flat_inputs(n=20, s=50, lambda_hat=np.ones(20), sigma0_sq=0.0,
                          sigma_sq=2.0, trace_Sigma=20.0, lambda_W=80.0, delta=0.05)
        upper, lower, k = clean_mnls_bounds(inp)
        assert k == 0
        conc = (80 / 50) * math.sqrt(math.log(14.0 * 20.0 / 0.05) / 20.0)
        vshape = 2.0 * (50 / 20) * 20.0 / 20.0
        assert upper == pytest.approx(conc + vshape, rel=1e-12)
        assert lower == pytest.approx(vshape, rel=1e-12)
        assert lower <= upper

    def test_requires_tail_index(self):
        inp = flat_inputs(n=32, lambda_hat=DYADIC32, sigma0_sq=0.0)
        with pytest.raises(ValueError, match="tail index"):
            clean_mnls_bounds(inp)


class TestCovBound:
    def test_unit_value_at_nice_delta(self):
        # log(14 r / delta) = 4 for r = 1, delta = 14 e^-4, so sqrt(4/4) = 1
        delta = 14.0 / math.exp(4.0)
        assert cov_concentration_bound(1.0, 1.0, 4, delta) == pytest.approx(1.0, rel=1e-14)

    def test_quadrupling_n_halves(self):
        a = cov_concentration_bound(2.0, 7.0, 25, 0.05)
        b = cov_concentration_bound(2.0, 7.0, 100, 0.05)
        assert a == pytest.approx(2.0 * b, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            cov_concentration_bound(1.0, 1.0, 4, 1.5)
        with pytest.raises(ValueError, match="effective rank"):
            cov_concentration_bound(1.0, 0.5, 4, 0.05)


class TestRegimes:
    def test_threshold(self):
        r = regime_classify(100, 100)
        assert r.regime == "threshold" and r.gamma == 1.0

    def test_benign(self):
        r = regime_classify(100, 1000)
        assert r.regime == "benign"
        assert r.gamma == pytest.approx(1.5, rel=1e-14)
        assert r.variance_exponent == pytest.approx(-0.5, rel=1e-12)
        assert "-0.50" in r.rate

    def test_explosive(self):
        r = regime_classify(10, 10_000)
        assert r.regime == "explosive"
        assert r.gamma == pytest.approx(4.0, rel=1e-14)
        assert "+2.00" in r.rate

    def test_classical(self):
        assert regime_classify(100, 50).regime == "classical"

    def test_validation(self):
        with pytest.raises(ValueError):
            regime_classify(1, 10)
        with pytest.raises(ValueError):
            regime_classify(10, 0)

    @given(n=st.integers(2, 10_000), s=st.integers(1, 100_000))
    def test_partition(self, n, s):
        r = regime_classify(n, s)
        gamma = math.log(s) / math.log(n)
        if s < n:
            assert r.regime == "classical"
        elif s == n:
            assert r.regime == "threshold"
        elif gamma < 2.0:
            assert r.regime == "benign"
        else:
            assert r.regime == "explosive"
        assert r.variance_exponent == pytest.approx(gamma - 2.0, abs=1e-12)


class TestBoundReport:
    def test_complete_report(self):
        rep = bound_report(flat_inputs())
        assert rep.k_star == 0
        assert rep.bias_bound == pytest.approx(0.36155390642423335, rel=1e-12)
        assert rep.variance_bound == variance_bound(1.0, 4.0, 100, 100)
        assert rep.regime == "threshold"

    def test_missing_index_reports_nan(self):
        rep = bound_report(flat_inputs(n=32, lambda_hat=DYADIC32, sigma0_sq=0.0))
        assert rep.k_star is None
        assert math.isnan(rep.bias_bound)
        assert math.isfinite(rep.variance_bound)

    def test_no_null_space_reports_nan(self):
        # the index exists, but a fit without a null space has no out-of-span
        # projector for the bound to speak about
        rep = bound_report(flat_inputs(pi_norm=0.0))
        assert rep.k_star == 0
        assert math.isnan(rep.bias_bound)
        assert rep.variance_bound == variance_bound(1.0, 4.0, 100, 100)

    def test_unmeasured_weight_norm_reports_nan(self):
        rep = bound_report(flat_inputs(lambda_W=float("nan")))
        assert rep.k_star == 0
        assert math.isnan(rep.bias_bound)
        assert rep.variance_bound == variance_bound(1.0, 4.0, 100, 100)


class TestEmpiricalEigenvalues:
    def test_concentrates_on_population(self):
        sp = make_spectrum("polynomial", 10, gamma=2.0)
        lh = empirical_eigenvalues(sp, "eigencoordinate", 4000, seed_stream(0, "emp"))
        assert lh.shape == (10,)
        rel = np.abs(lh - sp.eigenvalues) / sp.eigenvalues
        assert rel.max() <= 0.15

    def test_truncates_at_n(self):
        sp = make_spectrum("polynomial", 50, gamma=2.0)
        lh = empirical_eigenvalues(sp, "eigencoordinate", 12, seed_stream(1, "emp"))
        assert lh.shape == (12,)
        assert np.all(np.diff(lh) <= 1e-12)


GRID = [10, 13, 18, 24, 32, 42, 56, 75, 100, 133, 178, 237, 316, 422, 562, 750,
        1000, 1334, 1778, 2371, 3162, 4217, 5623, 7499, 10_000]


class TestDoubleDescentCurve:
    def curve(self, alpha=0.5, **kw):
        sp = make_spectrum("polynomial", 2000, gamma=2.0)
        return double_descent_curve(sp, 100, alpha, 0.5, GRID, sp.eigenvalues[:100], **kw)

    def test_peak_at_interpolation_threshold(self):
        pts = self.curve()
        totals = [p.total for p in pts]
        assert pts[int(np.argmax(totals))].s == 100

    def test_descent_minimum_strictly_inside(self):
        # restricted to s >= n the curve dips and comes back up before n^2
        pts = [p for p in self.curve() if p.s >= 100]
        totals = [p.total for p in pts]
        s_min = pts[int(np.argmin(totals))].s
        assert 100 < s_min < 100 ** 2

    def test_total_is_sum(self):
        for p in self.curve():
            assert p.total == p.bias_bound + p.variance_bound

    def test_classical_proxy_and_regimes(self):
        for p in self.curve():
            if p.s < 100:
                assert p.regime == "classical"
                assert p.bias_bound == pytest.approx(0.05 * 100 / p.s, rel=1e-14)
            else:
                assert p.regime in ("threshold", "benign", "explosive")

    def test_noise_level_tracks_alpha(self):
        for p4, p05 in zip(self.curve(alpha=4.0), self.curve(alpha=0.5)):
            assert p4.sigma0_sq == pytest.approx(float(p4.s) ** -4.0, rel=1e-14)
            if p4.s >= 100:
                assert p4.bias_bound <= p05.bias_bound

    def test_above_threshold_matches_formula_oracle(self):
        sp = make_spectrum("polynomial", 2000, gamma=2.0)
        pts = self.curve()
        p = next(q for q in pts if q.s == 1000)
        trace = float(np.sum(sp.eigenvalues))
        s0 = 1000.0 ** -0.5
        lambda_w = (math.sqrt(2000) + math.sqrt(1000)) ** 2
        conc = (lambda_w / 1000) * 1.0 * math.sqrt(math.log(14.0 * trace / 0.05) / 100.0)
        assert p.bias_bound == pytest.approx(conc + math.sqrt(s0) + s0, rel=1e-12)
        assert p.variance_bound == pytest.approx(0.5 * trace * 1000 / 100 ** 2, rel=1e-12)

    def test_lambda_w_is_the_mean_measured_weight_norm(self):
        # without feature noise the bias column is the concentration term
        # alone, (lambda_W / s) ||Sigma|| sqrt(log(14 r / delta) / n), so the
        # curve's lambda_W reads back from it; the edge overshoots the mean
        # measured ||W||^2 by 1-3% on this grid (Tracy-Widom shift)
        n, p = 20, 500
        sp = make_spectrum("polynomial", p, gamma=2.0)
        op = float(sp.eigenvalues[0])
        rate = op * math.sqrt(math.log(14.0 * float(np.sum(sp.eigenvalues)) / op / 0.05) / n)
        for point in double_descent_curve(sp, n, math.inf, 0.5, [30, 100, 300, 1000],
                                          sp.eigenvalues[:n]):
            measured = np.mean([_lambda_w(sample_weights(p, point.s, seed_stream(9, point.s, r)))
                                for r in range(10)])
            assert point.bias_bound * point.s / rate == pytest.approx(measured, rel=0.04)

    def test_empirical_route_is_deterministic(self):
        sp = make_spectrum("polynomial", 200, gamma=2.0)
        a = double_descent_curve(sp, 50, 0.5, 0.5, [25, 50, 200], empirical_eigenvalues(
            sp, "eigencoordinate", 50, seed_stream(5, "curve")))
        b = double_descent_curve(sp, 50, 0.5, 0.5, [25, 50, 200], empirical_eigenvalues(
            sp, "eigencoordinate", 50, seed_stream(5, "curve")))
        assert [p.total for p in a] == [p.total for p in b]

    def test_explicit_lambda_hat_honored(self):
        sp = make_spectrum("polynomial", 200, gamma=2.0)
        pts = double_descent_curve(sp, 50, 0.0, 0.5, [200], lambda_hat=np.ones(50))
        # flat spectrum with sigma0_sq = 1 shifted by 1/n: index exists at 0
        assert pts[0].k_star == 0
