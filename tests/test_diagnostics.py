import math

import numpy as np
import pytest
from scipy import integrate, stats

from lsslab.diagnostics import (QformProbeResult, RateFit, SteinContext,
                                fit_rate, ks_to_normal, norm_cdf, qform_moment,
                                qform_probe, sigma0_nested_mc, stein_Nh,
                                stein_bound_report, stein_h, stein_residual,
                                stein_solution)
from lsslab.errors import (CostBudgetExceeded, EmptySample, NonPositiveKs,
                           OutOfRange, TooFewPoints)
from lsslab.spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction

IDENTITY = PopulationSpectrum.identity()


class TestKs:
    def test_single_zero(self):
        assert ks_to_normal([0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_two_quartiles(self):
        pts = [stats.norm.ppf(0.25), stats.norm.ppf(0.75)]
        # brute force over the four candidate gaps gives exactly 1/4
        assert ks_to_normal(pts) == pytest.approx(0.25, abs=1e-12)

    def test_stratified_grid(self):
        m = 200
        pts = stats.norm.ppf((np.arange(1, m + 1) - 0.5) / m)
        assert ks_to_normal(pts) == pytest.approx(0.5 / m, abs=1e-12)

    def test_brute_force_oracle_random_samples(self):
        # independent oracle: enumerate every jump of the empirical cdf
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = rng.standard_normal(rng.integers(1, 40))
            srt = np.sort(xs)
            m = len(srt)
            candidates = []
            for i, x in enumerate(srt, start=1):
                candidates.append(abs(i / m - stats.norm.cdf(x)))
                candidates.append(abs((i - 1) / m - stats.norm.cdf(x)))
            assert ks_to_normal(xs) == pytest.approx(max(candidates), abs=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal(31)
        assert ks_to_normal(xs) == ks_to_normal(xs[::-1])
        assert ks_to_normal(xs) == ks_to_normal(rng.permutation(xs))

    def test_median_duplicate_bounded_increase(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            xs = rng.standard_normal(21)
            base = ks_to_normal(xs)
            dup = np.append(xs, np.median(xs))
            assert ks_to_normal(dup) <= base + 1.0 / len(xs)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_to_normal([])

    def test_norm_cdf_accuracy(self):
        # erfc route stays accurate deep in the tail
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
        assert norm_cdf(-8.0) == pytest.approx(stats.norm.cdf(-8.0), rel=1e-13)


class TestRateFit:
    def test_exact_power_law(self):
        pts = [(n, 2.0 * n**-0.5) for n in (128, 256, 512, 1024)]
        fit = fit_rate(pts)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.exponent_ci[0] <= fit.exponent <= fit.exponent_ci[1]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_rate([(128, 0.1), (256, 0.05)])

    def test_nonpositive_ks(self):
        with pytest.raises(NonPositiveKs):
            fit_rate([(128, 0.1), (256, 0.0), (512, 0.05)])

    def test_duplicate_n_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_rate([(128, 0.1), (128, 0.05), (512, 0.02)])

    def test_bootstrap_coverage(self):
        # 5% multiplicative noise around n^{-1/2}: the 90% interval should
        # cover -1/2 in at least 85 of 100 trials
        rng = np.random.default_rng(6)
        ns = (64, 128, 256, 512, 1024)
        covered = 0
        for trial in range(100):
            pts = [(n, n**-0.5 * (1 + 0.05 * rng.standard_normal())) for n in ns]
            fit = fit_rate(pts, n_boot=400, seed=trial)
            if fit.exponent_ci[0] <= -0.5 <= fit.exponent_ci[1]:
                covered += 1
        assert covered >= 85


class TestSteinRamp:
    CTX = SteinContext(w0=1.1, theta=0.4)

    def test_flat_region_boundary(self):
        assert stein_h(self.CTX, self.CTX.w0) == 1.0

    def test_ramp_midpoint(self):
        assert stein_h(self.CTX, self.CTX.w0 + self.CTX.theta / 2) == pytest.approx(0.5)

    def test_beyond_ramp(self):
        assert stein_h(self.CTX, self.CTX.w0 + 2 * self.CTX.theta) == 0.0

    def test_monotone_nonincreasing(self):
        ws = np.linspace(-4, 4, 500)
        vals = stein_h(self.CTX, ws)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            SteinContext(w0=0.0, theta=0.0)


class TestSteinNh:
    def test_quadrature_oracle(self):
        # adaptive quadrature with breakpoints at the two ramp kinks
        rng = np.random.default_rng(7)
        for _ in range(20):
            ctx = SteinContext(w0=float(rng.uniform(-3, 3)),
                               theta=float(rng.uniform(0.01, 2.0)))
            oracle, err = integrate.quad(
                lambda x: float(stein_h(ctx, x)) * stats.norm.pdf(x), -12, 12,
                epsabs=1e-13, epsrel=1e-13, limit=400,
                points=[ctx.w0, ctx.w0 + ctx.theta])
            assert abs(stein_Nh(ctx) - oracle) <= 1e-12 + 10 * err

    def test_theta_to_zero_limit(self):
        for w0 in (-1.0, 0.3, 2.0):
            assert stein_Nh(SteinContext(w0, 1e-9)) == pytest.approx(
                stats.norm.cdf(w0), abs=1e-9)

    def test_far_right_cutoff_is_one(self):
        assert stein_Nh(SteinContext(12.0, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_w0(self):
        w0s = np.linspace(-3, 3, 60)
        vals = [stein_Nh(SteinContext(float(w), 0.3)) for w in w0s]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ctx = SteinContext(float(rng.uniform(-6, 6)), float(rng.uniform(1e-6, 3)))
            assert 0.0 <= ctx.Nh <= 1.0


class TestSteinSolution:
    def test_constant_h_gives_zero(self):
        # pushing the cutoff far right makes h constant 1, so h - Nh ~ 0
        ctx = SteinContext(w0=25.0, theta=0.5)
        for w in (-3.0, 0.0, 3.0):
            assert abs(stein_solution(ctx, w)) <= 1e-12

    def test_bound_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            ctx = SteinContext(float(rng.uniform(-3, 3)), float(rng.uniform(0.02, 1.0)))
            rep = stein_bound_report(ctx, n_grid=4000)
            assert rep.violations == 0
            assert rep.min_g >= -1e-9 and rep.max_g <= 1.0 + 1e-9
            assert rep.max_abs_gprime <= 1.0 + 1e-9

    def test_residual_off_kinks(self):
        ctx = SteinContext(w0=0.7, theta=0.25)
        ws = np.linspace(-6, 6, 400)
        for w in ws:
            if min(abs(w - ctx.w0), abs(w - ctx.w0 - ctx.theta)) < 5e-6:
                continue
            assert stein_residual(ctx, float(w)) <= 1e-6

    def test_large_w_stable(self):
        ctx = SteinContext(w0=0.0, theta=0.5)
        assert np.isfinite(stein_solution(ctx, 29.9))
        assert np.isfinite(stein_solution(ctx, -29.9))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            stein_solution(SteinContext(0.0, 1.0), 31.0)


class TestQformProbe:
    def test_zero_matrix_gives_zero_moments(self):
        sp0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
        m = qform_moment(sp0, "fixed_psd", 64, 0.5, 2, replicates=500, seed=1)
        assert m == 0.0

    def test_k2_exact_variance_identity(self):
        # E |r*r - p/n|^2 = 2p/n^2 for real Gaussian entries and T = A = I
        n, y, reps = 64, 0.5, 40_000
        p = round(y * n)
        m = qform_moment(IDENTITY, "fixed_psd", n, y, 2, replicates=reps, seed=2)
        exact = 2 * p / n**2
        assert m == pytest.approx(exact, rel=0.05)

    def test_k2_slope(self):
        res = qform_probe(IDENTITY, "fixed_psd", [64, 128, 256, 512], 0.5, 2,
                          replicates=20_000, seed=3)
        assert res.slope == pytest.approx(-1.0, abs=0.1)

    def test_k4_slope(self):
        res = qform_probe(IDENTITY, "fixed_psd", [64, 128, 256, 512], 0.5, 4,
                          replicates=20_000, seed=4)
        assert res.slope == pytest.approx(-2.0, abs=0.2)

    def test_resolvent_kind_slope(self):
        res = qform_probe(IDENTITY, "resolvent", [64, 128, 256, 512], 0.5, 2,
                          replicates=20_000, seed=5)
        assert res.slope == pytest.approx(-1.0, abs=0.15)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            qform_probe(IDENTITY, "fixed_psd", [64, 128, 256], 0.5, 3, 100, 0)


class TestSigma0:
    def test_zero_population_exactly_zero(self):
        sp0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
        res = sigma0_nested_mc(TestFunction.monomial(1), sp0, 0.5, n_small=8,
                               inner_reps=4, outer_reps=3, seed=1)
        assert res.estimate == 0.0

    @pytest.mark.parametrize("ensemble,expected", [
        (EntryEnsemble.real_gaussian(), 20.010132702313935),
        (EntryEnsemble.complex_gaussian(), 5.443063516176532),
        (EntryEnsemble.rademacher(), 0.38476562500000594),
    ], ids=["RG", "CG", "rademacher"])
    def test_random_stream_pinned(self, ensemble, expected):
        # recorded values: a change to how the outer and inner columns are
        # drawn moves every estimate, and so does a change of the contour
        # nodes (the 128 nodes of the default ellipse)
        res = sigma0_nested_mc(TestFunction.monomial(2), IDENTITY, 0.5, n_small=8,
                               inner_reps=4, outer_reps=3, seed=11, ensemble=ensemble)
        assert res.estimate == pytest.approx(expected, rel=1e-10)

    def test_minimal_dimension_self_consistency(self):
        # two independent estimates at n = p = 2 agree within three combined
        # standard errors
        f = TestFunction.monomial(1)
        a = sigma0_nested_mc(f, IDENTITY, 1.0, n_small=2, inner_reps=400,
                             outer_reps=60, seed=21)
        b = sigma0_nested_mc(f, IDENTITY, 1.0, n_small=2, inner_reps=400,
                             outer_reps=60, seed=22)
        gap = abs(a.estimate - b.estimate)
        assert gap <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_tracks_deterministic_variance_small_n(self):
        # sigma_n(x) = 2y for the identity population; MC noise floor is a
        # few percent at this budget, so a loose band is asserted here and
        # the tight one lives in the acceptance suite
        f = TestFunction.monomial(1)
        res = sigma0_nested_mc(f, IDENTITY, 0.5, n_small=16, inner_reps=48,
                               outer_reps=40, seed=23)
        assert abs(res.estimate - 1.0) <= max(0.2, 4 * res.stderr)

    def test_cost_cap(self):
        with pytest.raises(CostBudgetExceeded):
            sigma0_nested_mc(TestFunction.monomial(1), IDENTITY, 0.5, n_small=64,
                             inner_reps=10_000, outer_reps=10_000, seed=0,
                             work_cap_seconds=1.0)

    def test_n_small_capped(self):
        with pytest.raises(ValueError, match="capped"):
            sigma0_nested_mc(TestFunction.monomial(1), IDENTITY, 0.5, n_small=128,
                             inner_reps=1, outer_reps=1, seed=0)
