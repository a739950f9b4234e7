import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from conftest import BATTERY
from lsslab import diagnostics
from lsslab.contour import Contour, build_contour
from lsslab.diagnostics import (QformProbeResult, RateFit, SteinContext,
                                fit_rate, ks_to_normal, norm_cdf, qform_moment,
                                qform_probe, sigma0_nested_mc, stein_Nh,
                                stein_bound_report, stein_h, stein_residual,
                                stein_solution)
from lsslab.errors import (CostBudgetExceeded, EmptySample, NonPositiveKs,
                           OutOfRange, TooFewPoints)
from lsslab.simulator import (draw_entries, population_diagonal, realized_spectrum,
                              replicate_seed, sample_entries)
from lsslab.spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction
from lsslab.stieltjes import s_under_grid

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


def _erfc_oracle(x: float, scaled: bool) -> mpmath.mpf:
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.erfc(x) * (mpmath.exp(x * x) if scaled else 1)


class TestErfc:
    TINY = np.finfo(float).tiny  # the smallest normal float
    EDGES = [v for edge in (0.46875, 4.0) for s in (-1.0, 1.0)
             for v in (s * edge, np.nextafter(s * edge, -np.inf), np.nextafter(s * edge, np.inf))]
    SMALL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, TINY, -TINY, 1e-17, -1e-17]

    @pytest.mark.parametrize("scaled", [False, True], ids=["erfc", "erfcx"])
    def test_matches_mpmath(self, scaled):
        # [-26.5, 30]: both branch edges from each side, signed zeros and subnormal
        # arguments, and the negative side, which erfc and erfcx take by reflection
        rng = np.random.default_rng(25)
        xs = np.concatenate([np.linspace(-26.5, 30.0, 2001), rng.uniform(-26.5, 30.0, 500),
                             self.EDGES, self.SMALL])
        got = diagnostics.erfc(xs, scaled=scaled)
        worst = 0.0
        for x, g in zip(xs, got):
            want = _erfc_oracle(float(x), scaled)
            if want < self.TINY:  # erfc past 26.55: a subnormal or 0, to a few of its units
                assert abs(float(mpmath.mpf(float(g)) - want)) <= 16 * 5e-324, x
                continue
            worst = max(worst, float(abs((mpmath.mpf(float(g)) - want) / want)))
        assert worst <= 1e-15

    def test_ends(self):
        with np.errstate(all="raise"):
            erfc = diagnostics.erfc(np.array([-np.inf, -30.0, 28.0, np.inf, np.nan]))
            erfcx = diagnostics.erfc(np.array([-np.inf, -27.0, 1e300, np.inf, np.nan]),
                                     scaled=True)
        np.testing.assert_array_equal(erfc, [2.0, 2.0, 0.0, 0.0, np.nan])
        np.testing.assert_array_equal(erfcx[[0, 1, 3, 4]], [np.inf, np.inf, 0.0, np.nan])
        assert erfcx[2] == pytest.approx(1.0 / (1e300 * math.sqrt(math.pi)), rel=1e-15)

    def test_keeps_the_shape(self):
        assert diagnostics.erfc(0.5).shape == ()
        assert diagnostics.erfc(np.zeros((2, 3, 4)), scaled=True).shape == (2, 3, 4)
        assert diagnostics.erfc(np.zeros(0)).shape == (0,)

    def test_norm_cdf_matches_mpmath(self):
        # Phi(x) = erfc(-x/sqrt 2)/2: rounding -x/sqrt 2 moves erfc by about
        # eps x^2 relative, its condition number, on top of the kernel's error
        eps = np.finfo(float).eps
        xs = np.concatenate([np.linspace(-37.0, 8.0, 1801), [0.0, -0.66291, 0.66291]])
        got = norm_cdf(xs)
        for x, g in zip(xs, got):
            with mpmath.workdps(40):
                want = mpmath.ncdf(mpmath.mpf(float(x)))
                err = float(abs((mpmath.mpf(float(g)) - want) / want))
            assert err <= 1e-15 + 1.5 * eps * x * x, x

    def test_stein_solution_calls_the_kernel_once(self, monkeypatch):
        calls = []
        kernel = diagnostics.erfc

        def counted(x, scaled=False):
            calls.append(np.shape(x))
            return kernel(x, scaled)

        ctx = SteinContext(0.4, 0.9)
        assert 0.0 < ctx.Nh < 1.0  # cached before counting: Nh calls the kernel too
        monkeypatch.setattr(diagnostics, "erfc", counted)
        stein_solution(ctx, np.linspace(-8.0, 8.0, 101))
        stein_solution(ctx, -1.5)
        assert calls == [(101 + 4,), (1 + 4,)]  # w, then -a, a, -b and b


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
            fit = fit_rate(pts, seed=trial)
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

    @pytest.mark.parametrize("bad", [30.5, -31.0, 1e300])
    def test_array_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            stein_solution(SteinContext(0.0, 1.0), np.array([-1.0, 0.0, bad, 2.0]))

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ctx = SteinContext(float(rng.uniform(-6, 6)), float(10 ** rng.uniform(-3, 0.5)))
            a, b = ctx.w0, ctx.w0 + ctx.theta
            ws = np.concatenate([np.linspace(-30.0, 30.0, 241), [a, b, a - 1e-9, b + 1e-9]])
            got = stein_solution(ctx, ws)
            assert isinstance(got, np.ndarray) and got.shape == ws.shape
            scalars = [stein_solution(ctx, float(w)) for w in ws]
            assert all(isinstance(g, float) for g in scalars)
            np.testing.assert_array_equal(got, scalars)
            np.testing.assert_array_equal(stein_solution(ctx, ws.reshape(5, -1)),
                                          got.reshape(5, -1))

    def test_bound_report_matches_the_per_point_loop(self):
        # the sweep's array expressions against one scalar call per grid point
        step = 1e-6
        for ctx in (SteinContext(-1.3, 0.02), SteinContext(0.4, 0.9), SteinContext(2.5, 0.3)):
            rep = stein_bound_report(ctx, n_grid=3000)
            ws = np.linspace(-8.0, 8.0, 3000)
            ws = ws[(np.abs(ws - ctx.w0) > 2 * step) & (np.abs(ws - ctx.w0 - ctx.theta) > 2 * step)]
            g = [stein_solution(ctx, float(w)) for w in ws]
            gp = [(stein_solution(ctx, float(w) + step) - stein_solution(ctx, float(w) - step))
                  / (2 * step) for w in ws]
            resid = [stein_residual(ctx, float(w)) for w in ws[::len(ws) // 500]]
            assert (rep.min_g, rep.max_g) == (min(g), max(g))
            assert rep.max_abs_gprime == max(abs(v) for v in gp)
            assert rep.max_gprime_spread == max(gp) - min(gp)
            assert rep.max_residual == max(resid)
            np.testing.assert_array_equal(stein_residual(ctx, ws[::len(ws) // 500]), resid)

    def test_matches_mpmath_oracle(self):
        # 60 contexts, theta down to 1e-3, |w| <= 30 with points within 1e-9 of
        # both kinks.  The ramp's two terms are each about |w0| phi / phi(w) and
        # cancel to O(theta), so rounding costs about eps (1 + |w0|) / theta on
        # top of the floor set by the float Nh.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        thetas = np.concatenate([rng.uniform(1e-3, 3.0, 29), 10 ** rng.uniform(-3, 0.5, 29),
                                 [1e-3, 1e-3]])
        worst = 0.0
        for theta in thetas:
            ctx = SteinContext(float(rng.uniform(-6, 6)), float(theta))
            a, b = ctx.w0, ctx.w0 + ctx.theta
            ws = np.concatenate([np.linspace(-30.0, 30.0, 121),
                                 [k + d for k in (a, b) for d in (-1e-9, 0.0, 1e-9)]])
            ws = ws[np.abs(ws) <= 30.0]
            want = np.array([_stein_oracle(ctx, w) for w in ws])
            err = np.max(np.abs(stein_solution(ctx, ws) - want))
            assert err <= 2e-14 + 4.0 * eps * (1.0 + abs(ctx.w0)) / ctx.theta, (ctx, err)
            if ctx.theta >= 0.25:
                worst = max(worst, err)
        assert worst <= 2e-14


def _stein_oracle(ctx: SteinContext, w: float) -> float:
    """The Stein solution for the ramp and the float ``ctx.Nh`` at 80 digits: the
    left-tail integral for w <= 0, the right-tail one for w > 0, piece by piece."""
    with mpmath.workdps(80):
        a, theta, nh, w = (mpmath.mpf(v) for v in (ctx.w0, ctx.theta, ctx.Nh, w))
        b = a + theta
        cdf, pdf = mpmath.ncdf, mpmath.npdf

        def ramp(lo, hi):  # integral of (1 + (a - x)/theta) phi over [lo, hi]
            return ((1 + a / theta) * (cdf(hi) - cdf(lo))
                    - (pdf(lo) - pdf(hi)) / theta) if lo < hi else 0

        if w <= 0:
            part = cdf(min(w, a)) + ramp(a, min(w, b)) - nh * cdf(w)
        else:
            below_a = cdf(-w) - cdf(-a) if w < a else 0  # integral of phi over [w, a]
            part = nh * cdf(-w) - below_a - ramp(max(w, a), b)
        return float(part / pdf(w))


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

    @pytest.mark.parametrize("matrix_kind, seed", [("resolvent", 8)])
    def test_column_slices_give_the_one_shot_moment(self, matrix_kind, seed):
        # p = 24 slices a block into 10,922 columns, and 25,000 replicates
        # draw two blocks: the sliced forms and one sum per block keep the
        # bits of forming every block's forms at once (at these seeds a sum
        # per slice moves the last bit)
        sp = PopulationSpectrum.from_pairs([(0.25, 0.5), (1.0, 0.5)])
        n, y, k, reps = 48, 0.5, 4, 25_000
        assert reps > diagnostics._QFORM_CHUNK > diagnostics._QFORM_CELLS // round(y * n)
        diag_t = population_diagonal(sp, round(y * n))
        a = diagnostics._probe_matrix(sp, diag_t, matrix_kind, n, replicate_seed(seed, 0))
        target = float(np.sum(diag_t * np.diag(a))) / n
        acc = 0.0
        for block, size in ((1, diagnostics._QFORM_CHUNK), (2, reps - diagnostics._QFORM_CHUNK)):
            x = sample_entries(EntryEnsemble.real_gaussian(), diag_t.size, size,
                               replicate_seed(seed, block))
            r = np.sqrt(diag_t)[:, None] * x / math.sqrt(n)
            q = np.einsum("ip,ip->p", r, a @ r) - target
            acc += float(np.sum(np.abs(q) ** k))
        assert qform_moment(sp, matrix_kind, n, y, k, reps, seed) == acc / reps

    def test_diagonal_form_is_the_chi_square_stream(self):
        # fixed_psd draws sum_t t^2 chi2_{p_t} / n, atoms ascending, one stream
        # per block of 20,000: 25,000 replicates take two blocks
        sp = PopulationSpectrum.from_pairs([(0.25, 0.5), (1.0, 0.5)])
        n, y, k, reps, seed = 48, 0.5, 4, 25_000, 2
        diag_t = population_diagonal(sp, round(y * n))
        target = float(np.sum(diag_t * diag_t)) / n
        acc = 0.0
        for block, size in ((1, diagnostics._QFORM_CHUNK), (2, reps - diagnostics._QFORM_CHUNK)):
            rng = np.random.Generator(np.random.PCG64(replicate_seed(seed, block)))
            q = (0.25**2 * rng.chisquare(12, size) + 1.0 * rng.chisquare(12, size)) / n
            acc += float(np.sum(np.abs(q - target) ** k))
        assert qform_moment(sp, "fixed_psd", n, y, k, reps, seed) == acc / reps

    @pytest.mark.parametrize("pairs", [[(1.0, 1.0)], [(0.25, 0.5), (1.0, 0.5)]],
                             ids=["identity", "two_atom"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_diagonal_form_meets_the_chi_square_moments(self, pairs, k):
        # Q = sum_g mu_g chi2_{c_g} / n with mu_g = t_g^2 has cumulants
        # kappa_r = 2^(r-1) (r-1)! sum_g c_g mu_g^r / n^r; the k-th central
        # moment is kappa_2 (k = 2) or kappa_4 + 3 kappa_2^2 (k = 4), and the
        # standard error of its estimate comes from the 2k-th
        sp = PopulationSpectrum.from_pairs(pairs)
        n, y, reps = 64, 0.5, 40_000
        t, c = np.unique(population_diagonal(sp, round(y * n)), return_counts=True)
        mu = t * t
        kappa = [0.0, 0.0] + [2.0 ** (r - 1) * math.factorial(r - 1) * float(c @ mu**r) / n**r
                              for r in range(2, 2 * k + 1)]
        central = [1.0]  # central moments from the cumulants, with kappa_1 = 0
        for j in range(1, 2 * k + 1):
            central.append(sum(math.comb(j - 1, i - 1) * kappa[i] * central[j - i]
                               for i in range(1, j + 1)))
        exact = {2: 2.0 * float(c @ mu**2) / n**2,
                 4: 48.0 * float(c @ mu**4) / n**4 + 3.0 * kappa[2] ** 2}[k]
        assert central[k] == pytest.approx(exact, rel=1e-14)
        stderr = math.sqrt((central[2 * k] - exact**2) / reps)
        got = qform_moment(sp, "fixed_psd", n, y, k, replicates=reps, seed=31)
        assert abs(got - exact) <= 5.0 * stderr

    def test_peak_memory_is_about_one_entry_block(self):
        # the bound of the sampled path, which drew a 256 x 10,000 block of
        # 20.5 MB at n = 512; the chi-square path draws 10,000 variates per atom
        qform_moment(IDENTITY, "fixed_psd", 16, 0.5, 4, 10, 0)  # imports outside the trace
        tracemalloc.start()
        try:
            qform_moment(IDENTITY, "fixed_psd", 512, 0.5, 4, 10_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 256 * 10_000 * 8

    def test_resolvent_peak_memory_is_about_one_entry_block(self):
        # n = 512 draws a 256 x 10,000 block of 20.5 MB; its column slices of
        # 2^18 cells (2.1 MB each for r, its scaled copy and A r) stay below
        # half of it, and full-width ones would triple the peak
        qform_moment(IDENTITY, "resolvent", 16, 0.5, 2, 10, 0)  # imports outside the trace
        tracemalloc.start()
        try:
            qform_moment(IDENTITY, "resolvent", 512, 0.5, 2, 10_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 256 * 10_000 * 8


class TestSigma0:
    def test_zero_population_exactly_zero(self):
        sp0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
        res = sigma0_nested_mc(TestFunction.monomial(1), sp0, 0.5, n_small=8,
                               inner_reps=4, outer_reps=3, seed=1)
        assert res.estimate == 0.0

    @pytest.mark.parametrize("ensemble,expected", [
        (EntryEnsemble.real_gaussian(), 20.010132720913088),
        (EntryEnsemble.complex_gaussian(), 5.443063516176532),
        (EntryEnsemble.rademacher(), 0.38476562500000594),
    ], ids=["RG", "CG", "rademacher"])
    def test_random_stream_pinned(self, ensemble, expected):
        # recorded values: a change to how the outer and inner columns are
        # drawn moves every estimate, and so does a change of the contour
        # nodes (the conjugate-symmetric 128-node rule on the default ellipse)
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
        with pytest.raises(OutOfRange, match="capped"):
            sigma0_nested_mc(TestFunction.monomial(1), IDENTITY, 0.5, n_small=128,
                             inner_reps=1, outer_reps=1, seed=0)

    @pytest.mark.parametrize("sizes,name", [
        ({"n_small": -3}, "n_small"),
        ({"n_small": 1}, "p = round"),  # y = 0.5 rounds p down to 0
        ({"inner_reps": 0}, "inner_reps"),
        ({"outer_reps": 0}, "outer_reps"),
    ], ids=["n_small", "p", "inner_reps", "outer_reps"])
    def test_sizes_below_one_fail_before_the_projection(self, sizes, name):
        # a zero cost cap fails any projection, so OutOfRange shows the check runs first
        args = {"n_small": 8, "inner_reps": 2, "outer_reps": 2, **sizes}
        with pytest.raises(OutOfRange, match=name):
            sigma0_nested_mc(TestFunction.monomial(1), IDENTITY, 0.5, seed=0,
                             work_cap_seconds=0.0, **args)

    def test_projection_clears_the_cap_for_c12_in_a_fresh_process(self):
        # the first eigh of a process is several times slower than a warm one;
        # c12's projection must not trip the cap on that cold call
        script = (
            "import lsslab.diagnostics as d\n"
            "from lsslab.spectral_model import PopulationSpectrum, TestFunction\n"
            "class Sentinel(Exception): pass\n"
            "def stop(*a, **k): raise Sentinel\n"
            "d.build_contour = stop\n"
            "try:\n"
            "    d.sigma0_nested_mc(TestFunction.monomial(1), PopulationSpectrum.identity(),\n"
            "                       0.5, n_small=32, inner_reps=96, outer_reps=96, seed=13)\n"
            "except Sentinel:\n"
            "    print('past the projection')\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "past the projection"

    def test_outside_contour_counts_dropped_eigenvalues(self):
        # 3 outer reps x 8 columns x 8 inner draws x p = 4 eigenvalues = 768 sampled
        res = sigma0_nested_mc(TestFunction.monomial(2), IDENTITY, 0.5, n_small=8,
                               inner_reps=4, outer_reps=3, seed=11)
        assert res.outside_contour == 10
        sp0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
        res = sigma0_nested_mc(TestFunction.monomial(1), sp0, 0.5, n_small=8,
                               inner_reps=4, outer_reps=3, seed=1)
        assert res.outside_contour == 0

    def test_solves_at_the_drawn_ratio(self, monkeypatch):
        # n_small = 7 at y_n = 0.5 draws p = round(3.5) = 4 rows of 7 columns,
        # so the contour and the transform are those of the law at 4/7
        ratios = []

        def recording(name, original, at):  # the ratio is positional argument ``at``
            def wrapper(*args, **kwargs):
                ratios.append((name, args[at]))
                return original(*args, **kwargs)
            monkeypatch.setattr(diagnostics, name, wrapper)

        recording("build_contour", build_contour, 1)
        recording("s_under_grid", s_under_grid, 2)
        res = sigma0_nested_mc(TestFunction.monomial(1), IDENTITY, 0.5, n_small=7,
                               inner_reps=2, outer_reps=2, seed=3)
        assert res.p == 4 and res.n == 7
        assert ratios == [("build_contour", 4 / 7), ("s_under_grid", 4 / 7)]

    @pytest.mark.parametrize("y_n", [0.5, 2.0])
    def test_matches_per_draw_loop(self, y_n):
        f, sp, t11 = TestFunction.monomial(3), BATTERY["five_atom"], EntryEnsemble.student_t(11.0)
        args = (f, sp, y_n, 6, 3, 2, 17)
        res = sigma0_nested_mc(*args, ensemble=t11)
        assert res.estimate == pytest.approx(_sigma0_per_draw(*args, t11), rel=1e-12)

    @pytest.mark.parametrize("ensemble", [EntryEnsemble.real_gaussian(),
                                          EntryEnsemble.complex_gaussian(),
                                          EntryEnsemble.student_t(11.0)],
                             ids=["RG", "CG", "student_t"])
    def test_upper_half_equals_the_whole_symmetric_rule(self, ensemble, monkeypatch):
        # every node of the same conjugate-symmetric rule solved and summed, at
        # half weight against the mirror half's factor 2 in the column sums
        args = (TestFunction.monomial(3), BATTERY["five_atom"], 0.5, 6, 3, 2, 17)
        half = sigma0_nested_mc(*args, ensemble=ensemble).estimate

        def whole(c):
            z, w = c._at(2.0 * np.pi * (np.arange(c.m) + 0.5) / c.m, c.m)
            return z, w / 2.0

        monkeypatch.setattr(Contour, "upper_half", whole)
        assert half == pytest.approx(sigma0_nested_mc(*args, ensemble=ensemble).estimate,
                                     rel=1e-13)


def _sigma0_per_draw(f, spectrum, y_n, n, inner_reps, outer_reps, seed, ensemble):
    """Reference: the nested-MC estimate with one eigh and one complex node sum per draw."""
    p = int(round(y_n * n))
    h_p = realized_spectrum(spectrum, p)  # the spectrum of the T_p that the columns draw
    z, w = build_contour(h_p, p / n, m=128, f=f).nodes()
    weight = w * f.deriv(z) * (-z * s_under_grid(z, h_p, p / n))
    diag_t = population_diagonal(spectrum, p)
    root_t = np.sqrt(diag_t)

    def half(rng, base, r_j, fresh):
        acc = np.zeros(z.shape, dtype=complex)
        for _ in range(inner_reps):
            m_j = base
            if fresh:
                cols = root_t[:, None] * draw_entries(ensemble, rng, (p, fresh)) / math.sqrt(n)
                m_j = base + cols @ cols.conj().T
            lam, q = np.linalg.eigh(m_j)
            coef = (np.abs(q.conj().T @ r_j) ** 2
                    - (np.abs(q) ** 2 * diag_t[:, None]).sum(axis=0) / n)
            acc += coef @ (1.0 / (lam[:, None] - z[None, :]))
        return (complex(np.sum(weight * acc / inner_reps)) * (-1.0 / (2.0j * math.pi))).real

    totals = []
    for outer in range(outer_reps):
        rng = np.random.Generator(np.random.PCG64(replicate_seed(seed, 2 * outer)))
        x_full = sample_entries(ensemble, p, n, replicate_seed(seed, 2 * outer + 1))
        r_cols = root_t[:, None] * x_full / math.sqrt(n)
        base = np.zeros((p, p), dtype=complex if ensemble.is_complex else float)
        total = 0.0
        for j in range(n):
            r_j = r_cols[:, j]
            total += half(rng, base, r_j, n - 1 - j) * half(rng, base, r_j, n - 1 - j)
            base = base + np.outer(r_j, r_j.conj())
        totals.append(total)
    return float(np.mean(totals))
