import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import BATTERY, companion, population_moment
from lsslab.clt_moments import compute_moments, normalize
from lsslab.contour import default_margin
from lsslab.errors import (ConstraintViolation, DegenerateTruncation, LogDomain,
                           NonConvergence)
from lsslab import simulator
from lsslab.simulator import (CLOSED_FORM, DENSE, SPECTRUM, SimConfig, assemble_B,
                              default_eta, draw_entries, eigenvalues, lss_centered,
                              population_diagonal, replicate_eigenvalues, replicate_reduction,
                              replicate_sampler, replicate_seed, replicate_statistic,
                              run_experiment, sample_entries, splitmix64, truncate_normalize,
                              truncated_law, truncated_moments)
from lsslab.spectral_model import (AspectRatio, EntryEnsemble, PopulationSpectrum,
                                   TestFunction, support_interval)
from lsslab.stieltjes import lss_centering

IDENTITY = PopulationSpectrum.identity()
RG = EntryEnsemble.real_gaussian()
CG = EntryEnsemble.complex_gaussian()
F_X = TestFunction.monomial(1)
RG_TRUNCATED = truncated_law(RG, 20, 1.0)  # clips at 20^(1/4) = 2.11


class TestSeeds:
    def test_splitmix64_is_64_bit(self):
        vals = {splitmix64(i) for i in range(1000)}
        assert len(vals) == 1000
        assert all(0 <= v < 2**64 for v in vals)

    def test_replicate_seed_deterministic(self):
        assert replicate_seed(42, 7) == replicate_seed(42, 7)
        assert replicate_seed(42, 7) != replicate_seed(42, 8)
        assert replicate_seed(42, 7) != replicate_seed(43, 7)


class TestSampleEntries:
    def test_fixed_seed_bit_identical(self):
        a = sample_entries(RG, 16, 8, seed=99)
        b = sample_entries(RG, 16, 8, seed=99)
        assert a.tobytes() == b.tobytes()

    def test_rg_mean_within_clt_band(self):
        x = sample_entries(RG, 1000, 1000, seed=1)
        assert abs(x.mean()) <= 5e-3  # 3.9 sigma / sqrt(1e6) band

    def test_cg_second_moment(self):
        x = sample_entries(CG, 1000, 1000, seed=2)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) <= 5e-3
        # real and imaginary parts each carry variance one half
        assert abs(np.var(x.real) - 0.5) <= 5e-3
        assert abs(np.mean(x**2)) <= 5e-3  # circularity: E x^2 = 0

    def test_custom_sampler_used(self):
        x = sample_entries(EntryEnsemble.rademacher(), 50, 50, seed=3)
        assert set(np.unique(x)) == {-1.0, 1.0}

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(ensemble=st.sampled_from([RG, CG, EntryEnsemble.rademacher(),
                                     EntryEnsemble.student_t(11.0)]),
           k=st.integers(1, 4), p=st.integers(1, 5), m=st.integers(1, 5),
           seed=st.integers(0, 2**32))
    def test_leading_axis_is_consecutive_draws(self, ensemble, k, p, m, seed):
        batch = draw_entries(ensemble, np.random.default_rng(seed), (k, p, m))
        rng = np.random.default_rng(seed)
        one_by_one = np.stack([draw_entries(ensemble, rng, (p, m)) for _ in range(k)])
        assert batch.tobytes() == one_by_one.tobytes()

    def test_cg_matrix_draws_real_then_imaginary_parts(self):
        # the stream of a (p, n) draw is unchanged by the batch contract
        x = sample_entries(CG, 3, 4, seed=9)
        parts = np.random.Generator(np.random.PCG64(9)).standard_normal((2, 3, 4))
        assert x.tobytes() == ((parts[0] + 1j * parts[1]) * math.sqrt(0.5)).tobytes()


class TestTruncateNormalize:
    def test_huge_threshold_is_identity(self):
        x = sample_entries(RG, 20, 30, seed=4)
        out = truncate_normalize(x, n=30, eta=1e6, ensemble=RG)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_rademacher_identity_above_one(self):
        rad = EntryEnsemble.rademacher()
        x = sample_entries(rad, 20, 16, seed=5)
        out = truncate_normalize(x, n=16, eta=1.1 / 16**0.25, ensemble=rad)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_rg_truncated_variance_closed_form(self):
        # closed-form truncated-normal second moment as the independent
        # oracle: E X^2 1{|X| < c} = (2 Phi(c) - 1) - 2 c phi(c)
        c = 2.0
        mean, var, _ = truncated_moments(RG, c)
        closed = (2 * stats.norm.cdf(c) - 1) - 2 * c * stats.norm.pdf(c)
        assert mean == pytest.approx(0.0, abs=1e-14)
        assert var == pytest.approx(closed, abs=1e-10)

    def test_cg_truncated_variance_closed_form(self):
        # |x|^2 is exponential, so E |x|^2 1{|x| < c} = 1 - (1 + c^2) e^{-c^2}
        c = 1.5
        _, var, _ = truncated_moments(CG, c)
        assert var == pytest.approx(1 - (1 + c * c) * math.exp(-c * c), abs=1e-10)

    def test_degenerate_truncation(self):
        with pytest.raises(DegenerateTruncation, match="at n = 4 .* raise truncation.eta"):
            truncate_normalize(np.ones((4, 4)), n=4, eta=1e-6, ensemble=RG)

    @pytest.mark.parametrize("c", [0.5, 0.72, 2.0, 50.0])
    def test_truncated_gaussian_laws_match_closed_forms(self, c):
        # RG: E x^2 1{|x| < c} = (2 Phi(c) - 1) - 2 c phi(c) and
        # E x^4 1{|x| < c} = 3 (2 Phi(c) - 1) - 2 phi(c) (c^3 + 3 c);
        # CG, u = c^2: E |x|^2 1 = 1 - (1 + u) e^-u, E |x|^4 1 = 2 - (2 + 2u + u^2) e^-u
        mass, density = 2 * stats.norm.cdf(c) - 1, stats.norm.pdf(c)
        u = c * c
        closed = {
            "rg": (RG, mass - 2 * c * density, 3 * mass - 2 * density * (c**3 + 3 * c), 1.0),
            "cg": (CG, 1 - (1 + u) * math.exp(-u), 2 - (2 + 2 * u + u * u) * math.exp(-u), 0.0),
        }
        for ensemble, var, fourth_raw, pseudo in closed.values():
            law = truncated_law(ensemble, 1, c)  # threshold c * 1^(1/4) = c
            assert law.truncation[0] == c
            assert law.truncation[2] == pytest.approx(var, rel=1e-10, abs=1e-10)
            fourth = fourth_raw / (var * var)
            assert law.fourth_moment == pytest.approx(fourth, rel=1e-10, abs=1e-10)
            assert law.beta_x == pytest.approx(fourth - pseudo - 2.0, rel=1e-10, abs=1e-10)
            assert law.violates_matching == (c < 50.0)

    def test_truncated_rademacher_law(self):
        rad = EntryEnsemble.rademacher()
        law = truncated_law(rad, 1, 1.5)
        assert law.truncation == (1.5, 0.0, 1.0)
        assert law.fourth_moment == 1.0 and law.beta_x == -2.0
        with pytest.raises(DegenerateTruncation):
            truncated_law(rad, 1, 1.0)  # |x| = 1 is not below the threshold

    def test_truncated_law_is_the_base_law_plus_its_truncation(self):
        t11 = EntryEnsemble.student_t(11.0)
        law = truncated_law(t11, 64, 0.5)
        assert (law.variant, law.name, law.df, law.sampler) == (
            t11.variant, t11.name, t11.df, t11.sampler)
        assert law != t11 and law == truncated_law(t11, 64, 0.5)
        with pytest.raises(ValueError, match="truncated already"):
            truncated_law(law, 64, 0.5)

    def test_entries_clipped_out_not_clamped(self):
        x = np.array([[0.5, 3.0], [-2.5, 0.1]])
        c = 1.0  # eta * n^(1/4) with eta=1, n=1
        out = truncate_normalize(x, n=1, eta=1.0, ensemble=RG)
        mean, var, _ = truncated_moments(RG, c)
        expected = (np.where(np.abs(x) < c, x, 0.0) - mean) / math.sqrt(var)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_default_eta_decreases_slowly(self):
        assert default_eta(1024) == pytest.approx(1 / math.log(1024))
        assert default_eta(100) > default_eta(10_000) > 0

    def test_student_t_pipeline_clips(self):
        t11 = EntryEnsemble.student_t(11.0)
        x = sample_entries(t11, 64, 128, seed=6)
        eta = default_eta(128)
        threshold = eta * 128**0.25
        assert (np.abs(x) >= threshold).any()  # heavy tails really clip here
        out = truncate_normalize(x, n=128, eta=eta, ensemble=t11)
        assert np.isfinite(out).all()
        mean, var, _ = truncated_moments(t11, threshold)
        clipped_value = (0.0 - mean) / math.sqrt(var)
        assert np.allclose(out[np.abs(x) >= threshold], clipped_value)

    @pytest.mark.parametrize("df", [4.5, 11.0])
    @pytest.mark.parametrize("threshold", [0.5, 0.76, 2.0, 10.0])
    def test_student_t_truncated_moments_match_the_scipy_density(self, df, threshold):
        from scipy import stats

        t_df = EntryEnsemble.student_t(df)
        scale = math.sqrt(df / (df - 2.0))
        with_scipy = replace(t_df, pdf=lambda x: scale * stats.t.pdf(x * scale, df))
        moments = truncated_moments(t_df, threshold)
        assert moments == truncated_moments(with_scipy, threshold)
        # the fourth moment against scipy's own expectation over the t law
        fourth = stats.t.expect(lambda u: (u / scale) ** 4, args=(df,),
                                lb=-threshold * scale, ub=threshold * scale)
        assert moments[0] == 0.0
        assert moments[2] == pytest.approx(fourth, rel=1e-9)

    @pytest.mark.parametrize("df", [None, 5, 11], ids=["gaussian", "t5", "t11"])
    def test_truncated_moments_match_mpmath(self, df):
        # E |x|^2 1{|x| < c} and E |x|^4 1{|x| < c} to 40 digits, over the
        # rule's doubling panels; the fixed rule holds 4e-15 relative
        with mpmath.workdps(40):
            if df is None:
                # both half lines of the normal, and the Rayleigh law of |x| for CG
                laws = [(RG, 40.0, lambda x: 2 * mpmath.npdf(x)),
                        (CG, 40.0, lambda r: 2 * r * mpmath.exp(-r * r))]
            else:
                nu = mpmath.mpf(df)
                scale = mpmath.sqrt(nu / (nu - 2))
                norm = 2 * scale * mpmath.gamma((nu + 1) / 2) / (
                    mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
                laws = [(EntryEnsemble.student_t(float(df)), 1e3,
                         lambda x: norm * (1 + (x * scale) ** 2 / nu) ** (-(nu + 1) / 2))]
            for ensemble, cap, density in laws:
                for c in (0.05, 0.3, 0.72, 1.0, 2.5, 7.0, 40.0, 100.0, 900.0):
                    end = min(c, cap)
                    edges = [0.0] + [0.5 * 2.0 ** i for i in range(12) if 0.5 * 2.0 ** i < end]
                    mean, var, fourth = truncated_moments(ensemble, c)
                    assert mean == 0.0
                    for got, power in ((var, 2), (fourth, 4)):
                        want = mpmath.quad(lambda x: x ** power * density(x), edges + [end])
                        assert abs(got - want) <= 4e-15 * want, (ensemble.name, c, power)

    @pytest.mark.parametrize("ensemble", [RG, CG, EntryEnsemble.student_t(11.0)],
                             ids=["rg", "cg", "student_t"])
    def test_textbook_expression_bit_for_bit_input_kept(self, ensemble):
        x = sample_entries(ensemble, 24, 40, seed=12)
        kept = x.copy()
        eta = default_eta(40)
        mean, var, _ = truncated_moments(ensemble, eta * 40 ** 0.25)
        out = truncate_normalize(x, n=40, eta=eta, ensemble=ensemble)
        expected = (np.where(np.abs(x) < eta * 40 ** 0.25, x, 0.0) - mean) / math.sqrt(var)
        assert np.array_equal(out, expected)
        assert np.array_equal(x, kept)

    def test_student_t_draw_is_the_scaled_standard_t(self):
        df = 11.0
        x = sample_entries(EntryEnsemble.student_t(df), 16, 24, seed=3)
        ref = simulator._rng(3).standard_t(df, size=(16, 24)) / math.sqrt(df / (df - 2.0))
        assert np.array_equal(x, ref)


class TestAssemble:
    def test_one_by_one(self):
        b = assemble_B(IDENTITY, np.array([[1.0]]), n=1)
        np.testing.assert_allclose(b, [[1.0]])

    def test_zero_population(self):
        sp0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
        b = assemble_B(sp0, sample_entries(RG, 6, 8, seed=7), n=8)
        np.testing.assert_allclose(b, np.zeros((6, 6)))

    @pytest.mark.parametrize("ensemble", [RG, CG], ids=["rg", "cg"])
    @pytest.mark.parametrize("p, n", [(12, 20), (20, 12)])
    def test_textbook_expression_bit_for_bit_input_kept(self, ensemble, p, n):
        sp = BATTERY["five_atom"]
        x = sample_entries(ensemble, p, n, seed=9)
        kept = x.copy()
        scaled = np.sqrt(population_diagonal(sp, p))[:, None] * x
        b = scaled @ scaled.conj().T / n
        assert np.array_equal(assemble_B(sp, x, n), (b + b.conj().T) / 2.0)
        assert np.array_equal(x, kept)

    def test_hermitian_to_machine_precision(self):
        x = sample_entries(CG, 12, 20, seed=8)
        b = assemble_B(IDENTITY, x, n=20)
        assert np.max(np.abs(b - b.conj().T)) == 0.0

    def test_expected_trace_oracle(self):
        # E tr B = tr T = p * m1 exactly; 2000 replicates within 4 MC SE
        sp = BATTERY["two_atom"]
        p, n, reps = 8, 16, 2000
        traces = []
        for i in range(reps):
            x = sample_entries(RG, p, n, seed=replicate_seed(11, i))
            traces.append(np.trace(assemble_B(sp, x, n)).real)
        target = p * population_moment(sp, 1)
        se = np.std(traces, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(traces) - target) <= 4 * se

    def test_apportionment_largest_remainder(self):
        sp = PopulationSpectrum.from_pairs([(0.4, 0.5), (1.0, 0.5)])
        diag = population_diagonal(sp, 5)
        # quotas 2.5/2.5; the tie goes to the larger atom
        assert list(diag) == [0.4, 0.4, 1.0, 1.0, 1.0]
        assert population_diagonal(sp, 4).tolist() == [0.4, 0.4, 1.0, 1.0]

    def test_apportionment_counts_sum(self):
        sp = BATTERY["five_atom"]
        for p in (7, 16, 33):
            assert population_diagonal(sp, p).size == p


class TestEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_identity(self):
        np.testing.assert_allclose(eigenvalues(np.eye(5)), np.ones(5))

    def test_trace_identity_random_hermitian(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 8))
        b = (a + a.T) / 2
        eigs = eigenvalues(b)
        assert np.sum(eigs) == pytest.approx(np.trace(b), abs=1e-10)
        assert all(x <= y for x, y in zip(eigs, eigs[1:]))
        # the general (nonsymmetric) eigensolver as an independent oracle
        np.testing.assert_allclose(eigs, np.sort(np.linalg.eigvals(b).real), atol=1e-12)

    def test_tridiagonal_form_matches_the_dense_matrix(self):
        rng = np.random.default_rng(11)
        diag, off = rng.standard_normal(9), rng.standard_normal(8)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        np.testing.assert_allclose(eigenvalues(diag, off), eigenvalues(dense), atol=1e-12)

    def test_tridiagonal_of_order_one(self):
        got = eigenvalues(np.array([2.5]), np.array([]))
        assert got.tolist() == [2.5]

    def test_tridiagonal_failure_is_typed(self, monkeypatch):
        from scipy.linalg import lapack

        monkeypatch.setattr(lapack, "dsterf", lambda d, e: (d, 2))
        with pytest.raises(NonConvergence, match="2 off-diagonal"):
            eigenvalues(np.ones(3), np.ones(2))


def _dense_eigenvalues(ensemble, spectrum, p, n, seed):
    """The dense replicate: entry matrix, Gram product, eigensolve."""
    return eigenvalues(assemble_B(spectrum, sample_entries(ensemble, p, n, seed), n))


class TestReplicateEigenvalues:
    HALF = PopulationSpectrum.from_pairs([(0.5, 1.0)])
    SHAPES = [(16, 32), (32, 16)]  # y = 0.5 and y = 2

    @pytest.mark.parametrize("ensemble, spectrum", [
        (RG, BATTERY["two_atom"]), (CG, BATTERY["five_atom"]),
        (EntryEnsemble.rademacher(), IDENTITY), (EntryEnsemble.student_t(11.0), IDENTITY),
    ], ids=["rg-two_atom", "cg-five_atom", "rademacher", "student_t"])
    def test_other_laws_keep_the_dense_stream(self, ensemble, spectrum):
        got = replicate_eigenvalues(ensemble, spectrum, 12, 20, 5)
        assert got.tobytes() == _dense_eigenvalues(ensemble, spectrum, 12, 20, 5).tobytes()

    def test_a_truncated_gaussian_law_takes_the_dense_stream(self):
        assert replicate_sampler(RG_TRUNCATED, IDENTITY) == DENSE
        got = replicate_eigenvalues(RG_TRUNCATED, IDENTITY, 12, 20, 5)
        x = truncate_normalize(sample_entries(RG, 12, 20, 5), 20, 1.0, RG)
        assert got.tobytes() == eigenvalues(assemble_B(IDENTITY, x, 20)).tobytes()

    @pytest.mark.parametrize("ensemble, spectrum", [
        (RG, IDENTITY), (RG, BATTERY["two_atom"]), (RG_TRUNCATED, IDENTITY),
    ], ids=["laguerre", "dense", "dense-clipped"])
    def test_each_replicate_solves_once_through_eigenvalues(self, ensemble, spectrum,
                                                            monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return eigenvalues(*args)

        monkeypatch.setattr(simulator, "eigenvalues", counted)
        replicate_eigenvalues(ensemble, spectrum, 12, 20, 5)
        assert len(calls) == 1

    @pytest.mark.parametrize("ensemble", [RG, CG], ids=["RG", "CG"])
    @pytest.mark.parametrize("p, n", SHAPES)
    def test_two_sample_ks_against_the_dense_path(self, ensemble, p, n):
        # tr B^2, the largest and the smallest nonzero eigenvalue of 2000
        # bidiagonal replicates against 2000 dense ones, on other streams
        reps, first_nonzero = 2000, p - min(p, n)

        def statistics(draw, root):
            eigs = np.array([draw(ensemble, self.HALF, p, n, replicate_seed(root, i))
                             for i in range(reps)])
            return {"tr B^2": np.sum(eigs**2, axis=1), "lambda_max": eigs[:, -1],
                    "smallest nonzero": eigs[:, first_nonzero]}

        fast = statistics(replicate_eigenvalues, 1)
        dense = statistics(_dense_eigenvalues, 2)
        for name in fast:
            assert stats.ks_2samp(fast[name], dense[name]).pvalue > 0.01, name

    @pytest.mark.parametrize("ensemble", [RG, CG], ids=["RG", "CG"])
    @pytest.mark.parametrize("p, n", SHAPES)
    def test_trace_is_a_scaled_chi_square_on_both_paths(self, ensemble, p, n):
        # tr B = t chi^2_{beta p n} / (beta n): the bidiagonal degrees of
        # freedom sum to beta p n, as the beta p n squared normals of X do
        beta, t, reps = (1 if ensemble is RG else 2), 0.5, 1500
        law = stats.chi2(beta * p * n)
        for draw in (replicate_eigenvalues, _dense_eigenvalues):
            traces = np.array([np.sum(draw(ensemble, self.HALF, p, n, replicate_seed(3, i)))
                               for i in range(reps)])
            assert stats.kstest(traces * beta * n / t, law.cdf).pvalue > 0.01, draw.__name__

    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(ensemble=st.sampled_from([RG, CG]), p=st.integers(1, 40), n=st.integers(1, 40),
           t=st.floats(0.01, 1.0), seed=st.integers(0, 2**64 - 1))
    def test_bidiagonal_shape_and_scale(self, ensemble, p, n, t, seed):
        eigs = replicate_eigenvalues(ensemble, IDENTITY, p, n, seed)
        assert eigs.shape == (p,)
        assert np.all(np.diff(eigs) >= 0) and eigs[0] >= 0
        assert np.count_nonzero(eigs == 0.0) == max(p - n, 0)
        scaled = replicate_eigenvalues(ensemble, PopulationSpectrum.from_pairs([(t, 1.0)]),
                                       p, n, seed)
        np.testing.assert_allclose(scaled, t * eigs, rtol=1e-14, atol=0.0)


LOW_DEGREE = {"1": TestFunction.polynomial([1.0]), "x": F_X, "x^2": TestFunction.monomial(2),
              "3-x+2x^2": TestFunction.polynomial([3.0, -1.0, 2.0])}


def _check_against_the_spectrum(f, ensemble, spectrum, p, n, seed):
    """The closed form against ``sum f`` over ``replicate_eigenvalues``'s spectrum.

    The sum agrees within ``1e-12 (1 + |sum|)`` and the extremes within
    ``1e-13 lambda_max``.
    """
    eigs = replicate_eigenvalues(ensemble, spectrum, p, n, seed)
    total, lam_min, lam_max = replicate_statistic(f, ensemble, spectrum, p, n, seed)
    want = lss_centered(f, eigs, 0.0)
    assert abs(total - want) <= 1e-12 * (1.0 + abs(want))
    assert abs(lam_min - eigs[0]) <= 1e-13 * eigs[-1]
    assert abs(lam_max - eigs[-1]) <= 1e-13 * eigs[-1]
    if p > n:
        assert lam_min == 0.0


def _no_spectrum(*args):
    raise AssertionError("the closed form solved the full spectrum")


class TestReplicateStatistic:
    HALF = PopulationSpectrum.from_pairs([(0.5, 1.0)])

    @pytest.mark.parametrize("ensemble", [RG, CG], ids=["RG", "CG"])
    @pytest.mark.parametrize("p, n", [(12, 20), (20, 12), (15, 15), (1, 9), (9, 1), (1, 1)])
    @pytest.mark.parametrize("name", list(LOW_DEGREE))
    def test_closed_form_matches_the_spectrum(self, ensemble, p, n, name, monkeypatch):
        f = LOW_DEGREE[name]
        assert replicate_reduction(f, ensemble, self.HALF) == CLOSED_FORM
        for seed in range(4):
            _check_against_the_spectrum(f, ensemble, self.HALF, p, n, seed)
        monkeypatch.setattr(simulator, "eigenvalues", _no_spectrum)
        replicate_statistic(f, ensemble, self.HALF, p, n, 0)

    @pytest.mark.parametrize("spectrum, p, n", [
        (IDENTITY, 20, 12), (IDENTITY, 2, 1), (PopulationSpectrum.from_pairs([(0.0, 1.0)]), 8, 12),
    ], ids=["p>n", "p>n=1", "t=0"])
    def test_log_rejects_a_zero_eigenvalue(self, spectrum, p, n):
        with pytest.raises(LogDomain, match=r"at z = -?0\.0, on its branch cut"):
            replicate_statistic(TestFunction.log(), RG, spectrum, p, n, 3)

    def test_bisection_failure_is_typed(self, monkeypatch):
        from scipy.linalg import lapack

        monkeypatch.setattr(lapack, "dstebz", lambda d, e, *args: (0, d, None, None, 1))
        with pytest.raises(NonConvergence, match="dstebz"):
            replicate_statistic(F_X, RG, IDENTITY, 12, 20, 5)

    def test_trailing_zero_coefficients_keep_the_closed_form(self, monkeypatch):
        padded = TestFunction.polynomial([0.0, 0.0, 1.0, 0.0])
        assert replicate_reduction(padded, RG, IDENTITY) == CLOSED_FORM
        monkeypatch.setattr(simulator, "eigenvalues", _no_spectrum)
        assert (replicate_statistic(padded, RG, IDENTITY, 12, 20, 5)
                == replicate_statistic(TestFunction.monomial(2), RG, IDENTITY, 12, 20, 5))

    @pytest.mark.parametrize("f, ensemble, spectrum", [
        (TestFunction.monomial(3), RG, IDENTITY),
        (TestFunction.monomial(11), CG, HALF),
        (TestFunction.monomial(2), RG, BATTERY["two_atom"]),
        (TestFunction.log(), RG, IDENTITY),
        (TestFunction.log(), EntryEnsemble.rademacher(), IDENTITY),
        (F_X, RG_TRUNCATED, IDENTITY),
    ], ids=["x^3-laguerre", "x^11-laguerre-cg", "x^2-dense", "log-laguerre", "log-rademacher",
            "x-dense-clipped"])
    def test_other_replicates_sum_f_over_the_spectrum_bit_for_bit(self, f, ensemble,
                                                                   spectrum):
        assert replicate_reduction(f, ensemble, spectrum) == SPECTRUM
        eigs = replicate_eigenvalues(ensemble, spectrum, 12, 20, 5)
        got = replicate_statistic(f, ensemble, spectrum, 12, 20, 5)
        assert got == (lss_centered(f, eigs, 0.0), eigs[0], eigs[-1])

    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(ensemble=st.sampled_from([RG, CG]), p=st.integers(1, 40), n=st.integers(1, 40),
           t=st.floats(0.01, 1.0), seed=st.integers(0, 2**64 - 1),
           name=st.sampled_from(list(LOW_DEGREE)))
    def test_closed_form_property(self, ensemble, p, n, t, seed, name):
        spectrum = PopulationSpectrum.from_pairs([(t, 1.0)])
        _check_against_the_spectrum(LOW_DEGREE[name], ensemble, spectrum, p, n, seed)

    def test_run_rows_match_the_spectrum(self):
        f, p, n = TestFunction.monomial(2), 16, 32
        mom = compute_moments(f, IDENTITY, p / n, RG)
        cfg = SimConfig(ratio=AspectRatio(p=p, n=n), replicates=6, root_seed=9)
        rec = run_experiment(cfg, mom)
        assert rec.statistic == CLOSED_FORM
        centering = lss_centering(f, p, mom.s_under)
        for row in rec.rows:
            eigs = replicate_eigenvalues(RG, IDENTITY, p, n, row.seed)
            want = normalize(lss_centered(f, eigs, centering), mom)
            assert row.value == pytest.approx(want, rel=0, abs=1e-12)
            assert (row.lam_min, row.lam_max) == pytest.approx((eigs[0], eigs[-1]),
                                                               rel=1e-13)


class TestLssCentered:
    def test_constant_exactly_zero(self):
        f1 = TestFunction.polynomial([1.0])
        eigs = np.array([0.5, 1.0, 2.0])
        centering = lss_centering(f1, 3, companion(IDENTITY, 0.5))
        assert lss_centered(f1, eigs, centering) == pytest.approx(0.0, abs=1e-9)

    def test_zero_population_zero_statistic(self):
        sp0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
        eigs = np.zeros(4)
        centering = lss_centering(F_X, 4, companion(sp0, 0.5))
        assert lss_centered(F_X, eigs, centering) == pytest.approx(0.0, abs=1e-12)

    def test_linear_matches_trace(self):
        p, n = 12, 24
        x = sample_entries(RG, p, n, seed=12)
        b = assemble_B(IDENTITY, x, n)
        eigs = eigenvalues(b)
        got = lss_centered(F_X, eigs, lss_centering(F_X, p, companion(IDENTITY, p / n)))
        assert got == pytest.approx(np.trace(b) - p * 1.0, abs=1e-8)

    def test_log_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(LogDomain):
            lss_centered(TestFunction.log(), np.array([-0.1, 1.0]), 0.0)


class TestRunExperiment:
    def _config(self, **kw):
        defaults = dict(ratio=AspectRatio(p=16, n=32), replicates=8, root_seed=777)
        defaults.update(kw)
        return SimConfig(**defaults)

    def test_deterministic_record(self):
        cfg = self._config()
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        r1 = run_experiment(cfg, mom)
        r2 = run_experiment(cfg, mom)
        assert [r.value for r in r1.rows] == [r.value for r in r2.rows]
        assert [r.seed for r in r1.rows] == [r.seed for r in r2.rows]

    def test_normalized_variance_near_one(self):
        # chi-square concentration: 2000 samples put the sample variance of
        # the unit-variance statistic within 0.1 of 1
        cfg = self._config(ratio=AspectRatio(p=128, n=256), replicates=2000,
                           root_seed=2024)
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        rec = run_experiment(cfg, mom)
        assert abs(rec.variance - 1.0) <= 0.1
        assert abs(rec.mean) <= 0.1
        assert 0.0 <= rec.ks <= 1.0
        # edge fluctuations at this n occasionally leave the +-eps/2 band;
        # the contract is counting + logging, not failure
        assert rec.confinement_violations <= 0.05 * cfg.replicates

    def test_confinement_band_follows_the_run_contour(self):
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        lo, hi = support_interval(IDENTITY, 0.5)

        def outside(rec, margin):
            return sum(r.lam_min < lo - margin / 2 or r.lam_max > hi + margin / 2
                       for r in rec.rows)

        # contour margins of 0.01 and 0.03 against the default 0.19: the
        # narrowest band is left by one of these replicates, the others by none
        cfg = self._config(ratio=AspectRatio(p=64, n=128), replicates=20)
        rec = run_experiment(cfg, compute_moments(F_X, IDENTITY, 0.5, RG, eps=0.01))
        assert rec.confinement_violations == outside(rec, 0.01) == 1
        rec = run_experiment(cfg, compute_moments(F_X, IDENTITY, 0.5, RG, eps=0.03))
        assert rec.confinement_violations == outside(rec, 0.03) == 0
        assert outside(rec, default_margin(IDENTITY, 0.5)) == 0
        # the default contour keeps the default band
        assert run_experiment(cfg, mom).confinement_violations == 0
        # log's mapped contour has a narrower margin at lo than at hi, so the
        # band takes each edge halfway to its own crossing: at contour.eps =
        # 0.03 one replicate's lam_min lies between x_l and (lo + x_l) / 2,
        # inside lo - eps / 2
        log_mom = compute_moments(TestFunction.log(), IDENTITY, 0.5, RG, eps=0.03)
        c = log_mom.contour
        rec = run_experiment(cfg, log_mom)
        flagged = [r for r in rec.rows
                   if r.lam_min < (lo + c.x_l) / 2 or r.lam_max > (hi + c.x_r) / 2]
        assert rec.confinement_violations == len(flagged) == 1
        assert c.x_l < flagged[0].lam_min < (lo + c.x_l) / 2
        assert flagged[0].lam_min > lo - 0.03 / 2

    def test_run_solves_no_transform_past_its_moments(self, monkeypatch):
        # the centering runs over the transform compute_moments solved on
        # its contour, so a run given those moments solves nothing
        import lsslab.stieltjes as stieltjes_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("the transform was solved")

        for f in (F_X, TestFunction.monomial(11), TestFunction.log()):
            mom = compute_moments(f, BATTERY["five_atom"], 0.5, RG)
            with monkeypatch.context() as m:
                m.setattr(stieltjes_mod, "s_under_grid", no_solve)
                rec = run_experiment(self._config(replicates=2), mom)
            assert np.isfinite([r.value for r in rec.rows]).all()

    def test_moments_at_another_ratio_rejected_before_any_draw(self, monkeypatch):
        # moments of f = x at y = 1/4 would center, normalize and band a run at
        # p/n = 1/2 at the wrong law (mean about 45, every replicate flagged)
        import lsslab.simulator as sim_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("an entry matrix was drawn")

        monkeypatch.setattr(sim_mod, "sample_entries", no_draw)
        cfg = self._config(ratio=AspectRatio(p=64, n=128))
        with pytest.raises(ConstraintViolation, match="y_n=0.25.*64/128"):
            run_experiment(cfg, compute_moments(F_X, IDENTITY, 0.25, RG))
        assert [fl.name for fl in fields(SimConfig)] == ["ratio", "replicates", "root_seed"]

    def test_memory_budget_enforced(self):
        with pytest.raises(ValueError, match="memory budget"):
            self._config(ratio=AspectRatio(p=1 << 14, n=1 << 14))

    @pytest.mark.parametrize("base", [RG, CG, EntryEnsemble.student_t(11.0)],
                             ids=["rg", "cg", "student_t"])
    def test_truncated_run_draws_the_law_of_its_moments(self, base, monkeypatch):
        law = truncated_law(base, 32, default_eta(32))
        mom = compute_moments(F_X, IDENTITY, 0.5, law)
        assert mom.ensemble is law and mom.ensemble.violates_matching
        drawn = []

        def recording(ensemble, p, n, seed):
            drawn.append(ensemble)
            return sample_entries(ensemble, p, n, seed)

        monkeypatch.setattr(simulator, "sample_entries", recording)
        rec = run_experiment(self._config(replicates=4), mom)
        assert len(drawn) == 4 and all(e is mom.ensemble for e in drawn)
        assert rec.sampler == DENSE and np.isfinite([r.value for r in rec.rows]).all()

    @pytest.mark.parametrize("base", [EntryEnsemble.student_t(11.0), RG, CG],
                             ids=["student_t", "rg", "cg"])
    def test_truncated_run_matches_reference_loop(self, base, monkeypatch):
        p, n = 16, 32
        cfg = self._config(replicates=5)
        calls = []
        original = simulator.truncated_moments

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "truncated_moments", counting)
        mom = compute_moments(F_X, IDENTITY, 0.5, truncated_law(base, n, default_eta(n)))
        rec = run_experiment(cfg, mom)
        assert len(calls) == 1  # one law, one quadrature, for every replicate

        centering = lss_centering(F_X, p, mom.s_under)
        expected = []
        for i in range(cfg.replicates):
            x = sample_entries(base, p, n, replicate_seed(cfg.root_seed, i))
            x = truncate_normalize(x, n, default_eta(n), base)
            eigs = eigenvalues(assemble_B(IDENTITY, x, n))
            stat = lss_centered(F_X, eigs, centering)
            expected.append((normalize(stat, mom), eigs[0], eigs[-1]))
        assert [(r.value, r.lam_min, r.lam_max) for r in rec.rows] == expected
