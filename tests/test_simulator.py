import hashlib
import math
from dataclasses import replace

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
from lsslab.simulator import (CLOSED_FORM, DENSE, SPECTRUM, assemble_B,
                              default_eta, draw_entries, eigenvalues, lss_centered,
                              population_diagonal, realized_spectrum, replicate_eigenvalues,
                              replicate_reduction,
                              replicate_sampler, replicate_seed, replicate_statistic,
                              run_experiment, sample_entries, splitmix64, truncate_normalize,
                              truncated_law, truncated_moments)
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)
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


class TestStreams:
    """SHA-256 of each law's draws at one seed: any move of a stream fails here.

    A numpy upgrade that changes a generator's output fails too; the CSV
    bodies of every run that draws the law move with it.
    """

    T11 = EntryEnsemble.student_t(11.0)
    DRAWS = {
        "RG": (RG, "80e271d29068cfcf6b5c802852f41af74eca0f590a3dfd6df5f9af8a64b49deb"),
        "CG": (CG, "87ef1fea951e51d63fbb7d917087d4df22603be2297dfe8c0e991f1be2c073bc"),
        "rademacher": (EntryEnsemble.rademacher(),
                       "15476b9393df4498bc4b09f5d1c1e6ad1f434f67c621db51600f1b3b2442650d"),
        "student_t": (T11, "93aa9d3b2189172fec1d75a7a935164a8399fb76f2321637e2c3471def4eb642"),
        "student_t-truncated": (
            truncated_law(T11, 512, default_eta(512)),
            "55b00e79ec1633d7d7d327e74ec0bb398359f3a4eb3f0d73aeedd12bcabbad48"),
    }
    FACTORS = {
        "RG": (RG, "2bd82c2f2dfd7b7540b162da3e19ffbe54a1fccd4f7d332369a3425c4d19799b"),
        "CG": (CG, "6a8cc3de05d7452d89fe6b27f0c753ed32dc74b49fa5320047cdcf91ac1cb8cc"),
    }

    @pytest.mark.parametrize("name", DRAWS)
    def test_entry_draws_keep_their_digest(self, name):
        law, digest = self.DRAWS[name]
        x = sample_entries(law, 256, 512, seed=7)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", FACTORS)
    def test_bidiagonal_factor_keeps_its_digest(self, name):
        law, digest = self.FACTORS[name]
        d2, e2 = simulator._laguerre_factor(law, 256, 512, 7)
        assert hashlib.sha256(d2.tobytes() + e2.tobytes()).hexdigest() == digest


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
        assert law.truncation == (1.5, 0.0, 1.0, 1.0)
        assert law.fourth_moment == 1.0 and law.beta_x == -2.0
        with pytest.raises(DegenerateTruncation):
            truncated_law(rad, 1, 1.0)  # |x| = 1 is not below the threshold

    def test_truncated_law_is_the_base_law_plus_its_truncation(self):
        t11 = EntryEnsemble.student_t(11.0)
        law = truncated_law(t11, 64, 0.5)
        assert replace(law, truncation=None) == t11
        assert law.fourth_moment == law.truncation[3] != t11.fourth_moment
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
        # the density the rule integrates is scipy's to the bit at each of its nodes
        x, _ = simulator._half_line_rule(min(threshold, 1e3))
        for u in (-x, x):
            assert np.array_equal(simulator._student_t_density(u, df),
                                  scale * stats.t.pdf(u * scale, df))
        moments = truncated_moments(t_df, threshold)
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
        eta = default_eta(40)
        c = eta * 40 ** 0.25
        # the threshold, the values just inside it and the infinities, on each side
        inside = np.nextafter(c, 0.0)
        edges = np.array([c, -c, inside, -inside, np.inf, -np.inf])
        x[0, :6] = edges
        if np.iscomplexobj(x):
            x[1, :6] = [complex(0.0, e) for e in edges]  # 1j * inf would hold a NaN
            x[2, :2] = np.array([c, inside]) * np.exp(0.7j)
        kept = x.copy()
        mean, var, _ = truncated_moments(ensemble, c)
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
    def test_textbook_expression_bit_for_bit(self, ensemble, p, n):
        # assemble_B scales the entries it is handed in place, so it gets a copy
        sp = BATTERY["five_atom"]
        x = sample_entries(ensemble, p, n, seed=9)
        scaled = np.sqrt(population_diagonal(sp, p))[:, None] * x
        b = scaled @ scaled.conj().T / n
        assert np.array_equal(assemble_B(sp, x.copy(), n), (b + b.conj().T) / 2.0)

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

    def test_realized_spectrum_weighs_the_apportioned_counts(self):
        # five weights of 0.2 at p = 128: quotas 25.6, the three remainders to
        # the largest atoms; at p = 125 every count is exact, and H_p is H
        five = BATTERY["five_atom"]
        assert realized_spectrum(five, 128).atoms == tuple(
            (t, c / 128) for t, c in zip((0.2, 0.4, 0.6, 0.8, 1.0), (25, 25, 26, 26, 26)))
        assert realized_spectrum(five, 125) == five
        assert realized_spectrum(IDENTITY, 7) == IDENTITY
        # atoms keep the spectrum's order; those with no entry are dropped
        sp = PopulationSpectrum.from_pairs([(1.0, 0.5), (0.0, 0.1), (0.4, 0.4)])
        assert realized_spectrum(sp, 5).atoms == ((1.0, 0.6), (0.4, 0.4))

    def test_realized_spectrum_draws_the_same_diagonal(self):
        # T_p of H_p is T_p of H, bit for bit, zero-count atoms dropped or not
        rng = np.random.default_rng(12)
        dropped = 0
        for _ in range(3000):
            k = int(rng.integers(1, 7))
            atoms = np.round(rng.uniform(0.0, 4.0, k), int(rng.integers(1, 4)))
            atoms[rng.random(k) < 0.15] = 0.0
            weights = rng.dirichlet(np.ones(k))
            weights[-1] = 1.0 - math.fsum(weights[:-1])
            sp = PopulationSpectrum.from_pairs(zip(atoms, weights))
            p = int(rng.integers(1, 300))
            h_p = realized_spectrum(sp, p)
            assert np.array_equal(population_diagonal(h_p, p), population_diagonal(sp, p))
            assert realized_spectrum(h_p, p) == h_p
            dropped += len(h_p.atoms) < k
        assert dropped >= 100


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
        rec = run_experiment(mom, p, n, 6, 9)
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
    @staticmethod
    def _run(mom, p=16, n=32, replicates=8, root_seed=777):
        return run_experiment(mom, p, n, replicates, root_seed)

    def test_deterministic_record(self):
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        r1 = self._run(mom)
        r2 = self._run(mom)
        assert [r.value for r in r1.rows] == [r.value for r in r2.rows]
        assert [r.seed for r in r1.rows] == [r.seed for r in r2.rows]

    def test_normalized_variance_near_one(self):
        # chi-square concentration: 2000 samples put the sample variance of
        # the unit-variance statistic within 0.1 of 1
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        rec = self._run(mom, 128, 256, replicates=2000, root_seed=2024)
        assert abs(rec.variance - 1.0) <= 0.1
        assert abs(rec.mean) <= 0.1
        assert 0.0 <= rec.ks <= 1.0
        # edge fluctuations at this n occasionally leave the +-eps/2 band;
        # the contract is counting + logging, not failure
        assert rec.confinement_violations <= 0.05 * 2000

    def test_confinement_band_follows_the_run_contour(self):
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        lo, hi = support_interval(IDENTITY, 0.5)

        def outside(rec, margin):
            return sum(r.lam_min < lo - margin / 2 or r.lam_max > hi + margin / 2
                       for r in rec.rows)

        # contour margins of 0.01 and 0.03 against the default 0.19: the
        # narrowest band is left by one of these replicates, the others by none
        def run(moments):
            return self._run(moments, 64, 128, replicates=20)

        rec = run(compute_moments(F_X, IDENTITY, 0.5, RG, eps=0.01))
        assert rec.confinement_violations == outside(rec, 0.01) == 1
        rec = run(compute_moments(F_X, IDENTITY, 0.5, RG, eps=0.03))
        assert rec.confinement_violations == outside(rec, 0.03) == 0
        assert outside(rec, default_margin(IDENTITY, 0.5)) == 0
        # the default contour keeps the default band
        assert run(mom).confinement_violations == 0
        # log's mapped contour has a narrower margin at lo than at hi, so the
        # band takes each edge halfway to its own crossing: at contour.eps =
        # 0.03 one replicate's lam_min lies between x_l and (lo + x_l) / 2,
        # inside lo - eps / 2
        log_mom = compute_moments(TestFunction.log(), IDENTITY, 0.5, RG, eps=0.03)
        c = log_mom.contour
        rec = run(log_mom)
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
                rec = self._run(mom, replicates=2)
            assert np.isfinite([r.value for r in rec.rows]).all()

    def test_moments_at_another_ratio_rejected_before_any_draw(self, monkeypatch):
        # moments of f = x at y = 1/4 would center, normalize and band a run at
        # p/n = 1/2 at the wrong law (mean about 45, every replicate flagged)
        import lsslab.simulator as sim_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("an entry matrix was drawn")

        monkeypatch.setattr(sim_mod, "sample_entries", no_draw)
        with pytest.raises(ConstraintViolation, match="y_n=0.25.*64/128"):
            self._run(compute_moments(F_X, IDENTITY, 0.25, RG), 64, 128)

    @pytest.mark.parametrize("p, n, replicates, match", [
        (0, 32, 8, ">= 1"), (16, 0, 8, ">= 1"), (16, 32, 0, ">= 1"),
        (1 << 14, 1 << 14, 8, "memory budget"),
    ], ids=["p", "n", "replicates", "budget"])
    def test_run_checked_before_any_draw(self, p, n, replicates, match, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulator, "replicate_statistic", no_draw)
        with pytest.raises(ValueError, match=match):
            self._run(compute_moments(F_X, IDENTITY, 0.5, RG), p, n, replicates)

    def test_dense_budget_counts_the_gram_matrix(self, monkeypatch):
        # p n = 800 fits a budget of 1000 entries, but a dense replicate at
        # p = 40 > n = 20 also holds its 40 x 40 Gram matrix: p max(p, n) = 1600
        def no_draw(*args, **kwargs):
            raise AssertionError("an entry matrix was drawn")

        mom = compute_moments(TestFunction.monomial(2), IDENTITY, 2.0, RG_TRUNCATED)
        monkeypatch.setattr(simulator, "sample_entries", no_draw)
        monkeypatch.setattr(simulator, "MAX_ENTRIES", 1000)
        with pytest.raises(ValueError, match="holds 1600 entries, over the memory budget 1000"):
            self._run(mom, 40, 20)

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
        rec = self._run(mom, replicates=4)
        assert len(drawn) == 4 and all(e is mom.ensemble for e in drawn)
        assert rec.sampler == DENSE and np.isfinite([r.value for r in rec.rows]).all()

    @pytest.mark.parametrize("base", [EntryEnsemble.student_t(11.0), RG, CG],
                             ids=["student_t", "rg", "cg"])
    def test_truncated_run_matches_reference_loop(self, base, monkeypatch):
        p, n = 16, 32
        calls = []
        original = simulator.truncated_moments

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "truncated_moments", counting)
        mom = compute_moments(F_X, IDENTITY, 0.5, truncated_law(base, n, default_eta(n)))
        rec = self._run(mom, replicates=5)
        assert len(calls) == 1  # one law, one quadrature, for every replicate

        centering = lss_centering(F_X, p, mom.s_under)
        expected = []
        for i in range(5):
            x = sample_entries(base, p, n, replicate_seed(777, i))
            x = truncate_normalize(x, n, default_eta(n), base)
            eigs = eigenvalues(assemble_B(IDENTITY, x, n))
            stat = lss_centered(F_X, eigs, centering)
            expected.append((normalize(stat, mom), eigs[0], eigs[-1]))
        assert [(r.value, r.lam_min, r.lam_max) for r in rec.rows] == expected


class TestDensePool:
    """A dense run's replicates on ``dense_workers`` threads, one BLAS thread each."""

    T11 = truncated_law(EntryEnsemble.student_t(11.0), 512, default_eta(512))

    @staticmethod
    def _rows(mom, p, n, replicates, workers, monkeypatch):
        monkeypatch.setattr(simulator, "dense_workers", lambda p, n, replicates: workers)
        return run_experiment(mom, p, n, replicates, 7).rows

    @pytest.mark.parametrize("law, p, n", [(T11, 256, 512), (RG, 128, 256)],
                             ids=["t11-trunc-256x512", "rg-128x256"])
    def test_rows_do_not_depend_on_the_width(self, law, p, n, monkeypatch):
        mom = compute_moments(TestFunction.monomial(2), BATTERY["five_atom"], p / n, law)
        assert replicate_sampler(law, BATTERY["five_atom"]) == DENSE
        rows = [self._rows(mom, p, n, 6, w, monkeypatch) for w in (1, 2, 3)]
        assert rows[1] == rows[0] and rows[2] == rows[0]
        assert [r.index for r in rows[0]] == list(range(6))

    def test_first_failing_replicate_in_index_order_is_named(self, monkeypatch):
        # replicates 1 and 3 draw zero matrices, whose zero eigenvalues log rejects;
        # with two workers replicate 0 runs beside replicate 1
        mom = compute_moments(TestFunction.log(), BATTERY["five_atom"], 0.5, RG)
        failing = {replicate_seed(7, 1), replicate_seed(7, 3)}

        def zeroed(ensemble, p, n, seed):
            x = sample_entries(ensemble, p, n, seed)
            return x * 0.0 if seed in failing else x

        monkeypatch.setattr(simulator, "sample_entries", zeroed)
        with pytest.raises(LogDomain, match=r"^replicate 1: .*branch cut"):
            self._rows(mom, 16, 32, 4, 2, monkeypatch)

    def test_only_a_dense_run_builds_a_pool(self, monkeypatch):
        import concurrent.futures

        widths = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                widths.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        bidiagonal = compute_moments(F_X, IDENTITY, 0.5, RG)
        assert run_experiment(bidiagonal, 16, 32, 3, 7).sampler != DENSE
        assert widths == []
        dense = compute_moments(F_X, BATTERY["two_atom"], 0.5, RG)
        assert run_experiment(dense, 16, 32, 3, 7).sampler == DENSE
        assert widths == [simulator.dense_workers(16, 32, 3)]

    def test_width_follows_cores_replicates_and_memory(self, monkeypatch):
        if simulator._blas_pin() is None:
            assert simulator.dense_workers(16, 32, 100) == 1
            return
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(8)))
        assert simulator.dense_workers(16, 32, 100) == 8
        assert simulator.dense_workers(16, 32, 3) == 3
        # two replicates of 2^12 x 2^13 fill the budget, and p > n counts p x p
        assert simulator.dense_workers(1 << 12, 1 << 13, 100) == 2
        assert simulator.dense_workers(1 << 13, 1 << 12, 100) == 1
        assert simulator.dense_workers(1 << 14, 1 << 12, 100) == 1

    @pytest.mark.skipif(simulator._blas_pin() is None,
                        reason="numpy's BLAS has no openblas_set_num_threads_local")
    def test_csv_body_does_not_depend_on_the_blas_threads(self, tmp_path):
        import json
        import os
        import subprocess
        import sys

        cfg = tmp_path / "t11.json"
        cfg.write_text(json.dumps({
            "kind": "simulate", "p": 256, "n": 512, "replicates": 4, "root_seed": 7,
            "ensemble": {"name": "student_t", "df": 11}, "truncation": {"mode": "on"},
            "spectrum": [{"atom": t, "weight": w} for t, w in BATTERY["five_atom"].atoms]}))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        bodies = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-m", "lsslab.cli", "simulate", "--config",
                                  str(cfg), "--out", str(out)],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            bodies.append((out / "simulate_detail.csv").read_bytes())
        assert bodies[0] == bodies[1]
