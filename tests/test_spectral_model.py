import math

import numpy as np
import pytest

from conftest import population_moment
from lsslab.errors import LogDomain
from lsslab.spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction, support_interval


class TestPopulationSpectrum:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.49)))

    def test_negative_atom_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            PopulationSpectrum(atoms=((-0.1, 1.0),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="not positive"):
            PopulationSpectrum(atoms=((1.0, 1.0), (0.5, 0.0)))

    @pytest.mark.parametrize("pair", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_atom_or_weight_rejected(self, pair):
        with pytest.raises(ValueError, match="finite"):
            PopulationSpectrum.from_pairs([pair])

    def test_no_norm_cap(self):
        # the CLT needs ||T_p|| bounded, not at most 1
        sp = PopulationSpectrum(atoms=((2.0, 0.5), (4.0, 0.5)))
        assert sp.max_eigenvalue == 4.0
        assert sp == PopulationSpectrum.from_pairs([(2.0, 0.5), (4.0, 0.5)])

    def test_moments(self):
        sp = PopulationSpectrum.from_pairs([(0.4, 0.5), (1.0, 0.5)])
        assert population_moment(sp, 1) == pytest.approx(0.7, abs=1e-15)
        assert population_moment(sp, 2) == pytest.approx(0.58, abs=1e-15)


class TestSupportInterval:
    def test_identity_quarter(self):
        sp = PopulationSpectrum.identity()
        assert support_interval(sp, 0.25) == pytest.approx((0.25, 2.25), abs=1e-15)

    def test_indicator_kills_lower_endpoint(self):
        sp = PopulationSpectrum.identity()
        lo, hi = support_interval(sp, 1.5)
        assert lo == 0.0
        # (1 + sqrt(1.5))^2 = 2.5 + 2 sqrt(1.5)
        assert hi == pytest.approx(2.5 + 2.0 * np.sqrt(1.5), abs=1e-14)

    def test_two_atom_plugin(self):
        sp = PopulationSpectrum.from_pairs([(1.0, 0.5), (2.0, 0.5)])
        lo, hi = support_interval(sp, 0.25)
        assert lo == pytest.approx(1.0 * (1 - 0.5) ** 2, abs=1e-15)  # 0.25
        assert hi == pytest.approx(2.0 * (1 + 0.5) ** 2, abs=1e-15)  # 4.5

    def test_upper_endpoint_monotone_in_y(self):
        sp = PopulationSpectrum.identity()
        ys = np.linspace(1.0, 6.0, 40)
        his = [support_interval(sp, y)[1] for y in ys]
        assert all(b > a for a, b in zip(his, his[1:]))
        assert all(support_interval(sp, y)[0] == 0.0 for y in ys)


class TestTestFunction:
    def test_square_at_complex_point(self):
        f = TestFunction.monomial(2)
        assert f(1 + 1j) == pytest.approx(2j, abs=1e-15)

    def test_square_derivative(self):
        f = TestFunction.monomial(2)
        assert f.deriv(3.0) == pytest.approx(6.0, abs=1e-15)

    def test_log_at_e(self):
        f = TestFunction.log()
        assert f(np.e) == pytest.approx(1.0, abs=1e-15)

    def test_log_domain_violation(self):
        f = TestFunction.log()
        with pytest.raises(LogDomain, match=r"z = -1\.0, on its branch cut"):
            f(-1.0 + 0.0j)
        with pytest.raises(LogDomain, match=r"z = 0\.0, on its branch cut"):
            f.deriv(np.array([1.0, 0.0]))

    def test_log_domain_is_the_branch_cut(self):
        # a node with Re z <= 0 off the real axis is in log's domain: the
        # square-root-mapped contour puts nodes there
        f = TestFunction.log()
        z = np.array([-1.0 + 1e-300j, -2.0 - 0.5j, 0.5j])
        assert np.array_equal(f(z), np.log(z))
        assert np.array_equal(f.deriv(z), 1.0 / z)

    @pytest.mark.parametrize("f", [
        TestFunction.polynomial([1.0, -2.0, 0.5, 3.0]),
        TestFunction.monomial(2),
        TestFunction.log(),
    ], ids=["cubic", "square", "log"])
    def test_derivative_matches_finite_difference(self, f):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            z = complex(rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0))
            fd = (f(z + h) - f(z - h)) / (2 * h)
            exact = f.deriv(z)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_constant_detection_and_label(self):
        assert TestFunction.polynomial([2.0]).is_constant
        assert not TestFunction.monomial(1).is_constant
        assert TestFunction.polynomial([0.0, 1.0, 1.0]).label == "x+x^2"

    def test_degree_is_the_last_nonzero_coefficient(self):
        assert TestFunction.polynomial([0.0, 0.0, 1.0, 0.0]).degree == 2
        assert TestFunction.polynomial([0.0, 0.0]).degree == 0
        assert TestFunction.monomial(11).degree == 11
        assert TestFunction.log().degree is None
        assert TestFunction.polynomial([2.0, 0.0]).is_constant

    def test_vectorized_evaluation(self):
        f = TestFunction.polynomial([1.0, 0.0, 1.0])  # 1 + x^2
        z = np.array([1.0 + 0j, 2.0 + 0j])
        np.testing.assert_allclose(f(z), [2.0, 5.0])


class TestEntryEnsemble:
    def test_rg_moments(self):
        e = EntryEnsemble.real_gaussian()
        assert e.fourth_moment == 3.0 and e.beta_x == 0.0 and not e.is_complex

    def test_cg_moments(self):
        # E|x|^4 = 2 for the circular law, |E x^2|^2 = 0
        e = EntryEnsemble.complex_gaussian()
        assert e.fourth_moment == 2.0 and e.beta_x == 0.0 and e.is_complex
        assert not e.violates_matching

    def test_custom_warning_flag(self):
        rad = EntryEnsemble.rademacher()
        assert rad.beta_x == pytest.approx(-2.0)
        assert rad.violates_matching
        t11 = EntryEnsemble.student_t(11.0)
        assert t11.beta_x == pytest.approx(3.0 * 9.0 / 7.0 - 3.0)
        assert t11.violates_matching

    @pytest.mark.parametrize("df", [4.5, 5.5, 11.0, 30.0])
    def test_student_t_density_is_scipys_to_the_bit(self, df):
        # the closed form repeats scipy.stats.t's log density operation for
        # operation; it is called on arrays, as the truncated moments' rule
        # calls it, and one float at a time gives the same values
        from scipy import stats

        ens = EntryEnsemble.student_t(df)
        scale = math.sqrt(df / (df - 2.0))
        rng = np.random.default_rng(int(df * 10))
        xs = np.concatenate([rng.standard_normal(1000) * 3.0, rng.uniform(-1e3, 1e3, 990),
                             [0.0, -0.0, 5e-324, 1e-8, 0.5, -2.0, 10.0, 1e3, -1e3, 1e6]])
        ours = ens.pdf(xs)
        assert np.array_equal(ours, scale * stats.t.pdf(xs * scale, df))
        assert np.array_equal(ours, [ens.pdf(float(x)) for x in xs])
