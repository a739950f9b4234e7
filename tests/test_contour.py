import math

import numpy as np
import pytest

from conftest import BATTERY
from lsslab import clt_moments
from lsslab.clt_moments import compute_moments
from lsslab.contour import MIN_RHO, Contour, build_contour, default_margin, integrate
from lsslab.errors import FlatContour, LogDomain, NodeSingularity, QuadratureStall
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)

IDENTITY = PopulationSpectrum.identity()
FOUR_I = PopulationSpectrum.from_pairs([(4.0, 1.0)])


class TestBuild:
    def test_rectangle_from_margin(self):
        # the ellipse with foci lo = 0.25 and hi = 2.25 through hi + eps
        c = build_contour(IDENTITY, 0.25, eps=0.05)
        assert c.x_l == pytest.approx(0.20)
        assert c.x_r == pytest.approx(2.30)
        assert c.v_0 == pytest.approx(math.sqrt(1.05**2 - 1.0))
        assert c.rho == pytest.approx(1.05 + math.sqrt(1.05**2 - 1.0))

    @pytest.mark.parametrize("spectrum", [IDENTITY, FOUR_I], ids=["identity", "4I"])
    @pytest.mark.parametrize("y", [0.25, 2.0, 10.0])
    @pytest.mark.parametrize("eps", [None, 0.3])
    def test_confocal_through_hi_plus_eps(self, spectrum, y, eps):
        # eps alone sets the ellipse: foci lo and hi, a^2 - b^2 = h^2, x_r = hi + eps
        lo, hi = support_interval(spectrum, y)
        c = build_contour(spectrum, y, eps=eps)
        a, h = (c.x_r - c.x_l) / 2, (hi - lo) / 2
        assert (c.x_l + c.x_r) / 2 == pytest.approx((lo + hi) / 2, rel=1e-14)
        assert c.x_r == pytest.approx(hi + (eps or default_margin(spectrum, y)), rel=1e-14)
        assert a * a - c.v_0 * c.v_0 == pytest.approx(h * h, rel=1e-12)
        e = (c.x_r - hi) / h
        assert c.rho == pytest.approx(1 + e + math.sqrt(e * (2 + e)), rel=1e-12)

    def test_negative_left_edge_when_bulk_touches_zero(self):
        c = build_contour(IDENTITY, 4.0, eps=0.05)
        assert c.x_l == pytest.approx(-0.05)

    def test_default_margin_formula(self):
        lo, hi = support_interval(IDENTITY, 0.5)
        assert default_margin(IDENTITY, 0.5) == pytest.approx(0.05 * (hi - lo + 1.0))

    def test_log_default_radii(self):
        # in w = sqrt(z) the bulk is [1/2, 3/2] at y = 0.25, and log's
        # singularity w = 0 sits at radius R_w = (hi^(1/4) + lo^(1/4)) /
        # (hi^(1/4) - lo^(1/4)); the radius sqrt(R_w) balances the bulk against 0
        lo, hi = support_interval(IDENTITY, 0.25)
        c = build_contour(IDENTITY, 0.25, f=TestFunction.log())
        r_w = (hi**0.25 + lo**0.25) / (hi**0.25 - lo**0.25)
        assert c.sqrt_map
        assert c.rho == pytest.approx(math.sqrt(r_w))
        # confocal in w with 1/2 and 3/2; x_l and x_r are the squares of its crossings
        w_l, w_r = math.sqrt(c.x_l), math.sqrt(c.x_r)
        assert (w_l + w_r) / 2 == pytest.approx(1.0)
        a = (w_r - w_l) / 2
        assert a * a - c.v_0 * c.v_0 == pytest.approx(0.25)
        assert 0 < c.x_l < lo and c.x_r > hi

    def test_sqrt_map_crosses_the_real_axis_at_x_l_and_x_r(self):
        # z = w^2 maps the w-ellipse one to one: the contour winds once around
        # every real point in (x_l, x_r), around none outside it, and not around 0
        c = build_contour(IDENTITY, 0.5, f=TestFunction.log())
        for x, winding in ((0.0, 0), (c.x_l - 0.01, 0), (c.x_l + 0.01, 1),
                           (1.0, 1), (c.x_r - 0.01, 1), (c.x_r + 0.01, 0)):
            val = integrate(lambda z: 1.0 / (z - x), c)
            assert abs(val - 2j * np.pi * winding) <= 1e-9

    def test_log_rejected_when_left_edge_nonpositive(self):
        with pytest.raises(LogDomain):
            build_contour(IDENTITY, 4.0, eps=0.05, f=TestFunction.log())
        with pytest.raises(LogDomain):
            build_contour(IDENTITY, 1.0, f=TestFunction.log())
        # sqrt(lo) = 0.5 and sqrt(hi) = 1.5 at y = 0.25: eps = 2 takes the
        # ellipse in w = sqrt(z) out to sqrt(4.25) and its left crossing below 0
        with pytest.raises(LogDomain):
            build_contour(IDENTITY, 0.25, eps=2.0, f=TestFunction.log())

    def test_log_domain_checked_before_any_solve(self, monkeypatch):
        # sqrt(lo) = 0.5 at y = 0.25: eps = 2 takes the ellipse in w = sqrt(z)
        # across 0 (eps = 0.15 stays inside and runs, see test_clt_moments)
        def no_solve(*args, **kwargs):
            raise AssertionError("the transform was solved")

        monkeypatch.setattr(clt_moments, "s_under_grid", no_solve)
        with pytest.raises(LogDomain):
            compute_moments(TestFunction.log(), IDENTITY, 0.25, EntryEnsemble.real_gaussian(),
                            eps=2.0)

    @pytest.mark.parametrize("f, y", [(None, 0.5), (None, 3.0), (TestFunction.log(), 0.5)],
                             ids=["ellipse", "ellipse-y3", "sqrt_map"])
    def test_flat_contour_names_the_eps_that_clears_it(self, f, y):
        # rho = 1 + e + sqrt(e (2 + e)) with e = eps / h (in w for log) is
        # 1.0012 at eps = 1e-6 on the identity at y = 0.5, below MIN_RHO
        with pytest.raises(FlatContour, match="contour.eps >= ") as err:
            build_contour(IDENTITY, y, eps=1e-6, f=f)
        named = float(str(err.value).rsplit(" ", 1)[1])
        assert build_contour(IDENTITY, y, eps=named, f=f).rho >= MIN_RHO
        with pytest.raises(FlatContour):
            build_contour(IDENTITY, y, eps=0.99 * named, f=f)

    def test_flat_contour_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the transform was solved")

        monkeypatch.setattr(clt_moments, "s_under_grid", no_solve)
        with pytest.raises(FlatContour):
            compute_moments(TestFunction.monomial(2), IDENTITY, 1.5,
                            EntryEnsemble.real_gaussian(), eps=1e-5)

    @pytest.mark.parametrize("f", [None, TestFunction.log()], ids=["ellipse", "sqrt_map"])
    @pytest.mark.parametrize("m0", [16, 24, 64])
    def test_levels_nest_off_the_real_axis(self, m0, f):
        # from the ladder's first level m0/2 on
        c = build_contour(IDENTITY, 0.5, m=m0, f=f)
        coarse_z, coarse_w = c.nodes(m0 // 2)
        for k in range(10):
            z, w = c.nodes(m0 * 2**k)
            assert np.all(z.imag != 0.0)
            # the rule at m holds the rule at m/2 as its even-index half
            assert np.array_equal(z[::2], coarse_z)
            assert np.array_equal(2.0 * w[::2], coarse_w)
            coarse_z, coarse_w = z, w

    @pytest.mark.parametrize("f", [None, TestFunction.log()], ids=["ellipse", "sqrt_map"])
    def test_upper_half_folds_the_symmetric_rule(self, f):
        # Cauchy's formula (1/2 pi i) oint g(z)/(z - lam) dz = g(lam) for real g and
        # lam in the bulk: the mirror half adds the conjugate of this half's sum
        c = build_contour(IDENTITY, 0.5, m=128, f=f)
        g = f or TestFunction.monomial(3)
        z, w = c.upper_half()
        assert z.size == 64 and np.all(z.imag > 0.0)
        lo, hi = support_interval(IDENTITY, 0.5)
        for lam in np.linspace(lo, hi, 7):
            half = complex(w @ (g(z) / (z - lam))) / (2j * np.pi)
            assert 2.0 * half.real == pytest.approx(complex(g(lam)).real, rel=1e-13, abs=1e-13)

    def test_minimum_node_count(self):
        with pytest.raises(ValueError, match="node count"):
            Contour(0.0, 1.0, 1.0, m=8)

    def test_sqrt_map_needs_positive_left_crossing(self):
        with pytest.raises(ValueError, match="needs x_l > 0"):
            Contour(0.0, 1.0, 1.0, sqrt_map=True)

    def test_odd_node_count_rejected(self):
        # the ladder starts at m/2, which only an even m has
        with pytest.raises(ValueError, match="node count 17 must be even"):
            Contour(0.0, 1.0, 1.0, m=17)


class TestIntegrate:
    @pytest.fixture()
    def contour(self):
        return build_contour(IDENTITY, 0.25, eps=0.05)

    def test_constant_integrates_to_zero(self, contour):
        val = integrate(lambda z: np.ones_like(z), contour)
        assert abs(val) <= 1e-12

    @pytest.mark.parametrize("m", [32, 64])
    def test_interior_residue(self, contour, m):
        c = complex(1.2, 0.3)
        cc = Contour(contour.x_l, contour.x_r, contour.v_0, m=m)
        val = integrate(lambda z: 1.0 / (z - c), cc)
        assert abs(val - 2j * np.pi) <= 1e-10 * (1 + 2 * np.pi)

    @pytest.mark.parametrize("m", [32, 64])
    def test_exterior_gives_zero(self, contour, m):
        cc = Contour(contour.x_l, contour.x_r, contour.v_0, m=m)
        val = integrate(lambda z: 1.0 / (z - (4.0 + 0.2j)), cc)
        assert abs(val) <= 1e-10

    def test_each_node_evaluated_once(self, contour):
        # a pole near the contour takes the ladder past its first levels; the
        # points evaluated are the nodes of the accepted level, each once
        seen = []

        def g(z):
            seen.append(z)
            return 1.0 / (z - (contour.x_r + 0.08))

        integrate(g, contour)
        z = np.concatenate(seen)
        assert len(seen) > 2 and z.size > contour.m
        assert np.array_equal(np.sort_complex(z), np.sort_complex(contour.nodes(z.size)[0]))

    def test_orientation_positive(self, contour):
        val = integrate(lambda z: 1.0 / (z - 1.0), contour)
        assert val.imag == pytest.approx(2 * np.pi, rel=1e-10)

    def test_error_estimates_decrease(self, contour):
        # node-doubling error estimates shrink monotonically for analytic g;
        # nearby poles keep convergence slow enough to stay above the
        # rounding floor across all levels
        near = contour.x_r + 0.08
        battery = [
            lambda z: 1.0 / (z - near),
            lambda z: np.exp(z) / (z - near) ** 2,
            lambda z: 1.0 / ((z - 1.0) * (z - near)),
        ]
        for g in battery:
            sums = []
            for m in (16, 32, 64, 128):
                z, w = contour.nodes(m)
                sums.append(np.sum(w * g(z)))
            diffs = [abs(b - a) for a, b in zip(sums, sums[1:])]
            assert diffs[0] > diffs[1] > diffs[2] > 1e-14

    def test_node_singularity(self, contour):
        z_node = contour.nodes()[0][3]

        def g(z):
            out = np.ones_like(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                return out / (z - z_node)

        with pytest.raises(NodeSingularity):
            integrate(g, contour)

    def test_quadrature_stall_near_pole(self, contour):
        # pole a hair outside the contour defeats node doubling
        c_out = complex(contour.x_r + 1e-10, 0.0)
        with pytest.raises(QuadratureStall):
            integrate(lambda z: 1.0 / (z - c_out), contour)

