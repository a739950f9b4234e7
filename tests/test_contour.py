import math

import numpy as np
import pytest

from conftest import BATTERY
from lsslab import clt_moments
from lsslab.clt_moments import compute_moments
from lsslab.contour import Contour, NodeValues, build_contour, default_margin, integrate
from lsslab.errors import LogDomain, NodeSingularity, QuadratureStall
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)

IDENTITY = PopulationSpectrum.identity()


class TestBuild:
    def test_rectangle_from_margin(self):
        # the ellipse with foci lo = 0.25 and hi = 2.25 through hi + eps
        c = build_contour(IDENTITY, 0.25, eps=0.05, v_0=1.0)
        assert c.x_l == pytest.approx(0.20)
        assert c.x_r == pytest.approx(2.30)
        assert c.v_0 == pytest.approx(math.sqrt(1.05**2 - 1.0))
        assert c.rho == pytest.approx(1.05 + math.sqrt(1.05**2 - 1.0))

    def test_half_height_capped_by_v0(self):
        # the largest confocal ellipse inside [lo - eps, hi + eps] x [-v_0, v_0]
        c = build_contour(IDENTITY, 0.25, eps=0.5, v_0=0.4)
        assert c.v_0 == 0.4
        assert c.x_r == pytest.approx(1.25 + math.sqrt(1.0 + 0.4**2))
        assert c.x_r < 2.25 + 0.5

    def test_negative_left_edge_when_bulk_touches_zero(self):
        c = build_contour(IDENTITY, 4.0, eps=0.05, v_0=1.0)
        assert c.x_l == pytest.approx(-0.05)

    def test_default_margin_formula(self):
        lo, hi = support_interval(IDENTITY, 0.5)
        assert default_margin(IDENTITY, 0.5) == pytest.approx(0.05 * (hi - lo + 1.0))

    def test_log_default_radii(self):
        # R0 = (sqrt(hi) + sqrt(lo)) / (sqrt(hi) - sqrt(lo)) = 2 at y = 0.25;
        # the radius sqrt(R0) balances the bulk against 0
        c = build_contour(IDENTITY, 0.25, f=TestFunction.log())
        assert c.rho == pytest.approx(math.sqrt(2.0))
        # confocal with lo = 0.25 and hi = 2.25
        a = (c.x_r - c.x_l) / 2
        assert a * a - c.v_0 * c.v_0 == pytest.approx(1.0)
        assert c.x_l > 0

    def test_log_rejected_when_left_edge_nonpositive(self):
        with pytest.raises(LogDomain):
            build_contour(IDENTITY, 4.0, eps=0.05, v_0=1.0, f=TestFunction.log())
        with pytest.raises(LogDomain):
            build_contour(IDENTITY, 1.0, f=TestFunction.log())
        # lo = 0.25 at y = 0.25; eps larger than lo pushes x_l below 0
        with pytest.raises(LogDomain):
            build_contour(IDENTITY, 0.25, eps=0.3, v_0=1.0, f=TestFunction.log())

    def test_log_domain_checked_before_any_solve(self, monkeypatch):
        # lo = 0.25 at y = 0.25: eps = 0.3 takes the contour across 0 (eps =
        # 0.15 stays inside and runs, see test_clt_moments)
        def no_solve(*args, **kwargs):
            raise AssertionError("the transform was solved")

        monkeypatch.setattr(clt_moments, "s_under_grid", no_solve)
        with pytest.raises(LogDomain):
            compute_moments(TestFunction.log(), IDENTITY, 0.25, EntryEnsemble.real_gaussian(),
                            eps=0.3)

    @pytest.mark.parametrize("m0", [16, 17, 64])
    def test_levels_nest_off_the_real_axis(self, m0):
        c = build_contour(IDENTITY, 0.5, m=m0)
        coarse_z, coarse_w = c.nodes()
        for k in range(1, 10):
            z, w = c.nodes(m0 * 2**k)
            assert np.all(z.imag != 0.0)
            # the rule at m holds the rule at m/2 as its even-index half
            assert np.array_equal(z[::2], coarse_z)
            assert np.array_equal(2.0 * w[::2], coarse_w)
            coarse_z, coarse_w = z, w

    def test_node_values_evaluate_each_node_once(self):
        c = build_contour(IDENTITY, 0.5, m=16)
        seen = []

        def g(z):
            seen.append(z.copy())
            return z * z

        values = NodeValues(g, c)
        for m in (16, 32, 128, 64, 16):
            z, _ = c.nodes(m)
            assert np.array_equal(values(m), z * z)
        assert [len(z) for z in seen] == [16, 16, 96]
        assert np.unique(np.concatenate(seen)).size == 128

    def test_minimum_node_count(self):
        with pytest.raises(ValueError, match="node count"):
            Contour(0.0, 1.0, 1.0, m=8)


class TestIntegrate:
    @pytest.fixture()
    def contour(self):
        return build_contour(IDENTITY, 0.25, eps=0.05, v_0=1.0)

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

