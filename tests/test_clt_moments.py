import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BATTERY
from lsslab import clt_moments
from lsslab.clt_moments import (CltMoments, CompanionTransform, _a_times_t_integral,
                                _mean_integrand, _variance_level, compute_moments,
                                kernel_from_s, mean_correction, normalize,
                                variance_with_kernel)
from lsslab.contour import _confocal, build_contour
from lsslab.errors import QuadratureStall, ZeroVariance
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)
from lsslab.stieltjes import inverse_map, lss_centering, s_under_grid, solve_s_under

IDENTITY = PopulationSpectrum.identity()
RG = EntryEnsemble.real_gaussian()
CG = EntryEnsemble.complex_gaussian()
DELTA0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
F_X = TestFunction.monomial(1)
F_X2 = TestFunction.monomial(2)
F_CONST = TestFunction.polynomial([3.0])
F_CUBIC_MIX = TestFunction.polynomial([0.0, 1.0, 0.0, 1.0])  # x^3 + x


def _kernel_at(z1, z2, spectrum, y):
    """a(z1, z2), the one cell of a 1 x 1 outer grid."""
    s1 = solve_s_under(z1, spectrum, y).s_under
    s2 = solve_s_under(z2, spectrum, y).s_under
    return kernel_from_s(np.array([[s1]]), np.array([[s2]]), spectrum, y)[0, 0]


class TestKernel:
    def test_zero_population_kills_kernel(self):
        assert _kernel_at(1j, 2.0 + 1j, DELTA0, 0.5) == 0

    def test_symmetry_exact(self):
        z1, z2 = 0.5 + 0.8j, 2.5 - 0.3j
        a12 = _kernel_at(z1, z2, BATTERY["two_atom"], 0.5)
        a21 = _kernel_at(z2, z1, BATTERY["two_atom"], 0.5)
        assert a12 == a21

    @pytest.mark.parametrize("y", [0.25, 1.0, 2.0])
    def test_unit_disk_bound_identity(self, y):
        z, _ = build_contour(IDENTITY, y).nodes()
        s = s_under_grid(z, IDENTITY, y)
        a = kernel_from_s(s[:, None], s[None, :], IDENTITY, y)
        assert float(np.max(np.abs(a))) < 1.0

    @pytest.mark.parametrize("shapes", [((), ()), ((3,), (3,)), ((3, 2), (1, 3))])
    def test_only_outer_grids(self, shapes):
        s1, s2 = (np.full(shape, 0.5 + 0.5j) for shape in shapes)
        with pytest.raises(ValueError, match="outer grid"):
            kernel_from_s(s1, s2, IDENTITY, 0.5)


def _textbook_kernel(s1, s2, spectrum, y):
    """``y sum_k w_k u_k(s1) u_k(s2)``, ``u_k(s) = t_k s / (1 + t_k s)``, in complex arithmetic,
    with its scale ``y sum_k w_k |u_k(s1)| |u_k(s2)|``, which bounds its modulus."""
    a = scale = 0.0
    for t, w in spectrum.atoms:
        u1, u2 = t * s1 / (1.0 + t * s1), t * s2 / (1.0 + t * s2)
        a = a + y * w * u1 * u2
        scale = scale + y * w * np.abs(u1) * np.abs(u2)
    return a, scale


@st.composite
def _kernel_grids(draw):
    """A spectrum of 1-5 atoms, a ratio, two sets of non-real points and the transform there."""
    k = draw(st.integers(1, 5))
    ts = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    ws = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = math.fsum(ws)
    spectrum = PopulationSpectrum.from_pairs([(t, w / total) for t, w in zip(ts, ws)])
    y = draw(st.floats(0.05, 4.0))
    lo, hi = support_interval(spectrum, y)
    point = st.builds(complex, st.floats(lo - 2.0, hi + 2.0),
                      st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3))
    z1, z2 = (np.array(draw(st.lists(point, min_size=1, max_size=40))) for _ in range(2))
    return spectrum, y, z1, s_under_grid(z1, spectrum, y), z2, s_under_grid(z2, spectrum, y)


class TestKernelProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(_kernel_grids())
    def test_rank_k_product_is_the_textbook_kernel(self, problem):
        spectrum, y, _, s1, _, s2 = problem
        a = kernel_from_s(s1[:, None], s2[None, :], spectrum, y)
        ref, scale = _textbook_kernel(s1[:, None], s2[None, :], spectrum, y)
        assert a.shape == (s1.size, s2.size)
        # errors are relative to the size of the summed products, not to |a|,
        # which may cancel between atoms
        assert np.all(np.abs(a - ref) <= 1e-13 * scale)
        swapped = kernel_from_s(s2[:, None], s1[None, :], spectrum, y)
        assert np.all(np.abs(swapped.T - a) <= 1e-15 * scale)

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(_kernel_grids())
    def test_kernel_inside_the_unit_disk(self, problem):
        # the invariant the one-contour variance rests on: a(z, conj z) =
        # sum_k |v_k|^2 = 1 - Im z |s|^2 / Im s < 1 from the inverse map, and
        # Cauchy-Schwarz bounds |a(z1, z2)|^2 by a(z1, conj z1) a(z2, conj z2).
        # The identity is checked at z = inverse_map(s), the point whose
        # transform is s to rounding: at the drawn z it would also carry the
        # solver's 1e-12 residual, divided by Im s
        spectrum, y, _, s1, _, s2 = problem
        d1, d2 = (np.diagonal(kernel_from_s(s[:, None], s.conj()[None, :], spectrum, y))
                  for s in (s1, s2))
        for s, d in ((s1, d1), (s2, d2)):
            z = np.array([inverse_map(v, spectrum, y) for v in s])
            assert np.all(np.abs(d - (1.0 - z.imag * np.abs(s) ** 2 / s.imag)) <= 1e-12)
            assert np.all(d.real < 1.0)
        a = kernel_from_s(s1[:, None], s2[None, :], spectrum, y)
        bound = d1.real[:, None] * d2.real[None, :]
        assert np.all(np.abs(a) ** 2 <= bound * (1.0 + 1e-12))


class TestKernelLog:
    def test_matches_mpmath_across_the_disk(self):
        # |a| on a log grid up to 0.95, 24 arguments each, against 40-digit log
        moduli = np.logspace(-12.0, np.log10(0.95), 45)
        args = np.linspace(-np.pi, np.pi, 24, endpoint=False)
        a = (moduli[:, None] * np.exp(1j * args)[None, :]).ravel()
        got = _a_times_t_integral(a)
        worst = 0.0
        with mpmath.workdps(40):
            for ak, gk in zip(a, got):
                exact = -mpmath.log(1 - mpmath.mpc(ak.real, ak.imag))
                err = abs(mpmath.mpc(gk.real, gk.imag) - exact) / abs(exact)
                worst = max(worst, float(err))
        assert worst <= 1e-14


def _textbook_level(f, spectrum, y, c1, m, c2=None):
    """One variance level as the formula reads: full f'-grid times complex -log(1 - a),
    with z1 on c1 and z2 on c2 (c1 again by default)."""
    z1, w1 = c1.nodes(m)
    z2, w2 = (c2 or c1).nodes(m)
    s1 = s_under_grid(z1, spectrum, y)
    s2 = s_under_grid(z2, spectrum, y)
    a, _ = _textbook_kernel(s1[:, None], s2[None, :], spectrum, y)
    grid = f.deriv(z1)[:, None] * f.deriv(z2)[None, :] * -np.log(1.0 - a)
    return complex(w1 @ grid @ w2)


def _nested_variance(f, spectrum, y):
    """sigma(f) the way Bai & Silverstein set it up: z1 on an inner ellipse, z2 on a
    strictly larger confocal one, laddered to 1e-11.  The ellipses are those the
    variance ran on before it moved to one contour: margins eps and 2 eps with
    half-heights at most 1 and 2, or conformal radii R0^(1/3) and R0^(2/3) for log,
    where R0 is that of the singularity 0."""
    lo, hi = support_interval(spectrum, y)
    h = (hi - lo) / 2.0
    if f.kind == "log":
        r0 = (np.sqrt(hi) + np.sqrt(lo)) / (np.sqrt(hi) - np.sqrt(lo))
        margins = [h * ((r + 1.0 / r) / 2.0 - 1.0) for r in (r0 ** (1 / 3), r0 ** (2 / 3))]
    else:
        eps = 0.05 * (hi - lo + 1.0)
        margins = [eps, 2.0 * eps]
    inner, outer = (_confocal(lo, hi, e, cap, 64) for e, cap in zip(margins, (1.0, 2.0)))

    for m in (64 << k for k in range(8)):
        fine = _textbook_level(f, spectrum, y, inner, m, outer)
        coarse = _textbook_level(f, spectrum, y, inner, m // 2, outer)
        if abs(fine - coarse) <= 1e-11 * (1.0 + abs(fine)):
            return -fine.real / (2.0 * np.pi**2)
    raise AssertionError("nested variance did not reach 1e-11 by 8192 nodes")


class TestOneContour:
    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    @pytest.mark.parametrize("y", [0.5, 2.0])
    @pytest.mark.parametrize("power", [2, 11])
    def test_matches_nested_contours(self, name, y, power):
        # -log(1 - a) is analytic in z2 off the bulk, so by Cauchy the double
        # integral over one contour equals the one over nested contours
        f, sp = TestFunction.monomial(power), BATTERY[name]
        want = _nested_variance(f, sp, y)
        s = CompanionTransform(sp, y, build_contour(sp, y, f=f))
        assert variance_with_kernel(f, s)[0] == pytest.approx(want, rel=1e-9)

    def test_log_matches_nested_contours(self):
        f, y = TestFunction.log(), 0.5
        want = _nested_variance(f, IDENTITY, y)
        assert want == pytest.approx(-2.0 * np.log(1 - y), rel=1e-9)
        s = CompanionTransform(IDENTITY, y, build_contour(IDENTITY, y, f=f))
        got = variance_with_kernel(f, s)[0]
        assert got == pytest.approx(want, rel=1e-9)


class TestFusedLevel:
    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    @pytest.mark.parametrize("y", [0.5, 2.0])
    @pytest.mark.parametrize("power", [2, 11])
    def test_matches_textbook_assembly(self, name, y, power):
        f = TestFunction.monomial(power)
        sp = BATTERY[name]
        c = build_contour(sp, y, f=f)
        got, coarse, amax = _variance_level(f, CompanionTransform(sp, y, c), 64)
        want = _textbook_level(f, sp, y, c, 64)
        assert abs(got - want) <= 1e-12 * abs(want)
        # the m/2 rule is the even-index subgrid of the same kernel grid
        want = _textbook_level(f, sp, y, c, 32)
        assert abs(coarse - want) <= 1e-12 * abs(want)
        assert 0.0 < amax < 1.0

    def test_row_blocks_match_one_block(self, monkeypatch):
        # blocks of 8, 8, 8 and 6 rows against the whole 30 x 30 grid at
        # once, on a contour whose levels are not powers of 2
        f, sp, y = TestFunction.monomial(3), BATTERY["five_atom"], 0.5
        c = build_contour(sp, y, m=30, f=f)
        whole = _variance_level(f, CompanionTransform(sp, y, c), 30)
        monkeypatch.setattr(clt_moments, "_BLOCK_CELLS", 8 * 30)
        blocked = _variance_level(f, CompanionTransform(sp, y, c), 30)
        assert blocked[2] == whole[2]
        for b, w in zip(blocked[:2], whole[:2]):
            assert abs(b - w) <= 1e-13 * abs(w)


class TestMean:
    @pytest.mark.parametrize("name", ["identity", "with_zero", "five_atom"])
    def test_integrand_matches_the_atom_sums(self, name):
        # I2 and I3 as the formula reads, one atom at a time
        sp, y = BATTERY[name], 0.5
        z, _ = build_contour(sp, y).nodes(128)
        s = s_under_grid(z, sp, y)
        i2 = sum(w * t * t * s * s / (1.0 + t * s) ** 2 for t, w in sp.atoms) * y
        i3 = sum(w * t * t * s**3 / (1.0 + t * s) ** 3 for t, w in sp.atoms) * y
        want = i3 / (1.0 - i2) ** 2
        got = _mean_integrand(z, s, sp, y)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max())

    def test_constant_function_zero(self):
        c = build_contour(IDENTITY, 0.5)
        assert abs(mean_correction(F_CONST, CompanionTransform(IDENTITY, 0.5, c))) <= 1e-8

    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    def test_linear_function_zero(self, name):
        # tr B is exactly centered by p * m1, so the limit mean vanishes
        c = build_contour(BATTERY[name], 0.5)
        assert abs(mean_correction(F_X, CompanionTransform(BATTERY[name], 0.5, c))) <= 1e-8

    def test_square_identity_population(self):
        # moment-counting oracle for real Gaussian entries, T = I:
        # E tr B^2 = p (n + p + 1)/n and p * second moment of the limit law
        # is p (1 + y), leaving exactly y = p/n for every n
        y = 0.5
        s = CompanionTransform(IDENTITY, y, build_contour(IDENTITY, y))
        assert mean_correction(F_X2, s) == pytest.approx(y, rel=1e-8)

    def test_square_general_population(self):
        # same counting with diagonal T: E tr B^2 - p(m2 + y m1^2) = y m2
        sp = BATTERY["two_atom"]
        y = 0.5
        s = CompanionTransform(sp, y, build_contour(sp, y))
        assert mean_correction(F_X2, s) == pytest.approx(y * sp.moment(2), rel=1e-8)

    def test_log_identity_population(self):
        # classical closed form log(1 - y) / 2 for the MP bulk
        y = 0.25
        c = build_contour(IDENTITY, y, eps=0.04, v_0=0.8, f=TestFunction.log())
        got = mean_correction(TestFunction.log(), CompanionTransform(IDENTITY, y, c))
        assert got == pytest.approx(np.log(1 - y) / 2.0, rel=1e-9)


class TestVariance:
    def test_constant_gives_zero(self):
        c = build_contour(IDENTITY, 0.5)
        assert abs(variance_with_kernel(F_CONST, CompanionTransform(IDENTITY, 0.5, c))[0]) <= 1e-12

    def test_linear_identity_population(self):
        # Var(tr B) = 2p/n for real Gaussian entries and T = I
        y = 0.5
        s = CompanionTransform(IDENTITY, y, build_contour(IDENTITY, y))
        assert variance_with_kernel(F_X, s)[0] == pytest.approx(2 * y, rel=1e-10)

    def test_linear_general_population(self):
        # Var(tr B) = (2/n) tr T^2 = 2 y m2 for real Gaussian entries
        sp = BATTERY["five_atom"]
        y = 0.5
        s = CompanionTransform(sp, y, build_contour(sp, y))
        assert variance_with_kernel(F_X, s)[0] == pytest.approx(2 * y * sp.moment(2), rel=1e-9)

    def test_log_identity_population(self):
        # classical closed form -2 log(1 - y)
        y = 0.25
        c = build_contour(IDENTITY, y, eps=0.04, v_0=0.8, f=TestFunction.log())
        got = variance_with_kernel(TestFunction.log(), CompanionTransform(IDENTITY, y, c))[0]
        assert got == pytest.approx(-2.0 * np.log(1 - y), rel=1e-9)

    def test_small_kernel_series_limit(self):
        from lsslab.clt_moments import _a_times_t_integral

        # a * int_0^1 dt/(1-ta) -> a as a -> 0, relative error O(a)
        for a in (1e-9, 1e-10 + 1e-12j):
            val = _a_times_t_integral(np.array([a]))[0]
            assert abs(val - a * (1 + a / 2 + a * a / 3)) <= 1e-16
        # and matches -log(1-a) on the far side of the switch
        a = 1e-7
        assert _a_times_t_integral(np.array([a]))[0] == pytest.approx(-np.log1p(-a), rel=1e-10)


class TestMomentsBundle:
    def test_scaling_linear_in_f(self):
        y = 0.5
        base = compute_moments(F_X2, IDENTITY, y, RG)
        scaled = compute_moments(TestFunction.polynomial([0.0, 0.0, 3.0]), IDENTITY, y, RG)
        assert scaled.mu == pytest.approx(3.0 * base.mu, rel=1e-9)
        assert scaled.sigma == pytest.approx(9.0 * base.sigma, rel=1e-9)

    def test_positive_sigma_battery(self):
        for f in (F_X, F_X2, F_CUBIC_MIX):
            for name in ("identity", "two_atom"):
                for y in (0.25, 0.5):
                    mom = compute_moments(f, BATTERY[name], y, RG)
                    assert mom.sigma > 0
                    assert mom.kernel_max_abs < 1

    def test_contour_invariance(self):
        y = 0.5
        settings = [(0.05, 1.0), (0.1, 0.5), (0.2, 1.5)]
        moments = [compute_moments(F_X2, IDENTITY, y, RG, eps=e, v_0=v)
                   for e, v in settings]
        mus = [m.mu for m in moments]
        sigmas = [m.sigma for m in moments]
        for a in mus[1:]:
            assert abs(a - mus[0]) <= 1e-7 * max(1.0, abs(mus[0]))
        for a in sigmas[1:]:
            assert abs(a - sigmas[0]) <= 1e-7 * abs(sigmas[0])

    def test_small_margin_does_not_stall(self):
        # sigma(x) = 2y and mu(x) = 0 on the identity; at eps = 0.03 the mean
        # stalled at 9.5e-7 on the rectangle with one Gauss-Legendre panel
        # per edge
        mom = compute_moments(F_X, IDENTITY, 0.5, RG, eps=0.03)
        assert abs(mom.mu) <= 1e-9
        assert mom.sigma == pytest.approx(1.0, rel=1e-9)

    def test_log_margin_past_half_the_lower_edge(self):
        # lo = 1/4 at y = 1/4: eps = 0.15 keeps the contour in Re z > 0 (a
        # second ellipse at 2 eps would cross 0); closed forms log(1 - y)/2
        # and -2 log(1 - y)
        y = 0.25
        mom = compute_moments(TestFunction.log(), IDENTITY, y, RG, eps=0.15)
        assert mom.contour.x_l > 0
        assert abs(mom.mu - np.log(1 - y) / 2.0) <= 1e-12
        assert abs(mom.sigma + 2.0 * np.log(1 - y)) <= 1e-12

    def test_cg_case_zero_mean_same_sigma(self):
        rg = compute_moments(F_X2, IDENTITY, 0.5, RG)
        cg = compute_moments(F_X2, IDENTITY, 0.5, CG)
        assert (rg.ensemble, rg.case) == (RG, "RG")
        assert (cg.ensemble, cg.case) == (CG, "CG")
        assert cg.mu == 0.0
        assert cg.sigma == pytest.approx(rg.sigma, rel=1e-12)
        # every real law normalizes as RG
        for law in (EntryEnsemble.rademacher(), EntryEnsemble.student_t(11.0)):
            mom = compute_moments(F_X2, IDENTITY, 0.5, law)
            assert (mom.ensemble, mom.case) == (law, "RG")

    def test_kernel_max_abs_reported(self):
        mom = compute_moments(F_X, IDENTITY, 0.5, RG)
        c = build_contour(IDENTITY, 0.5)
        _, amax = variance_with_kernel(F_X, CompanionTransform(IDENTITY, 0.5, c))
        assert mom.kernel_max_abs == pytest.approx(amax, rel=1e-12)


class TestNormalize:
    def test_trivial_cases(self):
        assert normalize(0.0, CltMoments(0.0, 1.0, RG, 0.3)) == 0.0
        assert normalize(3.0, CltMoments(1.0, 4.0, RG, 0.3)) == pytest.approx(1.0)
        assert normalize(1.0, CltMoments(0.0, 2.0, CG, 0.3)) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            normalize(1.0, CltMoments(0.0, 0.0, RG, 0.0))


class _Tilted(CompanionTransform):
    """The transform with every node value multiplied by 1 + 1e-3j: each integral
    over it keeps an imaginary part far above quadrature error."""

    def __init__(self, spectrum, y_n, contour):
        super().__init__(spectrum, y_n, contour)
        exact = self.g
        self.g = lambda z: exact(z) * (1.0 + 1e-3j)


class TestImaginaryResidue:
    @pytest.fixture
    def tilted(self):
        return _Tilted(IDENTITY, 0.5, build_contour(IDENTITY, 0.5, f=F_X2))

    def test_mean(self, tilted):
        with pytest.raises(QuadratureStall, match="mean kept an imaginary residue"):
            mean_correction(F_X2, tilted)

    def test_variance(self, tilted):
        with pytest.raises(QuadratureStall, match="variance kept an imaginary residue"):
            variance_with_kernel(F_X2, tilted)

    def test_centering(self, tilted):
        with pytest.raises(QuadratureStall, match="centering integral kept an imaginary residue"):
            lss_centering(F_X2, 64, tilted)
