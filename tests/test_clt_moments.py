import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BATTERY, companion, inverse_map, population_moment
from lsslab import clt_moments, stieltjes
from lsslab.clt_moments import (CltMoments, CompanionTransform, _a_times_t_integral,
                                _mean_integrand, _variance_level, compute_moments,
                                kernel_from_s, mean_correction, normalize,
                                variance_with_kernel)
from lsslab.contour import Contour, _confocal, build_contour, trapezoid
from lsslab.errors import QuadratureStall, ZeroVariance
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)
from lsslab.stieltjes import lss_centering, s_under_grid, solve_s_under

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
    variance ran on before it moved to one contour, less their half-height caps:
    margins eps and 2 eps, or conformal radii R0^(1/3) and R0^(2/3) for log,
    where R0 is that of the singularity 0."""
    lo, hi = support_interval(spectrum, y)
    h = (hi - lo) / 2.0
    if f.kind == "log":
        r0 = (np.sqrt(hi) + np.sqrt(lo)) / (np.sqrt(hi) - np.sqrt(lo))
        margins = [h * ((r + 1.0 / r) / 2.0 - 1.0) for r in (r0 ** (1 / 3), r0 ** (2 / 3))]
    else:
        eps = 0.05 * (hi - lo + 1.0)
        margins = [eps, 2.0 * eps]
    inner, outer = (_confocal(lo, hi, e, 64) for e in margins)

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
        # the ladder's first level, whole, and the level above it from its
        # odd-row strip
        f = TestFunction.monomial(power)
        sp = BATTERY[name]
        c = build_contour(sp, y, f=f)
        s = CompanionTransform(sp, y, c)
        below = _variance_level(f, s, 32)
        strip = _variance_level(f, s, 64, below)
        for (got, amax), m in ((below, 32), (strip, 64)):
            want = _textbook_level(f, sp, y, c, m)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert 0.0 < amax < 1.0

    def test_row_blocks_match_one_block(self, monkeypatch):
        # blocks of 8, 8, 8 and 6 rows against the whole 30 x 30 grid at
        # once, on a contour whose levels are not powers of 2
        f, sp, y = TestFunction.monomial(3), BATTERY["five_atom"], 0.5
        c = build_contour(sp, y, m=30, f=f)
        whole = _variance_level(f, CompanionTransform(sp, y, c), 30)
        monkeypatch.setattr(clt_moments, "_BLOCK_CELLS", 8 * 30)
        blocked = _variance_level(f, CompanionTransform(sp, y, c), 30)
        assert blocked[1] == whole[1]
        assert abs(blocked[0] - whole[0]) <= 1e-13 * abs(whole[0])

    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    @pytest.mark.parametrize("y", [0.5, 2.0])
    @pytest.mark.parametrize("power", [2, 11])
    def test_strip_matches_whole_grid(self, name, y, power):
        # the level at 128 from its odd-row strip, against the whole 128 x 128
        # grid and the textbook assembly
        f, sp = TestFunction.monomial(power), BATTERY[name]
        c = build_contour(sp, y, f=f)
        s = CompanionTransform(sp, y, c)
        strip = _variance_level(f, s, 128, _variance_level(f, s, 64))
        whole = _variance_level(f, s, 128)
        want = _textbook_level(f, sp, y, c, 128)
        assert abs(strip[0] - whole[0]) <= 1e-12 * abs(whole[0])
        assert abs(strip[0] - want) <= 1e-12 * abs(want)
        assert strip[1] == pytest.approx(whole[1], rel=1e-14)

    def test_strip_row_blocks_match_one_block(self, monkeypatch):
        # the 30 odd rows of the level at 60 in blocks of 8, 8, 8 and 6 rows
        f, sp, y = TestFunction.monomial(3), BATTERY["five_atom"], 0.5
        s = CompanionTransform(sp, y, build_contour(sp, y, m=30, f=f))
        below = _variance_level(f, s, 30)
        whole = _variance_level(f, s, 60, below)
        monkeypatch.setattr(clt_moments, "_BLOCK_CELLS", 8 * 60)
        blocked = _variance_level(f, s, 60, below)
        assert blocked[1] == whole[1]
        assert abs(blocked[0] - whole[0]) <= 1e-13 * abs(whole[0])


class TestLadderCells:
    @pytest.mark.parametrize("f, sp, y, nodes, cells", [
        (TestFunction.monomial(11), BATTERY["two_atom"], 0.5, 128, 32**2 + (64**2 + 128**2) // 2),
        (TestFunction.log(), IDENTITY, 0.9, 512, 32**2 + (64**2 + 128**2 + 256**2 + 512**2) // 2),
    ], ids=["two_atom-x^11", "identity-log"])
    def test_each_cell_formed_once(self, f, sp, y, nodes, cells, monkeypatch):
        # the first level forms its whole 32 x 32 grid and each finer level m
        # only its m^2/2 new cells: 21,504 and 349,184 cells when every
        # level formed its whole grid
        formed = []

        def counting(s1, s2, spectrum, y_n):
            a = kernel_from_s(s1, s2, spectrum, y_n)
            formed.append(a.size)
            return a

        monkeypatch.setattr(clt_moments, "kernel_from_s", counting)
        mom = compute_moments(f, sp, y, RG)
        assert mom.quadrature["variance"].nodes == nodes
        assert sum(formed) == cells
        # the accepted level against its whole grid, formed at once
        fine, amax = _variance_level(f, mom.s_under, nodes)
        assert mom.sigma == pytest.approx(-fine.real / (2.0 * np.pi**2), rel=1e-12)
        assert mom.kernel_max_abs == pytest.approx(amax, rel=1e-14)


def _evaluated_points(monkeypatch, module, name, at=0):
    """The nodes z that ``module.name`` is called at, passed as its positional
    argument ``at``, one array per call."""
    seen, original = [], getattr(module, name)

    def recording(*args):
        seen.append(np.asarray(args[at]))
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return seen


class TestEachNodeOnce:
    # two_atom, x^11, y = 0.5: the mean's and the centering's ladders both
    # pass their first level and accept 128 nodes; each level evaluates its
    # integrand at its new nodes only, so the points evaluated are the 128
    # nodes, each once
    F_X11, SPECTRUM = TestFunction.monomial(11), BATTERY["two_atom"]

    def _assert_one_level(self, seen, c, nodes):
        z = np.concatenate(seen)
        assert z.size == nodes
        assert np.array_equal(np.sort_complex(z), np.sort_complex(c.nodes(nodes)[0]))

    def test_mean_integrand(self, monkeypatch):
        seen = _evaluated_points(monkeypatch, clt_moments, "_mean_integrand")
        mom = compute_moments(self.F_X11, self.SPECTRUM, 0.5, RG)
        assert mom.quadrature["mean"].nodes == 128
        self._assert_one_level(seen, mom.contour, 128)

    def test_centering_integrand(self, monkeypatch):
        mom = compute_moments(self.F_X11, self.SPECTRUM, 0.5, RG)
        seen = _evaluated_points(monkeypatch, stieltjes, "companion_to_primary", at=1)
        lss_centering(self.F_X11, 64, mom.s_under)
        self._assert_one_level(seen, mom.contour, 128)


class TestNodeTable:
    # a ladder reads each level's nodes, weights and transform values from
    # the transform, which forms a level's nodes once per fill
    F_X11, SPECTRUM = TestFunction.monomial(11), BATTERY["two_atom"]

    def test_integrand_gets_the_new_nodes_of_each_level(self):
        c = build_contour(self.SPECTRUM, 0.5, f=self.F_X11)
        s = CompanionTransform(self.SPECTRUM, 0.5, c)
        seen = []

        def integrand(z, sv):
            seen.append((z, sv))
            return self.F_X11(z) * clt_moments._mean_integrand(z, sv, self.SPECTRUM, 0.5)

        assert trapezoid(integrand, s, c.m, "mean").nodes == 128
        assert len(seen) == 3
        for k, (z, sv) in enumerate(seen):
            new = slice(None) if k == 0 else slice(1, None, 2)
            assert np.array_equal(z, c.nodes(32 << k)[0][new])
            assert np.all(np.abs(sv - s_under_grid(z, self.SPECTRUM, 0.5)) <= 1e-14)

    def test_moments_form_each_level_once(self, monkeypatch):
        # the transform's two fills are the only node sets formed; the mean's
        # and the variance's levels 32, 64 and 128 are strides of them
        levels, nodes = [], Contour.nodes

        def recording(self, m=None):
            levels.append(m)
            return nodes(self, m)

        monkeypatch.setattr(Contour, "nodes", recording)
        mom = compute_moments(self.F_X11, self.SPECTRUM, 0.5, RG)
        assert {q.nodes for q in mom.quadrature.values()} == {128}
        assert levels == [64, 128]


class TestCompanionTransform:
    def test_each_node_solved_once(self, monkeypatch):
        c = build_contour(IDENTITY, 0.5, m=16)
        seen = _evaluated_points(monkeypatch, clt_moments, "s_under_grid")
        s = CompanionTransform(IDENTITY, 0.5, c)
        got = {m: s(m)[2] for m in (8, 32, 128, 64, 16)}
        for m, values in got.items():
            assert np.array_equal(values, s(128)[2][::128 // m])
        # the first fill is the contour's 16 nodes, then one doubling at a time
        assert [z.size for z in seen] == [16, 16, 32, 64]
        assert np.unique(np.concatenate(seen)).size == 128
        z, _ = c.nodes(128)
        assert np.all(np.abs(s(128)[2] - s_under_grid(z, IDENTITY, 0.5)) <= 1e-14)
        # the levels are 16 * 2^k; a stride of the held values used to hand
        # back the wrong level (128 values for 96, 64 for 48, 43 for 40)
        for m in (40, 48, 96):
            with pytest.raises(ValueError, match="the levels are 16 \\* 2\\^k"):
                s(m)

    def test_new_nodes_start_at_their_neighbours_midpoint(self, monkeypatch):
        # the first fill starts from the solver's mean-atom start; each new
        # node of a doubling from the midpoint of its two solved neighbours on
        # the periodic contour
        starts, exact = [], clt_moments.s_under_grid

        def recording(z, spectrum, y_n, start=None):
            starts.append(start)
            return exact(z, spectrum, y_n, start)

        monkeypatch.setattr(clt_moments, "s_under_grid", recording)
        s = CompanionTransform(IDENTITY, 0.5, build_contour(IDENTITY, 0.5, m=16))
        s(64)
        assert starts[0] is None
        for start, m in ((starts[1], 16), (starts[2], 32)):
            held = s(m)[2]
            assert np.array_equal(start, held + 0.5 * (np.roll(held, -1) - held))


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
        assert mean_correction(F_X2, s) == pytest.approx(y * population_moment(sp, 2), rel=1e-8)

    def test_log_identity_population(self):
        # classical closed form log(1 - y) / 2 for the MP bulk
        y = 0.25
        c = build_contour(IDENTITY, y, eps=0.04, f=TestFunction.log())
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
        want = 2 * y * population_moment(sp, 2)
        assert variance_with_kernel(F_X, s)[0] == pytest.approx(want, rel=1e-9)

    def test_log_identity_population(self):
        # classical closed form -2 log(1 - y)
        y = 0.25
        c = build_contour(IDENTITY, y, eps=0.04, f=TestFunction.log())
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
        # two confocal ellipses, at eps = 0.05 and 0.2, and the ellipse inscribed
        # in [lo - 0.1, hi + 0.1] x [-0.5, 0.5], which is not confocal
        y = 0.5
        lo, hi = support_interval(IDENTITY, y)
        contours = [build_contour(IDENTITY, y, eps=0.05), Contour(lo - 0.1, hi + 0.1, 0.5),
                    build_contour(IDENTITY, y, eps=0.2)]
        transforms = [CompanionTransform(IDENTITY, y, c) for c in contours]
        mus = [mean_correction(F_X2, s) for s in transforms]
        sigmas = [variance_with_kernel(F_X2, s)[0] for s in transforms]
        for a in mus[1:]:
            assert abs(a - mus[0]) <= 1e-7 * max(1.0, abs(mus[0]))
        for a in sigmas[1:]:
            assert abs(a - sigmas[0]) <= 1e-7 * abs(sigmas[0])

    @pytest.mark.parametrize("y", [2.0, 10.0])
    def test_wide_bulk_at_few_nodes(self, y):
        # T = 4 I: mu(x^2) = y t^2 and sigma(x^2) = 4 y (2 + 5 y + 2 y^2) t^4; the
        # ellipse through hi + eps has rho = 1.56 at y = 10 and accepts at 128
        # nodes, where a half-height capped at 1 had rho = 1.03 and took 2048
        t = 4.0
        sp = PopulationSpectrum.from_pairs([(t, 1.0)], allow_large_atoms=True)
        mom = compute_moments(F_X2, sp, y, RG)
        assert all(q.nodes <= 128 for q in mom.quadrature.values())
        assert abs(mom.mu - y * t**2) <= 1e-13 * y * t**2
        sigma = 4 * y * (2 + 5 * y + 2 * y * y) * t**4
        assert abs(mom.sigma - sigma) <= 1e-13 * sigma

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


def _moments(mu, sigma, ensemble):
    # normalize reads mu, sigma and the case; f and the transform are provenance
    return CltMoments(mu, sigma, ensemble, 0.3, F_X, companion(IDENTITY, 0.5))


class TestNormalize:
    def test_trivial_cases(self):
        assert normalize(0.0, _moments(0.0, 1.0, RG)) == 0.0
        assert normalize(3.0, _moments(1.0, 4.0, RG)) == pytest.approx(1.0)
        assert normalize(1.0, _moments(0.0, 2.0, CG)) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVariance):
            normalize(1.0, _moments(0.0, 0.0, RG))


class TestImaginaryResidue:
    @pytest.fixture
    def tilted(self, monkeypatch):
        # every node value multiplied by 1 + 1e-3j: each integral over the
        # transform keeps an imaginary part far above quadrature error
        exact = clt_moments.s_under_grid
        monkeypatch.setattr(clt_moments, "s_under_grid",
                            lambda *args: exact(*args) * (1.0 + 1e-3j))
        return companion(IDENTITY, 0.5, F_X2)

    def test_mean(self, tilted):
        with pytest.raises(QuadratureStall, match="mean kept an imaginary residue"):
            mean_correction(F_X2, tilted)

    def test_variance(self, tilted):
        with pytest.raises(QuadratureStall, match="variance kept an imaginary residue"):
            variance_with_kernel(F_X2, tilted)

    def test_centering(self, tilted):
        with pytest.raises(QuadratureStall, match="centering integral kept an imaginary residue"):
            lss_centering(F_X2, 64, tilted)
