import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BATTERY, companion, inverse_map, mp_quadratic_root, population_moment,
                      random_offbulk_points)
from lsslab.errors import OutsideSupport
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)
from lsslab.clt_moments import CompanionTransform, compute_moments
from lsslab.contour import build_contour
from lsslab.stieltjes import (_mean_atom_start, _solve, companion_to_primary, lsd_density,
                              lss_centering, s_under_grid, solve_s_under)

DELTA0 = PopulationSpectrum.from_pairs([(0.0, 1.0)])
IDENTITY = PopulationSpectrum.identity()
# the spectra of the benchmark's moments workload
BENCH_SPECTRA = {
    "identity": IDENTITY,
    "two_atom": PopulationSpectrum.from_pairs([(0.1, 0.5), (1.0, 0.5)]),
    "five_atom": PopulationSpectrum.from_pairs([(t, 0.2) for t in (0.2, 0.4, 0.6, 0.8, 1.0)]),
}


class TestSolver:
    def test_zero_population_at_i(self):
        # integral term vanishes at t=0, so s_under = -1/z = i at z = i
        sol = solve_s_under(1j, DELTA0, 0.5)
        assert abs(sol.s_under - 1j) < 1e-12

    def test_mp_root_at_i_y1(self):
        sol = solve_s_under(1j, IDENTITY, 1.0)
        assert abs(sol.s_under - mp_quadratic_root(1j, 1.0)) < 1e-10

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0])
    def test_mp_oracle_battery(self, y):
        zs = random_offbulk_points(IDENTITY, y, 100, seed=int(y * 100))
        for z in zs:
            sol = solve_s_under(complex(z), IDENTITY, y)
            assert abs(sol.s_under - mp_quadratic_root(complex(z), y)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_residual_contract(self, name):
        sp = BATTERY[name]
        zs = random_offbulk_points(sp, 0.5, 40, seed=hash(name) % 2**32)
        for z in zs:
            sol = solve_s_under(complex(z), sp, 0.5)
            assert sol.residual <= 1e-12
            assert sol.iterations >= 1

    def test_herglotz_battery(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(-1, 5), rng.uniform(0.05, 2.0))
            sol = solve_s_under(z, IDENTITY, 0.5)
            assert sol.s_under.imag > 0
            assert sol.s.imag > 0

    def test_companion_relation_holds_exactly(self):
        y = 0.5
        sol = solve_s_under(2.0 + 0.3j, BATTERY["two_atom"], y)
        lhs = sol.s_under
        rhs = -(1 - y) / sol.z + y * sol.s
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("z", [3.5, 0.1, 1.0, 0.0, -2.0, 3.5 + 0j],
                             ids=["right", "left", "inside", "zero", "negative", "complex-typed"])
    def test_real_z_rejected(self, z):
        # off the bulk (support [0.25, 2.25]) as well as in it: no solve runs
        # on the real axis, as in s_under_grid
        with pytest.raises(ValueError, match="Im z"):
            solve_s_under(z, IDENTITY, 0.25)

    def test_grid_matches_scalar(self):
        zs = random_offbulk_points(BATTERY["five_atom"], 0.5, 64, seed=9)
        grid = s_under_grid(zs, BATTERY["five_atom"], 0.5)
        for z, s in zip(zs[:10], grid[:10]):
            assert abs(s - solve_s_under(complex(z), BATTERY["five_atom"], 0.5).s_under) < 1e-11

    @pytest.mark.parametrize("y", [0.98, 0.99])
    @pytest.mark.parametrize("pairs", [[(0.01, 1.0)], [(0.01, 0.70), (0.1, 0.05), (0.3, 0.25)]],
                             ids=["scaled_identity", "three_atom"])
    def test_log_near_the_hard_edge_of_a_small_scale_spectrum(self, pairs, y):
        # |s| reaches about 1e4 near z = 0 here, where an absolute 1e-12 on
        # |F(s) - s| lies below its rounding floor and the solve raised
        # NonConvergence; log's moments do not depend on the scale of T, so
        # the closed forms log(1 - y)/2 and -2 log(1 - y) hold
        mom = compute_moments(TestFunction.log(), PopulationSpectrum.from_pairs(pairs), y,
                              EntryEnsemble.real_gaussian())
        assert abs(mom.mu - np.log(1 - y) / 2.0) <= 1e-12
        assert abs(mom.sigma + 2.0 * np.log(1 - y)) <= 1e-12


class TestStarts:
    @pytest.mark.parametrize("y", [0.25, 1.0, 2.0])
    def test_newton_from_minus_one_over_z_matches_quadratic_root(self, y):
        # on the identity the default start is the quadratic root itself, so
        # the oracle check runs the solver from -1/z instead
        z = random_offbulk_points(IDENTITY, y, 200, seed=int(40 * y))
        assert (z.imag > 0).any() and (z.imag < 0).any()
        s, res, it = _solve(z, -1.0 / z, IDENTITY, y)
        assert np.all(res <= 1e-12)
        assert it.max() > 1
        exact = np.array([mp_quadratic_root(complex(p), y) for p in z])
        assert np.all(np.abs(s - exact) <= 1e-13 * np.abs(exact))

    @pytest.mark.parametrize("t, y", [(1.0, 0.5), (0.5, 2.0), (0.3, 0.9)])
    def test_one_atom_start_is_the_root(self, t, y):
        sp = PopulationSpectrum.from_pairs([(t, 1.0)])
        z = random_offbulk_points(sp, y, 100, seed=3)
        _, res, it = _solve(z, _mean_atom_start(z, sp, y), sp, y)
        assert np.all(res <= 1e-12)
        assert np.all(it == 1)
        assert solve_s_under(complex(z[0]), sp, y).iterations == 1

    def test_zero_population_starts_at_minus_one_over_z(self):
        z = random_offbulk_points(DELTA0, 0.5, 20, seed=4)
        assert np.array_equal(_mean_atom_start(z, DELTA0, 0.5), -1.0 / z)
        assert np.array_equal(s_under_grid(z, DELTA0, 0.5), -1.0 / z)

    @pytest.mark.parametrize("name", sorted(BENCH_SPECTRA))
    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_value_independent_of_start_and_grouping(self, name, y):
        # a transform climbing from 32 nodes to 4096 one doubling at a time
        # (new nodes start at their neighbours' midpoint), one whole-grid
        # solve from the mean-atom start and one from -1/z: the polishing
        # Newton step takes each to the root's rounding
        sp = BENCH_SPECTRA[name]
        c = build_contour(sp, y, m=32)
        z, _ = c.nodes(4096)
        climbed = CompanionTransform(sp, y, c)
        whole = s_under_grid(z, sp, y)
        cold, _, _ = _solve(z, -1.0 / z, sp, y)
        for other in (climbed(4096)[2], cold):
            assert np.all(np.abs(other - whole) <= 1e-14 * np.abs(whole))

    @pytest.mark.parametrize("t, y, z", [
        (1.0, 2.0, 0.4264702774204529 + 0.001j),
        (0.9510505996744115, 3.7542941405053143, 1.4436829186170184 - 0.02128399847709397j),
    ])
    def test_points_where_newton_from_minus_one_over_z_stalls(self, t, y, z):
        # from -1/z the safeguarded Newton solve ran out of steps at both
        sp = PopulationSpectrum.from_pairs([(t, 1.0)])
        grid = s_under_grid(np.array([z]), sp, y)[0]
        sol = solve_s_under(z, sp, y)
        for s in (grid, sol.s_under):
            assert s.imag * z.imag > 0
            assert abs(inverse_map(s, sp, y) - z) <= 1e-14 * abs(z)

    @pytest.mark.parametrize("y, z, start, want", [
        (0.98, 0.001067664355417719 + 0.00010346669270256855j, -16.8 - 56.9j,
         -10.508185185254453 + 71.50534453582073j),
        (0.99, 0.0010673482934913103 + 5.173339601433193e-05j, -10.7 - 57.4j,
         -7.5400696767714654 + 71.54196821519136j),
    ])
    def test_start_in_the_wrong_half_plane_is_replaced(self, y, z, start, want):
        # midpoints of two solved neighbours near the hard edge of the old log
        # ellipse: from the wrong half plane the plain step never crosses, and
        # the solve raised NonConvergence (y = 0.98) and BranchViolation (0.99)
        sp = PopulationSpectrum.from_pairs([(0.1, 0.5), (1.0, 0.5)])
        for s0 in (start, complex(np.nan, 1.0)):
            s = s_under_grid(np.array([z]), sp, y, np.array([s0]))[0]
            assert s == s_under_grid(np.array([z]), sp, y)[0]
            assert abs(s - want) <= 1e-12 * abs(want)
            assert abs(inverse_map(s, sp, y) - z) <= 1e-12 * abs(z)


@st.composite
def _problems(draw):
    """A spectrum of 1-5 atoms (maybe one at zero), a ratio and 1-4 off-axis points."""
    k = draw(st.integers(1, 5))
    ts = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        ts[0] = 0.0
    ws = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = math.fsum(ws)
    spectrum = PopulationSpectrum.from_pairs([(t, w / total) for t, w in zip(ts, ws)])
    y = draw(st.floats(0.05, 4.0))
    lo, hi = support_interval(spectrum, y)
    point = st.builds(complex, st.floats(lo - 2.0, hi + 2.0),
                      st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3))
    return spectrum, y, draw(st.lists(point, min_size=1, max_size=4))


class TestSolverProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(_problems())
    def test_one_solver_contract(self, problem):
        spectrum, y, zs = problem
        grid = s_under_grid(np.array(zs), spectrum, y)
        for z, s_grid in zip(zs, grid):
            sol = solve_s_under(z, spectrum, y)
            assert sol.s_under.imag * z.imag > 0
            assert sol.residual <= 1e-12
            assert abs(inverse_map(sol.s_under, spectrum, y) - z) <= 1e-9 * (1 + abs(z))
            # same kernel; only numpy's SIMD rounding may differ between array lengths
            assert abs(s_grid - sol.s_under) <= 1e-11 * (1 + abs(sol.s_under))

    @pytest.mark.parametrize("z", [0.6783156903880827 + 1j, 0.6783156903880827 - 1j])
    def test_plain_half_plane_newton_divergence_points(self, z):
        # Newton that only checks the half plane runs off to |s| ~ 1e12 here
        exact = mp_quadratic_root(z, 2.0)
        assert abs(solve_s_under(z, IDENTITY, 2.0).s_under - exact) <= 1e-10
        assert abs(s_under_grid(np.array([z]), IDENTITY, 2.0)[0] - exact) <= 1e-10


class TestInverseMap:
    def test_zero_population(self):
        assert abs(inverse_map(1j, DELTA0, 0.7) - 1j) < 1e-15

    def test_arithmetic_example(self):
        # -1/(-2) + 0.5 * 1/(1-2) = 0.5 - 0.5 = 0
        assert inverse_map(-2.0, IDENTITY, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_identity(self):
        zs = random_offbulk_points(BATTERY["two_atom"], 0.5, 50, seed=17)
        for z in zs:
            sol = solve_s_under(complex(z), BATTERY["two_atom"], 0.5)
            back = inverse_map(sol.s_under, BATTERY["two_atom"], 0.5)
            assert abs(back - z) <= 1e-10 * max(1.0, abs(z))

    def test_zero_s_rejected(self):
        with pytest.raises(ValueError):
            inverse_map(0.0, IDENTITY, 0.5)


def _mp_density(x, spectrum, y):
    """Density from ``mpmath.polyroots`` of the real-axis polynomial.

    ``R_x(u) = (u + x) Q(u) - y u S(u)`` in ``u = 1/s_under`` over the
    nonzero atoms, with ``Q = prod (u + t)`` and
    ``S = sum w t prod_{j != k} (u + t_j)``, expanded here atom by atom as
    written (equal atoms are not merged); the density is ``Im(1/u-)/(pi y)``
    for the root u- with the most negative imaginary part, floored at 0.
    Expanded coefficients lose digits as the atoms grow in number, and
    Durand-Kerner stops on an absolute step, so the 40 digits are widened by
    one per atom and by the decades of a small x, whose roots lie near
    ``+-i sqrt(x)``.  It starts from a point between each pair of
    neighbouring atoms and a conjugate pair, which only saves iterations.
    """
    def prod(ts):
        out = [mpmath.mpf(1)]  # ascending powers of u
        for t in ts:
            out = [a * t + b for a, b in zip(out + [0], [0] + out)]
        return out

    with mpmath.workdps(40 + len(spectrum.atoms) + max(0, int(-math.log10(x)))):
        atoms = [(mpmath.mpf(t), mpmath.mpf(w)) for t, w in spectrum.atoms if t > 0]
        ts = [t for t, _ in atoms]
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        q = prod(ts)
        coeffs = [x * c for c in q] + [mpmath.mpf(0)]
        for i, c in enumerate(q):
            coeffs[i + 1] += c
        for k, (t, w) in enumerate(atoms):
            for i, c in enumerate(prod(ts[:k] + ts[k + 1:])):
                coeffs[i + 1] -= y * w * t * c
        ts = sorted(ts)
        start = [-(a + b) / 2 for a, b in zip(ts, ts[1:])] + [mpmath.mpc(0.3, 0.7),
                                                              mpmath.mpc(0.3, -0.7)]
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=5000, extraprec=200, roots_init=start)
        u = min(roots, key=mpmath.im)
        return float(max(mpmath.im(1 / u), 0) / (mpmath.pi * y))


def _evenly_spaced(k):
    return [((i + 1) / k, 1 / k) for i in range(k)]


ORACLE_SPECTRA = {
    "two_atom_0.1": [(0.1, 0.5), (1.0, 0.5)],
    "two_atom": [(0.4, 0.5), (1.0, 0.5)],
    "five_atom": [(0.2, 0.2), (0.4, 0.2), (0.6, 0.2), (0.8, 0.2), (1.0, 0.2)],
    "with_zero": [(0.0, 0.3), (1.0, 0.7)],
    # clustered atoms at a small ratio: a narrow bulk whose roots crowd
    # within 0.1 of each other
    "clustered": [(0.8, 0.2), (0.82, 0.2), (0.84, 0.2), (0.86, 0.2), (0.88, 0.2)],
    "upper_five": [(0.6, 0.2), (0.7, 0.2), (0.8, 0.2), (0.9, 0.2), (1.0, 0.2)],
    # an exact and a near duplicate: three close real roots that must not
    # split into a complex pair in a gap
    "near_duplicate": [(0.5, 0.25), (0.5, 0.25), (0.5000001, 0.25), (1.0, 0.25)],
    # an atom far below the rest: the eigenvalues alone are off by 3e-11 here
    "tiny_atom": [(1e-8, 0.5), (1.0, 0.5)],
    # many atoms: roots taken from expanded monomial coefficients in floating
    # point split into false complex pairs here
    "twenty_even": _evenly_spaced(20),
    "fifty_even": _evenly_spaced(50),
}
# (spectrum, ratio, stride through the 40-point grid); the 50-atom oracle
# takes about 2 s a point, so its grids are thinned to 8 points
ORACLE_GRIDS = ([(name, y, 1) for name in ("two_atom_0.1", "two_atom", "five_atom", "with_zero",
                                           "twenty_even")
                 for y in (0.5, 2.0)]
                + [("fifty_even", 0.5, 5), ("fifty_even", 2.0, 5)]
                + [("clustered", 0.1, 1), ("upper_five", 0.05, 1), ("near_duplicate", 0.5, 1),
                   ("tiny_atom", 0.01, 1)])


class TestDensity:
    def test_mp_closed_form(self):
        y = 0.25
        lo, hi = support_interval(IDENTITY, y)
        x = 1.0
        exact = np.sqrt((hi - x) * (x - lo)) / (2 * np.pi * y * x)
        assert lsd_density(x, IDENTITY, y) == pytest.approx(exact, abs=1e-6)

    def test_outside_support_raises(self):
        lo, hi = support_interval(IDENTITY, 0.25)
        with pytest.raises(OutsideSupport):
            lsd_density(hi + 1e-3, IDENTITY, 0.25)
        with pytest.raises(OutsideSupport):
            lsd_density(np.array([1.0, lo]), IDENTITY, 0.25)

    @pytest.mark.parametrize("name,y,stride", ORACLE_GRIDS)
    def test_matches_mpmath_polynomial_roots(self, name, y, stride):
        sp = PopulationSpectrum.from_pairs(ORACLE_SPECTRA[name])
        lo, hi = support_interval(sp, y)
        xs = np.linspace(lo, hi, 42)[1:-1][::stride]
        got = lsd_density(xs, sp, y)
        assert got.shape == xs.shape
        want = np.array([_mp_density(x, sp, y) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("name", ["binary", "five_atom"])
    def test_hard_edge_at_zero(self, name):
        # at y sum w = 1 the density grows like x^(-1/2) at 0, down to the
        # least subnormal x.  The five float weights of 0.2 sum to 1 + 5.6e-17
        # exactly, which opens a gap at 0 about 1e-33 wide.
        atoms = [(0.5, 0.5), (1.0, 0.5)] if name == "binary" else ORACLE_SPECTRA[name]
        sp = PopulationSpectrum.from_pairs(atoms)
        xs = np.array([5e-324, 1e-300, 1e-100, 1e-60, 1e-30, 1e-8])
        want = np.array([_mp_density(x, sp, 1.0) for x in xs])
        assert np.all(np.abs(lsd_density(xs, sp, 1.0) - want) <= 1e-12 * want)

    @pytest.mark.parametrize("t,y,x", [
        (0.29686845068558426, 0.43049145907989467, 0.8142295360988765),
        (0.005163400205207724, 0.36361324130420697, 0.013267977855012091),
        (0.05665892124834359, 0.06789711708647024, 0.0900332141554738),
    ])
    def test_ulps_inside_an_edge_is_finite(self, t, y, x):
        # one or two ulps inside a one-atom edge, where the two roots meet:
        # they may come out real, and a Newton step from there divides by a
        # vanishing derivative.  The exact density changes by about its own
        # size per ulp of x here.  The midpoint makes the batch complex, as
        # it is on any lsd grid.
        sp = PopulationSpectrum.from_pairs([(t, 1.0)])
        xs = np.array([support_interval(sp, y)[1] / 2, x])
        got = lsd_density(xs, sp, y)
        want = np.array([_mp_density(v, sp, y) for v in xs])
        assert abs(got[0] - want[0]) <= 1e-12
        assert 0.0 <= got[1] <= 2.0 * want[1]

    def test_spectral_gap_is_exactly_zero(self):
        # inside the enclosing interval, left of the bulk of the 0.1 atom
        sp = PopulationSpectrum.from_pairs(ORACLE_SPECTRA["two_atom_0.1"])
        assert lsd_density(0.012834093047206396, sp, 0.5) == 0.0

    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    def test_normalization(self, name):
        # 2000-node Gauss-Legendre integral of the density over the bulk
        sp, y = BATTERY[name], 0.5
        lo, hi = support_interval(sp, y)
        nodes, weights = np.polynomial.legendre.leggauss(2000)
        xs = (hi + lo) / 2 + (hi - lo) / 2 * nodes
        total = (hi - lo) / 2 * sum(
            w * lsd_density(float(x), sp, y) for x, w in zip(xs, weights))
        assert total == pytest.approx(1.0, abs=1e-4)


@st.composite
def _density_problems(draw):
    """1-5 atoms (maybe one at zero, maybe two equal), a ratio and 1-3 points inside.

    The points keep 1e-3 of the enclosing interval from its ends.  Closer
    in, a one-atom edge (density ~ sqrt of the distance) or the hard edge at
    0 when y = 1 makes the exact density move more under a one-ulp change
    of x or of the weights than the 1e-12 checked here.
    """
    k = draw(st.integers(1, 5))
    ts = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        ts[0] = 0.0
    if k > 2 and draw(st.booleans()):
        ts[-1] = ts[-2]
    ws = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = math.fsum(ws)
    spectrum = PopulationSpectrum.from_pairs([(t, w / total) for t, w in zip(ts, ws)])
    y = draw(st.floats(0.05, 4.0))
    lo, hi = support_interval(spectrum, y)
    fractions = draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=3))
    return spectrum, y, [lo + (hi - lo) * f for f in fractions]


class TestDensityProperties:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(_density_problems())
    def test_herglotz_root_density(self, problem):
        spectrum, y, xs = problem
        got = lsd_density(np.array(xs), spectrum, y)
        assert np.all(got >= 0.0)
        want = np.array([_mp_density(x, spectrum, y) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-12


class TestCentering:
    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    def test_linear_statistic_is_population_mean(self, name):
        sp = BATTERY[name]
        p, y = 48, 0.5
        val = lss_centering(TestFunction.monomial(1), p, companion(sp, y))
        assert val == pytest.approx(p * population_moment(sp, 1), rel=1e-10)

    def test_constant_counts_dimension(self):
        val = lss_centering(TestFunction.polynomial([1.0]), 37, companion(IDENTITY, 0.5))
        assert val == pytest.approx(37.0, rel=1e-10)

    def test_second_moment_identity_population(self):
        p, y = 32, 0.5
        val = lss_centering(TestFunction.monomial(2), p, companion(IDENTITY, y))
        assert val == pytest.approx(p * (1 + y), rel=1e-10)

    def test_second_moment_general_population(self):
        # second moment of the limit law is m2 + y m1^2
        sp = BATTERY["two_atom"]
        p, y = 32, 0.5
        val = lss_centering(TestFunction.monomial(2), p, companion(sp, y))
        expected = p * (population_moment(sp, 2) + y * population_moment(sp, 1) ** 2)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_aspect_ratio_above_one_counts_zero_atom(self):
        # the primary law carries mass 1 - 1/y at zero when p > n
        p, y = 40, 2.0
        f = TestFunction.polynomial([1.0])
        assert lss_centering(f, p, companion(IDENTITY, y)) == pytest.approx(p, rel=1e-9)

    @pytest.mark.parametrize("name", ["identity", "five_atom"])
    def test_small_margin_does_not_stall(self, name):
        # on the identity a 0.01 margin stalled at an error estimate of
        # 3.0e-6 on the rectangle with one Gauss-Legendre panel per edge
        sp = BATTERY[name]
        p, y = 48, 0.5
        val = lss_centering(TestFunction.monomial(1), p, companion(sp, y, eps=0.01))
        assert val == pytest.approx(p * population_moment(sp, 1), rel=1e-10)
