import cmath
import math

import numpy as np
import pytest

from lsslab.spectral_model import PopulationSpectrum

# standard battery: single atoms, a zero-atom mix, a two-atom and a five-atom case
BATTERY = {
    "identity": PopulationSpectrum.identity(),
    "half": PopulationSpectrum.from_pairs([(0.5, 1.0)]),
    "with_zero": PopulationSpectrum.from_pairs([(0.0, 0.3), (1.0, 0.7)]),
    "two_atom": PopulationSpectrum.from_pairs([(0.4, 0.5), (1.0, 0.5)]),
    "five_atom": PopulationSpectrum.from_pairs(
        [(0.2, 0.2), (0.4, 0.2), (0.6, 0.2), (0.8, 0.2), (1.0, 0.2)]),
}


@pytest.fixture(scope="session")
def spectra():
    return BATTERY


def random_offbulk_points(spectrum, y, count, seed, im_range=(0.05, 2.0)):
    """Random complex points with Im z in the given band, both half planes."""
    from lsslab.spectral_model import support_interval

    lo, hi = support_interval(spectrum, y)
    rng = np.random.default_rng(seed)
    re = rng.uniform(lo - 2.0, hi + 2.0, size=count)
    im = rng.uniform(*im_range, size=count) * rng.choice([-1.0, 1.0], size=count)
    return re + 1j * im


def companion(spectrum, y, f=None, **contour):
    """The companion transform of (spectrum, y) at the nodes of ``build_contour``'s ellipse."""
    from lsslab.clt_moments import CompanionTransform
    from lsslab.contour import build_contour

    return CompanionTransform(spectrum, y, build_contour(spectrum, y, f=f, **contour))


def population_moment(spectrum, order):
    """Raw moment ``sum_k w_k t_k^order`` of the population distribution."""
    return math.fsum(w * t**order for t, w in spectrum.atoms)


def mp_quadratic_root(z, y):
    """Closed-form companion transform for the single-atom-at-1 population.

    Root of ``z s^2 + (z + 1 - y) s + 1 = 0`` on the Herglotz branch;
    independent oracle for the fixed point solver.
    """
    z = complex(z)
    b = z + 1.0 - y
    disc = cmath.sqrt(b * b - 4.0 * z)
    r1 = (-b + disc) / (2.0 * z)
    r2 = (-b - disc) / (2.0 * z)
    if z.imag != 0.0:
        return r1 if r1.imag * z.imag > 0 else r2
    # real z off support: the branch continuous from above has larger |.|
    lifted = mp_quadratic_root(z + 1e-9j, y)
    return r1 if abs(r1 - lifted) < abs(r2 - lifted) else r2


def inverse_map(s_under, spectrum, y_n):
    """Exact inverse of the companion transform.

    ``z(s_under) = -1/s_under + y * sum_k w_k t_k / (1 + t_k s_under)``.
    """
    s_under = complex(s_under)
    if s_under == 0:
        raise ValueError("inverse map undefined at s_under = 0")
    return -1.0 / s_under + y_n * sum(w * t / (1.0 + t * s_under) for t, w in spectrum.atoms)
