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
