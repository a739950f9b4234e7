"""Asymptotic mean and variance of centered linear spectral statistics.

Both quantities are contour integrals against the companion transform:

    mean      = -(1/2 pi i) * integral of f(z) * I3(z) / (1 - I2(z))^2 dz
    variance  = -(1/2 pi^2) * double integral of
                f'(z1) f'(z2) * a(z1,z2) * int_0^1 dt / (1 - t a(z1,z2))

with ``I_k(z) = y * sum_j w_j t_j^k s(z)^k (1 + t_j s(z))^{-k}`` evaluated
at the companion transform s and the covariance kernel

    a(z1,z2) = y s(z1) s(z2) sum_j w_j t_j^2 / ((1 + t_j s(z1))(1 + t_j s(z2))).

The kernel is the rank-K sum ``a = sum_k v_k(s1) v_k(s2)`` with
``v_k(s) = sqrt(y w_k) t_k s / (1 + t_k s)``, so ``I2(z) = a(z, z)`` and,
by Cauchy-Schwarz, ``|a(z1,z2)|^2 <= a(z1,conj z1) a(z2,conj z2)``, where
``a(z,conj z) = 1 - Im z |s|^2 / Im s < 1`` off the real axis.  The kernel
therefore stays strictly inside the unit disk for every pair of non-real
points, the inner t-integral collapses to ``-log(1 - a)`` (principal
branch), and that log is analytic in each variable off the bulk: unlike
the double pole ``s1' s2' / (s1 - s2)^2`` it came from by parts, it has no
singularity on ``z1 = z2``.  So both variables run over the same contour.

That contour is one ellipse around the bulk, or for ``f = log`` the image
under ``z = w^2`` of one in ``w = sqrt(z)`` (``contour.py``), with the
nested trapezoid rule, whose levels share their nodes.  The mean, the
variance and a run's centering read the law ``(spectrum, y_n)``, the
contour and each level's ``(z, w, s)`` from one ``CompanionTransform``,
solved once per node; the moment set also names the entry law it was
computed for, and a run draws from that law.  All three integrals climb
one ladder (``contour._doubling_ladder``): it starts from the whole rule
at half the contour's node count, and each finer level adds only what
its new odd-index nodes bring to the level below.  For the mean and the centering
that is the integrand at those nodes, so each node is evaluated once.  For
the variance it is the m^2/2 kernel cells of the odd-index rows: the
even-index quarter of the m x m grid is the grid of the level below, and
the kernel is exactly symmetric.  So a ladder that ends at M nodes forms
about M^2/2 cells, in row blocks of bounded size.  Each block of the
kernel is one real matrix product of small factor matrices
(``kernel_from_s``).  The log is taken in real arithmetic,
``-log(1 - a) = -log1p(ar (ar - 2) + ai^2) / 2 + i atan2(ai, 1 - ar)``,
which is accurate to rounding for every ``|a| < 1``
(``_a_times_t_integral``).  ``f'`` is folded into the quadrature weights,
``g = w f'(z)``, and a level is ``g @ L @ g``, so no f'-grid is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .contour import Contour, _doubling_ladder, build_contour, real_part, trapezoid
from .errors import DenominatorNearZero, KernelOutOfDisk, ZeroVariance
from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction
from .stieltjes import s_under_grid

_BLOCK_CELLS = 1 << 18  # kernel cells formed at once in a variance level


class CompanionTransform:
    """The companion transform of one ``(spectrum, y_n)`` at the nested nodes of one contour.

    ``s(m)`` is the level ``(z, w, s)``: ``contour.nodes(m)`` and ``s_under``
    there, for m only the contour's ``m`` times a power of 2.  It holds its
    finest filled level, and a coarser one is a stride of it (weights times
    the stride), so each level is formed once.  The first fill solves the
    contour's m nodes from the solver's mean-atom start; each doubling only
    its new odd-index nodes, each from the midpoint of its two neighbours.
    """

    def __init__(self, spectrum: PopulationSpectrum, y_n: float, contour: Contour):
        self.spectrum, self.y_n, self.contour = spectrum, y_n, contour
        self._z = self._w = self._values = np.empty(0, dtype=complex)

    def __call__(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if m < 1 or np.frexp(m / self.contour.m)[0] != 0.5:  # not a power of 2 apart
            raise ValueError(f"no level of {m} nodes: the levels are {self.contour.m} * 2^k")
        while self._values.size < m:
            self._refine()
        k = self._values.size // m
        return self._z[::k], self._w[::k] * k, self._values[::k]

    def _refine(self) -> None:
        held = self._values
        z, w = self.contour.nodes(2 * held.size or self.contour.m)
        if held.size:
            values = np.repeat(held, 2)
            values[1::2] = s_under_grid(z[1::2], self.spectrum, self.y_n,
                                        held + 0.5 * (np.roll(held, -1) - held))
        else:
            values = s_under_grid(z, self.spectrum, self.y_n)
        self._z, self._w, self._values = z, w, values


@dataclass(frozen=True)
class CltMoments:
    """Deterministic CLT ingredients for one (f, spectrum, y, entry law)."""

    mu: float
    sigma: float
    ensemble: EntryEnsemble  # the entry law: a run draws from it
    kernel_max_abs: float
    # provenance, not compared: the test function and the companion
    # transform the moments were integrated over (a run takes f, the
    # spectrum, y_n and the contour from them) and where each ladder
    # stopped ({"mean": Quadrature, "variance": Quadrature}, no mean for CG)
    f: TestFunction = field(compare=False)
    s_under: CompanionTransform = field(compare=False)
    quadrature: dict = field(default_factory=dict, compare=False)

    @property
    def case(self) -> str:
        """The normalization case: ``"CG"`` for complex entries, ``"RG"`` for real ones."""
        return "CG" if self.ensemble.is_complex else "RG"

    @property
    def contour(self) -> Contour:
        return self.s_under.contour


def _atom_factors(s: np.ndarray, spectrum: PopulationSpectrum, y_n: float) -> np.ndarray:
    """``v_k(s) = sqrt(y w_k) t_k s / (1 + t_k s)`` for every atom, on a new last axis."""
    ts = s[..., None] * spectrum.eigenvalues
    return np.sqrt(y_n * spectrum.weights) * (ts / (1.0 + ts))


def kernel_from_s(s1, s2, spectrum: PopulationSpectrum, y_n: float) -> np.ndarray:
    """Covariance kernel on the grid of two 1-D arrays of companion-transform values.

    ``a[i, j] = a(s1[i], s2[j]) = sum_k v_k(s1[i]) v_k(s2[j])`` with
    ``v_k(s) = sqrt(y w_k) t_k s / (1 + t_k s)``, i.e.
    ``y sum_k w_k u_k(s1) u_k(s2)`` with ``u_k(s) = t_k s / (1 + t_k s)``.
    The ``len(s1) x len(s2)`` grid is one real matrix product of rank-3K
    factors, written straight into the complex result:

        Re a = [ar, ai, ar + ai] . [br, -bi, 0]
        Im a = [ar, ai, ar + ai] . [-br, -bi, br + bi]

    with ``v(s1) = ar + i ai`` and ``v(s2) = br + i bi``.  The factors are
    written into two preallocated matrices, the right one holding the
    real- and imaginary-part rows of each ``s2`` in turn.  Swapping s1 and
    s2 forms the same products in the same order, so the kernel is exactly
    symmetric.  Other shapes raise ``ValueError``.
    """
    s1 = np.asarray(s1, dtype=complex)
    s2 = np.asarray(s2, dtype=complex)
    if s1.ndim != 1 or s2.ndim != 1:
        raise ValueError(f"kernel_from_s takes two 1-D arrays; got shapes {s1.shape} "
                         f"and {s2.shape}")
    a = _atom_factors(s1, spectrum, y_n)  # (n1, K)
    b = _atom_factors(s2, spectrum, y_n)  # (n2, K)
    k = a.shape[1]
    left = np.empty((s1.size, 3 * k))
    left[:, :k], left[:, k:2 * k] = a.real, a.imag
    np.add(a.real, a.imag, out=left[:, 2 * k:])
    right = np.zeros((s2.size, 2, 3 * k))  # rows (Re, Im) of each s2
    right[:, 0, :k], right[:, 1, :k] = b.real, -b.real
    right[:, 0, k:2 * k] = right[:, 1, k:2 * k] = -b.imag
    np.add(b.real, b.imag, out=right[:, 1, 2 * k:])
    return (left @ right.reshape(2 * s2.size, 3 * k).T).view(complex)


def _a_times_t_integral(a):
    """a * int_0^1 dt/(1 - t a) = -log(1 - a) on the principal branch, in real arithmetic.

    ``-log(1 - a) = -log1p(ar (ar - 2) + ai^2) / 2 + i atan2(ai, 1 - ar)`` with
    ``a = ar + i ai``: ``|1 - a|^2 - 1`` is formed without cancellation and
    handed to the real ``log1p``, so the result is accurate to rounding for
    every ``|a| < 1``, down to ``a -> 0``.
    """
    a = np.asarray(a, dtype=complex)
    ar, ai = a.real, a.imag
    out = np.empty_like(a)
    x = ar - 2.0
    x *= ar
    x += ai * ai
    np.log1p(x, out=out.real)
    out.real *= -0.5
    np.arctan2(ai, 1.0 - ar, out=out.imag)
    return out


def _mean_integrand(z, s, spectrum: PopulationSpectrum, y_n: float):
    """``I3 / (1 - I2)^2`` from the companion transform s at the nodes z.

    ``I2 = sum_k v_k^2`` (the kernel's diagonal ``a(z, z)``) and
    ``I3 = sum_k v_k^2 s / (1 + t_k s)``, with the factors of ``_atom_factors``.
    """
    v2 = _atom_factors(s, spectrum, y_n) ** 2
    s = s[..., None]
    i2 = v2.sum(axis=-1)
    i3 = (v2 * (s / (1.0 + spectrum.eigenvalues * s))).sum(axis=-1)
    denom = 1.0 - i2
    near = np.abs(denom) < 1e-10
    if near.any():
        zb = np.asarray(z)[near][0]
        raise DenominatorNearZero(f"|1 - I2| < 1e-10 at node z={zb}")
    return i3 / denom**2


def mean_correction(f: TestFunction, s: CompanionTransform, *,
                    report: dict | None = None) -> float:
    """Asymptotic mean of the centered statistic (real-entry case) over the transform s.

    ``report["mean"]``, when a dict is given, receives where the ladder
    stopped, with its error estimate in units of the mean.
    """
    quad = trapezoid(lambda z, sv: f(z) * _mean_integrand(z, sv, s.spectrum, s.y_n),
                     s, s.contour.m, "mean")
    value = -quad.value / (2.0j * np.pi)
    mean = real_part(value, "mean")
    if report is not None:
        report["mean"] = replace(quad, value=value, error=quad.error / (2.0 * np.pi))
    return mean


def _variance_level(f: TestFunction, s: CompanionTransform, m: int,
                    below: tuple[complex, float] | None = None) -> tuple[complex, float]:
    """The rule at m nodes and the largest |a| on the m x m node grid.

    Both variables run over the level ``(z, w, s) = s(m)``, so a level is
    ``Q_m = g @ L @ g`` with ``g = w f'(z)`` and ``L = -log(1 - a)`` on the
    node grid.  Without ``below`` the whole grid is formed.  With
    ``below = (Q_{m/2}, amax)``, the rule and the largest |a| of the level
    below, only the strip of odd-index rows against all m columns is formed:
    the even-index quarter of the grid is the level below, whose weights
    are twice these, and L is exactly symmetric, so
    ``Q_m = Q_{m/2}/4 + g_odd @ L_strip @ h`` with h the g with its even
    entries doubled.  Rows go in blocks of at most 2^18 cells, so memory
    stays bounded however fine the level.
    """
    z, w, sv = s(m)
    g = w * f.deriv(z)
    if below is None:
        first, stride, h, fine, amax = 0, 1, g, 0j, 0.0
    else:
        first, stride, h = 1, 2, g.copy()
        h[::2] *= 2.0
        fine, amax = below[0] / 4.0, below[1]
    rows = max(1, _BLOCK_CELLS // m)
    for i in range(first, m, stride * rows):
        cut = slice(i, i + stride * rows, stride)
        a = kernel_from_s(sv[cut], sv, s.spectrum, s.y_n)
        amax = max(amax, float(np.max(np.abs(a))))
        if amax >= 1.0:
            raise KernelOutOfDisk(f"|a| reached {amax:.6f} on the node grid")
        fine += g[cut] @ (_a_times_t_integral(a) @ h)
    return complex(fine), amax


def variance_with_kernel(f: TestFunction, s: CompanionTransform, *,
                         report: dict | None = None) -> tuple[float, float]:
    """Variance over the transform s plus the largest kernel modulus on the accepted grid.

    The ladder's first level forms its whole kernel grid; each finer level
    forms only the cells its new nodes add (``_variance_level``).
    ``report["variance"]``, when a dict is given, receives where the ladder
    stopped, with its error estimate in units of the variance.
    """
    quad, amax = _doubling_ladder(lambda m, below: _variance_level(f, s, m, below),
                                  s.contour.m, "variance")
    raw = -quad.value / (2.0 * np.pi**2)
    variance = real_part(raw, "variance")
    if report is not None:
        report["variance"] = replace(quad, value=raw, error=quad.error / (2.0 * np.pi**2))
    return variance, amax


def compute_moments(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                    ensemble: EntryEnsemble, *, eps: float | None = None) -> CltMoments:
    """Mean, variance and kernel diagnostic for one configuration.

    The mean correction applies to real entries only; circular complex
    entries have zero asymptotic mean by construction and their
    normalization divides by sqrt(sigma / 2) instead.  The transform at
    the contour's nodes is solved once and shared by the variance and the
    mean; the result keeps it, with f and the entry law, for a run to
    draw, center and normalize with.
    """
    s = CompanionTransform(spectrum, y_n, build_contour(spectrum, y_n, eps, f=f))
    report = {}
    sigma, kernel_max = variance_with_kernel(f, s, report=report)
    mu = 0.0
    if not ensemble.is_complex:
        mu = mean_correction(f, s, report=report)
    if not f.is_constant and sigma <= 0.0:
        raise ZeroVariance(
            f"sigma={sigma} for nonconstant f; contour orientation needs review"
        )
    if f.is_constant:
        sigma = 0.0  # f' = 0 sums exact zeros, which may carry a minus sign
    return CltMoments(mu=mu, sigma=sigma, ensemble=ensemble, kernel_max_abs=kernel_max,
                      f=f, s_under=s, quadrature=report)


def normalize(lss_centered: float, m: CltMoments) -> float:
    """Case normalization of one centered statistic value."""
    if m.sigma <= 0.0:
        raise ZeroVariance("cannot normalize with sigma <= 0")
    if m.case == "RG":
        return (lss_centered - m.mu) / np.sqrt(m.sigma)
    return lss_centered / np.sqrt(m.sigma / 2.0)
