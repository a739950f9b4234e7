"""Asymptotic mean and variance of centered linear spectral statistics.

Both quantities are contour integrals against the companion transform:

    mean      = -(1/2 pi i) * integral of f(z) * I3(z) / (1 - I2(z))^2 dz
    variance  = -(1/2 pi^2) * double integral of
                f'(z1) f'(z2) * a(z1,z2) * int_0^1 dt / (1 - t a(z1,z2))

with ``I_k(z) = y * sum_j w_j t_j^k s(z)^k (1 + t_j s(z))^{-k}`` evaluated
at the companion transform s and the covariance kernel

    a(z1,z2) = y s(z1) s(z2) sum_j w_j t_j^2 / ((1 + t_j s(z1))(1 + t_j s(z2))).

The kernel stays strictly inside the unit disk on nested contours, so the
inner t-integral collapses to ``-log(1 - a)`` (principal branch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import Contour, ContourPair, _doubling_ladder, build_contour_pair
from .errors import DenominatorNearZero, KernelOutOfDisk, QuadratureStall, ZeroVariance
from .spectral_model import PopulationSpectrum, TestFunction
from .stieltjes import s_under_grid

_IMAG_RTOL = 1e-8


@dataclass(frozen=True)
class CltMoments:
    """Deterministic CLT ingredients for one (f, spectrum, y, case)."""

    mu: float
    sigma: float
    case: str  # "RG" or "CG"
    kernel_max_abs: float

    def __post_init__(self):
        if self.case not in ("RG", "CG"):
            raise ValueError(f"case must be RG or CG, got {self.case!r}")


def kernel_from_s(s1, s2, spectrum: PopulationSpectrum, y_n: float):
    """Covariance kernel from precomputed companion-transform values.

    ``a = y sum_k w_k u_k(s1) u_k(s2)`` with ``u_k(s) = t_k s / (1 + t_k s)``.
    Each product is taken both ways round and averaged: numpy's complex
    multiply may fuse one side, and the kernel must be exactly symmetric.
    """
    s1 = np.asarray(s1, dtype=complex)
    s2 = np.asarray(s2, dtype=complex)
    acc = np.zeros(np.broadcast(s1, s2).shape, dtype=complex)
    for t, w in spectrum.atoms:
        u1 = t * s1 / (1.0 + t * s1)
        u2 = t * s2 / (1.0 + t * s2)
        acc += (0.5 * w * y_n) * (u1 * u2 + u2 * u1)
    return acc if acc.shape else complex(acc)


def _a_times_t_integral(a):
    """a * int_0^1 dt/(1 - t a), i.e. -log(1 - a), series-stabilized near 0."""
    a = np.asarray(a, dtype=complex)
    small = np.abs(a) < 1e-8
    out = np.empty_like(a)
    out[~small] = -np.log(1.0 - a[~small])
    asm = a[small]
    out[small] = asm * (1.0 + asm / 2.0 + asm * asm / 3.0)
    return out


def _mean_integrand(z, spectrum: PopulationSpectrum, y_n: float):
    s = s_under_grid(z, spectrum, y_n)
    i3 = np.zeros_like(s)
    i2 = np.zeros_like(s)
    for t, w in spectrum.atoms:
        ts = 1.0 + t * s
        i2 += w * t * t * s * s / ts**2
        i3 += w * t * t * s**3 / ts**3
    i2 *= y_n
    i3 *= y_n
    denom = 1.0 - i2
    near = np.abs(denom) < 1e-10
    if near.any():
        zb = np.asarray(z)[near][0]
        raise DenominatorNearZero(f"|1 - I2| < 1e-10 at node z={zb}")
    return i3 / denom**2


def mean_correction(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                    c: Contour) -> float:
    """Asymptotic mean of the centered statistic (real-entry case)."""
    from . import contour as contour_mod

    def g(z):
        return f(z) * _mean_integrand(z, spectrum, y_n)

    raw = contour_mod.integrate(g, c)
    value = -raw / (2.0j * np.pi)
    if abs(value.imag) > _IMAG_RTOL * (1.0 + abs(value.real)):
        raise QuadratureStall(f"mean kept imaginary residue {value.imag:.3e}")
    return float(value.real)


def _variance_level(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                    pair: ContourPair, m: int) -> tuple[complex, float]:
    z1, w1 = pair.inner.nodes(m)
    z2, w2 = pair.outer.nodes(m)
    s1 = s_under_grid(z1, spectrum, y_n)
    s2 = s_under_grid(z2, spectrum, y_n)
    a = kernel_from_s(s1[:, None], s2[None, :], spectrum, y_n)
    amax = float(np.max(np.abs(a)))
    if amax >= 1.0:
        raise KernelOutOfDisk(f"|a| reached {amax:.6f} on the node grid")
    grid = f.deriv(z1)[:, None] * f.deriv(z2)[None, :] * _a_times_t_integral(a)
    return complex(w1 @ grid @ w2), amax


def variance_with_kernel(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                         pair: ContourPair, rtol: float = 1e-9) -> tuple[float, float]:
    """Variance plus the maximum kernel modulus seen on the finest grid.

    Same doubling ladder as the contour engine, with the transform solved
    once per node and the kernel assembled by broadcasting.
    """
    fine, amax = _doubling_ladder(
        lambda m: _variance_level(f, spectrum, y_n, pair, m), pair.inner.m, rtol, "variance")
    raw = -fine / (2.0 * np.pi**2)
    if abs(raw.imag) > _IMAG_RTOL * (1.0 + abs(raw.real)):
        raise QuadratureStall(f"variance kept imaginary residue {raw.imag:.3e}")
    return float(raw.real), amax


def variance(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
             pair: ContourPair, rtol: float = 1e-9) -> float:
    """Asymptotic variance of the centered statistic."""
    sigma, _ = variance_with_kernel(f, spectrum, y_n, pair, rtol)
    return sigma


def compute_moments(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                    case: str, *, eps: float | None = None, v_0: float = 1.0,
                    m: int = 64, rtol: float = 1e-9) -> CltMoments:
    """Mean, variance and kernel diagnostic for one configuration.

    The mean correction applies to the real-entry case only; the circular
    complex case has zero asymptotic mean by construction and its
    normalization divides by sqrt(sigma / 2) instead.
    """
    pair = build_contour_pair(spectrum, y_n, eps, v_0, m, f=f)
    sigma, kernel_max = variance_with_kernel(f, spectrum, y_n, pair, rtol)
    if case == "RG":
        mu = mean_correction(f, spectrum, y_n, pair.inner)
    elif case == "CG":
        mu = 0.0
    else:
        raise ValueError(f"case must be RG or CG, got {case!r}")
    if not f.is_constant and sigma <= 0.0:
        raise ZeroVariance(
            f"sigma={sigma} for nonconstant f; contour orientation needs review"
        )
    if f.is_constant:
        sigma = max(sigma, 0.0)
    return CltMoments(mu=mu, sigma=sigma, case=case, kernel_max_abs=kernel_max)


def normalize(lss_centered: float, m: CltMoments) -> float:
    """Case normalization of one centered statistic value."""
    if m.sigma <= 0.0:
        raise ZeroVariance("cannot normalize with sigma <= 0")
    if m.case == "RG":
        return (lss_centered - m.mu) / np.sqrt(m.sigma)
    return lss_centered / np.sqrt(m.sigma / 2.0)
