"""Companion Stieltjes transform: one Newton solver, inverse map, exact density.

The central object is the transform ``s_under(z)`` of the companion
spectral law, characterized off the real bulk by the fixed point

    s_under = F(s_under) = -1 / (z - y * sum_k w_k t_k / (1 + t_k s_under)),

whose Herglotz branch (Im s_under has the sign of Im z) is the one with
probabilistic meaning.  Equivalently ``z(s_under) = z`` for the rational
inverse map ``z(s) = -1/s + y sum_k w_k t_k / (1 + t_k s)`` (Silverstein &
Choi 1995).  Every solve off the real axis runs Newton on that equation,
safeguarded by the plain step ``F`` and certified by the fixed-point
residual ``|F(s) - s|``; on the axis the density is read off the
eigenvalues of an arrowhead matrix.  The transform of the primary law
follows from the companion relation ``s = (s_under + (1 - y)/z) / y``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .contour import real_part, trapezoid
from .errors import BranchViolation, NonConvergence, OutsideSupport, PoleAtAtom
from .spectral_model import PopulationSpectrum, TestFunction, support_interval

if TYPE_CHECKING:
    from .clt_moments import CompanionTransform

_TOL = 1e-12  # certified fixed-point residual |F(s) - s| at every converged point
_MAX_ITER = 10_000
_REAL_Z_LIFT = 1e-9  # imaginary offset used to select the branch at real z


@dataclass(frozen=True)
class StieltjesSolution:
    """Converged transform values at one point z."""

    z: complex
    s_under: complex
    s: complex
    residual: float
    iterations: int


def _atom_sum(spectrum: PopulationSpectrum, s: np.ndarray):
    """``g(s) = sum_k w_k t_k / (1 + t_k s)`` and ``g'(s)`` over a 1-D array s."""
    t = spectrum.eigenvalues
    inv = 1.0 / (1.0 + np.multiply.outer(t, s))
    terms = (spectrum.weights * t)[:, None] * inv
    return terms.sum(axis=0), -(terms * t[:, None] * inv).sum(axis=0)


def _solve(z: np.ndarray, s0: np.ndarray, spectrum: PopulationSpectrum,
           y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton solve of the companion equation at every point of 1-D z.

    Newton runs on the inverse map, ``h(s) = -1/s + y g(s) - z`` with
    ``h'(s) = 1/s^2 + y g'(s)``.  A Newton step is kept only where the new
    point is finite, lies in the half plane of z (anywhere when Im z = 0)
    and lowers the fixed-point residual ``|F(s) - s|`` of
    ``F(s) = -1/(z - y g(s))``; elsewhere the plain step ``F(s)`` is taken,
    which maps each half plane into itself.  A point is done once its
    residual is at most 1e-12.  Returns ``(s, residual, iterations)`` per
    point, where ``iterations`` counts the iterates checked, the start
    included.  Raises ``NonConvergence`` when points are left after
    10,000 steps and ``BranchViolation`` when a converged point lies in the
    wrong half plane.
    """
    z_all, s = z, s0
    s_out = np.empty_like(z_all)
    res_out = np.empty(z_all.shape)
    it_out = np.empty(z_all.shape, dtype=int)
    idx = np.arange(z_all.size)

    def evaluate(z, s):
        g, dg = _atom_sum(spectrum, s)
        f = -1.0 / (z - y * g)
        return f, dg, np.abs(f - s)

    with np.errstate(all="ignore"):
        f, dg, res = evaluate(z, s)
        for it in range(1, _MAX_ITER + 1):
            done = res <= _TOL
            if done.any():
                s_out[idx[done]] = s[done]
                res_out[idx[done]] = res[done]
                it_out[idx[done]] = it
                live = ~done
                idx, z, s, f, dg, res = (a[live] for a in (idx, z, s, f, dg, res))
            if not idx.size:
                break
            # h(s) = 1/F(s) - 1/s, since z - y g(s) = -1/F(s)
            newton = s - (1.0 / f - 1.0 / s) / (1.0 / (s * s) + y * dg)
            f_new, dg_new, res_new = evaluate(z, newton)
            keep = (np.isfinite(newton) & (res_new < res)
                    & ((z.imag == 0.0) | (newton.imag * z.imag > 0.0)))
            s = np.where(keep, newton, f)
            plain = ~keep
            if plain.any():
                f_new[plain], dg_new[plain], res_new[plain] = evaluate(z[plain], f[plain])
            f, dg, res = f_new, dg_new, res_new
        else:
            worst = int(np.argmax(res))
            raise NonConvergence(
                f"Stieltjes solve left {idx.size} points above residual {_TOL:.0e} after "
                f"{_MAX_ITER} steps; worst z={z[worst]} at residual {res[worst]:.3e}"
            )
    bad = s_out.imag * z_all.imag < 0.0
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise BranchViolation(f"wrong branch at z={z_all[i]}: Im s_under={s_out[i].imag:.3e}")
    return s_out, res_out, it_out


def solve_s_under(z: complex, spectrum: PopulationSpectrum, y_n: float, *,
                  s0: complex | None = None) -> StieltjesSolution:
    """Solve for the companion transform at one point off the spectral bulk.

    Runs the safeguarded Newton solve on a single point, from ``s0`` or
    ``-1/z``.  Real ``z`` (off support only) is handled by continuity: the
    equation is first solved at ``z + 1e-9j`` and the result warm-starts
    the solve on the real axis, which selects the boundary-value branch
    without sign ambiguity.  ``residual`` is the certified ``|F(s) - s|``
    (at most 1e-12) and ``iterations`` counts the iterates checked, the
    start included.  Raises ``NonConvergence`` if the step cap runs out
    and ``BranchViolation`` if the converged point lands on the wrong half
    plane.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 is never off the companion support")
    y = float(y_n)
    if z.imag == 0.0:
        lo, hi = support_interval(spectrum, y)
        if lo <= z.real <= hi:
            raise ValueError(f"real z={z.real} lies in the closed support [{lo}, {hi}]")
        if s0 is None:
            s0 = solve_s_under(z + 1j * _REAL_Z_LIFT, spectrum, y).s_under
    z_arr = np.array([z])
    start = -1.0 / z_arr if s0 is None else np.array([s0], dtype=complex)
    s, res, it = _solve(z_arr, start, spectrum, y)
    s = complex(s[0])
    s_primary = (s + (1.0 - y) / z) / y
    return StieltjesSolution(z=z, s_under=s, s=s_primary, residual=float(res[0]),
                             iterations=int(it[0]))


def s_under_grid(z: np.ndarray, spectrum: PopulationSpectrum, y_n: float) -> np.ndarray:
    """Companion transform over an array of strictly complex points.

    One safeguarded Newton solve over the flattened grid, started at
    ``-1/z``, with the same residual certificate and branch check as
    ``solve_s_under``.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if np.any(flat.imag == 0.0):
        raise ValueError("grid solver expects Im z != 0 at every point; use solve_s_under")
    s, _, _ = _solve(flat, -1.0 / flat, spectrum, float(y_n))
    return s.reshape(z.shape)


def companion_to_primary(s_under: np.ndarray, z: np.ndarray, y_n: float) -> np.ndarray:
    """Transform of the primary law from the companion one."""
    return (s_under + (1.0 - y_n) / np.asarray(z, dtype=complex)) / y_n


def inverse_map(s_under: complex, spectrum: PopulationSpectrum, y_n: float) -> complex:
    """Exact inverse of the companion transform.

    ``z(s_under) = -1/s_under + y * sum_k w_k t_k / (1 + t_k s_under)``.
    Raises ``PoleAtAtom`` when an atom makes ``1 + t_k s_under`` vanish.
    """
    s_under = complex(s_under)
    if s_under == 0:
        raise ValueError("inverse map undefined at s_under = 0")
    for t, _ in spectrum.atoms:
        if abs(1.0 + t * s_under) < 1e-14:
            raise PoleAtAtom(f"1 + t*s_under vanished at atom t={t}")
    g, _ = _atom_sum(spectrum, np.array([s_under]))
    return -1.0 / s_under + y_n * complex(g[0])


def lsd_density(x, spectrum: PopulationSpectrum, y_n: float):
    """Spectral density of the limiting law at a point or a 1-D array of points.

    Exact for atomic spectra: over the nonzero atoms, the roots of the
    companion equation at real x in ``sigma = sqrt(x) s_under`` are the
    eigenvalues of the arrowhead matrix with corner
    ``(y sum_k w_k - 1)/sqrt(x)``, diagonal ``-sqrt(x)/t_k``, first row
    ``beta_k`` and first column ``-beta_k``, where ``beta_k^2 = y w_k/t_k``.
    One root lies between each pair of neighbouring poles, so at most one
    has Im sigma > 0; the density is ``Im sigma / (pi y sqrt(x))``, and
    exactly 0 in a spectral gap, where every root is real.  One Newton step
    polishes that root unless the step is not finite or leaves the upper
    half plane.  Raises ``OutsideSupport`` for any x outside the open
    enclosing interval.
    """
    lo, hi = support_interval(spectrum, y_n)
    x = np.asarray(x, dtype=float)
    outside = x[~((lo < x) & (x < hi))]
    if outside.size:
        raise OutsideSupport(f"x={outside[0]} outside the open enclosing interval ({lo}, {hi})")
    nonzero = spectrum.eigenvalues > 0
    t, w = spectrum.eigenvalues[nonzero], spectrum.weights[nonzero]
    beta = np.sqrt(y_n * w / t)
    sqrt_x = np.sqrt(x.ravel())
    # y sum w - 1 rounded once, so that the hard edge at 0 keeps its digits
    corner = float(Fraction(y_n) * sum(map(Fraction, w)) - 1) / sqrt_x
    poles = sqrt_x[:, None] / t
    arrow = np.zeros((sqrt_x.size, t.size + 1, t.size + 1))
    arrow[:, 0, 0], arrow[:, 0, 1:], arrow[:, 1:, 0] = corner, beta, -beta
    arrow[:, 1:, 1:] = -poles[:, :, None] * np.eye(t.size)
    roots = np.linalg.eigvals(arrow)
    sigma = roots[np.arange(sqrt_x.size), np.argmax(roots.imag, axis=1)]
    r = 1.0 / (sigma[:, None] + poles)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        polished = sigma - (sigma - corner + r @ beta**2) / (1.0 - (r * r) @ beta**2)
    keep = np.isfinite(polished) & ((polished.imag > 0) | (sigma.imag <= 0))
    sigma = np.where(keep, polished, sigma)
    density = (np.maximum(sigma.imag, 0.0) / (np.pi * y_n * sqrt_x)).reshape(x.shape)
    return float(density) if density.ndim == 0 else density


def lss_centering(f: TestFunction, p: int, s_under: CompanionTransform) -> float:
    """Deterministic centering term of the linear spectral statistic.

    Computes ``-(p / 2 pi i) * contour integral of f(z) s(z) dz`` with the
    transform of the primary law, by the nested trapezoid ladder on the
    contour of ``s_under`` over its values: the companion transform of the
    run's ``(spectrum, y_n)``, which a run takes from its moments
    (``CltMoments.s_under``).  The imaginary part must vanish up to
    quadrature error (``contour.IMAG_RTOL``; ``QuadratureStall`` otherwise)
    and is discarded.
    """
    contour, y_n = s_under.contour, s_under.y_n

    def values(m):
        z, _ = contour.nodes(m)
        return f(z) * companion_to_primary(s_under(m), z, y_n)

    raw = trapezoid(values, contour, "centering").value
    return real_part(-p / (2.0j * np.pi) * raw, "centering integral")


def mp_quadratic_root(z: complex, y: float) -> complex:
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
    lifted = mp_quadratic_root(z + 1j * _REAL_Z_LIFT, y)
    return r1 if abs(r1 - lifted) < abs(r2 - lifted) else r2
