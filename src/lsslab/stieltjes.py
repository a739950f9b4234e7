"""Companion Stieltjes transform: one Newton solver, inverse map, density.

The central object is the transform ``s_under(z)`` of the companion
spectral law, characterized off the real bulk by the fixed point

    s_under = F(s_under) = -1 / (z - y * sum_k w_k t_k / (1 + t_k s_under)),

whose Herglotz branch (Im s_under has the sign of Im z) is the one with
probabilistic meaning.  Equivalently ``z(s_under) = z`` for the rational
inverse map ``z(s) = -1/s + y sum_k w_k t_k / (1 + t_k s)`` (Silverstein &
Choi 1995).  Every solve runs Newton on that equation, safeguarded by the
plain step ``F`` and certified by the fixed-point residual ``|F(s) - s|``.
The transform of the primary law follows from the companion relation
``s = (s_under + (1 - y)/z) / y``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import BranchViolation, NonConvergence, OutsideSupport, PoleAtAtom
from .spectral_model import PopulationSpectrum, TestFunction, support_interval

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


_DENSITY_EPS = (1e-3, 5e-4, 2.5e-4)
_DENSITY_FLOOR = -1e-6  # extrapolations below this mark a point outside the support


def _density_grid(x: np.ndarray, spectrum: PopulationSpectrum, y_n: float) -> np.ndarray:
    """Spectral density of the limiting law at every point of 1-D x.

    Evaluates ``Im s(x + i eps) / pi`` on the fixed three-step geometric
    schedule with one solve over the whole grid per step, each warm-started
    from the previous one, and removes the O(eps) boundary error with one
    Richardson step on the two finest values.  A point beyond the enclosing
    interval, or whose extrapolation comes out below -1e-6, is NaN; an
    extrapolation between -1e-6 and 0 (a point in a spectral gap) rounds
    to zero.
    """
    lo, hi = support_interval(spectrum, y_n)
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    inside = (lo < x) & (x < hi)
    y = float(y_n)
    vals = []
    s = None
    for eps in _DENSITY_EPS:
        z = x[inside] + 1j * eps
        s, _, _ = _solve(z, -1.0 / z if s is None else s, spectrum, y)
        vals.append(companion_to_primary(s, z, y).imag / np.pi)
    extrapolated = 2.0 * vals[2] - vals[1]
    out[inside] = np.where(extrapolated < _DENSITY_FLOOR, np.nan,
                           np.maximum(extrapolated, 0.0))
    return out


def lsd_density(x: float, spectrum: PopulationSpectrum, y_n: float) -> float:
    """Spectral density of the limiting law at a point inside the bulk.

    The one-point case of ``_density_grid``.  Raises ``OutsideSupport``
    for x beyond the enclosing interval or when the extrapolation comes out
    below -1e-6 (a point in a spectral gap rounds to zero instead).
    """
    density = float(_density_grid(np.array([x], dtype=float), spectrum, y_n)[0])
    if np.isnan(density):
        lo, hi = support_interval(spectrum, y_n)
        raise OutsideSupport(f"x={x} outside the support: beyond the enclosing interval "
                             f"[{lo}, {hi}] or extrapolated below {_DENSITY_FLOOR:.0e}")
    return density


def lss_centering(f: TestFunction, spectrum: PopulationSpectrum, y_n: float, p: int,
                  contour=None) -> float:
    """Deterministic centering term of the linear spectral statistic.

    Computes ``-(p / 2 pi i) * contour integral of f(z) s(z) dz`` with the
    transform of the primary law on a rectangle enclosing the bulk.  The
    imaginary part must vanish up to quadrature error (checked against
    1e-8 relative) and is discarded.
    """
    from . import contour as contour_mod

    if contour is None:
        contour = contour_mod.build_contour(spectrum, y_n, f=f)

    def integrand(z):
        s_u = s_under_grid(z, spectrum, y_n)
        return f(z) * companion_to_primary(s_u, z, y_n)

    raw = contour_mod.integrate(integrand, contour)
    value = -p / (2.0j * np.pi) * raw
    if abs(value.imag) > 1e-8 * (1.0 + abs(value.real)):
        raise NonConvergence(
            f"centering integral kept an imaginary residue {value.imag:.3e}"
        )
    return float(value.real)


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
