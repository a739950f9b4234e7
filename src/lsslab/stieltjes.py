"""Companion Stieltjes transform: one Newton solver and the exact density.

The central object is the transform ``s_under(z)`` of the companion
spectral law, characterized off the real bulk by the fixed point

    s_under = F(s_under) = -1 / (z - y * sum_k w_k t_k / (1 + t_k s_under)),

whose Herglotz branch (Im s_under has the sign of Im z) is the one with
probabilistic meaning.  Equivalently ``z(s_under) = z`` for the rational
inverse map ``z(s) = -1/s + y sum_k w_k t_k / (1 + t_k s)`` (Silverstein &
Choi 1995).  Every solve off the real axis runs Newton on that equation,
safeguarded by the plain step ``F``, certified by the fixed-point residual
``|F(s) - s| <= 1e-12 max(1, |s|)`` and polished by one last Newton step.
A solve starts at the Herglotz root of the one-atom equation at the mean
atom, which is the root itself on a one-atom spectrum, or at given starts
in the half plane of z (the nested contour nodes start from their solved
neighbours); on the axis the density is read off the eigenvalues of an
arrowhead matrix.  The transform of the primary law follows from the
companion relation ``s = (s_under + (1 - y)/z) / y``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .contour import real_part, trapezoid
from .errors import BranchViolation, NonConvergence, OutsideSupport
from .spectral_model import PopulationSpectrum, TestFunction, support_interval

if TYPE_CHECKING:
    from .clt_moments import CompanionTransform

# certified fixed-point residual |F(s) - s| <= _TOL max(1, |s|) at every converged point:
# relative once |s| > 1, where the rounding floor of F(s) - s grows with |s|
_TOL = 1e-12
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
    residual is at most ``1e-12 max(1, |s|)``: near the hard edge of a
    small-scale spectrum ``|s|`` reaches 1e4, and an absolute 1e-12 would
    lie below the rounding floor of ``F(s) - s`` there.  One more Newton
    step then polishes every point, kept where it is finite, stays in the
    half plane of z and does not raise the residual: it takes s from the
    certificate to the root's rounding, so a value does not depend on its
    start or on which points were solved together.  Returns
    ``(s, residual, iterations)`` per point, where ``iterations`` counts
    the iterates checked against the stopping test, the start included and
    the polish not.  Raises ``NonConvergence`` when points are left after
    10,000 steps and ``BranchViolation`` when a converged point lies in the
    wrong half plane.
    """
    z_all, s = z, s0
    s_out = np.empty_like(z_all)
    f_out = np.empty_like(z_all)
    dg_out = np.empty_like(z_all)
    res_out = np.empty(z_all.shape)
    it_out = np.empty(z_all.shape, dtype=int)
    idx = np.arange(z_all.size)

    def evaluate(z, s):
        g, dg = _atom_sum(spectrum, s)
        f = -1.0 / (z - y * g)
        return f, dg, np.abs(f - s)

    def newton_step(s, f, dg):
        # h(s) = 1/F(s) - 1/s, since z - y g(s) = -1/F(s)
        return s - (1.0 / f - 1.0 / s) / (1.0 / (s * s) + y * dg)

    def in_half_plane(z, s):
        return np.isfinite(s) & ((z.imag == 0.0) | (s.imag * z.imag > 0.0))

    with np.errstate(all="ignore"):
        f, dg, res = evaluate(z, s)
        for it in range(1, _MAX_ITER + 1):
            done = res <= _TOL * np.maximum(1.0, np.abs(s))
            if done.any():
                out = idx[done]
                s_out[out], f_out[out], dg_out[out] = s[done], f[done], dg[done]
                res_out[out] = res[done]
                it_out[out] = it
                live = ~done
                idx, z, s, f, dg, res = (a[live] for a in (idx, z, s, f, dg, res))
            if not idx.size:
                break
            newton = newton_step(s, f, dg)
            f_new, dg_new, res_new = evaluate(z, newton)
            keep = in_half_plane(z, newton) & (res_new < res)
            s = np.where(keep, newton, f)
            plain = ~keep
            if plain.any():
                f_new[plain], dg_new[plain], res_new[plain] = evaluate(z[plain], f[plain])
            f, dg, res = f_new, dg_new, res_new
        else:
            worst = int(np.argmax(res))
            raise NonConvergence(
                f"Stieltjes solve left {idx.size} points above residual {_TOL:.0e} max(1, |s|) "
                f"after {_MAX_ITER} steps; worst z={z[worst]} at residual {res[worst]:.3e}"
            )
        polished = newton_step(s_out, f_out, dg_out)
        _, _, res_new = evaluate(z_all, polished)
        keep = in_half_plane(z_all, polished) & (res_new <= res_out)
        s_out = np.where(keep, polished, s_out)
        res_out = np.where(keep, res_new, res_out)
    bad = s_out.imag * z_all.imag < 0.0
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise BranchViolation(f"wrong branch at z={z_all[i]}: Im s_under={s_out[i].imag:.3e}")
    return s_out, res_out, it_out


def _mean_atom_start(z: np.ndarray, spectrum: PopulationSpectrum, y: float) -> np.ndarray:
    """Start of the solve at every point of 1-D z: the one-atom root at the mean atom.

    With ``tbar = sum_k w_k t_k`` this is the Herglotz root of
    ``z tbar s^2 + (z + tbar (1 - y)) s + 1 = 0``, the companion transform
    of the one-atom spectrum at ``tbar``, so on a one-atom spectrum the
    start is the root.  Where that root is not finite or not in the half
    plane of z (``tbar = 0``, or real z), the start is ``-1/z``.
    """
    tbar = float(spectrum.weights @ spectrum.eigenvalues)
    with np.errstate(all="ignore"):
        a, b = z * tbar, z + tbar * (1.0 - y)
        disc = np.sqrt(b * b - 4.0 * a)
        # q takes the sign that avoids cancellation; the roots are q/a and 1/q
        q = -0.5 * np.where((b.conj() * disc).real >= 0.0, b + disc, b - disc)
        r1, r2 = q / a, 1.0 / q
        root = np.where(r1.imag * z.imag > 0.0, r1, r2)
        good = np.isfinite(root) & (root.imag * z.imag > 0.0)
        return np.where(good, root, -1.0 / z)


def _start(z: np.ndarray, spectrum: PopulationSpectrum, y: float, given=None) -> np.ndarray:
    """Start of the solve at every point of 1-D z: ``given`` where it is usable.

    A given start that is not finite or not strictly in the half plane of
    z is replaced by the mean-atom start, as is every start when none is
    given: the plain step keeps each half plane, so from the wrong one the
    solve never reaches the Herglotz root.
    """
    s0 = _mean_atom_start(z, spectrum, y)
    if given is None:
        return s0
    given = np.asarray(given, dtype=complex).ravel()
    return np.where(np.isfinite(given) & (given.imag * z.imag > 0.0), given, s0)


def solve_s_under(z: complex, spectrum: PopulationSpectrum, y_n: float, *,
                  s0: complex | None = None) -> StieltjesSolution:
    """Solve for the companion transform at one point off the spectral bulk.

    Runs the safeguarded Newton solve on a single point, from ``s0`` or
    the mean-atom start of ``s_under_grid``; as there, an ``s0`` that is
    not finite or not strictly in the half plane of z is replaced by the
    mean-atom start.  Real ``z`` (off support only) is handled by
    continuity: unless a finite ``s0`` is given, the equation is first
    solved at ``z + 1e-9j`` and the result warm-starts the solve on the
    real axis, which selects the boundary-value branch without sign
    ambiguity.
    ``residual`` is the certified ``|F(s) - s|`` (at most
    ``1e-12 max(1, |s|)``) and ``iterations`` counts the iterates checked,
    the start included.  Raises ``NonConvergence`` if the step cap runs out
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
        if s0 is None or not cmath.isfinite(s0):
            s0 = solve_s_under(z + 1j * _REAL_Z_LIFT, spectrum, y).s_under
        start = np.array([s0], dtype=complex)
    else:
        start = _start(np.array([z]), spectrum, y, s0)
    s, res, it = _solve(np.array([z]), start, spectrum, y)
    return StieltjesSolution(z=z, s_under=complex(s[0]),
                             s=complex(companion_to_primary(s[0], z, y)),
                             residual=float(res[0]), iterations=int(it[0]))


def s_under_grid(z: np.ndarray, spectrum: PopulationSpectrum, y_n: float,
                 start: np.ndarray | None = None) -> np.ndarray:
    """Companion transform over an array of strictly complex points.

    One safeguarded Newton solve over the flattened grid, with the same
    residual certificate, polish and branch check as ``solve_s_under``.
    Each point starts from ``start`` (same shape as z) when given, else
    from the Herglotz root of the one-atom equation at the mean atom
    ``sum_k w_k t_k``, falling back to ``-1/z`` where that root is not
    finite or not in the half plane of z.  A given start that is not
    finite or not strictly in the half plane of z is replaced by the
    mean-atom one: the plain step keeps each half plane, so from the wrong
    one the solve never reaches the Herglotz root.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    if np.any(flat.imag == 0.0):
        raise ValueError("grid solver expects Im z != 0 at every point; use solve_s_under")
    y = float(y_n)
    s, _, _ = _solve(flat, _start(flat, spectrum, y, start), spectrum, y)
    return s.reshape(z.shape)


def companion_to_primary(s_under: np.ndarray, z: np.ndarray, y_n: float) -> np.ndarray:
    """Transform of the primary law from the companion one."""
    return (s_under + (1.0 - y_n) / np.asarray(z, dtype=complex)) / y_n


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
    transform of the primary law, by the nested trapezoid ladder over the
    levels of ``s_under``: the companion transform of the run's
    ``(spectrum, y_n)``, which a run takes from its moments
    (``CltMoments.s_under``).  The imaginary part must vanish up to
    quadrature error (``contour.IMAG_RTOL``; ``QuadratureStall`` otherwise).
    """
    raw = trapezoid(lambda z, sv: f(z) * companion_to_primary(sv, z, s_under.y_n),
                    s_under, s_under.contour.m, "centering").value
    return real_part(-p / (2.0j * np.pi) * raw, "centering integral")

