"""The elliptic integration contour with the nested trapezoid rule.

The contour is an ellipse inscribed in the rectangle
``[x_l, x_r] x [-v_0, v_0]``, traversed counterclockwise.  The builder
makes it confocal with the enclosing interval ``[lo, hi]`` of the bulk:
with centre ``c`` and half-width ``h`` of that interval its nodes are

    z = c + h (rho e^{i theta} + e^{-i theta} / rho) / 2

at equally spaced ``theta``, where ``rho > 1`` is the ellipse's conformal
radius.  The trapezoid rule on it converges geometrically, at a rate set by
``rho`` against 1 (the bulk) and against the conformal radius of the
nearest singularity of the integrand outside it (Trefethen & Weideman, SIAM
Rev. 56, 2014).  For ``f = log`` that singularity is 0, whose radius in z
tends to 1 as the bulk's lower edge ``lo`` does (``y -> 1``), so the rule
there runs on the square-root map instead: the ellipse lies in
``w = sqrt(z)``, confocal with ``[sqrt(lo), sqrt(hi)]``, and the nodes are
``z = w^2`` with ``dz = 2 w dw``.  In w, 0 sits at radius
``(hi^(1/4) + lo^(1/4)) / (hi^(1/4) - lo^(1/4))``, which tends to 1 only
like the fourth root of ``lo``.  ``z = w^2`` is one-to-one on ``Re w > 0``,
so the mapped curve is a simple closed curve around the bulk that crosses
the real axis at ``x_l`` and ``x_r``, the squares of the w-ellipse's
crossings; ``v_0`` and ``rho`` are then the w-ellipse's.

One contour serves every integral of the lab: the mean, the centering and
both variables of the variance's double integral, whose integrand is
analytic off the bulk in each variable (``clt_moments``).
Every ``theta`` is shifted by ``pi / (3 m0)`` for the starting node count
``m0``, which is even: the levels ``m0 2^k``, from ``m0 / 2`` on, then
nest, so the rule at m nodes holds the rule at m/2 as its even-index half,
and no node lands on the real axis.  One ladder (``_doubling_ladder``)
serves every integral: it starts from the whole rule at ``m0 / 2``, and
each finer level adds only its new odd-index nodes to the level below,
``Q_m = Q_{m/2} / 2 + w_odd . v_odd``, and m doubles until the difference
of the two, the error estimate, clears the tolerance.  Each node is
evaluated once; the CLT's levels are formed once, in a ``CompanionTransform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LogDomain, NodeSingularity, QuadratureStall
from .spectral_model import PopulationSpectrum, TestFunction, support_interval

DEFAULT_NODES = 64
DEFAULT_V0 = 1.0
MIN_NODES = 16
MAX_NODES = 1 << 13  # c03's pole at 1.2 + 0.3j needs 2048
RTOL = 1e-9  # relative tolerance of the mean, the variance and the centering
IMAG_RTOL = 1e-8  # largest imaginary residue of a real integral, relative to 1 + |real part|


@dataclass(frozen=True)
class Contour:
    """Ellipse inscribed in ``[x_l, x_r] x [-v_0, v_0]``, traversed counterclockwise.

    ``m`` is the node count of the ladder's first checked level; it is even,
    so that the ladder can start at m/2, and it fixes the angular shift that
    makes the levels ``m 2^k`` nest.  With ``sqrt_map`` the ellipse lies in
    ``w = sqrt(z)``, inscribed in ``[sqrt(x_l), sqrt(x_r)] x [-v_0, v_0]``,
    and the contour is its image under ``z = w^2``, which needs ``x_l > 0``.
    """

    x_l: float
    x_r: float
    v_0: float
    m: int = DEFAULT_NODES
    sqrt_map: bool = False

    def __post_init__(self):
        if not self.x_l < self.x_r:
            raise ValueError(f"need x_l < x_r, got [{self.x_l}, {self.x_r}]")
        if self.v_0 <= 0:
            raise ValueError("v_0 must be positive")
        if not MIN_NODES <= self.m <= MAX_NODES or self.m % 2:
            raise ValueError(f"node count {self.m} must be even and in [{MIN_NODES}, {MAX_NODES}]")
        if self.sqrt_map and self.x_l <= 0:
            raise ValueError(f"the square-root map needs x_l > 0, got {self.x_l}")

    def _semi_axis(self) -> tuple[float, float]:
        """Centre and real semi-axis of the ellipse, in w for ``sqrt_map`` and in z else."""
        left, right = self.x_l, self.x_r
        if self.sqrt_map:
            left, right = math.sqrt(left), math.sqrt(right)
        a = (right - left) / 2.0
        return left + a, a

    @property
    def rho(self) -> float:
        """Conformal radius: ``(a + b) / sqrt(|a^2 - b^2|)`` for semi-axes a and b."""
        a = self._semi_axis()[1]
        focal = math.sqrt(abs(a * a - self.v_0 * self.v_0))
        return (a + self.v_0) / focal if focal else math.inf

    def nodes(self, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes z and trapezoid weights ``(2 pi / m) dz/dtheta``."""
        m = self.m if m is None else m
        theta = 2.0 * np.pi * np.arange(m) / m + np.pi / (3.0 * self.m)
        centre, a = self._semi_axis()
        cos, sin = np.cos(theta), np.sin(theta)
        pts = centre + a * cos + 1j * self.v_0 * sin  # on the ellipse: z, or w with sqrt_map
        dpts = (2.0 * np.pi / m) * (-a * sin + 1j * self.v_0 * cos)
        if self.sqrt_map:  # z = w^2, dz = 2 w dw
            return pts * pts, 2.0 * pts * dpts
        return pts, dpts


def default_margin(spectrum: PopulationSpectrum, y: float) -> float:
    lo, hi = support_interval(spectrum, y)
    return 0.05 * (hi - lo + 1.0)


def _confocal(lo: float, hi: float, eps: float, v_0: float, m: int) -> Contour:
    """Largest ellipse with foci lo and hi inside ``[lo - eps, hi + eps] x [-v_0, v_0]``."""
    h = (hi - lo) / 2.0
    a = h + eps
    b = math.sqrt(eps * (2.0 * h + eps))  # sqrt(a^2 - h^2)
    if b > v_0:
        a, b = math.sqrt(v_0 * v_0 + h * h), v_0
    c = (lo + hi) / 2.0
    return Contour(x_l=c - a, x_r=c + a, v_0=b, m=m)


def build_contour(spectrum: PopulationSpectrum, y: float, eps: float | None = None,
                  v_0: float = DEFAULT_V0, m: int = DEFAULT_NODES,
                  f: TestFunction | None = None) -> Contour:
    """The contour around the enclosing interval ``[lo, hi]`` of the bulk.

    It reaches ``x_r = hi + eps`` on the real axis, shrunk if needed so that
    its ellipse's half-height stays at most ``v_0``; ``eps`` defaults to
    ``0.05 (hi - lo + 1)``.  For every f but log it is the ellipse confocal
    with ``[lo, hi]``.  For ``f = log`` it is the square-root-mapped one
    (``Contour.sqrt_map``): the ellipse in ``w = sqrt(z)`` confocal with
    ``[sqrt(lo), sqrt(hi)]`` through ``sqrt(hi + eps)``.  Its default
    radius there is ``R_w^(1/2)``, where
    ``R_w = (hi^(1/4) + lo^(1/4)) / (hi^(1/4) - lo^(1/4))`` is the radius of
    log's singularity ``w = 0``: it balances the convergence rate against
    the bulk (radius 1) with the rate against 0.  Raises ``LogDomain``
    before any work when log is asked for and ``lo <= 0`` or the w-ellipse
    reaches ``Re w <= 0``.
    """
    if (eps is not None and eps <= 0) or v_0 <= 0:
        raise ValueError("eps and v_0 must be positive")
    lo, hi = support_interval(spectrum, y)
    margin = default_margin(spectrum, y) if eps is None else eps
    if f is None or f.kind != "log":
        return _confocal(lo, hi, margin, v_0, m)
    w_lo, w_hi = math.sqrt(lo), math.sqrt(hi)
    if eps is None and lo > 0:
        q_lo, q_hi = math.sqrt(w_lo), math.sqrt(w_hi)
        r = math.sqrt((q_hi + q_lo) / (q_hi - q_lo))
        eps_w = (w_hi - w_lo) / 2.0 * ((r + 1.0 / r) / 2.0 - 1.0)
    else:
        eps_w = math.sqrt(hi + margin) - w_hi
    c = _confocal(w_lo, w_hi, eps_w, v_0, m)
    if not (lo > 0 and c.x_l > 0):
        raise LogDomain(
            f"f = log needs the bulk away from 0 and its contour's ellipse in w = sqrt(z) "
            f"in Re w > 0, but at y = {y} the bulk's lower edge is {lo} and the ellipse "
            f"reaches Re w = {c.x_l}: keep p < n with no zero atom, and contour.eps smaller"
        )
    return replace(c, x_l=c.x_l * c.x_l, x_r=c.x_r * c.x_r, sqrt_map=True)


def _checked(vals, z: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=complex)
    if vals.shape != z.shape:
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        bad = z[~np.isfinite(vals)][0]
        raise NodeSingularity(f"integrand not finite at node z={bad}")
    return vals


@dataclass(frozen=True)
class Quadrature:
    """Where a ladder stopped: the accepted sum, its node count and error estimate."""

    value: complex
    nodes: int
    error: float


def _doubling_ladder(level, m0: int, what: str) -> tuple[Quadrature, object]:
    """Node-doubling error control shared by every contour integral.

    ``level(m, below)`` returns ``(rule, info)`` at m nodes: the whole rule
    when ``below`` is None, at the first level ``m0 / 2``, and else the rule
    formed from ``below``, the ``(rule, info)`` of level m/2, and the new
    odd-index nodes only.  The difference of a level's rule and the one
    below is its error estimate; the first level whose estimate clears
    ``RTOL * (1 + |rule|)`` is returned with its ``info``.  Gives up with
    QuadratureStall past 8192 nodes.
    """
    m = m0 // 2
    below = level(m, None)
    while True:
        m *= 2
        fine, info = level(m, below)
        err = abs(fine - below[0])
        if err <= RTOL * (1.0 + abs(fine)):
            return Quadrature(fine, m, err), info
        if 2 * m > MAX_NODES:
            raise QuadratureStall(
                f"{what} error estimate {err:.3e} still above rtol={RTOL} at {m} nodes"
            )
        below = fine, info


def trapezoid(integrand, nodes, m0: int, what: str) -> Quadrature:
    """Ladder of the closed-path integral of ``integrand(z, *values)`` from m0 / 2 nodes.

    ``nodes(m) -> (z, w, *values)`` is a level (``Contour.nodes``, or a
    ``CompanionTransform`` with its values s).  ``integrand`` gets only the
    nodes a level adds and their values: all of the first level, the
    odd-index ones after it, which go to half the rule below.
    """
    def level(m, below):
        new = slice(None) if below is None else slice(1, None, 2)
        z, w, *values = (a[new] for a in nodes(m))
        rule = complex(w @ _checked(integrand(z, *values), z))
        return (rule if below is None else below[0] / 2.0 + rule), None

    return _doubling_ladder(level, m0, what)[0]


# no run calls it; perfbench/spans.py wraps it by name
def integrate(g, c: Contour) -> complex:
    """Closed-path integral of a vectorized complex function over c."""
    return trapezoid(g, c.nodes, c.m, "contour integral").value


def real_part(value: complex, what: str) -> float:
    """The real part of an integral that must be real.

    Raises ``QuadratureStall`` when the imaginary residue exceeds
    ``IMAG_RTOL * (1 + |real part|)``.
    """
    if abs(value.imag) > IMAG_RTOL * (1.0 + abs(value.real)):
        raise QuadratureStall(f"{what} kept an imaginary residue {value.imag:.3e}")
    return float(value.real)
