"""The elliptic integration contour with the nested trapezoid rule.

The contour is an ellipse inscribed in the rectangle
``[x_l, x_r] x [-v_0, v_0]``, traversed counterclockwise.  The builder
makes it confocal with the enclosing interval ``[lo, hi]`` of the bulk:
with centre ``c`` and half-width ``h`` of that interval its nodes are

    z = c + h (rho e^{i theta} + e^{-i theta} / rho) / 2

at equally spaced ``theta``, where ``rho > 1`` is the ellipse's conformal
radius.  It passes through ``hi + eps``, so the margin ``eps`` alone sets
``rho = 1 + e + sqrt(e (2 + e))`` with ``e = eps / h``.  The trapezoid
rule on it converges geometrically, at a rate set by ``rho`` against 1
(the bulk) and against the conformal radius of the nearest singularity of the integrand outside it (Trefethen & Weideman, SIAM
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
The nested Monte-Carlo column sums need no ladder: they take the unshifted,
conjugate-symmetric rule, of which ``Contour.upper_half`` gives the half in
``Im z > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FlatContour, LogDomain, NodeSingularity, QuadratureStall
from .spectral_model import PopulationSpectrum, TestFunction, support_interval

DEFAULT_NODES = 64
MIN_NODES = 16
MAX_NODES = 1 << 13  # c03's pole at 1.2 + 0.3j needs 2048
MIN_RHO = 1.006  # least conformal radius of a contour: ladders below it stall (README)
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
        return self._at(2.0 * np.pi * np.arange(m) / m + np.pi / (3.0 * self.m), m)

    def upper_half(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the conjugate-symmetric m-node rule in ``Im z > 0``.

        That rule puts its nodes at ``theta_k = 2 pi (k + 1/2) / m``, with no
        shift, so they pair as ``z`` and ``conj(z)`` with weights ``w`` and
        ``-conj(w)``.  For an integrand with ``F(conj z) = conj F(z)``, such
        as ``f(z) / (lam - z)`` with real f and real lam, each mirror node
        adds the conjugate of its partner's term of
        ``(1 / 2 pi i) sum w F``: the whole rule's sum is twice the real
        part of these m/2 terms.  This rule does not nest with the levels
        of ``nodes``.
        """
        return self._at(2.0 * np.pi * (np.arange(self.m // 2) + 0.5) / self.m, self.m)

    def _at(self, theta: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Points z at angles theta and their weights ``(2 pi / m) dz/dtheta``."""
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


def _confocal(lo: float, hi: float, eps: float, m: int) -> Contour:
    """The ellipse with foci lo and hi through ``hi + eps``."""
    h = (hi - lo) / 2.0
    a = h + eps
    c = (lo + hi) / 2.0
    return Contour(x_l=c - a, x_r=c + a, v_0=math.sqrt(eps * (2.0 * h + eps)), m=m)


def _margin(h: float, rho: float) -> float:
    """The margin past its foci ``c -+ h`` of the ellipse of conformal radius rho."""
    return h * ((rho + 1.0 / rho) / 2.0 - 1.0)


def build_contour(spectrum: PopulationSpectrum, y: float, eps: float | None = None,
                  m: int = DEFAULT_NODES, f: TestFunction | None = None) -> Contour:
    """The contour around the enclosing interval ``[lo, hi]`` of the bulk.

    For every f but log it is the ellipse confocal with ``[lo, hi]``
    through ``x_r = hi + eps``; ``eps`` defaults to ``0.05 (hi - lo + 1)``.
    For ``f = log`` it is the square-root-mapped one (``Contour.sqrt_map``):
    the ellipse in ``w = sqrt(z)`` confocal with ``[sqrt(lo), sqrt(hi)]``
    through ``sqrt(hi + eps)``.  Its default radius there is ``R_w^(1/2)``,
    where ``R_w = (hi^(1/4) + lo^(1/4)) / (hi^(1/4) - lo^(1/4))`` is the
    radius of log's singularity ``w = 0``: it balances the convergence rate
    against the bulk (radius 1) with the rate against 0.  Raises, before
    any work, ``LogDomain`` when log is asked for and ``lo <= 0`` or the
    w-ellipse reaches ``Re w <= 0``, and ``FlatContour`` when the conformal
    radius is below ``MIN_RHO``, whose ladder would stall at ``MAX_NODES``.
    """
    if eps is not None and eps <= 0:
        raise ValueError("eps must be positive")
    lo, hi = support_interval(spectrum, y)
    margin = default_margin(spectrum, y) if eps is None else eps
    if f is None or f.kind != "log":
        c = _confocal(lo, hi, margin, m)
        least = _margin((hi - lo) / 2.0, MIN_RHO)
    else:
        w_lo, w_hi = math.sqrt(lo), math.sqrt(hi)
        if eps is None and lo > 0:
            q_lo, q_hi = math.sqrt(w_lo), math.sqrt(w_hi)
            eps_w = _margin((w_hi - w_lo) / 2.0, math.sqrt((q_hi + q_lo) / (q_hi - q_lo)))
        else:
            eps_w = math.sqrt(hi + margin) - w_hi
        c = _confocal(w_lo, w_hi, eps_w, m)
        if not (lo > 0 and c.x_l > 0):
            raise LogDomain(
                f"f = log needs the bulk away from 0 and its contour's ellipse in w = sqrt(z) "
                f"in Re w > 0, but at y = {y} the bulk's lower edge is {lo} and the ellipse "
                f"reaches Re w = {c.x_l}: keep p < n with no zero atom, and contour.eps smaller"
            )
        least = (w_hi + _margin((w_hi - w_lo) / 2.0, MIN_RHO)) ** 2 - hi
        c = replace(c, x_l=c.x_l * c.x_l, x_r=c.x_r * c.x_r, sqrt_map=True)
    if c.rho < MIN_RHO:
        digits = 2 - math.floor(math.log10(least))  # least rounded up to 3 digits
        raise FlatContour(
            f"at y = {y} the contour's conformal radius is {c.rho:.6f}, below {MIN_RHO}, "
            f"so its ladder would stall at {MAX_NODES} nodes: take contour.eps >= "
            f"{math.ceil(least * 10**digits) / 10**digits:.3g}"
        )
    return c


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
