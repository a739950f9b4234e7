"""The elliptic integration contour with the nested trapezoid rule.

The contour is the ellipse inscribed in the rectangle
``[x_l, x_r] x [-v_0, v_0]``, traversed counterclockwise.  The builder
makes it confocal with the enclosing interval ``[lo, hi]`` of the bulk:
with centre ``c`` and half-width ``h`` of that interval its nodes are

    z = c + h (rho e^{i theta} + e^{-i theta} / rho) / 2

at equally spaced ``theta``, where ``rho > 1`` is the ellipse's conformal
radius.  The trapezoid rule on it converges geometrically, at a rate set by
``rho`` against 1 (the bulk) and against the conformal radius of the
nearest singularity of the integrand outside it (Trefethen & Weideman, SIAM
Rev. 56, 2014).  One contour serves every integral of the lab: the mean,
the centering and both variables of the variance's double integral, whose
integrand is analytic off the bulk in each variable (``clt_moments``).
Every ``theta`` is shifted by ``pi / (3 m0)`` for the starting node count
``m0``: the levels ``m0 2^k`` then nest, so the rule at m nodes holds the
rule at m/2 as its even-index half, and no node lands on the real axis.
Quadrature error is controlled by comparing the two and doubling m until
their difference clears the tolerance; each node is evaluated once however
many levels run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    ``m`` is the starting node count of the ladder; it also fixes the
    angular shift that makes the levels ``m 2^k`` nest.
    """

    x_l: float
    x_r: float
    v_0: float
    m: int = DEFAULT_NODES

    def __post_init__(self):
        if not self.x_l < self.x_r:
            raise ValueError(f"need x_l < x_r, got [{self.x_l}, {self.x_r}]")
        if self.v_0 <= 0:
            raise ValueError("v_0 must be positive")
        if not MIN_NODES <= self.m <= MAX_NODES:
            raise ValueError(f"node count {self.m} outside [{MIN_NODES}, {MAX_NODES}]")

    @property
    def rho(self) -> float:
        """Conformal radius: ``(a + b) / sqrt(|a^2 - b^2|)`` for semi-axes a and b."""
        a = (self.x_r - self.x_l) / 2.0
        focal = math.sqrt(abs(a * a - self.v_0 * self.v_0))
        return (a + self.v_0) / focal if focal else math.inf

    def nodes(self, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes z and trapezoid weights ``(2 pi / m) dz/dtheta``."""
        m = self.m if m is None else m
        theta = 2.0 * np.pi * np.arange(m) / m + np.pi / (3.0 * self.m)
        a = (self.x_r - self.x_l) / 2.0
        cos, sin = np.cos(theta), np.sin(theta)
        z = (self.x_l + a) + a * cos + 1j * self.v_0 * sin
        return z, (2.0 * np.pi / m) * (-a * sin + 1j * self.v_0 * cos)


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
    """The ellipse confocal with the enclosing interval ``[lo, hi]`` of the bulk.

    It reaches ``hi + eps`` on the real axis, shrunk if needed so that its
    half-height stays at most ``v_0``.  ``eps`` defaults to
    ``0.05 (hi - lo + 1)``; for ``f = log``, whose singularity 0 sits at
    conformal radius ``R0 = (sqrt(hi) + sqrt(lo)) / (sqrt(hi) - sqrt(lo))``,
    the default radius is ``R0^(1/2)`` instead, which balances the
    convergence rate against the bulk (radius 1) with the rate against 0.
    Raises ``LogDomain`` before any work when log is asked for and the
    ellipse reaches ``Re z <= 0`` (always so when ``lo = 0``).
    """
    if (eps is not None and eps <= 0) or v_0 <= 0:
        raise ValueError("eps and v_0 must be positive")
    lo, hi = support_interval(spectrum, y)
    log = f is not None and f.kind == "log"
    if log and eps is None and lo > 0:
        r = math.sqrt((math.sqrt(hi) + math.sqrt(lo)) / (math.sqrt(hi) - math.sqrt(lo)))
        eps = (hi - lo) / 2.0 * ((r + 1.0 / r) / 2.0 - 1.0)
    elif eps is None:
        eps = default_margin(spectrum, y)
    c = _confocal(lo, hi, eps, v_0, m)
    if log and not (lo > 0 and c.x_l > 0):
        raise LogDomain(
            f"log test function needs the contour in Re z > 0, but the bulk lower edge "
            f"is {lo} and the contour reaches x_l={c.x_l}; the bulk must stay away from "
            f"0 (y < 1, no zero atom) and contour.eps below it"
        )
    return c


def _eval_nodes(g, z: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(z), dtype=complex)
    if vals.shape != z.shape:
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        bad = z[~np.isfinite(vals)][0]
        raise NodeSingularity(f"integrand not finite at node z={bad}")
    return vals


class NodeValues:
    """A vectorized function at the nested nodes of one contour, each node evaluated once.

    ``values(m)`` is g at ``c.nodes(m)``.  Asking for a finer level
    evaluates g at the new nodes only; a coarser one is a stride of the
    values already held.  Levels must be the contour's ``m`` times powers
    of 2.
    """

    def __init__(self, g, c: Contour):
        self.g, self.contour = g, c
        self._values = np.empty(0, dtype=complex)

    def __call__(self, m: int) -> np.ndarray:
        have = self._values.size
        if m <= have:
            return self._values[::have // m]
        z, _ = self.contour.nodes(m)
        values = np.empty(m, dtype=complex)
        new = np.ones(m, dtype=bool)
        if have:
            new[::m // have] = False
            values[::m // have] = self._values
        values[new] = _eval_nodes(self.g, z[new])
        self._values = values
        return values


@dataclass(frozen=True)
class Quadrature:
    """Where a ladder stopped: the accepted sum, its node count and error estimate."""

    value: complex
    nodes: int
    error: float


def _doubling_ladder(level, m: int, what: str) -> tuple[Quadrature, object]:
    """Node-doubling error control shared by every contour integral.

    ``level(k)`` returns ``(fine, coarse, info)``: the rule at k nodes and
    the rule at k/2, its even-index half.  Their difference is
    the error estimate; the first level whose estimate clears
    ``RTOL * (1 + |fine|)`` is returned with its ``info``.  Gives up with
    QuadratureStall past 8192 nodes.
    """
    while True:
        fine, coarse, info = level(m)
        err = abs(fine - coarse)
        if err <= RTOL * (1.0 + abs(fine)):
            return Quadrature(fine, m, err), info
        if 2 * m > MAX_NODES:
            raise QuadratureStall(
                f"{what} error estimate {err:.3e} still above rtol={RTOL} at {m} nodes"
            )
        m *= 2


def trapezoid(values, c: Contour, what: str) -> Quadrature:
    """Ladder of the closed-path integral whose integrand at ``c.nodes(m)`` is ``values(m)``."""
    def level(m):
        _, w = c.nodes(m)
        v = values(m)
        return complex(w @ v), complex(2.0 * (w[::2] @ v[::2])), None

    return _doubling_ladder(level, c.m, what)[0]


def integrate(g, c: Contour) -> complex:
    """Closed-path integral of a vectorized complex function over c."""
    return trapezoid(NodeValues(g, c), c, "contour integral").value


def real_part(value: complex, what: str) -> float:
    """The real part of an integral that must be real.

    Raises ``QuadratureStall`` when the imaginary residue exceeds
    ``IMAG_RTOL * (1 + |real part|)``.
    """
    if abs(value.imag) > IMAG_RTOL * (1.0 + abs(value.real)):
        raise QuadratureStall(f"{what} kept an imaginary residue {value.imag:.3e}")
    return float(value.real)
