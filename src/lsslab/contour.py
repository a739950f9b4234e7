"""Rectangular integration contours with Gauss-Legendre quadrature.

A contour is a positively oriented rectangle ``[x_l, x_r] x [-v_0, v_0]``
enclosing the spectral bulk, with one Gauss-Legendre panel per edge.
Quadrature error is controlled by comparing the rule at m and 2m nodes per
edge and doubling until the difference clears the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LogDomain, NodeSingularity, QuadratureStall
from .spectral_model import PopulationSpectrum, TestFunction, support_interval

DEFAULT_NODES = 64
DEFAULT_V0 = 1.0
_MIN_NODES = 16
_MAX_EXTRA_DOUBLINGS = 2


@lru_cache(maxsize=32)
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


@dataclass(frozen=True)
class Contour:
    """Closed rectangle traversed counterclockwise.

    Edge order: bottom (left to right at -v_0), right (up), top (right to
    left at +v_0), left (down); endpoints chain back to the start.
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
        if self.m < _MIN_NODES:
            raise ValueError(f"node count {self.m} below the minimum {_MIN_NODES}")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.x_l, -self.v_0),
            complex(self.x_r, -self.v_0),
            complex(self.x_r, self.v_0),
            complex(self.x_l, self.v_0),
        )

    @property
    def segments(self) -> tuple[tuple[complex, complex], ...]:
        a, b, c, d = self.corners
        return ((a, b), (b, c), (c, d), (d, a))

    def nodes(self, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes z and complex weights (including dz direction)."""
        m = self.m if m is None else m
        xi, w = _leggauss(m)
        zs, ws = [], []
        for start, end in self.segments:
            mid = (start + end) / 2.0
            half = (end - start) / 2.0
            zs.append(mid + half * xi)
            ws.append(half * w)
        return np.concatenate(zs), np.concatenate(ws)


@dataclass(frozen=True)
class ContourPair:
    """Strictly nested contours for the double variance integral."""

    inner: Contour
    outer: Contour

    def __post_init__(self):
        ok = (self.outer.x_l < self.inner.x_l and self.inner.x_r < self.outer.x_r
              and self.inner.v_0 < self.outer.v_0)
        if not ok:
            raise ValueError("outer contour must strictly contain the inner one")


def default_margin(spectrum: PopulationSpectrum, y: float) -> float:
    lo, hi = support_interval(spectrum, y)
    return 0.05 * (hi - lo + 1.0)


def build_contour(spectrum: PopulationSpectrum, y: float, eps: float | None = None,
                  v_0: float = DEFAULT_V0, m: int = DEFAULT_NODES,
                  f: TestFunction | None = None) -> Contour:
    """Rectangle enclosing the bulk with horizontal margin eps.

    ``x_r = hi + eps``; ``x_l = lo - eps`` when the bulk stays away from
    zero, otherwise any negative number does and ``-eps`` is used.  A log
    test function requires the whole rectangle in Re z > 0.
    """
    if eps is None:
        eps = default_margin(spectrum, y)
    if eps <= 0 or v_0 <= 0:
        raise ValueError("eps and v_0 must be positive")
    lo, hi = support_interval(spectrum, y)
    x_r = hi + eps
    x_l = lo - eps if lo > 0 else -eps
    if f is not None and f.kind == "log" and x_l <= 0:
        raise LogDomain(
            f"log test function needs x_l > 0, got x_l={x_l} (bulk lower edge {lo})"
        )
    return Contour(x_l=x_l, x_r=x_r, v_0=v_0, m=m)


def build_contour_pair(spectrum: PopulationSpectrum, y: float, eps: float | None = None,
                       v_0: float = DEFAULT_V0, m: int = DEFAULT_NODES,
                       f: TestFunction | None = None) -> ContourPair:
    """Nested rectangles: outer widened horizontally by eps, height doubled."""
    inner = build_contour(spectrum, y, eps, v_0, m, f=f)
    eps_used = eps if eps is not None else default_margin(spectrum, y)
    if f is not None and f.kind == "log" and inner.x_l - eps_used <= 0:
        raise LogDomain("outer contour of the pair would cross Re z = 0")
    outer = Contour(x_l=inner.x_l - eps_used, x_r=inner.x_r + eps_used,
                    v_0=2.0 * v_0, m=m)
    return ContourPair(inner=inner, outer=outer)


def _eval_nodes(g, z: np.ndarray) -> np.ndarray:
    vals = np.asarray(g(z), dtype=complex)
    if vals.shape != z.shape:
        raise ValueError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        bad = z[~np.isfinite(vals)][0]
        raise NodeSingularity(f"integrand not finite at node z={bad}")
    return vals


def _sum(g, c: Contour, m: int) -> complex:
    z, w = c.nodes(m)
    return complex(np.sum(w * _eval_nodes(g, z)))


def _doubling_ladder(level, m: int, rtol: float, what: str):
    """Node-doubling error control shared by every contour integral.

    ``level(k)`` returns ``(value, info)`` for the rule at k nodes per edge.
    Levels m and 2m are compared; the difference is the error estimate and
    the finer level's ``(value, info)`` is returned once it clears
    ``rtol * (1 + |fine|)``.  The node count is doubled at most twice more
    before giving up with QuadratureStall.
    """
    coarse, _ = level(m)
    for _ in range(_MAX_EXTRA_DOUBLINGS + 1):
        m *= 2
        fine, info = level(m)
        err = abs(fine - coarse)
        if err <= rtol * (1.0 + abs(fine)):
            return fine, info
        coarse = fine
    raise QuadratureStall(
        f"{what} error estimate {err:.3e} still above rtol={rtol} at {m} nodes/edge"
    )


def integrate(g, c: Contour, rtol: float = 1e-9) -> complex:
    """Closed-path integral of a vectorized complex function over c."""
    value, _ = _doubling_ladder(lambda m: (_sum(g, c, m), None), c.m, rtol,
                                "contour integral")
    return value
