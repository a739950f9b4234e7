"""Domain types shared by every other module.

Population spectra are kept spectrally, as weighted atoms ``(t_k, w_k)``:
only the eigenvalues of the population matrix enter any downstream formula,
so a diagonal representative is materialized lazily by the simulator and
every deterministic integral against the population distribution reduces to
a finite weighted sum over the atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import LogDomain

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class PopulationSpectrum:
    """Atomic population eigenvalue distribution.

    ``atoms`` is a sequence of ``(eigenvalue, weight)`` pairs with finite,
    nonnegative eigenvalues and positive weights summing to one.  The
    spectral norm is not capped: the CLT needs ``||T_p||`` bounded, not at
    most 1, and every formula holds for any finite atoms.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("spectrum needs at least one atom")
        atoms = tuple((float(t), float(w)) for t, w in self.atoms)
        for t, w in atoms:
            if not 0 <= t < math.inf:
                raise ValueError(f"atom {t} is negative or not finite")
            if not 0 < w < math.inf:
                raise ValueError(f"weight {w} is not positive and finite")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, expected 1 within {_WEIGHT_TOL}")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def identity(cls) -> "PopulationSpectrum":
        """The point mass at 1 (identity population matrix)."""
        return cls(atoms=((1.0, 1.0),))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "PopulationSpectrum":
        """Build a spectrum from ``(eigenvalue, weight)`` pairs whose weights sum to 1."""
        return cls(atoms=tuple(pairs))

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([t for t, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def min_eigenvalue(self) -> float:
        return min(t for t, _ in self.atoms)

    @property
    def max_eigenvalue(self) -> float:
        return max(t for t, _ in self.atoms)


def support_interval(spectrum: PopulationSpectrum, y: float) -> tuple[float, float]:
    """Enclosing interval of the limiting spectral bulk.

    Returns ``[t_min * 1_{(0,1)}(y) * (1-sqrt(y))^2, t_max * (1+sqrt(y))^2]``
    with ``t_min``/``t_max`` the extreme atoms.  The lower endpoint is zero
    whenever ``y >= 1``.  For multi-atom spectra the true bulk may split
    into several intervals; this is the single enclosing one.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    sq = math.sqrt(y)
    lo = spectrum.min_eigenvalue * (1.0 - sq) ** 2 if 0.0 < y < 1.0 else 0.0
    hi = spectrum.max_eigenvalue * (1.0 + sq) ** 2
    return lo, hi


# ---------------------------------------------------------------------------
# entry ensembles


@dataclass(frozen=True)
class EntryEnsemble:
    """Distribution family of the matrix entries.

    ``variant`` is ``"RG"`` (real, Gaussian-matched fourth moment),
    ``"CG"`` (complex, circular, E|x|^4 = 2), or ``"custom_real"``.  Custom
    real families carry a unit-variance sampler plus a density, evaluated on
    arrays, used for the distributional truncated moments; ``fourth_moment``
    must be the exact E|x|^4 of the standardized entries.  A truncated law
    draws the base law zeroed at ``|x| >= threshold``, less ``mean``, over
    ``sqrt(variance)``.
    """

    variant: str
    name: str = ""
    sampler: Callable | None = field(default=None, compare=False)
    pdf: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    fourth_moment: float = 3.0
    df: float | None = None  # Student t degrees of freedom, kept exactly for the config form
    truncation: tuple[float, float, float] | None = None  # see simulator.truncated_law

    def __post_init__(self):
        if self.variant not in ("RG", "CG", "custom_real"):
            raise ValueError(f"unknown ensemble variant {self.variant!r}")
        if self.variant == "custom_real" and self.sampler is None:
            raise ValueError("custom_real ensembles need a sampler")

    @property
    def is_complex(self) -> bool:
        return self.variant == "CG"

    @property
    def beta_x(self) -> float:
        """Excess E|x|^4 - |E x^2|^2 - 2, where |E x^2|^2 is 1 (real) or 0 (circular)."""
        return self.fourth_moment - (0.0 if self.is_complex else 1.0) - 2.0

    @property
    def violates_matching(self) -> bool:
        """True when the fourth moment breaks the Gaussian-matching condition."""
        return abs(self.beta_x) > 1e-12

    @classmethod
    def real_gaussian(cls) -> "EntryEnsemble":
        return cls(variant="RG", name="real_gaussian")

    @classmethod
    def complex_gaussian(cls) -> "EntryEnsemble":
        return cls(variant="CG", name="complex_gaussian", fourth_moment=2.0)

    @classmethod
    def rademacher(cls) -> "EntryEnsemble":
        """Symmetric +-1 entries: E x^4 = 1, all moments finite."""

        def sampler(rng: np.random.Generator, size):
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0

        return cls(variant="custom_real", name="rademacher", sampler=sampler,
                   pdf=None, fourth_moment=1.0)

    @classmethod
    def student_t(cls, df: float = 11.0) -> "EntryEnsemble":
        """Unit-variance Student t entries; df must exceed 4, for a finite fourth moment.

        The density is ``scale * t_df(x * scale)``, with the log density of
        ``scipy.stats.t`` spelled out in the same numpy operations, so its
        values are scipy's to the bit and no ``scipy.stats`` is loaded.  It
        takes a float or an array; ``truncated_moments`` calls it on the
        nodes of its rule.
        """
        if df <= 4:
            raise ValueError("df must exceed 4 for a finite fourth moment")
        scale = math.sqrt(df / (df - 2.0))  # t/scale has unit variance

        def sampler(rng: np.random.Generator, size):
            x = rng.standard_t(df, size=size)
            x /= scale
            return x

        log_norm = None  # log of the t density's constant, formed on the first call

        def pdf(x: float) -> float:
            nonlocal log_norm
            if log_norm is None:
                from scipy.special import poch

                log_norm = np.log(poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
            u = x * scale
            return scale * np.exp(log_norm - (df + 1) / 2 * np.log1p(u * u / df))

        fourth = 3.0 * (df - 2.0) / (df - 4.0)
        return cls(variant="custom_real", name=f"student_t_{df:g}", sampler=sampler,
                   pdf=pdf, fourth_moment=fourth, df=df)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """Analytic test function with complex evaluation of f and f'.

    ``kind`` is ``"poly"`` with Horner-evaluated coefficients ``c0..cd``
    (derivative coefficients are the exact formal derivative) or ``"log"``
    using the principal branch, defined off its branch cut ``(-inf, 0]``:
    f and f' raise ``LogDomain`` at any z with ``Im z = 0`` and ``Re z <= 0``.
    """

    __test__ = False  # keep pytest from collecting the domain type

    kind: str
    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "poly":
            if not self.coeffs:
                raise ValueError("polynomial needs at least one coefficient")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        elif self.kind != "log":
            raise ValueError(f"unknown test function kind {self.kind!r}")

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "TestFunction":
        return cls(kind="poly", coeffs=tuple(coeffs))

    @classmethod
    def monomial(cls, degree: int) -> "TestFunction":
        return cls(kind="poly", coeffs=(0.0,) * degree + (1.0,))

    @classmethod
    def log(cls) -> "TestFunction":
        return cls(kind="log")

    @property
    def degree(self) -> int | None:
        """Index of the last nonzero coefficient (0 for a zero polynomial); None for log."""
        if self.kind == "log":
            return None
        return max((k for k, c in enumerate(self.coeffs) if c != 0.0), default=0)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    @property
    def label(self) -> str:
        if self.kind == "log":
            return "log"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            if k == 0:
                terms.append(f"{c:g}")
            elif k == 1:
                terms.append("x" if c == 1.0 else f"{c:g}*x")
            else:
                terms.append(f"x^{k}" if c == 1.0 else f"{c:g}*x^{k}")
        return "+".join(terms) if terms else "0"

    def __call__(self, z):
        """f at a complex point or an array of points."""
        if self.kind == "poly":
            return _horner(self.coeffs, z)
        return _off_branch_cut(np.log, z)

    def deriv(self, z):
        """f' at a complex point or an array of points (exact, not numeric)."""
        if self.kind == "poly":  # a constant's empty derivative evaluates to 0
            return _horner(tuple(k * c for k, c in enumerate(self.coeffs))[1:], z)
        return _off_branch_cut(lambda zc: 1.0 / zc, z)


def _horner(coeffs: tuple[float, ...], z):
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc if acc.shape else complex(acc)


def _off_branch_cut(op, z):
    """``op(z)`` for log or its derivative; raises ``LogDomain`` at a z on ``(-inf, 0]``."""
    zc = np.asarray(z, dtype=complex)
    cut = (zc.imag == 0.0) & (zc.real <= 0.0)
    if cut.any():
        raise LogDomain(f"log test function evaluated at z = {float(zc[cut][0].real)!r}, "
                        f"on its branch cut (-inf, 0]")
    out = op(zc)
    return out if out.shape else complex(out)
