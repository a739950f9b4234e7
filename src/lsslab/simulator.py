"""Sample covariance simulation: entry sampling, truncation, eigenvalues, runs.

Replicates are reproducible by construction: replicate ``i`` always uses
the 64-bit stream seed ``splitmix64(root_seed + (i+1) * GAMMA)`` (the i-th
output of the splitmix64 generator seeded at ``root_seed``), independent of
execution order.  So a dense run draws its replicates on a pool of threads,
one per core (``pool_width``), each pinned to one OpenBLAS thread
(``pinned_map``): its rows are those of a serial run at
``OPENBLAS_NUM_THREADS=1`` whatever the pool's width, the core count or the
BLAS thread setting.  ``diagnostics.sigma0_nested_mc`` runs its outer
repetitions on the same pool.

A replicate's eigenvalues come from the beta-Laguerre bidiagonal model
when the law is an untruncated Gaussian and ``T = t I``, and from a dense
entry matrix otherwise (``replicate_sampler``).  A run keeps three
numbers per replicate, ``sum f(lambda)``, ``lambda_min`` and
``lambda_max`` (``replicate_statistic``).  On the bidiagonal model, for
f a polynomial of degree at most 2, it reads them off the bidiagonal
factor: closed-form traces and two bisections, with no full spectrum.
Every other replicate sums f over its spectrum (``replicate_reduction``).

A run takes f, the spectrum, the entry law and every deterministic input
from its moment set: it draws from the law the moments were computed for
(``truncated_law`` clips at ``eta n^(1/4)`` and restandardizes a law),
``mu`` and ``sigma`` normalize, the centering runs over the companion
transform that ``compute_moments`` solved, whose ``y_n`` must be the run's
``p/n``, and its contour's real-axis crossings set the confinement band.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

# no scipy: LAPACK's tridiagonal solvers come from the OpenBLAS numpy links (_lapack; SciPy's
# wrappers only for a numpy without them), the t density's constant from a port of cephes'
# lgam, and the Gauss-Legendre rule from constants
from .clt_moments import CltMoments, normalize
from .diagnostics import ks_to_normal
from .errors import ConstraintViolation, DegenerateTruncation, LabError, NonConvergence
from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction, support_interval
from .stieltjes import lss_centering

logger = logging.getLogger(__name__)

MAX_ENTRIES = 1 << 26  # memory budget in entries: replicate_entries, every kind's largest array
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 output for the given state (Steele et al. mixing)."""
    z = (state + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(root_seed: int, index: int) -> int:
    """Deterministic per-replicate seed: splitmix64 stream element ``index``."""
    return splitmix64((root_seed + index * _GAMMA) & _MASK64)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def draw_entries(ensemble: EntryEnsemble, rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. entries of the given shape, drawn from an existing generator.

    Each law is drawn here, by its name.  ``CG`` real and imaginary parts
    are i.i.d. normal with variance one half, so E|x|^2 = 1, and the real
    parts of a matrix are drawn before its imaginary parts.

    Leading axes are consecutive draws: for ``shape = (k, p, m)`` entry
    ``i`` equals the i-th of k sequential calls with shape ``(p, m)`` on
    the same generator, so a batch reproduces the one-at-a-time stream.
    A truncated law's draws are clipped and restandardized after drawing.
    """
    if ensemble.name == "RG":
        x = rng.standard_normal(shape)
    elif ensemble.name == "CG":
        shape = tuple(shape)
        lead = max(len(shape) - 2, 0)
        re, im = np.moveaxis(rng.standard_normal(shape[:lead] + (2,) + shape[lead:]), lead, 0)
        x = (re + 1j * im) * math.sqrt(0.5)
    elif ensemble.name == "rademacher":
        x = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    else:
        x = rng.standard_t(ensemble.df, size=shape)
        x /= math.sqrt(ensemble.df / (ensemble.df - 2.0))  # unit variance
    return x if ensemble.truncation is None else _clip_restandardize(x, ensemble.truncation)


def sample_entries(ensemble: EntryEnsemble, p: int, n: int, seed: int) -> np.ndarray:
    """i.i.d. entry matrix of shape (p, n) for the given stream seed."""
    return draw_entries(ensemble, _rng(seed), (p, n))


# the 32-node Gauss-Legendre rule on [-1, 1], numpy's leggauss(32) to the bit, as constants:
# leggauss solves an eigenproblem.  Its upper half, (node, weight) ascending; leggauss
# symmetrizes the rule exactly, so the lower half is the mirror image
_GL_UPPER = np.array([
    (0.048307665687738324, 0.09654008851472766), (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451), (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378), (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023), (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168), (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609), (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765), (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743), (0.9972638618494816, 0.007018610009470506),
])
_GL_NODES = np.concatenate((-_GL_UPPER[::-1, 0], _GL_UPPER[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_UPPER[::-1, 1], _GL_UPPER[:, 1]))


def _half_line_rule(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on ``[0, c]``.

    The panels are ``[0, 1/2], [1/2, 1], [1, 2], ...``, doubling, and the last
    one ends at c, so each panel is short against the scale of the
    integrand it holds, from the central mass out to a thin tail.
    """
    edges = [0.0]
    edge = 0.5
    while edge < c:
        edges.append(edge)
        edge *= 2.0
    edges.append(c)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = ((hi - lo) / 2.0)[:, None]
    return (((hi + lo) / 2.0)[:, None] + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


# cephes' lgam, which SciPy's gammaln and poch call: Stirling's series coefficients, and
# the rational approximation on [2, 3)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (1.0, -3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
           -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _polevl(x: float, coeffs: tuple) -> float:
    """Horner's rule, highest degree first, in cephes' order of operations."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _lgam(x: float) -> float:
    """``log Gamma(x)`` for finite ``x > 0``, cephes' ``lgam`` operation for operation:
    SciPy's ``gammaln`` to the bit, where ``math.lgamma`` often differs in the last place."""
    if x < 13.0:
        # shift the argument into [2, 3) by the recurrence, keeping the product in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _poch_half(a: float) -> float:
    """``Gamma(a + 1/2) / Gamma(a)`` for ``a > 0``, as cephes' ``poch(a, 0.5)`` forms it."""
    if a > 1e4:
        # the asymptotic series, its coefficients at m = 1/2 exact in binary
        return math.pow(a, 0.5) * (1.0 - 0.25 / (2.0 * a) + 0.1875 / (24.0 * a * a)
                                   + 0.234375 / (48.0 * a * a * a))
    return math.exp(_lgam(a + 0.5) - _lgam(a))


@functools.cache
def _t_log_norm(df: float) -> float:
    """Log of the t density's constant as ``scipy.stats.t`` forms it,
    ``log poch(df/2, 1/2) - (log df + log pi) / 2``, to the bit, with no SciPy:
    ``_poch_half`` is ``scipy.special.poch`` at ``m = 1/2``."""
    return np.log(_poch_half(0.5 * df)) - 0.5 * (np.log(df) + np.log(np.pi))


def _student_t_density(x, df: float):
    """Unit-variance t density ``scale * t_df(x * scale)`` at a float or an array, in the numpy
    operations of ``scipy.stats.t`` and with its constant (``_t_log_norm``): its values are
    scipy's to the bit."""
    scale = math.sqrt(df / (df - 2.0))
    u = x * scale
    return scale * np.exp(_t_log_norm(df) - (df + 1) / 2 * np.log1p(u * u / df))


def truncated_moments(ensemble: EntryEnsemble, threshold: float) -> tuple[float, float, float]:
    """Distributional mean, variance and central fourth moment of ``x * 1{|x| < c}``.

    These are population quantities of the base law, never read from the
    sampled matrix: one composite Gauss-Legendre rule (``_half_line_rule``)
    integrates the density on ``[0, c]`` and its mirror image, the radial
    density for the circular complex family and the t density of
    ``_student_t_density``; ``rademacher`` has its two atoms at +-1.
    Symmetric laws give mean 0.
    """
    c = float(threshold)
    if c <= 0:
        return 0.0, 0.0, 0.0
    if ensemble.name in ("RG", "CG"):
        # the Gaussian densities carry no float64 mass beyond 40
        x, w = _half_line_rule(min(c, 40.0))
        x2 = x * x
        if ensemble.name == "RG":
            # twice the half line; the mean vanishes by symmetry
            weighted = 2.0 * w * np.exp(-x2 / 2.0) / math.sqrt(2.0 * math.pi)
        else:
            # |x| is Rayleigh with density 2 r exp(-r^2); the mean vanishes by
            # circular symmetry and the moments are E |x|^k 1{|x| < c}
            weighted = w * 2.0 * x * np.exp(-x2)
        return 0.0, float(np.sum(x2 * weighted)), float(np.sum(x2 * x2 * weighted))
    if ensemble.name == "rademacher":
        return (0.0, 1.0, 1.0) if c > 1.0 else (0.0, 0.0, 0.0)
    x, w = _half_line_rule(min(c, 1e3))
    # each half line summed on its own, so a symmetric density's mean is exactly 0
    halves = [(u, w * _student_t_density(u, ensemble.df)) for u in (-x, x)]

    def integral(g):
        return sum(float(np.sum(g(u) * weighted)) for u, weighted in halves)

    mean = integral(lambda u: u)
    second = integral(lambda u: u * u)
    # E (z - mean)^4, the clipped mass 1 - P(|x| < c) at 0 folded into one sum
    fourth = integral(lambda u: (u - mean) ** 4 - mean ** 4) + mean ** 4
    return mean, second - mean * mean, fourth


def default_eta(n: int) -> float:
    """Default slowly-decreasing truncation constant, 1 / log n."""
    return 1.0 / math.log(n) if n > 1 else 1.0


def truncated_law(ensemble: EntryEnsemble, n: int, eta: float) -> EntryEnsemble:
    """``ensemble`` zeroed at ``|x| >= eta n^(1/4)`` and restandardized.

    The law carries ``truncation = (threshold, mean, variance, fourth_moment)``,
    the last the E|x|^4 of the restandardized draws, all from one
    ``truncated_moments`` call.  Raises ``DegenerateTruncation`` when the
    truncated variance is below 1e-6.
    """
    if ensemble.truncation is not None:
        raise ValueError(f"ensemble {ensemble.name!r} is truncated already")
    threshold = eta * n ** 0.25
    if threshold <= 0:
        raise ValueError("truncation threshold must be positive")
    mean, var, fourth = truncated_moments(ensemble, threshold)
    if var < 1e-6:
        raise DegenerateTruncation(
            f"at n = {n} the threshold eta n^(1/4) = {eta:.3g} * {n}^(1/4) = {threshold:.3e} "
            f"leaves truncated variance {var:.3e}, below 1e-6: raise truncation.eta")
    return replace(ensemble, truncation=(threshold, mean, var, fourth / var**2))


def _clip_restandardize(entries: np.ndarray, truncation: tuple) -> np.ndarray:
    """Zero ``entries`` at ``|x| >= threshold`` and restandardize them, in place."""
    threshold, mean, var, _ = truncation
    if np.iscomplexobj(entries):
        # numpy orders complex numbers lexicographically, so the modulus decides
        clip = ~(np.abs(entries) < threshold)
    else:
        # two comparisons, and no float temporary of the entries' size
        clip = entries >= threshold
        clip |= entries <= -threshold
    np.copyto(entries, 0.0, where=clip)
    entries -= mean
    entries /= math.sqrt(var)
    return entries


# no run calls it; perfbench/spans.py wraps it by name
def truncate_normalize(entries: np.ndarray, n: int, eta: float,
                       ensemble: EntryEnsemble) -> np.ndarray:
    """Zero out entries at or beyond ``eta * n^(1/4)``, then restandardize.

    Entries are removed by indicator, not clamped, and the recentering and
    rescaling use the distributional truncated moments of the ensemble.
    """
    law = truncated_law(ensemble, n, eta)
    return _clip_restandardize(entries.astype(np.result_type(entries, 0.0)), law.truncation)


def population_diagonal(spectrum: PopulationSpectrum, p: int) -> np.ndarray:
    """Diagonal population matrix with atom multiplicities apportioned to p.

    Largest-remainder apportionment of the weights; remainder ties go to
    the larger atom so the realized distribution never loses its top edge.
    The weights sum to 1, so the counts fill exactly p entries.
    """
    atoms = sorted(spectrum.atoms, key=lambda tw: tw[0])
    quotas = [w * p for _, w in atoms]
    counts = [int(math.floor(q)) for q in quotas]
    order = sorted(range(len(atoms)),
                   key=lambda i: (quotas[i] - counts[i], atoms[i][0]), reverse=True)
    for i in order[:p - sum(counts)]:
        counts[i] += 1
    return np.repeat([t for t, _ in atoms], counts)


def realized_spectrum(spectrum: PopulationSpectrum, p: int) -> PopulationSpectrum:
    """The spectrum ``H_p`` of ``T_p = population_diagonal(spectrum, p)``.

    Each distinct atom weighs its count in ``T_p`` over p, in the order of
    ``spectrum``, and atoms with no entry are dropped.  A run draws ``T_p``,
    so its moments, centering and contour are those of ``H_p``, which is
    ``spectrum`` where every ``p w_k`` is an integer.
    """
    diag = population_diagonal(spectrum, p)
    counts = ((t, int(np.count_nonzero(diag == t))) for t in dict.fromkeys(spectrum.eigenvalues))
    return PopulationSpectrum(tuple((t, c / p) for t, c in counts if c))


_SYM_CELLS = 1 << 13  # cells of B's transpose read per block of the symmetrization


def assemble_B(spectrum: PopulationSpectrum, entries: np.ndarray, n: int) -> np.ndarray:
    """Sample covariance matrix ``(1/n) T^(1/2) X X* T^(1/2)``, symmetrized.

    The float or complex entries X, which the caller reads no more, are
    scaled by ``T^(1/2)`` in place.  B is divided by n and symmetrized,
    ``(B + B*) / 2`` (a complex ``X X*`` is not exactly Hermitian), in
    place, a block of rows at a time, so a replicate frees no temporary of
    B's or X's size: each one costs page faults in the next replicate.
    """
    p = entries.shape[0]
    if entries.shape[1] != n:
        raise ValueError(f"entry matrix has {entries.shape[1]} columns, expected n={n}")
    entries *= np.sqrt(population_diagonal(spectrum, p))[:, None]
    b = entries @ entries.conj().T
    b /= n
    rows = max(1, _SYM_CELLS // p)
    # block i reads rows and columns i on only; earlier blocks wrote rows and columns before i
    for i in range(0, p, rows):
        j = i + rows
        half = b[i:j, i:] + b[i:, i:j].conj().T
        half /= 2.0
        b[i:j, i:] = half
        b[i:, i:j] = half.conj().T
    return b


def eigenvalues(b: np.ndarray, offdiag: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix ``b``.

    With ``offdiag``, ``b`` is the diagonal and ``offdiag`` the off-diagonal
    of a real symmetric tridiagonal matrix, solved without forming it by
    LAPACK's ``dsterf`` (``_tridiagonal_eigenvalues``).
    """
    if offdiag is None:
        try:
            return np.linalg.eigvalsh(b)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"eigensolver failed: {exc}") from exc
    return _tridiagonal_eigenvalues(b, offdiag)


@functools.cache
def _numpy_blas() -> ctypes.CDLL | None:
    """The BLAS and LAPACK library numpy links, or None where it cannot be opened.

    It is opened through the handle of numpy's linear-algebra extension,
    whose symbol lookup reaches the library that numpy links, so no path is
    guessed and no second copy is loaded.
    """
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (OSError, AttributeError):
        return None


@functools.cache
def _lapack():
    """LAPACK's ``dsterf`` and ``dstebz`` from numpy's own library, or None without them.

    numpy's OpenBLAS exports the reference routines with 64-bit integers as
    ``scipy_dsterf_64_`` and ``scipy_dstebz_64_``; a numpy that links
    another LAPACK (MKL, Accelerate, a system library) has neither.  Every
    argument is a pointer, and ``dstebz`` takes gfortran's hidden lengths of
    its two one-character strings last.
    """
    lib = _numpy_blas()
    dsterf, dstebz = (getattr(lib, f"scipy_{name}_64_", None) for name in ("dsterf", "dstebz"))
    if dsterf is None or dstebz is None:
        return None
    dsterf.argtypes, dsterf.restype = [ctypes.c_void_p] * 4, None
    dstebz.argtypes, dstebz.restype = [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 2, None
    return dsterf, dstebz


def _tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray,
                             ranks: tuple[int, ...] = ()) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal ``(diag, off)`` by LAPACK.

    All of them by ``dsterf``, or with ``ranks`` only those of the given
    ascending ranks (1 the smallest, ``len(diag)`` the largest), in that
    order, by one ``dstebz`` bisection each.  The routines are numpy's own
    (``_lapack``), called on one float64 and one int64 buffer that hold the
    inputs, the outputs and the workspace, so a call reads two addresses;
    where numpy has none, SciPy's wrappers of the same routines run, to the
    same bits.  Order 1 is its own eigenvalue: SciPy's wrappers reject an
    empty off-diagonal.
    """
    m = len(diag)
    if m == 1:
        return np.full(max(len(ranks), 1), float(diag[0]))
    lapack = _lapack()
    if lapack is None:
        return _scipy_tridiagonal_eigenvalues(diag, off, ranks)
    dsterf, dstebz = lapack
    if not ranks:
        # floats: d, overwritten by the eigenvalues, then e; ints: n, info
        floats, ints = (ctypes.c_double * (2 * m - 1))(), (ctypes.c_int64 * 2)(m)
        vals = np.frombuffer(floats)
        vals[:m], vals[m:] = diag, off
        f, i = ctypes.addressof(floats), ctypes.addressof(ints)
        dsterf(i, f, f + 8 * m, i + 8)
        if ints[1]:
            raise NonConvergence(f"dsterf left {ints[1]} off-diagonal entries unconverged")
        return vals[:m]
    # floats: 0 (vl, vu and abstol), d, e, w, work(4m); ints: n, il = iu, the eigenvalue
    # and block counts, info, iblock, isplit, iwork(3m)
    floats, ints = (ctypes.c_double * (7 * m))(), (ctypes.c_int64 * (5 + 5 * m))(m)
    vals = np.frombuffer(floats)
    vals[1:m + 1], vals[m + 1:2 * m] = diag, off
    f, i = ctypes.addressof(floats), ctypes.addressof(ints)
    w, iblock = f + 16 * m, i + 40
    # range "I" with il = iu: the il-th smallest eigenvalue only
    args = (b"I", b"E", i, f, f, i + 8, i + 8, f, f + 8, f + 8 * (m + 1), i + 16, i + 24,
            w, iblock, iblock + 8 * m, w + 8 * m, iblock + 16 * m, i + 32, 1, 1)
    ends = np.empty(len(ranks))
    for j, k in enumerate(ranks):
        ints[1] = k
        dstebz(*args)
        if ints[4]:
            raise NonConvergence(f"dstebz failed to bisect eigenvalue {k} (info={ints[4]})")
        ends[j] = floats[2 * m]
    return ends


def _scipy_tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray,
                                   ranks: tuple[int, ...]) -> np.ndarray:
    """``_tridiagonal_eigenvalues`` by SciPy's LAPACK wrappers, for a numpy without its own."""
    from scipy.linalg import lapack

    if not ranks:
        vals, info = lapack.dsterf(diag, off)
        if info:
            raise NonConvergence(f"dsterf left {info} off-diagonal entries unconverged")
        return vals
    ends = np.empty(len(ranks))
    for j, k in enumerate(ranks):
        # range 2 is SciPy's code for an index range: the k-th smallest eigenvalue only
        _, w, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, k, k, 0.0, "E")
        if info:
            raise NonConvergence(f"dstebz failed to bisect eigenvalue {k} (info={info})")
        ends[j] = w[0]
    return ends


LAGUERRE = "laguerre_bidiagonal"
DENSE = "dense"


def replicate_sampler(ensemble: EntryEnsemble, spectrum: PopulationSpectrum) -> str:
    """How a replicate's eigenvalues are drawn: ``LAGUERRE`` or ``DENSE``.

    Untruncated Gaussian entries (``RG`` or ``CG``) with ``T = t I`` sample
    the beta-Laguerre bidiagonal model, whose eigenvalue law is that of the
    sample covariance matrix; every other law samples the entry matrix.
    """
    if (ensemble.name in ("RG", "CG") and ensemble.truncation is None
            and len({t for t, _ in spectrum.atoms}) == 1):
        return LAGUERRE
    return DENSE


def _laguerre_factor(ensemble: EntryEnsemble, p: int, n: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared diagonal and subdiagonal of the bidiagonal ``L`` (Dumitriu & Edelman 2002).

    With ``small = min(p, n)``, ``big = max(p, n)`` and ``beta`` 1 (real) or
    2 (complex), the lower-bidiagonal ``L`` has diagonal
    ``chi_{beta (big - i)} / sqrt(beta)``, ``i < small``, drawn first from
    stream ``seed``, and subdiagonal ``chi_{beta (small - 1 - i)} / sqrt(beta)``,
    drawn next.  The nonzero eigenvalues of ``X X*`` are in law those of
    ``L L^T``; for ``p > n`` the other ``p - n`` are exact zeros.
    """
    beta = 2 if ensemble.is_complex else 1
    rng = _rng(seed)
    small, big = min(p, n), max(p, n)
    i = np.arange(small)
    d2 = rng.chisquare(beta * (big - i)) / beta
    e2 = rng.chisquare(beta * (small - 1 - i[:-1])) / beta
    return d2, e2


def _tridiagonal(d2: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal ``d_i^2 + e_(i-1)^2`` and off-diagonal ``d_i e_i`` of ``L L^T``."""
    diag = d2.copy()
    diag[1:] += e2
    return diag, np.sqrt(d2[:-1] * e2)


def _laguerre_statistic(f: TestFunction, ensemble: EntryEnsemble, t: float, p: int, n: int,
                        seed: int) -> tuple[float, float, float]:
    """``replicate_statistic`` read off the bidiagonal factor, never its spectrum.

    With ``scale = t/n`` and ``T = L L^T``: ``sum lambda = scale tr T`` and
    ``sum lambda^2 = scale^2 (sum diag^2 + 2 sum off^2)``; the
    ``p - min(p, n)`` zero eigenvalues add ``c0`` each.  The extremes come
    from bisections: both for ``p <= n``, and only the largest for ``p > n``,
    whose smallest eigenvalue is one of the zeros.
    """
    d2, e2 = _laguerre_factor(ensemble, p, n, seed)
    scale = t / n
    diag, off = _tridiagonal(d2, e2)
    m = len(diag)
    ends = _tridiagonal_eigenvalues(diag, off, (m,) if p > n else (1, m))
    lam_min = 0.0 if p > n else float(ends[0]) * scale
    lam_max = float(ends[-1]) * scale
    c0, c1, c2 = (f.coeffs + (0.0, 0.0))[:3]
    trace = float(np.sum(diag))
    trace2 = float(diag @ diag + 2.0 * (d2[:-1] @ e2))
    return c0 * p + c1 * scale * trace + c2 * scale * scale * trace2, lam_min, lam_max


def replicate_eigenvalues(ensemble: EntryEnsemble, spectrum: PopulationSpectrum, p: int,
                          n: int, seed: int) -> np.ndarray:
    """Ascending eigenvalues of one replicate's ``B``, drawn from stream ``seed``.

    The sampler is ``replicate_sampler``'s: the bidiagonal model draws
    ``2 min(p, n) - 1`` chi variates and solves their tridiagonal ``L L^T``,
    scaled by ``t/n`` and padded with ``p - min(p, n)`` zeros, the dense
    path a ``p x n`` entry matrix of the law, truncated ones clipped and
    restandardized, whose Gram matrix it solves; both solve through
    ``eigenvalues``.
    """
    if replicate_sampler(ensemble, spectrum) == LAGUERRE:
        vals = eigenvalues(*_tridiagonal(*_laguerre_factor(ensemble, p, n, seed)))
        return np.concatenate([np.zeros(p - min(p, n)), vals * (spectrum.atoms[0][0] / n)])
    return eigenvalues(assemble_B(spectrum, sample_entries(ensemble, p, n, seed), n))


def lss_centered(f: TestFunction, eigs: np.ndarray, centering: float) -> float:
    """Sum of f over the eigenvalues minus the deterministic centering.

    ``f = log`` raises ``LogDomain`` at an eigenvalue at or below 0.
    """
    total = float(np.sum(f(np.asarray(eigs, dtype=complex))).real)
    return total - centering


CLOSED_FORM = "closed_form"
SPECTRUM = "spectrum"


def replicate_reduction(f: TestFunction, ensemble: EntryEnsemble,
                        spectrum: PopulationSpectrum) -> str:
    """How a replicate's statistic is read: ``CLOSED_FORM`` or ``SPECTRUM``.

    A ``laguerre_bidiagonal`` replicate with f a polynomial of degree at
    most 2 is read off its bidiagonal factor; every other replicate, f = log
    included, sums f over its full spectrum.
    """
    if (replicate_sampler(ensemble, spectrum) == LAGUERRE
            and f.kind == "poly" and f.degree <= 2):
        return CLOSED_FORM
    return SPECTRUM


def replicate_statistic(f: TestFunction, ensemble: EntryEnsemble, spectrum: PopulationSpectrum,
                        p: int, n: int, seed: int) -> tuple[float, float, float]:
    """``(sum f(lambda), lambda_min, lambda_max)`` of one replicate drawn from stream ``seed``.

    Under ``replicate_reduction``'s ``CLOSED_FORM`` the sum comes from the
    traces of the bidiagonal factor's ``L L^T`` and the extremes from
    bisections, in O(min(p, n)); they agree with the spectrum to rounding.
    Otherwise it is ``lss_centered`` over ``replicate_eigenvalues``,
    uncentered.  Both read the same draws.
    """
    if replicate_reduction(f, ensemble, spectrum) == CLOSED_FORM:
        return _laguerre_statistic(f, ensemble, spectrum.atoms[0][0], p, n, seed)
    eigs = replicate_eigenvalues(ensemble, spectrum, p, n, seed)
    return lss_centered(f, eigs, 0.0), float(eigs[0]), float(eigs[-1])


# ---------------------------------------------------------------------------
# experiment harness


@functools.cache
def _blas_pin():
    """OpenBLAS's ``openblas_set_num_threads_local``, or None where numpy's BLAS has none.

    The symbol (OpenBLAS 0.3.27 and later) sets a BLAS thread count and
    returns the one it replaces.  It is looked up in ``_numpy_blas``.  In
    an OpenMP build the count is the calling thread's; in numpy's OpenBLAS,
    a pthreads build, it is the whole process's, so after the first pool
    the process keeps one BLAS thread.  Setting the caller's count back
    after each pool made a dense 256 x 512 run 10-15% slower on two cores,
    most likely because OpenBLAS's helper threads, woken by the caller's
    next threaded call, spin beside the next pool's workers.
    """
    lib = _numpy_blas()
    pin = getattr(lib, "openblas_set_num_threads_local", None)
    if pin is not None:
        pin.argtypes, pin.restype = [ctypes.c_int], ctypes.c_int
    return pin


def _one_blas_thread() -> None:
    """Pool initializer: the calling thread's BLAS calls run on one thread."""
    pin = _blas_pin()
    if pin is not None:
        pin(1)


def replicate_entries(p: int, n: int, sampler: str) -> int:
    """Entries one replicate holds, which ``MAX_ENTRIES`` bounds: ``p max(p, n)`` for a dense
    one's entries and Gram matrix; the bidiagonal model keeps the ``p n`` bound."""
    return p * max(p, n) if sampler == DENSE else p * n


def pool_width(tasks: int, entries: int) -> int:
    """Threads for ``tasks`` independent tasks of ``entries`` entries each: one per core,
    at most one per task, and no more tasks in flight than ``MAX_ENTRIES`` holds.

    Without the BLAS pin (``_blas_pin``) it is 1: an unpinned pool's BLAS
    threads contend.
    """
    if _blas_pin() is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, tasks, MAX_ENTRIES // entries))


def pinned_map(fn, tasks: int, workers: int) -> list:
    """``[fn(i) for i in range(tasks)]`` on ``workers`` threads, each pinned to one BLAS thread.

    Results are in index order, and the first failure in index order is
    re-raised.  Even one worker is pinned, so a task's BLAS calls, and so
    its bits, never depend on the width or on the BLAS thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, range(tasks)))


def dense_workers(p: int, n: int, replicates: int) -> int:
    """``pool_width`` of a dense run: its replicates, each of ``replicate_entries`` entries."""
    return pool_width(replicates, replicate_entries(p, n, DENSE))


@dataclass(frozen=True)
class ReplicateRow:
    index: int
    seed: int
    value: float  # normalized statistic
    lam_min: float
    lam_max: float


@dataclass
class ExperimentRecord:
    rows: list[ReplicateRow]
    ks: float
    mean: float
    variance: float
    confinement_violations: int
    sampler: str  # replicate_sampler's name for the run's law
    statistic: str  # replicate_reduction's name for the run's f and law


def run_experiment(moments: CltMoments, p: int, n: int, replicates: int,
                   root_seed: int) -> ExperimentRecord:
    """Replicated simulation of the normalized centered statistic at dimension p, size n.

    f, the entry law (truncated or not), the spectrum and the contour come
    from ``moments``, and the centering is integrated over the transform
    they already solved; the confinement band runs halfway from the bulk's
    edges ``lo`` and ``hi`` to the contour's crossings ``x_l`` and ``x_r``.
    Before any draw it raises ``ValueError`` unless p, n and ``replicates``
    are at least 1 and ``replicate_entries <= MAX_ENTRIES``, and
    ``ConstraintViolation`` when the moments were solved at another ``y_n`` than ``p/n``.  The
    centering is computed once per run; replicate i draws from stream
    ``replicate_seed(root_seed, i)`` through ``replicate_statistic``, and
    the record names the sampler and the reduction.  A dense run computes
    its replicates by ``pinned_map`` on ``dense_workers`` threads, each
    pinned to one BLAS thread, so its rows do not depend on the pool's width
    or the BLAS thread count; a bidiagonal run, whose replicates are short
    and hold the GIL, computes them in a loop.  Rows are in index order, and
    the first failing replicate is re-raised with its index attached.
    """
    if min(p, n, replicates) < 1:
        raise ValueError(f"p, n and replicates must be >= 1, got {p}, {n} and {replicates}")
    s = moments.s_under
    sampler = replicate_sampler(moments.ensemble, s.spectrum)
    entries = replicate_entries(p, n, sampler)
    if entries > MAX_ENTRIES:
        raise ValueError(f"a {sampler} replicate at p = {p}, n = {n} holds {entries} entries, "
                         f"over the memory budget {MAX_ENTRIES}")
    y = p / n
    if y != s.y_n:
        raise ConstraintViolation(f"moments were computed at y_n={s.y_n}, but the run has "
                                  f"p/n = {p}/{n} = {y}")
    centering = lss_centering(moments.f, p, s)

    def replicate(i: int) -> ReplicateRow:
        seed = replicate_seed(root_seed, i)
        try:
            total, lam_min, lam_max = replicate_statistic(moments.f, moments.ensemble,
                                                          s.spectrum, p, n, seed)
            value = float(normalize(total - centering, moments))
        except LabError as exc:
            raise type(exc)(f"replicate {i}: {exc}") from exc
        return ReplicateRow(index=i, seed=seed, value=value, lam_min=lam_min, lam_max=lam_max)

    if sampler == DENSE:
        rows = pinned_map(replicate, replicates, dense_workers(p, n, replicates))
    else:
        rows = [replicate(i) for i in range(replicates)]

    lo, hi = support_interval(s.spectrum, y)
    # halfway from the bulk's edges to the contour's real-axis crossings
    low, high = (lo + s.contour.x_l) / 2.0, (hi + s.contour.x_r) / 2.0
    violations = sum(1 for r in rows if r.lam_min < low or r.lam_max > high)
    if violations:
        logger.warning("eigenvalue confinement violated in %d replicates", violations)

    values = np.array([r.value for r in rows])
    return ExperimentRecord(
        rows=rows,
        ks=ks_to_normal(values),
        mean=float(np.mean(values)),
        variance=float(np.var(values, ddof=1)) if len(values) > 1 else 0.0,
        confinement_violations=violations,
        sampler=sampler,
        statistic=replicate_reduction(moments.f, moments.ensemble, s.spectrum),
    )
