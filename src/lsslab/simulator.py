"""Sample covariance simulation: entry sampling, truncation, eigenvalues, runs.

Replicates are reproducible by construction: replicate ``i`` always uses
the 64-bit stream seed ``splitmix64(root_seed + (i+1) * GAMMA)`` (the i-th
output of the splitmix64 generator seeded at ``root_seed``), independent of
execution order.

A replicate's eigenvalues come from the beta-Laguerre bidiagonal model
when the entries are Gaussian, ``T = t I`` and truncation is off, and from
a dense entry matrix otherwise (``replicate_sampler``).  A run keeps three
numbers per replicate, ``sum f(lambda)``, ``lambda_min`` and
``lambda_max`` (``replicate_statistic``).  On the bidiagonal model, for
f a polynomial of degree at most 2, it reads them off the bidiagonal
factor: closed-form traces and two bisections, with no full spectrum.
Every other replicate sums f over its spectrum (``replicate_reduction``).

A run takes f, the spectrum, the entry law and every deterministic input
from its moment set: it draws from the law the moments were computed for,
``mu`` and ``sigma`` normalize, the centering runs over the companion
transform that ``compute_moments`` solved, whose ``y_n`` must be the run's
``p/n``, and its contour's margin sets the confinement band.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

# scipy is imported where it is called: a moments or lsd run imports this module
# but never samples, and loading scipy takes longer than such a run
from .clt_moments import CltMoments, normalize
from .diagnostics import ks_to_normal
from .errors import (ConstraintViolation, DegenerateTruncation, LabError, LogDomain,
                     NonConvergence)
from .spectral_model import (AspectRatio, EntryEnsemble, PopulationSpectrum,
                             TestFunction, support_interval)
from .stieltjes import lss_centering

logger = logging.getLogger(__name__)

MAX_ENTRIES = 1 << 26  # memory budget on p*n, also checked by the config parser
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

    Circular complex entries have real and imaginary parts i.i.d. normal
    with variance one half, so E|x|^2 = 1; the real parts of a matrix are
    drawn before its imaginary parts.

    Leading axes are consecutive draws: for ``shape = (k, p, m)`` entry
    ``i`` equals the i-th of k sequential calls with shape ``(p, m)`` on
    the same generator, so a batch reproduces the one-at-a-time stream.
    """
    if ensemble.variant == "RG":
        return rng.standard_normal(shape)
    if ensemble.variant == "CG":
        shape = tuple(shape)
        lead = max(len(shape) - 2, 0)
        re, im = np.moveaxis(rng.standard_normal(shape[:lead] + (2,) + shape[lead:]), lead, 0)
        return (re + 1j * im) * math.sqrt(0.5)
    return np.asarray(ensemble.sampler(rng, shape), dtype=float)


def sample_entries(ensemble: EntryEnsemble, p: int, n: int, seed: int) -> np.ndarray:
    """i.i.d. entry matrix of shape (p, n) for the given stream seed."""
    return draw_entries(ensemble, _rng(seed), (p, n))


def truncated_moments(ensemble: EntryEnsemble, threshold: float) -> tuple[float, float]:
    """Distributional mean and variance of ``x * 1{|x| < c}``.

    These are population quantities of the entry law, computed by adaptive
    quadrature of its density (radial density for the circular complex
    family), never from the sampled matrix.
    """
    c = float(threshold)
    if c <= 0:
        return 0.0, 0.0
    from scipy import integrate

    if ensemble.variant == "RG":
        ceff = min(c, 40.0)  # the normal density carries no float64 mass beyond
        def phi(x):
            return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        mean, _ = integrate.quad(lambda x: x * phi(x), -ceff, ceff)
        second, _ = integrate.quad(lambda x: x * x * phi(x), -ceff, ceff)
        return mean, second - mean * mean
    if ensemble.variant == "CG":
        # |x| is Rayleigh with density 2 r exp(-r^2); the mean vanishes by
        # circular symmetry and the variance is E |x|^2 1{|x| < c}
        ceff = min(c, 40.0)
        second, _ = integrate.quad(
            lambda r: r * r * 2.0 * r * math.exp(-r * r), 0.0, ceff)
        return 0.0, second
    if ensemble.name == "rademacher":
        return (0.0, 1.0) if c > 1.0 else (0.0, 0.0)
    if ensemble.pdf is None:
        raise ValueError(f"ensemble {ensemble.name!r} has no density for truncated moments")
    # split at zero so the adaptive rule finds the central mass even for
    # thresholds far out in a thin tail
    ceff = min(c, 1e3)

    def split(g):
        return integrate.quad(g, -ceff, 0.0)[0] + integrate.quad(g, 0.0, ceff)[0]

    mean = split(lambda x: x * ensemble.pdf(x))
    second = split(lambda x: x * x * ensemble.pdf(x))
    return mean, second - mean * mean


def default_eta(n: int) -> float:
    """Default slowly-decreasing truncation constant, 1 / log n."""
    return 1.0 / math.log(n) if n > 1 else 1.0


def _truncation(n: int, eta: float, ensemble: EntryEnsemble) -> tuple[float, float, float]:
    """Threshold ``eta * n^(1/4)`` with the truncated mean and variance there."""
    threshold = eta * n ** 0.25
    if threshold <= 0:
        raise ValueError("truncation threshold must be positive")
    mean, var = truncated_moments(ensemble, threshold)
    if var < 1e-6:
        raise DegenerateTruncation(
            f"truncated variance {var:.3e} below 1e-6 at threshold {threshold:.3e}"
        )
    return threshold, mean, var


def _clip_restandardize(entries: np.ndarray, threshold: float, mean: float,
                        var: float) -> np.ndarray:
    clipped = np.where(np.abs(entries) < threshold, entries, 0.0)
    clipped -= mean  # in place on the array np.where made, never on the caller's entries
    clipped /= math.sqrt(var)
    return clipped


def truncate_normalize(entries: np.ndarray, n: int, eta: float,
                       ensemble: EntryEnsemble) -> np.ndarray:
    """Zero out entries at or beyond ``eta * n^(1/4)``, then restandardize.

    Entries are removed by indicator, not clamped, and the recentering and
    rescaling use the distributional truncated moments of the ensemble.
    """
    return _clip_restandardize(entries, *_truncation(n, eta, ensemble))


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


def assemble_B(spectrum: PopulationSpectrum, entries: np.ndarray, n: int) -> np.ndarray:
    """Sample covariance matrix ``(1/n) T^(1/2) X X* T^(1/2)``, symmetrized."""
    p = entries.shape[0]
    if entries.shape[1] != n:
        raise ValueError(f"entry matrix has {entries.shape[1]} columns, expected n={n}")
    root_t = np.sqrt(population_diagonal(spectrum, p))
    scaled = root_t[:, None] * entries
    b = scaled @ scaled.conj().T
    b /= n  # in place, as below: each temporary a replicate frees costs page faults in the next
    b = b + b.conj().T
    b /= 2.0
    return b


def eigenvalues(b: np.ndarray, offdiag: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix ``b``.

    With ``offdiag``, ``b`` is the diagonal and ``offdiag`` the off-diagonal
    of a real symmetric tridiagonal matrix, solved without forming it by
    LAPACK's ``dsterf``.
    """
    if offdiag is None:
        try:
            return np.linalg.eigvalsh(b)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"eigensolver failed: {exc}") from exc
    return _tridiagonal_eigenvalues(b, offdiag)


def _tridiagonal_eigenvalues(diag: np.ndarray, off: np.ndarray,
                             extremes: bool = False) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal ``(diag, off)`` by SciPy's raw LAPACK.

    All of them by ``dsterf``, or with ``extremes`` only the smallest and the
    largest, by two ``dstebz`` bisections.  Order 1 is its own eigenvalue:
    the wrappers reject an empty off-diagonal.
    """
    if len(diag) == 1:
        return np.array(diag, dtype=float)
    from scipy.linalg import lapack

    if not extremes:
        vals, info = lapack.dsterf(diag, off)
        if info:
            raise NonConvergence(f"dsterf left {info} off-diagonal entries unconverged")
        return vals
    ends = np.empty(2)
    for j, k in enumerate((1, len(diag))):
        # range 2 is SciPy's code for an index range: the k-th smallest eigenvalue only
        _, w, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 0.0, k, k, 0.0, "E")
        if info:
            raise NonConvergence(f"dstebz failed to bisect eigenvalue {k} (info={info})")
        ends[j] = w[0]
    return ends


LAGUERRE = "laguerre_bidiagonal"
DENSE = "dense"
# a truncation that clips nothing at the clip's cost: always the dense sampler,
# with no truncated-moment quadrature to solve
CLIP_NOTHING = (math.inf, 0.0, 1.0)


def replicate_sampler(ensemble: EntryEnsemble, spectrum: PopulationSpectrum,
                      truncation: tuple[float, float, float] | None) -> str:
    """How a replicate's eigenvalues are drawn: ``LAGUERRE`` or ``DENSE``.

    Gaussian entries (``RG`` or ``CG``) with ``T = t I`` and no truncation
    sample the beta-Laguerre bidiagonal model, whose eigenvalue law is that
    of the sample covariance matrix; every other law samples the entry
    matrix.
    """
    if (ensemble.variant in ("RG", "CG") and truncation is None
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
    from two bisections.
    """
    d2, e2 = _laguerre_factor(ensemble, p, n, seed)
    scale = t / n
    diag, off = _tridiagonal(d2, e2)
    ends = _tridiagonal_eigenvalues(diag, off, extremes=True)
    lam_min = 0.0 if p > n else float(ends[0]) * scale
    lam_max = float(ends[-1]) * scale
    c0, c1, c2 = (f.coeffs + (0.0, 0.0))[:3]
    trace = float(np.sum(diag))
    trace2 = float(diag @ diag + 2.0 * (d2[:-1] @ e2))
    return c0 * p + c1 * scale * trace + c2 * scale * scale * trace2, lam_min, lam_max


def replicate_eigenvalues(ensemble: EntryEnsemble, spectrum: PopulationSpectrum, p: int,
                          n: int, seed: int,
                          truncation: tuple[float, float, float] | None = None) -> np.ndarray:
    """Ascending eigenvalues of one replicate's ``B``, drawn from stream ``seed``.

    ``truncation`` is ``(threshold, mean, variance)`` or None.  The sampler
    is ``replicate_sampler``'s: the bidiagonal model draws ``2 min(p, n) - 1``
    chi variates and solves their tridiagonal ``L L^T``, scaled by ``t/n``
    and padded with ``p - min(p, n)`` zeros, the dense path a
    ``p x n`` entry matrix, clipped and restandardized under truncation,
    whose Gram matrix it solves; both solve through ``eigenvalues``.
    """
    if replicate_sampler(ensemble, spectrum, truncation) == LAGUERRE:
        vals = eigenvalues(*_tridiagonal(*_laguerre_factor(ensemble, p, n, seed)))
        return np.concatenate([np.zeros(p - min(p, n)), vals * (spectrum.atoms[0][0] / n)])
    x = sample_entries(ensemble, p, n, seed)
    if truncation is not None:
        x = _clip_restandardize(x, *truncation)
    return eigenvalues(assemble_B(spectrum, x, n))


def lss_centered(f: TestFunction, eigs: np.ndarray, centering: float) -> float:
    """Sum of f over the eigenvalues minus the deterministic centering."""
    if f.kind == "log" and np.min(eigs) <= 0:
        raise LogDomain(f"log statistic undefined at eigenvalue {np.min(eigs):.3e}: f = log "
                        f"needs every eigenvalue positive, so p <= n and no zero atom")
    total = float(np.sum(f(np.asarray(eigs, dtype=complex))).real)
    return total - centering


CLOSED_FORM = "closed_form"
SPECTRUM = "spectrum"


def replicate_reduction(f: TestFunction, ensemble: EntryEnsemble, spectrum: PopulationSpectrum,
                        truncation: tuple[float, float, float] | None) -> str:
    """How a replicate's statistic is read: ``CLOSED_FORM`` or ``SPECTRUM``.

    A ``laguerre_bidiagonal`` replicate with f a polynomial of degree at
    most 2 is read off its bidiagonal factor; every other replicate, f = log
    included, sums f over its full spectrum.
    """
    if (replicate_sampler(ensemble, spectrum, truncation) == LAGUERRE
            and f.kind == "poly" and f.degree <= 2):
        return CLOSED_FORM
    return SPECTRUM


def replicate_statistic(f: TestFunction, ensemble: EntryEnsemble, spectrum: PopulationSpectrum,
                        p: int, n: int, seed: int,
                        truncation: tuple[float, float, float] | None = None
                        ) -> tuple[float, float, float]:
    """``(sum f(lambda), lambda_min, lambda_max)`` of one replicate drawn from stream ``seed``.

    Under ``replicate_reduction``'s ``CLOSED_FORM`` the sum comes from the
    traces of the bidiagonal factor's ``L L^T`` and the extremes from two
    bisections, in O(min(p, n)); they agree with the spectrum to rounding.
    Otherwise it is ``lss_centered`` over ``replicate_eigenvalues``,
    uncentered.  Both read the same draws.
    """
    if replicate_reduction(f, ensemble, spectrum, truncation) == CLOSED_FORM:
        return _laguerre_statistic(f, ensemble, spectrum.atoms[0][0], p, n, seed)
    eigs = replicate_eigenvalues(ensemble, spectrum, p, n, seed, truncation)
    return lss_centered(f, eigs, 0.0), float(eigs[0]), float(eigs[-1])


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class TruncationPolicy:
    mode: str = "off"  # "off" or "on"
    eta: float | None = None  # None selects 1 / log n

    def __post_init__(self):
        if self.mode not in ("off", "on"):
            raise ValueError(f"truncation mode must be off/on, got {self.mode!r}")


@dataclass(frozen=True)
class SimConfig:
    ratio: AspectRatio
    replicates: int
    root_seed: int
    truncation: TruncationPolicy = TruncationPolicy()

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if (size := self.ratio.p * self.ratio.n) > MAX_ENTRIES:
            raise ValueError(f"p*n = {size} over the memory budget {MAX_ENTRIES}")


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

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.rows])


def _one_replicate(cfg: SimConfig, moments: CltMoments, centering: float,
                   truncation: tuple[float, float, float] | None,
                   index: int) -> ReplicateRow:
    seed = replicate_seed(cfg.root_seed, index)
    total, lam_min, lam_max = replicate_statistic(moments.f, moments.ensemble,
                                                  moments.s_under.spectrum, cfg.ratio.p,
                                                  cfg.ratio.n, seed, truncation)
    value = normalize(total - centering, moments)
    return ReplicateRow(index=index, seed=seed, value=float(value),
                        lam_min=lam_min, lam_max=lam_max)


def run_experiment(cfg: SimConfig, moments: CltMoments) -> ExperimentRecord:
    """Replicated simulation of the normalized centered statistic.

    f, the entry law, the spectrum and the contour come from ``moments``,
    and the centering is integrated over the transform they already
    solved; the contour's margin on the real axis sets the confinement
    band.  Raises
    ``ConstraintViolation`` before any draw when the moments carry no
    transform or were solved at another ``y_n`` than the run's ``p/n``.
    The centering and the truncated moments are computed once per run;
    each replicate draws through ``replicate_statistic``, and the record
    names the sampler and the reduction.  Any replicate failure is
    re-raised with its index attached.
    """
    s = moments.s_under
    if s is None or moments.f is None:
        raise ConstraintViolation("moments carry no test function or companion transform; "
                                  "compute them with compute_moments")
    y = cfg.ratio.y_n
    if y != s.y_n:
        raise ConstraintViolation(f"moments were computed at y_n={s.y_n}, but the run has "
                                  f"p/n = {cfg.ratio.p}/{cfg.ratio.n} = {y}")
    centering = lss_centering(moments.f, cfg.ratio.p, s)
    truncation = None
    if cfg.truncation.mode == "on":
        n = cfg.ratio.n
        eta = cfg.truncation.eta if cfg.truncation.eta is not None else default_eta(n)
        truncation = _truncation(n, eta, moments.ensemble)

    rows = []
    for i in range(cfg.replicates):
        try:
            rows.append(_one_replicate(cfg, moments, centering, truncation, i))
        except LabError as exc:
            raise type(exc)(f"replicate {i}: {exc}") from exc

    lo, hi = support_interval(s.spectrum, y)
    eps = s.contour.x_r - hi  # the contour's margin on the real axis
    low, high = lo - eps / 2.0, hi + eps / 2.0
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
        sampler=replicate_sampler(moments.ensemble, s.spectrum, truncation),
        statistic=replicate_reduction(moments.f, moments.ensemble, s.spectrum, truncation),
    )
