"""Normality diagnostics: KS distance, rate fits, the Stein machinery,
the quadratic-form moment probe, and the nested Monte-Carlo variance check.

The Stein machinery smooths an indicator into a ramp h, solves Stein's
equation ``g' - w g = h - Nh`` in closed form over whole arrays of w, and
sweeps the bounds on g and g' that rate proofs for the martingale CLT use
(Bolthausen 1982).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np
from scipy import special

from .contour import build_contour
from .errors import (CostBudgetExceeded, EmptySample, NonPositiveKs, OutOfRange,
                     TooFewPoints)
from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction, support_interval
from .stieltjes import s_under_grid

# simulator imports ks_to_normal from here, so its helpers are imported where used

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_CI_LEVEL = 0.90  # the rate exponent's bootstrap interval, "exponent_ci_90" in summaries
_QFORM_CHUNK = 20_000  # probe replicates drawn per block
_FD_STEP = 1e-6  # central-difference step of the Stein sweep


def project_cost(unit, count: float, overhead: float, cap: float, what: str) -> None:
    """Fail when ``count`` units times ``overhead`` would take more than ``cap`` seconds.

    One timed call of ``unit`` makes the projection; ``CostBudgetExceeded`` reports it.
    ``unit`` must draw from no run stream, so that timing it moves no result.
    """
    t0 = perf_counter()
    unit()
    projected = (perf_counter() - t0) * count * overhead
    if projected > cap:
        raise CostBudgetExceeded(
            f"projected {projected:.0f}s for {what} exceeds the cost cap of {cap:.0f}s")


def norm_cdf(x):
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / _SQRT2)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def ks_to_normal(samples) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance to the standard normal.

    Uses the order-statistic formula
    ``max_i max(i/m - Phi(x_(i)), Phi(x_(i)) - (i-1)/m)``,
    never a binned empirical distribution.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise EmptySample("KS distance of an empty sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    xs = np.sort(xs)
    m = xs.size
    cdf = norm_cdf(xs)
    i = np.arange(1, m + 1)
    d_plus = np.max(i / m - cdf)
    d_minus = np.max(cdf - (i - 1) / m)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of KS distance against sample size."""

    exponent: float
    intercept: float
    exponent_ci: tuple[float, float]
    points: tuple[tuple[int, float], ...]


def fit_rate(points, n_boot: int = 1000, seed: int = 0) -> RateFit:
    """OLS of log ks on log n with a 90% percentile bootstrap interval.

    The bootstrap resamples the (n, ks) points themselves - KS values at
    different n come from disjoint experiments - and the interval is
    widened, if necessary, to contain the point estimate.
    """
    pts = [(int(n), float(ks)) for n, ks in points]
    if len(pts) < 3:
        raise TooFewPoints(f"need >= 3 points, got {len(pts)}")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns):
        raise ValueError("n values must be distinct")
    if any(ks <= 0 for _, ks in pts):
        raise NonPositiveKs("all ks values must be positive")
    log_n = np.log([n for n, _ in pts])
    log_ks = np.log([ks for _, ks in pts])
    slope, intercept = np.polyfit(log_n, log_ks, 1)

    rng = np.random.Generator(np.random.PCG64(seed))
    slopes = []
    attempts = 0
    while len(slopes) < n_boot and attempts < 50 * n_boot:
        attempts += 1
        idx = rng.integers(0, len(pts), size=len(pts))
        if len(set(log_n[idx])) < 2:
            continue
        s, _ = np.polyfit(log_n[idx], log_ks[idx], 1)
        slopes.append(s)
    alpha = (1.0 - _CI_LEVEL) / 2.0
    lo, hi = np.quantile(slopes, [alpha, 1.0 - alpha])
    lo, hi = min(lo, slope), max(hi, slope)
    return RateFit(exponent=float(slope), intercept=float(intercept),
                   exponent_ci=(float(lo), float(hi)), points=tuple(pts))


# ---------------------------------------------------------------------------
# Stein machinery


@dataclass(frozen=True)
class SteinContext:
    """Smoothed-indicator test function: cutoff w0 and ramp width theta."""

    w0: float
    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    @cached_property
    def Nh(self) -> float:
        return stein_Nh(self)


def stein_h(ctx: SteinContext, w) -> np.ndarray | float:
    """Piecewise-linear ramp: 1 below w0, down to 0 across (w0, w0+theta]."""
    w = np.asarray(w, dtype=float)
    out = np.clip(1.0 + (ctx.w0 - w) / ctx.theta, 0.0, 1.0)
    return out if out.shape else float(out)


def stein_Nh(ctx: SteinContext) -> float:
    """Normal expectation of the ramp, in closed form.

    ``Nh = Phi(a) + (1 + w0/theta) (Phi(b) - Phi(a)) - (phi(a) - phi(b))/theta``
    with ``a = w0``, ``b = w0 + theta``.  Small widths switch to the Taylor
    form ``Phi(a) + theta phi(a)/2 - a theta^2 phi(a)/6`` because the closed
    form cancels catastrophically as theta -> 0.
    """
    a = ctx.w0
    th = ctx.theta
    if th < 1e-4:
        pa = float(norm_pdf(a))
        return float(norm_cdf(a)) + th * pa / 2.0 - a * th * th * pa / 6.0
    b = a + th
    phi_a, phi_b = float(norm_pdf(a)), float(norm_pdf(b))
    cdf_a, cdf_b = float(norm_cdf(a)), float(norm_cdf(b))
    return cdf_a + (1.0 + a / th) * (cdf_b - cdf_a) - (phi_a - phi_b) / th


def stein_solution(ctx: SteinContext, w):
    """Bounded solution of ``g'(w) - w g(w) = h(w) - Nh`` for the ramp h.

    ``g(w) = int_{-inf}^{w} (h - Nh) phi / phi(w)`` for w <= 0 and the equal
    ``-int_{w}^{inf} (h - Nh) phi / phi(w)`` for w > 0.  h is the constant
    h(w) between w and ``u = clip(w, a, b)`` (``a = w0``, ``b = w0 + theta``),
    so each tail is a sum of terms at t among w, a, b and u of two kinds:
    the scaled tail ``Phi(t) / phi(w)`` (left) or ``(1 - Phi(t)) / phi(w)``
    (right), formed as ``sqrt(pi/2) erfcx(-+t/sqrt 2) e^{(w^2 - t^2)/2}``,
    and ``phi(t) / phi(w) = e^{(w^2 - t^2)/2}``.  No exp(w^2/2) factor is
    formed: in the tail that w uses every exponent is nonpositive, save in
    differences that vanish exactly, and no term of either tail exceeds
    about ``1/phi(30)``; so both tails are evaluated everywhere and one is
    kept.  The ramp's two terms, each about ``|w0| phi / phi(w)``, cancel to
    O(theta), so rounding costs about ``eps (1 + |w0|) / theta``.  Takes a
    scalar (returns a float) or an array; any |w| > 30 raises ``OutOfRange``
    before evaluation.
    """
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) > 30.0):
        raise OutOfRange(f"stein_solution stable range is |w| <= 30, got max |w| = "
                         f"{np.max(np.abs(w))}")
    a, th, nh = ctx.w0, ctx.theta, ctx.Nh
    b = a + th
    u = np.clip(w, a, b)
    hw = stein_h(ctx, w)

    def ratio(t):  # phi(t) / phi(w)
        return np.exp((w * w - t * t) / 2.0)

    def left(t):  # Phi(t) / phi(w)
        return _SQRT_HALF_PI * special.erfcx(-t / _SQRT2) * ratio(t)

    def right(t):  # (1 - Phi(t)) / phi(w)
        return _SQRT_HALF_PI * special.erfcx(t / _SQRT2) * ratio(t)

    g_left = ((hw - nh) * left(w) + (1.0 - hw) * left(u) + a / th * (left(u) - left(a))
              - (ratio(a) - ratio(u)) / th)
    g_right = ((nh - hw) * right(w) + hw * right(u) - (1.0 + a / th) * (right(u) - right(b))
               + (ratio(u) - ratio(b)) / th)
    g = np.where(w <= 0.0, g_left, g_right)
    return g if g.shape else float(g)


def stein_residual(ctx: SteinContext, w):
    """|g'(w) - w g(w) - (h(w) - Nh)| with g' by central difference; scalar or array w."""
    w = np.asarray(w, dtype=float)
    gp = (stein_solution(ctx, w + _FD_STEP) - stein_solution(ctx, w - _FD_STEP)) / (2 * _FD_STEP)
    r = np.abs(gp - w * stein_solution(ctx, w) - (stein_h(ctx, w) - ctx.Nh))
    return r if r.shape else float(r)


@dataclass(frozen=True)
class SteinBoundReport:
    """Worst-case margins of the solution bounds over a sweep grid."""

    min_g: float
    max_g: float
    max_abs_gprime: float
    max_gprime_spread: float
    max_residual: float
    violations: int


def stein_bound_report(ctx: SteinContext, n_grid: int = 10_000) -> SteinBoundReport:
    """Sweep the bounds 0 <= g <= 1, |g'| <= 1, |g'(u) - g'(v)| <= 1 over [-8, 8].

    Derivatives use central differences; points within two steps of the two
    ramp kinks are excluded since h is not differentiable there and the
    bounds hold for the a.e. derivative.  A tolerance of 1e-9 absorbs
    rounding in the finite differences.  g, g' and the residual (on every
    ``len // 500``-th grid point) are each one array call.
    """
    tol = 1e-9
    ws = np.linspace(-8.0, 8.0, n_grid)
    kinks = (ctx.w0, ctx.w0 + ctx.theta)
    keep = np.ones(ws.shape, dtype=bool)
    for k in kinks:
        keep &= np.abs(ws - k) > 2.0 * _FD_STEP
    ws = ws[keep]
    g = stein_solution(ctx, ws)
    gp = (stein_solution(ctx, ws + _FD_STEP) - stein_solution(ctx, ws - _FD_STEP)) / (2 * _FD_STEP)
    spread = float(np.max(gp) - np.min(gp))
    residual = np.max(stein_residual(ctx, ws[:: max(1, len(ws) // 500)]))
    violations = int(np.sum(g < -tol) + np.sum(g > 1.0 + tol)
                     + np.sum(np.abs(gp) > 1.0 + tol) + (spread > 1.0 + tol))
    return SteinBoundReport(
        min_g=float(np.min(g)), max_g=float(np.max(g)),
        max_abs_gprime=float(np.max(np.abs(gp))), max_gprime_spread=spread,
        max_residual=float(residual), violations=violations,
    )


# ---------------------------------------------------------------------------
# quadratic-form moment probe


@dataclass(frozen=True)
class QformProbeResult:
    slope: float
    points: tuple[tuple[int, float], ...]  # (n, empirical k-th moment)
    k: int
    matrix_kind: str


def _probe_matrix(spectrum: PopulationSpectrum, diag_t: np.ndarray, matrix_kind: str,
                  n: int, seed: int) -> np.ndarray:
    from .simulator import assemble_B, sample_entries

    p = diag_t.size
    if matrix_kind == "fixed_psd":
        return np.diag(diag_t)
    if matrix_kind == "resolvent":
        # one fixed draw per grid point; the probed vector stays independent
        b = assemble_B(spectrum, sample_entries(EntryEnsemble.real_gaussian(), p, n, seed), n)
        _, hi = support_interval(spectrum, p / n)
        return np.linalg.inv(b - (hi + 1.0) * np.eye(p))
    raise ValueError(f"unknown matrix kind {matrix_kind!r}")


def qform_moment(spectrum: PopulationSpectrum, matrix_kind: str, n: int, y: float,
                 k: int, replicates: int, seed: int) -> float:
    """Monte-Carlo estimate of E |r* A r - tr(T A)/n|^k at one grid point."""
    from .simulator import population_diagonal, replicate_seed, sample_entries

    p = int(round(y * n))
    diag_t = population_diagonal(spectrum, p)
    a = _probe_matrix(spectrum, diag_t, matrix_kind, n, replicate_seed(seed, 0))
    target = float(np.sum(diag_t * np.diag(a))) / n
    acc = 0.0
    done = 0
    block = 1
    while done < replicates:
        size = min(_QFORM_CHUNK, replicates - done)
        x = sample_entries(EntryEnsemble.real_gaussian(), p, size, replicate_seed(seed, block))
        r = np.sqrt(diag_t)[:, None] * x / math.sqrt(n)
        q = np.einsum("ip,ip->p", r.conj(), a @ r).real - target
        acc += float(np.sum(np.abs(q) ** k))
        done += size
        block += 1
    return acc / replicates


def qform_probe(spectrum: PopulationSpectrum, matrix_kind: str, n_grid, y: float,
                k: int, replicates: int, seed: int) -> QformProbeResult:
    """Log-log slope of the centered quadratic-form k-th moment in n.

    The aspect ratio stays fixed across the grid; the expected slope is
    -k/2 for k in {2, 4}.
    """
    if k not in (2, 4):
        raise ValueError("moment order k must be 2 or 4")
    points = []
    for i, n in enumerate(n_grid):
        moment = qform_moment(spectrum, matrix_kind, int(n), y, k, replicates, seed + i)
        points.append((int(n), moment))
    log_n = np.log([n for n, _ in points])
    log_m = np.log([m for _, m in points])
    slope, _ = np.polyfit(log_n, log_m, 1)
    return QformProbeResult(slope=float(slope), points=tuple(points), k=k,
                            matrix_kind=matrix_kind)


# ---------------------------------------------------------------------------
# nested Monte-Carlo martingale variance


@dataclass(frozen=True)
class Sigma0Result:
    estimate: float
    stderr: float
    n: int
    p: int
    inner_reps: int
    outer_reps: int
    # sampled eigenvalues outside [x_l, x_r], counted once per inner draw: the
    # contour encloses only [x_l, x_r], so the column sums drop their terms
    outside_contour: int
    # the per-column deterministic weight is the equivalent -z s0(z), whose
    # gap to the exact conditional version is an order n^{-1} effect
    b_equivalent: str = "-z*s_under"


_SIGMA0_NODES = 128  # trapezoid nodes of the column sums on the default contour
_SIGMA0_CELLS = 1 << 14  # (eigenvalue, node) cells of the resolvent sum per block


def sigma0_nested_mc(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                     n_small: int, inner_reps: int, outer_reps: int, seed: int,
                     ensemble: EntryEnsemble | None = None,
                     work_cap_seconds: float = 600.0) -> Sigma0Result:
    """Estimate the martingale variance sum by nested Monte Carlo.

    For each column j the conditional expectation over the not-yet-revealed
    columns is realized by redrawing them; two independent half-estimates
    of ``inner_reps`` draws each are multiplied so the inner noise cancels
    in expectation instead of biasing the square.  Column weights use the
    deterministic equivalent ``-z s_under(z)``.  The contour sum is one
    trapezoid rule of 128 nodes on the default contour.

    A column works on all of its ``2 inner_reps`` draws at once: one batch
    of fresh entries, one stacked Gram update and one stacked ``eigh``.
    The contour sum is folded into ``g(lam) = Re sum_k W_k / (lam - z_k)``
    per eigenvalue, evaluated in real arithmetic.  Work is projected from
    one timed stacked eigendecomposition of ``2 inner_reps`` fixed p x p
    matrices, the unit of a column, and the run aborts beforehand if
    ``outer_reps n`` of them exceed the cap.  Sizes below 1 and
    ``n_small > 64`` raise ``OutOfRange`` before any work.
    """
    from .simulator import draw_entries, population_diagonal, replicate_seed, sample_entries

    if n_small > 64:
        raise OutOfRange(f"n_small is capped at 64 (cost grows like n^4), got {n_small}")
    if ensemble is None:
        ensemble = EntryEnsemble.real_gaussian()
    n = int(n_small)
    p = int(round(y_n * n))
    for name, value in (("n_small", n), ("p = round(y_n * n_small)", p),
                        ("inner_reps", inner_reps), ("outer_reps", outer_reps)):
        if value < 1:
            raise OutOfRange(f"nested MC needs {name} >= 1, got {value}")

    reps = 2 * inner_reps
    dtype = complex if ensemble.is_complex else float
    # distinct eigenvalues: a degenerate matrix such as I + 0.01 solves about 1.7x faster
    fixed = np.broadcast_to(np.diag(np.arange(1.0, p + 1.0)) + 0.01, (reps, p, p)).astype(dtype)
    columns = outer_reps * n
    # 2.5: each column adds its draw, Gram update and resolvent sums to the eigh
    project_cost(lambda: np.linalg.eigh(fixed), columns, 2.5, work_cap_seconds,
                 f"{columns} nested-MC columns of {reps} inner draws")

    c = build_contour(spectrum, y_n, m=_SIGMA0_NODES, f=f)
    z, w = c.nodes()
    # trapezoid weight folded with f', b = -z s_under and -1/(2 pi i)
    big_w = w * f.deriv(z) * (-z * s_under_grid(z, spectrum, y_n)) / (-2.0j * math.pi)
    x_k, w_re, w_im_y, y2 = z.real, big_w.real, big_w.imag * z.imag, z.imag ** 2
    block = max(1, _SIGMA0_CELLS // z.size)

    def g(lam: np.ndarray) -> np.ndarray:
        """``Re sum_k W_k / (lam - z_k)`` as ``sum_k (Re W_k d - Im W_k y_k) / (d^2 + y_k^2)``."""
        flat = lam.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, block):
            d = flat[start:start + block, None] - x_k
            out[start:start + block] = ((w_re * d - w_im_y) / (d * d + y2)).sum(axis=1)
        return out.reshape(lam.shape)

    diag_t = population_diagonal(spectrum, p)
    root_t = np.sqrt(diag_t)
    totals = []
    outside = 0
    for outer in range(outer_reps):
        rng = np.random.Generator(np.random.PCG64(replicate_seed(seed, 2 * outer)))
        x_full = sample_entries(ensemble, p, n, replicate_seed(seed, 2 * outer + 1))
        r_cols = root_t[:, None] * x_full / math.sqrt(n)
        base = np.zeros((p, p), dtype=dtype)
        total = 0.0
        for j in range(n):
            r_j = r_cols[:, j]
            fresh = n - 1 - j
            if fresh:
                x = draw_entries(ensemble, rng, (reps, p, fresh))
                cols = root_t[:, None] * x / math.sqrt(n)
                lam, q = np.linalg.eigh(base + cols @ cols.conj().swapaxes(1, 2))
            else:  # the last column draws nothing: every inner draw is base itself
                lam, q = np.linalg.eigh(base[None])
            coef = np.abs(r_j.conj() @ q) ** 2 - (diag_t @ np.abs(q) ** 2) / n
            terms = np.broadcast_to((coef * g(lam)).sum(axis=1), (reps,))
            total += terms[:inner_reps].mean() * terms[inner_reps:].mean()
            outside += reps // len(lam) * int(np.count_nonzero((lam < c.x_l) | (lam > c.x_r)))
            base = base + np.outer(r_j, r_j.conj())
        totals.append(total)
    totals = np.array(totals)
    est = float(np.mean(totals))
    stderr = float(np.std(totals, ddof=1) / math.sqrt(len(totals))) if len(totals) > 1 else 0.0
    return Sigma0Result(estimate=est, stderr=stderr, n=n, p=p, inner_reps=inner_reps,
                        outer_reps=outer_reps, outside_contour=outside)
