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

from .contour import build_contour
from .errors import (CostBudgetExceeded, EmptySample, NonPositiveKs, OutOfRange,
                     TooFewPoints)
from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction, support_interval
from .stieltjes import s_under_grid

# simulator imports ks_to_normal from here, so its helpers are imported where used;
# no scipy: the normal tail functions are the numpy kernel erfc below

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_CI_LEVEL = 0.90  # the rate exponent's bootstrap interval, "exponent_ci_90" in summaries
_N_BOOT = 1000  # bootstrap resamples of the rate fit
_QFORM_CHUNK = 20_000  # probe replicates drawn per block
_QFORM_CELLS = 1 << 18  # (row, replicate) cells of r and A r formed per column slice
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


# Cody's rational Chebyshev approximations (Math. Comp. 23, 1969; SPECFUN's CALERF),
# coefficients from the highest degree down: erf(x) = x A(x^2) / B(x^2) for
# |x| <= 0.46875, erfcx(x) = C(x) / D(x) up to 4 and
# (1/sqrt(pi) - P(1/x^2) / (x^2 Q(1/x^2))) / x beyond
_ERF_SPLIT = 0.46875
_ERF_A = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_B = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
           6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
           1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_D = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_Q = (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


def _rational(x: np.ndarray, num, den) -> np.ndarray:
    """``num(x) / den(x)`` by Horner's rule in Cody's order (both degrees equal)."""
    p, q = num[0] * x, den[0] * x
    for a, b in zip(num[1:-1], den[1:-1]):
        p += a
        p *= x
        q += b
        q *= x
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def _exp_square(t: np.ndarray, sign: float) -> np.ndarray:
    """``exp(sign t^2)`` with ``t^2`` split at t truncated to 1/16, so large t keep their digits."""
    s = np.trunc(16.0 * t) / 16.0
    return np.exp(sign * s * s) * np.exp(sign * (t - s) * (t + s))


def erfc(x, scaled: bool = False) -> np.ndarray:
    """Complementary error function, or with ``scaled`` ``erfcx(x) = exp(x^2) erfc(x)``.

    Elementwise over a float array by Cody's approximations, to a few units
    in the last place.  Past |x| = 0.46875 the kernel forms ``erfcx(|x|)``;
    erfc multiplies it by ``exp(-x^2)`` and a negative x takes the other tail,
    ``erfc(-t) = 2 - erfc(t)`` and ``erfcx(-t) = 2 exp(t^2) - erfcx(t)``.
    erfc underflows to 0 past about 27.2 and erfcx overflows to inf below
    about -26.6.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    y = np.abs(flat)
    out = np.empty(flat.shape)
    near = y <= _ERF_SPLIT
    mid = ~near & (y <= 4.0)
    far = ~(near | mid)  # and NaN
    with np.errstate(over="ignore", under="ignore"):
        t = flat[near]
        t2 = t * t
        r = 1.0 - t * _rational(t2, _ERF_A, _ERF_B)
        out[near] = np.exp(t2) * r if scaled else r
        out[mid] = _rational(y[mid], _ERFC_C, _ERFC_D)
        t = y[far]
        z = 1.0 / (t * t)
        out[far] = (_INV_SQRT_PI - z * _rational(z, _ERFC_P, _ERFC_Q)) / t
        if scaled:
            neg = ~near & (flat < 0.0)
            # exp(27^2) overflows, as the true value does from -26.6 on
            out[neg] = 2.0 * _exp_square(np.minimum(y[neg], 27.0), 1.0) - out[neg]
        else:
            rest = ~near
            # exp(-27.5^2) underflows to 0, as the true value does from 27.3 on
            r = _exp_square(np.minimum(y[rest], 27.5), -1.0) * out[rest]
            out[rest] = np.where(flat[rest] < 0.0, 2.0 - r, r)
    return out.reshape(x.shape)


def norm_cdf(x):
    """Standard normal distribution function via the complementary error function."""
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


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


def fit_rate(points, seed: int = 0) -> RateFit:
    """OLS of log ks on log n with a 90% percentile bootstrap interval.

    The bootstrap draws 1000 resamples of the (n, ks) points themselves,
    from stream ``seed`` - KS values at different n come from disjoint
    experiments - skipping any with fewer than two distinct n, and the
    interval is widened, if necessary, to contain the point estimate.
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
    resamples = []
    attempts = 0
    while len(resamples) < _N_BOOT and attempts < 50 * _N_BOOT:
        attempts += 1
        idx = rng.integers(0, len(pts), size=len(pts))
        if len(set(log_n[idx])) < 2:
            continue
        resamples.append(idx)
    # every accepted resample's OLS slope at once: sum dx dy / sum dx^2
    x, y = log_n[resamples], log_ks[resamples]
    dx = x - x.mean(axis=1, keepdims=True)
    slopes = np.sum(dx * (y - y.mean(axis=1, keepdims=True)), axis=1) / np.sum(dx * dx, axis=1)
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
    so each tail is a sum of terms at t among w, u and its far kink e (a on
    the left, b on the right) of two kinds: the scaled tail ``Phi(t) / phi(w)``
    (left) or ``(1 - Phi(t)) / phi(w)`` (right), formed as
    ``sqrt(pi/2) erfcx(-+t/sqrt 2) e^{(w^2 - t^2)/2}``, and
    ``phi(t) / phi(w) = e^{(w^2 - t^2)/2}``.  Each point evaluates only the
    tail it keeps, with one ``erfc`` kernel call on the stacked arguments:
    w and both kinks, since u is one of them.  No exp(w^2/2) factor is
    formed: in the kept tail every exponent is nonpositive, save in
    differences that vanish exactly.  The ramp's two terms, each about
    ``|w0| phi / phi(w)``, cancel to O(theta), so rounding costs about
    ``eps (1 + |w0|) / theta``.  Takes a scalar (returns a float) or an
    array of any shape; any |w| > 30 raises ``OutOfRange`` before evaluation.
    """
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) > 30.0):
        raise OutOfRange(f"stein_solution stable range is |w| <= 30, got max |w| = "
                         f"{np.max(np.abs(w))}")
    a, th, nh = ctx.w0, ctx.theta, ctx.Nh
    b = a + th
    u = np.clip(w, a, b)
    hw = stein_h(ctx, w)
    left = w <= 0.0
    sign = np.where(left, -1.0, 1.0)
    e = np.where(left, a, b)
    # the kinks at both signs: u is w, a or b
    ex = erfc(np.concatenate([(sign * w).ravel(), [-a, a, -b, b]]) / _SQRT2, scaled=True)
    ex_w = ex[:-4].reshape(w.shape)
    ex_a, ex_b = np.where(left, ex[-4], ex[-3]), np.where(left, ex[-2], ex[-1])
    ex_u = np.where(w < a, ex_a, np.where(w > b, ex_b, ex_w))
    ex_e = np.where(left, ex_a, ex_b)

    def ratio(t):  # phi(t) / phi(w)
        return np.exp((w * w - t * t) / 2.0)

    r_u, r_e = ratio(u), ratio(e)
    tail_w = _SQRT_HALF_PI * ex_w  # its ratio is 1
    tail_u, tail_e = _SQRT_HALF_PI * ex_u * r_u, _SQRT_HALF_PI * ex_e * r_e
    g = (np.where(left, hw - nh, nh - hw) * tail_w + np.where(left, 1.0 - hw, hw) * tail_u
         + np.where(left, a / th, -(1.0 + a / th)) * (tail_u - tail_e) + (r_u - r_e) / th)
    return g if g.shape else float(g)


def stein_residual(ctx: SteinContext, w):
    """|g'(w) - w g(w) - (h(w) - Nh)| with g' by central difference; scalar or array w."""
    w = np.asarray(w, dtype=float)
    g, g_hi, g_lo = stein_solution(ctx, np.stack([w, w + _FD_STEP, w - _FD_STEP]))
    gp = (g_hi - g_lo) / (2 * _FD_STEP)
    r = np.abs(gp - w * g - (stein_h(ctx, w) - ctx.Nh))
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
    rounding in the finite differences.  g with both difference points, and
    the residual on every ``len // 500``-th grid point, are one
    ``stein_solution`` call each, on the stacked points.
    """
    tol = 1e-9
    ws = np.linspace(-8.0, 8.0, n_grid)
    kinks = (ctx.w0, ctx.w0 + ctx.theta)
    keep = np.ones(ws.shape, dtype=bool)
    for k in kinks:
        keep &= np.abs(ws - k) > 2.0 * _FD_STEP
    ws = ws[keep]
    g, g_hi, g_lo = stein_solution(ctx, np.stack([ws, ws + _FD_STEP, ws - _FD_STEP]))
    gp = (g_hi - g_lo) / (2 * _FD_STEP)
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
    """The probed dense matrix A: ``resolvent``'s ``(B - (hi + 1) I)^-1`` at one draw of B."""
    from .simulator import assemble_B, sample_entries

    if matrix_kind != "resolvent":
        raise ValueError(f"unknown matrix kind {matrix_kind!r}")
    # one fixed draw per grid point; the probed vector stays independent
    p = diag_t.size
    b = assemble_B(spectrum, sample_entries(EntryEnsemble.real_gaussian(), p, n, seed), n,
                   overwrite_entries=True)
    _, hi = support_interval(spectrum, p / n)
    return np.linalg.inv(b - (hi + 1.0) * np.eye(p))


def qform_moment(spectrum: PopulationSpectrum, matrix_kind: str, n: int, y: float,
                 k: int, replicates: int, seed: int) -> float:
    """Monte-Carlo estimate of E |r* A r - tr(T A)/n|^k at one grid point.

    ``r = T^(1/2) x / sqrt(n)`` with standard normal x.  Each block of up to
    20,000 replicates draws from its own stream, ``replicate_seed(seed,
    block)``, and the k-th powers are summed once per block.  The two
    matrix kinds draw the form from two laws:

    - ``fixed_psd``, ``A = diag(T)``: ``r* A r = sum_i t_i^2 x_i^2 / n`` has
      the law of ``sum_t t^2 chi2_{p_t} / n`` over the distinct atoms t of
      the population diagonal, ``p_t`` times each, so a replicate is one
      ``Generator.chisquare`` variate per atom, atoms in ascending order,
      in place of p normals.
    - ``resolvent``, a dense A: a block is one draw of p x size entries.
      ``r``, ``A r`` and the forms are made on column slices of it, of at
      most ``_QFORM_CELLS`` cells each, so the entries are the only array
      of the block's full size.
    """
    from .simulator import population_diagonal, replicate_seed, sample_entries

    p = int(round(y * n))
    diag_t = population_diagonal(spectrum, p)
    diagonal = matrix_kind == "fixed_psd"
    if diagonal:
        atoms, counts = np.unique(diag_t, return_counts=True)
        target = float(np.sum(diag_t * diag_t)) / n
    else:
        a = _probe_matrix(spectrum, diag_t, matrix_kind, n, replicate_seed(seed, 0))
        target = float(np.sum(diag_t * np.diag(a))) / n
        root_t = np.sqrt(diag_t)[:, None]
        width = max(1, _QFORM_CELLS // max(p, 1))
    acc = 0.0
    done = 0
    block = 1
    while done < replicates:
        size = min(_QFORM_CHUNK, replicates - done)
        if diagonal:
            rng = np.random.Generator(np.random.PCG64(replicate_seed(seed, block)))
            q = sum(t * t * rng.chisquare(c, size) for t, c in zip(atoms, counts)) / n
        else:
            x = sample_entries(EntryEnsemble.real_gaussian(), p, size, replicate_seed(seed, block))
            q = np.empty(size)
            for start in range(0, size, width):
                r = root_t * x[:, start:start + width] / math.sqrt(n)
                q[start:start + width] = np.einsum("ip,ip->p", r, a @ r)
        acc += float(np.sum(np.abs(q - target) ** k))
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


_SIGMA0_NODES = 128  # nodes of the column sums' symmetric rule, half of them evaluated
_SIGMA0_CELLS = 1 << 14  # (eigenvalue, node) cells of the resolvent sum per block


def sigma0_nested_mc(f: TestFunction, spectrum: PopulationSpectrum, y_n: float,
                     n_small: int, inner_reps: int, outer_reps: int, seed: int, *,
                     ensemble: EntryEnsemble | None = None,
                     work_cap_seconds: float = 600.0) -> Sigma0Result:
    """Estimate the martingale variance sum by nested Monte Carlo.

    For each column j the conditional expectation over the not-yet-revealed
    columns is realized by redrawing them; two independent half-estimates
    of ``inner_reps`` draws each are multiplied so the inner noise cancels
    in expectation instead of biasing the square.  Column weights use the
    deterministic equivalent ``-z s_under(z)`` in place of the exact
    conditional one, an order 1/n gap.  The columns draw
    ``T_p = population_diagonal(spectrum, p)``, so the contour and
    ``s_under`` are those of the realized spectrum ``H_p``
    (``realized_spectrum``) at ``y_n``.  The contour sum is the
    conjugate-symmetric trapezoid rule of 128 nodes on the default contour
    (``Contour.upper_half``).  f is real and so is every eigenvalue lam,
    since each inner matrix is Hermitian, so the rule's mirror nodes add
    the conjugates of their partners' terms: the sum is twice the real part
    of the 64 terms in the upper half plane, and only those nodes are
    solved and summed.

    A column works on all of its ``2 inner_reps`` draws at once: one batch
    of fresh entries, one stacked Gram update and one stacked ``eigh``.
    The contour sum is folded into ``g(lam) = Re sum_k W_k / (lam - z_k)``
    per eigenvalue over the 64 upper nodes, with the mirror half's factor
    2 folded into ``W_k``, evaluated in real arithmetic.  Work is projected from
    one timed stacked eigendecomposition of ``2 inner_reps`` fixed p x p
    matrices, the unit of a column, and the run aborts beforehand if
    ``outer_reps n`` of them exceed the cap.  Sizes below 1 and
    ``n_small > 64`` raise ``OutOfRange`` before any work.
    """
    from .simulator import (draw_entries, population_diagonal, realized_spectrum,
                            replicate_seed, sample_entries)

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

    h_p = realized_spectrum(spectrum, p)
    c = build_contour(h_p, y_n, m=_SIGMA0_NODES, f=f)
    z, w = c.upper_half()
    # trapezoid weight folded with f', b = -z s_under, -1/(2 pi i) and the 2 of the mirror half
    big_w = w * f.deriv(z) * (-z * s_under_grid(z, h_p, y_n)) / (-1.0j * math.pi)
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
