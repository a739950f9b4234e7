"""The benchmark's four workloads: the ops they run and the gates on their outputs.

Every op goes through a public entry point a user calls: ``lsslab.cli.main``
for the CLI kinds, and ``lsslab.diagnostics.sigma0_nested_mc`` for the
nested Monte-Carlo check, which has no CLI kind.  The program receives only
the configs built here; every op's ``root_seed`` comes from the workload
seed.

An op passes when it returns normally (exit code 0 for the CLI) and its
outputs clear the op's gate.  Gates use closed forms where the identity
population has them and values recorded from the program at the seed
commit (``reference.json``) otherwise, with tolerances well above the
program's own quadrature (1e-9) and Richardson (about 1e-5) errors, so an
exact solver still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SPECTRA = {
    "identity": "identity",
    "two_atom": [{"atom": 0.1, "weight": 0.5}, {"atom": 1.0, "weight": 0.5}],
    "five_atom": [{"atom": t, "weight": 0.2} for t in (0.2, 0.4, 0.6, 0.8, 1.0)],
}

# relative tolerances of the gates (see the module docstring)
MOMENT_RTOL = 1e-6
ORACLE_RTOL = 1e-7
DENSITY_ATOL_REL = 1e-4  # times the largest reference density of the op
# replicate bands in standard errors of the normalized mean and variance
BAND_SIGMAS = 5.0

CSV_KINDS = {"lsd", "simulate", "ks-rate", "stein-check", "probe-qform"}


@dataclass
class Op:
    """One unit of work: a CLI invocation or a direct ``sigma0_nested_mc`` call.

    ``items`` is what the op adds to the workload's throughput when it
    passes.  ``check`` gets the op's outcome and returns ``None`` when the
    outputs are right, else the reason they are not.
    """

    name: str
    kind: str
    config: dict
    items: int
    check: Callable[["Outcome"], str | None]


@dataclass
class Outcome:
    """What an op left behind: its summary and CSV rows, or a returned object."""

    summary: dict | None = None
    rows: list[list[str]] = field(default_factory=list)
    csv_sha256: str | None = None
    value: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    why: str
    ops: list[Op]       # timed, every op passes at the seed commit
    probe: list[Op]     # untimed known-defect probe, run once per run
    warmup: list[Op]    # untimed, one small op per kind


def op_seeds(seed: int, count: int) -> list[int]:
    """Per-op root seeds drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


def _reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# moments


def _moments_check(name: str, oracle: tuple[float, float] | None, ref: dict):
    def check(out: Outcome) -> str | None:
        mu, sigma = out.summary["mu"], out.summary["sigma"]
        if oracle is not None:
            want, rtol, source = oracle, ORACLE_RTOL, "closed form"
        elif name in ref:
            want, rtol, source = (ref[name]["mu"], ref[name]["sigma"]), MOMENT_RTOL, "reference"
        else:
            return f"no reference value recorded for {name}"
        if _close(mu, want[0], rtol) and _close(sigma, want[1], rtol):
            return None
        return f"mu={mu!r} sigma={sigma!r} against {source} {want!r}"
    return check


def _x2_oracle(y: float, case: str) -> tuple[float, float]:
    """mu(x^2) = y (real case, zero in the complex case), sigma(x^2) = 4y(2+5y+2y^2)."""
    return (y if case == "RG" else 0.0, 4.0 * y * (2.0 + 5.0 * y + 2.0 * y * y))


def _log_oracle(y: float) -> tuple[float, float]:
    """Bai & Silverstein (2004): mu(log) = log(1-y)/2, sigma(log) = -2 log(1-y)."""
    return (math.log(1.0 - y) / 2.0, -2.0 * math.log(1.0 - y))


def _moments_op(name, spectrum, y, f, ensemble, oracle, ref, contour=None) -> Op:
    cfg = {"kind": "moments", "spectrum": SPECTRA[spectrum], "y": y, "f": f,
           "ensemble": ensemble}
    if contour is not None:
        cfg["contour"] = contour
    return Op(name, "moments", cfg, 1, _moments_check(name, oracle, ref))


def moments_workload(ref: dict) -> Workload:
    ops = []
    for spectrum in SPECTRA:
        for y in (0.25, 0.5, 0.9, 2.0):
            for f in ("x^2", "x^11"):
                oracle = _x2_oracle(y, "RG") if (spectrum, f) == ("identity", "x^2") else None
                ops.append(_moments_op(f"rg-{spectrum}-y{y}-{f}", spectrum, y, f, "RG",
                                       oracle, ref))
    for spectrum in SPECTRA:
        for y in (0.5, 2.0):
            oracle = _x2_oracle(y, "CG") if spectrum == "identity" else None
            ops.append(_moments_op(f"cg-{spectrum}-y{y}-x^2", spectrum, y, "x^2", "CG",
                                   oracle, ref))
    probe = [_moments_op(f"log-identity-y{y}", "identity", y, "log", "RG",
                         _log_oracle(y), ref) for y in (0.25, 0.5, 0.9)]
    probe.append(_moments_op("log-identity-y0.5-eps0.03", "identity", 0.5, "log", "RG",
                             _log_oracle(0.5), ref, contour={"eps": 0.03}))
    warmup = [_moments_op("warmup", "identity", 0.5, "x^2", "RG", _x2_oracle(0.5, "RG"), ref)]
    return Workload("moments", "moment set",
                    "off-bulk vectorized solve, the m-against-2m ladder and the 512^2 "
                    "kernel; no sampling and no eigensolves",
                    ops, probe, warmup)


# ---------------------------------------------------------------------------
# density


def mp_density(x: float, y: float) -> float:
    """Marchenko-Pastur density (continuous part) of ratio y at x."""
    a, b = (1.0 - math.sqrt(y)) ** 2, (1.0 + math.sqrt(y)) ** 2
    if not a < x < b:
        return 0.0
    return math.sqrt((b - x) * (x - a)) / (2.0 * math.pi * y * x)


def _density_check(name: str, spectrum: str, y: float, ref: dict):
    def check(out: Outcome) -> str | None:
        xs = [float(r[0]) for r in out.rows]
        ds = [float(r[1]) for r in out.rows]
        if spectrum == "identity":
            want, source = [mp_density(x, y) for x in xs], "Marchenko-Pastur"
        elif name in ref:
            want, source = ref[name]["density"], "reference"
        else:
            return f"no reference density recorded for {name}"
        if len(want) != len(ds):
            return f"{len(ds)} density points, expected {len(want)}"
        worst = max(abs(d - w) for d, w in zip(ds, want))
        atol = DENSITY_ATOL_REL * max(want)
        return None if worst <= atol else f"density off the {source} by {worst:.3e} > {atol:.1e}"
    return check


def _lsd_op(spectrum: str, y: float, points: int, ref: dict, name: str | None = None) -> Op:
    name = name or f"lsd-{spectrum}-y{y}"
    cfg = {"kind": "lsd", "spectrum": SPECTRA[spectrum], "y": y, "grid_points": points}
    return Op(name, "lsd", cfg, points, _density_check(name, spectrum, y, ref))


def density_workload(ref: dict) -> Workload:
    ops = [_lsd_op("identity", 0.5, 20, ref), _lsd_op("identity", 2.0, 10, ref),
           _lsd_op("two_atom", 0.5, 20, ref), _lsd_op("five_atom", 0.5, 20, ref),
           _lsd_op("five_atom", 2.0, 20, ref)]
    warmup = [_lsd_op("identity", 0.5, 2, ref, name="warmup")]
    return Workload("density", "density point",
                    "scalar near-axis fixed point with its 500k-iteration budget; cost "
                    "per point depends strongly on the spectrum",
                    ops, [], warmup)


# ---------------------------------------------------------------------------
# replicates


def _band_check(replicates: int, gaussian_matched: bool):
    """Replicate rows complete and finite; Gaussian-matched ops also N(0, 1)-like.

    The c07/c09 acceptance bands (0.08 and 0.12 at 2000 replicates) sit about
    3.6 standard errors out and are checked once, at a fixed seed.  The
    benchmark checks a fresh seed in every run, so its bands sit 5 standard
    errors out, scaled to R replicates: about 2e-4 false alarms per run.
    """
    band_mean = BAND_SIGMAS / math.sqrt(replicates)
    band_var = BAND_SIGMAS * math.sqrt(2.0 / (replicates - 1))

    def check(out: Outcome) -> str | None:
        values = [float(r[2]) for r in out.rows]
        if len(values) != replicates or not all(math.isfinite(v) for v in values):
            return f"{len(values)} finite replicate rows, expected {replicates}"
        if not gaussian_matched:
            return None
        mean, var = out.summary["mean"], out.summary["variance"]
        if abs(mean) <= band_mean and abs(var - 1.0) <= band_var:
            return None
        return (f"mean={mean:+.4f} var={var:.4f} outside the bands "
                f"+-{band_mean:.3f} / 1+-{band_var:.3f}")
    return check


def _simulate_op(name, p, n, replicates, f="x^2", ensemble="RG", spectrum="identity",
                 truncation=None, gaussian_matched=True) -> Op:
    cfg = {"kind": "simulate", "spectrum": SPECTRA[spectrum], "p": p, "n": n,
           "f": f, "ensemble": ensemble, "replicates": replicates}
    if truncation is not None:
        cfg["truncation"] = truncation
    return Op(name, "simulate", cfg, replicates, _band_check(replicates, gaussian_matched))


def _ks_rate_check(grid: list[int], replicates: int):
    def check(out: Outcome) -> str | None:
        ns = [int(r[0]) for r in out.rows]
        ks = [float(r[1]) for r in out.rows]
        if ns != grid or not all(0.0 < k < 1.0 for k in ks):
            return f"ks rows {list(zip(ns, ks))} malformed for grid {grid}"
        if not math.isfinite(out.summary["exponent"]):
            return "rate exponent not finite"
        return None
    return check


def replicates_workload(ref: dict) -> Workload:
    grid = [64, 128, 256]
    ks_reps = 200
    ops = [
        _simulate_op("rg-256x512", 256, 512, 100),
        _simulate_op("cg-256x512", 256, 512, 30, ensemble="CG"),
        _simulate_op("rg-512x256", 512, 256, 30),
        _simulate_op("t11-five_atom-trunc-256x512", 256, 512, 30,
                     ensemble={"name": "student_t", "df": 11}, spectrum="five_atom",
                     truncation={"mode": "on"}, gaussian_matched=False),
        Op("ks-rate-y0.25-x^11", "ks-rate",
           {"kind": "ks-rate", "y": 0.25, "n_grid": grid, "f": "x^11",
            "replicates": ks_reps},
           len(grid) * ks_reps, _ks_rate_check(grid, ks_reps)),
    ]
    probe = [_simulate_op("log-256x512", 256, 512, 30, f="log")]
    warmup = [
        _simulate_op("warmup-simulate", 16, 32, 4, ensemble={"name": "student_t", "df": 11},
                     truncation={"mode": "on"}, gaussian_matched=False),
        Op("warmup-ks-rate", "ks-rate",
           {"kind": "ks-rate", "y": 0.25, "n_grid": [16, 24, 32], "replicates": 4},
           12, _ks_rate_check([16, 24, 32], 4)),
    ]
    return Workload("replicates", "replicate",
                    "sampling, Gram product, eigvalsh and statistic of large replicates; "
                    "one op per stage that can dominate",
                    ops, probe, warmup)


# ---------------------------------------------------------------------------
# diagnostics


def _sigma0_check(target: float):
    """Nested-MC estimate near its target, within 5 stderr plus 15% for the n^-1 bias."""
    def check(out: Outcome) -> str | None:
        res = out.value
        if abs(res.estimate - target) <= 5.0 * res.stderr + 0.15 * target:
            return None
        return f"sigma0 {res.estimate:.4f} +- {res.stderr:.4f}, expected {target}"
    return check


def _stein_check(out: Outcome) -> str | None:
    v = out.summary["total_violations"]
    return None if v == 0 else f"{v} Stein bound violations"


def _slope_check(k: int, tol: float):
    def check(out: Outcome) -> str | None:
        slope = out.summary["slope"]
        return None if abs(slope + k / 2.0) <= tol else f"slope {slope:.3f}, expected {-k / 2}"
    return check


def _sigma0_op(name: str, ensemble: str, n_small: int, inner: int, outer: int,
               check=None) -> Op:
    """f = x on the identity at y = 0.5: sigma(x) = 2y = 1, halved for complex entries."""
    cfg = {"kind": "sigma0", "ensemble": ensemble, "y": 0.5, "n_small": n_small,
           "inner_reps": inner, "outer_reps": outer}
    items = outer * n_small * 2 * inner
    return Op(name, "sigma0", cfg, items,
              check or _sigma0_check(1.0 if ensemble == "RG" else 0.5))


def diagnostics_workload(ref: dict) -> Workload:
    ops = [
        _sigma0_op("sigma0-rg-n32", "RG", 32, 16, 8),
        _sigma0_op("sigma0-cg-n16", "CG", 16, 32, 8),
        Op("stein-check", "stein-check",
           {"kind": "stein-check", "contexts": 10, "grid_points": 2000}, 0, _stein_check),
        Op("probe-qform-fixed_psd-k4", "probe-qform",
           {"kind": "probe-qform", "matrix_kind": "fixed_psd", "k": 4,
            "n_grid": [64, 128, 256, 512], "replicates": 10000}, 0, _slope_check(4, 0.5)),
        Op("probe-qform-resolvent-k2", "probe-qform",
           {"kind": "probe-qform", "matrix_kind": "resolvent", "k": 2,
            "n_grid": [64, 128, 256], "replicates": 10000}, 0, _slope_check(2, 0.4)),
    ]
    warmup = [
        _sigma0_op("warmup-sigma0", "RG", 4, 2, 2,
                   check=lambda out: None if math.isfinite(out.value.estimate) else "not finite"),
        Op("warmup-stein", "stein-check",
           {"kind": "stein-check", "contexts": 1, "grid_points": 50}, 0, _stein_check),
        Op("warmup-probe", "probe-qform",
           {"kind": "probe-qform", "matrix_kind": "resolvent", "k": 2,
            "n_grid": [16, 32, 64], "replicates": 200}, 0, lambda out: None),
    ]
    return Workload("diagnostics", "nested-MC inner draw",
                    "tens of thousands of tiny eigh calls, the Stein sweep and the "
                    "quadratic-form probe; the only workload covering diagnostics",
                    ops, [], warmup)


BUILDERS = {"moments": moments_workload, "density": density_workload,
            "replicates": replicates_workload, "diagnostics": diagnostics_workload}


def build(name: str, seed: int) -> Workload:
    """The named workload with every op's root_seed drawn from ``seed``."""
    wl = BUILDERS[name](_reference())
    every = wl.ops + wl.probe + wl.warmup
    for op, s in zip(every, op_seeds(seed, len(every))):
        op.config["root_seed"] = s
    return wl


def read_outcome(kind: str, out_dir: Path) -> Outcome:
    """Load the summary and CSV a CLI op wrote."""
    stem = kind.replace("-", "_")
    doc = json.loads((out_dir / f"{stem}_summary.json").read_text(encoding="utf-8"))
    outcome = Outcome(summary=doc["summary"])
    if kind in CSV_KINDS:
        body = (out_dir / f"{stem}_detail.csv").read_bytes()
        outcome.csv_sha256 = hashlib.sha256(body).hexdigest()
        outcome.rows = list(csv.reader(body.decode("utf-8").splitlines()))[1:]
    return outcome
