"""Command line entry point: experiment orchestration and result persistence.

Subcommands: lsd, moments, simulate, ks-rate, stein-check, probe-qform.
Each writes a JSON summary (stable key order, embeds the resolved config
and the package version) and, where applicable, a CSV detail file
(RFC-4180 style, header row, LF line endings).  CSV bodies are
deterministic for a fixed config and seed; timestamps live in the JSON
only.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .clt_moments import compute_moments
from .config import KINDS, RunConfig, parse_config
from .diagnostics import (SteinContext, fit_rate, project_cost, qform_probe,
                          stein_bound_report)
from .errors import LabError
from .simulator import (DENSE, default_eta, dense_workers, realized_spectrum, replicate_sampler,
                        replicate_seed, replicate_statistic, run_experiment, truncated_law)
from .spectral_model import EntryEnsemble, PopulationSpectrum, support_interval
from .stieltjes import lsd_density

ENV_OUT = "LSSLAB_OUT"


def _out_dir(cfg: RunConfig, flag_out: str | None) -> Path:
    out = flag_out or cfg.out or os.environ.get(ENV_OUT) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, cfg: RunConfig, summary: dict, started: str) -> None:
    doc = {
        "version": __version__,
        "config": cfg.to_dict(),
        "summary": summary,
        "started_at": started,
        "finished_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _law(cfg: RunConfig, n: int) -> EntryEnsemble:
    """The law a run at sample size n draws: the config's, truncated when truncation is on."""
    if cfg.truncation_mode == "off":
        return cfg.ensemble
    eta = cfg.truncation_eta if cfg.truncation_eta is not None else default_eta(n)
    return truncated_law(cfg.ensemble, n, eta)


def _check_budget(cfg: RunConfig, runs: list[tuple]) -> None:
    """Fail before any solve or draw if ``cfg.replicates`` replicates of each run cost too much.

    A run is ``(law, H_p, p, n)``, ``H_p`` the spectrum it draws.  The timed unit is
    one replicate's statistic of the run's f for each, drawn from seed 0, no run
    stream, by the sampler and reduction the run takes.  A dense run spreads its
    replicates over ``dense_workers`` threads, so the projection counts
    ``ceil(replicates / W)`` units, with W the narrowest pool of the runs.
    """
    def unit():
        for law, h_p, p, n in runs:
            replicate_statistic(cfg.f, law, h_p, p, n, 0)

    workers = min(dense_workers(p, n, cfg.replicates)
                  if replicate_sampler(law, h_p) == DENSE else 1
                  for law, h_p, p, n in runs)
    where = ", ".join(f"p={p}, n={n}" for _, _, p, n in runs)
    project_cost(unit, math.ceil(cfg.replicates / workers), 1.5, cfg.cost_cap_seconds,
                 f"{cfg.replicates} replicates at each of ({where})")


def run_lsd(cfg: RunConfig, out: Path, started: str) -> str:
    lo, hi = support_interval(cfg.spectrum, cfg.y)
    xs = np.linspace(lo, hi, cfg.grid_points + 2)[1:-1]
    density = lsd_density(xs, cfg.spectrum, cfg.y).tolist()
    rows = [(_fmt(x), _fmt(d)) for x, d in zip(xs, density)]
    mass = sum(density) * (xs[1] - xs[0])  # grid_points >= 2
    _write_csv(out / "lsd_detail.csv", ["x", "density"], rows)
    _write_json(out / "lsd_summary.json", cfg,
                {"support_lo": lo, "support_hi": hi, "grid_points": len(xs),
                 "bulk_mass_riemann": mass}, started)
    return f"lsd: {len(xs)} density points on [{lo:.4f}, {hi:.4f}], bulk mass ~ {mass:.4f}"


def run_moments(cfg: RunConfig, out: Path, started: str) -> str:
    mom = _moments(cfg, cfg.spectrum, cfg.y, cfg.ensemble)  # draws nothing, so never truncated
    c = mom.contour
    summary = {
        "mu": mom.mu, "sigma": mom.sigma, "case": mom.case,
        # the moments carry no fourth-cumulant term: they hold for entries
        # with the Gaussian fourth moment only
        "gaussian_matched": not mom.ensemble.violates_matching,
        "kernel_max_abs": mom.kernel_max_abs,
        # x_l and x_r are in z; with sqrt_map (f = log), v_0 and rho are the
        # ellipse's in w = sqrt(z)
        "contour": {"x_l": c.x_l, "x_r": c.x_r, "v_0": c.v_0, "nodes": c.m, "rho": c.rho,
                    "sqrt_map": c.sqrt_map},
        # accepted node count and the last error estimate, per integral
        "quadrature": {name: {"nodes": q.nodes, "error": q.error}
                       for name, q in mom.quadrature.items()},
    }
    _write_json(out / "moments_summary.json", cfg, summary, started)
    return (f"moments[{mom.case}] f={cfg.f.label}: mu={mom.mu:.6g} sigma={mom.sigma:.6g} "
            f"max|a|={mom.kernel_max_abs:.4f}")


def _moments(cfg: RunConfig, spectrum: PopulationSpectrum, y_n: float, law: EntryEnsemble):
    return compute_moments(cfg.f, spectrum, y_n, law, eps=cfg.eps)


def run_simulate(cfg: RunConfig, out: Path, started: str) -> str:
    # the replicates draw T_p, so the moments and the centering are those of H_p
    law, h_p = _law(cfg, cfg.n), realized_spectrum(cfg.spectrum, cfg.p)
    _check_budget(cfg, [(law, h_p, cfg.p, cfg.n)])
    mom = _moments(cfg, h_p, cfg.p / cfg.n, law)
    record = run_experiment(mom, cfg.p, cfg.n, cfg.replicates, cfg.root_seed)
    rows = [(r.index, r.seed, _fmt(r.value), _fmt(r.lam_min), _fmt(r.lam_max))
            for r in record.rows]
    _write_csv(out / "simulate_detail.csv",
               ["index", "seed", "value", "lambda_min", "lambda_max"], rows)
    summary = {
        "mu": mom.mu, "sigma": mom.sigma, "case": mom.case,
        "gaussian_matched": not mom.ensemble.violates_matching,
        "ks": record.ks, "mean": record.mean, "variance": record.variance,
        "replicates": cfg.replicates,
        "confinement_violations": record.confinement_violations,
        "sampler": record.sampler,
        "statistic": record.statistic,
    }
    _write_json(out / "simulate_summary.json", cfg, summary, started)
    return (f"simulate p={cfg.p} n={cfg.n} x{cfg.replicates}: ks={record.ks:.4f} "
            f"mean={record.mean:.4f} var={record.variance:.4f}")


def run_ks_rate(cfg: RunConfig, out: Path, started: str) -> str:
    runs = [(_law(cfg, n), realized_spectrum(cfg.spectrum, p), p, n)
            for p, n in ((int(round(cfg.y * n)), n) for n in cfg.n_grid)]
    _check_budget(cfg, runs)
    rows = []
    points = []
    moments = {}  # by (H_p, y_n, law): p = round(y n) often gives the same ones at every n
    for i, (law, h_p, p, n) in enumerate(runs):
        key = (h_p, p / n, law)
        if key not in moments:
            moments[key] = _moments(cfg, *key)
        seed_n = replicate_seed(cfg.root_seed, i)
        record = run_experiment(moments[key], p, n, cfg.replicates, seed_n)
        rows.append((n, _fmt(record.ks), cfg.replicates, seed_n))
        points.append((n, record.ks))
    fit = fit_rate(points, seed=cfg.root_seed)
    _write_csv(out / "ks_rate_detail.csv", ["n", "ks", "replicates", "seed"], rows)
    summary = {
        "points": [{"n": n, "ks": ks} for n, ks in points],
        "exponent": fit.exponent, "intercept": fit.intercept,
        "exponent_ci_90": list(fit.exponent_ci),
        "gaussian_matched": not any(law.violates_matching for law, *_ in runs),
        # the same for every n: one f, and the laws of all n truncated or none
        "sampler": record.sampler, "statistic": record.statistic,
    }
    _write_json(out / "ks_rate_summary.json", cfg, summary, started)
    return (f"ks-rate over n={list(cfg.n_grid)}: exponent={fit.exponent:.3f} "
            f"ci90=[{fit.exponent_ci[0]:.3f}, {fit.exponent_ci[1]:.3f}]")


def run_stein_check(cfg: RunConfig, out: Path, started: str) -> str:
    rng = np.random.Generator(np.random.PCG64(cfg.root_seed))
    rows = []
    worst_resid = 0.0
    total_violations = 0
    for i in range(cfg.contexts):
        ctx = SteinContext(w0=float(rng.uniform(-3.0, 3.0)),
                           theta=float(rng.uniform(0.02, 1.0)))
        rep = stein_bound_report(ctx, n_grid=cfg.grid_points)
        worst_resid = max(worst_resid, rep.max_residual)
        total_violations += rep.violations
        rows.append((i, _fmt(ctx.w0), _fmt(ctx.theta), _fmt(rep.min_g), _fmt(rep.max_g),
                     _fmt(rep.max_abs_gprime), _fmt(rep.max_gprime_spread),
                     _fmt(rep.max_residual), rep.violations,
                     "pass" if rep.violations == 0 else "fail"))
    _write_csv(out / "stein_check_detail.csv",
               ["context", "w0", "theta", "min_g", "max_g", "max_abs_gprime",
                "max_gprime_spread", "max_residual", "violations", "status"], rows)
    summary = {"contexts": cfg.contexts, "grid_points": cfg.grid_points,
               "max_residual": worst_resid, "total_violations": total_violations}
    _write_json(out / "stein_check_summary.json", cfg, summary, started)
    status = "pass" if total_violations == 0 else f"FAIL ({total_violations} violations)"
    return f"stein-check {cfg.contexts} contexts: {status}, max residual {worst_resid:.2e}"


def run_probe_qform(cfg: RunConfig, out: Path, started: str) -> str:
    res = qform_probe(cfg.spectrum, cfg.matrix_kind, list(cfg.n_grid), cfg.y,
                      cfg.k, cfg.replicates, cfg.root_seed)
    _write_csv(out / "probe_qform_detail.csv", ["n", "moment"],
               [(n, _fmt(m)) for n, m in res.points])
    summary = {"k": cfg.k, "matrix_kind": cfg.matrix_kind, "slope": res.slope,
               "expected_slope": -cfg.k / 2,
               "points": [{"n": n, "moment": m} for n, m in res.points]}
    _write_json(out / "probe_qform_summary.json", cfg, summary, started)
    return f"probe-qform k={cfg.k} [{cfg.matrix_kind}]: slope={res.slope:.3f} (expect {-cfg.k/2})"


_RUNNERS = {
    "lsd": run_lsd,
    "moments": run_moments,
    "simulate": run_simulate,
    "ks-rate": run_ks_rate,
    "stein-check": run_stein_check,
    "probe-qform": run_probe_qform,
}


def run(cfg: RunConfig, flag_out: str | None = None) -> str:
    out = _out_dir(cfg, flag_out)
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return _RUNNERS[cfg.kind](cfg, out, started)


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsslab",
        description="Deterministic CLT ingredients and Monte-Carlo checks for "
                    "eigenvalue statistics of sample covariance matrices",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None, help="override root_seed")
        sp.add_argument("--out", type=str, default=None,
                        help=f"output directory (default: config, then ${ENV_OUT}, then cwd)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(raw, dict):
                raise LabError("config must be a JSON object")
        else:
            raw = {}
        raw.setdefault("kind", args.kind)
        if raw["kind"] != args.kind:
            raise LabError(f"config kind {raw['kind']!r} does not match subcommand {args.kind!r}")
        if args.seed is not None:
            raw["root_seed"] = args.seed
        cfg = parse_config(json.dumps(raw))
        print(run(cfg, flag_out=args.out))
        return 0
    except (LabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
