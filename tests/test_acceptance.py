"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  The Monte-Carlo criteria (7, 8, 9, 11, 12) run at their
specified replicate counts and take minutes; everything else is seconds.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import BATTERY, mp_quadratic_root, random_offbulk_points
from lsslab.clt_moments import (CompanionTransform, compute_moments, kernel_from_s,
                                mean_correction, variance_with_kernel)
from lsslab.contour import Contour, build_contour
from lsslab.diagnostics import (SteinContext, fit_rate, qform_probe,
                                sigma0_nested_mc, stein_Nh, stein_bound_report,
                                stein_h, stein_residual)
from lsslab.simulator import run_experiment
from lsslab.spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction, support_interval
from lsslab.stieltjes import s_under_grid, solve_s_under

IDENTITY = PopulationSpectrum.identity()
RG = EntryEnsemble.real_gaussian()
CG = EntryEnsemble.complex_gaussian()
F_X = TestFunction.monomial(1)
F_X2 = TestFunction.monomial(2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_stieltjes_vs_mp_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for y in (0.1, 0.5, 1.0, 2.0):
        zs = random_offbulk_points(IDENTITY, y, 100, seed=int(1000 * y))
        for z in zs:
            got = solve_s_under(complex(z), IDENTITY, y).s_under
            worst = max(worst, abs(got - mp_quadratic_root(complex(z), y)))
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-10 and dt < 1.0,
           f"max |solver - quadratic root| = {worst:.2e} over 4x100 points in {dt:.2f}s")


def test_c02_residual_and_herglotz_battery():
    t0 = time.perf_counter()
    worst_res = 0.0
    checked = 0
    for name, sp in BATTERY.items():
        zs = random_offbulk_points(sp, 0.5, 200, seed=abs(hash(name)) % 2**32)
        for z in zs:
            sol = solve_s_under(complex(z), sp, 0.5)  # raises on branch violation
            worst_res = max(worst_res, sol.residual)
            assert sol.s_under.imag * complex(z).imag > 0
            checked += 1
    dt = time.perf_counter() - t0
    report(2, worst_res <= 1e-12 and dt < 5.0,
           f"residual <= {worst_res:.2e}, Herglotz sign on {checked} points "
           f"across {len(BATTERY)} spectra in {dt:.2f}s")


def test_c03_contour_engine():
    from lsslab.contour import integrate as cintegrate

    t0 = time.perf_counter()
    c = build_contour(IDENTITY, 0.25, eps=0.05, m=64)
    inside, outside = 1.2 + 0.3j, 4.0 + 0.5j
    e1 = abs(cintegrate(lambda z: np.ones_like(z), c))
    e2 = abs(cintegrate(lambda z: 1.0 / (z - inside), c) - 2j * np.pi)
    e3 = abs(cintegrate(lambda z: 1.0 / (z - outside), c))
    dt = time.perf_counter() - t0
    ok = e1 <= 1e-10 and e2 <= 1e-10 * (1 + 2 * np.pi) and e3 <= 1e-10 and dt < 1.0
    report(3, ok, f"closed-path 1: {e1:.1e}, interior pole: {e2:.1e}, "
                  f"exterior pole: {e3:.1e} in {dt:.2f}s")


def test_c04_moment_oracles():
    t0 = time.perf_counter()
    y = 0.5
    s = CompanionTransform(IDENTITY, y, build_contour(IDENTITY, y))
    mu_const = mean_correction(TestFunction.polynomial([1.0]), s)
    mu_lin = mean_correction(F_X, s)
    # direct derivation: Var(tr B) = Var((1/n) sum x_ia^2) = 2p/n for T = I
    sigma_lin = variance_with_kernel(F_X, s)[0]
    # moment counting for real Gaussian entries, T = I:
    #   E tr B^2 = p(n+p+1)/n,  p * second moment of the limit law = p(1+y)
    p_ref, n_ref = 500, 1000
    mu2_oracle = p_ref * (n_ref + p_ref + 1) / n_ref - p_ref * (1 + p_ref / n_ref)
    mu_sq = mean_correction(F_X2, s)
    dt = time.perf_counter() - t0
    ok = (abs(mu_const) <= 1e-8 and abs(mu_lin) <= 1e-8
          and abs(sigma_lin - 2 * y) <= 1e-6 * 2 * y
          and abs(mu_sq - mu2_oracle) <= 1e-6 * abs(mu2_oracle)
          and dt < 10.0)
    report(4, ok, f"mu(1)={mu_const:.1e}, mu(x)={mu_lin:.1e}, "
                  f"sigma(x)={sigma_lin:.12f} (oracle {2 * y}), "
                  f"mu(x^2)={mu_sq:.12f} (oracle {mu2_oracle}) in {dt:.2f}s")


def test_c05_contour_invariance():
    t0 = time.perf_counter()
    y = 0.5
    lo, hi = support_interval(IDENTITY, y)
    # confocal ellipses through hi + 0.05 and hi + 0.2, and the ellipse inscribed
    # in [lo - 0.1, hi + 0.1] x [-0.5, 0.5], which is not confocal
    contours = [build_contour(IDENTITY, y, eps=0.05), Contour(lo - 0.1, hi + 0.1, 0.5),
                build_contour(IDENTITY, y, eps=0.2)]
    transforms = [CompanionTransform(IDENTITY, y, c) for c in contours]
    mus = [mean_correction(F_X2, s) for s in transforms]
    sigmas = [variance_with_kernel(F_X2, s)[0] for s in transforms]
    dmu = max(abs(m - mus[0]) for m in mus[1:]) / max(1.0, abs(mus[0]))
    dsig = max(abs(s - sigmas[0]) for s in sigmas[1:]) / abs(sigmas[0])
    dt = time.perf_counter() - t0
    report(5, dmu < 1e-7 and dsig < 1e-7 and dt < 30.0,
           f"relative spread over three contours: mu {dmu:.2e}, sigma {dsig:.2e} "
           f"in {dt:.2f}s")


def test_c06_kernel_disk_bound():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(sp, 0.5) for sp in BATTERY.values()]
    cases += [(IDENTITY, 0.25), (IDENTITY, 1.0), (IDENTITY, 2.0)]
    for sp, y in cases:
        z, _ = build_contour(sp, y).nodes()
        s = s_under_grid(z, sp, y)
        a = kernel_from_s(s, s, sp, y)
        worst = max(worst, float(np.max(np.abs(a))))
    dt = time.perf_counter() - t0
    report(6, worst < 1.0 and dt < 30.0,
           f"max |a| = {worst:.6f} over {len(cases)} spectrum/ratio grids in {dt:.2f}s")


def test_c07_clt_normality_fixed_n():
    t0 = time.perf_counter()
    p, n = 256, 512
    mom = compute_moments(F_X2, IDENTITY, p / n, RG)
    rec = run_experiment(mom, p, n, 2000, 20_240_701)
    dt = time.perf_counter() - t0
    ok = abs(rec.mean) <= 0.08 and abs(rec.variance - 1.0) <= 0.12 and rec.ks <= 0.05
    report(7, ok and dt < 600,
           f"RG n=512 x2000: mean={rec.mean:+.4f}, var={rec.variance:.4f}, "
           f"ks={rec.ks:.4f} in {dt:.0f}s")


def test_c08_rate_reproduction():
    # Gaussian-matched ensembles are so close to normal for low-degree f
    # that the KS noise floor at 4000 replicates (~0.014) swallows the
    # decay on this n grid; x^11 at y = 1/4 keeps the pre-asymptotic
    # deviation well above the floor on all four sizes (~0.08 down to
    # ~0.02) while staying an analytic test function of a Gaussian-matched
    # real ensemble.
    t0 = time.perf_counter()
    f = TestFunction.polynomial([0.0] * 11 + [1.0])
    y = 0.25
    points = []
    for i, n in enumerate((128, 256, 512, 1024)):
        p = n // 4
        mom = compute_moments(f, IDENTITY, p / n, RG)
        rec = run_experiment(mom, p, n, 4000, 97 + i)
        points.append((n, rec.ks))
    fit = fit_rate(points, seed=7)
    dt = time.perf_counter() - t0
    lo, hi = fit.exponent_ci
    ok = hi < 0.0 and -0.9 <= fit.exponent <= -0.3
    report(8, ok and dt < 2400,
           f"ks={[(n, round(k, 4)) for n, k in points]}, exponent={fit.exponent:.3f}, "
           f"ci90=[{lo:.3f}, {hi:.3f}] in {dt:.0f}s")


def test_c09_cg_case_zero_mean():
    t0 = time.perf_counter()
    p, n = 256, 512
    mom = compute_moments(F_X2, IDENTITY, p / n, CG)
    rec = run_experiment(mom, p, n, 2000, 20_240_702)
    dt = time.perf_counter() - t0
    ok = abs(rec.mean) <= 0.08 and abs(rec.variance - 1.0) <= 0.12
    report(9, ok and dt < 600,
           f"CG n=512 x2000 (mu=0, sqrt(sigma/2) scale): mean={rec.mean:+.4f}, "
           f"var={rec.variance:.4f}, ks={rec.ks:.4f} in {dt:.0f}s")


def test_c10_stein_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    violations = 0
    worst_resid = 0.0
    worst_nh = 0.0
    for _ in range(20):
        ctx = SteinContext(w0=float(rng.uniform(-3, 3)),
                           theta=float(rng.uniform(0.02, 1.0)))
        rep = stein_bound_report(ctx, n_grid=10_000)
        violations += rep.violations
        worst_resid = max(worst_resid, rep.max_residual)
        oracle, _ = integrate.quad(
            lambda x: float(stein_h(ctx, x)) * stats.norm.pdf(x), -12, 12,
            epsabs=1e-13, epsrel=1e-13, limit=400,
            points=[ctx.w0, ctx.w0 + ctx.theta])
        worst_nh = max(worst_nh, abs(stein_Nh(ctx) - oracle))
    dt = time.perf_counter() - t0
    ok = violations == 0 and worst_resid <= 1e-6 and worst_nh <= 1e-10 and dt < 10.0
    report(10, ok, f"0 bound violations expected, got {violations}; "
                   f"max residual {worst_resid:.2e}; max |Nh - quad| {worst_nh:.2e} "
                   f"in {dt:.1f}s")


def test_c11_qform_probe_slopes():
    t0 = time.perf_counter()
    grid = [64, 128, 256, 512]
    r2 = qform_probe(IDENTITY, "fixed_psd", grid, 0.5, 2, replicates=100_000, seed=11)
    r4 = qform_probe(IDENTITY, "fixed_psd", grid, 0.5, 4, replicates=100_000, seed=12)
    dt = time.perf_counter() - t0
    ok = abs(r2.slope + 1.0) <= 0.1 and abs(r4.slope + 2.0) <= 0.2 and dt < 300
    report(11, ok, f"k=2 slope {r2.slope:.3f} (want -1 +- 0.1), "
                   f"k=4 slope {r4.slope:.3f} (want -2 +- 0.2) in {dt:.0f}s")


def test_c12_sigma0_consistency():
    t0 = time.perf_counter()
    y = 0.5
    mom = compute_moments(F_X, IDENTITY, y, RG)
    res = sigma0_nested_mc(F_X, IDENTITY, y, n_small=32, inner_reps=96,
                           outer_reps=96, seed=13)
    rel = abs(res.estimate - mom.sigma) / mom.sigma
    dt = time.perf_counter() - t0
    report(12, rel <= 0.15 and dt < 600,
           f"nested-MC sigma0 = {res.estimate:.4f} +- {res.stderr:.4f} vs "
           f"sigma = {mom.sigma:.4f} (rel gap {rel:.3f}) in {dt:.0f}s")


def test_c13_determinism(tmp_path):
    import json

    from lsslab.cli import main

    t0 = time.perf_counter()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "kind": "simulate", "p": 16, "n": 32, "replicates": 10, "f": "x^2",
        "root_seed": 4242}))
    main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "r1")])
    main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "r2")])
    b1 = (tmp_path / "r1" / "simulate_detail.csv").read_bytes()
    b2 = (tmp_path / "r2" / "simulate_detail.csv").read_bytes()
    dt = time.perf_counter() - t0
    report(13, b1 == b2, f"CSV bodies byte-identical across reruns "
                         f"({len(b1)} bytes) in {dt:.1f}s")
