"""Config fuzz: every documented input works, or fails before any work.

A seeded generator draws configs over the README's config block, at sizes
up to 48, and runs each through ``cli.main``.  Each must exit 0 with finite
numbers in its JSON summary and CSV detail, or exit 1 with a ``LabError``
raised before the first companion-transform solve, entry draw or
eigensolve of the run.  The cost probe of ``simulate`` and ``ks-rate``
draws one replicate from a fixed seed by design; its draws are not the
run's and are not counted.
"""

import csv
import json
import math

import numpy as np
import pytest

from lsslab import cli, clt_moments, simulator
from lsslab.cli import main

KINDS = ["lsd", "moments", "simulate", "ks-rate", "stein-check", "probe-qform"]
CONFIGS = 300
MAX_SIZE = 48


def _spectrum(rng):
    if rng.random() < 0.3:
        return "identity", False
    k = int(rng.integers(1, 6))
    large = rng.random() < 0.15
    atoms = rng.uniform(0.0, 4.0 if large else 1.0, k)
    atoms[rng.random(k) < 0.15] = 0.0
    weights = rng.dirichlet(np.ones(k))
    weights[-1] = 1.0 - math.fsum(weights[:-1])
    return ([{"atom": float(t), "weight": float(w)} for t, w in zip(atoms, weights)],
            bool(large))


def _f(rng):
    if rng.random() < 0.25:
        return "log"
    coeffs = [float(round(c, 3)) for c in rng.standard_normal(int(rng.integers(1, 13)))]
    if rng.random() < 0.5:
        return {"poly": coeffs}
    return "+".join(f"{c}*x^{i}" for i, c in enumerate(coeffs))


def _ensemble(rng):
    pick = int(rng.integers(4))
    if pick == 2:
        return {"name": "rademacher"}
    if pick == 3:
        return {"name": "student_t", "df": float(round(rng.uniform(3.5, 30.0), 2))}
    return ["RG", "CG"][pick]


def draw_config(rng) -> dict:
    kind = KINDS[int(rng.integers(len(KINDS)))]
    spectrum, large = _spectrum(rng)
    doc = {"kind": kind, "spectrum": spectrum, "spectrum_allow_large": large,
           "ensemble": _ensemble(rng), "f": _f(rng),
           "replicates": int(rng.integers(1, 25)),
           "root_seed": int(rng.integers(0, 2**63)),
           "grid_points": int(rng.integers(2, 60)),
           "contexts": int(rng.integers(1, 4)),
           "k": [2, 4][int(rng.integers(2))],
           "matrix_kind": ["fixed_psd", "resolvent"][int(rng.integers(2))]}
    if kind == "simulate" or rng.random() < 0.2:
        doc["n"] = int(rng.integers(1, MAX_SIZE + 1))
        doc["p"] = int(rng.integers(1, MAX_SIZE + 1))
    else:
        doc["y"] = float(round(math.exp(rng.uniform(math.log(0.05), math.log(3.0))), 4))
    if kind in ("ks-rate", "probe-qform") or rng.random() < 0.1:
        sizes = rng.choice(np.arange(2, MAX_SIZE + 1), int(rng.integers(1, 5)), replace=False)
        doc["n_grid"] = sorted(int(v) for v in sizes)
    if rng.random() < 0.6:
        # log-uniform from 1e-6, so that the flat-contour check is exercised
        doc["contour"] = {"eps": float(math.exp(rng.uniform(math.log(1e-6), math.log(5.0))))}
    if rng.random() < 0.3:
        eta = None if rng.random() < 0.5 else float(round(rng.uniform(0.05, 3.0), 3))
        doc["truncation"] = {"mode": "on" if rng.random() < 0.9 else "off", "eta": eta}
    if rng.random() < 0.05:
        doc["cost_cap_seconds"] = 1e-9
    return doc


def _finite_json(path):
    def reject(token):
        raise AssertionError(f"{path.name} holds {token}")

    json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _finite_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        for row in list(csv.reader(fh))[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # stein-check's status column
                assert math.isfinite(value), f"{path.name} holds {cell}"


@pytest.fixture
def work_counter(monkeypatch):
    """Counts the run's transform solves, draws and eigensolves, outside the cost probe."""
    # leggauss solves an eigenproblem when the truncated-moment rule's cache is
    # first filled; filled here, that solve is never booked to a run
    simulator._gauss_legendre()
    events = []
    probing = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not probing:
                events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def probe(*args, **kwargs):
        probing.append(True)
        try:
            return check_budget(*args, **kwargs)
        finally:
            probing.pop()

    check_budget = cli._check_budget
    monkeypatch.setattr(cli, "_check_budget", probe)
    monkeypatch.setattr(clt_moments, "s_under_grid",
                        counted("solve", clt_moments.s_under_grid))
    for name in ("draw_entries", "_laguerre_factor"):
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    for name in ("eigvals", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    # the probe's chi-square draws and the Stein sweep, whole
    for name in ("qform_probe", "stein_bound_report"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    return events


# late failures of a class still open, by exception name: the ROADMAP item that
# names each
OPEN = {
    "QuadratureStall": "ROADMAP item 11: a variance whose rounding floor lies above "
                       "RTOL stalls at 8192 nodes (a high-degree f on a contour far "
                       "from 0: a wide bulk or a large contour.eps)",
}


def test_config_fuzz(work_counter, tmp_path, capsys):
    rng = np.random.default_rng(20_260_101)
    late, passed, early = [], 0, {}
    for i in range(CONFIGS):
        doc = draw_config(rng)
        out = tmp_path / f"{i:03d}"
        out.mkdir()
        cfg = out / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        work_counter.clear()
        code = main([doc["kind"], "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            for path in out.glob("*_summary.json"):
                _finite_json(path)
            for path in out.glob("*_detail.csv"):
                _finite_csv(path)
            passed += 1
            continue
        assert code == 1 and err.startswith("error: "), (doc, err)
        name = err.split(":")[1].strip()
        if work_counter:
            late.append((name, doc))
        else:
            early[name] = early.get(name, 0) + 1
    assert [(name, doc) for name, doc in late if name not in OPEN] == []
    # the domain reaches both outcomes, the flat-contour check among the failures
    assert passed >= CONFIGS // 4 and early.get("FlatContour", 0) >= 5, (passed, early)
    if late:
        pytest.xfail("; ".join(f"{sum(name == n for n, _ in late)} late {name}: {OPEN[name]}"
                               for name in sorted({n for n, _ in late})))
