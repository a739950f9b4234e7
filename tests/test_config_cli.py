import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import BATTERY
from lsslab import cli
from lsslab import clt_moments as clt_moments_mod
from lsslab.cli import main, run
from lsslab.config import (RunConfig, parse_config, parse_test_function,
                           serialize_spectrum, serialize_test_function)
from lsslab.contour import build_contour
from lsslab.errors import ConstraintViolation, MissingRequired, TypeMismatch, UnknownKey
from lsslab.simulator import (realized_spectrum, replicate_seed, replicate_statistic,
                              run_experiment)
from lsslab.clt_moments import compute_moments
from lsslab.spectral_model import (EntryEnsemble, PopulationSpectrum, TestFunction,
                                   support_interval)
from lsslab.stieltjes import lsd_density

IDENTITY = PopulationSpectrum.identity()
FIVE_ATOM = [{"atom": t, "weight": w} for t, w in BATTERY["five_atom"].atoms]
TWO_ATOM = [{"atom": t, "weight": w} for t, w in BATTERY["two_atom"].atoms]


class TestParseTestFunction:
    @pytest.mark.parametrize("text,coeffs", [
        ("x", (0.0, 1.0)),
        ("x^2", (0.0, 0.0, 1.0)),
        ("x^3+x", (0.0, 1.0, 0.0, 1.0)),
        ("2*x^2", (0.0, 0.0, 2.0)),
        ("1", (1.0,)),
        ("-x+0.5", (0.5, -1.0)),
        ("3x^2-2x", (0.0, -2.0, 3.0)),
    ])
    def test_strings(self, text, coeffs):
        f = parse_test_function(text)
        assert f.kind == "poly" and f.coeffs == coeffs

    def test_log(self):
        assert parse_test_function("log").kind == "log"

    def test_poly_object(self):
        f = parse_test_function({"poly": [1, 0, 2]})
        assert f.coeffs == (1.0, 0.0, 2.0)

    def test_garbage_rejected(self):
        with pytest.raises(ConstraintViolation):
            parse_test_function("x**2")

    def test_serialize_round_trip(self):
        for text in ("x", "x^2", "log", "x^3+x"):
            f = parse_test_function(text)
            assert parse_test_function(serialize_test_function(f)) == f


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(json.dumps({
            "kind": "moments", "spectrum": "identity", "y": 0.5,
            "f": "x^2"}))
        assert cfg.replicates == 200
        assert cfg.eps is None
        assert cfg.root_seed == 12345
        assert cfg.truncation_mode == "off"

    def test_missing_kind(self):
        with pytest.raises(MissingRequired):
            parse_config("{}")

    def test_unknown_key_with_name(self):
        with pytest.raises(UnknownKey, match="bogus"):
            parse_config(json.dumps({"kind": "moments", "bogus": 1}))

    def test_threads_key_rejected(self):
        with pytest.raises(UnknownKey, match="threads"):
            parse_config(json.dumps({"kind": "simulate", "p": 8, "n": 16, "threads": 1}))

    def test_nested_unknown_key(self):
        with pytest.raises(UnknownKey, match="fancy"):
            parse_config(json.dumps({"kind": "moments", "contour": {"fancy": 2}}))

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatch, match="replicates"):
            parse_config(json.dumps({"kind": "simulate", "p": 4, "n": 8,
                                     "replicates": "many"}))

    def test_decreasing_n_grid_rejected(self):
        with pytest.raises(ConstraintViolation, match="increasing"):
            parse_config(json.dumps({"kind": "ks-rate", "n_grid": [256, 128]}))

    @pytest.mark.parametrize("kind", ["ks-rate", "probe-qform"])
    def test_n_grid_with_empty_dimension_rejected(self, kind):
        # p = round(0.001 n) is 0 at every n of the grid
        with pytest.raises(ConstraintViolation, match=r"n=\[64, 128, 256\]"):
            parse_config(json.dumps({"kind": kind, "y": 0.001, "n_grid": [64, 128, 256]}))
        with pytest.raises(ConstraintViolation, match=r"n=\[32\]"):
            parse_config(json.dumps({"kind": kind, "y": 0.01, "n_grid": [32, 64]}))

    @pytest.mark.parametrize("kind, least", [("ks-rate", 3), ("probe-qform", 2)])
    def test_n_grid_too_short_rejected(self, kind, least):
        # the rate fit needs 3 sizes and the slope 2; a shorter ks-rate grid
        # used to run every replicate and then fail, a one-size probe to fit
        # a "slope" through one point
        with pytest.raises(ConstraintViolation, match=f"at least {least} sizes, got {least - 1}"):
            parse_config(json.dumps({"kind": kind, "n_grid": [16, 32, 64][:least - 1]}))
        parse_config(json.dumps({"kind": kind, "n_grid": [16, 32, 64][:least]}))

    @pytest.mark.parametrize("kind, extra", [("simulate", {"p": 8, "n": 16}),
                                             ("ks-rate", {"n_grid": [16, 24, 32]})],
                             ids=["simulate", "ks-rate"])
    @pytest.mark.parametrize("f", ["3", {"poly": [2.0, 0.0, 0.0]}], ids=["string", "poly"])
    def test_constant_f_rejected_for_runs(self, kind, extra, f):
        # a constant statistic has variance 0, so no replicate can be normalized
        with pytest.raises(ConstraintViolation, match="nonconstant f"):
            parse_config(json.dumps({"kind": kind, "f": f, **extra}))
        parse_config(json.dumps({"kind": "moments", "f": f}))

    @pytest.mark.parametrize("truncation", [{"eta": 0.5}, {"mode": "off", "eta": 0.5}],
                             ids=["default-mode", "mode-off"])
    def test_eta_without_truncation_rejected(self, truncation):
        # the untruncated sampler would run and the resolved config keep the eta
        with pytest.raises(ConstraintViolation, match="truncation.eta is set"):
            parse_config(json.dumps({"kind": "simulate", "p": 8, "n": 16,
                                     "truncation": truncation}))

    def test_student_t_df_at_most_four_rejected(self):
        with pytest.raises(ConstraintViolation, match="ensemble.df"):
            parse_config(json.dumps({"kind": "moments",
                                     "ensemble": {"name": "student_t", "df": 3}}))

    @pytest.mark.parametrize("raw, law, form", [
        ("RG", EntryEnsemble.real_gaussian(), "RG"),
        ("CG", EntryEnsemble.complex_gaussian(), "CG"),
        ({"name": "rademacher"}, EntryEnsemble.rademacher(), {"name": "rademacher"}),
        ({"name": "student_t", "df": 11}, EntryEnsemble.student_t(11.0),
         {"name": "student_t", "df": 11.0}),
        ({"name": "student_t"}, EntryEnsemble.student_t(11.0),
         {"name": "student_t", "df": 11.0}),
        ({"name": "student_t", "df": 4.25}, EntryEnsemble.student_t(4.25),
         {"name": "student_t", "df": 4.25}),
    ], ids=["RG", "CG", "rademacher", "t11", "t-default", "t4.25"])
    def test_each_law_round_trips_through_its_config_form(self, raw, law, form):
        # the config form names the law; df is written as a float
        cfg = parse_config(json.dumps({"kind": "moments", "ensemble": raw}))
        assert cfg.ensemble == law
        assert json.dumps(cfg.to_dict()["ensemble"]) == json.dumps(form)
        assert parse_config(json.dumps(cfg.to_dict())).ensemble == law

    def test_memory_budget_checked_by_the_parser(self):
        # p*n above 2^26 fails at parse time, before anything is allocated
        with pytest.raises(ConstraintViolation, match="memory budget"):
            parse_config(json.dumps({"kind": "simulate", "p": 8192, "n": 8193}))
        parse_config(json.dumps({"kind": "simulate", "p": 8192, "n": 8192}))
        with pytest.raises(ConstraintViolation, match=r"memory budget .* \[\(8193, 8193\)\]"):
            parse_config(json.dumps({"kind": "ks-rate", "y": 1.0, "n_grid": [32, 64, 8193]}))
        parse_config(json.dumps({"kind": "ks-rate", "y": 1.0, "n_grid": [32, 64, 8192]}))

    @pytest.mark.parametrize("doc, over", [
        # resolvent probe blocks of p x min(replicates, 20000): p = 4096 at n = 8192
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 0.5, "n_grid": [64, 8192],
          "replicates": 16384}, False),
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 0.5, "n_grid": [64, 8192],
          "replicates": 16385}, True),
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 0.5,
          "n_grid": [8192, 16384], "replicates": 20000}, True),
        # the fixed_psd probe draws no block of entries
        ({"kind": "probe-qform", "y": 0.5, "n_grid": [8192, 16384], "replicates": 20000},
         False),
        # B's p x n draw: p = n at y = 1
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 1.0, "n_grid": [64, 8192],
          "replicates": 2}, False),
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 1.0, "n_grid": [64, 8193],
          "replicates": 2}, True),
        # p > n: a dense replicate's p x p Gram matrix, the bidiagonal model's p x n bound
        ({"kind": "simulate", "p": 1 << 14, "n": 1 << 12, "spectrum": TWO_ATOM}, True),
        ({"kind": "simulate", "p": 1 << 14, "n": 1 << 12}, False),
        ({"kind": "simulate", "p": 1 << 14, "n": 1 << 12, "truncation": {"mode": "on"}}, True),
        ({"kind": "ks-rate", "y": 4.0, "n_grid": [8, 16, 2048], "spectrum": TWO_ATOM}, False),
        ({"kind": "ks-rate", "y": 4.0, "n_grid": [8, 16, 2049], "spectrum": TWO_ATOM}, True),
        # the resolvent probe's p x p inverse: p = 8192 at y = 64, n = 128
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 64.0, "n_grid": [2, 128],
          "replicates": 2}, False),
        ({"kind": "probe-qform", "matrix_kind": "resolvent", "y": 64.0, "n_grid": [2, 129],
          "replicates": 2}, True),
        # lsd's arrowhead stack of grid_points (K + 1) x (K + 1) matrices
        ({"kind": "lsd", "grid_points": 1 << 24}, False),
        ({"kind": "lsd", "grid_points": (1 << 24) + 1}, True),
        ({"kind": "lsd", "grid_points": 1864135, "spectrum": FIVE_ATOM}, False),
        ({"kind": "lsd", "grid_points": 1864136, "spectrum": FIVE_ATOM}, True),
        ({"kind": "lsd", "grid_points": 1 << 24,  # a zero atom adds no row
          "spectrum": [{"atom": 0.0, "weight": 0.5}, {"atom": 1.0, "weight": 0.5}]}, False),
        ({"kind": "lsd", "grid_points": 1 << 40}, True),
        # the stein sweep's grid
        ({"kind": "stein-check", "grid_points": 1 << 26}, False),
        ({"kind": "stein-check", "grid_points": (1 << 26) + 1}, True),
        ({"kind": "stein-check", "grid_points": 1 << 40}, True),
    ])
    def test_memory_budget_of_every_kind(self, doc, over):
        # parsed only: a config under the budget would still allocate gigabytes
        if over:
            with pytest.raises(ConstraintViolation, match="memory budget 67108864"):
                parse_config(json.dumps(doc))
        else:
            parse_config(json.dumps(doc))

    def test_contour_v0_key_rejected(self, tmp_path, capsys):
        # eps alone sets the contour; the half-height cap v0 is gone
        with pytest.raises(UnknownKey, match="v0"):
            parse_config(json.dumps({"kind": "moments", "contour": {"eps": 0.1, "v0": 1.0}}))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments", "contour": {"v0": 1.0}}))
        assert main(["moments", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "UnknownKey" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_spectrum_allow_large_key_rejected(self, tmp_path, capsys):
        # there is no norm cap to lift: atoms above 1 need no flag
        with pytest.raises(UnknownKey, match="spectrum_allow_large"):
            parse_config(json.dumps({"kind": "moments", "spectrum_allow_large": True}))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments", "spectrum_allow_large": False}))
        assert main(["moments", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "UnknownKey" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_simulate_needs_dims(self):
        with pytest.raises(MissingRequired):
            parse_config(json.dumps({"kind": "simulate"}))

    def test_y_consistency_with_dims(self):
        with pytest.raises(ConstraintViolation, match="inconsistent"):
            parse_config(json.dumps({"kind": "simulate", "p": 4, "n": 8, "y": 0.7}))

    @pytest.mark.parametrize("text", [
        '{"kind": "moments", "contour": {"eps": NaN}}',
        '{"kind": "moments", "y": NaN}',
        '{"kind": "moments", "y": Infinity}',
        '{"kind": "moments", "y": 1e999}',
        '{"kind": "moments", "spectrum": [{"atom": NaN, "weight": 1.0}]}',
        '{"kind": "moments", "spectrum": [{"atom": Infinity, "weight": 1.0}]}',
        '{"kind": "moments", "spectrum": [{"atom": 1.0, "weight": NaN}]}',
        '{"kind": "simulate", "p": 8, "n": 16, "truncation": {"mode": "on", "eta": NaN}}',
        '{"kind": "simulate", "p": 8, "n": 16, "ensemble": {"name": "student_t", "df": NaN}}',
        '{"kind": "simulate", "p": 8, "n": 16, "cost_cap_seconds": NaN}',
        '{"kind": "moments", "f": {"poly": [0, -Infinity]}}',
        '{"kind": "moments", "f": "1e999*x^2"}',
        '{"kind": "moments", "y": 1%s}' % ("0" * 400),
        '{"kind": "simulate", "p": 8, "n": 16, "cost_cap_seconds": 1%s}' % ("0" * 400),
    ], ids=lambda text: text[:90])
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(TypeMismatch, match="not finite"):
            parse_config(text)

    def test_y_type_checked_with_dims(self):
        with pytest.raises(TypeMismatch, match="^y: "):
            parse_config(json.dumps({"kind": "simulate", "p": 8, "n": 16, "y": "abc"}))

    def test_contour_nodes_key_rejected(self):
        # the node-doubling ladder starts at 64 and measures its own error
        with pytest.raises(UnknownKey, match="nodes"):
            parse_config(json.dumps({"kind": "moments", "contour": {"nodes": 64}}))

    def test_spectrum_pairs(self):
        cfg = parse_config(json.dumps({
            "kind": "moments",
            "spectrum": [{"atom": 0.4, "weight": 0.5}, {"atom": 1.0, "weight": 0.5}]}))
        assert cfg.spectrum.atoms == ((0.4, 0.5), (1.0, 0.5))

    def test_round_trip_100_random_configs(self):
        rng = np.random.default_rng(0)
        kinds = ["lsd", "moments", "simulate", "ks-rate", "stein-check", "probe-qform"]
        for i in range(100):
            kind = kinds[int(rng.integers(len(kinds)))]
            doc = {"kind": kind,
                   "replicates": int(rng.integers(1, 500)),
                   "root_seed": int(rng.integers(0, 2**63)),
                   "f": {"poly": [float(round(c, 6)) for c in rng.standard_normal(
                       int(rng.integers(1, 5)))]},
                   "contour": {"eps": float(round(rng.uniform(0.01, 0.3), 6))}}
            if rng.random() < 0.5:
                w = float(round(rng.uniform(0.2, 0.8), 6))
                doc["spectrum"] = [{"atom": 0.5, "weight": w},
                                   {"atom": 1.0, "weight": round(1.0 - w, 6)}]
            if kind == "simulate":
                doc["n"] = int(rng.integers(4, 64)) * 2
                doc["p"] = doc["n"] // 2
            if kind in ("ks-rate", "probe-qform"):
                doc["n_grid"] = [64, 128, 256]
            if kind in ("simulate", "ks-rate") and len(doc["f"]["poly"]) == 1:
                doc["f"]["poly"].append(1.0)  # a run needs a nonconstant f
            cfg1 = parse_config(json.dumps(doc))
            cfg2 = parse_config(json.dumps(cfg1.to_dict()))
            assert cfg1 == cfg2, f"round trip failed for config {i}"


class TestCliRuns:
    def test_moments_writes_summary(self, tmp_path):
        rc = main(["moments", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "moments_summary.json").read_text())
        assert doc["version"]
        assert doc["config"]["kind"] == "moments"
        assert doc["summary"]["mu"] == pytest.approx(0.5, abs=1e-8)
        assert doc["summary"]["sigma"] == pytest.approx(10.0, rel=1e-8)

    def test_simulate_deterministic_csv(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": "simulate", "p": 8, "n": 16, "replicates": 6, "f": "x",
            "root_seed": 99}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out2)]) == 0
        body1 = (out1 / "simulate_detail.csv").read_bytes()
        body2 = (out2 / "simulate_detail.csv").read_bytes()
        assert body1 == body2
        text = body1.decode()
        assert text.splitlines()[0] == "index,seed,value,lambda_min,lambda_max"
        assert "\r" not in text

    def test_simulate_centers_on_configured_contour(self, tmp_path, monkeypatch):
        # the configured eps = 0.03 (in place of log's default radius) sets
        # the contour, and the centering runs on it
        import lsslab.simulator as sim_mod

        seen = []
        original = sim_mod.lss_centering

        def spy(*args, **kwargs):
            seen.append((args[2].contour, original(*args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(sim_mod, "lss_centering", spy)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": "simulate", "p": 256, "n": 512, "replicates": 2, "f": "log",
            "contour": {"eps": 0.03}}))
        assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        # p ((y - 1)/y log(1 - y) - 1), the MP log centering at y = 1/2
        y = 0.5
        expected = 256 * ((y - 1.0) / y * np.log(1.0 - y) - 1.0)
        [(contour, centering)] = seen
        assert centering == pytest.approx(expected, rel=1e-9)
        assert contour.x_r == pytest.approx(support_interval(IDENTITY, y)[1] + 0.03)

    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    @pytest.mark.parametrize("y", [0.25, 0.5, 0.9, 0.98, 0.99])
    def test_log_moments_match_closed_forms(self, y, name, tmp_path, monkeypatch):
        # Bai & Silverstein (2004): mu(log) = log(1 - y)/2, sigma(log) = -2 log(1 - y)
        # for every T, since sum log lambda(B) = log det T + sum log lambda(XX*/n);
        # so the centering is p ((y - 1)/y log(1 - y) - 1 + sum_k w_k log t_k),
        # with the weights of the drawn T_p (five-atom: p w_k = 39.2 at y = 0.98)
        import lsslab.simulator as sim_mod

        sp = BATTERY[name]
        n = 200
        p = round(y * n)
        mu, sigma = np.log(1.0 - y) / 2.0, -2.0 * np.log(1.0 - y)
        h_p = realized_spectrum(sp, p)
        centering = p * ((y - 1.0) / y * np.log(1.0 - y) - 1.0
                         + h_p.weights @ np.log(h_p.eigenvalues))
        seen = []
        original = sim_mod.lss_centering

        def spy(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(sim_mod, "lss_centering", spy)
        spectrum = [{"atom": t, "weight": w} for t, w in sp.atoms]
        runs = {"moments": {"y": y}, "simulate": {"p": p, "n": n, "replicates": 3}}
        for kind, extra in runs.items():
            cfgfile = tmp_path / f"{kind}.json"
            cfgfile.write_text(json.dumps({"kind": kind, "f": "log", "spectrum": spectrum,
                                           **extra}))
            assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / f"{kind}_summary.json").read_text())["summary"]
            assert abs(doc["mu"] - mu) <= 1e-12
            assert abs(doc["sigma"] - sigma) <= 1e-12
        [got] = seen
        assert got == pytest.approx(centering, rel=1e-12)
        # the summary says its v_0 and rho belong to the ellipse in w = sqrt(z)
        doc = json.loads((tmp_path / "moments_summary.json").read_text())["summary"]
        assert doc["contour"]["sqrt_map"] is True

    @pytest.mark.parametrize("extra", [
        {"kind": "moments", "y": 1.5},
        {"kind": "simulate", "p": 48, "n": 16},
        {"kind": "ks-rate", "y": 0.5, "n_grid": [16, 32, 64]},
        {"kind": "moments", "y": 0.5, "f": "log"},
    ], ids=["moments", "simulate", "ks_rate", "moments_log"])
    def test_flat_contour_fails_before_any_work(self, extra, tmp_path, monkeypatch, capsys):
        # contour.eps = 1e-5 gives rho from 1.0023 (y = 3) to 1.0038 (y = 0.5),
        # where the ladder stalled at 8192 nodes after a second or so of solving
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(clt_moments_mod, "s_under_grid",
                            counting("solve", clt_moments_mod.s_under_grid))
        monkeypatch.setattr(cli, "replicate_statistic",
                            counting("draw", cli.replicate_statistic))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"replicates": 2, "contour": {"eps": 1e-5}, **extra}))
        assert main([extra["kind"], "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "FlatContour" in err and "take contour.eps >= " in err
        assert calls == []
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("kind", ["moments", "simulate"])
    def test_log_above_one_fails_before_any_solve(self, kind, tmp_path, monkeypatch, capsys):
        import lsslab.stieltjes as stieltjes_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("the transform was solved")

        monkeypatch.setattr(stieltjes_mod, "s_under_grid", no_solve)
        monkeypatch.setattr(clt_moments_mod, "s_under_grid", no_solve)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "f": "log", "y": 2.0, "p": 32, "n": 16,
                                       "replicates": 2}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "LogDomain" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("extra", [
        {"kind": "simulate", "p": 32, "n": 16},
        {"kind": "simulate", "p": 8, "n": 16,
         "spectrum": [{"atom": 0, "weight": 0.5}, {"atom": 1, "weight": 0.5}]},
        {"kind": "ks-rate", "y": 0.98, "n_grid": [16, 64, 128]},  # p = n at n = 16
    ], ids=["p_above_n", "zero_atom", "ks_rate_p_equals_n"])
    def test_log_at_the_bulk_edge_fails_before_any_draw(self, extra, tmp_path, monkeypatch,
                                                         capsys):
        # the budget check used to draw a replicate first, and the run then
        # failed in the statistic or in the contour
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return replicate_statistic(*args, **kwargs)

        monkeypatch.setattr(cli, "replicate_statistic", counting)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"f": "log", "replicates": 2, **extra}))
        assert main([extra["kind"], "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "LogDomain: f = log needs the bulk away from 0" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("extra", [
        {"kind": "simulate", "p": 16, "n": 32},
        {"kind": "ks-rate", "y": 0.5, "n_grid": [16, 32, 64]},
    ], ids=["simulate", "ks_rate"])
    @pytest.mark.parametrize("f", ["x", "2x + 1"])
    def test_affine_f_with_rademacher_entries_fails_before_any_work(self, extra, f, tmp_path,
                                                                   monkeypatch, capsys):
        # |x|^2 = 1 makes tr B = tr T: the run exited 0 with variance 7.8e-30
        # and KS 0.5 at 16 x 32
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "compute_moments", counting("solve", cli.compute_moments))
        monkeypatch.setattr(cli, "replicate_statistic",
                            counting("draw", cli.replicate_statistic))
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"f": f, "ensemble": {"name": "rademacher"},
                                       "replicates": 50, **extra}))
        assert main([extra["kind"], "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "ConstraintViolation" in err and "tr B = tr T" in err
        assert calls == []
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("extra", [
        {"kind": "simulate", "p": 16, "n": 64},
        {"kind": "ks-rate", "y": 0.25, "n_grid": [16, 32, 64]},
    ], ids=["simulate", "ks_rate"])
    def test_log_contour_across_re_w_zero_fails_before_any_draw(self, extra, tmp_path,
                                                                monkeypatch, capsys):
        # sqrt(lo) = 0.5 and sqrt(hi) = 1.5 at y = 0.25: eps = 2 takes log's
        # ellipse in w = sqrt(z) across Re w = 0; the budget check drew a
        # replicate before the contour was built
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return replicate_statistic(*args, **kwargs)

        monkeypatch.setattr(cli, "replicate_statistic", counting)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"f": "log", "replicates": 2, "contour": {"eps": 2.0},
                                       **extra}))
        assert main([extra["kind"], "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert "LogDomain: f = log needs the bulk away from 0" in err and "Re w = -0.06" in err
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_log_contour_with_nodes_left_of_zero(self, tmp_path):
        # log's domain is its branch cut (-inf, 0]: at y = 0.25 and eps = 1 the
        # ellipse in w = sqrt(z) stays in Re w > 0, so z = w^2 never meets the
        # cut, though some nodes have Re z < 0, which a check on Re z rejected
        log = TestFunction.log()
        z, _ = build_contour(IDENTITY, 0.25, 1.0, f=log).nodes()
        assert (z.real < 0).any()
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments", "f": "log", "y": 0.25,
                                       "contour": {"eps": 1.0}}))
        assert main(["moments", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "moments_summary.json").read_text())["summary"]
        assert abs(doc["mu"] - np.log(0.75) / 2.0) <= 1e-12
        assert abs(doc["sigma"] + 2.0 * np.log(0.75)) <= 1e-12

    def test_probe_on_an_all_zero_population_diagonal_fails(self, tmp_path, capsys):
        # at n = 2, p = 1 and population_diagonal gives that entry to the
        # zero atom: the moment was 0, and the run wrote "slope": NaN
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": "probe-qform", "y": 0.5, "n_grid": [2, 37, 40], "replicates": 100,
            "spectrum": [{"atom": 0, "weight": 0.92}, {"atom": 0.3, "weight": 0.08}]}))
        assert main(["probe-qform", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "ConstraintViolation: n_grid: all p = round(y*n) population entries" in err
        assert "n=[2]" in err
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("kind, extra", [
        ("simulate", {"p": 1, "n": 2}),
        ("ks-rate", {"y": 0.5, "n_grid": [2, 37, 40]}),
    ])
    def test_run_on_an_all_zero_population_diagonal_fails_before_any_work(
            self, kind, extra, tmp_path, monkeypatch, capsys):
        # at p = 1 the one entry goes to the zero atom: T_p = 0, so B = 0, and
        # the run drew constant statistics normalized by the moments of H
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "_check_budget", no_work)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": kind, "replicates": 4, **extra,
            "spectrum": [{"atom": 0, "weight": 0.92}, {"atom": 0.3, "weight": 0.08}]}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "all p = round(y*n) population entries are 0 at n=[2]" in err
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("kind, extra", [
        ("moments", {"y": 0.5}),
        ("simulate", {"p": 16, "n": 32, "replicates": 8}),
    ])
    def test_atoms_above_one_need_no_flag(self, kind, extra, tmp_path):
        # the CLT needs ||T_p|| bounded, not at most 1: T = (2, 4) is 4 times
        # (0.5, 1), so mu(x^2) and sigma(x^2) are 16 and 256 times theirs
        scaled = PopulationSpectrum.from_pairs([(0.5, 0.5), (1.0, 0.5)])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": kind, "f": "x^2", **extra,
            "spectrum": [{"atom": 2.0, "weight": 0.5}, {"atom": 4.0, "weight": 0.5}]}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / f"{kind}_summary.json").read_text())["summary"]
        mom = compute_moments(TestFunction.monomial(2), scaled, 0.5, EntryEnsemble.real_gaussian())
        assert doc["mu"] == pytest.approx(16.0 * mom.mu, rel=1e-9)
        assert doc["sigma"] == pytest.approx(256.0 * mom.sigma, rel=1e-9)
        if kind == "simulate":
            assert doc["confinement_violations"] == 0

    @pytest.mark.parametrize("ensemble", ["CG", "RG"])
    def test_five_atom_run_centers_on_the_drawn_population(self, ensemble, tmp_path):
        # p w_k = 25.6 is no integer at p = 128: T_p holds 25, 25, 26, 26 and 26
        # entries, and centered over the configured weights the KS distance was
        # 0.380 (CG) and 0.265 (RG)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "simulate", "spectrum": FIVE_ATOM, "p": 128,
                                       "n": 256, "ensemble": ensemble, "replicates": 2000,
                                       "root_seed": 5}))
        assert main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "simulate_summary.json").read_text())["summary"]
        assert doc["ks"] <= 0.05

    def test_ks_rate_keys_moments_on_the_drawn_population(self, tmp_path, monkeypatch):
        # y = 0.5 at n = 250, 256 and 260 gives p/n = 0.5 at every n, but the
        # five-atom T_p has exact counts at p = 125 and 130 only: two moment sets
        spectra = []
        compute_moments = cli.compute_moments

        def recording(f, spectrum, *args, **kwargs):
            spectra.append(spectrum)
            return compute_moments(f, spectrum, *args, **kwargs)

        monkeypatch.setattr(cli, "compute_moments", recording)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "ks-rate", "spectrum": FIVE_ATOM, "y": 0.5,
                                       "n_grid": [250, 256, 260], "replicates": 4}))
        assert main(["ks-rate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert spectra == [BATTERY["five_atom"], realized_spectrum(BATTERY["five_atom"], 128)]

    def test_constant_f_moments_sigma_is_plus_zero(self, tmp_path, capsys):
        # the variance of a constant f sums exact zeros, and max(-0.0, 0.0)
        # kept the sign: "sigma=-0" printed and -0.0 written
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments", "f": "3"}))
        assert main(["moments", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert " sigma=0 " in capsys.readouterr().out
        text = (tmp_path / "moments_summary.json").read_text()
        assert '"sigma": 0.0' in text
        assert math.copysign(1.0, json.loads(text)["summary"]["sigma"]) == 1.0

    @pytest.mark.parametrize("kind, grid", [("ks-rate", [16, 32]), ("probe-qform", [16])],
                             ids=["ks-rate", "probe-qform"])
    def test_short_grid_fails_before_any_work(self, kind, grid, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "_check_budget", no_work)
        monkeypatch.setattr(cli, "qform_probe", no_work)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "n_grid": grid, "replicates": 4}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "ConstraintViolation" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("kind", ["moments", "simulate", "ks-rate", "probe-qform"])
    def test_all_zero_spectrum_fails_before_any_work(self, kind, tmp_path, monkeypatch, capsys):
        # B = 0 makes every statistic the constant p f(0): the runs used to
        # solve the moments and then fail with ZeroVariance, and probe-qform
        # wrote slope=NaN
        import lsslab.stieltjes as stieltjes_mod

        def no_work(*args, **kwargs):
            raise AssertionError("the run started")

        for owner, name in ((stieltjes_mod, "s_under_grid"), (clt_moments_mod, "s_under_grid"),
                            (cli, "_check_budget"), (cli, "qform_probe")):
            monkeypatch.setattr(owner, name, no_work)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "spectrum": [{"atom": 0, "weight": 1}],
                                       "p": 8, "n": 16, "n_grid": [8, 16, 32],
                                       "replicates": 2}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "ConstraintViolation: " + kind + " needs a nonzero atom" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_moments_summary_reports_quadrature(self, tmp_path):
        assert main(["moments", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "moments_summary.json").read_text())["summary"]
        contour = doc["contour"]
        assert set(contour) == {"x_l", "x_r", "v_0", "nodes", "rho", "sqrt_map"}
        assert contour["nodes"] == 64
        assert contour["sqrt_map"] is False
        assert contour["rho"] > 1.0
        assert set(doc["quadrature"]) == {"mean", "variance"}
        # accepted estimates stay below rtol = 1e-9 times 1 + |moment|
        # (mu = 1/2, sigma = 10 for x^2 at y = 1/2)
        for q in doc["quadrature"].values():
            assert q["nodes"] in (64, 128, 256)
            assert 0.0 <= q["error"] <= 1e-9 * (1.0 + 10.0)

    def test_mismatched_case_exits_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # RG draws normalized with CG moments read variance 2.03 and KS 0.147;
        # a run now takes its law from its moments, and the config has no case
        import lsslab.simulator as sim_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(sim_mod, "replicate_statistic", no_draw)
        monkeypatch.setattr(cli, "replicate_statistic", no_draw)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "simulate", "ensemble": "RG", "case": "CG",
                                       "p": 64, "n": 128, "replicates": 400,
                                       "root_seed": 5}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "UnknownKey" in err and "'case'" in err
        assert not out.exists()

    def test_student_t_df_at_most_four_exits_typed(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments",
                                       "ensemble": {"name": "student_t", "df": 3}}))
        assert main(["moments", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "ConstraintViolation" in err and "ensemble.df" in err

    def test_non_finite_config_exits_typed(self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run", no_run)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"kind": "simulate", "p": 8, "n": 16, "cost_cap_seconds": NaN}')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "TypeMismatch" in err and "NaN is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [
        {"kind": "lsd", "spectrum": FIVE_ATOM, "y": 0.3, "grid_points": 20},
        {"kind": "simulate", "p": 8, "n": 16, "replicates": 4, "truncation": {"mode": "on"},
         "ensemble": {"name": "student_t", "df": 11.123456789}},
        {"kind": "ks-rate", "spectrum": FIVE_ATOM, "y": 0.3,
         "n_grid": [16, 24, 32], "replicates": 3, "f": "log"},
        {"kind": "stein-check", "contexts": 2, "grid_points": 50},
        {"kind": "probe-qform", "y": 0.5, "n_grid": [8, 16], "replicates": 50},
    ], ids=lambda raw: raw["kind"])
    def test_summary_config_reproduces_the_csv(self, raw, tmp_path):
        # the summary's resolved config reruns to the same CSV body; a student_t
        # df rounded in the summary (11.123456789 as 11.1235) draws other entries
        kind, stem = raw["kind"], raw["kind"].replace("-", "_")
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main([kind, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "a")]) == 0
        doc = json.loads((tmp_path / "a" / f"{stem}_summary.json").read_text())
        (tmp_path / "again.json").write_text(json.dumps(doc["config"]))
        assert main([kind, "--config", str(tmp_path / "again.json"),
                     "--out", str(tmp_path / "b")]) == 0
        body = (tmp_path / "a" / f"{stem}_detail.csv").read_bytes()
        assert (tmp_path / "b" / f"{stem}_detail.csv").read_bytes() == body

    @pytest.mark.parametrize("kind, extra", [
        ("simulate", {"p": 8192, "n": 8193}),
        ("ks-rate", {"y": 1.0, "n_grid": [8, 16, 8193]}),
    ])
    def test_memory_budget_fails_before_the_cost_probe(self, kind, extra, tmp_path,
                                                       monkeypatch, capsys):
        def no_probe(*args, **kwargs):
            raise AssertionError("the cost probe sampled a matrix")

        monkeypatch.setattr(cli, "_check_budget", no_probe)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "replicates": 2, **extra}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "ConstraintViolation" in err and "memory budget" in err
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_ks_rate_projects_the_whole_run(self, tmp_path, monkeypatch, capsys):
        # a fake clock at 1 s per replicate: 4 replicates at each of three n
        # project 1.5 * 4 s = 6 s per n, under the 10 s cap, but 18 s in all
        from lsslab import diagnostics

        clock = [0.0]
        replicate = cli.replicate_statistic

        def one_second(*args):
            clock[0] += 1.0
            return replicate(*args)

        monkeypatch.setattr(diagnostics, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(cli, "replicate_statistic", one_second)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "ks-rate", "n_grid": [16, 24, 32],
                                       "replicates": 4, "y": 0.25,
                                       "cost_cap_seconds": 10}))
        assert main(["ks-rate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "CostBudgetExceeded" in err and "projected 18s" in err
        assert not (tmp_path / "ks_rate_detail.csv").exists()
        # one replicate at each n projects 4.5 s, inside the cap
        cfgfile.write_text(json.dumps({"kind": "ks-rate", "n_grid": [16, 24, 32],
                                       "replicates": 1, "y": 0.25,
                                       "cost_cap_seconds": 10}))
        assert main(["ks-rate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("kind, extra, dense", [
        ("simulate", {"p": 16, "n": 32, "ensemble": {"name": "student_t", "df": 11}}, True),
        ("simulate", {"p": 16, "n": 32, "spectrum": TWO_ATOM}, True),
        ("ks-rate", {"y": 0.5, "n_grid": [16, 24, 32], "truncation": {"mode": "on"}}, True),
        ("simulate", {"p": 16, "n": 32}, False),
        ("ks-rate", {"y": 0.5, "n_grid": [16, 24, 32]}, False),
    ], ids=["student_t", "two_atom", "ks-rate-truncated", "bidiagonal", "ks-rate-bidiagonal"])
    @pytest.mark.parametrize("workers", [None, 3], ids=["cores", "three"])
    def test_budget_projects_one_replicate_per_worker(self, kind, extra, dense, workers,
                                                      tmp_path, monkeypatch, capsys):
        # a dense run's replicates share dense_workers threads, so the probe's one
        # replicate projects ceil(replicates / W) of them; a bidiagonal run's loop
        # all of them
        from lsslab import simulator
        from lsslab.errors import CostBudgetExceeded

        if workers is not None:
            monkeypatch.setattr(cli, "dense_workers", lambda p, n, replicates: workers)
        counts = []

        def recording(unit, count, *args):
            counts.append(count)
            raise CostBudgetExceeded("recorded")

        monkeypatch.setattr(cli, "project_cost", recording)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "replicates": 7, **extra}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "CostBudgetExceeded: recorded" in capsys.readouterr().err
        width = workers or simulator.dense_workers(16, 32, 7)
        assert counts == [math.ceil(7 / width) if dense else 7]

    @pytest.mark.parametrize("kind, extra", [
        ("simulate", {"p": 8, "n": 16}),
        ("ks-rate", {"y": 0.3, "n_grid": [16, 24, 32]}),
    ])
    def test_transform_solved_once_per_ratio(self, kind, extra, tmp_path, monkeypatch):
        # y = 0.3 gives p/n = 5/16 at n = 16 and 32 and 7/24 at n = 24: the
        # centering of every n reuses the transform its moments solved, so
        # no contour node is solved twice for the same ratio
        import lsslab.stieltjes as stieltjes_mod

        solved = {}
        original = stieltjes_mod.s_under_grid

        def recording(z, spectrum, y_n, start=None):
            solved.setdefault(y_n, []).extend(np.ravel(z).tolist())
            return original(z, spectrum, y_n, start)

        monkeypatch.setattr(stieltjes_mod, "s_under_grid", recording)
        monkeypatch.setattr(clt_moments_mod, "s_under_grid", recording)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "replicates": 4, **extra}))
        assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        ratios = {"simulate": {0.5}, "ks-rate": {5 / 16, 7 / 24}}[kind]
        assert set(solved) == ratios
        for nodes in solved.values():
            assert len(nodes) == len(set(nodes))

    @pytest.mark.parametrize("ensemble, truncation, matched", [
        ("RG", "off", True), ("CG", "off", True), ({"name": "rademacher"}, "off", False),
        ({"name": "student_t", "df": 11}, "off", False),
        ("RG", "on", False), ("CG", "on", False),
    ], ids=["rg", "cg", "rademacher", "student_t", "rg-truncated", "cg-truncated"])
    def test_summaries_flag_gaussian_matching(self, ensemble, truncation, matched, tmp_path):
        # a truncated run draws the truncated law (beta_x 0.54 for RG and 1.44 for
        # CG at the default eta); a moments run draws nothing and keeps the base law
        runs = {"moments": {}, "simulate": {"p": 8, "n": 16},
                "ks-rate": {"n_grid": [16, 24, 32]}}
        for kind, extra in runs.items():
            cfgfile = tmp_path / f"{kind}.json"
            cfgfile.write_text(json.dumps({"kind": kind, "ensemble": ensemble, "f": "x^2",
                                           "replicates": 4, "truncation": {"mode": truncation},
                                           **extra}))
            assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
            stem = kind.replace("-", "_")
            doc = json.loads((tmp_path / f"{stem}_summary.json").read_text())
            want = matched or (kind == "moments" and ensemble in ("RG", "CG"))
            assert doc["summary"]["gaussian_matched"] is want
            if kind != "ks-rate":  # the moments' case follows the entry law
                assert doc["summary"]["case"] == ("CG" if ensemble == "CG" else "RG")

    def test_ks_rate_flags_a_match_only_at_every_n(self, tmp_path):
        # RG clipped at 3 n^(1/4): beta_x is -2.4e-6 at n = 16, but -1.1e-13 at
        # n = 64 and 4e-16 at n = 256, within the 1e-12 matching tolerance
        flags = {}
        for kind, extra in {"simulate": {"p": 128, "n": 256},
                            "ks-rate": {"n_grid": [16, 64, 256]}}.items():
            cfgfile = tmp_path / f"{kind}.json"
            cfgfile.write_text(json.dumps({"kind": kind, "f": "x", "replicates": 2,
                                           "truncation": {"mode": "on", "eta": 3.0},
                                           **extra}))
            assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / f"{kind.replace('-', '_')}_summary.json").read_text())
            flags[kind] = doc["summary"]["gaussian_matched"]
        assert flags == {"simulate": True, "ks-rate": False}

    @pytest.mark.parametrize("kind, extra", [
        ("simulate", {"p": 8, "n": 16}),
        ("ks-rate", {"n_grid": [16, 24, 32]}),
    ])
    def test_degenerate_truncation_fails_before_any_solve(self, kind, extra, tmp_path,
                                                          monkeypatch, capsys):
        # eta = 1e-6 clips every entry: the law is built, and fails, before the
        # moments solve and the budget check
        solves = []

        def no_budget(*args, **kwargs):
            raise AssertionError("the budget check ran")

        monkeypatch.setattr(cli, "compute_moments",
                            lambda *args, **kwargs: solves.append(args))
        monkeypatch.setattr(cli, "_check_budget", no_budget)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": kind, "truncation": {"mode": "on", "eta": 1e-6},
                                       **extra}))
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "DegenerateTruncation" in err
        assert "at n = 16 the threshold eta n^(1/4) = 1e-06 * 16^(1/4) = 2.000e-06" in err
        assert "raise truncation.eta" in err
        assert solves == []
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("extra, sampler, statistic", [
        ({"ensemble": "RG"}, "laguerre_bidiagonal", "closed_form"),
        ({"ensemble": "CG", "spectrum": [{"atom": 0.5, "weight": 1.0}]}, "laguerre_bidiagonal",
         "closed_form"),
        ({"ensemble": "RG", "f": "x^3"}, "laguerre_bidiagonal", "spectrum"),
        ({"ensemble": "RG", "truncation": {"mode": "on"}}, "dense", "spectrum"),
        ({"ensemble": "RG", "spectrum": FIVE_ATOM}, "dense", "spectrum"),
        ({"ensemble": {"name": "rademacher"}, "f": "x^2"}, "dense", "spectrum"),
    ], ids=["rg", "cg-half", "rg-x^3", "rg-truncated", "rg-five_atom", "rademacher"])
    def test_summaries_name_the_sampler(self, extra, sampler, statistic, tmp_path):
        runs = {"simulate": {"p": 8, "n": 16}, "ks-rate": {"n_grid": [16, 24, 32]}}
        for kind, dims in runs.items():
            cfgfile = tmp_path / f"{kind}.json"
            cfgfile.write_text(json.dumps({"kind": kind, "f": "x", "replicates": 4,
                                           **dims, **extra}))
            assert main([kind, "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
            stem = kind.replace("-", "_")
            doc = json.loads((tmp_path / f"{stem}_summary.json").read_text())
            assert doc["summary"]["sampler"] == sampler
            assert doc["summary"]["statistic"] == statistic
            header = (tmp_path / f"{stem}_detail.csv").read_text().splitlines()[0]
            assert "sampler" not in header and "statistic" not in header

    def test_threads_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["moments", "--threads", "2"])

    def test_seed_flag_changes_output(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": "simulate", "p": 8, "n": 16, "replicates": 4, "f": "x"}))
        main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "s1"),
              "--seed", "1"])
        main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "s2"),
              "--seed", "2"])
        assert ((tmp_path / "s1" / "simulate_detail.csv").read_bytes()
                != (tmp_path / "s2" / "simulate_detail.csv").read_bytes())

    def test_one_parser_serves_consecutive_runs(self, tmp_path):
        # each call is made twice: once after clearing the parser cache, as in
        # a fresh process, and once in a row with the others on one parser
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({"kind": "simulate", "p": 8, "n": 16, "replicates": 4,
                                   "f": "x"}))
        calls = [["simulate", "--config", str(sim), "--seed", "7"],
                 ["moments"],
                 ["simulate", "--config", str(sim)],
                 ["lsd", "--seed", "3"],
                 ["stein-check"]]

        def outputs(out):  # the summaries without their timestamps, and the CSV bodies
            docs = {f.name: json.loads(f.read_text()) for f in out.glob("*_summary.json")}
            return ({name: (doc["config"], doc["summary"]) for name, doc in docs.items()},
                    {f.name: f.read_bytes() for f in out.glob("*_detail.csv")})

        single, in_a_row = [], []
        for i, argv in enumerate(calls):
            cli._build_parser.cache_clear()
            assert main(argv + ["--out", str(tmp_path / f"single{i}")]) == 0
            single.append(outputs(tmp_path / f"single{i}"))
        parser = cli._build_parser()
        for i, argv in enumerate(calls):
            assert main(argv + ["--out", str(tmp_path / f"row{i}")]) == 0
            in_a_row.append(outputs(tmp_path / f"row{i}"))
        assert cli._build_parser() is parser
        assert in_a_row == single
        seeded, unseeded = in_a_row[0][0], in_a_row[2][0]
        assert seeded["simulate_summary.json"][0]["root_seed"] == 7
        assert unseeded["simulate_summary.json"][0]["root_seed"] == parse_config(
            sim.read_text()).root_seed

    def test_fresh_process_loads_only_the_scipy_it_calls(self, tmp_path):
        # a fresh process, since this one has scipy loaded already; scipy is
        # imported only where it is called, the t density needs no scipy.stats,
        # the truncated moments' fixed rule no scipy.integrate, the probe's
        # chi-square forms, the nested-MC sums and the Stein sweep's numpy erfc
        # none at all, and the bidiagonal sampler only scipy.linalg's LAPACK;
        # concurrent.futures, for the dense pool, comes with scipy.linalg or a
        # dense run, and only a dense run opens the BLAS library for its pin
        sim = tmp_path / "t11.json"
        sim.write_text(json.dumps({"kind": "simulate", "p": 8, "n": 16, "replicates": 4,
                                   "ensemble": {"name": "student_t", "df": 11},
                                   "truncation": {"mode": "on"}}))
        gaussian = tmp_path / "rg.json"
        gaussian.write_text(json.dumps({"kind": "simulate", "p": 8, "n": 16, "replicates": 4}))
        probes = []
        for matrix_kind in ("fixed_psd", "resolvent"):
            probes.append(tmp_path / f"{matrix_kind}.json")
            probes[-1].write_text(json.dumps({"kind": "probe-qform", "matrix_kind": matrix_kind,
                                              "n_grid": [16, 32], "replicates": 100}))
        script = (
            "import contextlib, io, sys\n"
            "import lsslab\n"
            "from lsslab.cli import main\n"
            "from lsslab.diagnostics import sigma0_nested_mc\n"
            "from lsslab.spectral_model import PopulationSpectrum, TestFunction\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "def pinned(): return lsslab.simulator._blas_pin.cache_info().currsize\n"
            "def report(): print(loaded(), 'concurrent.futures' in sys.modules, pinned())\n"
            "report()\n"
            "for kind in ('moments', 'lsd'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main([kind, '--out', {str(tmp_path)!r}]) == 0\n"
            "report()\n"
            f"for probe in {[str(p) for p in probes]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main(['probe-qform', '--config', probe, '--out', {str(tmp_path)!r}]) == 0\n"
            "sigma0_nested_mc(TestFunction.monomial(2), PopulationSpectrum.identity(), 0.5,\n"
            "                 n_small=8, inner_reps=2, outer_reps=2, seed=1)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['stein-check', '--out', {str(tmp_path)!r}]) == 0\n"
            "report()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['simulate', '--config', {str(gaussian)!r},\n"
            f"                 '--out', {str(tmp_path)!r}]) == 0\n"
            "print('scipy.linalg' in sys.modules, 'scipy.special' in sys.modules, pinned())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['simulate', '--config', {str(sim)!r},\n"
            f"                 '--out', {str(tmp_path)!r}]) == 0\n"
            "print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules, pinned())\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[] False 0", "[] False 0", "[] False 0",
                                           "True False 0", "False False 1"]

    def test_ks_rate_csv_shape(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": "ks-rate", "n_grid": [16, 32, 64], "replicates": 40,
            "f": "x", "y": 0.5}))
        assert main(["ks-rate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ks_rate_detail.csv").read_text().splitlines()
        assert lines[0] == "n,ks,replicates,seed"
        assert len(lines) == 4
        doc = json.loads((tmp_path / "ks_rate_summary.json").read_text())
        assert "exponent" in doc["summary"]

    def test_ks_rate_computes_moments_once_per_ratio(self, tmp_path, monkeypatch):
        # y = 0.25 at n = 16, 24, 32 gives p/n = 0.25 at every n
        calls = []
        compute_moments = cli.compute_moments

        def counting(*args, **kwargs):
            calls.append(args[2])
            return compute_moments(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_moments", counting)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "ks-rate", "n_grid": [16, 24, 32],
                                       "replicates": 4, "y": 0.25}))
        assert main(["ks-rate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert calls == [0.25]
        # rows equal a per-n loop that computes the moments afresh at every n
        cfg = parse_config(cfgfile.read_text())
        expected = [["n", "ks", "replicates", "seed"]]
        for i, n in enumerate(cfg.n_grid):
            p = int(round(cfg.y * n))
            seed = replicate_seed(cfg.root_seed, i)
            mom = cli._moments(cfg, realized_spectrum(cfg.spectrum, p), p / n, cfg.ensemble)
            record = run_experiment(mom, p, n, cfg.replicates, seed)
            expected.append([str(n), repr(record.ks), str(cfg.replicates), str(seed)])
        with open(tmp_path / "ks_rate_detail.csv", newline="") as fh:
            assert list(csv.reader(fh)) == expected
        # a truncated law differs at every n, and so does its moment set
        calls.clear()
        cfgfile.write_text(json.dumps({"kind": "ks-rate", "n_grid": [16, 24, 32],
                                       "replicates": 4, "y": 0.25,
                                       "truncation": {"mode": "on"}}))
        assert main(["ks-rate", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert calls == [0.25, 0.25, 0.25]

    def test_lsd_emits_density(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "lsd", "y": 0.5, "grid_points": 12}))
        assert main(["lsd", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "lsd_detail.csv").read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 13

    @pytest.mark.parametrize("name", ["identity", "two_atom", "five_atom"])
    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_lsd_grid_matches_point_by_point(self, name, y, tmp_path):
        sp = BATTERY[name]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "lsd", "spectrum": serialize_spectrum(sp),
                                       "y": y, "grid_points": 40}))
        assert main(["lsd", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "lsd_detail.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        lo, hi = support_interval(sp, y)
        xs = np.linspace(lo, hi, 42)[1:-1]
        assert [r[0] for r in rows] == [repr(float(x)) for x in xs]
        for (_, got), x in zip(rows, xs):
            assert abs(float(got) - lsd_density(float(x), sp, y)) <= 1e-12

    def test_lsd_all_zero_atoms_fails_up_front(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "lsd", "spectrum": [{"atom": 0.0, "weight": 1.0}]}))
        assert main(["lsd", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
        assert "OutsideSupport" in capsys.readouterr().err
        assert not (tmp_path / "lsd_detail.csv").exists()

    @pytest.mark.parametrize("points", [40, 80, 100])
    def test_lsd_identity_above_one_is_marchenko_pastur(self, points, tmp_path):
        y = 2.0
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "lsd", "y": y, "grid_points": points}))
        assert main(["lsd", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "lsd_detail.csv", newline="") as fh:
            rows = [(float(x), float(d)) for x, d in list(csv.reader(fh))[1:]]
        a, b = (1 - np.sqrt(y)) ** 2, (1 + np.sqrt(y)) ** 2
        want = [np.sqrt(max((b - x) * (x - a), 0.0)) / (2 * np.pi * y * x) for x, _ in rows]
        assert len(rows) == points
        assert max(abs(d - w) for (_, d), w in zip(rows, want)) <= 1e-12 * max(want)

    def test_stein_check_emits_table(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "stein-check", "contexts": 3,
                                       "grid_points": 500}))
        assert main(["stein-check", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "stein_check_detail.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].endswith("pass")

    def test_probe_qform_emits_points(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "probe-qform", "n_grid": [32, 64],
                                       "replicates": 2000}))
        assert main(["probe-qform", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "probe_qform_detail.csv").read_text().splitlines()
        assert lines[0] == "n,moment"
        assert len(lines) == 3

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LSSLAB_OUT", str(tmp_path / "envout"))
        assert main(["moments"]) == 0
        assert (tmp_path / "envout" / "moments_summary.json").exists()

    def test_kind_mismatch_fails(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments"}))
        assert main(["lsd", "--config", str(cfgfile)]) == 1

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments", "nonsense": True}))
        assert main(["moments", "--config", str(cfgfile)]) == 1
        assert "UnknownKey" in capsys.readouterr().err

    def test_every_output_embeds_config_and_version(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "moments", "f": "x"}))
        main(["moments", "--config", str(cfgfile), "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "moments_summary.json").read_text())
        assert set(doc) == {"version", "config", "summary", "started_at", "finished_at"}
        assert doc["config"]["f"] == {"poly": [0.0, 1.0]}
