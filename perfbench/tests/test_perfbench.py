"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, pass_no=0):
    return spans.Span(name, start, end, parent, 0, pass_no)


# -- self-time arithmetic -------------------------------------------------------


def test_union_length_merges_overlapping_contained_and_touching():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert spans.union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0
    assert spans.union_length([(1.0, 2.0), (0.0, 1.0)]) == 2.0


def test_self_time_of_nested_children():
    tree = [_span("root", 0, 10, -1), _span("a", 1, 4, 0), _span("b", 2, 3, 1),
            _span("c", 5, 9, 0)]
    own = spans.self_times(tree)
    assert own == [3, 2, 1, 4]
    assert sum(own) == 10  # self times add up to the root's wall time


def test_self_time_counts_overlapping_children_once():
    tree = [_span("root", 0, 10, -1), _span("a", 1, 5, 0), _span("b", 3, 7, 0)]
    assert spans.self_times(tree)[0] == 4


def test_reduce_weights_passes_and_probe_and_closes():
    tr = spans.Tracer()
    tr.spans = [
        _span(spans.ROOT_SPAN, 0, 10, -1, 0), _span("cli.main", 1, 9, 0, 0),
        _span(spans.ROOT_SPAN, 20, 30, -1, 1), _span("cli.main", 21, 29, 2, 1),
        _span(spans.ROOT_SPAN, 40, 41, -1, spans.PROBE_PASS),
        _span("cli.main", 40.25, 40.75, 4, spans.PROBE_PASS),
    ]
    tr.spans[-1].failed = True
    out = spans.reduce(tr, passes=2)
    assert out["cli.main.calls"] == 2.0
    assert out["cli.main.self_s"] == pytest.approx(8.5)
    assert out["cli.main.failed"] == 1.0
    assert out["bench.self_s"] == pytest.approx(2.5)
    assert out["bench.traced_wall_s"] == pytest.approx(11.0)
    assert out["cli.main.self_s"] + out["bench.self_s"] == pytest.approx(out["bench.traced_wall_s"])


# -- summaries -------------------------------------------------------------------


def test_summarize_uses_exclusive_quartiles():
    s = spread.summarize([float(v) for v in range(1, 11)])
    assert (s["q1"], s["median"], s["q3"]) == (2.75, 5.5, 8.25)
    assert s["spread"] == pytest.approx(1.0)


def test_judge_against_bound():
    assert spread.judge({"spread": 0.02}, 0.1, False) == "steady"
    assert spread.judge({"spread": 0.05}, 0.1, False) == "within bound"
    assert spread.judge({"spread": 0.2}, 0.1, False) == "TOO WIDE"
    assert spread.judge({"spread": 0.2}, 0.1, True) == "exempt"


def test_median_rate_drops_one_slow_pass_per_op():
    timed = [run.Prepared(workloads.Op("a", "lsd", {}, 10, None), None, None)]
    passes = [[run.Result(True, True, s, None, None)] for s in (1.0, 1.0, 9.0)]
    assert run.median_rate(passes, timed) == 10.0


def test_median_rate_uses_reference_seconds():
    timed = [run.Prepared(workloads.Op("a", "lsd", {}, 10, None), None, None)]
    slow = run.speed_scale(2 * run.CAL_REF_S, 2 * run.CAL_REF_S)
    assert slow == 0.5  # the machine ran at half the reference speed
    passes = [[run.Result(True, True, 2.0, None, None, scale=slow)] for _ in range(3)]
    assert run.median_rate(passes, timed) == 10.0
    assert run.median_rate(passes, timed, wall=True) == 5.0
    assert run.machine_slowdown(passes) == 2.0


# -- configuration ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_op_seeds_follow_the_workload_seed():
    def seeds(seed):
        return [op.config["root_seed"] for op in workloads.build("replicates", seed).ops]
    assert seeds(1) == seeds(1)
    assert seeds(1) != seeds(2)
    assert len(set(seeds(1))) == len(seeds(1))


def test_gates_reject_wrong_outputs():
    wl = workloads.build("moments", 1)
    op = next(o for o in wl.ops if o.name == "rg-identity-y0.5-x^2")
    assert op.check(workloads.Outcome(summary={"mu": 0.5, "sigma": 10.0})) is None
    assert op.check(workloads.Outcome(summary={"mu": 0.5, "sigma": 10.001})) is not None
    sim = next(o for o in workloads.build("replicates", 1).ops if o.name == "rg-256x512")
    rows = [["0", "0", "0.1", "0", "1"]] * sim.items
    assert sim.check(workloads.Outcome(summary={"mean": 0.0, "variance": 1.0}, rows=rows)) is None
    assert sim.check(workloads.Outcome(summary={"mean": 2.0, "variance": 1.0}, rows=rows))
    assert sim.check(workloads.Outcome(summary={"mean": 0.0, "variance": 1.0}, rows=rows[1:]))


# -- the benchmark against the program --------------------------------------------


def test_tracer_restores_every_patch():
    lab = run.import_lab()
    original = lab.stieltjes.s_under_grid
    tr = spans.Tracer()
    tr.install()
    try:
        assert lab.stieltjes.s_under_grid is not original
        assert lab.clt_moments.s_under_grid is lab.stieltjes.s_under_grid
        assert lab.diagnostics.np.linalg.eigh is not lab.diagnostics.np.linalg.eigvalsh
    finally:
        tr.uninstall()
    assert lab.stieltjes.s_under_grid is original
    assert lab.clt_moments.s_under_grid is original
    assert lab.diagnostics.np is sys.modules["numpy"]


SMOKE_OPS = {
    "moments": ["rg-five_atom-y0.5-x^2", "cg-identity-y0.5-x^2"],
    "density": ["lsd-five_atom-y0.5"],
    "replicates": ["ks-rate-y0.25-x^11"],
    "diagnostics": ["stein-check", "probe-qform-resolvent-k2"],
}


@pytest.mark.parametrize("workload", list(SMOKE_OPS))
def test_reduced_smoke_pass(workload, tmp_path):
    """Set-up with every warm-up op gated, then a traced pass over the cheapest ops."""
    wl, timed, probe, warm = run.setup(workload, 7, tmp_path)
    assert len(timed) == len(wl.ops) and len(probe) == len(wl.probe)
    assert all(r.ok for r in warm), [r.detail for r in warm]
    chosen = [p for p in timed if p.op.name in SMOKE_OPS[workload]]
    tr = spans.Tracer()
    results = run.run_pass(chosen, tr)
    assert all(r.ok for r in results), [r.detail for r in results]
    out = spans.reduce(tr, passes=1)
    own = sum(out.get(f"{n}.self_s", 0.0) for n in spans.SPAN_NAMES) + out["bench.self_s"]
    assert own == pytest.approx(out["bench.traced_wall_s"], rel=1e-9)
    assert out["cli.main.calls"] == len(chosen)
    if workload == "replicates":
        # 3 x 200 replicate eigensolves plus one cost projection per grid point
        assert out["simulator.eigenvalues.useful_ratio"] == pytest.approx(600 / 603)
    if workload == "moments":
        assert out["clt_moments.kernel_from_s.cells"] > 0
        assert out["contour.nodes.max_per_edge"] >= 128


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moments",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
