#!/usr/bin/env python3
"""lsslab benchmark: four workloads driven in-process through the public entry points.

    python3 perfbench/run.py --workload moments --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run builds the workload's op configs from ``--seed``, sets up (imports
``lsslab`` from ``src/``, parses every config, runs one small untimed
warm-up op per kind), then runs whole passes over the ops until
``--seconds`` would be exceeded.  Every op's outputs are gated for
correctness.  Workloads with a known defect also run their probe ops once,
untimed, after the passes.

With ``--trace 0`` the result's metrics are the end-to-end ones:

* ``setup_s``: fresh process until the first timed op, median of three
  fresh child processes that each do the whole set-up;
* ``items_per_s``: items of passing ops over the sum of each op's median
  time across passes;
* ``peak_rss_mb``: ``ru_maxrss`` of the run's process;
* ``ops_ok_frac``: passing ops over attempted ops for one op set (a pass
  plus the probe).

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones of ``spans.PER_LAYER``, per op set.  The last line
of standard output is always the result as one JSON object.  BLAS threads
are left at the library default on purpose.

``setup_s`` and ``items_per_s`` are in reference seconds.  A shared
machine's speed drifts by tens of percent over minutes, and the drift moves
every run's wall times together.  So a fixed pure-Python calibration chunk is timed right before
and after every op and every set-up child, and each wall time is scaled by
``CAL_REF_S`` over the chunk's local time: the time the op would take on a
machine where the chunk takes ``CAL_REF_S``.  Raw wall figures are kept in
the full result and as per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
END_TO_END = [("setup_s", "s"), ("items_per_s", "items/s"), ("peak_rss_mb", "MB"),
              ("ops_ok_frac", "ratio")]
CAL_REF_S = 0.0035  # the calibration chunk's time on the reference machine, by definition
CAL_ITERATIONS = 40000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_lab():
    """Import ``lsslab`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "lsslab" / "__init__.py").is_file():
        raise BenchError(f"no lsslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lsslab
    import lsslab.cli
    import lsslab.config
    import lsslab.diagnostics
    import lsslab.spectral_model

    if Path(lsslab.__file__).resolve().parent != (SRC / "lsslab").resolve():
        raise BenchError(f"lsslab imported from {lsslab.__file__}, not from {SRC}")
    return lsslab


def calibrate() -> float:
    """Local seconds of the fixed calibration chunk: median of three, back to back.

    The chunk is plain interpreter work that touches neither the program nor
    BLAS, so it measures the machine's speed at this moment and nothing else.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor from local to reference seconds, for work done between two calibrations."""
    return CAL_REF_S / ((before + after) / 2.0)


# ---------------------------------------------------------------------------
# ops


@dataclass
class Prepared:
    op: workloads.Op
    call: Callable[[], object]  # does the op's work
    out_dir: Path | None


def prepare(op: workloads.Op, index: int, work: Path, lab) -> Prepared:
    """Write and parse the op's config; return the call that runs it."""
    if op.kind == "sigma0":
        sm = lab.spectral_model
        ensemble = (sm.EntryEnsemble.real_gaussian() if op.config["ensemble"] == "RG"
                    else sm.EntryEnsemble.complex_gaussian())
        args = (sm.TestFunction.monomial(1), sm.PopulationSpectrum.identity(),
                op.config["y"], op.config["n_small"], op.config["inner_reps"],
                op.config["outer_reps"], op.config["root_seed"])
        diagnostics = lab.diagnostics
        return Prepared(op, lambda: diagnostics.sigma0_nested_mc(*args, ensemble=ensemble),
                        None)
    op_dir = work / f"{index:02d}"
    op_dir.mkdir(parents=True)
    text = json.dumps(op.config, indent=2)
    lab.config.parse_config(text)  # a config the program rejects is a benchmark bug
    config_path = op_dir / "config.json"
    config_path.write_text(text, encoding="utf-8")
    argv = [op.kind, "--config", str(config_path), "--out", str(op_dir)]
    cli = lab.cli
    return Prepared(op, lambda: cli.main(argv), op_dir)


@dataclass
class Result:
    ok: bool
    completed: bool  # the program returned normally; False means it raised or exited non-zero
    seconds: float
    detail: str | None
    csv_sha256: str | None
    scale: float = 1.0  # local to reference seconds, set by run_ops

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def execute(prep: Prepared) -> Result:
    """Run one op, then gate its outputs; only the op itself is timed."""
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            value = prep.call()
            error = None
        except Exception as exc:  # any exception from the program fails the op
            value, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if prep.out_dir is not None and error is None and value != 0:
        lines = captured.getvalue().strip().splitlines()
        error = lines[-1] if lines else f"exit code {value}"
    if error is not None:
        return Result(False, False, seconds, error, None)
    try:
        outcome = (workloads.read_outcome(prep.op.kind, prep.out_dir)
                   if prep.out_dir is not None else workloads.Outcome(value=value))
        detail = prep.op.check(outcome)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return Result(False, True, seconds, f"unreadable output: {type(exc).__name__}: {exc}",
                      None)
    return Result(detail is None, True, seconds, detail, outcome.csv_sha256)


# ---------------------------------------------------------------------------
# set-up and passes


def setup(workload: str, seed: int, work: Path):
    """Everything a fresh process does before its first timed op.

    Returns the workload, its prepared timed and probe ops, and the gated
    results of the warm-up ops.
    """
    lab = import_lab()
    wl = workloads.build(workload, seed)
    every = wl.warmup + wl.ops + wl.probe
    prepared = [prepare(op, i, work, lab) for i, op in enumerate(every)]
    n_warm, n_timed = len(wl.warmup), len(wl.ops)
    warm = [execute(p) for p in prepared[:n_warm]]
    return wl, prepared[n_warm:n_warm + n_timed], prepared[n_warm + n_timed:], warm


def run_ops(timed: list[Prepared], tracer: spans.Tracer | None) -> list[Result]:
    """Each op between two calibrations, which set its ``scale``."""
    results = []
    before = calibrate()
    for i, prep in enumerate(timed):
        if tracer is not None:
            tracer.op = i
        result = execute(prep)
        after = calibrate()
        result.scale = speed_scale(before, after)
        results.append(result)
        before = after
    return results


def run_pass(timed: list[Prepared], tracer: spans.Tracer | None) -> list[Result]:
    if tracer is None:
        return run_ops(timed, None)
    tracer.install()
    root = tracer.open(spans.ROOT_SPAN)
    try:
        return run_ops(timed, tracer)
    finally:
        tracer.close(root)
        tracer.uninstall()


def median_rate(passes: list[list[Result]], timed: list[Prepared], wall: bool = False) -> float:
    """Items of passing ops over the sum of each op's median time across passes.

    Times are reference seconds, or local wall seconds with ``wall``.  A
    machine hiccup slows some ops of one pass; the per-op median drops it.
    """
    items = sum(p.op.items * statistics.fmean(res[i].ok for res in passes)
                for i, p in enumerate(timed))
    return items / sum(statistics.median(res[i].seconds if wall else res[i].ref_seconds
                                         for res in passes)
                       for i in range(len(timed)))


def machine_slowdown(passes: list[list[Result]]) -> float:
    """Median local over reference time of the calibration chunk across all ops."""
    return statistics.median(1.0 / r.scale for res in passes for r in res)


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up time of fresh processes, from spawn to ready for the first timed op.

    Returns (wall seconds, local-to-reference scale) per process.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append((ready - t0, speed_scale(before, calibrate())))
    return samples


def environment() -> dict:
    """Versions, BLAS, threads, cores, commit and load, recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    threads = {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}
    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown ({type(exc).__name__})"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": threads or "library default",
        "cores": len(os.sched_getaffinity(0)),
        "git_commit": commit, "git_dirty": dirty,
    }


def run_workload(args) -> dict:
    loadavg_start = os.getloadavg()
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        wl, timed, probe, warm = setup(args.workload, args.seed, work)
        in_process_setup = time.perf_counter() - t0

        tracer = spans.Tracer() if args.trace else None
        plain, traced = [], []  # per-pass results
        start = time.perf_counter()
        while True:
            use_tracer = tracer is not None and len(plain) > len(traced)
            if use_tracer:
                tracer.pass_no = len(traced)
            (traced if use_tracer else plain).append(
                run_pass(timed, tracer if use_tracer else None))
            elapsed = time.perf_counter() - start
            done = len(plain) + len(traced)
            if elapsed * (done + 1) / done > args.seconds and (tracer is None or traced):
                break

        if tracer is not None:
            tracer.pass_no = spans.PROBE_PASS
        probe_results = run_pass(probe, tracer) if probe else []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    passes = plain + traced
    per_pass_failed = statistics.fmean(sum(not r.ok for r in p) for p in passes)
    probe_failed = sum(not r.ok for r in probe_results)
    op_set = len(timed) + len(probe)
    correct = (all(r.ok for r in warm) and all(r.ok for p in passes for r in p)
               and all(r.ok or not r.completed for r in probe_results))
    doc = {
        "workload": wl.name, "item": wl.item, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct,
        "attempted": sum(len(p) for p in passes),
        "failed": sum(not r.ok for p in passes for r in p),
        "environment": {**environment(), "loadavg_start": loadavg_start,
                        "loadavg_end": os.getloadavg()},
        "setup_samples_s": [wall for wall, _ in setup_samples],
        "setup_samples_scale": [scale for _, scale in setup_samples],
        "in_process_setup_s": in_process_setup,
        "warmup": [{"name": op.name, "ok": r.ok, "detail": r.detail}
                   for op, r in zip(wl.warmup, warm)],
        "ops": [{"name": p.op.name, "kind": p.op.kind, "items": p.op.items,
                 "median_s": statistics.median(res[i].seconds for res in passes),
                 "median_ref_s": statistics.median(res[i].ref_seconds for res in passes),
                 "pass_s": [res[i].seconds for res in passes],
                 "pass_scale": [res[i].scale for res in passes],
                 "ok": all(res[i].ok for res in passes),
                 "detail": next((res[i].detail for res in passes if res[i].detail), None),
                 "csv_sha256": passes[0][i].csv_sha256}
                for i, p in enumerate(timed)],
        "probe": [{"name": p.op.name, "ok": r.ok, "completed": r.completed,
                   "seconds": r.seconds, "detail": r.detail, "csv_sha256": r.csv_sha256}
                  for p, r in zip(probe, probe_results)],
    }
    doc["wall_items_per_s"] = median_rate(plain, timed, wall=True)
    doc["machine_slowdown"] = machine_slowdown(passes)
    if tracer is None:
        values = {
            "setup_s": statistics.median(wall * scale for wall, scale in setup_samples),
            "items_per_s": median_rate(plain, timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_frac": 1.0 - (per_pass_failed + probe_failed) / op_set,
        }
        units = dict(END_TO_END)
    else:
        layers = spans.reduce(tracer, len(traced))
        untraced = median_rate(plain, timed)
        traced_rate = median_rate(traced, timed)
        layers.update({"bench.untraced_items_per_s": untraced,
                       "bench.traced_items_per_s": traced_rate,
                       "bench.trace_overhead_frac": 1.0 - traced_rate / untraced,
                       "bench.wall_items_per_s": doc["wall_items_per_s"],
                       "bench.machine_slowdown": doc["machine_slowdown"]})
        self_sum = sum(layers.get(f"{n}.self_s", 0.0) for n in spans.SPAN_NAMES)
        doc["trace_closure_s"] = {
            "traced_wall_s": layers["bench.traced_wall_s"],
            "layer_self_sum_s": self_sum, "bench_self_s": layers["bench.self_s"],
            "gap_s": layers["bench.traced_wall_s"] - self_sum - layers["bench.self_s"]}
        doc["eigensolve_orders"] = layers.pop("eigensolve_orders", {})
        values = {name: layers.get(name, 0.0) for name, _ in spans.PER_LAYER}
        units = dict(spans.PER_LAYER)
    doc["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return doc


def print_result(doc: dict) -> None:
    for op in doc["ops"]:
        status = "ok" if op["ok"] else f"FAILED: {op['detail']}"
        print(f"  {op['name']:<32} {op['median_s'] * 1e3:9.1f} ms  {status}")
    for op in doc["probe"]:
        status = "ok" if op["ok"] else f"known defect: {op['detail']}"
        print(f"  probe {op['name']:<26} {op['seconds'] * 1e3:9.1f} ms  {status}")
    if "trace_closure_s" in doc:
        print(f"  trace closure {doc['trace_closure_s']}")
    for name, m in doc["metrics"].items():
        print(f"{doc['workload']}.{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in its own fresh process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", str(Path(args.out).with_name(f"{Path(args.out).stem}-{name}.json"))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            work = WORK / f"setup-{os.getpid()}"
            try:
                setup(args.workload, args.seed, work)
                ready = time.monotonic()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(json.dumps({"ready": ready}))
            return 0
        if args.workload == "all":
            return run_all(args)
        doc = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print_result(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
