#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 --first-seed 101 --out perfbench/baseline

Runs the benchmark ``--runs`` times per workload, each with its own seed,
and reports every end-to-end metric's median and quartiles and its spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
must stay within the metric's bound (``setup_s`` is exempt) and is called
steady below a third of it.  With ``--out``, each workload's runs and
summary are written to ``<out>/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    """Median, quartiles and quartile spread as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def judge(summary: dict, bound: float, exempt: bool) -> str:
    if exempt:
        return "exempt"
    if summary["spread"] > bound:
        return "TOO WIDE"
    return "steady" if summary["spread"] < bound / 3.0 else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    failed = False
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            with tempfile.TemporaryDirectory() as tmp:
                doc_path = Path(tmp) / "doc.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0", "--out", str(doc_path)]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                runs.append(json.loads(doc_path.read_text(encoding="utf-8")))
            last = runs[-1]
            print(f"{name} seed {seed}: correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summarize(values)
            s["bound"] = metric["bound"]
            s["verdict"] = judge(s, metric["bound"], metric["name"] == "setup_s")
            failed |= s["verdict"] == "TOO WIDE"
            summary[metric["name"]] = s
            print(f"  {name}.{metric['name']}: median {s['median']:.5g} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.4f} "
                  f"bound {metric['bound']} -> {s['verdict']}", flush=True)
        failed |= not all(r["correct"] for r in runs)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.json").write_text(
                json.dumps({"workload": name, "summary": summary, "runs": runs}, indent=1) + "\n",
                encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
