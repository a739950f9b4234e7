#!/usr/bin/env python3
"""Record the reference values the moments and density gates compare against.

    python3 perfbench/record_reference.py

Runs every moments and density op once through ``lsslab.cli.main`` and
writes their mu/sigma and density values to ``perfbench/reference.json``.
The checked-in file was recorded from the program at the commit that added
the benchmark; re-record only when a change is meant to move these values,
and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    lab = run.import_lab()
    work = run.WORK / f"reference-{os.getpid()}"
    reference = {}
    try:
        for name in ("moments", "density"):
            wl = workloads.build(name, seed=0)
            for i, op in enumerate(wl.ops):
                prep = run.prepare(op, i, work / name, lab)
                if prep.call() != 0:
                    raise SystemExit(f"{op.name} failed; nothing recorded")
                out = workloads.read_outcome(op.kind, prep.out_dir)
                if op.kind == "moments":
                    reference[op.name] = {"mu": out.summary["mu"], "sigma": out.summary["sigma"]}
                else:
                    reference[op.name] = {"density": [float(r[1]) for r in out.rows]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(reference)} ops to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
