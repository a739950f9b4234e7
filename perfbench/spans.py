"""Run-time tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of the ``lsslab`` layers in
memory, on every module attribute that holds them, so every call site's
lookup finds the wrapper; ``uninstall`` puts the originals back.  Nothing
under ``src/lsslab`` is edited.  Spans (name, start, end, parent, op id) are
kept in a list and reduced when the run ends; counters come from call
arguments and return values.

The layers are single-threaded (``threads = 1`` is the config default) and
have no queues or worker pools, so spans nest strictly and there is no
waiting time to record.  ``spectral_model`` and ``config`` are not wrapped:
their time is part of their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

ROOT_SPAN = "bench"
PROBE_PASS = -1  # pass number of the once-per-run known-defect probe


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    pass_no: int
    failed: bool = False


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children[i]) for i, s in enumerate(spans)]


# -- counters fed from arguments and return values ----------------------------


def _count_grid(tr, args, kwargs, out):
    tr.add("stieltjes.s_under_grid.points", np.asarray(args[0]).size)


def _count_solve(tr, args, kwargs, out):
    tr.add("stieltjes.solve_s_under.iterations", out.iterations)


def _count_nodes(tr, args, kwargs, out):
    m = args[1] if len(args) > 1 else kwargs.get("m")
    tr.high("contour.nodes.max_per_edge", args[0].m if m is None else m)


def _count_kernel(tr, args, kwargs, out):
    tr.add("clt_moments.kernel_from_s.cells", np.asarray(out).size)


def _count_gram(tr, args, kwargs, out):
    entries = args[1]
    p, n = entries.shape
    flops = p * p * n * (4 if np.iscomplexobj(entries) else 1)
    tr.add("simulator.assemble_B.gflop_computed", flops / 1e9)


def _count_eigenvalues(tr, args, kwargs, out):
    order = np.asarray(args[0]).shape[0]
    tr.add_order("simulator.eigenvalues", order)
    if tr.inside("simulator.run_experiment"):
        tr.add("simulator.eigenvalues.replicate_calls", 1)


def _count_truncated(tr, args, kwargs, out):
    tr.thresholds.add((tr.pass_no, float(args[1])))


def _count_eigh(tr, args, kwargs, out):
    tr.add_order("diagnostics.eigh", np.asarray(args[0]).shape[0])


# (module, function, counter) for every wrapped layer boundary; the span is
# named "<module>.<function>"
TARGETS = [
    ("stieltjes", "s_under_grid", _count_grid),
    ("stieltjes", "solve_s_under", _count_solve),
    ("stieltjes", "lsd_density", None),
    ("stieltjes", "lss_centering", None),
    ("contour", "integrate", None),
    ("clt_moments", "compute_moments", None),
    ("clt_moments", "variance_with_kernel", None),
    ("clt_moments", "mean_correction", None),
    ("clt_moments", "kernel_from_s", _count_kernel),
    ("simulator", "sample_entries", None),
    ("simulator", "truncate_normalize", None),
    ("simulator", "truncated_moments", _count_truncated),
    ("simulator", "assemble_B", _count_gram),
    ("simulator", "eigenvalues", _count_eigenvalues),
    ("simulator", "lss_centered", None),
    ("simulator", "run_experiment", None),
    ("diagnostics", "ks_to_normal", None),
    ("diagnostics", "fit_rate", None),
    ("diagnostics", "stein_bound_report", None),
    ("diagnostics", "qform_moment", None),
    ("diagnostics", "sigma0_nested_mc", None),
    ("cli", "main", None),
]
SPAN_NAMES = [f"{m}.{f}" for m, f, _ in TARGETS] + ["contour.nodes", "diagnostics.eigh"]


class Tracer:
    """Span and counter recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.orders: dict[tuple[int, str, int], int] = defaultdict(int)
        self.thresholds: set[tuple[int, float]] = set()
        self.op = -1
        self.pass_no = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, self.pass_no))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[(self.pass_no, key)] += value

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def add_order(self, layer: str, order: int) -> None:
        self.orders[(self.pass_no, layer, order)] += 1

    def inside(self, name: str) -> bool:
        """True when a span of this name is open around the current point."""
        return any(self.spans[i].name == name for i in self.stack)

    def wrap(self, name: str, fn, count=None):
        """Span-recording wrapper; ``count(tracer, args, kwargs, result)`` adds counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                self.close(idx, failed)
            if count is not None:
                count(self, args, kwargs, out)
            return out
        return wrapper

    def counting(self, key: str, fn):
        """Call-count-only wrapper for functions too fine-grained to span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[(self.pass_no, key)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` on every loaded lsslab module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lsslab" or mod_name.startswith("lsslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark measures."""
        for module, fname, count in TARGETS:
            mod = importlib.import_module(f"lsslab.{module}")
            original = getattr(mod, fname)
            self._patch_everywhere(original, self.wrap(f"{module}.{fname}", original, count))
        contour = importlib.import_module("lsslab.contour")
        self._set(contour.Contour, "nodes",
                  self.wrap("contour.nodes", contour.Contour.nodes, _count_nodes))
        diagnostics = importlib.import_module("lsslab.diagnostics")
        self._patch_everywhere(diagnostics.stein_solution,
                               self.counting("diagnostics.stein_solution.calls",
                                             diagnostics.stein_solution))
        # numpy's eigh as diagnostics looks it up, np.linalg.eigh, and only there
        linalg = _module_copy(np.linalg, eigh=self.wrap("diagnostics.eigh", np.linalg.eigh,
                                                        _count_eigh))
        self._set(diagnostics, "np", _module_copy(np, linalg=linalg))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _module_copy(module, **overrides) -> types.ModuleType:
    """A stand-in module with the original's attributes, some replaced."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(vars(module))
    copy.__dict__.update(overrides)
    return copy


# -- reduction -----------------------------------------------------------------

# per-layer metrics of the traced run: (name, unit).  Every value is per op
# set: the mean over the traced passes plus the once-per-run probe.
_EXTRA = [
    ("stieltjes.s_under_grid.points", "count"),
    ("stieltjes.solve_s_under.iterations", "count"),
    ("stieltjes.lsd_density.failed", "count"),
    ("contour.integrate.failed", "count"),
    ("contour.nodes.max_per_edge", "count"),
    ("clt_moments.compute_moments.failed", "count"),
    ("clt_moments.kernel_from_s.cells", "count"),
    ("simulator.assemble_B.gflop_computed", "Gflop"),
    ("simulator.eigenvalues.order3_g_computed", "Gn3"),
    ("simulator.eigenvalues.useful_ratio", "ratio"),
    ("simulator.truncated_moments.useful_ratio", "ratio"),
    ("diagnostics.eigh.order3_g_computed", "Gn3"),
    ("diagnostics.stein_solution.calls", "count"),
    ("bench.self_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_items_per_s", "items/s"),
    ("bench.traced_items_per_s", "items/s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.wall_items_per_s", "items/s"),
    ("bench.machine_slowdown", "ratio"),
]
PER_LAYER = ([(f"{n}.calls", "count") for n in SPAN_NAMES]
             + [(f"{n}.self_s", "s") for n in SPAN_NAMES] + _EXTRA)


def reduce(tracer: Tracer, passes: int) -> dict:
    """Per-op-set layer totals: spans and counters of pass k weigh 1/passes, the probe 1."""
    def weight(pass_no: int) -> float:
        return 1.0 if pass_no == PROBE_PASS else 1.0 / passes

    out = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        w = weight(span.pass_no)
        if span.name == ROOT_SPAN:
            out["bench.self_s"] += w * own
            out["bench.traced_wall_s"] += w * (span.end - span.start)
            continue
        out[f"{span.name}.calls"] += w
        out[f"{span.name}.self_s"] += w * own
        out[f"{span.name}.failed"] += w * span.failed
    for (pass_no, key), value in tracer.counters.items():
        out[key] += weight(pass_no) * value
    out.update(tracer.maxima)
    orders: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for (pass_no, layer, order), calls in tracer.orders.items():
        w = weight(pass_no)
        orders[layer][order] += w * calls
        out[f"{layer}.order3_g_computed"] += w * calls * order ** 3 / 1e9
    calls = out["simulator.eigenvalues.calls"]
    out["simulator.eigenvalues.useful_ratio"] = (
        out["simulator.eigenvalues.replicate_calls"] / calls if calls else 0.0)
    distinct = sum(weight(pass_no) for pass_no, _ in tracer.thresholds)
    calls = out["simulator.truncated_moments.calls"]
    out["simulator.truncated_moments.useful_ratio"] = distinct / calls if calls else 0.0
    out["eigensolve_orders"] = {layer: dict(sorted(v.items())) for layer, v in orders.items()}
    return dict(out)
