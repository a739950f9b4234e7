"""Run configuration: JSON parsing, validation, defaults, serialization.

Configs are UTF-8 JSON objects with nested sections.  Every field has a
documented default except ``kind``; unknown keys are rejected with the path
to the offending entry, as are type and constraint violations and numbers
a float cannot hold (``NaN``, ``Infinity``, ``1e999``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .contour import build_contour
from .diagnostics import _QFORM_CHUNK
from .errors import ConstraintViolation, MissingRequired, TypeMismatch, UnknownKey
from .simulator import DENSE, MAX_ENTRIES, realized_spectrum, replicate_sampler
from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction

KINDS = ("lsd", "moments", "simulate", "ks-rate", "stein-check", "probe-qform")

_DEFAULTS = {
    "spectrum": "identity",
    "y": 0.5,
    "ensemble": "RG",
    "f": "x^2",
    "contour": {"eps": None},  # contour.eps; None = default_margin
    "replicates": 200,
    "root_seed": 12345,
    "truncation": {"mode": "off", "eta": None},
    "out": None,  # resolved by the CLI (flag, then LSSLAB_OUT, then cwd)
    "cost_cap_seconds": 3600.0,
    "grid_points": 400,     # lsd density dump / stein sweep grid
    "contexts": 20,         # stein-check random contexts
    "k": 2,                 # probe-qform moment order
    "matrix_kind": "fixed_psd",
}
# every key of the config: the defaulted ones and those without a default
_TOP_KEYS = {"kind", "p", "n", "n_grid"} | set(_DEFAULTS)
# the keys of each section, from its default
_SECTION_KEYS = {key: set(value) for key, value in _DEFAULTS.items() if isinstance(value, dict)}

_MONO_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?P<coeff>\d*\.?\d+(?:[eE][+-]?\d+)?)?\s*\*?\s*"
    r"(?P<x>x(?:\^(?P<power>\d+))?)?\s*$"
)


def parse_test_function(value) -> TestFunction:
    """Accepts "log", a monomial-sum string like "x^3+0.5*x", or {"poly": [...]}."""
    if isinstance(value, dict):
        if set(value) != {"poly"}:
            raise TypeMismatch(f"f object must be {{'poly': [...]}}, got {sorted(value)}")
        coeffs = value["poly"]
        if (not isinstance(coeffs, list) or not coeffs
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)):
            raise TypeMismatch("f.poly must be a nonempty list of numbers")
        return TestFunction.polynomial([float(c) for c in coeffs])
    if not isinstance(value, str):
        raise TypeMismatch(f"f must be a string or {{'poly': [...]}}, got {type(value).__name__}")
    text = value.strip().lower()
    if text == "log":
        return TestFunction.log()
    terms = re.split(r"(?<![eE])(?=[+-])", text.replace(" ", ""))
    coeffs: dict[int, float] = {}
    for term in terms:
        if not term:
            continue
        m = _MONO_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise ConstraintViolation(f"cannot parse test function term {term!r} in {value!r}")
        coeff = float(_finite_number(m.group("coeff"))) if m.group("coeff") is not None else 1.0
        if m.group("sign") == "-":
            coeff = -coeff
        power = 0
        if m.group("x"):
            power = int(m.group("power")) if m.group("power") else 1
        coeffs[power] = coeffs.get(power, 0.0) + coeff
    degree = max(coeffs)
    return TestFunction.polynomial([coeffs.get(i, 0.0) for i in range(degree + 1)])


def serialize_test_function(f: TestFunction):
    return "log" if f.kind == "log" else {"poly": list(f.coeffs)}


def parse_spectrum(value) -> PopulationSpectrum:
    """"identity" or a list of {"atom": t, "weight": w} pairs."""
    if value == "identity":
        return PopulationSpectrum.identity()
    if not isinstance(value, list) or not value:
        raise TypeMismatch("spectrum must be 'identity' or a nonempty list of pairs")
    pairs = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict) or set(entry) != {"atom", "weight"}:
            raise TypeMismatch(f"spectrum[{i}] must be an object with keys atom, weight")
        pairs.append((entry["atom"], entry["weight"]))
    try:
        return PopulationSpectrum.from_pairs(pairs)
    except ValueError as exc:
        raise ConstraintViolation(f"spectrum: {exc}") from exc


def serialize_spectrum(sp: PopulationSpectrum):
    if sp.atoms == ((1.0, 1.0),):
        return "identity"
    return [{"atom": t, "weight": w} for t, w in sp.atoms]


def parse_ensemble(value) -> EntryEnsemble:
    if value == "RG":
        return EntryEnsemble.real_gaussian()
    if value == "CG":
        return EntryEnsemble.complex_gaussian()
    if isinstance(value, dict):
        name = value.get("name")
        if name == "rademacher":
            if set(value) != {"name"}:
                raise UnknownKey(f"ensemble.rademacher takes no extra keys: {sorted(value)}")
            return EntryEnsemble.rademacher()
        if name == "student_t":
            extra = set(value) - {"name", "df"}
            if extra:
                raise UnknownKey(f"unknown ensemble keys {sorted(extra)}")
            df = _expect(value.get("df", 11.0), (int, float), "ensemble.df")
            try:
                return EntryEnsemble.student_t(float(df))
            except ValueError as exc:
                raise ConstraintViolation(f"ensemble.df: {exc}") from exc
        raise ConstraintViolation(f"unknown custom ensemble name {name!r}")
    raise TypeMismatch(f"ensemble must be 'RG', 'CG' or an object, got {value!r}")


def serialize_ensemble(e: EntryEnsemble):
    if e.variant in ("RG", "CG"):
        return e.variant
    if e.name == "rademacher":
        return {"name": "rademacher"}
    if e.df is not None:
        return {"name": "student_t", "df": e.df}
    raise ValueError(f"ensemble {e.name!r} has no config form")


@dataclass(frozen=True)
class RunConfig:
    kind: str
    spectrum: PopulationSpectrum
    y: float
    p: int | None
    n: int | None
    n_grid: tuple[int, ...] | None
    ensemble: EntryEnsemble
    f: TestFunction
    eps: float | None  # contour.eps
    replicates: int
    root_seed: int
    truncation_mode: str
    truncation_eta: float | None
    out: str | None
    cost_cap_seconds: float
    grid_points: int
    contexts: int
    k: int
    matrix_kind: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spectrum": serialize_spectrum(self.spectrum),
            "y": self.y,
            "p": self.p,
            "n": self.n,
            "n_grid": list(self.n_grid) if self.n_grid is not None else None,
            "ensemble": serialize_ensemble(self.ensemble),
            "f": serialize_test_function(self.f),
            "contour": {"eps": self.eps},
            "replicates": self.replicates,
            "root_seed": self.root_seed,
            "truncation": {"mode": self.truncation_mode, "eta": self.truncation_eta},
            "out": self.out,
            "cost_cap_seconds": self.cost_cap_seconds,
            "grid_points": self.grid_points,
            "contexts": self.contexts,
            "k": self.k,
            "matrix_kind": self.matrix_kind,
        }


def _expect(value, types, path: str):
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise TypeMismatch(f"{path}: expected {types}, got bool")
    if not isinstance(value, types):
        raise TypeMismatch(f"{path}: expected {types}, got {type(value).__name__}")
    return value


def _positive(value, path: str) -> float:
    value = float(_expect(value, (int, float), path))
    if value <= 0:
        raise ConstraintViolation(f"{path} must be positive")
    return value


def _finite_number(text: str) -> int | float:
    value = float(text)
    if not math.isfinite(value):
        raise TypeMismatch(f"config number {text} is not finite; numbers must be finite")
    return int(text) if text.lstrip("-").isdigit() else value


def _section(raw: dict, key: str) -> dict:
    """Section ``key`` of the config, its missing keys filled from its default."""
    value = _expect(raw.get(key, _DEFAULTS[key]), dict, key)
    unknown = set(value) - _SECTION_KEYS[key]
    if unknown:
        raise UnknownKey(f"unknown {key} keys: {sorted(unknown)}")
    return {**_DEFAULTS[key], **value}


def _largest_array(kind: str, drawn: dict, spectrum: PopulationSpectrum,
                   ensemble: EntryEnsemble, truncated: bool, replicates: int, grid_points: int,
                   matrix_kind: str) -> tuple[str, dict]:
    """What sizes the largest array a run allocates, and its entries at each value of that.

    ``drawn`` maps each ``(p, n)`` a run draws at to the ``H_p`` it draws there.
    """
    if kind in ("simulate", "ks-rate"):
        # a dense replicate's p x n entries and p x p Gram matrix; the bidiagonal
        # model draws O(min(p, n)) and keeps the p x n bound of run_experiment
        return "(p, n)", {(q, m): q * max(q, m)
                          if truncated or replicate_sampler(ensemble, h) == DENSE else q * m
                          for (q, m), h in drawn.items()}
    if kind == "probe-qform" and matrix_kind == "resolvent":
        # B's p x n entries, its p x p inverse, then blocks of p x min(replicates,
        # _QFORM_CHUNK) probe entries
        block = min(replicates, _QFORM_CHUNK)
        return "(p, n)", {(q, m): q * max(q, m, block) for q, m in drawn}
    if kind == "lsd":  # one (K + 1) x (K + 1) arrowhead matrix per point, K nonzero atoms
        k = sum(t != 0 for t, _ in spectrum.atoms)
        return "(grid_points, K)", {(grid_points, k): grid_points * (k + 1) ** 2}
    if kind == "stein-check":
        return "grid_points", {grid_points: grid_points}
    return "", {}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config, filling documented defaults."""
    try:
        raw = json.loads(text, parse_float=_finite_number, parse_int=_finite_number,
                         parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise TypeMismatch(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise TypeMismatch("config must be a JSON object")

    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise UnknownKey(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in raw:
        raise MissingRequired("config is missing the required field 'kind'")
    kind = _expect(raw["kind"], str, "kind")
    if kind not in KINDS:
        raise ConstraintViolation(f"kind: {kind!r} not one of {list(KINDS)}")

    def get(key):
        return raw.get(key, _DEFAULTS.get(key))

    spectrum = parse_spectrum(get("spectrum"))
    ensemble = parse_ensemble(get("ensemble"))
    f = parse_test_function(get("f"))

    p = raw.get("p")
    n = raw.get("n")
    y = raw.get("y")
    if p is not None or n is not None:
        if p is None or n is None:
            raise MissingRequired("p and n must be given together")
        p = _expect(p, int, "p")
        n = _expect(n, int, "n")
        if p < 1 or n < 1:
            raise ConstraintViolation("p and n must be positive")
        derived_y = p / n
        if y is not None and abs(_expect(y, (int, float), "y") - derived_y) > 1e-12:
            raise ConstraintViolation(f"y={y} inconsistent with p/n={derived_y}")
        y = derived_y
    else:
        y = _positive(_DEFAULTS["y"] if y is None else y, "y")

    n_grid = raw.get("n_grid")
    if n_grid is not None:
        if not isinstance(n_grid, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in n_grid):
            raise TypeMismatch("n_grid must be a list of integers")
        if len(n_grid) < 1:
            raise ConstraintViolation("n_grid must be nonempty")
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ConstraintViolation("n_grid: values must be strictly increasing")
        n_grid = tuple(n_grid)
    if kind == "simulate" and (p is None or n is None):
        raise MissingRequired("simulate needs explicit p and n")
    if kind in ("moments", "simulate", "ks-rate", "probe-qform") and spectrum.max_eigenvalue == 0.0:
        raise ConstraintViolation(f"{kind} needs a nonzero atom: B = 0 makes each statistic p f(0)")
    if kind in ("simulate", "ks-rate") and f.is_constant:
        raise ConstraintViolation(f"{kind} needs a nonconstant f: a constant statistic "
                                  f"has variance 0 and cannot be normalized")
    # E|x|^4 = 1 with E|x|^2 = 1 means |x|^2 = 1 for every entry, so tr B = tr T
    if kind in ("simulate", "ks-rate") and ensemble.fourth_moment == 1.0 and f.degree == 1:
        raise ConstraintViolation(
            f"{kind} with {ensemble.name} entries needs f of degree >= 2: every entry has "
            f"|x|^2 = 1, so the statistic of an affine f, a tr B + b p with tr B = tr T, "
            f"is the same in every replicate and cannot be normalized")
    if kind in ("ks-rate", "probe-qform"):
        if n_grid is None:
            raise MissingRequired(f"{kind} needs n_grid")
        empty = [n for n in n_grid if round(y * n) < 1]
        if empty:
            raise ConstraintViolation(f"n_grid: p = round(y*n) is 0 at n={empty} for y={y}")
        # the rate fit needs 3 points for its bootstrap, the slope 2 for a line
        least = 3 if kind == "ks-rate" else 2
        if len(n_grid) < least:
            raise ConstraintViolation(f"n_grid: {kind} needs at least {least} sizes, "
                                      f"got {len(n_grid)}")
    # the (p, n) a run draws at, p = round(y*n) at each n of a grid, and the
    # spectrum H_p of the T_p it draws there
    drawn = {}
    if kind in ("simulate", "ks-rate", "probe-qform"):
        dims = [(p, n)] if kind == "simulate" else [(round(y * m), m) for m in n_grid]
        drawn = {(q, m): realized_spectrum(spectrum, q) for q, m in dims}

    eps = _section(raw, "contour")["eps"]
    if eps is not None:
        eps = _positive(eps, "contour.eps")
    if kind in ("moments", "simulate", "ks-rate"):
        # build_contour raises at a law the run integrates over: FlatContour when
        # eps is too small, and for log LogDomain when its contour cannot enclose
        # the bulk (p >= n, a zero atom or too large an eps)
        laws = dict.fromkeys((h, q / m) for (q, m), h in drawn.items()) or [(spectrum, y)]
        for h, ratio in sorted(laws, key=lambda law: law[1]):
            build_contour(h, ratio, eps, f=f)
    zero = [m for (_, m), h in drawn.items() if h.max_eigenvalue == 0.0]
    if zero:
        # the apportioned counts give every entry to zero atoms, so B = 0
        raise ConstraintViolation(f"{'' if kind == 'simulate' else 'n_grid: '}all p = "
                                  f"round(y*n) population entries are 0 at n={zero} for "
                                  f"y={y}: B = 0 there, so the run has nothing to measure")

    truncation = _section(raw, "truncation")
    trunc_mode, trunc_eta = truncation["mode"], truncation["eta"]
    if trunc_mode not in ("off", "on"):
        raise ConstraintViolation("truncation.mode must be 'off' or 'on'")
    if trunc_eta is not None:
        trunc_eta = _positive(trunc_eta, "truncation.eta")
        if trunc_mode == "off":
            raise ConstraintViolation("truncation.eta is set but truncation.mode is 'off'; "
                                      "set mode 'on' or drop eta")

    replicates = _expect(get("replicates"), int, "replicates")
    if replicates < 1:
        raise ConstraintViolation("replicates must be >= 1")
    root_seed = _expect(get("root_seed"), int, "root_seed")
    if not 0 <= root_seed < 2**64:
        raise ConstraintViolation("root_seed must fit in 64 unsigned bits")
    cost_cap = _positive(get("cost_cap_seconds"), "cost_cap_seconds")
    grid_points = _expect(get("grid_points"), int, "grid_points")
    if grid_points < 2:
        raise ConstraintViolation("grid_points must be >= 2")
    contexts = _expect(get("contexts"), int, "contexts")
    if contexts < 1:
        raise ConstraintViolation("contexts must be >= 1")
    k = _expect(get("k"), int, "k")
    if k not in (2, 4):
        raise ConstraintViolation("k must be 2 or 4")
    matrix_kind = _expect(get("matrix_kind"), str, "matrix_kind")
    if matrix_kind not in ("fixed_psd", "resolvent"):
        raise ConstraintViolation("matrix_kind must be 'fixed_psd' or 'resolvent'")
    by, sizes = _largest_array(kind, drawn, spectrum, ensemble, trunc_mode == "on", replicates,
                               grid_points, matrix_kind)
    large = [at for at, size in sizes.items() if size > MAX_ENTRIES]
    if large:
        raise ConstraintViolation(f"{kind}'s largest array is over the memory budget "
                                  f"{MAX_ENTRIES} entries at {by} = {large}")
    out = raw.get("out", _DEFAULTS["out"])
    if out is not None:
        out = _expect(out, str, "out")

    return RunConfig(
        kind=kind, spectrum=spectrum, y=float(y), p=p, n=n, n_grid=n_grid,
        ensemble=ensemble, f=f,
        eps=eps,
        replicates=replicates, root_seed=root_seed,
        truncation_mode=trunc_mode, truncation_eta=trunc_eta,
        out=out, cost_cap_seconds=cost_cap,
        grid_points=grid_points, contexts=contexts, k=k, matrix_kind=matrix_kind,
    )
