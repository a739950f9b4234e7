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
from dataclasses import dataclass, field

from .contour import DEFAULT_V0, build_contour
from .errors import ConstraintViolation, MissingRequired, TypeMismatch, UnknownKey
from .simulator import MAX_ENTRIES, population_diagonal
from .spectral_model import EntryEnsemble, PopulationSpectrum, TestFunction

KINDS = ("lsd", "moments", "simulate", "ks-rate", "stein-check", "probe-qform")

_TOP_KEYS = {
    "kind", "spectrum", "spectrum_allow_large", "y", "p", "n", "n_grid",
    "ensemble", "f", "contour", "replicates", "root_seed",
    "truncation", "out", "cost_cap_seconds",
    "grid_points", "contexts", "k", "matrix_kind",
}
_CONTOUR_KEYS = {"eps", "v0"}
_TRUNCATION_KEYS = {"mode", "eta"}

_DEFAULTS = {
    "spectrum": "identity",
    "spectrum_allow_large": False,
    "y": 0.5,
    "ensemble": "RG",
    "f": "x^2",
    "contour": {"eps": None, "v0": DEFAULT_V0},
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


def parse_spectrum(value, allow_large: bool) -> PopulationSpectrum:
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
        return PopulationSpectrum.from_pairs(pairs, allow_large_atoms=allow_large)
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
class ContourParams:
    eps: float | None
    v0: float


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
    contour: ContourParams
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
    spectrum_allow_large: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spectrum": serialize_spectrum(self.spectrum),
            "spectrum_allow_large": self.spectrum_allow_large,
            "y": self.y,
            "p": self.p,
            "n": self.n,
            "n_grid": list(self.n_grid) if self.n_grid is not None else None,
            "ensemble": serialize_ensemble(self.ensemble),
            "f": serialize_test_function(self.f),
            "contour": {"eps": self.contour.eps, "v0": self.contour.v0},
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

    allow_large = _expect(get("spectrum_allow_large"), bool, "spectrum_allow_large")
    spectrum = parse_spectrum(get("spectrum"), allow_large)
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
    if kind in ("ks-rate", "probe-qform"):
        if n_grid is None:
            raise MissingRequired(f"{kind} needs n_grid")
        empty = [n for n in n_grid if round(y * n) < 1]
        if empty:
            raise ConstraintViolation(f"n_grid: p = round(y*n) is 0 at n={empty} for y={y}")
        if kind == "probe-qform":
            # the probe's T is population_diagonal at each n: all zero, its moment is 0
            zero = [n for n in n_grid if not population_diagonal(spectrum, round(y * n)).any()]
            if zero:
                raise ConstraintViolation(f"n_grid: all p = round(y*n) population entries are "
                                          f"0 at n={zero} for y={y}, so the probed moment is 0 "
                                          f"and its log undefined")
        # the rate fit needs 3 points for its bootstrap, the slope 2 for a line
        least = 3 if kind == "ks-rate" else 2
        if len(n_grid) < least:
            raise ConstraintViolation(f"n_grid: {kind} needs at least {least} sizes, "
                                      f"got {len(n_grid)}")
    # replicates hold p x n entries, p = round(y*n) at each n of a ks-rate grid
    dims = {"simulate": [(p, n)], "ks-rate": [(round(y * m), m) for m in n_grid or ()]}
    large = [(q, m) for q, m in dims.get(kind, []) if q * m > MAX_ENTRIES]
    if large:
        raise ConstraintViolation(f"p*n over the memory budget {MAX_ENTRIES} at (p, n) = {large}")

    contour_raw = get("contour")
    _expect(contour_raw, dict, "contour")
    unknown = set(contour_raw) - _CONTOUR_KEYS
    if unknown:
        raise UnknownKey(f"unknown contour keys: {sorted(unknown)}")
    eps = contour_raw.get("eps", _DEFAULTS["contour"]["eps"])
    if eps is not None:
        eps = _positive(eps, "contour.eps")
    v0 = _positive(contour_raw.get("v0", _DEFAULTS["contour"]["v0"]), "contour.v0")
    if f.kind == "log" and kind in ("moments", "simulate", "ks-rate"):
        # build_contour raises LogDomain when log's contour cannot enclose the bulk
        # at a ratio the run integrates at: p >= n, a zero atom or too large an eps
        for ratio in [q / m for q, m in dims["ks-rate"]] if kind == "ks-rate" else [y]:
            build_contour(spectrum, ratio, eps, v0, f=f)

    trunc_raw = get("truncation")
    _expect(trunc_raw, dict, "truncation")
    unknown = set(trunc_raw) - _TRUNCATION_KEYS
    if unknown:
        raise UnknownKey(f"unknown truncation keys: {sorted(unknown)}")
    trunc_mode = trunc_raw.get("mode", "off")
    if trunc_mode not in ("off", "on"):
        raise ConstraintViolation("truncation.mode must be 'off' or 'on'")
    trunc_eta = trunc_raw.get("eta")
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
    out = raw.get("out", _DEFAULTS["out"])
    if out is not None:
        out = _expect(out, str, "out")

    return RunConfig(
        kind=kind, spectrum=spectrum, y=float(y), p=p, n=n, n_grid=n_grid,
        ensemble=ensemble, f=f,
        contour=ContourParams(eps=eps, v0=v0),
        replicates=replicates, root_seed=root_seed,
        truncation_mode=trunc_mode, truncation_eta=trunc_eta,
        out=out, cost_cap_seconds=cost_cap,
        grid_points=grid_points, contexts=contexts, k=k, matrix_kind=matrix_kind,
        spectrum_allow_large=allow_large,
    )
