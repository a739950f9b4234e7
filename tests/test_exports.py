import ast
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import lsslab
from lsslab import config


def test_all_has_no_duplicates():
    assert len(lsslab.__all__) == len(set(lsslab.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in lsslab.__all__ if not hasattr(lsslab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from lsslab import *", namespace)
    assert set(lsslab.__all__) <= set(namespace)


def _readme() -> str:
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _readme_sketch() -> str:
    """The ``python`` block under the README's "Library sketch" heading."""
    section = _readme().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _strip_line_comment(line: str) -> str:
    """``line`` up to its first ``//`` outside a JSON string (the block escapes no quote)."""
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif not in_string and line.startswith("//", i):
            return line[:i]
    return line


def test_readme_config_block_is_the_schema():
    # the README's jsonc block lists every config key with its default, so a
    # key the parser drops or a default it changes shows here
    block = _readme().split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads("\n".join(_strip_line_comment(line) for line in block.splitlines()))
    assert set(doc) == config._TOP_KEYS - {"p", "n"}
    assert set(config._SECTION_KEYS) == {"contour", "truncation"}
    for section, keys in config._SECTION_KEYS.items():
        assert set(doc[section]) == keys
    assert {key: doc[key] for key in config._DEFAULTS} == config._DEFAULTS


def test_readme_sketch_runs_and_prints_its_commented_values():
    sketch = _readme_sketch()
    assert "# 0.5, 10.0, < 1" in sketch and "= 96" in sketch
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, "README.md", "exec"), {})
    moments, centering = out.getvalue().splitlines()
    mu, sigma, kernel_max_abs = map(float, moments.split())
    assert mu == pytest.approx(0.5, abs=1e-9)
    assert sigma == pytest.approx(10.0, rel=1e-9)
    assert 0.0 < kernel_max_abs < 1.0
    assert float(centering) == pytest.approx(96.0, rel=1e-9)


def _names_used(source: str) -> set[str]:
    """Every name a module reads, imports or takes as an attribute, docstrings left out."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_by_the_package_or_documented():
    # an export serves another module of the package or the README's reader;
    # one that only tests use belongs in the tests
    package = Path(lsslab.__file__).resolve().parent
    used = {path.stem: _names_used(path.read_text(encoding="utf-8"))
            for path in package.glob("*.py") if path.stem != "__init__"}
    readme = _readme()
    unused = []
    for name in lsslab.__all__:
        home = getattr(getattr(lsslab, name), "__module__", "lsslab").rpartition(".")[2]
        elsewhere = any(name in names for module, names in used.items() if module != home)
        if not elsewhere and not re.search(rf"(?<![\w.]){re.escape(name)}\b", readme):
            unused.append(name)
    assert unused == []


# defaulted parameters of exported functions and methods that no call in the
# package or the benchmark sets, each with the reason it stays
UNSET_DEFAULTS = {
    "sigma0_nested_mc.work_cap_seconds": "a budget: runs keep the default, and the tests "
                                         "lower it to see the run abort before any work",
}


def _defaulted_parameters(func: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each parameter of ``func`` with a default, to its position in a call, None if keyword-only.

    A method's position leaves out ``self`` or ``cls``, as a call through an
    instance or a class does.
    """
    args = func.args
    positional = args.posonlyargs + args.args
    first = 1 if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in func.decorator_list) else 0
    params = {a.arg: i - first for i, a in enumerate(positional)
              if i >= len(positional) - len(args.defaults)}
    params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None})
    return params


def _exported_defaults() -> list[tuple[str, str, str, int | None]]:
    """Every defaulted parameter of an exported function or method.

    Each is ``(qualified name, the name a call uses, parameter, position)``.
    """
    package = Path(lsslab.__file__).resolve().parent
    exported = set(lsslab.__all__)
    found = []
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                funcs = [(node.name, node, False)]
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                funcs = [(f"{node.name}.{item.name}", item, True) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            found += [(qualname, func.name, param, position) for qualname, func, method in funcs
                      for param, position in _defaulted_parameters(func, method).items()]
    return found


def _calls(paths) -> list[ast.Call]:
    return [node for path in paths for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Call)]


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by ``**``, by position or by ``*args``."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > position)


def test_every_option_has_a_caller():
    # an option that no run, CLI kind or benchmark op sets is code no run
    # reaches; one that stays anyway is listed in UNSET_DEFAULTS with why
    root = Path(lsslab.__file__).resolve().parents[2]
    calls = _calls([*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py")])
    by_name = {}
    for call in calls:
        by_name.setdefault(getattr(call.func, "id", None) or getattr(call.func, "attr", None),
                           []).append(call)
    unset = [f"{qualname}.{param}" for qualname, name, param, position in _exported_defaults()
             if not any(_sets(c, param, position) for c in by_name.get(name, []))]
    assert sorted(unset) == sorted(UNSET_DEFAULTS)
