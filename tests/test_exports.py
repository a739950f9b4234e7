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
    assert set(doc["contour"]) == config._CONTOUR_KEYS
    assert set(doc["truncation"]) == config._TRUNCATION_KEYS
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
