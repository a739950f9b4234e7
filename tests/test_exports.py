import contextlib
import io
from pathlib import Path

import pytest

import lsslab


def test_all_has_no_duplicates():
    assert len(lsslab.__all__) == len(set(lsslab.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in lsslab.__all__ if not hasattr(lsslab, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from lsslab import *", namespace)
    assert set(lsslab.__all__) <= set(namespace)


def _readme_sketch() -> str:
    """The ``python`` block under the README's "Library sketch" heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
