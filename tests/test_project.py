"""The distribution metadata in pyproject.toml names and versions this package
and declares the floors README states."""

import re
from pathlib import Path

import pytest

import qparrondo

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_project_is_qparrondo_at_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "qparrondo"
    assert project["version"] == qparrondo.__version__


def test_readme_states_the_declared_floors():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"Requires Python (\S+)\+ and numpy (\S+)\+", readme)
    assert stated, "README no longer states its Python and numpy floors"
    python, numpy = stated.groups()
    assert project["requires-python"] == f">={python}"
    assert project["dependencies"] == [f"numpy>={numpy}"]
