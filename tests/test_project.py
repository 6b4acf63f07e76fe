"""The distribution metadata in pyproject.toml names and versions this package."""

from pathlib import Path

import pytest

import qparrondo

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_project_is_qparrondo_at_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "qparrondo"
    assert project["version"] == qparrondo.__version__
