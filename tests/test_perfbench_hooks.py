"""The benchmark drives the package through names it looks up at run time:
its traced pass wraps package functions by module attribute
(``perfbench/spans.py``), and each workload calls the public API and the
CLI (``perfbench/workloads.py``). A name or an option the package no
longer has makes every benchmark run fail; these tests catch it first."""

import importlib.util
import io
import sys
from pathlib import Path

from qparrondo.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    """``perfbench/<name>.py`` as a module, registered in ``sys.modules`` for
    the test: a dataclass looks its own module up there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    spans = load(monkeypatch, "spans")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert spans.TARGETS and not missing


def test_every_workload_writes_through_the_api_what_the_cli_writes(monkeypatch, tmp_path):
    # 70 steps: past the first anchor, and ending within a block of the kernel
    workloads = load(monkeypatch, "workloads")
    for workload in workloads.WORKLOADS:
        for steps in (12, 70):
            for invocation in workloads.build(workload, 0, steps=steps):
                sink = io.StringIO()
                invocation.write(invocation.call(1), sink)
                path = tmp_path / f"{invocation.label}{invocation.suffix}"
                assert main(invocation.argv(str(path))) == 0, (invocation.label, steps)
                assert path.read_text(encoding="utf-8") == sink.getvalue(), (invocation.label, steps)
