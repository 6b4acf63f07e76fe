"""The benchmark's traced pass wraps package functions by module attribute
(``perfbench/spans.py``); a name it lists that the package no longer has
makes every traced call fail."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert spans.TARGETS and not missing
