"""Spans around the package's public functions, recorded from outside.

Each wrapper replaces a function under the module attribute its callers
look it up by (``qparrondo.walk.step`` is called from ``evolve_sequence``
through the ``walk`` module's globals, ``evolve_sequence`` from
``scan.game_trajectory`` through ``scan``'s). Spans are kept in memory as
(name, start_ns, end_ns, parent index, run id) and written out at the end.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

from qparrondo import metrics, scan, walk

# (module, attribute, span name): span names are layer.function.
TARGETS = (
    (scan, "run_scan", "scan.run_scan"),
    (scan, "scan_region_grid", "scan.region_grid"),
    (scan, "enumerate_sequences", "scan.enumerate"),
    (scan, "game_trajectory", "scan.game_trajectory"),
    (scan, "evolve_sequence", "walk.evolve"),
    (walk, "make_coin", "walk.make_coin"),
    (walk, "step", "walk.step"),
    (scan, "trajectory_with_entropy", "metrics.trajectory"),
    (metrics, "bias_sample", "metrics.bias"),
    (metrics, "reduced_density", "metrics.density"),
    (metrics, "entanglement_entropy", "metrics.entropy"),
    (scan, "classify", "metrics.classify"),
)


class Tracer:
    """Collects nested spans; one run id per traced top-level call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.run_id = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block, then restore."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self.wrap(name, fn))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layers(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the time its child spans cover) for one traced call."""
        child_ns: dict[int, int] = defaultdict(int)
        mine = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] == run_id]
        for _, (_, start, end, parent, _) in mine:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in mine:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write('["name", "start_ns", "end_ns", "parent", "run_id"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
