"""CSV and JSON emitters for trajectories, scan reports, and region grids.

Output is deterministic byte-for-byte: fixed key order, fixed float
formatting, ``\\n`` line endings. CSV carries full-precision decimals so
external plotting loses nothing. JSON is strict: a NaN or infinity raises
``ValueError`` instead of being written as ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import json
from dataclasses import astuple, fields
from itertools import count
from typing import Any, Iterator, TextIO, get_type_hints

from .metrics import BiasTrajectory, GameVerdict
from .scan import RegionGrid, ScanConfig, ScanReport, SequenceResult
from .walk import CoinParams, GameSequence

__all__ = [
    "TRAJECTORY_CSV_HEADER",
    "write_trajectory_csv",
    "write_trajectory_json",
    "write_scan_json",
    "read_scan_json",
    "write_region_json",
]

TRAJECTORY_CSV_HEADER = "step,p_left,p_origin,p_right,bias,entropy"
_TRAJECTORY_KEYS = TRAJECTORY_CSV_HEADER.split(",")

_FLOAT_FORMAT = ".12e"  # 13 significant digits


def _fmt(value: float) -> str:
    return format(value, _FLOAT_FORMAT)


def _trajectory_rows(trajectory: BiasTrajectory) -> Iterator[tuple[Any, ...]]:
    """Per step, its number and its value in each trajectory column, as Python numbers."""
    return zip(count(1), *(getattr(trajectory, key).tolist() for key in _TRAJECTORY_KEYS[1:]))


def write_trajectory_csv(trajectory: BiasTrajectory, sink: TextIO) -> None:
    """Write one row per step under a fixed header."""
    sink.write(TRAJECTORY_CSV_HEADER + "\n")
    for step, *values in _trajectory_rows(trajectory):
        sink.write(f"{step},{','.join(map(_fmt, values))}\n")


def _to_json(value: Any) -> Any:
    if isinstance(value, CoinParams):
        return list(astuple(value))
    if isinstance(value, GameSequence):
        return value.tokens
    if isinstance(value, GameVerdict):
        return value.value
    return value


def _from_json(kind: type, value: Any) -> Any:
    if kind is CoinParams:
        return CoinParams(*value)
    if kind in (GameSequence, GameVerdict):
        return kind(value)
    return value


def _record_to_dict(record: Any) -> dict[str, Any]:
    """A dataclass's fields in declaration order, as JSON values: coins as
    angle lists, sequences as token strings, verdicts by name."""
    return {f.name: _to_json(getattr(record, f.name)) for f in fields(record)}


def _record_from_dict(cls: type, data: dict[str, Any]) -> Any:
    kinds = get_type_hints(cls)
    return cls(**{f.name: _from_json(kinds[f.name], data[f.name]) for f in fields(cls)})


def write_trajectory_json(trajectory: BiasTrajectory, sink: TextIO) -> None:
    """JSON equivalent of the CSV trajectory, plus run metadata."""
    document = {
        "metadata": dict(trajectory.metadata),
        "samples": [dict(zip(_TRAJECTORY_KEYS, row)) for row in _trajectory_rows(trajectory)],
    }
    json.dump(document, sink, indent=2, allow_nan=False)
    sink.write("\n")


def write_scan_json(report: ScanReport, sink: TextIO) -> None:
    """Serialize a scan report as one JSON document.

    Keys, in order: ``config`` (the fields of :class:`ScanConfig`),
    ``verdict_a``, ``verdict_b``, ``results`` (objects with the fields of
    :class:`SequenceResult`: ``sequence``, ``verdict``, ``final_bias``,
    ``min_bias``, ``max_entropy``, in enumeration order),
    ``paradox_sequences``, and ``winning_by_period``.
    """
    document = {
        "config": _record_to_dict(report.config),
        "verdict_a": report.verdict_a.value,
        "verdict_b": report.verdict_b.value,
        "results": [_record_to_dict(r) for r in report.results],
        "paradox_sequences": list(report.paradox_sequences),
        "winning_by_period": {str(p): n for p, n in report.winning_by_period.items()},
    }
    json.dump(document, sink, indent=2, allow_nan=False)
    sink.write("\n")


def read_scan_json(source: TextIO) -> ScanReport:
    """Parse a document produced by :func:`write_scan_json`."""
    data = json.load(source)
    return ScanReport(
        config=_record_from_dict(ScanConfig, data["config"]),
        verdict_a=GameVerdict(data["verdict_a"]),
        verdict_b=GameVerdict(data["verdict_b"]),
        results=tuple(_record_from_dict(SequenceResult, entry) for entry in data["results"]),
        paradox_sequences=tuple(data["paradox_sequences"]),
        winning_by_period={int(p): n for p, n in data["winning_by_period"].items()},
    )


def write_region_json(grid: RegionGrid, base: ScanConfig, sink: TextIO) -> None:
    """Serialize a region sweep: base config, axes, and both cell grids."""
    document = {
        "config": _record_to_dict(base),
        "axes": [
            {"parameter": axis.parameter, "values": list(axis.values)}
            for axis in grid.axes
        ],
        "paradox": grid.paradox.tolist(),
        "winning_counts": grid.winning_counts.tolist(),
    }
    json.dump(document, sink, indent=2, allow_nan=False)
    sink.write("\n")
