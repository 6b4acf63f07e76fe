"""CSV and JSON emitters for trajectories, scan reports, and region grids.

Output is deterministic byte-for-byte: fixed key order, fixed float
formatting, ``\\n`` line endings. CSV carries full-precision decimals so
external plotting loses nothing. JSON is strict: a NaN or infinity raises
``ValueError`` instead of being written as ``NaN`` or ``Infinity``, and a
writer given a record of another kind raises ``InvalidParameterError``.

Scan and grid documents are derived from the records: their keys are the
fields of ``ScanReport``, ``ScanConfig``, ``SequenceResult``,
``RegionGrid`` and ``GridAxis`` in declaration order. ``read_scan_json``
parses a scan's config, pure verdicts and results, builds its report from
them, and reads only what ``write_scan_json`` writes for that report.
"""

from __future__ import annotations

import json
from dataclasses import astuple, fields, is_dataclass
from itertools import count
from typing import Any, Iterator, TextIO, get_type_hints

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .metrics import BiasTrajectory, GameVerdict
from .scan import RegionGrid, ScanConfig, ScanReport, SequenceResult, enumerate_sequences
from .walk import CoinParams, GameSequence, _checked, check_real

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

_CSV_ROW = "%d," + ",".join(["%.12e"] * 5) + "\n"  # 13 significant digits


def _trajectory_rows(trajectory: BiasTrajectory) -> Iterator[tuple[Any, ...]]:
    """Per step, its number and its value in each trajectory column, as Python numbers."""
    return zip(count(1), *(getattr(trajectory, key).tolist() for key in _TRAJECTORY_KEYS[1:]))


def write_trajectory_csv(trajectory: BiasTrajectory, sink: TextIO) -> None:
    """Write one row per step under a fixed header."""
    _checked(trajectory, BiasTrajectory)
    sink.write(TRAJECTORY_CSV_HEADER + "\n")
    for row in _trajectory_rows(trajectory):
        sink.write(_CSV_ROW % row)


def _to_json(value: Any) -> Any:
    """A value as JSON: coins as angle lists, sequences as token strings,
    verdicts by name, other dataclasses as objects of their fields in
    declaration order, dict keys as strings, and tuples, lists and arrays as
    lists."""
    if isinstance(value, CoinParams):
        return list(astuple(value))
    if isinstance(value, GameSequence):
        return value.tokens
    if isinstance(value, GameVerdict):
        return value.value
    if is_dataclass(value):
        return _to_json({f.name: getattr(value, f.name) for f in fields(value)})
    if isinstance(value, dict):
        return {str(key): _to_json(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    return value


def _from_json(kind: Any, value: Any, name: str) -> Any:
    """The inverse of :func:`_to_json` for a value ``name`` of the declared
    type ``kind``; a float must be finite, and a config checks its other fields."""
    if kind is CoinParams:
        return CoinParams(*value)
    if kind in (GameSequence, GameVerdict):
        return kind(value)
    if kind is float:
        return check_real(name, value)
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        return kind(**{f.name: _from_json(hints[f.name], value[f.name], f.name)
                       for f in fields(kind)})
    return value


def _dump(document: Any, sink: TextIO) -> None:
    json.dump(document, sink, indent=2, allow_nan=False)
    sink.write("\n")


def write_trajectory_json(trajectory: BiasTrajectory, sink: TextIO) -> None:
    """JSON equivalent of the CSV trajectory, plus run metadata."""
    _dump({
        "metadata": dict(_checked(trajectory, BiasTrajectory).metadata),
        "samples": [dict(zip(_TRAJECTORY_KEYS, row)) for row in _trajectory_rows(trajectory)],
    }, sink)


def write_scan_json(report: ScanReport, sink: TextIO) -> None:
    """Serialize a scan report as one JSON document whose keys are the
    fields of :class:`ScanReport`, with ``config`` and each of ``results``
    an object of the fields of :class:`ScanConfig` and :class:`SequenceResult`."""
    _dump(_to_json(_checked(report, ScanReport)), sink)


def read_scan_json(source: TextIO) -> ScanReport:
    """Parse a document produced by :func:`write_scan_json`: its ``config``,
    ``verdict_a``, ``verdict_b`` and ``results``, from which a
    :class:`ScanReport` is built, deriving its paradox list and counts.

    Raises
    ------
    InvalidParameterError
        If the source is not JSON, those fields are not a scan's (a horizon
        over ``walk.MAX_STEPS`` included), the results are not those of
        ``enumerate_sequences(max_period)`` in order, or the document is not,
        value for value and type for type, what :func:`write_scan_json`
        writes for the report built.
    """
    try:
        document = json.load(source)
        config = _from_json(ScanConfig, document["config"], "config")
        results = tuple(_from_json(SequenceResult, r, "result") for r in document["results"])
        if [r.sequence for r in results] != enumerate_sequences(config.max_period):
            raise ValueError("results must be the enumerated schedules, in order")
        report = ScanReport(config, GameVerdict(document["verdict_a"]),
                            GameVerdict(document["verdict_b"]), results)
        if json.dumps(_to_json(report)) != json.dumps(document):  # a float 1.0 is not an int 1
            raise ValueError("the document is not what write_scan_json writes for its report")
    except (AttributeError, CapacityError, KeyError, TypeError, ValueError) as exc:  # bad JSON too
        raise InvalidParameterError(f"not a scan report document: {exc!r}") from exc
    return report


def write_region_json(grid: RegionGrid, base: ScanConfig, sink: TextIO) -> None:
    """Serialize a region sweep: ``config`` (the fields of the base
    :class:`ScanConfig`), then the fields of :class:`RegionGrid`."""
    config = _to_json(_checked(base, ScanConfig))
    _dump({"config": config, **_to_json(_checked(grid, RegionGrid))}, sink)
