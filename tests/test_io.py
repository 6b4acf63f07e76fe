import io
import json
from dataclasses import replace

import numpy as np
import pytest

from qparrondo import (
    CoinParams,
    GameSequence,
    ScanConfig,
    game_trajectory,
    run_scan,
    scan_region_grid,
    GridAxis,
    InvalidParameterError,
)
from qparrondo.cli import main
from qparrondo.io import (
    TRAJECTORY_CSV_HEADER,
    read_scan_json,
    write_region_json,
    write_scan_json,
    write_trajectory_csv,
    write_trajectory_json,
)

from benchmarks import (
    REFERENCE_TOL,
    GAME_A_BIASES,
    REGIME_DOUBLE_1,
    REGIME_ONE_SIDED,
)


def one_sided_trajectory(tokens="A", steps=3):
    return game_trajectory(
        REGIME_ONE_SIDED["coin_a"],
        REGIME_ONE_SIDED["coin_b"],
        REGIME_ONE_SIDED["eta_deg"],
        GameSequence(tokens),
        steps,
    )


def render_csv(trajectory):
    sink = io.StringIO()
    write_trajectory_csv(trajectory, sink)
    return sink.getvalue()


class TestTrajectoryCsv:
    def test_header_and_row_count(self):
        text = render_csv(one_sided_trajectory(steps=5))
        lines = text.split("\n")
        assert lines[0] == TRAJECTORY_CSV_HEADER
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 7  # header + 5 rows + trailing empty piece
        assert all(line.count(",") == 5 for line in lines[1:-1])

    def test_bias_column_matches_pinned_values(self):
        text = render_csv(one_sided_trajectory(steps=3))
        for row in text.strip().split("\n")[1:]:
            fields = row.split(",")
            step = int(fields[0])
            bias = float(fields[4])
            assert bias == pytest.approx(GAME_A_BIASES[step], abs=REFERENCE_TOL)

    def test_full_precision(self):
        text = render_csv(one_sided_trajectory(steps=1))
        p_left_text = text.strip().split("\n")[1].split(",")[1]
        # 13 significant digits survive a round-trip
        assert float(p_left_text) == pytest.approx(0.6077687913177058, rel=1e-12)
        mantissa = p_left_text.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12

    def test_byte_identical_reruns(self):
        first = render_csv(one_sided_trajectory(steps=4))
        second = render_csv(one_sided_trajectory(steps=4))
        assert first.encode() == second.encode()


class TestTrajectoryJson:
    def test_document_shape(self):
        sink = io.StringIO()
        write_trajectory_json(one_sided_trajectory(steps=3), sink)
        document = json.loads(sink.getvalue())
        assert list(document) == ["metadata", "samples"]
        assert len(document["samples"]) == 3
        assert list(document["samples"][0]) == [
            "step", "p_left", "p_origin", "p_right", "bias", "entropy",
        ]
        assert document["metadata"]["sequence"] == "A"

    def test_api_with_integer_inputs_writes_what_the_cli_writes(self, tmp_path):
        sink = io.StringIO()
        trajectory = game_trajectory(CoinParams(156, 16, 0), CoinParams(0, 75, 160), 90,
                                     GameSequence("ABB"), 6)
        write_trajectory_json(trajectory, sink)
        path = tmp_path / "trajectory.json"
        assert main(["simulate", "--coin-a", "156,16,0", "--coin-b", "0,75,160",
                     "--eta-deg", "90", "--sequence", "ABB", "--steps", "6",
                     "--format", "json", "--out", str(path)]) == 0
        assert sink.getvalue().encode() == path.read_bytes()

    def test_refuses_values_json_cannot_hold(self):
        trajectory = one_sided_trajectory(steps=3)
        broken = replace(trajectory, metadata={"eta_deg": float("inf")})
        with pytest.raises(ValueError):
            write_trajectory_json(broken, io.StringIO())


@pytest.fixture(scope="module")
def small_report():
    return run_scan(
        ScanConfig(
            coin_a=REGIME_ONE_SIDED["coin_a"],
            coin_b=REGIME_ONE_SIDED["coin_b"],
            eta_deg=REGIME_ONE_SIDED["eta_deg"],
            max_period=3,
            horizon_steps=240,
        )
    )


class TestScanJson:
    def test_key_order(self, small_report):
        sink = io.StringIO()
        write_scan_json(small_report, sink)
        document = json.loads(sink.getvalue())
        assert list(document) == [
            "config",
            "verdict_a",
            "verdict_b",
            "results",
            "paradox_sequences",
            "winning_by_period",
        ]
        assert list(document["results"][0]) == [
            "sequence", "verdict", "final_bias", "min_bias", "max_entropy",
        ]

    def test_contains_the_paradox_sequence(self, small_report):
        sink = io.StringIO()
        write_scan_json(small_report, sink)
        document = json.loads(sink.getvalue())
        assert "ABB" in document["paradox_sequences"]

    def test_round_trip(self, small_report):
        each_step = run_scan(replace(small_report.config, horizon_steps=24, verdict_each_step=True))
        for report in (small_report, each_step):
            sink = io.StringIO()
            write_scan_json(report, sink)
            recovered = read_scan_json(io.StringIO(sink.getvalue()))
            assert recovered == report

    @pytest.mark.parametrize(
        "document",
        ["{}", "[]", "x", "null", '{"config": []}', '{"config": {"coin_a": "x"}}'],
        ids=["empty-object", "list", "not-json", "null", "config-list", "coin-string"],
    )
    def test_malformed_documents_are_refused(self, document):
        # these raised KeyError, TypeError or json's JSONDecodeError
        with pytest.raises(InvalidParameterError, match="not a scan report"):
            read_scan_json(io.StringIO(document))

    @pytest.mark.parametrize(
        "where, value",
        [
            (("results", 0, "final_bias"), "abc"),
            (("results", 0, "min_bias"), True),
            (("results", 0, "max_entropy"), None),
            (("winning_by_period", "2"), -1),
            (("winning_by_period", "2"), 1.5),
            (("winning_by_period", "3"), "2"),
            (("winning_by_period",), {"-7": 0}),
            (("winning_by_period",), {" 2": 1}),
            (("winning_by_period",), {"4": 0}),  # the report's max-period is 3
            (("paradox_sequences",), [5]),
            (("paradox_sequences",), ["AC"]),
        ],
        ids=["string-bias", "bool-bias", "null-entropy", "negative-count", "fractional-count",
             "string-count", "negative-period", "padded-period", "period-over-max",
             "number-sequence", "foreign-token"],
    )
    def test_wrong_values_are_refused(self, small_report, where, value):
        # these were read back as they stood, a final_bias of "abc" and a period of -7 included
        sink = io.StringIO()
        write_scan_json(small_report, sink)
        document = json.loads(sink.getvalue())
        *path, key = where
        parent = document
        for step in path:
            parent = parent[step]
        parent[key] = value
        with pytest.raises(InvalidParameterError, match="not a scan report"):
            read_scan_json(io.StringIO(json.dumps(document)))

    def test_api_with_integer_inputs_writes_what_the_cli_writes(self, tmp_path):
        config = ScanConfig(coin_a=CoinParams(156, 16, 0), coin_b=CoinParams(0, 75, 160),
                            eta_deg=90, max_period=3, horizon_steps=24, epsilon=0)
        sink = io.StringIO()
        write_scan_json(run_scan(config), sink)
        path = tmp_path / "report.json"
        assert main(["scan", "--coin-a", "156,16,0", "--coin-b", "0,75,160", "--eta-deg", "90",
                     "--max-period", "3", "--steps", "24", "--epsilon", "0",
                     "--out", str(path)]) == 0
        assert sink.getvalue().encode() == path.read_bytes()

    def test_identical_coins_emit_empty_paradox_list(self):
        coin = REGIME_DOUBLE_1["coin_a"]
        report = run_scan(
            ScanConfig(coin_a=coin, coin_b=coin, eta_deg=0.0, max_period=2, horizon_steps=24)
        )
        sink = io.StringIO()
        write_scan_json(report, sink)
        assert json.loads(sink.getvalue())["paradox_sequences"] == []

    def test_byte_identical_reruns(self, small_report):
        first, second = io.StringIO(), io.StringIO()
        write_scan_json(small_report, first)
        write_scan_json(run_scan(small_report.config), second)
        assert first.getvalue().encode() == second.getvalue().encode()


def small_grid(max_period=2, horizon_steps=24):
    base = ScanConfig(
        coin_a=REGIME_ONE_SIDED["coin_a"],
        coin_b=REGIME_ONE_SIDED["coin_b"],
        eta_deg=REGIME_ONE_SIDED["eta_deg"],
        max_period=max_period,
        horizon_steps=horizon_steps,
    )
    axes = [GridAxis.linspace("beta_a", 10, 20, 2), GridAxis.linspace("eta", 80, 100, 3)]
    return scan_region_grid(base, axes), base


class TestRegionJson:
    def test_document_shape(self):
        grid, base = small_grid()
        sink = io.StringIO()
        write_region_json(grid, base, sink)
        document = json.loads(sink.getvalue())
        assert list(document) == ["config", "axes", "paradox", "winning_counts"]
        assert document["axes"][0]["parameter"] == "beta_a"
        assert len(document["paradox"]) == 2
        assert len(document["paradox"][0]) == 3
        assert len(document["winning_counts"]) == 2


def test_numpy_integer_configs_write_what_plain_ints_write():
    # ScanConfig kept np.int64 fields, which json could not write
    written = []
    for max_period, steps in ((3, 30), (np.int64(3), np.int64(30))):
        grid, base = small_grid(max_period, steps)
        assert type(base.max_period) is int and type(base.horizon_steps) is int
        scan_sink, grid_sink = io.StringIO(), io.StringIO()
        write_scan_json(run_scan(base), scan_sink)
        write_region_json(grid, base, grid_sink)
        written.append((scan_sink.getvalue(), grid_sink.getvalue()))
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "write, record",
    [
        (write_scan_json, lambda report, grid, base: (None,)),
        (write_scan_json, lambda report, grid, base: (grid,)),
        (write_scan_json, lambda report, grid, base: (base,)),
        (write_region_json, lambda report, grid, base: (report, base)),
        (write_region_json, lambda report, grid, base: (grid, None)),
        (write_region_json, lambda report, grid, base: (grid, report)),
        (write_trajectory_csv, lambda report, grid, base: (report,)),
        (write_trajectory_json, lambda report, grid, base: (None,)),
    ],
    ids=["scan-none", "scan-grid", "scan-config", "region-report", "region-no-config",
         "region-report-config", "csv-report", "trajectory-json-none"],
)
def test_writers_refuse_records_not_their_own(small_report, write, record):
    # write_scan_json wrote null for None and a grid document for a grid
    grid, base = small_grid()
    sink = io.StringIO()
    with pytest.raises(InvalidParameterError, match="expected a"):
        write(*record(small_report, grid, base), sink)
    assert sink.getvalue() == ""
