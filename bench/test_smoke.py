"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json

import pytest

import run
from workloads import WORKLOADS

TINY = {
    "calibrate": {"sessions": 4, "paper": (6, 8, 3), "stress": (8, 12, 3)},
    "trials": {"plans": 2, "rate_hz": 2.0},
    "bulk-log": {"plans": 1, "rows": (400, 600)},
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))["table"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.01, trace=trace, sizes=TINY[name])["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    assert json.loads(json.dumps(result)) == result


def test_malformed_input_is_a_failed_op_not_a_crash(tmp_path):
    cli = run.load_cutcal()
    workload = WORKLOADS["calibrate"](3, **TINY["calibrate"])
    workload.setup(cli, tmp_path / "inputs")
    session = workload.pool[0][0]
    (session / "handeye.csv").write_text("timestamp,source,target\n0,S\n", encoding="utf-8")
    tally = run.measure(cli, workload, seconds=0.01, probe=run.Probe())  # one pass over the pool
    assert tally.attempted == len(workload.pool)
    assert len(tally.failures) == 1 and "exited 1" in tally.failures[0]

    # a command that dies with a traceback is contained the same way
    class Crashing:
        @staticmethod
        def main(argv):
            raise ValueError("unhandled input")

    _, error = run.run_steps(Crashing, [["analyze"]])
    assert error == "analyze raised ValueError: unhandled input"


def test_traced_run_has_spans_for_every_layer_in_the_table():
    spans = {}
    for name in WORKLOADS:
        detail = run.run_workload(name, seed=3, seconds=0.01, trace=True, sizes=TINY[name])
        with open(detail["spans_file"], encoding="utf-8") as f:
            spans[name] = {json.loads(line)["name"] for line in f}
    metric_names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for row in LAYERS:
        assert set(row["metrics"]) <= metric_names
        assert set(row["moves"]) <= metric_names
        missing = set(row["spans"]) - spans[row["on"]]
        assert not missing, f"no spans of {sorted(missing)} on {row['on']}"


def test_contention_is_divided_out_of_every_command():
    tally = run.Tally()
    # (wall seconds, mean probe call time around it) per command of each op
    tally.samples = {
        0: [[(0.020, 2e-4)], [(0.010, 1e-4)]],  # 10 ms at twice and at no contention
        1: [[(0.030, 1.5e-4), (0.030, 3e-4)]],  # 20 ms + 10 ms
    }
    tally.rows = {0: 5, 1: 5}
    adjusted, raw = run.end_to_end_values(tally, [(0.4, 2e-4)], reference=1e-4)
    assert adjusted["op_p50_ms"] == pytest.approx(20.0)
    assert adjusted["ops_per_s"] == pytest.approx(50.0)
    assert adjusted["rows_per_s"] == pytest.approx(250.0)
    assert adjusted["setup_s"] == pytest.approx(0.2)
    assert raw["op_p50_ms"] == pytest.approx(37.5)
    assert raw["contention_p50"] == pytest.approx(1.75)
