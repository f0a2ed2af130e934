import json
import math

import numpy as np
import pytest

from cutcal.cli import main
from cutcal.geometry import RigidTransform, rotation_angle_between
from cutcal.logio import parse_trajectory_log, serialize_plan, PlanFile
from cutcal.metrics import PlannedCut
from cutcal.planner import PassPolicy


@pytest.fixture
def plan_path(tmp_path):
    plan = PlannedCut(
        entry_point=[120.0, -40.0, 60.0],
        direction=[1.0, 0.0, 0.0],
        depth_axis=[0.0, 0.0, -1.0],
        length_mm=100.0,
        target_depth_mm=4.0,
        cutting_speed_mm_s=3.0,
    )
    path = tmp_path / "plan.json"
    path.write_text(serialize_plan(PlanFile(plan, PassPolicy(depth_increment_mm=4.0))))
    return path


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path, plan_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(
                ["simulate", "ruso", "--plan", str(plan_path), "--seed", "7",
                 "--tracker-trans-sigma", "0.1", "--output", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_muso_writes_parseable_log(self, tmp_path, plan_path):
        out = tmp_path / "m.csv"
        assert main(["simulate", "muso", "--plan", str(plan_path), "--seed", "3",
                     "--output", str(out)]) == 0
        rec = parse_trajectory_log(out.read_bytes())
        assert len(rec) > 100

    def test_missing_plan_is_data_error(self, tmp_path, capsys):
        code = main(["simulate", "ruso", "--seed", "1", "--output", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"


class TestAnalyze:
    def test_noiseless_trace_reports_zero_rmse(self, tmp_path, plan_path, capsys):
        traj = tmp_path / "t.csv"
        assert main(["simulate", "ruso", "--plan", str(plan_path), "--seed", "1",
                     "--output", str(traj)]) == 0
        assert main(["analyze", "--traj", str(traj), "--plan", str(plan_path),
                     "--label", "R3.1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rmse_mm"] == 0.0
        assert abs(report["mean_depth_mm"] - 4.0) < 1e-9
        assert abs(report["executed_length_mm"] - 100.0) < 1e-9

    def test_bad_trajectory_is_data_error(self, tmp_path, plan_path, capsys):
        traj = tmp_path / "bad.csv"
        traj.write_text("timestamp,x,y,z,active\n0,0,0,0,1\nnope,0,0,0,1\n")
        code = main(["analyze", "--traj", str(traj), "--plan", str(plan_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "line 3" in err["message"]


class TestCalibrationPipeline:
    def test_handeye_recovers_simulated_ground_truth(self, tmp_path, capsys):
        log = tmp_path / "handeye.csv"
        gt_path = tmp_path / "gt.json"
        assert main(["simulate", "handeye", "--seed", "11", "--poses", "15",
                     "--output", str(log), "--ground-truth-output", str(gt_path)]) == 0
        out = tmp_path / "sol.json"
        assert main(["calibrate-handeye", "--input", str(log), "--output", str(out)]) == 0
        solution = json.loads(out.read_text())
        gt = json.loads(gt_path.read_text())
        got = RigidTransform(
            np.array(solution["base_from_tracker"]["rotation"]),
            np.array(solution["base_from_tracker"]["translation_mm"]),
        )
        want = RigidTransform(
            np.array(gt["base_from_tracker"]["rotation"]),
            np.array(gt["base_from_tracker"]["translation_mm"]),
        )
        assert rotation_angle_between(got.rotation, want.rotation) < 1e-8
        assert np.linalg.norm(got.translation - want.translation) < 1e-6

    def test_pivot_recovers_simulated_tip(self, tmp_path):
        log = tmp_path / "pivot.csv"
        gt_path = tmp_path / "gt.json"
        assert main(["simulate", "pivot", "--seed", "12", "--poses", "30",
                     "--output", str(log), "--ground-truth-output", str(gt_path)]) == 0
        out = tmp_path / "sol.json"
        assert main(["calibrate-pivot", "--input", str(log), "--output", str(out)]) == 0
        solution = json.loads(out.read_text())
        gt = json.loads(gt_path.read_text())
        err = np.linalg.norm(
            np.array(solution["tip_in_tool_mm"]) - np.array(gt["tip_in_tool_mm"])
        )
        assert err < 1e-6

    def test_tip_calibration_chain(self, tmp_path):
        handeye_log = tmp_path / "he.csv"
        tip_log = tmp_path / "tip.csv"
        gt_path = tmp_path / "gt.json"
        assert main(["simulate", "handeye", "--seed", "13", "--poses", "12",
                     "--output", str(handeye_log)]) == 0
        assert main(["simulate", "tipcal", "--seed", "13", "--poses", "5",
                     "--output", str(tip_log), "--ground-truth-output", str(gt_path)]) == 0
        he_out = tmp_path / "he.json"
        assert main(["calibrate-handeye", "--input", str(handeye_log),
                     "--output", str(he_out)]) == 0
        tip_out = tmp_path / "tip.json"
        assert main(["calibrate-tip", "--input", str(tip_log), "--handeye", str(he_out),
                     "--output", str(tip_out)]) == 0
        solution = json.loads(tip_out.read_text())
        assert solution["tip_position_spread_mm"] < 1e-6


class TestReportCommand:
    def test_aggregates_analyze_outputs(self, tmp_path, plan_path, capsys):
        paths = []
        for seed in (1, 2, 3):
            traj = tmp_path / f"t{seed}.csv"
            main(["simulate", "ruso", "--plan", str(plan_path), "--seed", str(seed),
                  "--tracker-trans-sigma", "0.1", "--rate", "6", "--output", str(traj)])
            rep = tmp_path / f"r{seed}.json"
            main(["analyze", "--traj", str(traj), "--plan", str(plan_path),
                  "--label", f"R3.{seed}", "--output", str(rep)])
            paths.append(str(rep))
        assert main(["report", "--input", *paths, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["set"] == "R3" and rows[0]["trials"] == 3
        assert 0.05 < rows[0]["rmse_mm_mean"] < 0.15


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--plan", "p.json"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, capsys):
        assert main(["calibrate-pivot", "--input", "/nonexistent.csv"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """Valid logs and a hand-eye solution, plus broken copies of them."""
    d = tmp_path_factory.mktemp("bad_inputs")
    assert main(["simulate", "handeye", "--seed", "3", "--poses", "6",
                 "--output", str(d / "he.csv")]) == 0
    assert main(["calibrate-handeye", "--input", str(d / "he.csv"),
                 "--output", str(d / "he.json")]) == 0
    assert main(["simulate", "tipcal", "--seed", "3", "--poses", "3",
                 "--output", str(d / "tip.csv")]) == 0
    assert main(["simulate", "pivot", "--seed", "3", "--poses", "6",
                 "--output", str(d / "pivot.csv")]) == 0
    solution = json.loads((d / "he.json").read_text())
    (d / "he_list.json").write_text("[]")
    (d / "he_binary.json").write_bytes(b"\xff\xfe{}")
    (d / "he_abc.json").write_text(json.dumps({**solution, "residual_rotation_rad": "abc"}))
    (d / "he_nan.json").write_text(json.dumps({**solution, "residual_translation_mm": math.nan}))
    lines = (d / "pivot.csv").read_text().splitlines()
    (d / "pivot_dup.csv").write_text("\n".join(lines + [lines[2]]) + "\n")  # dup at line 8
    plan = {
        "entry_point": [math.nan, 0.0, 0.0],
        "direction": [1.0, 0.0, 0.0],
        "depth_axis": [0.0, 0.0, -1.0],
        "length_mm": 10.0,
        "target_depth_mm": 2.0,
        "cutting_speed_mm_s": 1.0,
        "pass_policy": {"depth_increment_mm": 1.0},
    }
    (d / "plan_nan.json").write_text(json.dumps(plan))
    plan["entry_point"] = [0.0, 0.0, 0.0]
    (d / "plan_huge_int.json").write_text(json.dumps({**plan, "length_mm": 10**400}))
    (d / "plan_long_int.json").write_text(json.dumps(plan).replace("10.0", "1" * 5000))
    (d / "plan_huge_k.json").write_text(json.dumps({**plan, "analysis": {"K": 10**13}}))
    (d / "deep.json").write_text("[" * 100_000)
    huge = {**solution["base_from_tracker"], "translation_mm": [10**400, 0, 0]}
    (d / "he_huge_int.json").write_text(json.dumps({**solution, "base_from_tracker": huge}))
    return d


# argv ({d} is the bad_inputs directory), exit code, error class (None for
# usage errors, which argparse reports as text), message fragment
CLI_ERROR_CASES = [
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_list.json", 1,
                 "ParseError", "must be a JSON object", id="handeye-json-list"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_binary.json", 1,
                 "ParseError", "not valid UTF-8", id="handeye-not-utf8"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_abc.json", 1,
                 "ParseError", "residual_rotation_rad must be a finite number",
                 id="handeye-residual-string"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_nan.json", 1,
                 "ParseError", "residual_translation_mm must be a finite number",
                 id="handeye-residual-nan"),
    pytest.param("report --input {d}/he_binary.json", 1,
                 "ParseError", "not valid UTF-8", id="report-not-utf8"),
    pytest.param("calibrate-pivot --input {d}/pivot.csv --output {d}/missing/out.json", 1,
                 "CutcalError", "cannot write", id="unwritable-output"),
    pytest.param("calibrate-pivot --input {d}/pivot_dup.csv", 1,
                 "ParseError", "line 8: duplicate OT,Tool row", id="duplicate-pose-row"),
    pytest.param("analyze --traj {d}/none.csv --plan {d}/plan_nan.json", 1,
                 "ParseError", "plan.entry_point.0 must be a finite number", id="plan-nan"),
    pytest.param("analyze --traj {d}/none.csv --plan {d}/plan_huge_int.json", 1,
                 "ParseError", "plan.length_mm must be a finite number", id="plan-huge-int"),
    pytest.param("analyze --traj {d}/none.csv --plan {d}/plan_long_int.json", 1,
                 "ParseError", "invalid JSON", id="plan-int-too-long"),
    pytest.param("analyze --traj {d}/none.csv --plan {d}/plan_huge_k.json", 1,
                 "ParseError", "analysis.K must be an integer from 1 to 1000000", id="plan-huge-k"),
    pytest.param("report --input {d}/deep.json", 1, "ParseError", "invalid JSON",
                 id="report-nested-too-deeply"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_huge_int.json", 1,
                 "ParseError", "invalid transform", id="handeye-huge-int"),
    pytest.param("simulate handeye --poses 2", 2, None, "needs --poses >= 3", id="handeye-poses"),
    pytest.param("simulate pivot --poses 2", 2, None, "needs --poses >= 3", id="pivot-poses"),
    pytest.param("simulate tipcal --poses 0", 2, None, "--poses: must be a positive integer",
                 id="tipcal-poses"),
    pytest.param("simulate ruso --rate 0", 2, None, "--rate: must be a positive", id="rate-0"),
    pytest.param("simulate ruso --rate nan", 2, None, "--rate: must be a positive", id="rate-nan"),
    pytest.param("simulate ruso --rate inf", 2, None, "--rate: must be a positive", id="rate-inf"),
    pytest.param("simulate pivot --cone-deg -1", 2, None, "--cone-deg: must be a non-negative",
                 id="cone-negative"),
    pytest.param("simulate handeye --tracker-trans-sigma -0.1", 2, None,
                 "--tracker-trans-sigma: must be a non-negative", id="sigma-negative"),
    pytest.param("simulate muso --depth-sigma -1", 2, None, "--depth-sigma: must be a non-negative",
                 id="jitter-sigma-negative"),
    pytest.param("simulate ruso --seed -1", 2, None, "--seed: must be a non-negative integer",
                 id="seed-negative"),
    pytest.param("analyze --traj t.csv --plan p.json --label bad", 2, None,
                 "--label: invalid parse value", id="bad-label"),
]


@pytest.mark.parametrize("argv, code, error, fragment", CLI_ERROR_CASES)
def test_bad_input_or_flag_exits_without_traceback(bad_inputs, capsys, argv, code, error, fragment):
    args = [token.format(d=bad_inputs) for token in argv.split()]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cutcal") and fragment in err
    else:
        assert main(args) == 1
        diagnostic = json.loads(capsys.readouterr().err)
        assert diagnostic["error"] == error
        assert fragment in diagnostic["message"]
