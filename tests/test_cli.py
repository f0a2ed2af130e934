import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cutcal.cli import main
from cutcal.geometry import RigidTransform, rotation_angle_between
from cutcal.logio import (
    _SPLIT_MIN_ROWS,
    PlanFile,
    parse_pose_log,
    parse_trajectory_log,
    serialize_plan,
)
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

    @pytest.mark.parametrize(
        "argv",
        [["muso", "--rate", "1000"], ["pivot", "--poses", str(_SPLIT_MIN_ROWS + 1)]],
        ids=["muso", "pivot"],
    )
    def test_stdout_gets_the_text_written_to_output(self, tmp_path, plan_path, capsys, argv):
        # the log is long enough to be written in two processes to either
        out = tmp_path / "log.csv"
        argv = ["simulate", *argv, "--plan", str(plan_path), "--seed", "1"]
        assert main([*argv, "--output", str(out)]) == 0
        assert main(argv) == 0
        text, err = capsys.readouterr()
        assert err == "" and text == out.read_text(encoding="utf-8")
        assert text.count("\n") > _SPLIT_MIN_ROWS

    @pytest.mark.parametrize("value", ["-2e0", "-1E3", "-2.0"])
    def test_negative_flag_value_is_a_number_in_any_notation(self, tmp_path, plan_path, value):
        # "--flag value" and "--flag=value" give the same log
        logs = []
        for flag in (["--depth-bias", value], [f"--depth-bias={value}"]):
            out = tmp_path / f"m{len(logs)}.csv"
            assert main(["simulate", "muso", "--plan", str(plan_path), "--seed", "3",
                         "--rate", "1", *flag, "--output", str(out)]) == 0
            logs.append(out.read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("argv", [
        pytest.param("handeye --tracker-rot-sigma-deg 1e-160", id="handeye-tracker-tiny"),
        pytest.param("handeye --robot-rot-sigma-deg 1e-160", id="handeye-robot-tiny"),
        pytest.param("pivot --tracker-rot-sigma-deg 1e-160", id="pivot-tiny"),
        pytest.param("tipcal --robot-rot-sigma-deg 1e-200", id="tipcal-tiny"),
        # 3e-322 degrees is 5e-324 rad: some wobble vectors underflow to zero
        pytest.param("handeye --tracker-rot-sigma-deg 3e-322", id="handeye-zero-wobble"),
        pytest.param("pivot --tracker-rot-sigma-deg 3e-322", id="pivot-zero-wobble"),
        pytest.param("tipcal --tracker-rot-sigma-deg 3e-322", id="tipcal-zero-wobble"),
        # a wobble angle of about 1e306 rad is a turn like any other
        pytest.param("pivot --tracker-rot-sigma-deg 1e308", id="pivot-rotation-noise-huge"),
    ])
    def test_extreme_rotation_noise_gives_a_log(self, tmp_path, capsys, argv):
        # the squared norm of the wobble underflows or overflows; the axis and
        # the angle must not vanish or become infinite with it
        out = tmp_path / "poses.csv"
        assert main(["simulate", *argv.split(), "--poses", "40", "--output", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert len(parse_pose_log(out.read_bytes())) > 0

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

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_a_large_log_is_simulated_and_analyzed_in_bounded_memory(self, tmp_path, plan_path):
        # simulate muso at 2 kHz (499,399 rows, a 37 MB log) and analyze it in
        # one fresh process. Peak RSS growth over the post-import baseline, from
        # one run on a 2 vCPU Xeon (Python 3.11, numpy 2.4): 96.8 MB when the
        # forked half came back pickled and synthesis concatenated per-move
        # lists, 68.0 MB with both halves filling one shared array. The peak is
        # VmHWM: ru_maxrss would also hold this test process's peak, which a
        # child started from it carries through exec
        script = """if True:
            import sys
            from cutcal.cli import main

            def peak_kib():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

            base = peak_kib()
            plan, log, report = sys.argv[1:]
            assert main(["simulate", "muso", "--plan", plan, "--rate", "2000", "--seed", "1",
                         "--output", log]) == 0
            assert main(["analyze", "--traj", log, "--plan", plan, "--output", report]) == 0
            print((peak_kib() - base) / 1024)
        """
        log, report = tmp_path / "t.csv", tmp_path / "r.json"
        run = subprocess.run(
            [sys.executable, "-c", script, str(plan_path), str(log), str(report)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert log.read_bytes().count(b"\n") == 499_400  # the header and the rows
        growth_mb = float(run.stdout)
        assert growth_mb < 80.0, f"peak RSS grew by {growth_mb:.1f} MB"

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

        # rows scaled by s and 1/s: inside the rotation check's 1e-5 diagonal
        # tolerance, but chained with a robot pose the error lands off the
        # diagonal, where the tolerance is 1e-9
        doc = json.loads(he_out.read_text())
        rotation = np.array(doc["base_from_tracker"]["rotation"])
        rotation[:2] *= np.array([1 + 4e-6, 1 / (1 + 4e-6)])[:, None]
        doc["base_from_tracker"]["rotation"] = rotation.tolist()
        he_out.write_text(json.dumps(doc))
        assert main(["calibrate-tip", "--input", str(tip_log), "--handeye", str(he_out),
                     "--max-spread-mm", "1000", "--output", str(tip_out)]) == 0


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
    # stacked transforms: 2 poses, as many poses as tip.csv has samples, and a stacked ee_from_tool
    for name, key, n in (("stacked2", "base_from_tracker", 2), ("stacked3", "base_from_tracker", 3),
                         ("stacked_ee", "ee_from_tool", 2)):
        stack = {field: [value] * n for field, value in solution[key].items()}
        (d / f"he_{name}.json").write_text(json.dumps({**solution, key: stack}))
    lines = (d / "pivot.csv").read_text().splitlines()
    (d / "pivot_dup.csv").write_text("\n".join(lines + [lines[2]]) + "\n")  # dup at line 8
    fields = lines[2].split(",")
    fields[3] = "2.0"  # quaternion norm about 2 on line 3
    (d / "pivot_norm.csv").write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    (d / "pivot_header_only.csv").write_text(lines[0] + "\n")
    for name in ("pivot", "he"):
        # every translation 1e308: sums overflow to inf, and inf - inf gives nan
        lines = (d / f"{name}.csv").read_text().splitlines()
        rows = [",".join(row.split(",")[:7] + ["1e308"] * 3) for row in lines[1:]]
        (d / f"{name}_huge.csv").write_text("\n".join(lines[:1] + rows) + "\n")
    # three stations at the first station's poses: no relative motion rotates
    lines = (d / "he.csv").read_text().splitlines()
    rows = [f"{i}.0," + row.split(",", 1)[1] for i in range(3) for row in lines[1:3]]
    (d / "he_still.csv").write_text("\n".join(lines[:1] + rows) + "\n")
    # two stations whose robot poses differ but whose tracker poses do not
    rows = lines[1:4] + ["1.0," + lines[2].split(",", 1)[1]]
    (d / "he_tracker_still.csv").write_text("\n".join(lines[:1] + rows) + "\n")
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
    (d / "plan.json").write_text(json.dumps(plan))
    # in-gate lateral errors of +-1e308: their squares overflow
    (d / "traj_huge.csv").write_text(
        "timestamp,x,y,z,active\n0.0,1.0,1e308,-1.0,1\n0.1,2.0,-1e308,-1.0,1\n"
        "0.2,3.0,1e308,-1.0,1\n"
    )
    # two reports of one set whose RMSE sum overflows
    assert main(["simulate", "ruso", "--plan", str(d / "plan.json"),
                 "--output", str(d / "ruso.csv")]) == 0
    assert main(["analyze", "--traj", str(d / "ruso.csv"), "--plan", str(d / "plan.json"),
                 "--label", "R1.1", "--output", str(d / "report.json")]) == 0
    report = json.loads((d / "report.json").read_text())
    for k in (1, 2):
        (d / f"report_huge{k}.json").write_text(
            json.dumps({**report, "trial_label": f"R1.{k}", "rmse_mm": 1.7e308})
        )
    (d / "plan_huge_int.json").write_text(json.dumps({**plan, "length_mm": 10**400}))
    (d / "plan_long_int.json").write_text(json.dumps(plan).replace("10.0", "1" * 5000))
    (d / "plan_huge_k.json").write_text(json.dumps({**plan, "analysis": {"K": 10**13}}))
    # 1e-9 mm/s moves: 3.6e11 samples at 10 Hz; and a 1e-320 speed: inf seconds
    slow = {"depth_increment_mm": 1.0, "insertion_speed_mm_s": 1e-9, "retraction_speed_mm_s": 1e-9}
    (d / "plan_slow.json").write_text(
        json.dumps({**plan, "cutting_speed_mm_s": 1e-9, "pass_policy": slow})
    )
    (d / "plan_subnormal_speed.json").write_text(json.dumps({**plan, "cutting_speed_mm_s": 1e-320}))
    # a 1e200 mm cut: its squared length overflows
    (d / "plan_long.json").write_text(json.dumps({**plan, "length_mm": 1e200}))
    # 1e9 passes of 1 um
    (d / "plan_deep.json").write_text(
        json.dumps({**plan, "target_depth_mm": 1e6, "pass_policy": {"depth_increment_mm": 1e-3}})
    )
    # so far from the origin that every move rounds to zero length
    (d / "plan_far.json").write_text(json.dumps({**plan, "entry_point": [1e20, 1e20, 1e20]}))
    (d / "deep.json").write_text("[" * 100_000)
    huge = {**solution["base_from_tracker"], "translation_mm": [10**400, 0, 0]}
    (d / "he_huge_int.json").write_text(json.dumps({**solution, "base_from_tracker": huge}))
    for name, value in (("nan", math.nan), ("inf", math.inf)):
        bad = {**solution["base_from_tracker"], "translation_mm": [value, 0.0, 0.0]}
        (d / f"he_{name}_translation.json").write_text(
            json.dumps({**solution, "base_from_tracker": bad})
        )
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
    pytest.param("calibrate-pivot --input {d}/pivot_norm.csv", 1,
                 "ParseError", "line 3: quaternion norm", id="pose-quaternion-norm"),
    # loadtxt warns on a log with no data lines; here a warning is an error
    pytest.param("calibrate-pivot --input {d}/pivot_header_only.csv", 1,
                 "ParseError", "no (OT,Tool) rows", id="pose-header-only",
                 marks=pytest.mark.filterwarnings("error")),
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
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_nan_translation.json", 1,
                 "ParseError", "invalid transform", id="handeye-nan-translation"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_inf_translation.json", 1,
                 "ParseError", "invalid transform", id="handeye-inf-translation"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_stacked2.json", 1,
                 "ParseError", "invalid transform", id="handeye-stacked-transform"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_stacked3.json", 1,
                 "ParseError", "invalid transform", id="handeye-stacked-as-samples"),
    pytest.param("calibrate-tip --input {d}/tip.csv --handeye {d}/he_stacked_ee.json", 1,
                 "ParseError", "invalid transform", id="handeye-stacked-ee-from-tool"),
    pytest.param("calibrate-pivot --input {d}/pivot_huge.csv", 1,
                 "CutcalError", "non-finite number", id="pivot-huge-translation"),
    pytest.param("calibrate-handeye --input {d}/he_huge.csv", 1,
                 "CutcalError", "non-finite number", id="handeye-huge-translation"),
    pytest.param("calibrate-handeye --min-rotation-deg 0 --input {d}/he_still.csv", 1,
                 "DegenerateConfiguration", "no relative motion rotates",
                 id="handeye-no-rotation"),
    pytest.param("calibrate-handeye --input {d}/he_tracker_still.csv", 1,
                 "DegenerateConfiguration", "tracker side of the one motion does not rotate",
                 id="handeye-tracker-no-rotation"),
    pytest.param("analyze --traj {d}/traj_huge.csv --plan {d}/plan.json --format text", 1,
                 "CutcalError", "non-finite number: rmse_mm_mean", id="analyze-text-overflow"),
    pytest.param("analyze --traj {d}/traj_huge.csv --plan {d}/plan.json --format csv", 1,
                 "CutcalError", "non-finite number: rmse_mm_mean", id="analyze-csv-overflow"),
    pytest.param("report --input {d}/report_huge1.json {d}/report_huge2.json --format text", 1,
                 "CutcalError", "non-finite number: rmse_mm_mean", id="report-text-overflow"),
    pytest.param("simulate ruso --plan {d}/plan_slow.json", 1,
                 "CutcalError", "3.6e+11 samples, over 10000000", id="ruso-slow-plan"),
    pytest.param("simulate ruso --plan {d}/plan_subnormal_speed.json", 1,
                 "CutcalError", "inf samples, over 10000000", id="ruso-subnormal-speed"),
    pytest.param("simulate ruso --plan {d}/plan_long.json", 1,
                 "CutcalError", "inf samples, over 10000000", id="ruso-long-plan"),
    pytest.param("simulate ruso --plan {d}/plan_deep.json --rate 1", 1,
                 "InvalidPolicy", "takes over 1666666 passes", id="ruso-deep-plan"),
    pytest.param("simulate muso --plan {d}/plan.json --rate 1e300", 1,
                 "CutcalError", "samples, over 10000000", id="muso-huge-rate"),
    pytest.param("simulate ruso --plan {d}/plan_far.json --output {d}/far.csv", 1,
                 "CutcalError", "every move of the sequence takes zero time", id="ruso-far-plan"),
    pytest.param("simulate muso --plan {d}/plan_far.json", 1,
                 "CutcalError", "every move of the sequence takes zero time", id="muso-far-plan"),
    pytest.param("simulate pivot --poses 3 --seed 3 --tracker-trans-sigma 1e308", 1,
                 "CutcalError", "the noise overflows a simulated pose", id="pivot-noise-overflow"),
    *[pytest.param(f"simulate handeye --poses 15 --seed {seed} --tracker-trans-sigma 1e308", 1,
                   "CutcalError", "the noise overflows a simulated pose",
                   id=f"handeye-noise-overflow-{seed}") for seed in range(6)],
    pytest.param("simulate tipcal --poses 5 --robot-trans-sigma 1e308 --output {d}/tip_inf.csv"
                 " --ground-truth-output {d}/tip_inf_gt.json", 1,
                 "CutcalError", "the noise overflows a simulated pose", id="tipcal-noise-overflow"),
    pytest.param("simulate ruso --plan {d}/plan.json --rate 1 --tracker-trans-sigma 1e308", 1,
                 "CutcalError", "the noise overflows a simulated pose", id="ruso-noise-overflow"),
    pytest.param("simulate muso --plan {d}/plan.json --rate 1 --lateral-sigma 1e308", 1,
                 "CutcalError", "the noise overflows a simulated sample", id="muso-jitter-overflow"),
    pytest.param("simulate muso --plan {d}/plan.json --depth-bias 1e308", 1,
                 "CutcalError", "inf samples, over 10000000", id="muso-depth-bias-overflow"),
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
    pytest.param("simulate muso --depth-bias -inf", 2, None,
                 "--depth-bias: must be a finite number, got '-inf'", id="depth-bias-inf"),
    pytest.param("simulate muso --depth-bias -nan", 2, None,
                 "--depth-bias: must be a finite number, got '-nan'", id="depth-bias-nan"),
    pytest.param("simulate muso --depth-bias -Infinity", 2, None,
                 "--depth-bias: must be a finite number, got '-Infinity'", id="depth-bias-Infinity"),
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
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and err.endswith("\n")  # one JSON line, no warning
        assert out == ""
        for flag in ("--output", "--ground-truth-output"):
            if flag in args:
                assert not Path(args[args.index(flag) + 1]).exists(), flag
        diagnostic = json.loads(err)
        assert diagnostic["error"] == error
        assert fragment in diagnostic["message"]


# a number JSON, repr or a format spec writes for NaN or an infinity
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(nan|inf|NaN|Infinity)(?!\w)")
# bytes a mutation writes: half of them from the syntax of the inputs
SYNTAX_BYTES = b"0123456789-+.eE,\n \"[]{}:"


def mutated(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` after one to three byte edits: overwrite, delete or insert."""
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(b)))
        byte = int(rng.choice(list(SYNTAX_BYTES)) if rng.random() < 0.5 else rng.integers(256))
        op = rng.integers(3)
        if op == 0:
            b[i] = byte
        elif op == 1:
            del b[i]
        else:
            b.insert(i, byte)
    return bytes(b)


def test_mutated_inputs_give_a_result_or_a_diagnostic(bad_inputs, tmp_path, capsys):
    """Byte-mutated copies of every input file, through every command that
    reads them: exit 0 with only finite numbers out, 1 with one JSON line on
    stderr, or 2; nothing escapes main."""
    d, m = bad_inputs, tmp_path / "mutated"
    commands = {
        "he.csv": ["calibrate-handeye --input {m}",
                   "calibrate-handeye --pairing all_pairs --input {m}"],
        "pivot.csv": ["calibrate-pivot --input {m}"],
        "tip.csv": ["calibrate-tip --input {m} --handeye {d}/he.json"],
        "he.json": ["calibrate-tip --input {d}/tip.csv --handeye {m}"],
        "ruso.csv": [f"analyze --traj {{m}} --plan {{d}}/plan.json --format {f}"
                     for f in ("json", "text", "csv")],
        "plan.json": [f"analyze --traj {{d}}/ruso.csv --plan {{m}} --format {f}"
                      for f in ("json", "text", "csv")]
                     + ["simulate ruso --rate 1 --plan {m}", "simulate muso --rate 1 --plan {m}"],
        "report.json": [f"report --input {{m}} --format {f}" for f in ("text", "csv", "json")],
    }
    rng = np.random.default_rng(2024)
    for name, argvs in commands.items():
        original = (d / name).read_bytes()
        for _ in range(40):
            data = mutated(original, rng)
            m.write_bytes(data)
            for argv in argvs:
                args = argv.format(d=d, m=m).split()
                where = f"{argv} on {name} mutated to {data!r}"
                try:
                    code = main(args)
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # noqa: BLE001 - any escape is the failure
                    raise AssertionError(where) from e
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), where
                if code == 0:
                    assert not NON_FINITE.search(out), where
                if code == 1:
                    assert err.count("\n") == 1 and "error" in json.loads(err), where
