"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_rigid
from test_metrics import brute_force_profile

from cutcal.errors import FrameError, NonMonotoneTime, ParseError
from cutcal.geometry import rotation_angle_between
from cutcal.handeye import calibrate_hand_eye
from cutcal.logio import (
    POSE_LOG_HEADER,
    TRAJECTORY_LOG_HEADER,
    parse_plan,
    parse_pose_log,
    parse_trajectory_log,
    serialize_plan,
    serialize_pose_log,
    serialize_trajectory_log,
)
from cutcal.metrics import (
    PlannedCut,
    TrajectoryRecording,
    build_report,
    depth_profile,
    perpendicular_errors,
    trajectory_rmse,
)
from cutcal.planner import PassPolicy, pass_depths, plan_sequence, sample_sequence
from cutcal.pointcal import calibrate_pivot
from cutcal.report import parse_report, serialize_report
from cutcal.simrig import (
    JitterModel,
    NoiseModel,
    RigGroundTruth,
    generate_handeye_dataset,
    generate_pivot_dataset,
    random_rotation,
    synthesize_muso_trial,
    synthesize_ruso_trial,
)

from test_logio import assert_pose_logs_equal, random_plan_file, random_pose_log, random_recording
from test_report import make_report


def _announce(number: int, name: str):
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


def standard_plan(target=8.0, speed=3.0) -> PlannedCut:
    return PlannedCut(
        entry_point=[120.0, -40.0, 60.0],
        direction=[1.0, 0.0, 0.0],
        depth_axis=[0.0, 0.0, -1.0],
        length_mm=100.0,
        target_depth_mm=target,
        cutting_speed_mm_s=speed,
    )


def test_criterion_1_handeye_oracle_recovery():
    gt = RigGroundTruth.random(101)
    start = time.perf_counter()

    dataset = generate_handeye_dataset(gt, 20, seed=7)
    solution = calibrate_hand_eye(dataset)
    assert rotation_angle_between(
        solution.base_from_tracker.rotation, gt.base_from_tracker.rotation
    ) < 1e-8
    assert rotation_angle_between(
        solution.ee_from_tool.rotation, gt.ee_from_tool.rotation
    ) < 1e-8
    assert np.linalg.norm(
        solution.base_from_tracker.translation - gt.base_from_tracker.translation
    ) < 1e-6
    assert np.linalg.norm(
        solution.ee_from_tool.translation - gt.ee_from_tool.translation
    ) < 1e-6

    noise = NoiseModel(tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.1)
    for seed in range(10):
        noisy = calibrate_hand_eye(generate_handeye_dataset(gt, 20, noise, seed=seed))
        assert rotation_angle_between(
            noisy.base_from_tracker.rotation, gt.base_from_tracker.rotation
        ) < math.radians(0.5)
        assert rotation_angle_between(
            noisy.ee_from_tool.rotation, gt.ee_from_tool.rotation
        ) < math.radians(0.5)
        assert np.linalg.norm(
            noisy.base_from_tracker.translation - gt.base_from_tracker.translation
        ) < 1.0
        assert np.linalg.norm(
            noisy.ee_from_tool.translation - gt.ee_from_tool.translation
        ) < 1.0

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"hand-eye acceptance took {elapsed:.3f}s"
    _announce(1, "hand-eye oracle recovery")


def test_criterion_2_pivot_oracle_recovery():
    gt = RigGroundTruth.random(102)
    dataset = generate_pivot_dataset(gt, 50, math.radians(30), seed=5)
    start = time.perf_counter()
    solution = calibrate_pivot(dataset)
    solve_time = time.perf_counter() - start
    assert np.linalg.norm(solution.tip_in_tool - gt.tip_in_tool) < 1e-6
    assert solve_time < 0.1, f"pivot solve took {solve_time:.4f}s"

    noise = NoiseModel(tracker_trans_sigma_mm=0.1)
    for seed in range(10):
        noisy = calibrate_pivot(generate_pivot_dataset(gt, 50, math.radians(30), noise, seed=seed))
        assert np.linalg.norm(noisy.tip_in_tool - gt.tip_in_tool) < 0.3
    _announce(2, "pivot oracle recovery")


def test_criterion_3_depth_profile_oracle_equivalence():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for _ in range(100):
        r = random_rotation(rng)
        plan = PlannedCut(
            entry_point=rng.uniform(-50, 50, 3),
            direction=r[:, 0],
            depth_axis=r[:, 2],
            length_mm=float(rng.uniform(30.0, 130.0)),
            target_depth_mm=float(rng.uniform(2.0, 10.0)),
            cutting_speed_mm_s=float(rng.uniform(1.0, 4.0)),
        )
        jitter = JitterModel(
            lateral_sigma_mm=float(rng.uniform(0.0, 2.0)),
            depth_bias_mm=float(rng.uniform(0.0, 4.0)),
            depth_sigma_mm=float(rng.uniform(0.0, 1.5)),
            pass_count_range=(1, 5),
        )
        rec = synthesize_muso_trial(plan, jitter, rate_hz=8.0, seed=int(rng.integers(1 << 30)))
        k = int(rng.integers(1, 150))
        got = depth_profile(rec, plan, k)
        expected = brute_force_profile(rec, plan, k)
        for j in range(k):
            if expected[j] is None:
                assert math.isnan(got.depths_mm[j])
            else:
                assert got.depths_mm[j] == expected[j]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"profile equivalence took {elapsed:.2f}s"
    _announce(3, "depth-profile oracle equivalence")


def test_criterion_4_rmse_formula_and_invariance():
    assert abs(trajectory_rmse([1.0, 2.0, 2.0]) - math.sqrt(3.0)) < 1e-12

    rng = np.random.default_rng(104)
    plan = standard_plan()
    for _ in range(100):
        n = int(rng.integers(5, 60))
        pts = (
            plan.entry_point
            + np.outer(rng.uniform(0, plan.length_mm, n), plan.direction)
            + np.outer(rng.normal(0, 1.5, n), plan.lateral_axis)
            + np.outer(rng.uniform(-1, 8, n), plan.depth_axis)
        )
        rec = TrajectoryRecording(np.arange(n) * 0.1, pts, np.ones(n, bool))
        base = trajectory_rmse(perpendicular_errors(rec, plan))
        g = random_rigid(rng)
        moved = trajectory_rmse(perpendicular_errors(rec.transformed(g), plan.transformed(g)))
        assert abs(base - moved) < 1e-9
    _announce(4, "RMSE formula and rigid invariance")


def test_criterion_5_planner_roundtrip_identity():
    rng = np.random.default_rng(105)
    for _ in range(25):
        r = random_rotation(rng)
        plan = PlannedCut(
            entry_point=rng.uniform(-100, 100, 3),
            direction=r[:, 0],
            depth_axis=r[:, 2],
            length_mm=float(rng.uniform(20.0, 150.0)),
            target_depth_mm=float(rng.uniform(1.0, 12.0)),
            cutting_speed_mm_s=float(rng.uniform(0.5, 5.0)),
        )
        increment = float(rng.uniform(0.15, 1.0)) * plan.target_depth_mm
        policy = PassPolicy(depth_increment_mm=increment)
        seq = plan_sequence(plan, policy)
        assert len(seq) == math.ceil(plan.target_depth_mm / increment - 1e-9)
        assert len(pass_depths(plan.target_depth_mm, increment)) == len(seq)
        report = build_report(sample_sequence(seq, 60.0), plan, 50, "R1.1")
        assert report.rmse_mm < 1e-9
        assert abs(report.mean_depth_mm - plan.target_depth_mm) < 1e-9
        assert abs(report.executed_length_mm - plan.length_mm) < 1e-9
    _announce(5, "planner round-trip identity")


def test_criterion_6_table_scale_reproduction():
    start = time.perf_counter()

    # robotic set: 8 mm at 3 mm/s, tracker noise tuned to ~0.1 mm lateral sigma
    gt = RigGroundTruth.random(106)
    plan_r = standard_plan(target=8.0, speed=3.0)
    noise = NoiseModel(tracker_trans_sigma_mm=0.1)
    ruso_reports = [
        build_report(
            synthesize_ruso_trial(
                gt, plan_r, PassPolicy(depth_increment_mm=4.0), noise, rate_hz=6.0, seed=seed
            ),
            plan_r,
            100,
            f"R4.{seed + 1}",
        )
        for seed in range(10)
    ]
    ruso_rmse = float(np.mean([r.rmse_mm for r in ruso_reports]))
    ruso_depth = float(np.mean([r.mean_depth_mm for r in ruso_reports]))
    assert 0.05 <= ruso_rmse <= 0.15, f"robotic set RMSE {ruso_rmse:.4f}"
    assert 7.95 <= ruso_depth <= 8.15, f"robotic set depth {ruso_depth:.4f}"

    # manual set: 4 mm target with default jitter
    plan_m = standard_plan(target=4.0, speed=1.7)
    muso_reports = [
        build_report(
            synthesize_muso_trial(plan_m, JitterModel(), rate_hz=10.0, seed=seed),
            plan_m,
            100,
            f"M1.{seed + 1}",
        )
        for seed in range(10)
    ]
    muso_rmse = float(np.mean([r.rmse_mm for r in muso_reports]))
    muso_depth = float(np.mean([r.mean_depth_mm for r in muso_reports]))
    assert 0.8 <= muso_rmse <= 1.4, f"manual set RMSE {muso_rmse:.4f}"
    assert 6.0 <= muso_depth <= 8.0, f"manual set depth {muso_depth:.4f}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"table-scale sets took {elapsed:.1f}s"
    _announce(6, "table-scale synthetic reproduction")


def test_paper_manual_row():
    # the paper's manual arm: 1.10 mm RMSE and 16.0 mm depth at an 8 mm
    # target; 20 seeds give 1.105 mm and 15.97 mm, standard errors of the
    # mean about 0.008 mm and 0.23 mm
    plan = standard_plan(target=8.0, speed=1.7)
    reports = [
        build_report(
            synthesize_muso_trial(plan, JitterModel(depth_bias_mm=8.0), rate_hz=10.0, seed=seed),
            plan,
            100,
            f"M1.{seed + 1}",
        )
        for seed in range(20)
    ]
    rmse = float(np.mean([r.rmse_mm for r in reports]))
    depth = float(np.mean([r.mean_depth_mm for r in reports]))
    assert abs(rmse - 1.10) <= 0.03, f"manual RMSE {rmse:.4f}"
    assert abs(depth - 16.0) <= 0.5, f"manual depth {depth:.4f}"


def test_criterion_7_timeline_sanity():
    plan = standard_plan(target=4.0, speed=3.0)
    # one (insert, cut, retract) row of durations per pass
    durations = plan_sequence(plan, PassPolicy(depth_increment_mm=4.0)).durations_s
    cutting = durations[:, 1].sum()
    assert abs(cutting - 33.33) <= 0.01
    active = durations[:, :2].sum()
    assert abs(active - 35.33) <= 0.01
    assert active - cutting > 0.0
    assert durations[:, 2].sum() > 0.0
    _announce(7, "nominal timeline sanity")


def test_criterion_8_io_roundtrip_fuzz():
    rng = np.random.default_rng(108)

    for _ in range(1000):
        log = random_pose_log(rng, int(rng.integers(1, 4)))
        assert_pose_logs_equal(parse_pose_log(serialize_pose_log(log)), log)

    for _ in range(1000):
        rec = random_recording(rng, n=int(rng.integers(2, 12)))
        parsed = parse_trajectory_log(serialize_trajectory_log(rec))
        np.testing.assert_array_equal(parsed.timestamps, rec.timestamps)
        np.testing.assert_array_equal(parsed.points, rec.points)
        np.testing.assert_array_equal(parsed.tool_active, rec.tool_active)

    for _ in range(1000):
        pf = random_plan_file(rng)
        back = parse_plan(serialize_plan(pf))
        assert serialize_plan(back) == serialize_plan(pf)

    for _ in range(1000):
        report = make_report(rmse=float(rng.uniform(0, 2)), depth=float(rng.uniform(1, 16)))
        back = parse_report(serialize_report(report))[0]
        assert serialize_report(back) == serialize_report(report)

    malformed = [
        ("", ParseError, 1),
        ("bogus header\n1,2,3\n", ParseError, 1),
        (POSE_LOG_HEADER + "\n1,2\n", ParseError, 2),
        (POSE_LOG_HEADER + "\n0,S,Nope,1,0,0,0,0,0,0\n", FrameError, 2),
        (POSE_LOG_HEADER + "\n0,S,EE,x,0,0,0,0,0,0\n", ParseError, 2),
        (POSE_LOG_HEADER + "\n0,S,EE,0.2,0,0,0,0,0,0\n", ParseError, 2),
        (POSE_LOG_HEADER + "\n0,S,EE,1,0,0,0,0,0,inf\n", ParseError, 2),
    ]
    for text, expected, line in malformed:
        with pytest.raises(expected) as exc:
            parse_pose_log(text)
        assert exc.value.line == line

    malformed_traj = [
        (TRAJECTORY_LOG_HEADER + "\n0,0,0,0,1\nbad,0,0,0,1\n", ParseError, 3),
        (TRAJECTORY_LOG_HEADER + "\n0,0,0,0,1\n0.1,0,0,1\n", ParseError, 3),
        (TRAJECTORY_LOG_HEADER + "\n0,0,0,0,1\n0.1,0,0,0,5\n", ParseError, 3),
        (TRAJECTORY_LOG_HEADER + "\n1,0,0,0,1\n0.5,0,0,0,1\n", NonMonotoneTime, 3),
    ]
    for text, expected, line in malformed_traj:
        with pytest.raises(expected) as exc:
            parse_trajectory_log(text)
        assert exc.value.line == line

    for text in ("{", "[1,2", '{"length_mm": []}', "null", '{"unknown": 1}'):
        with pytest.raises(ParseError):
            parse_plan(text)
    _announce(8, "IO round-trip fuzz and malformed-input corpus")
