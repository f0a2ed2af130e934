import math

import numpy as np
import pytest

from conftest import assert_transforms_close, peak_traced_bytes, random_rigid, stack
from cutcal.errors import DegenerateConfiguration, InconsistentSamples
from cutcal.geometry import (
    RigidTransform,
    compose,
    invert,
    rotation_about_axis,
    transform_point,
)
from cutcal.handeye import HandEyeSolution
from cutcal.pointcal import (
    PivotSolution,
    TipCalDataset,
    calibrate_pivot,
    calibrate_tip_in_ee,
    pivot_residuals,
    tip_poses_in_ee,
    tip_position_in_base,
)
from cutcal.simrig import (
    NoiseModel,
    RigGroundTruth,
    generate_pivot_dataset,
    generate_tipcal_dataset,
    random_rotation,
)


def fixed_tip_rig(seed: int, tip=(0.0, 0.0, 120.0)) -> RigGroundTruth:
    base = RigGroundTruth.random(seed)
    return RigGroundTruth(
        base.base_from_tracker, base.ee_from_tool, np.asarray(tip), base.divot_in_tracker, seed
    )


class TestCalibratePivot:
    def test_exact_recovery_known_offset(self):
        gt = fixed_tip_rig(1)
        dataset = generate_pivot_dataset(gt, 30, math.radians(30), seed=2)
        solution = calibrate_pivot(dataset)
        assert np.linalg.norm(solution.tip_in_tool - [0, 0, 120]) < 1e-6
        assert np.linalg.norm(solution.divot_in_tracker - gt.divot_in_tracker) < 1e-6
        assert solution.rms_residual_mm < 1e-9

    def test_identical_poses_degenerate(self, rng):
        pose = random_rigid(rng)
        with pytest.raises(DegenerateConfiguration):
            calibrate_pivot(stack([pose] * 4))

    def test_single_axis_pivot_degenerate(self, rng):
        # rotations about one line through the divot leave the tip's
        # along-axis component unobservable even with large pose spread
        divot = np.array([10.0, -30.0, 800.0])
        tip = np.array([0.0, 0.0, 100.0])
        poses = []
        for k in range(8):
            r = rotation_about_axis([0.0, 1.0, 0.0], math.radians(15.0 * k))
            poses.append(RigidTransform(r, divot - r @ tip))
        with pytest.raises(DegenerateConfiguration):
            calibrate_pivot(stack(poses))

    def test_too_few_poses(self, rng):
        with pytest.raises(DegenerateConfiguration):
            calibrate_pivot(stack([random_rigid(rng), random_rigid(rng)]))

    def test_noisy_monte_carlo_tip_error(self):
        gt = fixed_tip_rig(3)
        noise = NoiseModel(tracker_trans_sigma_mm=0.1)
        for seed in range(10):
            dataset = generate_pivot_dataset(gt, 50, math.radians(30), noise, seed=seed)
            solution = calibrate_pivot(dataset)
            assert np.linalg.norm(solution.tip_in_tool - gt.tip_in_tool) < 0.3

    def test_residual_matches_independent_recomputation(self):
        gt = fixed_tip_rig(4)
        dataset = generate_pivot_dataset(
            gt, 25, math.radians(25), NoiseModel(tracker_trans_sigma_mm=0.2), seed=5
        )
        solution = calibrate_pivot(dataset)
        per_pose = np.array(
            [
                np.linalg.norm(
                    pose.rotation @ solution.tip_in_tool
                    + pose.translation
                    - solution.divot_in_tracker
                )
                for pose in dataset
            ]
        )
        assert abs(solution.rms_residual_mm - math.sqrt(np.mean(per_pose**2))) < 1e-12

    def test_gauge_invariance_under_tracker_reexpression(self, rng):
        gt = fixed_tip_rig(6)
        dataset = generate_pivot_dataset(
            gt, 20, math.radians(30), NoiseModel(tracker_trans_sigma_mm=0.05), seed=7
        )
        g = random_rigid(rng)
        moved = stack([compose(g, p) for p in dataset])
        original = calibrate_pivot(dataset)
        reexpressed = calibrate_pivot(moved)
        np.testing.assert_allclose(reexpressed.tip_in_tool, original.tip_in_tool, atol=1e-8)
        np.testing.assert_allclose(
            reexpressed.divot_in_tracker,
            transform_point(g, original.divot_in_tracker),
            atol=1e-8,
        )
        assert abs(reexpressed.rms_residual_mm - original.rms_residual_mm) < 1e-9


    def test_low_spread_message_reports_the_largest_angle(self):
        # every pose within 5 deg of the first: the spread scan runs to the end
        base = random_rotation(np.random.default_rng(8))
        angles = [0.0, 2.0, 5.0, 3.0, 4.0]
        poses = [
            RigidTransform(base @ rotation_about_axis([0.0, 0.0, 1.0], math.radians(a)), [0, 0, a])
            for a in angles
        ]
        with pytest.raises(DegenerateConfiguration, match="rotation spread 5.00 deg below 20.0"):
            calibrate_pivot(stack(poses))

    def test_5000_poses_run_in_bounded_memory(self):
        gt = fixed_tip_rig(9)
        noise = NoiseModel(tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.1)
        dataset = generate_pivot_dataset(gt, 5000, math.radians(30), noise, seed=10)
        peak = peak_traced_bytes(lambda: calibrate_pivot(dataset))
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MB"


class TestCalibrateTipInEe:
    def test_single_sample_identity_chain(self, rng):
        identity = RigidTransform.identity()
        hand_eye = HandEyeSolution(identity, identity, 0.0, 0.0)
        digitizer = random_rigid(rng)
        dataset = TipCalDataset(stack([identity]), stack([digitizer]), hand_eye)
        assert_transforms_close(calibrate_tip_in_ee(dataset).ee_from_tip, digitizer, atol=1e-12)

    def test_noiseless_recovery(self):
        gt = RigGroundTruth.random(10)
        dataset = generate_tipcal_dataset(gt, 5, seed=11)
        ee_from_tip = calibrate_tip_in_ee(dataset).ee_from_tip
        true_tip_in_ee = transform_point(gt.ee_from_tool, gt.tip_in_tool)
        assert np.linalg.norm(ee_from_tip.translation - true_tip_in_ee) < 1e-6

    def test_outlier_trips_threshold(self):
        gt = RigGroundTruth.random(12)
        dataset = generate_tipcal_dataset(gt, 5, seed=13)
        shifted = dataset.digitizer.translation.copy()
        shifted[2] += [5.0, 0.0, 0.0]
        corrupted = TipCalDataset(
            dataset.robot,
            RigidTransform(dataset.digitizer.rotation, shifted),
            dataset.hand_eye,
        )
        with pytest.raises(InconsistentSamples):
            calibrate_tip_in_ee(corrupted)

    def test_chain_roundtrip_returns_digitizer_input(self):
        gt = RigGroundTruth.random(14)
        dataset = generate_tipcal_dataset(gt, 3, seed=15)
        tip_poses = tip_poses_in_ee(dataset)
        for robot, digitizer, tip_pose in zip(
            dataset.robot, dataset.digitizer, tip_poses, strict=True
        ):
            # invert the chain: digitizer = tracker_from_base . base_from_ee . ee_from_tip
            recovered = compose(compose(invert(gt.base_from_tracker), robot), tip_pose)
            assert_transforms_close(recovered, digitizer, atol=1e-9)


class TestTipPositionInBase:
    def test_identity_chain_origin(self):
        identity = RigidTransform.identity()
        hand_eye = HandEyeSolution(identity, identity, 0.0, 0.0)
        pivot = PivotSolution(np.zeros(3), np.zeros(3), 0.0)
        np.testing.assert_array_equal(
            tip_position_in_base(hand_eye, identity, pivot), np.zeros(3)
        )

    def test_matches_ground_truth_chain(self, rng):
        gt = RigGroundTruth.random(16)
        hand_eye = gt.hand_eye_solution()
        pivot = gt.pivot_solution()
        robot = random_rigid(rng)
        tool_in_base = compose(robot, gt.ee_from_tool)
        tracker_pose = compose(invert(gt.base_from_tracker), tool_in_base)
        expected = transform_point(tool_in_base, gt.tip_in_tool)
        np.testing.assert_allclose(
            tip_position_in_base(hand_eye, tracker_pose, pivot), expected, atol=1e-9
        )

    def test_invariant_under_consistent_tracker_remount(self, rng):
        gt = RigGroundTruth.random(17)
        pivot = gt.pivot_solution()
        tracker_pose = random_rigid(rng)
        g = random_rigid(rng)
        before = tip_position_in_base(gt.hand_eye_solution(), tracker_pose, pivot)
        remounted = HandEyeSolution(
            base_from_tracker=compose(gt.base_from_tracker, invert(g)),
            ee_from_tool=gt.ee_from_tool,
            residual_rotation_rad=0.0,
            residual_translation_mm=0.0,
        )
        after = tip_position_in_base(remounted, compose(g, tracker_pose), pivot)
        np.testing.assert_allclose(after, before, atol=1e-9)


class TestPivotResidualHelper:
    def test_zero_for_exact_solution(self):
        gt = fixed_tip_rig(18)
        dataset = generate_pivot_dataset(gt, 10, math.radians(20), seed=19)
        residuals = pivot_residuals(dataset, gt.pivot_solution())
        assert residuals.max() < 1e-9
