import math

import numpy as np
import pytest

from conftest import assert_transforms_close, random_rigid
from cutcal.errors import DegenerateConfiguration, InsufficientMotion
from cutcal.geometry import (
    RigidTransform,
    compose,
    invert,
    rotation_about_axis,
    rotation_angle,
    rotation_angle_between,
)
from cutcal.handeye import (
    HandEyeDataset,
    HandEyeSample,
    build_relative_motions,
    calibrate_hand_eye,
    closure_residuals,
    solve_base_to_tracker,
    solve_ee_to_tool,
)
from cutcal.simrig import NoiseModel, RigGroundTruth, generate_handeye_dataset


def make_dataset(gt: RigGroundTruth, robot_poses) -> HandEyeDataset:
    w = invert(gt.base_from_tracker)
    samples = [
        HandEyeSample(robot, compose(compose(w, robot), gt.ee_from_tool))
        for robot in robot_poses
    ]
    return HandEyeDataset(tuple(samples))


def recovery_errors(solution, gt):
    return (
        rotation_angle_between(solution.base_from_tracker.rotation, gt.base_from_tracker.rotation),
        float(np.linalg.norm(solution.base_from_tracker.translation - gt.base_from_tracker.translation)),
        rotation_angle_between(solution.ee_from_tool.rotation, gt.ee_from_tool.rotation),
        float(np.linalg.norm(solution.ee_from_tool.translation - gt.ee_from_tool.translation)),
    )


class TestBuildRelativeMotions:
    def test_identical_poses_insufficient(self, rng):
        gt = RigGroundTruth.random(1)
        pose = random_rigid(rng)
        dataset = make_dataset(gt, [pose, pose])
        with pytest.raises(InsufficientMotion):
            build_relative_motions(dataset)

    def test_noiseless_motions_are_conjugate(self):
        gt = RigGroundTruth.random(2)
        dataset = generate_handeye_dataset(gt, 6, seed=5)
        y = gt.base_from_tracker
        for pairing in ("consecutive", "all_pairs"):
            m = build_relative_motions(dataset, pairing=pairing)
            assert len(m) > 0
            for a_r, a_t, b_r, b_t in zip(
                m.a_rotations, m.a_translations, m.b_rotations, m.b_translations
            ):
                a, b = RigidTransform(a_r, a_t), RigidTransform(b_r, b_t)
                assert_transforms_close(compose(a, y), compose(y, b), atol=1e-9)

    def test_rotation_angles_match(self):
        gt = RigGroundTruth.random(3)
        dataset = generate_handeye_dataset(gt, 8, seed=6)
        m = build_relative_motions(dataset)
        assert len(m) > 0
        assert np.all(np.abs(rotation_angle(m.a_rotations) - rotation_angle(m.b_rotations)) < 1e-9)

    def test_stacked_motions_equal_per_pair_compose(self):
        gt = RigGroundTruth.random(5)
        noise = NoiseModel(tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.1)
        dataset = generate_handeye_dataset(gt, 9, noise, seed=8)
        min_rotation = math.radians(60.0)
        s = dataset.samples
        expected = [
            (compose(s[j].robot_pose, invert(s[i].robot_pose)),
             compose(s[j].tracker_pose, invert(s[i].tracker_pose)))
            for i in range(len(s))
            for j in range(i + 1, len(s))
        ]
        expected = [(a, b) for a, b in expected if rotation_angle(a.rotation) >= min_rotation]
        m = build_relative_motions(dataset, min_rotation=min_rotation, pairing="all_pairs")
        assert 0 < len(m) == len(expected) < 36
        for k, (a, b) in enumerate(expected):
            assert_transforms_close(RigidTransform(m.a_rotations[k], m.a_translations[k]), a)
            assert_transforms_close(RigidTransform(m.b_rotations[k], m.b_translations[k]), b)

    def test_one_station_is_insufficient(self, rng):
        dataset = make_dataset(RigGroundTruth.random(6), [random_rigid(rng)])
        for pairing in ("consecutive", "all_pairs"):
            with pytest.raises(InsufficientMotion):
                build_relative_motions(dataset, pairing=pairing)
            with pytest.raises(InsufficientMotion):
                calibrate_hand_eye(dataset, pairing=pairing)

    def test_all_pairs_yields_more_motions(self):
        gt = RigGroundTruth.random(4)
        dataset = generate_handeye_dataset(gt, 6, seed=7)
        consecutive = build_relative_motions(dataset, pairing="consecutive")
        all_pairs = build_relative_motions(dataset, pairing="all_pairs")
        assert len(all_pairs) >= len(consecutive)


class TestSolveBaseToTracker:
    def test_noiseless_recovery(self):
        gt = RigGroundTruth.random(10)
        dataset = generate_handeye_dataset(gt, 12, seed=11)
        y = solve_base_to_tracker(build_relative_motions(dataset))
        assert rotation_angle_between(y.rotation, gt.base_from_tracker.rotation) < 1e-8
        assert np.linalg.norm(y.translation - gt.base_from_tracker.translation) < 1e-6

    def test_parallel_axes_degenerate(self, rng):
        gt = RigGroundTruth.random(12)
        robots = [
            RigidTransform(
                rotation_about_axis([0, 0, 1], math.radians(40.0 * i)),
                rng.uniform(-100, 100, 3),
            )
            for i in range(5)
        ]
        dataset = make_dataset(gt, robots)
        with pytest.raises(DegenerateConfiguration):
            solve_base_to_tracker(build_relative_motions(dataset))

    def test_noisy_monte_carlo_recovery(self):
        gt = RigGroundTruth.random(13)
        noise = NoiseModel(
            tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.1
        )
        for seed in range(10):
            dataset = generate_handeye_dataset(gt, 20, noise, seed=seed)
            y = solve_base_to_tracker(build_relative_motions(dataset))
            assert rotation_angle_between(y.rotation, gt.base_from_tracker.rotation) < math.radians(0.5)
            assert np.linalg.norm(y.translation - gt.base_from_tracker.translation) < 1.0


class TestSolveEeToTool:
    def test_noiseless_recovery(self):
        gt = RigGroundTruth.random(20)
        dataset = generate_handeye_dataset(gt, 10, seed=21)
        x = solve_ee_to_tool(dataset, gt.base_from_tracker)
        assert rotation_angle_between(x.rotation, gt.ee_from_tool.rotation) < 1e-8
        assert np.linalg.norm(x.translation - gt.ee_from_tool.translation) < 1e-6

    def test_single_sample_identity_robot(self, rng):
        gt = RigGroundTruth.random(22)
        dataset = make_dataset(gt, [RigidTransform.identity()])
        x = solve_ee_to_tool(dataset, gt.base_from_tracker)
        # with A' = I the equation reads X = B' directly
        expected = compose(gt.base_from_tracker, dataset.samples[0].tracker_pose)
        assert_transforms_close(x, expected, atol=1e-9)

    def test_least_squares_beats_first_sample_estimate(self):
        gt = RigGroundTruth.random(23)
        noise = NoiseModel(
            tracker_rot_sigma_rad=math.radians(0.1), tracker_trans_sigma_mm=0.3
        )
        dataset = generate_handeye_dataset(gt, 15, noise, seed=24)
        y = gt.base_from_tracker
        x_ls = solve_ee_to_tool(dataset, y)
        first = dataset.samples[0]
        x_first = compose(invert(first.robot_pose), compose(y, first.tracker_pose))
        rot_ls, trans_ls = closure_residuals(dataset, y, x_ls)
        rot_f, trans_f = closure_residuals(dataset, y, x_first)
        assert np.sqrt(np.mean(trans_ls**2)) <= np.sqrt(np.mean(trans_f**2))
        assert np.sqrt(np.mean(rot_ls**2)) <= np.sqrt(np.mean(rot_f**2))


class TestCalibrateHandEye:
    def test_noiseless_ten_pose_rig(self):
        gt = RigGroundTruth.random(30)
        dataset = generate_handeye_dataset(gt, 10, seed=31)
        solution = calibrate_hand_eye(dataset)
        assert solution.residual_rotation_rad < 1e-8
        assert solution.residual_translation_mm < 1e-8

    def test_two_pose_minimal_case(self, rng):
        gt = RigGroundTruth.random(32)
        r0 = random_rigid(rng)
        r1 = compose(
            RigidTransform.from_axis_angle([1, 1, 0], math.radians(70.0), (40.0, -20.0, 15.0)), r0
        )
        dataset = make_dataset(gt, [r0, r1])
        solution = calibrate_hand_eye(dataset)
        assert solution.residual_rotation_rad < 1e-9
        assert solution.residual_translation_mm < 1e-9

    def test_reported_residuals_match_per_sample_recomputation(self):
        gt = RigGroundTruth.random(36)
        noise = NoiseModel(
            tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.2
        )
        dataset = generate_handeye_dataset(gt, 12, noise, seed=37)
        solution = calibrate_hand_eye(dataset)
        rot = []
        trans = []
        tracker_from_base = invert(solution.base_from_tracker)
        for s in dataset.samples:
            predicted = compose(
                compose(tracker_from_base, s.robot_pose), solution.ee_from_tool
            )
            rot.append(rotation_angle_between(predicted.rotation, s.tracker_pose.rotation))
            trans.append(np.linalg.norm(predicted.translation - s.tracker_pose.translation))
        assert abs(solution.residual_rotation_rad - np.sqrt(np.mean(np.square(rot)))) < 1e-12
        assert abs(solution.residual_translation_mm - np.sqrt(np.mean(np.square(trans)))) < 1e-12

    def test_noisy_residual_tracks_injected_sigma(self):
        gt = RigGroundTruth.random(33)
        sigma = 0.1
        for seed in range(10):
            dataset = generate_handeye_dataset(
                gt, 20, NoiseModel(tracker_trans_sigma_mm=sigma), seed=seed
            )
            solution = calibrate_hand_eye(dataset)
            assert sigma / 3 < solution.residual_translation_mm < sigma * 3

    def test_random_ground_truth_recovery_property(self):
        for seed in (40, 41, 42, 43):
            gt = RigGroundTruth.random(seed)
            dataset = generate_handeye_dataset(gt, 8, seed=seed + 100)
            solution = calibrate_hand_eye(dataset)
            rot_y, trans_y, rot_x, trans_x = recovery_errors(solution, gt)
            assert rot_y < 1e-8 and rot_x < 1e-8
            assert trans_y < 1e-6 and trans_x < 1e-6

    def test_noise_monotonicity(self):
        gt = RigGroundTruth.random(50)
        levels = [0.0, math.radians(0.05), math.radians(0.2)]
        medians = []
        for level in levels:
            errs = []
            for seed in range(10):
                noise = NoiseModel(
                    tracker_rot_sigma_rad=level,
                    tracker_trans_sigma_mm=level / math.radians(0.05) * 0.1 if level else 0.0,
                )
                dataset = generate_handeye_dataset(gt, 15, noise, seed=seed)
                solution = calibrate_hand_eye(dataset)
                _, trans_y, _, trans_x = recovery_errors(solution, gt)
                errs.append(trans_y + trans_x)
            medians.append(float(np.median(errs)))
        assert medians[0] <= medians[1] <= medians[2]
