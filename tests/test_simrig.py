import decimal
import math

import numpy as np
import pytest

from cutcal.errors import DegenerateConfiguration
from conftest import homogeneous, stack
from cutcal.geometry import (
    RigidTransform,
    compose,
    invert,
    rotation_about_axis,
    rotation_angle_between,
    transform_point,
)
from cutcal.handeye import calibrate_hand_eye
from cutcal.logio import serialize_trajectory_log
from cutcal.metrics import PlannedCut, build_report, perpendicular_errors, trajectory_rmse
from cutcal.planner import PassPolicy, plan_sequence, sample_sequence
from cutcal.pointcal import calibrate_pivot, calibrate_tip_in_ee
from cutcal.simrig import (
    JitterModel,
    NoiseModel,
    RigGroundTruth,
    generate_handeye_dataset,
    generate_pivot_dataset,
    generate_tipcal_dataset,
    random_rotation,
    _ar1,
    _diverse_rotations,
    synthesize_muso_trial,
    synthesize_ruso_trial,
)


def plan_mm(target=8.0, speed=3.0) -> PlannedCut:
    return PlannedCut(
        entry_point=[120.0, -40.0, 60.0],
        direction=[1.0, 0.0, 0.0],
        depth_axis=[0.0, 0.0, -1.0],
        length_mm=100.0,
        target_depth_mm=target,
        cutting_speed_mm_s=speed,
    )


TRACKER_NOISES = pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(tracker_rot_sigma_rad=math.radians(0.05)),
        NoiseModel(tracker_trans_sigma_mm=0.1),
        NoiseModel(tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.1),
    ],
    ids=["rotation", "translation", "both"],
)


# References for the stacked generators: one RigidTransform per pose, drawn
# and composed pose by pose.
def perturb_one_pose(
    t: RigidTransform, rot_sigma_rad: float, trans_sigma_mm: float, rng: np.random.Generator
) -> RigidTransform:
    """Tangent-space noise on one pose: right-multiplied rotation wobble,
    additive translation."""
    sigmas = [sigma for sigma in (rot_sigma_rad, trans_sigma_mm) if sigma > 0]
    draws = rng.standard_normal((len(sigmas), 3)) * np.reshape(sigmas, (-1, 1))
    rotation, translation = t.rotation, t.translation
    if rot_sigma_rad > 0:
        rotation = rotation @ rotation_about_axis(draws[0], np.linalg.norm(draws[0]))
    if trans_sigma_mm > 0:
        translation = translation + draws[-1]
    return RigidTransform(rotation, translation)


def per_pose_handeye(gt, n, noise, seed):
    rng = np.random.default_rng(seed)
    tracker_from_base = invert(gt.base_from_tracker)
    rotations = _diverse_rotations(rng, n, math.radians(20.0), math.radians(20.0))
    robots, trackers = [], []
    for r in rotations:
        robot = RigidTransform(r, np.array([600.0, 0.0, 500.0]) + rng.uniform(-0.5, 0.5, 3) * 300.0)
        tracker = compose(compose(tracker_from_base, robot), gt.ee_from_tool)
        robots.append(
            perturb_one_pose(robot, noise.robot_rot_sigma_rad, noise.robot_trans_sigma_mm, rng)
        )
        trackers.append(
            perturb_one_pose(
                tracker, noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm, rng
            )
        )
    return stack(robots), stack(trackers)


def per_pose_pivot(gt, n, cone_half_angle_rad, noise, seed):
    rng = np.random.default_rng(seed)
    nominal = random_rotation(rng)
    poses = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = nominal @ rotation_about_axis(axis, cone_half_angle_rad * rng.uniform(0.0, 1.0))
        exact = RigidTransform(r, gt.divot_in_tracker - r @ gt.tip_in_tool)
        poses.append(
            perturb_one_pose(exact, noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm, rng)
        )
    return (stack(poses),)


def per_pose_tipcal(gt, n, noise, seed):
    rng = np.random.default_rng(seed)
    tracker_from_base = invert(gt.base_from_tracker)
    ee_from_tip = compose(gt.ee_from_tool, RigidTransform(np.eye(3), gt.tip_in_tool))
    robots, digitizers = [], []
    for _ in range(n):
        robot = RigidTransform(
            random_rotation(rng), np.array([600.0, 0.0, 500.0]) + rng.uniform(-150.0, 150.0, 3)
        )
        digitizer = compose(compose(tracker_from_base, robot), ee_from_tip)
        robots.append(
            perturb_one_pose(robot, noise.robot_rot_sigma_rad, noise.robot_trans_sigma_mm, rng)
        )
        digitizers.append(
            perturb_one_pose(
                digitizer, noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm, rng
            )
        )
    return stack(robots), stack(digitizers)


NOISES = {
    "none": NoiseModel(),
    "tracker": NoiseModel(tracker_rot_sigma_rad=math.radians(0.05), tracker_trans_sigma_mm=0.1),
    "robot+tracker": NoiseModel(
        tracker_rot_sigma_rad=math.radians(0.05),
        tracker_trans_sigma_mm=0.1,
        robot_rot_sigma_rad=math.radians(0.02),
        robot_trans_sigma_mm=0.05,
    ),
}


@pytest.mark.parametrize("noise", NOISES.values(), ids=NOISES.keys())
@pytest.mark.parametrize(
    "kind, n",
    [("handeye", 3), ("handeye", 40), ("pivot", 3), ("pivot", 200), ("tipcal", 1), ("tipcal", 30)],
)
def test_stacked_generator_equals_the_per_pose_loop(kind, n, noise):
    for seed in (0, 1):
        gt = RigGroundTruth.random(seed + 50)
        if kind == "handeye":
            ds = generate_handeye_dataset(gt, n, noise, seed=seed)
            got = (ds.robot, ds.tracker)
            want = per_pose_handeye(gt, n, noise, seed)
        elif kind == "pivot":
            got = (generate_pivot_dataset(gt, n, math.radians(30.0), noise, seed=seed),)
            want = per_pose_pivot(gt, n, math.radians(30.0), noise, seed)
        else:
            ds = generate_tipcal_dataset(gt, n, noise, seed=seed)
            got = (ds.robot, ds.digitizer)
            want = per_pose_tipcal(gt, n, noise, seed)
        assert pose_bytes(got) == pose_bytes(want)


def pose_bytes(stacks) -> bytes:
    return b"".join(p.rotation.tobytes() + p.translation.tobytes() for p in stacks)


def dataset_fingerprint(dataset) -> bytes:
    return pose_bytes((dataset.robot, dataset.tracker))


# the largest error of _ar1 and of per_sample_ar1 against exact_ar1, in units
# of float64 epsilon * sigma, set once from one run of the three cases of
# test_ar1_within_rounding_of_exact_recurrence: 153 for the scan at 200k samples
AR1_ROUNDING_BOUND = 256


def per_sample_ar1(timestamps, sigma, tau, rng):
    """Reference for _ar1: the recurrence one sample at a time in float64."""
    n = len(timestamps)
    if sigma == 0.0:
        rng.normal(size=n)
        return np.zeros(n)
    w = rng.normal(size=n)
    x = np.empty(n)
    x[0] = sigma * w[0]
    rho = np.exp(-np.diff(timestamps) / tau)
    scale = sigma * np.sqrt(1.0 - rho**2)
    for k in range(1, n):
        x[k] = rho[k - 1] * x[k - 1] + scale[k - 1] * w[k]
    return x


def exact_ar1(timestamps, sigma, tau, w):
    """The recurrence of _ar1 on the standard normals ``w``, from the same
    float rho and shocks, in 50-digit decimal, each sample rounded once."""
    rho = np.exp(-np.diff(timestamps) / tau)
    shocks = sigma * np.sqrt(1.0 - rho**2) * w[1:]
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = decimal.Decimal(float(sigma * w[0]))
        out = [float(x)]
        for r, b in zip(rho.tolist(), shocks.tolist()):
            x = decimal.Decimal(r) * x + decimal.Decimal(b)
            out.append(float(x))
    return np.array(out)


class TestDeterminism:
    def test_handeye_dataset_bitwise_reproducible(self):
        gt = RigGroundTruth.random(5)
        noise = NoiseModel(tracker_rot_sigma_rad=1e-3, tracker_trans_sigma_mm=0.1)
        a = generate_handeye_dataset(gt, 10, noise, seed=77)
        b = generate_handeye_dataset(gt, 10, noise, seed=77)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_trials_bitwise_reproducible(self):
        gt = RigGroundTruth.random(6)
        plan = plan_mm()
        policy = PassPolicy(depth_increment_mm=4.0)
        noise = NoiseModel(tracker_trans_sigma_mm=0.1)
        a = synthesize_ruso_trial(gt, plan, policy, noise, rate_hz=6.0, seed=3)
        b = synthesize_ruso_trial(gt, plan, policy, noise, rate_hz=6.0, seed=3)
        assert serialize_trajectory_log(a) == serialize_trajectory_log(b)
        c = synthesize_muso_trial(plan, JitterModel(), rate_hz=6.0, seed=3)
        d = synthesize_muso_trial(plan, JitterModel(), rate_hz=6.0, seed=3)
        assert serialize_trajectory_log(c) == serialize_trajectory_log(d)

    @TRACKER_NOISES
    def test_ruso_trial_matches_per_sample_chain(self, noise):
        gt = RigGroundTruth.random(8)
        plan = plan_mm()
        policy = PassPolicy(depth_increment_mm=4.0)
        rec = synthesize_ruso_trial(gt, plan, policy, noise, rate_hz=10.0, seed=4)
        # oracle: one pose per sample through compose / perturb_one_pose,
        # drawing from the same generator sample by sample
        nominal = sample_sequence(plan_sequence(plan, policy), 10.0)
        rng = np.random.default_rng(4)
        r_tool = np.column_stack(
            [plan.direction, np.cross(plan.depth_axis, plan.direction), plan.depth_axis]
        )
        tracker_from_base = invert(gt.base_from_tracker)
        expected = []
        for p in nominal.points:
            tool_in_base = RigidTransform(r_tool, p - r_tool @ gt.tip_in_tool)
            measured = perturb_one_pose(
                compose(tracker_from_base, tool_in_base),
                noise.tracker_rot_sigma_rad,
                noise.tracker_trans_sigma_mm,
                rng,
            )
            expected.append(
                transform_point(compose(gt.base_from_tracker, measured), gt.tip_in_tool)
            )
        np.testing.assert_array_equal(rec.timestamps, nominal.timestamps)
        np.testing.assert_array_equal(rec.tool_active, nominal.tool_active)
        np.testing.assert_allclose(rec.points, expected, rtol=0, atol=1e-9)
        assert np.abs(rec.points - nominal.points).max() > 1e-3  # the noise is there

    @pytest.mark.parametrize("sigma", [0.35, 0.0])
    @pytest.mark.parametrize("spacing", ["uniform", "non-uniform", "1kHz"])
    def test_ar1_within_rounding_of_exact_recurrence(self, sigma, spacing):
        # _ar1 and the per-sample loop round differently; both stay within
        # AR1_ROUNDING_BOUND of the recurrence evaluated exactly from the same
        # float rho and shocks
        tau = 0.2
        steps = np.full(5000, 0.01)
        if spacing == "non-uniform":
            steps = np.random.default_rng(1).uniform(1e-4, 0.5, 5000)
        elif spacing == "1kHz":
            steps, tau = np.full(200_000, 1e-3), 0.8
        timestamps = np.cumsum(steps)
        rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        x = _ar1(timestamps, sigma, tau, rng)
        loop = per_sample_ar1(timestamps, sigma, tau, oracle_rng)
        assert rng.random() == oracle_rng.random()  # same number of draws
        exact = exact_ar1(timestamps, sigma, tau, np.random.default_rng(9).normal(size=len(steps)))
        assert x.dtype == np.float64 and x.shape == exact.shape
        bound = AR1_ROUNDING_BOUND * 2.0**-52 * sigma
        assert np.abs(x - exact).max() <= bound
        assert np.abs(loop - exact).max() <= bound
        if sigma == 0.0:
            assert not np.signbit(x).any()  # +0.0, not -0.0

    def test_rig_reproducible_from_seed(self):
        a, b = RigGroundTruth.random(9), RigGroundTruth.random(9)
        np.testing.assert_array_equal(
            homogeneous(a.base_from_tracker), homogeneous(b.base_from_tracker)
        )
        np.testing.assert_array_equal(a.tip_in_tool, b.tip_in_tool)


class TestOracleClosure:
    def test_zero_noise_handeye_solved_exactly(self):
        for seed in (1, 2, 3):
            gt = RigGroundTruth.random(seed)
            solution = calibrate_hand_eye(generate_handeye_dataset(gt, 12, seed=seed))
            assert (
                rotation_angle_between(
                    solution.base_from_tracker.rotation, gt.base_from_tracker.rotation
                )
                < 1e-8
            )
            assert (
                np.linalg.norm(
                    solution.base_from_tracker.translation - gt.base_from_tracker.translation
                )
                < 1e-6
            )

    def test_zero_noise_pivot_solved_exactly(self):
        gt = RigGroundTruth.random(11)
        solution = calibrate_pivot(generate_pivot_dataset(gt, 30, math.radians(30), seed=12))
        assert np.linalg.norm(solution.tip_in_tool - gt.tip_in_tool) < 1e-6

    def test_zero_noise_tipcal_solved_exactly(self):
        gt = RigGroundTruth.random(13)
        ee_from_tip = calibrate_tip_in_ee(generate_tipcal_dataset(gt, 4, seed=14)).ee_from_tip
        from cutcal.geometry import transform_point

        expected = transform_point(gt.ee_from_tool, gt.tip_in_tool)
        assert np.linalg.norm(ee_from_tip.translation - expected) < 1e-6

    def test_zero_cone_degenerate_downstream(self):
        gt = RigGroundTruth.random(15)
        dataset = generate_pivot_dataset(gt, 20, 0.0, seed=16)
        with pytest.raises(DegenerateConfiguration):
            calibrate_pivot(dataset)


class TestRusoTrials:
    def test_noiseless_pipeline_identity(self):
        gt = RigGroundTruth.random(20)
        plan = plan_mm(target=4.0)
        rec = synthesize_ruso_trial(gt, plan, PassPolicy(depth_increment_mm=4.0), seed=0)
        report = build_report(rec, plan, 100, "R1.1")
        assert report.rmse_mm == 0.0
        assert abs(report.mean_depth_mm - 4.0) < 1e-9

    def test_lateral_noise_maps_to_rmse_band(self):
        gt = RigGroundTruth.random(21)
        plan = plan_mm()
        noise = NoiseModel(tracker_trans_sigma_mm=0.1)
        rmses = []
        for seed in range(10):
            rec = synthesize_ruso_trial(
                gt, plan, PassPolicy(depth_increment_mm=4.0), noise, rate_hz=6.0, seed=seed
            )
            rmses.append(build_report(rec, plan, 100, f"R4.{seed + 1}").rmse_mm)
        assert all(0.07 <= r <= 0.13 for r in rmses)

    def test_depth_near_target_for_8mm_trial(self):
        gt = RigGroundTruth.random(22)
        plan = plan_mm(target=8.0)
        noise = NoiseModel(tracker_trans_sigma_mm=0.1)
        for seed in range(5):
            rec = synthesize_ruso_trial(
                gt, plan, PassPolicy(depth_increment_mm=4.0), noise, rate_hz=6.0, seed=seed
            )
            report = build_report(rec, plan, 100, f"R4.{seed + 1}")
            assert abs(report.mean_depth_mm - 8.0) < 0.1


    @TRACKER_NOISES
    def test_plan_axes_off_within_tolerance(self, noise):
        # unit axes 9e-7 off in length and in perpendicularity, which PlannedCut
        # accepts (1e-6), then turned away from the coordinate axes
        r = random_rotation(np.random.default_rng(23))
        plan = PlannedCut(
            entry_point=[120.0, -40.0, 60.0],
            direction=r @ [1.0 + 9e-7, 0.0, 0.0],
            depth_axis=r @ [9e-7, 0.0, -(1.0 - 9e-7)],
            length_mm=100.0,
            target_depth_mm=8.0,
            cutting_speed_mm_s=3.0,
        )
        policy = PassPolicy(depth_increment_mm=4.0)
        nominal = sample_sequence(plan_sequence(plan, policy), 10.0)
        for seed in range(3):
            gt = RigGroundTruth.random(seed)
            rec = synthesize_ruso_trial(gt, plan, policy, noise, rate_hz=10.0, seed=seed)
            assert np.isfinite(rec.points).all()
            assert np.abs(rec.points - nominal.points).max() < 1.0


class TestMusoTrials:
    def test_zero_jitter_single_pass_equals_robotic_pass(self):
        plan = plan_mm(target=4.0, speed=1.7)
        jitter = JitterModel(
            lateral_sigma_mm=0.0,
            depth_bias_mm=0.0,
            depth_sigma_mm=0.0,
            pass_count_range=(1, 1),
            speed_mean_mm_s=1.7,
            speed_sigma_mm_s=0.0,
        )
        manual = synthesize_muso_trial(plan, jitter, rate_hz=10.0, seed=4)
        robotic = sample_sequence(
            plan_sequence(
                plan,
                PassPolicy(
                    depth_increment_mm=4.0,
                    insertion_speed_mm_s=1.7,
                    cutting_speed_mm_s=1.7,
                ),
            ),
            10.0,
        )
        assert serialize_trajectory_log(manual) == serialize_trajectory_log(robotic)

    def test_lateral_sigma_maps_to_rmse_band(self):
        plan = plan_mm(target=4.0, speed=1.7)
        rmses = []
        for seed in range(10):
            rec = synthesize_muso_trial(plan, JitterModel(lateral_sigma_mm=1.1), seed=seed)
            rmses.append(build_report(rec, plan, 100, f"M1.{seed + 1}").rmse_mm)
        assert all(0.8 <= r <= 1.4 for r in rmses)
        assert abs(np.mean(rmses) - 1.1) < 0.3

    def test_depth_bias_maps_to_over_penetration(self):
        plan = plan_mm(target=4.0, speed=1.7)
        depths = []
        for seed in range(10):
            rec = synthesize_muso_trial(
                plan, JitterModel(depth_bias_mm=3.0, depth_sigma_mm=0.8), seed=seed
            )
            depths.append(build_report(rec, plan, 100, f"M1.{seed + 1}").mean_depth_mm)
        assert abs(np.mean(depths) - 7.0) < 0.8
        assert all(4.5 <= d <= 9.5 for d in depths)


class TestStatisticalConsistency:
    def test_ruso_rmse_matches_configured_sigma_over_30_seeds(self):
        gt = RigGroundTruth.random(30)
        plan = plan_mm(target=4.0)
        sigma = 0.1
        noise = NoiseModel(tracker_trans_sigma_mm=sigma)
        rmses = []
        for seed in range(30):
            rec = synthesize_ruso_trial(
                gt, plan, PassPolicy(depth_increment_mm=4.0), noise, rate_hz=6.0, seed=seed
            )
            rmses.append(trajectory_rmse(perpendicular_errors(rec, plan)))
        rmses = np.asarray(rmses)
        se = rmses.std(ddof=1) / math.sqrt(len(rmses))
        assert abs(rmses.mean() - sigma) <= 3 * se

    def test_muso_rmse_matches_configured_sigma_over_30_seeds(self):
        plan = plan_mm(target=4.0, speed=1.7)
        sigma = 1.1
        rmses = []
        for seed in range(30):
            rec = synthesize_muso_trial(plan, JitterModel(lateral_sigma_mm=sigma), seed=seed)
            rmses.append(trajectory_rmse(perpendicular_errors(rec, plan)))
        rmses = np.asarray(rmses)
        se = rmses.std(ddof=1) / math.sqrt(len(rmses))
        assert abs(rmses.mean() - sigma) <= 3 * se

    @pytest.mark.parametrize("spacing", ["uniform", "non-uniform"])
    def test_ar1_variance_and_lag1_correlation(self, spacing):
        # 200k samples with rho about 0.95 and 0.78: the bands are at least 3.5
        # standard errors of the variance and 5 of each lag-1 correlation
        n, sigma, tau = 200_000, 0.35, 0.2
        steps = np.full(n, 0.01)
        if spacing == "non-uniform":
            steps = np.random.default_rng(2).choice([0.01, 0.05], n)
        timestamps = np.cumsum(steps)
        x = _ar1(timestamps, sigma, tau, np.random.default_rng(3))
        assert abs(np.mean(x**2) / sigma**2 - 1.0) < 0.05
        dt = np.diff(timestamps)
        for step in np.unique(steps):
            pairs = np.isclose(dt, step)
            now, before = x[1:][pairs], x[:-1][pairs]
            corr = np.sum(now * before) / math.sqrt(np.sum(now**2) * np.sum(before**2))
            assert abs(corr - math.exp(-step / tau)) < 0.01, step

    def test_noise_monotonicity_across_levels(self):
        gt = RigGroundTruth.random(31)
        plan = plan_mm(target=4.0)
        medians = []
        for sigma in (0.0, 0.05, 0.2):
            errs = []
            for seed in range(8):
                rec = synthesize_ruso_trial(
                    gt,
                    plan,
                    PassPolicy(depth_increment_mm=4.0),
                    NoiseModel(tracker_trans_sigma_mm=sigma),
                    rate_hz=6.0,
                    seed=seed,
                )
                errs.append(trajectory_rmse(perpendicular_errors(rec, plan)))
            medians.append(float(np.median(errs)))
        assert medians[0] <= medians[1] <= medians[2]


class TestGeneratorValidation:
    def test_handeye_needs_three_stations(self):
        gt = RigGroundTruth.random(40)
        with pytest.raises(ValueError):
            generate_handeye_dataset(gt, 2, seed=1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(tracker_trans_sigma_mm=-0.1)

    def test_bad_pass_range_rejected(self):
        with pytest.raises(ValueError):
            JitterModel(pass_count_range=(0, 3))
