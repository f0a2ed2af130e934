"""Synthetic test rig: a fabricated frame graph with known calibration
ground truth, plus generators for noisy calibration datasets and synthetic
cutting trials.

Robotic trials run the real planner and push every sample through the full
measurement chain (tool pose seen by the tracker, perturbed, reconstructed
via the calibrated transforms), so tracker noise propagates exactly the way
it would on hardware. Manual-operator trials replace the planner's perfect
tracking with temporally correlated jitter and an over-penetration draw.

All generators take an explicit seed and are deterministic given it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    RigidTransform,
    _freeze,
    _norms,
    compose,
    invert,
    max_line_angle,
    rotation_about_axis,
    rotation_angle,
    rotation_from_quat,
    rotvec_from_rotation,
    transform_point,
)
from .handeye import HandEyeDataset, HandEyeSample, HandEyeSolution
from .metrics import PlannedCut, TrajectoryRecording
from .planner import (
    DEFAULT_RETRACT_CLEARANCE,
    DEFAULT_RETRACTION_SPEED,
    CutSequence,
    Pass,
    PassPolicy,
    Segment,
    plan_sequence,
    sample_sequence,
)
from .pointcal import PivotDataset, PivotSolution, TipCalDataset, TipCalSample


@dataclass(frozen=True)
class RigGroundTruth:
    """True transforms of a simulated robot + tracker + tool setup."""

    base_from_tracker: RigidTransform  # Y
    ee_from_tool: RigidTransform  # X
    tip_in_tool: np.ndarray  # mm
    divot_in_tracker: np.ndarray  # mm
    seed: int

    def __post_init__(self):
        _freeze(self, 3, "tip_in_tool", "divot_in_tracker")

    @classmethod
    def random(cls, seed: int) -> RigGroundTruth:
        """A plausible rig: tracker a couple of meters from the base, marker
        body offset ~10 cm from the EE flange, long slender tool."""
        rng = np.random.default_rng(seed)
        y = RigidTransform(
            random_rotation(rng),
            rng.uniform(-400.0, 400.0, 3) + np.array([1800.0, 0.0, 900.0]),
        )
        x = RigidTransform(random_rotation(rng), rng.uniform(-80.0, 80.0, 3))
        tip = np.array([0.0, 0.0, 120.0]) + rng.uniform(-10.0, 10.0, 3)
        divot = rng.uniform(-150.0, 150.0, 3) + np.array([0.0, 0.0, 1200.0])
        return cls(y, x, tip, divot, seed)

    def hand_eye_solution(self) -> HandEyeSolution:
        """The exact solution this rig should calibrate to."""
        return HandEyeSolution(self.base_from_tracker, self.ee_from_tool, 0.0, 0.0)

    def pivot_solution(self) -> PivotSolution:
        return PivotSolution(self.tip_in_tool, self.divot_in_tracker, 0.0)


@dataclass(frozen=True)
class NoiseModel:
    """Per-measurement sensor noise, applied in the tangent space of each
    pose (axis-angle rotation wobble plus translation offset)."""

    tracker_rot_sigma_rad: float = 0.0
    tracker_trans_sigma_mm: float = 0.0
    robot_rot_sigma_rad: float = 0.0
    robot_trans_sigma_mm: float = 0.0

    def __post_init__(self):
        if min(
            self.tracker_rot_sigma_rad,
            self.tracker_trans_sigma_mm,
            self.robot_rot_sigma_rad,
            self.robot_trans_sigma_mm,
        ) < 0:
            raise ValueError("noise sigmas must be non-negative")


@dataclass(frozen=True)
class JitterModel:
    """Hand-held operator behavior for manual trials.

    Lateral deviation is a stationary first-order autoregressive process
    (tremor is temporally correlated); depth control errs by a per-trial
    over-penetration draw plus small correlated floor roughness. Defaults
    are calibrated to typical manual-osteotomy summary statistics.
    """

    lateral_sigma_mm: float = 1.1
    depth_bias_mm: float = 3.0
    depth_sigma_mm: float = 0.8
    correlation_time_s: float = 0.8
    pass_count_range: tuple[int, int] = (3, 6)
    speed_mean_mm_s: float = 1.7
    speed_sigma_mm_s: float = 0.15

    def __post_init__(self):
        if min(self.lateral_sigma_mm, self.depth_sigma_mm, self.speed_sigma_mm_s) < 0:
            raise ValueError("jitter sigmas must be non-negative")
        if self.correlation_time_s <= 0:
            raise ValueError("correlation time must be positive")
        lo, hi = self.pass_count_range
        if not (1 <= lo <= hi):
            raise ValueError("pass_count_range must satisfy 1 <= lo <= hi")
        if self.speed_mean_mm_s <= 0:
            raise ValueError("speed mean must be positive")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (normalized Gaussian quaternion)."""
    return rotation_from_quat(rng.normal(size=4))


def _perturb(rotations, translations, rot_sigma_rad: float, trans_sigma_mm: float, rng):
    """perturb_transform on stacked poses; each pose draws what one call would."""
    sigmas = [sigma for sigma in (rot_sigma_rad, trans_sigma_mm) if sigma > 0]
    draws = rng.standard_normal((len(rotations), len(sigmas), 3)) * np.reshape(sigmas, (-1, 1))
    if rot_sigma_rad > 0:
        wobble = draws[:, 0]
        rotations = rotations @ rotation_about_axis(wobble, _norms(wobble))
    if trans_sigma_mm > 0:
        translations = translations + draws[:, -1]
    return rotations, translations


def perturb_transform(
    t: RigidTransform, rot_sigma_rad: float, trans_sigma_mm: float, rng: np.random.Generator
) -> RigidTransform:
    """Tangent-space noise: right-multiplied rotation wobble, additive translation."""
    r, trans = _perturb(t.rotation[None], t.translation[None], rot_sigma_rad, trans_sigma_mm, rng)
    return RigidTransform(r[0], trans[0])


def _diverse_rotations(
    rng: np.random.Generator, n: int, min_rel_angle: float, min_axis_sep: float
) -> list[np.ndarray]:
    """Random orientations whose consecutive relative motions have large,
    mutually non-parallel rotation axes."""
    rotations: list[np.ndarray] = [random_rotation(rng)]
    prev_axis: np.ndarray | None = None
    while len(rotations) < n:
        for _ in range(500):
            cand = random_rotation(rng)
            rel = cand @ rotations[-1].T
            if rotation_angle(rel) < min_rel_angle:
                continue
            axis = rotvec_from_rotation(rel)
            axis /= np.linalg.norm(axis)
            if prev_axis is not None and max_line_angle([axis, prev_axis]) < min_axis_sep:
                continue
            rotations.append(cand)
            prev_axis = axis
            break
        else:  # pragma: no cover - uniform draws make this unreachable
            raise RuntimeError("failed to sample a diverse rotation")
    return rotations


def generate_handeye_dataset(
    gt: RigGroundTruth,
    n: int,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
    workspace_center=(600.0, 0.0, 500.0),
    workspace_extent_mm: float = 300.0,
    min_rel_angle: float = math.radians(20.0),
    min_axis_sep: float = math.radians(20.0),
) -> HandEyeDataset:
    """Robot stations across the workspace with the matching tracker poses.

    Tracker poses are computed through the true chain, then both sides are
    perturbed per the noise model.
    """
    if n < 3:
        raise ValueError("hand-eye generation needs n >= 3 stations")
    rng = np.random.default_rng(seed)
    tracker_from_base = invert(gt.base_from_tracker)
    rotations = _diverse_rotations(rng, n, min_rel_angle, min_axis_sep)
    center = np.asarray(workspace_center, dtype=np.float64)
    samples = []
    for r in rotations:
        robot = RigidTransform(r, center + rng.uniform(-0.5, 0.5, 3) * workspace_extent_mm)
        tracker = compose(compose(tracker_from_base, robot), gt.ee_from_tool)
        samples.append(
            HandEyeSample(
                robot_pose=perturb_transform(
                    robot, noise.robot_rot_sigma_rad, noise.robot_trans_sigma_mm, rng
                ),
                tracker_pose=perturb_transform(
                    tracker, noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm, rng
                ),
            )
        )
    return HandEyeDataset(tuple(samples))


def generate_pivot_dataset(
    gt: RigGroundTruth,
    n: int,
    cone_half_angle_rad: float,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
) -> PivotDataset:
    """Tool poses pivoting about the divot: exact before noise injection."""
    if n < 3:
        raise ValueError("pivot generation needs n >= 3 poses")
    if cone_half_angle_rad < 0:
        raise ValueError("cone half-angle must be non-negative")
    rng = np.random.default_rng(seed)
    nominal = random_rotation(rng)
    poses = []
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = nominal @ rotation_about_axis(axis, cone_half_angle_rad * rng.uniform(0.0, 1.0))
        exact = RigidTransform(r, gt.divot_in_tracker - r @ gt.tip_in_tool)
        poses.append(
            perturb_transform(exact, noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm, rng)
        )
    return PivotDataset(tuple(poses))


def generate_tipcal_dataset(
    gt: RigGroundTruth,
    n: int,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
    workspace_center=(600.0, 0.0, 500.0),
) -> TipCalDataset:
    """Digitizer-at-tip samples under varying robot orientations."""
    if n < 1:
        raise ValueError("tip calibration generation needs n >= 1 samples")
    rng = np.random.default_rng(seed)
    tracker_from_base = invert(gt.base_from_tracker)
    # true tip pose in the EE frame: marker-body pose chained with the tip offset
    ee_from_tip = compose(
        gt.ee_from_tool, RigidTransform(np.eye(3), gt.tip_in_tool)
    )
    samples = []
    for _ in range(n):
        robot = RigidTransform(
            random_rotation(rng), np.asarray(workspace_center) + rng.uniform(-150.0, 150.0, 3)
        )
        digitizer = compose(compose(tracker_from_base, robot), ee_from_tip)
        samples.append(
            TipCalSample(
                robot_pose=perturb_transform(
                    robot, noise.robot_rot_sigma_rad, noise.robot_trans_sigma_mm, rng
                ),
                digitizer_pose=perturb_transform(
                    digitizer, noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm, rng
                ),
            )
        )
    return TipCalDataset(tuple(samples), gt.hand_eye_solution())


def synthesize_ruso_trial(
    gt: RigGroundTruth,
    plan: PlannedCut,
    policy: PassPolicy,
    noise: NoiseModel = NoiseModel(),
    rate_hz: float = 10.0,
    seed: int = 0,
) -> TrajectoryRecording:
    """Robotic trial: planner output pushed through the noisy tracker chain.

    The nominal tip path is converted per sample into the tool pose the
    tracker would see, perturbed per the noise model, and reconstructed
    into a tip position through the calibrated transforms.
    """
    rng = np.random.default_rng(seed)
    nominal = sample_sequence(plan_sequence(plan, policy), rate_hz)
    if noise.tracker_rot_sigma_rad == 0 and noise.tracker_trans_sigma_mm == 0:
        return nominal
    tracker_from_base = invert(gt.base_from_tracker)
    # tool orientation: blade along the cut, z down the depth axis; right-handed
    r_tool = np.column_stack(
        [plan.direction, np.cross(plan.depth_axis, plan.direction), plan.depth_axis]
    )
    rotations, translations = _perturb(
        np.broadcast_to(tracker_from_base.rotation @ r_tool, (len(nominal.points), 3, 3)),
        transform_point(tracker_from_base, nominal.points - r_tool @ gt.tip_in_tool),
        noise.tracker_rot_sigma_rad,
        noise.tracker_trans_sigma_mm,
        rng,
    )
    points = transform_point(gt.base_from_tracker, rotations @ gt.tip_in_tool + translations)
    return TrajectoryRecording(nominal.timestamps, points, nominal.tool_active)


def _ar1(timestamps: np.ndarray, sigma: float, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Stationary first-order autoregressive series sampled at the given times."""
    n = len(timestamps)
    if sigma == 0.0:
        rng.normal(size=n)  # keep the draw count independent of sigma
        return np.zeros(n)
    w = rng.normal(size=n)
    x = np.empty(n)
    x[0] = sigma * w[0]
    rho = np.exp(-np.diff(timestamps) / tau)
    scale = sigma * np.sqrt(1.0 - rho**2)
    for k in range(1, n):
        x[k] = rho[k - 1] * x[k - 1] + scale[k - 1] * w[k]
    return x


def synthesize_muso_trial(
    plan: PlannedCut,
    jitter: JitterModel = JitterModel(),
    rate_hz: float = 10.0,
    seed: int = 0,
) -> TrajectoryRecording:
    """Manual trial: several hand-guided passes with correlated tremor.

    Pass depths ramp toward a per-trial final depth drawn as
    target + N(depth_bias, depth_sigma); lateral tremor is a stationary
    AR(1) process with sigma = lateral_sigma; the cut floor carries smaller
    correlated roughness (0.25 * depth_sigma).
    """
    rng = np.random.default_rng(seed)
    lo, hi = jitter.pass_count_range
    n_passes = int(rng.integers(lo, hi + 1))
    over = rng.normal(jitter.depth_bias_mm, jitter.depth_sigma_mm)
    final_depth = max(plan.target_depth_mm + over, 0.25 * plan.target_depth_mm)
    speeds = np.maximum(
        rng.normal(jitter.speed_mean_mm_s, jitter.speed_sigma_mm_s, n_passes),
        0.2 * jitter.speed_mean_mm_s,
    )

    entry = plan.entry_point
    along = plan.direction * plan.length_mm
    down = plan.depth_axis
    passes = []
    for k in range(n_passes):
        depth = final_depth * (k + 1) / n_passes
        floor = entry + depth * down
        speed = float(speeds[k])
        passes.append(
            Pass(
                insert=Segment(entry, floor, speed, tool_active=True),
                cut=Segment(floor, floor + along, speed, tool_active=True),
                retract=Segment(
                    floor + along,
                    entry + along - DEFAULT_RETRACT_CLEARANCE * down,
                    DEFAULT_RETRACTION_SPEED,
                    tool_active=False,
                ),
            )
        )
    nominal = sample_sequence(CutSequence(tuple(passes)), rate_hz)

    lateral = _ar1(nominal.timestamps, jitter.lateral_sigma_mm, jitter.correlation_time_s, rng)
    roughness = _ar1(
        nominal.timestamps, 0.25 * jitter.depth_sigma_mm, jitter.correlation_time_s, rng
    )
    points = (
        nominal.points
        + lateral[:, None] * plan.lateral_axis
        + roughness[:, None] * plan.depth_axis
    )
    return TrajectoryRecording(nominal.timestamps, points, nominal.tool_active)
