"""Synthetic test rig: a fabricated frame graph with known calibration
ground truth, plus generators for noisy calibration datasets and synthetic
cutting trials.

Robotic trials run the real planner and push every sample through the full
measurement chain: the tool pose the tracker sees is perturbed, then the tip
is reconstructed with ``pointcal.tip_position_in_base`` through the rig's
exact hand-eye and pivot solutions, so tracker noise propagates exactly the
way it would on hardware. Manual-operator trials replace the planner's perfect
tracking with temporally correlated jitter and an over-penetration draw.

All generators take an explicit seed and are deterministic given it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutcalError
from .geometry import (
    RigidTransform,
    _freeze,
    _norms,
    _scaled,
    compose,
    invert,
    lines_spread_at_least,
    orthonormalize,
    rotation_about_axis,
    rotation_angle,
    rotation_from_quat,
    rotvec_from_rotation,
    transform_point,
)
from .handeye import HandEyeDataset, HandEyeSolution
from .metrics import PlannedCut, TrajectoryRecording
from .planner import PassPolicy, _build_passes, plan_sequence, sample_sequence
from .pointcal import PivotSolution, TipCalDataset, tip_position_in_base

# robot stations lie about this center, the hand-eye ones in a cube of this edge
WORKSPACE_CENTER_MM = (600.0, 0.0, 500.0)
WORKSPACE_EXTENT_MM = 300.0
# consecutive hand-eye stations: the least relative rotation and axis separation
STATION_MIN_REL_ANGLE = math.radians(20.0)
STATION_MIN_AXIS_SEP = math.radians(20.0)
TREMOR_CORRELATION_TIME_S = 0.8  # manual tremor and floor roughness


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
    (tremor is correlated over TREMOR_CORRELATION_TIME_S); depth control errs by a per-trial
    over-penetration draw plus small correlated floor roughness. Defaults
    are calibrated to typical manual-osteotomy summary statistics.
    """

    lateral_sigma_mm: float = 1.1
    depth_bias_mm: float = 3.0
    depth_sigma_mm: float = 0.8
    pass_count_range: tuple[int, int] = (3, 6)
    speed_mean_mm_s: float = 1.7
    speed_sigma_mm_s: float = 0.15

    def __post_init__(self):
        if min(self.lateral_sigma_mm, self.depth_sigma_mm, self.speed_sigma_mm_s) < 0:
            raise ValueError("jitter sigmas must be non-negative")
        lo, hi = self.pass_count_range
        if not (1 <= lo <= hi):
            raise ValueError("pass_count_range must satisfy 1 <= lo <= hi")
        if self.speed_mean_mm_s <= 0:
            raise ValueError("speed mean must be positive")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (normalized Gaussian quaternion)."""
    return rotation_from_quat(rng.normal(size=4))


def perturb_transform(poses: RigidTransform, sigmas, normals) -> RigidTransform:
    """The poses of a stack with tangent-space noise added: each rotation
    right-multiplied by a wobble, each translation shifted.

    ``sigmas`` is (rotation rad, translation mm). ``normals`` (N, k, 3) holds
    one row of standard normals per positive sigma, rotation first (see
    _normals): the wobble is the rotation vector sigma * normal, and the
    shift is sigma * normal in mm. A zero sigma leaves its part exact.

    Raises:
        CutcalError: the noise makes a pose non-finite.
    """
    rot_sigma_rad, trans_sigma_mm = sigmas
    draws = normals * np.reshape([sigma for sigma in sigmas if sigma > 0], (-1, 1))
    rotations, translations = poses.rotation, poses.translation
    if rot_sigma_rad > 0:
        wobble = draws[:, 0]
        _, n, e = _scaled(wobble)
        # a wobble that underflowed to zero is no turn: any axis, angle 0
        axes = np.where(n[:, None] > 0.0, wobble, 1.0)
        rotations = rotations @ rotation_about_axis(axes, np.ldexp(n, e))
    if trans_sigma_mm > 0:
        translations = translations + draws[:, -1]
    if not (np.isfinite(rotations).all() and np.isfinite(translations).all()):
        raise CutcalError("the noise overflows a simulated pose")
    return RigidTransform(rotations, translations)


def _normals(rng: np.random.Generator, sigmas, *n: int):
    """The standard normals perturb_transform takes for ``n`` poses, (*n, k, 3)."""
    return rng.standard_normal((*n, sum(sigma > 0 for sigma in sigmas), 3))


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
            if prev_axis is not None and not lines_spread_at_least(
                [axis, prev_axis], min_axis_sep
            ):
                continue
            rotations.append(cand)
            prev_axis = axis
            break
        else:  # pragma: no cover - uniform draws make this unreachable
            raise RuntimeError("failed to sample a diverse rotation")
    return rotations


def _observed_stations(gt: RigGroundTruth, n: int, noise: NoiseModel, rng, draw, marker):
    """Robot stations ``base_from_ee`` and the tracker pose of ``marker``, a
    pose in the EE frame, at each (``invert(Y) . robot . marker``), both
    perturbed per the noise model. Station by station, ``draw(k)`` gives the
    robot rotation and its offset from WORKSPACE_CENTER_MM, then come the
    robot noise and the tracker noise."""
    robot_sigmas = (noise.robot_rot_sigma_rad, noise.robot_trans_sigma_mm)
    tracker_sigmas = (noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm)
    rotations, offsets, robot_normals, tracker_normals = map(np.array, zip(*[
        (*draw(k), _normals(rng, robot_sigmas), _normals(rng, tracker_sigmas)) for k in range(n)
    ]))
    robot = RigidTransform(rotations, np.asarray(WORKSPACE_CENTER_MM) + offsets)
    tracker = compose(compose(invert(gt.base_from_tracker), robot), marker)
    return (
        perturb_transform(robot, robot_sigmas, robot_normals),
        perturb_transform(tracker, tracker_sigmas, tracker_normals),
    )


def generate_handeye_dataset(
    gt: RigGroundTruth, n: int, noise: NoiseModel = NoiseModel(), seed: int = 0
) -> HandEyeDataset:
    """Robot stations across the workspace with the matching tracker poses.

    Tracker poses are computed through the true chain, then both sides are
    perturbed per the noise model.
    """
    if n < 3:
        raise ValueError("hand-eye generation needs n >= 3 stations")
    rng = np.random.default_rng(seed)
    rotations = _diverse_rotations(rng, n, STATION_MIN_REL_ANGLE, STATION_MIN_AXIS_SEP)
    return HandEyeDataset(*_observed_stations(
        gt, n, noise, rng,
        lambda k: (rotations[k], rng.uniform(-0.5, 0.5, 3) * WORKSPACE_EXTENT_MM),
        gt.ee_from_tool,
    ))


def generate_pivot_dataset(
    gt: RigGroundTruth,
    n: int,
    cone_half_angle_rad: float,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
) -> RigidTransform:
    """Tool poses ``tracker_from_tool`` pivoting about the divot, one stack:
    exact before noise injection."""
    if n < 3:
        raise ValueError("pivot generation needs n >= 3 poses")
    if cone_half_angle_rad < 0:
        raise ValueError("cone half-angle must be non-negative")
    rng = np.random.default_rng(seed)
    nominal = random_rotation(rng)
    sigmas = (noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm)
    # pose by pose: the axis, the fraction of the cone, the noise
    axes, fractions, normals = map(np.array, zip(*[
        (rng.normal(size=3), rng.uniform(0.0, 1.0), _normals(rng, sigmas)) for _ in range(n)
    ]))
    axes /= _norms(axes)[:, None]
    r = nominal @ rotation_about_axis(axes, cone_half_angle_rad * fractions)
    translations = gt.divot_in_tracker - (r @ gt.tip_in_tool[:, None])[..., 0]
    return perturb_transform(RigidTransform(r, translations), sigmas, normals)


def generate_tipcal_dataset(
    gt: RigGroundTruth, n: int, noise: NoiseModel = NoiseModel(), seed: int = 0
) -> TipCalDataset:
    """Digitizer-at-tip samples under varying robot orientations."""
    if n < 1:
        raise ValueError("tip calibration generation needs n >= 1 samples")
    rng = np.random.default_rng(seed)
    # true tip pose in the EE frame: marker-body pose chained with the tip offset
    ee_from_tip = compose(gt.ee_from_tool, RigidTransform(np.eye(3), gt.tip_in_tool))
    robot, digitizer = _observed_stations(
        gt, n, noise, rng,
        lambda _: (random_rotation(rng), rng.uniform(-150.0, 150.0, 3)),
        ee_from_tip,
    )
    return TipCalDataset(robot, digitizer, gt.hand_eye_solution())


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
    tracker would see, perturbed per the noise model, and reconstructed into
    a tip position by ``tip_position_in_base`` through the rig's exact
    hand-eye and pivot solutions.
    """
    rng = np.random.default_rng(seed)
    nominal = sample_sequence(plan_sequence(plan, policy), rate_hz)
    if noise.tracker_rot_sigma_rad == 0 and noise.tracker_trans_sigma_mm == 0:
        return nominal
    tracker_from_base = invert(gt.base_from_tracker)
    # tool orientation: blade along the cut, z down the depth axis; right-handed.
    # The plan's axes are orthonormal only to its 1e-6 tolerance: project once
    r_tool = orthonormalize(np.column_stack(
        [plan.direction, np.cross(plan.depth_axis, plan.direction), plan.depth_axis]
    ))
    n = len(nominal.points)
    tracker_from_tool = RigidTransform(
        np.broadcast_to(tracker_from_base.rotation @ r_tool, (n, 3, 3)),
        transform_point(tracker_from_base, nominal.points - r_tool @ gt.tip_in_tool),
    )
    sigmas = (noise.tracker_rot_sigma_rad, noise.tracker_trans_sigma_mm)
    measured = perturb_transform(tracker_from_tool, sigmas, _normals(rng, sigmas, n))
    return _noisy(
        nominal, tip_position_in_base(gt.hand_eye_solution(), measured, gt.pivot_solution())
    )


def _noisy(nominal: TrajectoryRecording, points: np.ndarray) -> TrajectoryRecording:
    """The nominal recording with its points replaced by the noisy ``points``."""
    if not np.isfinite(points).all():
        raise CutcalError("the noise overflows a simulated sample")
    return TrajectoryRecording(nominal.timestamps, points, nominal.tool_active)


def _ar1(timestamps: np.ndarray, sigmas, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Stationary first-order autoregressive series sampled at the given times,
    one per sigma, stacked: (n, *shape of ``sigmas``).

    The series draw their n standard normals one after the other, also for a
    zero sigma, whose series is exactly +0.0. The recurrence x_k = rho_k *
    x_{k-1} + shock_k composes affine maps (a, b) -> (a * a', a * b' + b), so
    all series are solved at once by a doubling (Hillis-Steele) prefix scan:
    after the step of span d, sample k holds the map over samples k - 2d + 1
    to k, and a_0 = 0 starts every series from its stationary draw.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)[..., None]
    n = len(timestamps)
    w = rng.normal(size=(*sigmas.shape[:-1], n))
    rho = np.exp(-np.diff(timestamps) / tau)
    a = np.concatenate(([0.0], rho))
    x = sigmas * np.sqrt(1.0 - a**2) * w
    span = 1
    while span < n:
        # compose each map with the one ``span`` samples back; x reads a before a changes
        x[..., span:] += a[span:] * x[..., :-span]
        a[span:] *= a[:-span]
        span *= 2
    x[sigmas[..., 0] == 0.0] = 0.0  # not the -0.0 that sigma * w gives where w < 0
    return np.moveaxis(x, -1, 0)


def synthesize_muso_trial(
    plan: PlannedCut,
    jitter: JitterModel = JitterModel(),
    rate_hz: float = 10.0,
    seed: int = 0,
) -> TrajectoryRecording:
    """Manual trial: several hand-guided passes with correlated tremor.

    The passes are the planner's insert/cut/retract moves, each pass at its
    own hand speed. Pass depths ramp toward a per-trial final depth drawn as
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
    depths = final_depth * np.arange(1, n_passes + 1) / n_passes
    nominal = sample_sequence(_build_passes(plan, depths, speeds, speeds), rate_hz)

    tremor = _ar1(
        nominal.timestamps,
        (jitter.lateral_sigma_mm, 0.25 * jitter.depth_sigma_mm),  # lateral, floor roughness
        TREMOR_CORRELATION_TIME_S,
        rng,
    )
    points = (
        nominal.points
        + tremor[:, :1] * plan.lateral_axis
        + tremor[:, 1:] * plan.depth_axis
    )
    return _noisy(nominal, points)
