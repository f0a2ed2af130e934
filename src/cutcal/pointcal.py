"""Point calibrations: pivot calibration of a tool tip and digitizer-based
tip calibration in the robot end-effector frame.

Pivot calibration: the tool tip rests in a fixed divot while the body is
pivoted. Every tracker pose then satisfies

    R_i @ tip_in_tool + t_i = divot_in_tracker

which stacks into the linear system ``[R_i | -I] [tip; divot] = -t_i``
solved in least squares for both unknowns at once.

Tip calibration: a tracked digitizer points at the tool tip while the robot
holds a pose; chaining digitizer -> tracker -> base -> end-effector yields
the pose of the tip in the EE frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateConfiguration, InconsistentSamples
from .geometry import (
    RigidTransform,
    _freeze,
    compose,
    invert,
    max_line_angle,
    rotation_angle_between,
    rotvec_from_rotation,
    transform_point,
)
from .handeye import HandEyeSolution

DEFAULT_MIN_ROTATION_SPREAD = math.radians(20.0)
DEFAULT_MIN_AXIS_SPREAD = math.radians(5.0)
DEFAULT_MAX_TIP_SPREAD_MM = 1.0


@dataclass(frozen=True)
class PivotDataset:
    poses: tuple[RigidTransform, ...]  # tracker_from_tool while pivoting

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self) -> int:
        return len(self.poses)


@dataclass(frozen=True)
class PivotSolution:
    tip_in_tool: np.ndarray  # mm, tool frame
    divot_in_tracker: np.ndarray  # mm, tracker frame
    rms_residual_mm: float

    def __post_init__(self):
        _freeze(self, 3, "tip_in_tool", "divot_in_tracker")


@dataclass(frozen=True)
class TipSolution:
    ee_from_tip: RigidTransform
    spread_mm: float  # largest tip-position distance from the mean


@dataclass(frozen=True)
class TipCalSample:
    robot_pose: RigidTransform  # base_from_ee
    digitizer_pose: RigidTransform  # tracker_from_digitizer; translation is the tip point


@dataclass(frozen=True)
class TipCalDataset:
    samples: tuple[TipCalSample, ...]
    hand_eye: HandEyeSolution

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("tip calibration needs at least one sample")
        if not (
            math.isfinite(self.hand_eye.residual_rotation_rad)
            and math.isfinite(self.hand_eye.residual_translation_mm)
        ):
            raise ValueError("hand-eye solution has non-finite residuals")


def pivot_residuals(dataset: PivotDataset, solution: PivotSolution) -> np.ndarray:
    """Per-pose distances between the predicted tip and the divot, mm."""
    return np.array(
        [
            np.linalg.norm(transform_point(p, solution.tip_in_tool) - solution.divot_in_tracker)
            for p in dataset.poses
        ]
    )


def calibrate_pivot(
    dataset: PivotDataset,
    min_rotation_spread: float = DEFAULT_MIN_ROTATION_SPREAD,
    min_axis_spread: float = DEFAULT_MIN_AXIS_SPREAD,
) -> PivotSolution:
    """Solve the stacked pivot system for tip offset and divot location.

    Raises:
        DegenerateConfiguration: fewer than 3 poses, poses too close
            together (max pairwise rotation below ``min_rotation_spread``),
            all rotations about one common axis (tip offset along that axis
            is unobservable), or a rank-deficient stack.
    """
    n = len(dataset)
    if n < 3:
        raise DegenerateConfiguration(f"pivot calibration needs >= 3 poses, got {n}")

    rotations = [p.rotation for p in dataset.poses]
    spread = max(
        rotation_angle_between(rotations[i], rotations[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    if spread < min_rotation_spread:
        raise DegenerateConfiguration(
            f"rotation spread {math.degrees(spread):.2f} deg below "
            f"{math.degrees(min_rotation_spread):.1f} deg"
        )

    # all rotations about one common axis leave the along-axis tip component free
    rel_axes = []
    for i in range(1, n):
        v = rotvec_from_rotation(rotations[i] @ rotations[0].T)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            rel_axes.append(v / norm)
    if rel_axes and max_line_angle(rel_axes) < min_axis_spread:
        raise DegenerateConfiguration("all pivot rotations share one rotation axis")

    a = np.zeros((3 * n, 6))
    rhs = np.zeros(3 * n)
    for i, pose in enumerate(dataset.poses):
        a[3 * i : 3 * i + 3, :3] = pose.rotation
        a[3 * i : 3 * i + 3, 3:] = -np.eye(3)
        rhs[3 * i : 3 * i + 3] = -pose.translation
    x, _, rank, sv = np.linalg.lstsq(a, rhs, rcond=None)
    if rank < 6 or sv[-1] <= 1e-8 * sv[0]:
        raise DegenerateConfiguration("pivot system is rank-deficient")

    solution = PivotSolution(tip_in_tool=x[:3], divot_in_tracker=x[3:], rms_residual_mm=0.0)
    residuals = pivot_residuals(dataset, solution)
    return replace(solution, rms_residual_mm=float(np.sqrt(np.mean(residuals**2))))


def tip_poses_in_ee(dataset: TipCalDataset) -> list[RigidTransform]:
    """Per-sample pose of the tip in the EE frame via the calibrated chain."""
    y = dataset.hand_eye.base_from_tracker
    return [
        compose(compose(invert(s.robot_pose), y), s.digitizer_pose) for s in dataset.samples
    ]


def calibrate_tip_in_ee(
    dataset: TipCalDataset, max_spread_mm: float = DEFAULT_MAX_TIP_SPREAD_MM
) -> TipSolution:
    """Pose of the tool tip in the end-effector frame (``ee_from_tip``).

    Translations are averaged across samples; the orientation is taken from
    the first sample (the digitizer constrains a point, not a frame). The
    spread is the largest distance of a sample's tip position from the mean.

    Raises:
        InconsistentSamples: some sample's tip position deviates from the
            mean by more than ``max_spread_mm``.
    """
    poses = tip_poses_in_ee(dataset)
    positions = np.array([p.translation for p in poses])
    mean = positions.mean(axis=0)
    spread = float(np.linalg.norm(positions - mean, axis=1).max())
    if spread > max_spread_mm:
        raise InconsistentSamples(
            f"tip positions spread {spread:.3f} mm exceeds {max_spread_mm:.3f} mm"
        )
    return TipSolution(RigidTransform(poses[0].rotation, mean), spread)


def tip_position_in_base(
    hand_eye: HandEyeSolution, tracker_pose: RigidTransform, pivot: PivotSolution
) -> np.ndarray:
    """Tool-tip position in the robot base frame from one tracker measurement.

    This is the point stream that trajectory recordings are built from:
    base_from_tracker . tracker_from_tool applied to the pivot tip offset.
    """
    return transform_point(
        compose(hand_eye.base_from_tracker, tracker_pose), pivot.tip_in_tool
    )
