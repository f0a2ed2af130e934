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
    _norms,
    compose,
    invert,
    lines_spread_at_least,
    rotation_angle_between,
    rotvec_from_rotation,
    transform_point,
)
from .handeye import HandEyeSolution

MIN_ROTATION_SPREAD = math.radians(20.0)
MIN_AXIS_SPREAD = math.radians(5.0)
DEFAULT_MAX_TIP_SPREAD_MM = 1.0


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
class TipCalDataset:
    """Sample i is row i of each stack: the robot pose ``base_from_ee`` and
    the digitizer pose ``tracker_from_digitizer``, whose translation is the
    tip point, in mm."""

    robot: RigidTransform
    digitizer: RigidTransform
    hand_eye: HandEyeSolution

    def __post_init__(self):
        if len(self.robot) != len(self.digitizer):
            raise ValueError("robot and digitizer stacks differ in length")
        if not len(self):
            raise ValueError("tip calibration needs at least one sample")
        if not (
            math.isfinite(self.hand_eye.residual_rotation_rad)
            and math.isfinite(self.hand_eye.residual_translation_mm)
        ):
            raise ValueError("hand-eye solution has non-finite residuals")

    def __len__(self) -> int:
        return len(self.robot)


def pivot_residuals(poses: RigidTransform, solution: PivotSolution) -> np.ndarray:
    """Per-pose distances between the predicted tip and the divot, mm."""
    predicted = transform_point(poses, solution.tip_in_tool)
    return _norms(predicted - solution.divot_in_tracker)


def calibrate_pivot(poses: RigidTransform) -> PivotSolution:
    """Solve the stacked pivot system for tip offset and divot location from
    the tracker poses ``tracker_from_tool`` taken while pivoting, one stack.

    Raises:
        DegenerateConfiguration: fewer than 3 poses, poses too close
            together (max pairwise rotation below ``MIN_ROTATION_SPREAD``),
            all rotations about one common axis (tip offset along that axis
            is unobservable), or a rank-deficient stack.
    """
    n = len(poses)
    if n < 3:
        raise DegenerateConfiguration(f"pivot calibration needs >= 3 poses, got {n}")

    rotations, translations = poses.rotation, poses.translation
    # one row of pairs at a time, stopping at the first row that reaches the
    # bound: the full n(n-1)/2 stack would cost memory, and only a failure
    # needs the largest angle, for its message
    spread = 0.0
    for i in range(n - 1):
        spread = max(spread, rotation_angle_between(rotations[i], rotations[i + 1 :]).max())
        if spread >= MIN_ROTATION_SPREAD:
            break
    else:
        raise DegenerateConfiguration(
            f"rotation spread {math.degrees(spread):.2f} deg below "
            f"{math.degrees(MIN_ROTATION_SPREAD):.1f} deg"
        )

    # all rotations about one common axis leave the along-axis tip component free
    rotvecs = rotvec_from_rotation(compose(poses[1:], invert(poses[0])).rotation)
    norms = _norms(rotvecs)
    moved = norms > 1e-9
    axes = rotvecs[moved] / norms[moved, None]
    if moved.any() and not lines_spread_at_least(axes, MIN_AXIS_SPREAD):
        raise DegenerateConfiguration("all pivot rotations share one rotation axis")

    a = np.concatenate([rotations, np.broadcast_to(-np.eye(3), (n, 3, 3))], axis=2)
    x, _, rank, sv = np.linalg.lstsq(a.reshape(3 * n, 6), -translations.reshape(-1), rcond=None)
    if rank < 6 or sv[-1] <= 1e-8 * sv[0]:
        raise DegenerateConfiguration("pivot system is rank-deficient")

    solution = PivotSolution(tip_in_tool=x[:3], divot_in_tracker=x[3:], rms_residual_mm=0.0)
    residuals = pivot_residuals(poses, solution)
    return replace(solution, rms_residual_mm=float(np.sqrt(np.mean(residuals**2))))


def tip_poses_in_ee(dataset: TipCalDataset) -> RigidTransform:
    """Per-sample pose of the tip in the EE frame via the calibrated chain,
    ``invert(robot) . Y . digitizer``, one stack."""
    ee_from_tracker = compose(invert(dataset.robot), dataset.hand_eye.base_from_tracker)
    return compose(ee_from_tracker, dataset.digitizer)


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
    positions = poses.translation
    mean = positions.mean(axis=0)
    spread = float(np.linalg.norm(positions - mean, axis=1).max())
    if spread > max_spread_mm:
        raise InconsistentSamples(
            f"tip positions spread {spread:.3f} mm exceeds {max_spread_mm:.3f} mm"
        )
    return TipSolution(RigidTransform(poses.rotation[0], mean), spread)


def tip_position_in_base(
    hand_eye: HandEyeSolution, tracker_pose: RigidTransform, pivot: PivotSolution
) -> np.ndarray:
    """Tool-tip position in the robot base frame from one tracker measurement
    ``tracker_from_tool``, or (N, 3) positions from a stack of them.

    This is the point stream that trajectory recordings are built from:
    base_from_tracker . tracker_from_tool applied to the pivot tip offset.
    """
    return transform_point(
        hand_eye.base_from_tracker, transform_point(tracker_pose, pivot.tip_in_tool)
    )
