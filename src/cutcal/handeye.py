"""Two-stage hand-eye calibration from paired robot and tracker poses.

A dataset pairs, per station i, the robot pose ``base_from_ee_i`` (forward
kinematics) with the tracker pose ``tracker_from_tool_i`` (optical
measurement of the marker body mounted on the end-effector), each pose set
held as one ``RigidTransform`` stack. Two fixed transforms are estimated:

- ``base_from_tracker`` (Y): pose of the tracker in the robot base frame.
- ``ee_from_tool`` (X): pose of the marker body in the end-effector frame.

The measurement chain closes as

    tracker_from_tool_i = invert(Y) . base_from_ee_i . X

Relative motions A (robot) and B (tracker) between stations satisfy
``A . Y = Y . B``, which decouples into a rotation fit on rotation-axis
pairs followed by a linear translation solve. X then follows from the
per-station linear system ``base_from_ee_i . X = Y . tracker_from_tool_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InsufficientMotion
from .geometry import (
    RigidTransform,
    _nearest_rotation,
    _norms,
    best_fit_rotation,
    compose,
    invert,
    lines_spread_at_least,
    rotation_angle,
    rotation_angle_between,
    rotation_between_vectors,
    rotvec_from_rotation,
)

DEFAULT_MIN_ROTATION = math.radians(10.0)
MIN_AXIS_SEPARATION = math.radians(15.0)


@dataclass(frozen=True)
class HandEyeDataset:
    """Station i is row i of each stack: the robot pose ``base_from_ee`` and
    the tracker pose ``tracker_from_tool``, translations in mm."""

    robot: RigidTransform
    tracker: RigidTransform

    def __post_init__(self):
        if len(self.robot) != len(self.tracker):
            raise ValueError("robot and tracker stacks differ in length")

    def __len__(self) -> int:
        return len(self.robot)


@dataclass(frozen=True)
class RelativeMotions:
    """Relative motions between stations, one per row: A in the robot base, B in the tracker."""

    a: RigidTransform
    b: RigidTransform

    def __len__(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class HandEyeSolution:
    """Calibrated transforms plus RMS closure residuals over the dataset."""

    base_from_tracker: RigidTransform  # Y
    ee_from_tool: RigidTransform  # X
    residual_rotation_rad: float
    residual_translation_mm: float


def build_relative_motions(
    dataset: HandEyeDataset,
    min_rotation: float = DEFAULT_MIN_ROTATION,
    pairing: str = "consecutive",
) -> RelativeMotions:
    """Relative motions between stations, filtered by rotation magnitude.

    ``pairing`` is "consecutive" (i, i+1; O(N)) or "all_pairs". Pairs whose
    robot-side rotation is below ``min_rotation`` carry little hand-eye
    information and are dropped.

    Raises:
        InsufficientMotion: no pair rotates by at least ``min_rotation``.
    """
    n = len(dataset)
    if pairing == "consecutive":
        i, j = np.arange(n - 1), np.arange(1, n)
    elif pairing == "all_pairs":
        i, j = np.triu_indices(n, k=1)
    else:
        raise ValueError(f"unknown pairing scheme {pairing!r}")

    # A_ij = pose_j . pose_i^-1 (Park & Martin 1994)
    a = compose(dataset.robot[j], invert(dataset.robot[i]))
    keep = rotation_angle(a.rotation) >= min_rotation
    if not keep.any():
        raise InsufficientMotion(
            f"no relative motion rotates by at least {math.degrees(min_rotation):.1f} deg"
        )
    i, j = i[keep], j[keep]
    return RelativeMotions(a[keep], compose(dataset.tracker[j], invert(dataset.tracker[i])))


def solve_base_to_tracker(motions: RelativeMotions) -> RigidTransform:
    """Least-squares Y from relative motions, rotation first then translation.

    Rotation: the axis-angle vectors of A and B are conjugate, so the
    rotation of Y is the best-fit rotation mapping B-axes onto A-axes
    (angle-weighted). Translation: stack ``(R_A - I) t = R_Y t_B - t_A``.

    With a single motion the solution is not unique; the minimal-rotation,
    minimum-norm representative is returned (it still closes the loop
    exactly on noiseless data).

    Raises:
        DegenerateConfiguration: no motion rotates (its log map is below
            1e-9 rad), a single motion whose tracker side does not, or two
            or more motions whose rotation axes are all parallel within
            ``MIN_AXIS_SEPARATION`` (translation along the common axis is
            unobservable).
    """
    if not len(motions):
        raise InsufficientMotion("no relative motions supplied")

    rotvecs_a = rotvec_from_rotation(motions.a.rotation)
    rotvecs_b = rotvec_from_rotation(motions.b.rotation)
    # a motion whose log map is this small carries no rotation axis
    norms = _norms(rotvecs_a)
    moved = norms > 1e-9
    if not moved.any():
        raise DegenerateConfiguration("no relative motion rotates")

    if len(motions) == 1:
        if not _norms(rotvecs_b[0]) > 1e-9:
            raise DegenerateConfiguration("the tracker side of the one motion does not rotate")
        r_y = rotation_between_vectors(rotvecs_b[0], rotvecs_a[0])
    else:
        if not lines_spread_at_least(rotvecs_a[moved] / norms[moved, None], MIN_AXIS_SEPARATION):
            raise DegenerateConfiguration(
                "rotation axes of all relative motions are (near-)parallel"
            )
        r_y = best_fit_rotation(rotvecs_b, rotvecs_a)

    rows = (motions.a.rotation - np.eye(3)).reshape(-1, 3)
    rhs = (motions.b.translation @ r_y.T - motions.a.translation).reshape(-1)
    t_y, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return RigidTransform(r_y, t_y)


def solve_ee_to_tool(dataset: HandEyeDataset, base_from_tracker: RigidTransform) -> RigidTransform:
    """Least-squares X given Y, from ``base_from_ee_i . X = Y . tracker_from_tool_i``.

    The rotation stage projects the average relative rotation onto SO(3);
    the translation stage averages the per-station closed-form estimates
    (both are the exact least-squares solutions of their stacked systems).

    Raises:
        DegenerateConfiguration: empty dataset or a rank-deficient rotation
            stack (mutually cancelling station rotations).
    """
    if len(dataset) == 0:
        raise DegenerateConfiguration("empty dataset")
    # the per-station estimates of X: invert(base_from_ee) . Y . tracker_from_tool
    estimates = compose(invert(dataset.robot), compose(base_from_tracker, dataset.tracker))
    r_x, sv = _nearest_rotation(estimates.rotation.sum(axis=0))
    if sv[2] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateConfiguration("rotation averaging stack is rank-deficient")
    t_x = estimates.translation.mean(axis=0)
    return RigidTransform(r_x, t_x)


def closure_residuals(
    dataset: HandEyeDataset, base_from_tracker: RigidTransform, ee_from_tool: RigidTransform
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample loop-closure errors (rotation rad, translation mm)."""
    predicted = compose(compose(invert(base_from_tracker), dataset.robot), ee_from_tool)
    rot = rotation_angle_between(predicted.rotation, dataset.tracker.rotation)
    trans = np.linalg.norm(predicted.translation - dataset.tracker.translation, axis=1)
    return rot, trans


def calibrate_hand_eye(
    dataset: HandEyeDataset,
    min_rotation: float = DEFAULT_MIN_ROTATION,
    pairing: str = "consecutive",
) -> HandEyeSolution:
    """Run both stages and report RMS loop-closure residuals."""
    motions = build_relative_motions(dataset, min_rotation=min_rotation, pairing=pairing)
    y = solve_base_to_tracker(motions)
    x = solve_ee_to_tool(dataset, y)
    rot, trans = closure_residuals(dataset, y, x)
    return HandEyeSolution(
        base_from_tracker=y,
        ee_from_tool=x,
        residual_rotation_rad=float(np.sqrt(np.mean(rot**2))),
        residual_translation_mm=float(np.sqrt(np.mean(trans**2))),
    )
