"""Two-stage hand-eye calibration from paired robot and tracker poses.

A dataset pairs, per station i, the robot pose ``base_from_ee_i`` (forward
kinematics) with the tracker pose ``tracker_from_tool_i`` (optical
measurement of the marker body mounted on the end-effector). Two fixed
transforms are estimated:

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
    _stack,
    best_fit_rotation,
    invert,
    max_line_angle,
    orthonormalize,
    rotation_angle,
    rotation_angle_between,
    rotation_between_vectors,
    rotvec_from_rotation,
)

DEFAULT_MIN_ROTATION = math.radians(10.0)
DEFAULT_MIN_AXIS_SEPARATION = math.radians(15.0)


@dataclass(frozen=True)
class HandEyeSample:
    robot_pose: RigidTransform  # base_from_ee
    tracker_pose: RigidTransform  # tracker_from_tool


@dataclass(frozen=True)
class HandEyeDataset:
    samples: tuple[HandEyeSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class RelativeMotions:
    """Relative motions between stations, one per row: A in the robot base, B in the tracker."""

    a_rotations: np.ndarray  # (M, 3, 3)
    a_translations: np.ndarray  # (M, 3)
    b_rotations: np.ndarray  # (M, 3, 3)
    b_translations: np.ndarray  # (M, 3)

    def __len__(self) -> int:
        return len(self.a_rotations)


@dataclass(frozen=True)
class HandEyeSolution:
    """Calibrated transforms plus RMS closure residuals over the dataset."""

    base_from_tracker: RigidTransform  # Y
    ee_from_tool: RigidTransform  # X
    residual_rotation_rad: float
    residual_translation_mm: float


def _motions(poses: list[RigidTransform], i: np.ndarray, j: np.ndarray):
    """compose(poses[j], invert(poses[i])) for each index pair, stacked."""
    rotations, translations = _stack(poses)
    rel = rotations[j] @ np.swapaxes(rotations[i], 1, 2)
    return rel, translations[j] - np.einsum("nij,nj->ni", rel, translations[i])


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

    a_r, a_t = _motions([s.robot_pose for s in dataset.samples], i, j)
    keep = rotation_angle(a_r) >= min_rotation
    if not keep.any():
        raise InsufficientMotion(
            f"no relative motion rotates by at least {math.degrees(min_rotation):.1f} deg"
        )
    b_r, b_t = _motions([s.tracker_pose for s in dataset.samples], i[keep], j[keep])
    return RelativeMotions(a_r[keep], a_t[keep], b_r, b_t)


def solve_base_to_tracker(
    motions: RelativeMotions,
    min_axis_separation: float = DEFAULT_MIN_AXIS_SEPARATION,
) -> RigidTransform:
    """Least-squares Y from relative motions, rotation first then translation.

    Rotation: the axis-angle vectors of A and B are conjugate, so the
    rotation of Y is the best-fit rotation mapping B-axes onto A-axes
    (angle-weighted). Translation: stack ``(R_A - I) t = R_Y t_B - t_A``.

    With a single motion the solution is not unique; the minimal-rotation,
    minimum-norm representative is returned (it still closes the loop
    exactly on noiseless data).

    Raises:
        DegenerateConfiguration: two or more motions whose rotation axes are
            all parallel within ``min_axis_separation`` (translation along
            the common axis is unobservable).
    """
    if not len(motions):
        raise InsufficientMotion("no relative motions supplied")

    rotvecs_a = np.array([rotvec_from_rotation(r) for r in motions.a_rotations])
    rotvecs_b = np.array([rotvec_from_rotation(r) for r in motions.b_rotations])

    if len(motions) == 1:
        r_y = rotation_between_vectors(rotvecs_b[0], rotvecs_a[0])
    else:
        axes = rotvecs_a / np.linalg.norm(rotvecs_a, axis=1, keepdims=True)
        if max_line_angle(axes) < min_axis_separation:
            raise DegenerateConfiguration(
                "rotation axes of all relative motions are (near-)parallel"
            )
        r_y = best_fit_rotation(zip(rotvecs_b, rotvecs_a))

    rows = (motions.a_rotations - np.eye(3)).reshape(-1, 3)
    rhs = (motions.b_translations @ r_y.T - motions.a_translations).reshape(-1)
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
    robot_r, robot_t = _stack([s.robot_pose for s in dataset.samples])
    tracker_r, tracker_t = _stack([s.tracker_pose for s in dataset.samples])
    # pose of the tool in the base frame, per station
    tool_r = base_from_tracker.rotation @ tracker_r
    tool_t = tracker_t @ base_from_tracker.rotation.T + base_from_tracker.translation
    m = np.einsum("nji,njk->ik", robot_r, tool_r)  # sum of robot_r^T @ tool_r
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[2] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateConfiguration("rotation averaging stack is rank-deficient")
    r_x = orthonormalize(m)
    t_x = np.einsum("nji,nj->ni", robot_r, tool_t - robot_t).mean(axis=0)
    return RigidTransform(r_x, t_x)


def closure_residuals(
    dataset: HandEyeDataset, base_from_tracker: RigidTransform, ee_from_tool: RigidTransform
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample loop-closure errors (rotation rad, translation mm)."""
    robot_r, robot_t = _stack([s.robot_pose for s in dataset.samples])
    tracker_r, tracker_t = _stack([s.tracker_pose for s in dataset.samples])
    # predicted tracker_from_tool = invert(Y) . base_from_ee . X
    w, x = invert(base_from_tracker), ee_from_tool
    predicted_r = w.rotation @ robot_r @ x.rotation
    predicted_t = (robot_r @ x.translation + robot_t) @ w.rotation.T + w.translation
    rot = rotation_angle_between(predicted_r, tracker_r)
    trans = np.linalg.norm(predicted_t - tracker_t, axis=1)
    return rot, trans


def calibrate_hand_eye(
    dataset: HandEyeDataset,
    min_rotation: float = DEFAULT_MIN_ROTATION,
    min_axis_separation: float = DEFAULT_MIN_AXIS_SEPARATION,
    pairing: str = "consecutive",
) -> HandEyeSolution:
    """Run both stages and report RMS loop-closure residuals."""
    motions = build_relative_motions(dataset, min_rotation=min_rotation, pairing=pairing)
    y = solve_base_to_tracker(motions, min_axis_separation=min_axis_separation)
    x = solve_ee_to_tool(dataset, y)
    rot, trans = closure_residuals(dataset, y, x)
    return HandEyeSolution(
        base_from_tracker=y,
        ee_from_tool=x,
        residual_rotation_rad=float(np.sqrt(np.mean(rot**2))),
        residual_translation_mm=float(np.sqrt(np.mean(trans**2))),
    )
