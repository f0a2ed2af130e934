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
    best_fit_rotation,
    compose,
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
class MotionPair:
    """Relative motion between two stations: A in the robot base, B in the tracker."""

    a: RigidTransform
    b: RigidTransform

    @property
    def rotation_angle(self) -> float:
        return rotation_angle(self.a.rotation)


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
) -> list[MotionPair]:
    """Relative motions between stations, filtered by rotation magnitude.

    ``pairing`` is "consecutive" (i, i+1; O(N)) or "all_pairs". Pairs whose
    robot-side rotation is below ``min_rotation`` carry little hand-eye
    information and are dropped.

    Raises:
        InsufficientMotion: no pair rotates by at least ``min_rotation``.
    """
    if pairing == "consecutive":
        index_pairs = [(i, i + 1) for i in range(len(dataset) - 1)]
    elif pairing == "all_pairs":
        n = len(dataset)
        index_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        raise ValueError(f"unknown pairing scheme {pairing!r}")

    motions = []
    for i, j in index_pairs:
        si, sj = dataset.samples[i], dataset.samples[j]
        a = compose(sj.robot_pose, invert(si.robot_pose))
        b = compose(sj.tracker_pose, invert(si.tracker_pose))
        pair = MotionPair(a, b)
        if pair.rotation_angle >= min_rotation:
            motions.append(pair)
    if not motions:
        raise InsufficientMotion(
            f"no relative motion rotates by at least {math.degrees(min_rotation):.1f} deg"
        )
    return motions


def solve_base_to_tracker(
    motions: list[MotionPair],
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
    if not motions:
        raise InsufficientMotion("no relative motions supplied")

    rotvecs_a = [rotvec_from_rotation(m.a.rotation) for m in motions]
    rotvecs_b = [rotvec_from_rotation(m.b.rotation) for m in motions]

    if len(motions) == 1:
        r_y = rotation_between_vectors(rotvecs_b[0], rotvecs_a[0])
    else:
        axes = np.array(rotvecs_a)
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        if max_line_angle(axes) < min_axis_separation:
            raise DegenerateConfiguration(
                "rotation axes of all relative motions are (near-)parallel"
            )
        r_y = best_fit_rotation(list(zip(rotvecs_b, rotvecs_a)))

    rows = np.vstack([m.a.rotation - np.eye(3) for m in motions])
    rhs = np.concatenate([r_y @ m.b.translation - m.a.translation for m in motions])
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
    m = np.zeros((3, 3))
    t_terms = []
    for s in dataset.samples:
        b = compose(base_from_tracker, s.tracker_pose)  # pose of the tool in the base frame
        m += s.robot_pose.rotation.T @ b.rotation
        t_terms.append(s.robot_pose.rotation.T @ (b.translation - s.robot_pose.translation))
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[2] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateConfiguration("rotation averaging stack is rank-deficient")
    r_x = orthonormalize(m)
    t_x = np.mean(t_terms, axis=0)
    return RigidTransform(r_x, t_x)


def closure_residuals(
    dataset: HandEyeDataset, base_from_tracker: RigidTransform, ee_from_tool: RigidTransform
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample loop-closure errors (rotation rad, translation mm)."""
    tracker_from_base = invert(base_from_tracker)
    rot = np.empty(len(dataset))
    trans = np.empty(len(dataset))
    for k, s in enumerate(dataset.samples):
        predicted = compose(compose(tracker_from_base, s.robot_pose), ee_from_tool)
        rot[k] = rotation_angle_between(predicted.rotation, s.tracker_pose.rotation)
        trans[k] = float(np.linalg.norm(predicted.translation - s.tracker_pose.translation))
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
