import math

import numpy as np
import pytest

from conftest import assert_transforms_close, random_rigid
from cutcal.errors import DegenerateConfiguration
from cutcal.geometry import (
    FrameId,
    RigidTransform,
    best_fit_rotation,
    compose,
    invert,
    max_line_angle,
    orthonormalize,
    rotation_about_axis,
    rotation_angle,
    rotation_angle_between,
    transform_point,
)
from cutcal.logio import PoseLogRow
from cutcal.metrics import CutProfile, PlannedCut, TrajectoryRecording
from cutcal.planner import Segment
from cutcal.pointcal import PivotSolution
from cutcal.simrig import RigGroundTruth, random_rotation


def rz(deg: float, t=(0.0, 0.0, 0.0)) -> RigidTransform:
    return RigidTransform.from_axis_angle([0, 0, 1], math.radians(deg), t)


class TestRigidTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        np.testing.assert_array_equal(t.rotation, np.eye(3))
        np.testing.assert_array_equal(t.translation, np.zeros(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_immutable(self):
        t = RigidTransform.identity()
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 2.0

    def test_matrix_roundtrip(self, rng):
        t = random_rigid(rng)
        assert_transforms_close(RigidTransform.from_matrix(t.matrix), t, atol=1e-12)

    def test_from_matrix_project_cleans_noisy_rotation(self, rng):
        t = random_rigid(rng)
        m = t.matrix
        m[:3, :3] += rng.normal(0, 1e-4, (3, 3))
        fixed = RigidTransform.from_matrix(m, project=True)
        assert rotation_angle_between(fixed.rotation, t.rotation) < 1e-3

    def test_quat_roundtrip(self, rng):
        for _ in range(200):
            t = random_rigid(rng)
            back = RigidTransform.from_quat_wxyz(t.quat_wxyz(), t.translation)
            assert_transforms_close(back, t, atol=1e-12)


class TestCompose:
    def test_identity_is_neutral(self, rng):
        t = random_rigid(rng)
        assert_transforms_close(compose(t, RigidTransform.identity()), t, atol=0)
        assert_transforms_close(compose(RigidTransform.identity(), t), t, atol=0)

    def test_quarter_turns_add(self):
        assert_transforms_close(compose(rz(90), rz(90)), rz(180), atol=1e-12)

    def test_translation_ordering(self):
        # right transform acts on the point first: its translation gets rotated
        result = compose(rz(90, (1, 0, 0)), RigidTransform(np.eye(3), (0, 1, 0)))
        np.testing.assert_allclose(result.translation, [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(result.rotation, rz(90).rotation, atol=1e-12)

    def test_matches_homogeneous_matrix_oracle(self, rng):
        for _ in range(100):
            a, b = random_rigid(rng), random_rigid(rng)
            expected = a.matrix @ b.matrix
            np.testing.assert_allclose(compose(a, b).matrix, expected, atol=1e-9)

    def test_associative(self, rng):
        for _ in range(50):
            a, b, c = (random_rigid(rng) for _ in range(3))
            assert_transforms_close(compose(compose(a, b), c), compose(a, compose(b, c)), atol=1e-9)

    def test_no_drift_after_many_compositions(self, rng):
        t = RigidTransform.identity()
        step = random_rigid(rng, trans_scale=1.0)
        for _ in range(10_000):
            t = compose(t, step)
        np.testing.assert_allclose(t.rotation @ t.rotation.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9


class TestInvert:
    def test_identity(self):
        assert_transforms_close(invert(RigidTransform.identity()), RigidTransform.identity(), atol=0)

    def test_quarter_turn_with_offset(self):
        inv = invert(rz(90, (1, 0, 0)))
        np.testing.assert_allclose(inv.rotation, rz(-90).rotation, atol=1e-12)
        np.testing.assert_allclose(inv.translation, [0.0, 1.0, 0.0], atol=1e-12)
        assert_transforms_close(compose(rz(90, (1, 0, 0)), inv), RigidTransform.identity(), atol=1e-12)

    def test_double_inverse_roundtrip(self, rng):
        for _ in range(100):
            t = random_rigid(rng)
            assert_transforms_close(invert(invert(t)), t, atol=1e-9)

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(100):
            t = random_rigid(rng)
            assert_transforms_close(compose(t, invert(t)), RigidTransform.identity(), atol=1e-9)


class TestTransformPoint:
    def test_identity(self):
        np.testing.assert_array_equal(
            transform_point(RigidTransform.identity(), [1, 2, 3]), [1, 2, 3]
        )

    def test_quarter_turn(self):
        np.testing.assert_allclose(transform_point(rz(90), [1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_batch_matches_single(self, rng):
        t = random_rigid(rng)
        pts = rng.normal(size=(10, 3))
        batch = transform_point(t, pts)
        for k in range(10):
            np.testing.assert_allclose(batch[k], transform_point(t, pts[k]), atol=1e-12)

    def test_preserves_distances(self, rng):
        for _ in range(100):
            t = random_rigid(rng)
            p, q = rng.normal(size=3) * 50, rng.normal(size=3) * 50
            d_before = np.linalg.norm(p - q)
            d_after = np.linalg.norm(transform_point(t, p) - transform_point(t, q))
            assert abs(d_before - d_after) < 1e-9


class TestBestFitRotation:
    def test_exact_recovery(self, rng):
        r = random_rotation(rng)
        dirs = rng.normal(size=(8, 3))
        pairs = [(d, r @ d) for d in dirs]
        np.testing.assert_allclose(best_fit_rotation(pairs), r, atol=1e-9)

    def test_collinear_raises(self):
        d = np.array([1.0, 2.0, 3.0])
        pairs = [(d, d), (2 * d, 2 * d), (-d, -d)]
        with pytest.raises(DegenerateConfiguration):
            best_fit_rotation(pairs)

    def test_too_few_pairs_raises(self):
        with pytest.raises(DegenerateConfiguration):
            best_fit_rotation([([1, 0, 0], [0, 1, 0])])

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_noisy_fit_beats_exhaustive_grid(self, seed):
        # oracle: exhaustive grid of rotation offsets around the true rotation
        rng = np.random.default_rng(seed)
        r_true = random_rotation(rng)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        mapped = dirs @ r_true.T + rng.normal(0, 0.01, (20, 3))
        fitted = best_fit_rotation(list(zip(dirs, mapped)))

        def cost(r):
            return float(np.sum((dirs @ r.T - mapped) ** 2))

        step = math.radians(0.5)
        offsets = np.arange(-4, 5) * step
        best_cost, best_r = np.inf, None
        for dx in offsets:
            for dy in offsets:
                for dz in offsets:
                    v = np.array([dx, dy, dz])
                    n = np.linalg.norm(v)
                    cand = r_true if n == 0 else r_true @ rotation_about_axis(v, n)
                    c = cost(cand)
                    if c < best_cost:
                        best_cost, best_r = c, cand
        assert cost(fitted) <= best_cost + 1e-12
        assert rotation_angle_between(fitted, best_r) < math.radians(1.0)


class TestRotationHelpers:
    def test_angle_of_self_is_zero(self, rng):
        r = random_rotation(rng)
        assert rotation_angle_between(r, r) == 0.0

    def test_angle_identity_to_quarter_turn(self):
        assert abs(rotation_angle_between(np.eye(3), rz(90).rotation) - math.pi / 2) < 1e-12

    def test_angle_symmetry(self, rng):
        for _ in range(50):
            a, b = random_rotation(rng), random_rotation(rng)
            assert abs(rotation_angle_between(a, b) - rotation_angle_between(b, a)) < 1e-12

    def test_angles_of_a_stack_equal_the_per_matrix_angles(self, rng):
        a = np.array([random_rotation(rng) for _ in range(24)]).reshape(2, 12, 3, 3)
        b = np.array([random_rotation(rng) for _ in range(12)])
        b[0] = a[0, 0]  # zero angle
        b[1] = a[0, 1] @ rz(180).rotation  # angle pi
        angles = rotation_angle(a)
        between = rotation_angle_between(a, b)  # b broadcasts over the leading axis
        one_to_many = rotation_angle_between(a[0, 0], b)
        assert angles.shape == between.shape == (2, 12) and one_to_many.shape == (12,)
        for i in range(2):
            for j in range(12):
                assert angles[i, j] == rotation_angle(a[i, j])
                assert between[i, j] == rotation_angle_between(a[i, j], b[j])
                assert one_to_many[j] == rotation_angle_between(a[0, 0], b[j])
        assert between[0, 0] == 0.0 and abs(between[0, 1] - math.pi) < 1e-12

    def test_rotations_about_stacked_axes_equal_the_per_axis_rotations(self, rng):
        axes = rng.normal(size=(20, 3))
        angles = rng.uniform(-math.pi, math.pi, 20)
        stacked = rotation_about_axis(axes, angles)
        assert stacked.shape == (20, 3, 3)
        for k in range(20):
            np.testing.assert_array_equal(stacked[k], rotation_about_axis(axes[k], angles[k]))
        with pytest.raises(ValueError):
            rotation_about_axis(np.vstack([axes, np.zeros(3)]), np.append(angles, 1.0))

    def test_orthonormalize_is_projection(self, rng):
        r = random_rotation(rng)
        noisy = r + rng.normal(0, 1e-3, (3, 3))
        cleaned = orthonormalize(noisy)
        np.testing.assert_allclose(cleaned @ cleaned.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(cleaned) > 0
        assert rotation_angle_between(cleaned, r) < 5e-3


class TestFrameId:
    def test_labels_closed_set(self):
        assert {f.value for f in FrameId} == {"S", "EE", "Tool", "Tip", "OT", "Digitizer", "Phantom"}


def test_max_line_angle_treats_opposite_directions_as_one_line():
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    assert max_line_angle([x, -x]) == 0.0
    assert max_line_angle([x, -x, y]) == pytest.approx(math.pi / 2)
    diagonal = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert max_line_angle([x, -diagonal]) == pytest.approx(math.pi / 4)


def _value_types():
    plan = PlannedCut([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], 10.0, 2.0, 1.0)
    return [
        (PoseLogRow(0.0, FrameId.S, FrameId.EE, [1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
         ("quat_wxyz", "translation")),
        (plan, ("entry_point", "direction", "depth_axis")),
        (Segment([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0, True), ("start", "end")),
        (TrajectoryRecording([0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [True, False]),
         ("timestamps", "points", "tool_active")),
        (CutProfile(2, 5.0, [1.0, math.nan], 0.5), ("depths_mm",)),
        (PivotSolution(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]), 0.0),
         ("tip_in_tool", "divot_in_tracker")),
        (RigGroundTruth.random(0), ("tip_in_tool", "divot_in_tracker")),
    ]


@pytest.mark.parametrize(
    "value, name",
    [(v, n) for v, names in _value_types() for n in names],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_array_fields_of_value_types_are_read_only(value, name):
    arr = getattr(value, name)
    assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = arr.flat[0]


def test_freezing_leaves_the_callers_array_writable():
    tip = np.array([0.0, 0.0, 1.0])
    solution = PivotSolution(tip, np.zeros(3), 0.0)
    tip[0] = 5.0
    assert tip.flags.writeable and solution.tip_in_tool[0] == 5.0  # a view, not a copy
