import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_transforms_close, homogeneous, random_rigid, stack
from cutcal import geometry
from cutcal.errors import DegenerateConfiguration
from cutcal.geometry import (
    FrameId,
    RigidTransform,
    best_fit_rotation,
    compose,
    invert,
    lines_spread_at_least,
    _check_rotation,
    orthonormalize,
    quat_from_rotation,
    rotation_about_axis,
    rotation_angle,
    rotation_angle_between,
    rotation_between_vectors,
    rotation_from_quat,
    rotvec_from_rotation,
    transform_point,
)
from cutcal.handeye import HandEyeDataset
from cutcal.logio import QUAT_NORM_WINDOW, PoseLog
from cutcal.metrics import CutProfile, PlannedCut, TrajectoryRecording
from cutcal.planner import CutSequence
from cutcal.pointcal import PivotSolution, TipCalDataset
from cutcal.simrig import RigGroundTruth, random_rotation


def rz(deg: float, t=(0.0, 0.0, 0.0)) -> RigidTransform:
    return RigidTransform(rotation_about_axis([0, 0, 1], math.radians(deg)), t)


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

    def test_quat_roundtrip(self, rng):
        for _ in range(200):
            t = random_rigid(rng)
            back = RigidTransform(rotation_from_quat(t.quat_wxyz()), t.translation)
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
            expected = homogeneous(a) @ homogeneous(b)
            np.testing.assert_allclose(homogeneous(compose(a, b)), expected, atol=1e-9)

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
        np.testing.assert_allclose(best_fit_rotation(dirs, dirs @ r.T), r, atol=1e-9)

    def test_collinear_raises(self):
        d = np.array([1.0, 2.0, 3.0])
        a = np.array([d, 2 * d, -d])
        with pytest.raises(DegenerateConfiguration):
            best_fit_rotation(a, a)

    def test_too_few_pairs_raises(self):
        with pytest.raises(DegenerateConfiguration):
            best_fit_rotation([[1, 0, 0]], [[0, 1, 0]])

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_noisy_fit_beats_exhaustive_grid(self, seed):
        # oracle: exhaustive grid of rotation offsets around the true rotation
        rng = np.random.default_rng(seed)
        r_true = random_rotation(rng)
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        mapped = dirs @ r_true.T + rng.normal(0, 0.01, (20, 3))
        fitted = best_fit_rotation(dirs, mapped)

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

    @pytest.mark.parametrize("u", [[1.0, 0.0, 0.0], [0.3, -0.4, 1.2]])
    def test_a_parallel_direction_gives_the_identity(self, u):
        assert (rotation_between_vectors(u, 2 * np.array(u)) == np.eye(3)).all()

    @pytest.mark.parametrize(
        "u",
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], np.random.default_rng(5).normal(size=3)],
        ids=["x", "y", "random"],
    )
    def test_the_opposite_direction_gives_a_half_turn(self, u):
        # along x the axis comes from crossing u with y, not with x
        u = np.asarray(u) / np.linalg.norm(u)
        r = RigidTransform(rotation_between_vectors(u, -u), np.zeros(3)).rotation
        np.testing.assert_allclose(r @ u, -u, rtol=0, atol=1e-15)

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


def test_line_spread_treats_opposite_directions_as_one_line():
    x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    assert lines_spread_at_least([x, -x], 0.0)
    assert not lines_spread_at_least([x, -x], 1e-12)
    assert lines_spread_at_least([x, -x, y], math.pi / 2)
    diagonal = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert lines_spread_at_least([x, -diagonal], math.pi / 4 - 1e-12)
    assert not lines_spread_at_least([x, -diagonal], math.pi / 4 + 1e-12)


def _value_types():
    one = RigidTransform(np.eye(3)[None], np.zeros((1, 3)))
    plan = PlannedCut([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], 10.0, 2.0, 1.0)
    return [
        (PoseLog([0.0], [0], [1], [[1.0, 0.0, 0.0, 0.0]], [[1.0, 2.0, 3.0]]),
         ("timestamps", "sources", "targets", "quats_wxyz", "translations")),
        (HandEyeDataset(one, RigidTransform(np.eye(3)[None], np.ones((1, 3)))),
         ("robot.rotation", "robot.translation", "tracker.rotation", "tracker.translation")),
        (TipCalDataset(one, one, RigGroundTruth.random(0).hand_eye_solution()),
         ("robot.rotation", "robot.translation", "digitizer.rotation", "digitizer.translation")),
        (RigidTransform.identity(), ("rotation", "translation")),
        (plan, ("entry_point", "direction", "depth_axis")),
        (CutSequence(np.zeros((1, 3, 3)), np.ones((1, 3, 3)), np.ones((1, 3))),
         ("starts", "ends", "speeds_mm_s")),
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
    arr = operator.attrgetter(name)(value)
    assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = arr.flat[0]


def test_freezing_leaves_the_callers_array_writable():
    tip = np.array([0.0, 0.0, 1.0])
    solution = PivotSolution(tip, np.zeros(3), 0.0)
    tip[0] = 5.0
    assert tip.flags.writeable and solution.tip_in_tool[0] == 5.0  # a view, not a copy


# References for the stacked geometry: the per-matrix forms they replaced.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


def rotvec_per_matrix(r) -> np.ndarray:
    """Log map of one rotation, branch by branch (the reference)."""
    angle = rotation_angle(r)
    antisym = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if angle < 1e-10:
        return antisym / 2.0
    if math.pi - angle < 1e-6:
        m = (r + r.T) / 2.0 + np.eye(3)
        col = m[:, np.argmax(np.diag(m))]
        axis = col / np.linalg.norm(col)
        if antisym @ axis < 0:
            axis = -axis
        return axis * angle
    return angle / (2.0 * math.sin(angle)) * antisym


def rotation_from_one_quat(quat) -> np.ndarray:
    """Rotation of one quaternion (w, x, y, z) (the reference)."""
    q = np.asarray(quat, dtype=np.float64).reshape(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_per_matrix(r) -> np.ndarray:
    """Shepperd's quaternion of one rotation, branch by branch (the reference)."""
    tr = np.trace(r)
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    q = q / np.linalg.norm(q)
    if q[0] < 0:  # canonical sign
        q = -q
    return q


def max_line_angle(unit_directions) -> float:
    """Largest angle between any two lines, from the full cosine matrix (the reference)."""
    d = np.asarray(unit_directions, dtype=np.float64)
    cos = np.abs(np.clip(d @ d.T, -1.0, 1.0))
    np.fill_diagonal(cos, 1.0)
    return float(np.arccos(cos.min()))


def allclose_accepts(r, atol=1e-9) -> bool:
    """The rotation check as np.allclose plus a determinant test (the reference)."""
    return np.allclose(r @ r.T, np.eye(3), atol=atol) and not abs(np.linalg.det(r) - 1.0) > atol


def accepts(r) -> bool:
    try:
        _check_rotation(r)
    except ValueError:
        return False
    return True


unit = st.floats(-1.0, 1.0, allow_subnormal=False)
axes = st.tuples(unit, unit, unit).filter(lambda v: np.linalg.norm(v) > 1e-3)
# angles near 0 and near pi take the two special branches of the log map
angles = st.one_of(
    st.floats(0.0, 1e-9), st.floats(0.0, math.pi), st.floats(math.pi - 1e-5, math.pi)
)


# proper signed permutation matrices: exact ties between diagonal entries
SIGNED_PERMUTATIONS = [
    p * np.array(signs)
    for p in np.eye(3)[list(itertools.permutations(range(3)))]
    for signs in itertools.product([1.0, -1.0], repeat=3)
    if np.linalg.det(p * np.array(signs)) > 0
]
rotations = st.one_of(
    st.tuples(axes, angles).map(lambda m: rotation_about_axis(*m)),
    st.sampled_from(SIGNED_PERMUTATIONS),
)
# one matrix per Shepperd branch (trace, then r00, r11, r22 largest), then
# ties: r00 = r11, r00 = r22, all three with trace 0
SHEPPERD_BRANCHES = [
    np.eye(3),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
]


# relative steps off a bound, far beyond the rounding of the check's products
off_bound = st.one_of(st.floats(1.0 - 1e-2, 1.0 - 1e-5), st.floats(1.0 + 1e-5, 1.0 + 1e-2))


@st.composite
def one_bound_crossed(draw, rotation):
    """A matrix that crosses, or stays just inside, one bound of the check:
    the off-diagonal or diagonal bound of R R^T or the determinant's (moved
    to any entry by a signed permutation), or a reflection, NaN or inf."""
    kinds = ["off-diagonal", "diagonal", "determinant", "reflection", "nan", "inf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "reflection":
        return rotation @ np.diag([1.0, 1.0, -1.0])
    if kind in ("nan", "inf"):
        m = rotation.copy()
        value = math.nan if kind == "nan" else draw(st.sampled_from([math.inf, -math.inf]))
        m[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = value
        return m
    step = draw(off_bound)
    if kind == "off-diagonal":
        e = 0.5e-9 * step
        m = np.eye(3) + np.diag([e, 0.0], 1) + np.diag([e, 0.0], -1)
    elif kind == "diagonal":
        s = math.sqrt(1.0 + (1e-9 + 1e-5) * step)
        m = np.diag([s, 1.0 / s, 1.0])
    else:
        m = np.eye(3) * np.cbrt(1.0 + 1e-9 * step)
    p = draw(st.sampled_from(SIGNED_PERMUTATIONS))
    return p @ m @ p.T


class TestStackedGeometry:
    @PROPERTY
    @given(st.lists(st.tuples(axes, angles), min_size=1, max_size=20))
    def test_stacked_log_map_equals_the_per_matrix_form(self, motions):
        r = np.array([rotation_about_axis(axis, angle) for axis, angle in motions])
        stacked = rotvec_from_rotation(r)
        assert stacked.shape == (len(r), 3)
        for k in range(len(r)):
            np.testing.assert_array_equal(stacked[k], rotvec_per_matrix(r[k]))
            np.testing.assert_array_equal(rotvec_from_rotation(r[k]), rotvec_per_matrix(r[k]))

    @PROPERTY
    @given(st.lists(st.tuples(unit, unit, unit, unit), min_size=1, max_size=20))
    def test_batched_quaternions_equal_the_per_quaternion_form(self, quats):
        q = np.array(quats)
        # a zero or subnormal squared norm cannot normalize the quaternion
        if not ((q * q).sum(axis=1) >= np.finfo(np.float64).tiny).all():
            with pytest.raises(ValueError, match="zero quaternion"):
                rotation_from_quat(q)
            return
        stacked = rotation_from_quat(q)
        assert stacked.shape == (len(q), 3, 3)
        for k in range(len(q)):
            np.testing.assert_array_equal(stacked[k], rotation_from_one_quat(q[k]))
            np.testing.assert_array_equal(rotation_from_quat(q[k]), rotation_from_one_quat(q[k]))

    @PROPERTY
    @given(
        st.tuples(unit, unit, unit, unit).filter(lambda q: np.linalg.norm(q) > 1e-3),
        st.floats(*QUAT_NORM_WINDOW),
    )
    def test_rotations_of_quaternions_need_no_projection(self, quat, norm):
        # every quaternion a pose log accepts gives a proper rotation far
        # inside ROTATION_ATOL (worst seen on 1M random ones: 2.3e-15)
        q = np.array(quat) / np.linalg.norm(quat) * norm
        r = rotation_from_quat(q)
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-14
        assert abs(np.linalg.det(r) - 1.0) <= 1e-14

    @PROPERTY
    @given(st.lists(rotations, min_size=1, max_size=20))
    @example(SHEPPERD_BRANCHES)
    def test_stacked_quaternions_equal_the_per_matrix_form(self, matrices):
        r = np.array(matrices)
        q = quat_from_rotation(r)
        assert q.shape == (len(r), 4)
        for k in range(len(r)):
            want = quat_per_matrix(r[k]).tobytes()
            assert q[k].tobytes() == want and quat_from_rotation(r[k]).tobytes() == want
        assert (q[:, 0] >= 0).all()
        np.testing.assert_allclose(rotation_from_quat(q), r, rtol=0, atol=1e-12)

    @PROPERTY
    @given(
        # small integer vectors give exact ties: repeated, opposite, orthogonal lines
        st.lists(st.one_of(axes, st.tuples(*[st.integers(-2, 2)] * 3)), min_size=1, max_size=150)
        .map(lambda v: np.array(v, dtype=np.float64))
        .filter(lambda v: np.linalg.norm(v, axis=1).all()),
        st.one_of(st.floats(0.0, math.pi / 2), st.sampled_from(["at", "above"])),
    )
    def test_early_exit_spread_equals_the_full_matrix_decision(self, vectors, bound):
        d = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        widest = max_line_angle(d)
        if bound == "at":
            bound = widest
        elif bound == "above":
            bound = float(np.nextafter(widest, math.inf))
        assert lines_spread_at_least(d, bound) == (widest >= bound)

    def test_check_rotation_keeps_the_allclose_accept_set(self):
        # each family crosses one bound: off-diagonal of R R^T (1e-9), its
        # diagonal (1e-9 + 1e-5) and the determinant (1e-9)
        steps = 1.0 + np.arange(-3, 4) * 1e-6
        families = {
            "off-diagonal": [np.eye(3) + np.diag([e, 0.0], 1) + np.diag([e, 0.0], -1)
                             for e in 0.5e-9 * steps],
            "diagonal": [np.diag([s, 1.0 / s, 1.0]) for s in np.sqrt(1.0 + (1e-9 + 1e-5) * steps)],
            "determinant": [np.eye(3) * s for s in np.cbrt(1.0 + 1e-9 * steps)],
        }
        for name, matrices in families.items():
            expected = [allclose_accepts(r) for r in matrices]
            assert any(expected) and not all(expected), name
            assert [accepts(r) for r in matrices] == expected, name
            ok = np.array([r for r, good in zip(matrices, expected) if good])
            assert accepts(ok) and not accepts(np.array(matrices))
        nan = np.eye(3)
        nan[0, 1] = math.nan
        assert not allclose_accepts(nan) and not accepts(nan)

    @PROPERTY
    @given(st.data())
    def test_a_stack_is_accepted_when_every_matrix_is(self, data):
        rows = data.draw(st.lists(rotations, min_size=1, max_size=50))
        k = data.draw(st.integers(0, len(rows) - 1))
        rows[k] = data.draw(one_bound_crossed(rows[k]))
        r = np.array(rows)
        with np.errstate(all="ignore"):  # R R^T of inf is NaN in the reference
            expected = [allclose_accepts(m) for m in r]
        assert accepts(r) == all(expected)
        for m, want in zip(r, expected):
            assert accepts(m) == accepts(m[None]) == want


# References for the stacked pose algebra: the single-pose forms compose,
# invert and transform_point had before they took stacks.
def compose_one(a: RigidTransform, b: RigidTransform) -> tuple[np.ndarray, np.ndarray]:
    return a.rotation @ b.rotation, a.rotation @ b.translation + a.translation


def invert_one(t: RigidTransform) -> tuple[np.ndarray, np.ndarray]:
    rt = t.rotation.T
    return rt, -rt @ t.translation


def transform_one(t: RigidTransform, p) -> np.ndarray:
    return t.rotation @ p + t.translation


def row_bytes(t: RigidTransform, k: int) -> bytes:
    return t.rotation[k].tobytes() + t.translation[k].tobytes()


def pose_bytes(rotation, translation) -> bytes:
    return np.asarray(rotation).tobytes() + np.asarray(translation).tobytes()


coordinates = st.floats(-1e3, 1e3, allow_subnormal=False)
vectors = st.tuples(coordinates, coordinates, coordinates).map(np.array)
poses = st.builds(RigidTransform, rotations, vectors)
# the angles strategy without pi itself, where the axis sign is arbitrary
angles_below_pi = st.one_of(
    st.floats(0.0, 1e-9),
    st.floats(0.0, math.pi, exclude_max=True),
    st.floats(math.pi - 1e-5, math.pi, exclude_max=True),
)


class TestStackedPoseAlgebra:
    @PROPERTY
    @given(st.lists(st.tuples(poses, poses, vectors), min_size=1, max_size=20))
    def test_stacked_algebra_equals_the_per_pose_form(self, rows):
        a_rows, b_rows, points = zip(*rows)
        a, b, p = stack(a_rows), stack(b_rows), np.array(points)
        chained, inverse = compose(a, b), invert(a)
        # one pose against a stack broadcasts
        first_then_each, each_then_first = compose(a_rows[0], b), compose(a, b_rows[0])
        mapped, one_point = transform_point(a, p), transform_point(a, p[0])
        assert len(chained) == len(inverse) == len(first_then_each) == len(rows)
        for k, (a_k, b_k, p_k) in enumerate(rows):
            want = pose_bytes(*compose_one(a_k, b_k))
            assert row_bytes(chained, k) == want
            single = compose(a_k, b_k)
            assert pose_bytes(single.rotation, single.translation) == want
            assert row_bytes(first_then_each, k) == pose_bytes(*compose_one(a_rows[0], b_k))
            assert row_bytes(each_then_first, k) == pose_bytes(*compose_one(a_k, b_rows[0]))
            assert row_bytes(inverse, k) == pose_bytes(*invert_one(a_k))
            single = invert(a_k)
            assert pose_bytes(single.rotation, single.translation) == pose_bytes(*invert_one(a_k))
            assert mapped[k].tobytes() == transform_one(a_k, p_k).tobytes()
            assert one_point[k].tobytes() == transform_one(a_k, p[0]).tobytes()
            assert transform_point(a_k, p_k).tobytes() == transform_one(a_k, p_k).tobytes()

    @PROPERTY
    @given(st.lists(poses, min_size=1, max_size=20))
    def test_compose_with_inverse_is_the_identity(self, rows):
        t = stack(rows)
        for identity in (compose(t, invert(t)), compose(invert(t), t)):
            np.testing.assert_allclose(
                identity.rotation, np.broadcast_to(np.eye(3), (len(t), 3, 3)), rtol=0, atol=1e-12
            )
            # translations up to 1e3 mm: the rounding grows with their size
            scale = max(1.0, np.abs(t.translation).max())
            assert np.abs(identity.translation).max() <= 1e-12 * scale

    @PROPERTY
    @given(st.lists(st.tuples(axes, angles_below_pi), min_size=1, max_size=20))
    def test_log_map_inverts_the_axis_angle_rotation(self, motions):
        axis, angle = (np.array(v) for v in zip(*motions))
        want = axis / np.linalg.norm(axis, axis=1, keepdims=True) * angle[:, None]
        # conditioned worst at the near-pi branch switch: about 2e-10
        np.testing.assert_allclose(
            rotvec_from_rotation(rotation_about_axis(axis, angle)), want, rtol=0, atol=1e-9
        )


def test_pose_stacks_have_rows_and_a_length(rng):
    rows = [random_rigid(rng) for _ in range(5)]
    t = stack(rows)
    assert len(t) == 5 and len(list(t)) == 5
    assert_transforms_close(t[3], rows[3], atol=0)
    assert t[3].rotation.shape == (3, 3) and t[3].translation.shape == (3,)
    assert len(t[1:4]) == 3 and len(t[np.array([True, False, True, False, False])]) == 2
    assert len(t[np.array([4, 0, 4])]) == 3 and len(t[:0]) == 0
    single = RigidTransform.identity()
    with pytest.raises(TypeError):
        len(single)
    with pytest.raises(TypeError):
        single[0]


def test_each_rotation_stack_is_checked_once(rng, monkeypatch):
    checked = []
    check = geometry._check_rotation

    def counting_check(r):
        checked.append(r.shape)
        check(r)

    monkeypatch.setattr(geometry, "_check_rotation", counting_check)
    rotations = np.array([random_rotation(rng) for _ in range(5)])
    translations = rng.normal(size=(5, 3))
    t = RigidTransform(rotations, translations)
    assert checked == [(5, 3, 3)]
    for rows in (3, slice(1, 4), np.array([True, False, True, False, True]), np.array([4, 0, 4])):
        row = t[rows]
        assert row.rotation.tobytes() == rotations[rows].tobytes()
        assert row.translation.tobytes() == translations[rows].tobytes()
        assert not row.rotation.flags.writeable and not row.translation.flags.writeable
    assert len(list(t)) == 5 and checked == [(5, 3, 3)]
    compose(t, t[0])
    assert checked == [(5, 3, 3)] * 2
    # the inverse shares the check too: R^T of checked rotations, stored as the
    # constructor stores rotations, so later products take the same BLAS path
    for rows in (slice(1, 3), 4):
        inverse = invert(t[rows]).rotation
        assert inverse.tobytes() == np.swapaxes(rotations[rows], -1, -2).tobytes()
        assert inverse.flags.c_contiguous and not inverse.flags.writeable
    assert checked == [(5, 3, 3)] * 2
    # an index that reaches past the rows would take apart checked rotations
    for rows in ((0, 1), (slice(None), 0), None, np.array([[0, 1]]), np.ones((5, 3), bool)):
        with pytest.raises(IndexError):
            t[rows]


@pytest.mark.parametrize("scale", [1e200, 1e155, 1e-154, 1e-160, 1e-170, math.inf, math.nan])
def test_quaternions_whose_squared_norm_is_not_normal_are_rejected(scale):
    # the squared norm overflows or is subnormal: normalizing by it would
    # give the identity for a 90 degree turn, or a matrix that is no rotation
    with pytest.raises(ValueError, match="zero quaternion"):
        rotation_from_quat([scale, scale, 0.0, 0.0])
    with pytest.raises(ValueError, match="zero quaternion"):
        rotation_from_quat([[1.0, 0.0, 0.0, 0.0], [scale, scale, 0.0, 0.0]])
    # the same turn at a scale whose squared norm is normal
    np.testing.assert_allclose(
        rotation_from_quat([1e150, 1e150, 0.0, 0.0]), rotation_about_axis([1, 0, 0], math.pi / 2),
        rtol=0, atol=1e-15,
    )


@pytest.mark.parametrize("exponent", [1000, 660, -600, -1060])
def test_axes_and_directions_of_any_finite_scale_give_the_same_rotation(exponent):
    # the squared norms of these vectors overflow or lose digits to underflow;
    # normalizing by them gave the identity or a wrong turn. Scaling by a power
    # of two is exact, so the rotations equal those of the unscaled vectors.
    axis, other = np.array([3.0, 4.0, 0.0]), np.array([0.0, 3.0, -4.0])
    scaled_axis, scaled_other = np.ldexp(axis, exponent), np.ldexp(other, exponent)
    np.testing.assert_array_equal(
        rotation_about_axis(scaled_axis, 1.0), rotation_about_axis(axis, 1.0)
    )
    np.testing.assert_array_equal(
        rotation_about_axis(np.array([scaled_axis, other]), [1.0, 2.0]),
        rotation_about_axis(np.array([axis, other]), [1.0, 2.0]),
    )
    np.testing.assert_array_equal(
        rotation_between_vectors(scaled_axis, scaled_other), rotation_between_vectors(axis, other)
    )
    np.testing.assert_array_equal(
        rotation_between_vectors(scaled_axis, other), rotation_between_vectors(axis, other)
    )


@pytest.mark.parametrize("k", [0, 3, 6])
def test_a_non_rotation_in_a_stack_is_rejected_when_built(rng, k):
    rotations = np.array([random_rotation(rng) for _ in range(7)])
    rotations[k] = rotations[k] @ np.diag([1.0, 1.0, -1.0])  # a reflection
    with pytest.raises(ValueError, match="not proper"):
        RigidTransform(rotations, np.zeros((7, 3)))
    rotations[k] = np.eye(3) * 1.001
    with pytest.raises(ValueError, match="not orthonormal"):
        RigidTransform(rotations, np.zeros((7, 3)))
    with pytest.raises(ValueError, match="does not match"):
        RigidTransform(np.array([np.eye(3)] * 7), np.zeros((6, 3)))
