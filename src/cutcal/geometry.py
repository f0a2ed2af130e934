"""SE(3) rigid-transform algebra used by every calibration and metrics module.

Conventions, fixed here and used everywhere:

- A transform is named for the frames it connects, parent-from-child: if
  ``t`` maps tool coordinates into tracker coordinates it is the "pose of
  the tool in the tracker frame" and variables call it ``tracker_from_tool``.
  Points map as ``p_parent = R @ p_child + translation``.
- ``compose(a, b)`` chains frames the way 4x4 matrices multiply, right to
  left: ``compose(t_a_from_b, t_b_from_c) == t_a_from_c`` and the result's
  matrix is ``a.matrix @ b.matrix``.
- Units are millimeters and radians internally; degrees appear only at the
  CLI surface.

Rotations are stored as 3x3 direction-cosine matrices. Quaternions exist
only at file-format boundaries (see logio).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConfiguration


class FrameId(enum.Enum):
    """The closed set of coordinate frames a pose log may reference."""

    S = "S"  # robot base (global reference)
    EE = "EE"  # robot end-effector flange
    TOOL = "Tool"  # optical marker body on the tool
    TIP = "Tip"  # osteotome tip
    OT = "OT"  # optical tracker
    DIGITIZER = "Digitizer"  # tracked stylus
    PHANTOM = "Phantom"  # bone phantom

    def __str__(self) -> str:
        return self.value


# Construction-time validation tolerance for rotation matrices. Products of
# valid rotations stay far inside this bound; external data must be projected
# with orthonormalize() before constructing a transform.
ROTATION_ATOL = 1e-9

Rotation3 = np.ndarray  # (3, 3) proper orthonormal matrix
Vector3 = np.ndarray  # (3,) float

# u @ _CROSS is the cross-product matrix of u, flattened: K(u) @ v == np.cross(u, v)
_CROSS = np.array([np.cross(e, np.eye(3)).T for e in np.eye(3)]).reshape(3, 9)


def _as_vector3(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64).reshape(3)
    a.flags.writeable = False
    return a


def _freeze(obj, shape, *names, dtype=np.float64) -> None:
    """Store each named field of a frozen dataclass as a read-only array of
    ``shape``; an input that already is such an array is not copied."""
    for name in names:
        a = np.asarray(getattr(obj, name), dtype=dtype).reshape(shape)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


def _check_rotation(r: np.ndarray, atol: float = ROTATION_ATOL) -> None:
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    if not np.allclose(r @ r.T, np.eye(3), atol=atol):
        raise ValueError("rotation matrix is not orthonormal")
    if abs(np.linalg.det(r) - 1.0) > atol:
        raise ValueError("rotation matrix is not proper (det != +1)")


@dataclass(frozen=True)
class RigidTransform:
    """An SE(3) pose: proper rotation plus translation in mm.

    Immutable; all operations return new instances. The rotation is
    validated at construction, so any reachable instance satisfies the
    orthonormality and det(+1) invariants.
    """

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3).copy()
        _check_rotation(r)
        r.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", _as_vector3(self.translation).copy())
        self.translation.flags.writeable = False

    @classmethod
    def identity(cls) -> RigidTransform:
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m, project: bool = False) -> RigidTransform:
        """Build from a 4x4 homogeneous matrix.

        ``project=True`` replaces the rotation block with its nearest proper
        rotation; use it when reading external data, never mid-computation.
        """
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if not np.allclose(m[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ValueError("last row must be [0, 0, 0, 1]")
        r = m[:3, :3]
        if project:
            r = orthonormalize(r)
        return cls(r, m[:3, 3])

    @classmethod
    def from_axis_angle(cls, axis, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
        return cls(rotation_about_axis(axis, angle_rad), np.asarray(translation, dtype=np.float64))

    @classmethod
    def from_quat_wxyz(cls, quat, translation) -> RigidTransform:
        """Build from a unit quaternion (w, x, y, z); normalized exactly."""
        return cls(orthonormalize(rotation_from_quat(quat)), translation)

    @property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def quat_wxyz(self) -> np.ndarray:
        return quat_from_rotation(self.rotation)

    def __repr__(self) -> str:  # compact, diff-friendly
        t = ", ".join(f"{v:.6g}" for v in self.translation)
        return f"RigidTransform(angle={rotation_angle(self.rotation):.6g} rad, t=[{t}] mm)"


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Chain two transforms: compose(t_a_from_b, t_b_from_c) = t_a_from_c."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: compose(t, invert(t)) is the identity."""
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def transform_point(t: RigidTransform, p) -> np.ndarray:
    """Apply ``t`` to a point (3,) or stack of points (N, 3)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 1:
        return t.rotation @ p + t.translation
    if p.ndim == 2 and p.shape[1] == 3:
        return p @ t.rotation.T + t.translation
    raise ValueError(f"expected (3,) or (N, 3) points, got {p.shape}")


def rotation_about_axis(axis, angle_rad) -> Rotation3:
    """Rodrigues rotation about a (not necessarily unit) axis, or (N, 3, 3)
    rotations about (N, 3) axes by (N,) angles."""
    axis = np.asarray(axis, dtype=np.float64)
    n = _norms(axis)[..., None]
    if not n.all():
        raise ValueError("rotation axis must be non-zero")
    k = ((axis / n) @ _CROSS).reshape(axis.shape + (3,))
    angle = np.asarray(angle_rad, dtype=np.float64)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_angle(r: Rotation3):
    """Rotation angle in [0, pi] of a rotation matrix or of each in a (..., 3, 3) stack.

    atan2 of the antisymmetric-part norm against (trace-1)/2; unlike the
    plain acos form this stays accurate for near-identity rotations.
    """
    # t[j, i] is r[..., i, j] with the stack axes reversed, undone by the last
    # .T; so one matrix costs a few scalar operations instead of array ones
    t = np.asarray(r).T
    s = 0.5 * np.sqrt(
        (t[1, 2] - t[2, 1]) ** 2 + (t[2, 0] - t[0, 2]) ** 2 + (t[0, 1] - t[1, 0]) ** 2
    )
    c = (t[0, 0] + t[1, 1] + t[2, 2] - 1.0) / 2.0
    return np.arctan2(s, c).T


def rotation_angle_between(a: Rotation3, b: Rotation3):
    """Geodesic angle in [0, pi] between two rotations or broadcast stacks; symmetric."""
    return rotation_angle(np.swapaxes(a, -1, -2) @ np.asarray(b))


def rotvec_from_rotation(r: Rotation3) -> np.ndarray:
    """Axis-angle vector (log map) of a rotation; magnitude is the angle."""
    r = np.asarray(r, dtype=np.float64)
    angle = rotation_angle(r)
    antisym = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if angle < 1e-10:
        # first order: log(R) ~ (R - R^T) / 2
        return antisym / 2.0
    if math.pi - angle < 1e-6:
        # near pi the antisymmetric part vanishes; take the axis from R + I
        m = r + np.eye(3)
        col = m[:, np.argmax(np.diag(m))]
        axis = col / np.linalg.norm(col)
        # fix the sign from the largest antisymmetric component
        if antisym @ axis < 0:
            axis = -axis
        return axis * angle
    scale = angle / (2.0 * math.sin(angle))
    return scale * antisym


def rotation_from_quat(quat) -> Rotation3:
    """Rotation matrix of a quaternion (w, x, y, z), normalized first."""
    q = np.asarray(quat, dtype=np.float64).reshape(4)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def max_line_angle(unit_directions) -> float:
    """Largest angle between any two lines along the given unit directions,
    in [0, pi/2]; a direction and its negation are the same line."""
    d = np.asarray(unit_directions, dtype=np.float64)
    cos = np.abs(np.clip(d @ d.T, -1.0, 1.0))
    np.fill_diagonal(cos, 1.0)
    return float(np.arccos(cos.min()))


def orthonormalize(m) -> Rotation3:
    """Nearest proper rotation (Frobenius) to an arbitrary 3x3 matrix."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64).reshape(3, 3))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def best_fit_rotation(pairs) -> Rotation3:
    """Least-squares rotation mapping each pair's first vector to its second.

    Minimizes sum ||R a_i - b_i||^2 over proper rotations (SVD solution).
    Vector magnitudes act as weights.

    Raises:
        DegenerateConfiguration: fewer than two pairs, or all input
            directions collinear (the rotation about that line is free).
    """
    arr = np.asarray([(a, b) for a, b in pairs], dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1:] != (2, 3):
        raise ValueError("pairs must be (a, b) 3-vector tuples")
    if arr.shape[0] < 2:
        raise DegenerateConfiguration("need at least 2 direction pairs")
    a, b = arr[:, 0, :], arr[:, 1, :]
    h = a.T @ b  # maximize tr(R H)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-8 * max(s[0], 1e-300):
        raise DegenerateConfiguration("direction pairs are collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


def rotation_between_vectors(u, v) -> Rotation3:
    """Minimal rotation taking direction u to direction v."""
    u = np.asarray(u, dtype=np.float64).reshape(3)
    v = np.asarray(v, dtype=np.float64).reshape(3)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("directions must be non-zero")
    u, v = u / nu, v / nv
    c = float(u @ v)
    axis = np.cross(u, v)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        if c > 0:
            return np.eye(3)
        # antiparallel: rotate pi about any axis perpendicular to u
        perp = np.cross(u, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-6:
            perp = np.cross(u, [0.0, 1.0, 0.0])
        return rotation_about_axis(perp, math.pi)
    return rotation_about_axis(axis, math.atan2(n, c))


def _norms(v: np.ndarray) -> np.ndarray:
    """Norm of a 3-vector or of each row of a stack, bit-equal to np.linalg.norm."""
    return np.sqrt((v[..., None, :] @ v[..., None])[..., 0, 0])


def _stack(poses) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (N, 3, 3) and translations (N, 3) of a sequence of transforms."""
    rotations = np.array([p.rotation for p in poses]).reshape(-1, 3, 3)
    return rotations, np.array([p.translation for p in poses]).reshape(-1, 3)


def quat_from_rotation(r: Rotation3) -> np.ndarray:
    """Unit quaternion (w, x, y, z) from a rotation matrix (Shepperd)."""
    r = np.asarray(r, dtype=np.float64)
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
