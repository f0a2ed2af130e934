"""SE(3) rigid-transform algebra used by every calibration and metrics module.

Conventions, fixed here and used everywhere:

- A transform is named for the frames it connects, parent-from-child: if
  ``t`` maps tool coordinates into tracker coordinates it is the "pose of
  the tool in the tracker frame" and variables call it ``tracker_from_tool``.
  Points map as ``p_parent = R @ p_child + translation``.
- ``compose(a, b)`` chains frames the way 4x4 homogeneous matrices
  multiply, right to left: ``compose(t_a_from_b, t_b_from_c) == t_a_from_c``
  and the result's matrix is the product of ``a``'s and ``b``'s.
- A ``RigidTransform`` holds one pose or a stack of N. ``compose``,
  ``invert`` and ``transform_point`` work row by row on stacks, and one pose
  broadcasts over a stack.
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


# Construction-time validation tolerance for rotation matrices. Every
# rotation built from an array or computed by compose is checked against it
# once; rows of a checked stack and its inverse share that check. Products of
# proper rotations stay far inside this bound (those of quaternions are within
# about 1e-15), but a matrix that only just passes can fail it once chained:
# external matrices must be projected with orthonormalize() before chaining.
ROTATION_ATOL = 1e-9

Rotation3 = np.ndarray  # (3, 3) proper orthonormal matrix
Vector3 = np.ndarray  # (3,) float

_EYE = np.eye(3)
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max

# u @ _CROSS is the cross-product matrix of u, flattened: K(u) @ v == np.cross(u, v)
_CROSS = np.array([np.cross(e, np.eye(3)).T for e in np.eye(3)]).reshape(3, 9)


def _freeze(obj, shape, *names, dtype=np.float64) -> None:
    """Store each named field of a frozen dataclass as a read-only array of
    ``shape``; an input that already is such an array is not copied."""
    for name in names:
        a = np.asarray(getattr(obj, name), dtype=dtype).reshape(shape)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


def _check_rotation(r: np.ndarray) -> None:
    """Raise ValueError unless ``r`` is a proper rotation, or a (..., 3, 3) stack of them.

    The orthonormality test is ``np.allclose(r @ r.T, I, atol=ROTATION_ATOL)``
    written out, so NaN fails it: |R R^T - I| <= atol + 1e-5 |I| elementwise.
    A stack costs a fixed number of array operations: R R^T is one einsum,
    and det R the cofactor expansion over entry views.
    """
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {r.shape}")
    gram = np.einsum("...ij,...kj->...ik", r, r)
    if not (np.abs(gram - _EYE) <= ROTATION_ATOL + 1e-5 * _EYE).all():
        raise ValueError("rotation matrix is not orthonormal")
    # t[j, i] is r[..., i, j] with the stack axes reversed, as in rotation_angle;
    # det R = det R^T, expanded along the first row of t
    t = r.T
    det = (
        t[0, 0] * (t[1, 1] * t[2, 2] - t[1, 2] * t[2, 1])
        - t[0, 1] * (t[1, 0] * t[2, 2] - t[1, 2] * t[2, 0])
        + t[0, 2] * (t[1, 0] * t[2, 1] - t[1, 1] * t[2, 0])
    )
    if not (np.abs(det - 1.0) <= ROTATION_ATOL).all():
        raise ValueError("rotation matrix is not proper (det != +1)")


@dataclass(frozen=True)
class RigidTransform:
    """An SE(3) pose, or a stack of N poses: proper rotation (3, 3) or
    (N, 3, 3) plus translation (3,) or (N, 3) in mm.

    Immutable; all operations return new instances. The constructor copies
    its input and checks every rotation once, and so does compose for its
    result, so any reachable instance satisfies the orthonormality and
    det(+1) invariants. The inverse of a stack and its rows share the
    stack's check: a stack has a length, and indexing it gives a row (one
    pose) or rows (a stack), read-only rows of the checked stack.
    """

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        r = r.reshape((3, 3) if r.ndim < 3 else (-1, 3, 3)).copy()
        t = np.asarray(self.translation, dtype=np.float64)
        if t.size != r.size // 3:
            raise ValueError(f"translation {t.shape} does not match rotation {r.shape}")
        t = t.reshape(r.shape[:-1]).copy()
        _check_rotation(r)
        r.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def __len__(self) -> int:
        if self.rotation.ndim == 2:
            raise TypeError("a single pose has no length")
        return len(self.rotation)

    def __getitem__(self, rows) -> RigidTransform:
        if self.rotation.ndim == 2:
            raise TypeError("a single pose has no rows")
        r = self.rotation[rows]
        # an index into the first axis only, so every row is a checked rotation
        if isinstance(rows, tuple) or np.ndim(rows) > 1 or r.ndim > 3:
            raise IndexError("a pose stack takes an int, a slice, a mask or an index array of rows")
        return _checked(r, self.translation[rows])

    @classmethod
    def identity(cls) -> RigidTransform:
        return cls(np.eye(3), np.zeros(3))

    def quat_wxyz(self) -> np.ndarray:
        return quat_from_rotation(self.rotation)

    def __repr__(self) -> str:  # compact, diff-friendly
        if self.rotation.ndim == 3:
            return f"RigidTransform(stack of {len(self)} poses)"
        t = ", ".join(f"{v:.6g}" for v in self.translation)
        return f"RigidTransform(angle={rotation_angle(self.rotation):.6g} rad, t=[{t}] mm)"


def _checked(rotation: np.ndarray, translation: np.ndarray) -> RigidTransform:
    """A transform of rotations that were checked already: the two arrays
    are stored read-only, not copied or checked again."""
    t = object.__new__(RigidTransform)
    for name, a in (("rotation", rotation), ("translation", translation)):
        a.flags.writeable = False
        object.__setattr__(t, name, a)
    return t


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Chain two transforms: compose(t_a_from_b, t_b_from_c) = t_a_from_c.

    Two stacks chain row by row; one pose chains with every row of a stack.
    """
    return RigidTransform(
        a.rotation @ b.rotation, (a.rotation @ b.translation[..., None])[..., 0] + a.translation
    )


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform, row by row on a stack: compose(t, invert(t)) is the identity."""
    rt = np.swapaxes(t.rotation, -1, -2)
    # R^T of checked rotations is checked; copied C-contiguous, as the constructor stores it
    return _checked(rt.copy(), (-rt @ t.translation[..., None])[..., 0])


def transform_point(t: RigidTransform, p) -> np.ndarray:
    """Apply ``t`` to a point (3,) or to points (N, 3).

    One pose maps every point; a stack maps one point through every row, or
    point k through row k.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != 3:
        raise ValueError(f"expected (3,) or (N, 3) points, got {p.shape}")
    if t.rotation.ndim == 2 and p.ndim == 2:
        return p @ t.rotation.T + t.translation
    return (t.rotation @ p[..., None])[..., 0] + t.translation


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
    """Axis-angle vector (log map) of a rotation, or (..., 3) of a (..., 3, 3)
    stack; magnitude is the angle."""
    r = np.asarray(r, dtype=np.float64)
    shape = r.shape[:-1]
    r = r.reshape(-1, 3, 3)
    angle = rotation_angle(r)
    antisym = np.stack(
        [r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], axis=1
    )
    # first order near 0: log(R) ~ (R - R^T) / 2
    scale = np.full(len(r), 0.5)
    near_pi = math.pi - angle < 1e-6
    generic = (angle >= 1e-10) & ~near_pi
    scale[generic] = angle[generic] / (2.0 * np.sin(angle[generic]))
    out = scale[:, None] * antisym
    if near_pi.any():
        # near pi the antisymmetric part vanishes; take the axis from the
        # column of sym(R) + I = (1 - cos) n n^T + (1 + cos) I with the
        # largest diagonal entry (R + I would add sin K(n), off the axis by
        # the distance to pi)
        m = r[near_pi]
        m = (m + np.swapaxes(m, 1, 2)) / 2.0 + _EYE
        k = np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1)
        col = m[np.arange(len(m)), :, k]
        axis = col / _norms(col)[:, None]
        # fix the sign from the antisymmetric part
        flip = np.einsum("ij,ij->i", antisym[near_pi], axis) < 0
        axis[flip] = -axis[flip]
        out[near_pi] = axis * angle[near_pi, None]
    return out.reshape(shape)


def rotation_from_quat(quat) -> Rotation3:
    """Rotation matrix of a quaternion (w, x, y, z), or (N, 3, 3) of (N, 4);
    each quaternion is normalized first."""
    q = np.asarray(quat, dtype=np.float64)
    if q.shape[-1:] != (4,):
        raise ValueError(f"quaternions must be (..., 4), got {q.shape}")
    with np.errstate(over="ignore"):  # an infinite squared norm fails the test below
        n2 = (q[..., None, :] @ q[..., None])[..., 0, 0]
    if not ((_TINY <= n2) & (n2 <= _HUGE)).all():
        raise ValueError("zero quaternion, or its squared norm is not a finite normal float")
    w, x, y, z = np.moveaxis(q / np.sqrt(n2)[..., None], -1, 0)
    r = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    return np.moveaxis(r, (0, 1), (-2, -1))


# rows of the direction stack per block of lines_spread_at_least: a block of
# the cosine matrix is this many rows by N, so memory stays O(N)
_SPREAD_CHUNK_ROWS = 64


def lines_spread_at_least(unit_directions, min_angle: float) -> bool:
    """Whether some two lines along the given unit directions (N, 3) are at
    least ``min_angle`` apart; a direction and its negation are the same line.

    Equal to ``largest pairwise line angle >= min_angle``, where one line
    spreads 0 and an empty stack not at all, but built from row blocks of the
    cosine matrix, stopping at the first block that reaches the bound.
    """
    d = np.asarray(unit_directions, dtype=np.float64).reshape(-1, 3)
    for start in range(0, len(d), _SPREAD_CHUNK_ROWS):
        cos = np.abs(np.clip(d[start : start + _SPREAD_CHUNK_ROWS] @ d.T, -1.0, 1.0))
        rows = np.arange(len(cos))
        cos[rows, start + rows] = 1.0  # a line with itself
        # the block's smallest cosine is its widest angle
        if np.arccos(cos.min()) >= min_angle:
            return True
    return False


def _nearest_rotation(m) -> tuple[Rotation3, np.ndarray]:
    """orthonormalize(m) and the singular values of m, from one SVD."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    d = np.sign(np.linalg.det(u @ vt))
    u[..., :, 2] *= d[..., None]  # u @ diag(1, 1, d)
    return u @ vt, s


def orthonormalize(m) -> Rotation3:
    """Nearest proper rotation (Frobenius) to an arbitrary 3x3 matrix, or to
    each of a (..., 3, 3) stack."""
    return _nearest_rotation(m)[0]


def best_fit_rotation(a, b) -> Rotation3:
    """Least-squares rotation mapping each row of ``a`` (M, 3) to the same
    row of ``b``.

    Minimizes sum ||R a_i - b_i||^2 over proper rotations: R maximizes
    tr(R a^T b), so it is the transpose of the nearest rotation to a^T b
    (Arun, Huang & Blostein 1987). Vector magnitudes act as weights.

    Raises:
        DegenerateConfiguration: fewer than two pairs, or all input
            directions collinear (the rotation about that line is free).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[1:] != (3,) or a.shape != b.shape:
        raise ValueError("a and b must be (M, 3) arrays of the same shape")
    if len(a) < 2:
        raise DegenerateConfiguration("need at least 2 direction pairs")
    nearest, s = _nearest_rotation(a.T @ b)
    if s[1] <= 1e-8 * max(s[0], 1e-300):
        raise DegenerateConfiguration("direction pairs are collinear")
    return nearest.T


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


def quat_from_rotation(r: Rotation3) -> np.ndarray:
    """Unit quaternion (w, x, y, z), w >= 0, of a rotation matrix, or (N, 4)
    of an (N, 3, 3) stack (Shepperd: each matrix takes the branch of the
    largest of its trace and diagonal entries)."""
    r = np.asarray(r, dtype=np.float64)
    shape = r.shape[:-2]
    # t[i, j] holds entry (i, j) of every matrix in the flattened stack
    t = np.moveaxis(r.reshape(-1, 3, 3), 0, -1)
    tr = t[0, 0] + t[1, 1] + t[2, 2]
    branch = np.select(
        [tr > 0, (t[0, 0] > t[1, 1]) & (t[0, 0] > t[2, 2]), t[1, 1] > t[2, 2]], [0, 1, 2], 3
    )
    # 4 w^2, 4 x^2, 4 y^2, 4 z^2, each summed in the order of Shepperd's branch
    radicands = np.array(
        [
            tr + 1.0,
            1.0 + t[0, 0] - t[1, 1] - t[2, 2],
            1.0 + t[1, 1] - t[0, 0] - t[2, 2],
            1.0 + t[2, 2] - t[0, 0] - t[1, 1],
        ]
    )
    k = np.arange(len(branch))
    s = np.sqrt(radicands[branch, k]) * 2.0
    # row b holds 4 q_b q_j for j != b: the numerators of branch b
    w_x, w_y, w_z = t[2, 1] - t[1, 2], t[0, 2] - t[2, 0], t[1, 0] - t[0, 1]
    x_y, x_z, y_z = t[0, 1] + t[1, 0], t[0, 2] + t[2, 0], t[1, 2] + t[2, 1]
    zero = np.zeros_like(tr)
    numerators = np.array(
        [
            [zero, w_x, w_y, w_z],
            [w_x, zero, x_y, x_z],
            [w_y, x_y, zero, y_z],
            [w_z, x_z, y_z, zero],
        ]
    )
    q = numerators[branch, :, k] / s[:, None]
    q[k, branch] = 0.25 * s
    q /= _norms(q)[:, None]
    q[q[:, 0] < 0] *= -1.0  # canonical sign
    return q.reshape(shape + (4,))
