"""Cut-evaluation metrics over a recorded tip trajectory and a planned cut.

Four metrics are computed per trial: lateral trajectory RMSE against the
planned line, executed cut length, active-tool procedure time, and the
binned depth profile with its mean. Depths are signed positive into the
material along the plan's depth axis, so "deepest" always means maximum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyAfterGating, EmptyInput, EmptyProfile
from .geometry import RigidTransform, _freeze, transform_point

_LABEL_RE = re.compile(r"^([A-Za-z]+\d*)[.^](\d+)$")


@dataclass(frozen=True)
class TrialLabel:
    """Trial identifier: experiment-set name plus trial number, e.g. R1.3."""

    set_name: str
    trial: int

    @classmethod
    def parse(cls, text: str) -> TrialLabel:
        m = _LABEL_RE.match(text)
        if not m:
            raise ValueError(f"bad trial label {text!r}; expected e.g. 'M1.4' or 'M1^4'")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.set_name}.{self.trial}"


@dataclass(frozen=True)
class PlannedCut:
    """A straight-line cut: entry point, direction along the surface, depth
    axis into the material, plus target length/depth and cutting speed."""

    entry_point: np.ndarray  # mm
    direction: np.ndarray  # unit, along the cut
    depth_axis: np.ndarray  # unit, into the material
    length_mm: float
    target_depth_mm: float
    cutting_speed_mm_s: float

    def __post_init__(self):
        _freeze(self, 3, "entry_point", "direction", "depth_axis")
        with np.errstate(over="ignore"):  # a huge component makes an inf norm
            if abs(np.linalg.norm(self.direction) - 1.0) > 1e-6:
                raise ValueError("direction must be a unit vector")
            if abs(np.linalg.norm(self.depth_axis) - 1.0) > 1e-6:
                raise ValueError("depth_axis must be a unit vector")
        if abs(float(self.direction @ self.depth_axis)) > 1e-6:
            raise ValueError("direction and depth_axis must be perpendicular")
        if not (self.length_mm > 0 and self.target_depth_mm > 0 and self.cutting_speed_mm_s > 0):
            raise ValueError("length, target depth and cutting speed must be positive")

    @property
    def lateral_axis(self) -> np.ndarray:
        """Unit normal of the cutting plane (direction x depth_axis)."""
        return np.cross(self.direction, self.depth_axis)

    def transformed(self, t: RigidTransform) -> PlannedCut:
        """The same cut re-expressed after a rigid change of frame."""
        return PlannedCut(
            entry_point=transform_point(t, self.entry_point),
            direction=t.rotation @ self.direction,
            depth_axis=t.rotation @ self.depth_axis,
            length_mm=self.length_mm,
            target_depth_mm=self.target_depth_mm,
            cutting_speed_mm_s=self.cutting_speed_mm_s,
        )


@dataclass(frozen=True)
class TrajectoryRecording:
    """Timestamped tool-tip points in the robot base frame with active flags."""

    timestamps: np.ndarray  # (M,) s, strictly increasing
    points: np.ndarray  # (M, 3) mm
    tool_active: np.ndarray  # (M,) bool

    def __post_init__(self):
        _freeze(self, -1, "timestamps")
        _freeze(self, (-1, 3), "points")
        _freeze(self, -1, "tool_active", dtype=bool)
        t, p, a = self.timestamps, self.points, self.tool_active
        if not (len(t) == len(p) == len(a)):
            raise ValueError("timestamps, points and tool_active must have equal length")
        if len(t) < 2:
            raise ValueError("a recording needs at least 2 samples")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(p)):
            raise ValueError("recording contains non-finite values")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    def transformed(self, t: RigidTransform) -> TrajectoryRecording:
        return TrajectoryRecording(self.timestamps, transform_point(t, self.points), self.tool_active)


@dataclass(frozen=True)
class GatePolicy:
    """Which samples feed the lateral-error and length metrics.

    ``active_only`` keeps tool-active samples only; the along-cut window
    [-s_margin, length + s_margin] drops approach/parking motion while
    tolerating slight overshoot of the planned span.
    """

    active_only: bool = True
    s_margin_mm: float = 2.0


@dataclass(frozen=True)
class CutProfile:
    """Deepest penetration per uniform bin along the cut; NaN marks bins
    that no sample fell into."""

    bin_count: int
    bin_width_mm: float
    depths_mm: np.ndarray  # (K,), NaN = missing
    coverage: float  # fraction of non-missing bins

    def __post_init__(self):
        _freeze(self, -1, "depths_mm")
        if len(self.depths_mm) != self.bin_count:
            raise ValueError("depths length must equal bin_count")


@dataclass(frozen=True)
class MetricsReport:
    """All per-trial metrics, one row of the comparison table."""

    trial_label: TrialLabel
    target_depth_mm: float
    cutting_speed_mm_s: float
    rmse_mm: float
    executed_length_mm: float
    procedure_time_s: float
    mean_depth_mm: float
    mean_depth_strict_mm: float  # empty bins counted as zero depth
    profile: CutProfile = field(repr=False)

    def __post_init__(self):
        for name in (
            "rmse_mm",
            "executed_length_mm",
            "procedure_time_s",
            "mean_depth_mm",
            "mean_depth_strict_mm",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _projections(rec: TrajectoryRecording, plan: PlannedCut) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rel = rec.points - plan.entry_point
    return rel @ plan.direction, rel @ plan.depth_axis, rel @ plan.lateral_axis


def _gate_mask(rec: TrajectoryRecording, s: np.ndarray, plan: PlannedCut, gate: GatePolicy) -> np.ndarray:
    mask = (s >= -gate.s_margin_mm) & (s <= plan.length_mm + gate.s_margin_mm)
    if gate.active_only:
        mask &= rec.tool_active
    return mask


def perpendicular_errors(
    rec: TrajectoryRecording,
    plan: PlannedCut,
    gate: GatePolicy = GatePolicy(),
    lateral_mode: str = "lateral",
) -> np.ndarray:
    """Per-sample deviation from the planned line for gated samples, mm.

    ``lateral_mode="lateral"`` measures distance to the cutting plane
    (depth excursions do not count as trajectory error); ``"line3d"`` is
    the full point-to-line Euclidean distance.

    Raises:
        EmptyAfterGating: the gate removed every sample.
    """
    s, depth, lateral = _projections(rec, plan)
    mask = _gate_mask(rec, s, plan, gate)
    if not mask.any():
        raise EmptyAfterGating("no samples survive the gating policy")
    if lateral_mode == "lateral":
        return np.abs(lateral[mask])
    if lateral_mode == "line3d":
        return np.hypot(lateral[mask], depth[mask])
    raise ValueError(f"unknown lateral_mode {lateral_mode!r}")


def trajectory_rmse(errors) -> float:
    """Root mean square of the per-sample errors."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if len(e) == 0:
        raise EmptyInput("no errors to aggregate")
    return float(np.sqrt(np.mean(e**2)))


def executed_length(rec: TrajectoryRecording, plan: PlannedCut, gate: GatePolicy = GatePolicy()) -> float:
    """Span of along-cut travel over gated samples: max - min projection, mm."""
    s, _, _ = _projections(rec, plan)
    mask = _gate_mask(rec, s, plan, gate)
    if not mask.any():
        raise EmptyAfterGating("no samples survive the gating policy")
    kept = s[mask]
    return float(kept.max() - kept.min())


def procedure_time(rec: TrajectoryRecording) -> float:
    """Total tool-active time: summed durations of contiguous active runs, s."""
    active = rec.tool_active
    if not active.any():
        return 0.0
    flags = active.astype(np.int8)
    starts = np.flatnonzero(np.diff(flags) == 1) + 1
    ends = np.flatnonzero(np.diff(flags) == -1)
    if active[0]:
        starts = np.concatenate(([0], starts))
    if active[-1]:
        ends = np.concatenate((ends, [len(active) - 1]))
    return float(np.sum(rec.timestamps[ends] - rec.timestamps[starts]))


def depth_profile(rec: TrajectoryRecording, plan: PlannedCut, bin_count: int) -> CutProfile:
    """Deepest penetration per bin along [0, length], split into
    ``bin_count`` uniform bins.

    Sample j lands in bin floor(s_j / width); s == length goes to the last
    bin, samples outside [0, length] are ignored. All samples participate
    regardless of the active flag: repeated passes only ever deepen a bin.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    s, depth, _ = _projections(rec, plan)
    width = plan.length_mm / bin_count
    in_span = (s >= 0.0) & (s <= plan.length_mm)
    idx = np.minimum((s[in_span] / width).astype(np.int64), bin_count - 1)
    depths = np.full(bin_count, -np.inf)
    np.maximum.at(depths, idx, depth[in_span])
    missing = np.isinf(depths)
    depths[missing] = np.nan
    return CutProfile(
        bin_count=bin_count,
        bin_width_mm=width,
        depths_mm=depths,
        coverage=float(int((~missing).sum()) / bin_count),
    )


def mean_depth(profile: CutProfile) -> float:
    """Mean depth over populated bins, mm."""
    if profile.coverage == 0.0:
        raise EmptyProfile("depth profile has no populated bins")
    return float(np.nanmean(profile.depths_mm))


def mean_depth_strict(profile: CutProfile) -> float:
    """Mean depth over all bins with empty bins counted as zero, mm."""
    return float(np.nansum(profile.depths_mm) / profile.bin_count)


def build_report(
    rec: TrajectoryRecording,
    plan: PlannedCut,
    bin_count: int,
    label: TrialLabel | str,
    gate: GatePolicy = GatePolicy(),
    lateral_mode: str = "lateral",
) -> MetricsReport:
    """Compute all four metrics plus the depth profile for one trial."""
    if isinstance(label, str):
        label = TrialLabel.parse(label)
    errors = perpendicular_errors(rec, plan, gate=gate, lateral_mode=lateral_mode)
    profile = depth_profile(rec, plan, bin_count)
    return MetricsReport(
        trial_label=label,
        target_depth_mm=plan.target_depth_mm,
        cutting_speed_mm_s=plan.cutting_speed_mm_s,
        rmse_mm=trajectory_rmse(errors),
        executed_length_mm=executed_length(rec, plan, gate=gate),
        procedure_time_s=procedure_time(rec),
        mean_depth_mm=mean_depth(profile),
        mean_depth_strict_mm=mean_depth_strict(profile),
        profile=profile,
    )
