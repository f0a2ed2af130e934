"""Waypoint planning for automated cutting: insertion, full-length pass,
retraction, repeated at increasing depth increments until the target depth.

Planned sequences are pure geometry (no robot control); sample_sequence
turns one into the same TrajectoryRecording format that live recordings
use, which closes the plan -> execute -> analyze loop in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutcalError, InvalidPolicy
from .geometry import _freeze
from .metrics import PlannedCut, TrajectoryRecording

DEFAULT_INSERTION_SPEED = 2.0  # mm/s
DEFAULT_RETRACTION_SPEED = 10.0  # mm/s
DEFAULT_RETRACT_CLEARANCE = 5.0  # mm above the surface between passes

# largest recording sample_sequence makes (28 hours at 100 Hz): the samples
# and the log text written from them grow with it, so memory bounds it
MAX_SAMPLE_COUNT = 10_000_000


@dataclass(frozen=True)
class Segment:
    """Straight constant-speed move between two points."""

    start: np.ndarray  # mm
    end: np.ndarray  # mm
    speed_mm_s: float
    tool_active: bool

    def __post_init__(self):
        _freeze(self, 3, "start", "end")
        if self.speed_mm_s <= 0:
            raise ValueError("segment speed must be positive")

    @property
    def length_mm(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    @property
    def duration_s(self) -> float:
        return self.length_mm / self.speed_mm_s


@dataclass(frozen=True)
class Pass:
    insert: Segment
    cut: Segment
    retract: Segment

    @property
    def segments(self) -> tuple[Segment, Segment, Segment]:
        return (self.insert, self.cut, self.retract)


@dataclass(frozen=True)
class CutSequence:
    passes: tuple[Pass, ...]

    def __post_init__(self):
        object.__setattr__(self, "passes", tuple(self.passes))
        if not self.passes:
            raise ValueError("a cut sequence needs at least one pass")

    @property
    def segments(self) -> list[Segment]:
        return [seg for p in self.passes for seg in p.segments]


@dataclass(frozen=True)
class PassPolicy:
    """How a target depth is split into passes and how fast each move runs.

    ``cutting_speed_mm_s=None`` uses the plan's cutting speed. With
    ``bidirectional`` every other pass cuts from the far end back toward
    the entry point instead of restarting at the entry.
    """

    depth_increment_mm: float
    insertion_speed_mm_s: float = DEFAULT_INSERTION_SPEED
    retraction_speed_mm_s: float = DEFAULT_RETRACTION_SPEED
    cutting_speed_mm_s: float | None = None
    retract_clearance_mm: float = DEFAULT_RETRACT_CLEARANCE
    bidirectional: bool = False

    def __post_init__(self):
        if self.depth_increment_mm <= 0:
            raise InvalidPolicy("depth_increment_mm must be positive")
        if self.insertion_speed_mm_s <= 0 or self.retraction_speed_mm_s <= 0:
            raise InvalidPolicy("speeds must be positive")
        if self.cutting_speed_mm_s is not None and self.cutting_speed_mm_s <= 0:
            raise InvalidPolicy("cutting speed must be positive")
        if self.retract_clearance_mm <= 0:
            raise InvalidPolicy("retract clearance must be positive")


def pass_depths(target_depth_mm: float, increment_mm: float) -> list[float]:
    """Strictly increasing per-pass depths ending exactly at the target."""
    # the small epsilon keeps float noise in the quotient from adding a pass
    count = max(1, math.ceil(target_depth_mm / increment_mm - 1e-9))
    return [min((k + 1) * increment_mm, target_depth_mm) for k in range(count)]


def plan_sequence(plan: PlannedCut, policy: PassPolicy) -> CutSequence:
    """Expand a planned cut into insert/cut/retract passes.

    Every pass starts at the plan entry point: insertion plunges from the
    surface to the pass depth (tool on), the cut runs the full planned
    length, and retraction lifts clear of the surface (tool off). The final
    pass ends exactly at the target depth.

    Raises:
        InvalidPolicy: non-positive parameters or an increment larger than
            the target depth.
    """
    if policy.depth_increment_mm > plan.target_depth_mm:
        raise InvalidPolicy("depth increment exceeds the target depth")
    cutting_speed = (
        policy.cutting_speed_mm_s if policy.cutting_speed_mm_s is not None else plan.cutting_speed_mm_s
    )
    entry = plan.entry_point
    along = plan.direction * plan.length_mm
    down = plan.depth_axis
    passes = []
    for k, depth in enumerate(pass_depths(plan.target_depth_mm, policy.depth_increment_mm)):
        reverse = policy.bidirectional and k % 2 == 1
        start_surface = entry + along if reverse else entry
        end_surface = entry if reverse else entry + along
        floor = start_surface + depth * down
        insert = Segment(start_surface, floor, policy.insertion_speed_mm_s, tool_active=True)
        cut = Segment(floor, end_surface + depth * down, cutting_speed, tool_active=True)
        retract = Segment(
            cut.end,
            end_surface - policy.retract_clearance_mm * down,
            policy.retraction_speed_mm_s,
            tool_active=False,
        )
        passes.append(Pass(insert, cut, retract))
    return CutSequence(tuple(passes))


@dataclass(frozen=True)
class SegmentTiming:
    pass_index: int
    kind: str  # insert | cut | retract
    duration_s: float
    tool_active: bool


@dataclass(frozen=True)
class Timeline:
    total_active_s: float
    segments: tuple[SegmentTiming, ...]

    def cut_time_s(self) -> float:
        return sum(s.duration_s for s in self.segments if s.kind == "cut")


def nominal_timeline(seq: CutSequence) -> Timeline:
    """Per-segment durations (length/speed) and summed tool-active time."""
    timings = []
    for i, p in enumerate(seq.passes):
        for kind, seg in (("insert", p.insert), ("cut", p.cut), ("retract", p.retract)):
            timings.append(SegmentTiming(i, kind, seg.duration_s, seg.tool_active))
    total_active = sum(t.duration_s for t in timings if t.tool_active)
    return Timeline(total_active_s=total_active, segments=tuple(timings))


def sample_sequence(seq: CutSequence, rate_hz: float) -> TrajectoryRecording:
    """Sample a sequence at a nominal rate into a trajectory recording.

    Each segment is sampled uniformly in time including both endpoints
    (at least 2 samples, ~rate_hz spacing). Segment boundary samples are
    emitted once, with the earlier segment's active flag. Zero-length
    segments contribute nothing.

    Raises:
        CutcalError: the sequence needs more than MAX_SAMPLE_COUNT samples,
            or a number that is not finite.
    """
    if rate_hz <= 0:
        raise ValueError("sampling rate must be positive")
    durations = [seg.duration_s for seg in seq.segments]
    count = sum(max(2.0, duration * rate_hz) for duration in durations if duration > 0.0)
    if not count <= MAX_SAMPLE_COUNT:
        raise CutcalError(
            f"sampling at {rate_hz:g} Hz takes {count:.3g} samples, over {MAX_SAMPLE_COUNT}"
        )
    times: list[np.ndarray] = []
    points: list[np.ndarray] = []
    active: list[np.ndarray] = []
    t0 = 0.0
    first = True
    for seg, duration in zip(seq.segments, durations):
        if duration <= 0.0:
            continue
        n = max(2, round(duration * rate_hz))
        local = np.linspace(0.0, duration, n)
        frac = (local / duration)[:, None]
        pts = seg.start + frac * (seg.end - seg.start)
        flags = np.full(n, seg.tool_active)
        if not first:  # the boundary instant belongs to the previous segment
            local, pts, flags = local[1:], pts[1:], flags[1:]
        times.append(t0 + local)
        points.append(pts)
        active.append(flags)
        t0 += duration
        first = False
    if not times:
        raise ValueError("sequence has no segments with positive duration")
    return TrajectoryRecording(
        np.concatenate(times), np.vstack(points), np.concatenate(active)
    )
