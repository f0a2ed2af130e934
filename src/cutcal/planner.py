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
from .geometry import _freeze, _norms
from .metrics import PlannedCut, TrajectoryRecording

DEFAULT_INSERTION_SPEED = 2.0  # mm/s
DEFAULT_RETRACTION_SPEED = 10.0  # mm/s
DEFAULT_RETRACT_CLEARANCE = 5.0  # mm above the surface between passes

# largest recording sample_sequence makes (28 hours at 100 Hz): the samples
# and the log text written from them grow with it, so memory bounds it
MAX_SAMPLE_COUNT = 10_000_000


# the tool is on while inserting and cutting, off while retracting
_TOOL_ACTIVE = (True, True, False)


@dataclass(frozen=True)
class CutSequence:
    """Straight constant-speed moves of P passes, held as stacks.

    ``starts`` and ``ends`` are (P, 3, 3) points in mm and ``speeds_mm_s``
    is (P, 3); axis 1 runs over the insert, cut and retract of a pass. The
    tool is on for insert and cut and off for retract.
    """

    starts: np.ndarray
    ends: np.ndarray
    speeds_mm_s: np.ndarray

    def __post_init__(self):
        _freeze(self, (-1, 3, 3), "starts", "ends")
        _freeze(self, (-1, 3), "speeds_mm_s")
        if not len(self.speeds_mm_s):
            raise ValueError("a cut sequence needs at least one pass")
        if not len(self.starts) == len(self.ends) == len(self.speeds_mm_s):
            raise ValueError("starts, ends and speeds must hold the same passes")
        if not np.all(self.speeds_mm_s > 0):
            raise ValueError("segment speeds must be positive")

    def __len__(self) -> int:
        return len(self.speeds_mm_s)

    @property
    def durations_s(self) -> np.ndarray:
        """(P, 3) time of each move: its length over its speed. A time too
        long for a float is inf, which sample_sequence rejects."""
        with np.errstate(over="ignore"):
            return _norms(self.ends - self.starts) / self.speeds_mm_s


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


def pass_depths(target_depth_mm: float, increment_mm: float) -> np.ndarray:
    """Strictly increasing per-pass depths ending exactly at the target.

    Raises:
        InvalidPolicy: the depths take more than MAX_SAMPLE_COUNT // 6
            passes. Each pass has three moves of positive duration, and
            sample_sequence counts at least 2 samples for each, so such a
            plan is over the sample cap at every rate.
    """
    # the small epsilon keeps float noise in the quotient from adding a pass
    quotient = target_depth_mm / increment_mm - 1e-9
    # 6 * ceil(q) > MAX_SAMPLE_COUNT exactly when q > MAX_SAMPLE_COUNT // 6
    if not quotient <= MAX_SAMPLE_COUNT // 6:
        raise InvalidPolicy(
            f"{target_depth_mm:g} mm in steps of {increment_mm:g} mm takes over"
            f" {MAX_SAMPLE_COUNT // 6} passes, whose samples exceed {MAX_SAMPLE_COUNT}"
        )
    count = max(1, math.ceil(quotient))
    return np.minimum(np.arange(1, count + 1) * increment_mm, target_depth_mm)


def _build_passes(
    plan: PlannedCut,
    depths: np.ndarray,
    insertion_speeds: float | np.ndarray,
    cutting_speeds: float | np.ndarray,
    retraction_speed: float = DEFAULT_RETRACTION_SPEED,
    clearance_mm: float = DEFAULT_RETRACT_CLEARANCE,
    bidirectional: bool = False,
) -> CutSequence:
    """One insert/cut/retract pass per depth; speeds are scalars or (P,).

    Insertion plunges from the surface to the pass depth, the cut runs the
    full planned length, and retraction lifts ``clearance_mm`` above the
    surface at the cut's far end. With ``bidirectional`` every other pass
    starts at the far end and cuts back toward the entry point.
    """
    depth = np.asarray(depths)[:, None]
    entry = plan.entry_point
    far = entry + plan.direction * plan.length_mm
    down = plan.depth_axis
    reverse = (np.arange(len(depth)) % 2 == 1)[:, None] & bidirectional
    start_surface = np.where(reverse, far, entry)
    end_surface = np.where(reverse, entry, far)
    floor = start_surface + depth * down
    cut_end = end_surface + depth * down
    lifted = end_surface - clearance_mm * down
    speeds = [insertion_speeds, cutting_speeds, retraction_speed]
    return CutSequence(
        np.stack([start_surface, floor, cut_end], axis=1),
        np.stack([floor, cut_end, lifted], axis=1),
        np.column_stack([np.broadcast_to(v, len(depth)) for v in speeds]),
    )


def plan_sequence(plan: PlannedCut, policy: PassPolicy) -> CutSequence:
    """Expand a planned cut into insert/cut/retract passes.

    Every pass starts at the plan entry point (or, with
    ``policy.bidirectional``, every other pass at the far end): insertion
    plunges from the surface to the pass depth (tool on), the cut runs the
    full planned length, and retraction lifts clear of the surface (tool
    off). The final pass ends exactly at the target depth.

    Raises:
        InvalidPolicy: non-positive parameters, an increment larger than
            the target depth, or too many passes (see pass_depths).
    """
    if policy.depth_increment_mm > plan.target_depth_mm:
        raise InvalidPolicy("depth increment exceeds the target depth")
    cutting_speed = (
        policy.cutting_speed_mm_s if policy.cutting_speed_mm_s is not None else plan.cutting_speed_mm_s
    )
    return _build_passes(
        plan,
        pass_depths(plan.target_depth_mm, policy.depth_increment_mm),
        policy.insertion_speed_mm_s,
        cutting_speed,
        policy.retraction_speed_mm_s,
        policy.retract_clearance_mm,
        policy.bidirectional,
    )


def sample_sequence(seq: CutSequence, rate_hz: float) -> TrajectoryRecording:
    """Sample a sequence at a nominal rate into a trajectory recording.

    Each move is sampled uniformly in time including both endpoints (at
    least 2 samples, ~rate_hz spacing). Boundary samples between moves are
    emitted once, with the earlier move's active flag. Zero-length moves
    contribute nothing.

    Raises:
        CutcalError: the sequence needs more than MAX_SAMPLE_COUNT samples,
            a number that is not finite, or none (every move takes no time).
    """
    if rate_hz <= 0:
        raise ValueError("sampling rate must be positive")
    durations = seq.durations_s.ravel().tolist()
    count = sum(max(2.0, duration * rate_hz) for duration in durations if duration > 0.0)
    if not count <= MAX_SAMPLE_COUNT:
        raise CutcalError(
            f"sampling at {rate_hz:g} Hz takes {count:.3g} samples, over {MAX_SAMPLE_COUNT}"
        )
    starts = seq.starts.reshape(-1, 3)
    ends = seq.ends.reshape(-1, 3)
    times: list[np.ndarray] = []
    points: list[np.ndarray] = []
    active: list[np.ndarray] = []
    t0 = 0.0
    first = True
    # a plan has a few dozen moves: this loop is faster and leaner than one
    # vectorized pass over every sample
    for i, duration in enumerate(durations):
        if duration <= 0.0:
            continue
        n = max(2, round(duration * rate_hz))
        local = np.linspace(0.0, duration, n)
        frac = (local / duration)[:, None]
        pts = starts[i] + frac * (ends[i] - starts[i])
        flags = np.full(n, _TOOL_ACTIVE[i % 3])
        if not first:  # the boundary instant belongs to the previous move
            local, pts, flags = local[1:], pts[1:], flags[1:]
        times.append(t0 + local)
        points.append(pts)
        active.append(flags)
        t0 += duration
        first = False
    if not times:
        raise CutcalError("every move of the sequence takes zero time")
    return TrajectoryRecording(
        np.concatenate(times), np.vstack(points), np.concatenate(active)
    )
