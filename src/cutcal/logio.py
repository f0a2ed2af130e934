"""File formats: pose logs and trajectory logs as CSV, plans as JSON.

Pose log columns:        timestamp,source,target,qw,qx,qy,qz,tx,ty,tz
Trajectory log columns:  timestamp,x,y,z,active

A pose-log row stores the pose of the ``target`` frame expressed in the
``source`` frame (so source=S, target=EE is the robot's forward-kinematic
pose). Units are millimeters and seconds, dot decimal separator, LF line
endings. Floats are written with repr so serialize -> parse is lossless.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FrameError, InvalidPolicy, NonMonotoneTime, ParseError
from .geometry import FrameId, RigidTransform, _freeze
from .metrics import GatePolicy, PlannedCut, TrajectoryRecording
from .planner import PassPolicy

POSE_LOG_HEADER = "timestamp,source,target,qw,qx,qy,qz,tx,ty,tz"
TRAJECTORY_LOG_HEADER = "timestamp,x,y,z,active"

# quaternions further from unit norm than this are corrupt, closer ones are
# silently renormalized (tracker exports truncate digits)
QUAT_NORM_WINDOW = (0.999, 1.001)

# largest plan analysis.K: the depth profile holds K floats, so memory bounds it
MAX_BIN_COUNT = 1_000_000

_FRAME_BY_LABEL = {f.value: f for f in FrameId}


@dataclass(frozen=True)
class PoseLogRow:
    timestamp: float
    source: FrameId
    target: FrameId
    quat_wxyz: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        _freeze(self, 4, "quat_wxyz")
        _freeze(self, 3, "translation")

    @property
    def transform(self) -> RigidTransform:
        return RigidTransform.from_quat_wxyz(self.quat_wxyz, self.translation)

    @classmethod
    def from_transform(
        cls, timestamp: float, source: FrameId, target: FrameId, t: RigidTransform
    ) -> PoseLogRow:
        return cls(timestamp, source, target, t.quat_wxyz(), t.translation)


def _decode(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8: {e}") from e
    return data


def load_json(data: str | bytes):
    """Decode and parse a JSON document; ParseError on bad UTF-8 or JSON."""
    try:
        return json.loads(_decode(data))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno) from e
    except (RecursionError, ValueError) as e:  # nested too deeply; integer with too many digits
        raise ParseError(f"invalid JSON: {e}") from e


def dump_json(doc) -> str:
    """The JSON text every output file uses: 2-space indent, sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_float(text: str, what: str, line: int) -> float:
    # float() also reads "1_0" and non-ASCII digits, which np.loadtxt rejects
    if "_" in text or not text.strip().isascii():
        raise ParseError(f"bad {what}: {text!r}", line)
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", line)
    return value


def _parse_frame(label: str, line: int) -> FrameId:
    try:
        return _FRAME_BY_LABEL[label]
    except KeyError:
        raise FrameError(f"unknown frame label {label!r}", line) from None


def parse_pose_log(data: str | bytes) -> list[PoseLogRow]:
    """Parse a pose log; raises ParseError/FrameError with 1-based lines.

    A second row with the same (timestamp, source, target) is an error.
    """
    text = _decode(data)
    lines = text.splitlines()
    if not lines or lines[0].strip() != POSE_LOG_HEADER:
        raise ParseError(f"expected header {POSE_LOG_HEADER!r}", 1)
    rows = []
    seen = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 10:
            raise ParseError(f"expected 10 fields, got {len(fields)}", lineno)
        timestamp = _parse_float(fields[0], "timestamp", lineno)
        source = _parse_frame(fields[1].strip(), lineno)
        target = _parse_frame(fields[2].strip(), lineno)
        if (timestamp, source, target) in seen:
            raise ParseError(f"duplicate {source},{target} row at timestamp {timestamp!r}", lineno)
        seen.add((timestamp, source, target))
        quat = np.array([_parse_float(f, "quaternion component", lineno) for f in fields[3:7]])
        trans = np.array([_parse_float(f, "translation component", lineno) for f in fields[7:10]])
        norm = float(np.linalg.norm(quat))
        if not (QUAT_NORM_WINDOW[0] <= norm <= QUAT_NORM_WINDOW[1]):
            raise ParseError(f"quaternion norm {norm:.6g} outside {QUAT_NORM_WINDOW}", lineno)
        if abs(norm - 1.0) > 1e-12:
            quat = quat / norm
        rows.append(PoseLogRow(timestamp, source, target, quat, trans))
    return rows


def serialize_pose_log(rows) -> str:
    out = [POSE_LOG_HEADER]
    for r in rows:
        q = ",".join(repr(float(v)) for v in r.quat_wxyz)
        t = ",".join(repr(float(v)) for v in r.translation)
        out.append(f"{float(r.timestamp)!r},{r.source},{r.target},{q},{t}")
    return "\n".join(out) + "\n"


def parse_trajectory_log(data: str | bytes) -> TrajectoryRecording:
    """Parse a trajectory log into a recording.

    Blank and whitespace-only lines are skipped; there is no comment syntax,
    so a ``#`` line or trailing ``# ...`` text is a malformed row. Fast path
    is one bulk numpy parse over the lines; on failure the lines are scanned
    one by one to report the offending line number.
    """
    text = _decode(data)
    lines = text.splitlines()
    if not lines or lines[0].strip() != TRAJECTORY_LOG_HEADER:
        raise ParseError(f"expected header {TRAJECTORY_LOG_HEADER!r}", 1)
    if not any(map(str.strip, itertools.islice(lines, 1, None))):
        raise ParseError("trajectory log has no data rows")
    try:
        arr = _load_trajectory_rows(lines)
    except ValueError:
        _scan_trajectory_lines(lines)  # locates the bad line and raises
        # every row is well formed, so loadtxt tripped on whitespace-only
        # lines, which it does not skip (it skips only empty ones)
        try:
            arr = _load_trajectory_rows([raw for raw in lines if raw.strip()])
        except ValueError:
            raise ParseError("malformed trajectory log") from None
    if arr.shape[1] != 5:
        raise ParseError(f"expected 5 columns, got {arr.shape[1]}", _row_line(lines, 0))
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr).all(axis=1))[0])
        raise ParseError("non-finite value", _row_line(lines, bad))
    active = arr[:, 4]
    if not np.all((active == 0.0) | (active == 1.0)):
        bad = int(np.flatnonzero((active != 0.0) & (active != 1.0))[0])
        raise ParseError(f"active flag must be 0 or 1, got {active[bad]}", _row_line(lines, bad))
    t = arr[:, 0]
    if np.any(np.diff(t) <= 0):
        bad = int(np.flatnonzero(np.diff(t) <= 0)[0])
        raise NonMonotoneTime(
            f"timestamp {float(t[bad + 1])!r} does not increase past {float(t[bad])!r}",
            _row_line(lines, bad + 1),
        )
    if len(arr) < 2:
        raise ParseError("a trajectory needs at least 2 samples")
    return TrajectoryRecording(t, arr[:, 1:4], active.astype(bool))


def _load_trajectory_rows(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, skiprows=1, comments=None)


def _row_line(lines: list[str], row: int) -> int:
    """1-based file line of data row ``row``, counting past blank lines."""
    data_lines = (lineno for lineno, raw in enumerate(lines[1:], start=2) if raw.strip())
    return next(itertools.islice(data_lines, row, None))


def _scan_trajectory_lines(lines: list[str]) -> None:
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 5:
            raise ParseError(f"expected 5 fields, got {len(fields)}", lineno)
        for name, value in zip(("timestamp", "x", "y", "z", "active"), fields):
            _parse_float(value, name, lineno)


def serialize_trajectory_log(rec: TrajectoryRecording) -> str:
    lines = [TRAJECTORY_LOG_HEADER]
    for t, p, a in zip(rec.timestamps.tolist(), rec.points.tolist(), rec.tool_active.tolist()):
        lines.append(f"{t!r},{p[0]!r},{p[1]!r},{p[2]!r},{int(a)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AnalysisOptions:
    """Analysis parameters carried by a plan file."""

    bin_count: int = 100
    gate: GatePolicy = GatePolicy()
    lateral_mode: str = "lateral"

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError("bin_count (K) must be >= 1")
        if self.lateral_mode not in ("lateral", "line3d"):
            raise ValueError("lateral_mode must be 'lateral' or 'line3d'")


@dataclass(frozen=True)
class PlanFile:
    plan: PlannedCut
    policy: PassPolicy
    analysis: AnalysisOptions = AnalysisOptions()


def _require_keys(obj: dict, allowed: dict[str, bool], where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = [k for k, required in allowed.items() if required and k not in obj]
    if missing:
        raise ParseError(f"missing key(s) {missing} in {where}")


def _vec3(obj, key: str, where: str) -> np.ndarray:
    v = obj[key]
    if not (isinstance(v, list) and len(v) == 3):
        raise ParseError(f"{where}.{key} must be a list of 3 numbers")
    return np.array([_number(v, i, f"{where}.{key}") for i in range(3)])


def _number(obj, key: str | int, where: str) -> float:
    v = obj[key]
    # abs() keeps integers beyond float range out without converting them
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ParseError(f"{where}.{key} must be a finite number")
    return float(v)


def parse_plan(data: str | bytes) -> PlanFile:
    """Parse and schema-validate a plan JSON document."""
    doc = load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("plan document must be a JSON object")
    _require_keys(
        doc,
        {
            "entry_point": True,
            "direction": True,
            "depth_axis": True,
            "length_mm": True,
            "target_depth_mm": True,
            "cutting_speed_mm_s": True,
            "pass_policy": True,
            "analysis": False,
        },
        "plan",
    )
    try:
        plan = PlannedCut(
            entry_point=_vec3(doc, "entry_point", "plan"),
            direction=_vec3(doc, "direction", "plan"),
            depth_axis=_vec3(doc, "depth_axis", "plan"),
            length_mm=_number(doc, "length_mm", "plan"),
            target_depth_mm=_number(doc, "target_depth_mm", "plan"),
            cutting_speed_mm_s=_number(doc, "cutting_speed_mm_s", "plan"),
        )
    except ValueError as e:
        raise ParseError(f"invalid plan: {e}") from e

    pp = doc["pass_policy"]
    if not isinstance(pp, dict):
        raise ParseError("plan.pass_policy must be an object")
    _require_keys(
        pp,
        {
            "depth_increment_mm": True,
            "insertion_speed_mm_s": False,
            "retraction_speed_mm_s": False,
            "cutting_speed_mm_s": False,
            "retract_clearance_mm": False,
            "bidirectional": False,
        },
        "pass_policy",
    )
    kwargs = {}
    for key in pp:
        if key == "bidirectional":
            if not isinstance(pp[key], bool):
                raise ParseError("pass_policy.bidirectional must be a boolean")
            kwargs[key] = pp[key]
        else:
            kwargs[key] = _number(pp, key, "pass_policy")
    try:
        policy = PassPolicy(**kwargs)
    except InvalidPolicy as e:
        raise ParseError(f"invalid pass_policy: {e}") from e

    analysis = AnalysisOptions()
    if "analysis" in doc:
        an = doc["analysis"]
        if not isinstance(an, dict):
            raise ParseError("plan.analysis must be an object")
        _require_keys(
            an,
            {"K": False, "gating": False, "s_margin_mm": False, "lateral_mode": False},
            "analysis",
        )
        gating = an.get("gating", "active_only")
        if gating not in ("active_only", "all"):
            raise ParseError("analysis.gating must be 'active_only' or 'all'")
        k = an.get("K", 100)
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_BIN_COUNT:
            raise ParseError(f"analysis.K must be an integer from 1 to {MAX_BIN_COUNT}")
        margin = _number(an, "s_margin_mm", "analysis") if "s_margin_mm" in an else 2.0
        mode = an.get("lateral_mode", "lateral")
        try:
            analysis = AnalysisOptions(
                bin_count=k,
                gate=GatePolicy(active_only=(gating == "active_only"), s_margin_mm=margin),
                lateral_mode=mode,
            )
        except ValueError as e:
            raise ParseError(f"invalid analysis options: {e}") from e
    return PlanFile(plan=plan, policy=policy, analysis=analysis)


def serialize_plan(pf: PlanFile) -> str:
    policy: dict = {"depth_increment_mm": pf.policy.depth_increment_mm}
    policy["insertion_speed_mm_s"] = pf.policy.insertion_speed_mm_s
    policy["retraction_speed_mm_s"] = pf.policy.retraction_speed_mm_s
    if pf.policy.cutting_speed_mm_s is not None:
        policy["cutting_speed_mm_s"] = pf.policy.cutting_speed_mm_s
    policy["retract_clearance_mm"] = pf.policy.retract_clearance_mm
    policy["bidirectional"] = pf.policy.bidirectional
    doc = {
        "entry_point": pf.plan.entry_point.tolist(),
        "direction": pf.plan.direction.tolist(),
        "depth_axis": pf.plan.depth_axis.tolist(),
        "length_mm": pf.plan.length_mm,
        "target_depth_mm": pf.plan.target_depth_mm,
        "cutting_speed_mm_s": pf.plan.cutting_speed_mm_s,
        "pass_policy": policy,
        "analysis": {
            "K": pf.analysis.bin_count,
            "gating": "active_only" if pf.analysis.gate.active_only else "all",
            "s_margin_mm": pf.analysis.gate.s_margin_mm,
            "lateral_mode": pf.analysis.lateral_mode,
        },
    }
    return dump_json(doc)
