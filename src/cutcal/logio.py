"""File formats: pose logs and trajectory logs as CSV, plans as JSON.

Pose log columns:        timestamp,source,target,qw,qx,qy,qz,tx,ty,tz
Trajectory log columns:  timestamp,x,y,z,active

A pose-log row stores the pose of the ``target`` frame expressed in the
``source`` frame (so source=S, target=EE is the robot's forward-kinematic
pose). Units are millimeters and seconds, dot decimal separator. Floats are
written with repr so serialize -> parse is lossless.

Both CSV logs are read alike. Lines end in LF, and a CR just before an LF is
ignored; blank and whitespace-only lines are skipped. A row is checked field
by field, left to right. A bad log raises a ParseError at the 1-based line of
its first error in file order.

A log of at least _SPLIT_MIN_ROWS rows is written and parsed in two processes
where ``os.fork`` exists and a second CPU is usable: a forked child converts
the second half of the rows. The text and the arrays are those of the
one-process path, and errors are still found and reported by this process.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import CutcalError, FrameError, InvalidPolicy, NonMonotoneTime, ParseError
from .geometry import FrameId, RigidTransform, _freeze, _norms, rotation_from_quat
from .metrics import GatePolicy, PlannedCut, TrajectoryRecording
from .planner import PassPolicy

POSE_LOG_HEADER = "timestamp,source,target,qw,qx,qy,qz,tx,ty,tz"
TRAJECTORY_LOG_HEADER = "timestamp,x,y,z,active"

# quaternions further from unit norm than this are corrupt, closer ones are
# silently renormalized (tracker exports truncate digits)
QUAT_NORM_WINDOW = (0.999, 1.001)

# largest plan analysis.K: the depth profile holds K floats, so memory bounds it
MAX_BIN_COUNT = 1_000_000

# rows per chunk of the trajectory-log writer
_WRITE_CHUNK_ROWS = 4096

# logs of at least this many data rows are written and parsed in two processes
# (_in_halves). On a 2 vCPU Xeon (Python 3.11, numpy 2.4), a fork and pipe
# round trip took 2-3.5 ms (more in a larger process), and the split broke even
# at 6-8k trajectory rows for both the writer and the parse; about 3x that
# keeps a margin for a busy second CPU
_SPLIT_MIN_ROWS = 20_000

# a pose log stores each frame as its index in this tuple
_FRAMES = tuple(FrameId)
_FRAME_CODE = {f: k for k, f in enumerate(_FRAMES)}
_FRAME_CODE_BY_LABEL = {f.value: k for k, f in enumerate(_FRAMES)}
_FRAME_LABELS = np.array([f.value for f in _FRAMES])


@dataclass(frozen=True, eq=False)
class PoseLog:
    """A pose log held as column stacks, row i of the file at index i.

    ``sources`` and ``targets`` hold each row's frames as indices into
    ``tuple(FrameId)``. Quaternions are unit (w, x, y, z); translations in mm.
    """

    timestamps: np.ndarray  # (N,)
    sources: np.ndarray  # (N,) int8
    targets: np.ndarray  # (N,) int8
    quats_wxyz: np.ndarray  # (N, 4)
    translations: np.ndarray  # (N, 3)

    def __post_init__(self):
        _freeze(self, -1, "timestamps")
        _freeze(self, -1, "sources", "targets", dtype=np.int8)
        _freeze(self, (-1, 4), "quats_wxyz")
        _freeze(self, (-1, 3), "translations")
        if len({len(column) for column in vars(self).values()}) != 1:
            raise ValueError("pose-log columns differ in length")

    def __len__(self) -> int:
        return len(self.timestamps)

    def rows_of(self, source: FrameId, target: FrameId) -> np.ndarray:
        """Indices of the (source, target) rows, in file order."""
        mask = (self.sources == _FRAME_CODE[source]) & (self.targets == _FRAME_CODE[target])
        return np.flatnonzero(mask)

    def poses(self, rows) -> RigidTransform:
        """The poses of the given rows, one stack."""
        return RigidTransform(rotation_from_quat(self.quats_wxyz[rows]), self.translations[rows])


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
    """The JSON text every output file uses: 2-space indent, sorted keys.

    Raises:
        CutcalError: the document holds NaN or an infinity, which JSON
            cannot carry.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise CutcalError(f"output holds a non-finite number: {e}") from None


def _parse_float(text: str, what: str, line: int) -> float:
    stripped = text.strip()
    # float() also reads "1_0" and non-ASCII digits, which np.loadtxt rejects
    if "_" in stripped or not stripped.isascii():
        raise ParseError(f"bad {what}: {text!r}", line)
    try:
        value = float(stripped)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {text!r}", line)
    return value


def _frame_code(label: str) -> float:
    """Code of a frame label; NaN for an unknown one, which no valid row holds."""
    return _FRAME_CODE_BY_LABEL.get(label.strip(), math.nan)


def _read_csv(data: str | bytes, header: str, valid, scan, converters=None) -> np.ndarray:
    """The data rows of a CSV log as one (N, columns) float array.

    One bulk ``np.loadtxt`` parses the lines and ``valid`` tests the whole
    array. Where the parse fails or the test is false, ``scan`` walks the
    lines in file order and raises the first error; it words every row error.
    """
    lines = _decode(data).split("\n")
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", 1)
    width = header.count(",") + 1
    rows = _load_rows(lines, width, converters)
    if rows is None or not valid(rows):
        scan(lines)
        # every row is good, so loadtxt tripped on whitespace-only lines,
        # which it skips only when empty
        rows = _load_rows(list(filter(str.strip, lines)), width, converters)
    return rows


def _load_rows(lines: list[str], width: int, converters) -> np.ndarray | None:
    """The lines after the header as rows of ``width`` numbers; None where
    loadtxt rejects them."""

    def load(lo: int, hi: int) -> np.ndarray | None:
        part = lines[1 + lo : 1 + hi]
        if not any(map(str.strip, part)):
            return np.empty((0, width))  # loadtxt would warn that there is no data
        try:
            rows = np.loadtxt(part, delimiter=",", ndmin=2, comments=None, converters=converters)
        except ValueError:
            return None
        return rows if rows.shape[1] == width else None

    n = len(lines) - 1
    if not lines[-1]:  # the LF that ends the last line starts no row
        n -= 1
    halves = _in_halves(load, n)
    if any(rows is None for rows in halves):
        return None
    return np.concatenate(halves) if len(halves) > 1 else halves[0]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_halves(fn, n: int) -> tuple:
    """``(fn(0, h), fn(h, n))`` with ``h = n // 2``, or ``(fn(0, n),)``.

    A log of at least _SPLIT_MIN_ROWS rows is split when ``os.fork`` exists
    and a second CPU is usable: a forked child computes ``fn(h, n)`` and
    pickles it into a pipe while this process computes ``fn(0, h)``. Where
    the child fails, this process computes its half too, so the results and
    exceptions are those of the inline path. ``fn`` must call no BLAS, since
    a child forked beside BLAS threads may find their locks held.
    """
    if n < _SPLIT_MIN_ROWS or not hasattr(os, "fork") or _usable_cpus() < 2:
        return (fn(0, n),)
    h = n // 2
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        os.close(read_end)
        os.close(write_end)
        return (fn(0, n),)
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(fn(h, n), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    second = ()
    try:
        # closing the read end, also when fn raises, lets a child blocked on a
        # full pipe fail its write and exit before the wait
        with open(read_end, "rb") as pipe:
            first = fn(0, h)
            try:
                second = (pickle.load(pipe),)
            except (EOFError, pickle.UnpicklingError):  # the child sent no whole result
                pass
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not second:
        second = (fn(h, n),)
    return first, second[0]


def _data_fields(lines: list[str], width: int):
    """(line number, fields) of each line after the header that is not blank,
    in file order. A CR counts only as the end of a line, as it does to loadtxt."""
    for lineno, raw in enumerate(itertools.islice(lines, 1, None), start=2):
        raw = raw.removesuffix("\r")
        if not raw.strip():
            continue
        if "\r" in raw:
            raise ParseError("carriage return inside a line", lineno)
        fields = raw.split(",")
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}", lineno)
        yield lineno, fields


def _pose_rows_valid(rows: np.ndarray) -> bool:
    norms = _norms(rows[:, 3:7])
    return bool(
        np.isfinite(rows).all()
        and ((QUAT_NORM_WINDOW[0] <= norms) & (norms <= QUAT_NORM_WINDOW[1])).all()
        and len(set(map(tuple, rows[:, :3].tolist()))) == len(rows)
    )


def _scan_pose_lines(lines: list[str]) -> None:
    """Raise the first error of a pose log."""
    seen = set()
    for lineno, fields in _data_fields(lines, 10):
        key = (_parse_float(fields[0], "timestamp", lineno), *map(_frame_code, fields[1:3]))
        for label, code in zip(fields[1:3], key[1:]):
            if math.isnan(code):
                raise FrameError(f"unknown frame label {label.strip()!r}", lineno)
        if key in seen:
            source, target = _FRAMES[key[1]], _FRAMES[key[2]]
            raise ParseError(f"duplicate {source},{target} row at timestamp {key[0]!r}", lineno)
        seen.add(key)
        quat = [_parse_float(f, "quaternion component", lineno) for f in fields[3:7]]
        for field in fields[7:]:
            _parse_float(field, "translation component", lineno)
        norm = _norms(np.array(quat))
        if not QUAT_NORM_WINDOW[0] <= norm <= QUAT_NORM_WINDOW[1]:
            raise ParseError(f"quaternion norm {norm:.6g} outside {QUAT_NORM_WINDOW}", lineno)


def parse_pose_log(data: str | bytes) -> PoseLog:
    """Parse a pose log into one stacked PoseLog; ParseError/FrameError at the
    line of the first error.

    A row's frames are checked against earlier rows' (timestamp, source,
    target) before its numbers are read, and its quaternion norm after them.
    Quaternions within QUAT_NORM_WINDOW of unit norm are renormalized.
    """
    converters = {1: _frame_code, 2: _frame_code}
    # a huge quaternion component overflows its norm to inf, outside the window
    with np.errstate(over="ignore"):
        rows = _read_csv(data, POSE_LOG_HEADER, _pose_rows_valid, _scan_pose_lines, converters)
    quats = rows[:, 3:7]
    norms = _norms(quats)[:, None]
    quats = np.where(np.abs(norms - 1.0) > 1e-12, quats / norms, quats)
    return PoseLog(rows[:, 0], rows[:, 1], rows[:, 2], quats, rows[:, 7:])


def serialize_pose_log(log: PoseLog) -> str:
    """Pose-log text of a PoseLog."""
    columns = (
        log.timestamps,
        _FRAME_LABELS[log.sources],
        _FRAME_LABELS[log.targets],
        *log.quats_wxyz.T,
        *log.translations.T,
    )
    return _write_csv(POSE_LOG_HEADER, columns)


def _trajectory_rows_valid(rows: np.ndarray) -> bool:
    t, active = rows[:, 0], rows[:, 4]
    return bool(
        np.isfinite(rows).all()
        and ((active == 0.0) | (active == 1.0)).all()
        and (t[1:] > t[:-1]).all()
    )


def _scan_trajectory_lines(lines: list[str]) -> None:
    """Raise the first error of a trajectory log."""
    names = TRAJECTORY_LOG_HEADER.split(",")
    previous = -math.inf
    for lineno, fields in _data_fields(lines, 5):
        t, _, _, _, active = (_parse_float(f, name, lineno) for f, name in zip(fields, names))
        if not t > previous:
            raise NonMonotoneTime(f"timestamp {t!r} does not increase past {previous!r}", lineno)
        if active not in (0.0, 1.0):
            raise ParseError(f"active flag must be 0 or 1, got {active}", lineno)
        previous = t


def parse_trajectory_log(data: str | bytes) -> TrajectoryRecording:
    """Parse a trajectory log into a recording; ParseError/NonMonotoneTime at
    the line of the first error.

    There is no comment syntax, so a ``#`` line or trailing ``# ...`` text is
    a malformed row. After a row's fields are read, its timestamp must exceed
    the row before's and its active flag must be 0 or 1.
    """
    rows = _read_csv(data, TRAJECTORY_LOG_HEADER, _trajectory_rows_valid, _scan_trajectory_lines)
    if len(rows) < 2:
        raise ParseError("a trajectory needs at least 2 samples")
    return TrajectoryRecording(rows[:, 0], rows[:, 1:4], rows[:, 4].astype(bool))


def serialize_trajectory_log(rec: TrajectoryRecording) -> str:
    columns = (rec.timestamps, *rec.points.T, rec.tool_active.view(np.uint8))
    return _write_csv(TRAJECTORY_LOG_HEADER, columns)


def _write_csv(header: str, columns) -> str:
    """CSV text of equal-length columns, column by column, a chunk of rows at
    a time. The repr of a list of numbers is the repr of each number, so one
    C call writes a numeric column's fields; string columns are written as
    they are. Chunks bound the field strings alive at once, and a long log's
    halves are written side by side (_in_halves)."""

    def chunks(lo: int, hi: int) -> list[str]:
        parts = []
        for start in range(lo, hi, _WRITE_CHUNK_ROWS):
            rows = slice(start, min(start + _WRITE_CHUNK_ROWS, hi))
            fields = [
                col[rows].tolist()
                if col.dtype.kind == "U"
                else repr(col[rows].tolist())[1:-1].split(", ")
                for col in columns
            ]
            parts.append("\n".join(map(",".join, zip(*fields))))
        return parts

    halves = _in_halves(chunks, len(columns[0]))
    return "\n".join([header, *itertools.chain.from_iterable(halves)]) + "\n"


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
    _require_present(obj, allowed, where)


def _require_present(obj: dict, keys: dict[str, bool], where: str) -> None:
    """Raise ParseError naming the keys marked required that ``obj`` lacks."""
    missing = [k for k, required in keys.items() if required and k not in obj]
    if missing:
        raise ParseError(f"missing key(s) {missing} in {where}")


def _field_keys(cls) -> dict[str, bool]:
    """A dataclass's field names, each required when it has no default."""
    return {f.name: f.default is MISSING for f in fields(cls)}


def _read_fields(cls, obj: dict, keys, where: str) -> dict:
    """The values of ``keys`` in ``obj``, read as the fields of ``cls`` they
    name: an array field takes a list of 3 finite numbers, a bool field a
    boolean, and any other field a finite number."""
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for key in keys:
        v = obj[key]
        if types[key] == "np.ndarray":
            if not (isinstance(v, list) and len(v) == 3):
                raise ParseError(f"{where}.{key} must be a list of 3 numbers")
            v = np.array([_number(v, i, f"{where}.{key}") for i in range(3)])
        elif types[key] == "bool":
            if not isinstance(v, bool):
                raise ParseError(f"{where}.{key} must be a boolean")
        else:
            v = _number(obj, key, where)
        values[key] = v
    return values


def _fields_doc(obj) -> dict:
    """The JSON object of a dataclass's fields, leaving out those that are None."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values if v is not None}


def _analysis_doc(options: AnalysisOptions) -> dict:
    """The plan's ``analysis`` object, whose keys are not field names."""
    return {
        "K": options.bin_count,
        "gating": "active_only" if options.gate.active_only else "all",
        "s_margin_mm": options.gate.s_margin_mm,
        "lateral_mode": options.lateral_mode,
    }


def _number(obj, key: str | int, where: str) -> float:
    v = obj[key]
    # abs() keeps integers beyond float range out without converting them
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ParseError(f"{where}.{key} must be a finite number")
    return float(v)


def parse_plan(data: str | bytes) -> PlanFile:
    """Parse and schema-validate a plan JSON document.

    Its keys are the field names of PlannedCut, plus ``pass_policy``, whose
    keys are the field names of PassPolicy, and an optional ``analysis``. A
    field without a default is a required key; unknown keys are rejected.
    """
    doc = load_json(data)
    if not isinstance(doc, dict):
        raise ParseError("plan document must be a JSON object")
    cut_keys = _field_keys(PlannedCut)
    _require_keys(doc, {**cut_keys, "pass_policy": True, "analysis": False}, "plan")
    try:
        plan = PlannedCut(**_read_fields(PlannedCut, doc, cut_keys, "plan"))
    except ValueError as e:
        raise ParseError(f"invalid plan: {e}") from e

    pp = doc["pass_policy"]
    if not isinstance(pp, dict):
        raise ParseError("plan.pass_policy must be an object")
    _require_keys(pp, _field_keys(PassPolicy), "pass_policy")
    try:
        # in document order: the first bad value is the first one written
        policy = PassPolicy(**_read_fields(PassPolicy, pp, pp, "pass_policy"))
    except InvalidPolicy as e:
        raise ParseError(f"invalid pass_policy: {e}") from e

    defaults = _analysis_doc(AnalysisOptions())
    an = doc.get("analysis", defaults)
    if not isinstance(an, dict):
        raise ParseError("plan.analysis must be an object")
    _require_keys(an, dict.fromkeys(defaults, False), "analysis")
    an = {**defaults, **an}
    if an["gating"] not in ("active_only", "all"):
        raise ParseError("analysis.gating must be 'active_only' or 'all'")
    k = an["K"]
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_BIN_COUNT:
        raise ParseError(f"analysis.K must be an integer from 1 to {MAX_BIN_COUNT}")
    gate = GatePolicy(an["gating"] == "active_only", _number(an, "s_margin_mm", "analysis"))
    try:
        analysis = AnalysisOptions(k, gate, an["lateral_mode"])
    except ValueError as e:
        raise ParseError(f"invalid analysis options: {e}") from e
    return PlanFile(plan=plan, policy=policy, analysis=analysis)


def serialize_plan(pf: PlanFile) -> str:
    policy, analysis = _fields_doc(pf.policy), _analysis_doc(pf.analysis)
    return dump_json({**_fields_doc(pf.plan), "pass_policy": policy, "analysis": analysis})
