"""File formats: pose logs and trajectory logs as CSV, plans as JSON.

Pose log columns:        timestamp,source,target,qw,qx,qy,qz,tx,ty,tz
Trajectory log columns:  timestamp,x,y,z,active

A pose-log row stores the pose of the ``target`` frame expressed in the
``source`` frame (so source=S, target=EE is the robot's forward-kinematic
pose). Units are millimeters and seconds, dot decimal separator. A numpy
kernel writes each float as repr's bytes, so serialize -> parse is lossless;
the writer makes one kernel pass per block of rows holding _FIELD_BLOCK floats.

Both CSV logs are read alike. Lines end in LF, and a CR just before an LF is
ignored; blank and whitespace-only lines are skipped. A row is checked field
by field, left to right. A bad log raises a ParseError at the 1-based line of
its first error in file order. One bulk np.loadtxt reads a log whose rows pass
a vectorized test; a line scan reads any other log to the same rows, or raises.

A log of at least _SPLIT_MIN_ROWS rows is parsed and written in two
processes where ``os.fork`` exists and a second CPU is usable, whatever it is
read from or written to. The parser splits the bytes after the header at a
line start near their middle: each process decodes, splits and parses its own
range, and a forked child pickles its rows back. The writer writes the first
half of the rows while a forked child makes the bytes of the second half and
pickles them back, for this process to write after its own. The text and the
arrays are those of the one-process path. Errors are still found and reported
by this process: where the bulk parse fails, it decodes the whole log and
scans its lines.
"""

from __future__ import annotations

import array
import io
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

# logs of at least this many data rows are parsed and written in two
# processes (_in_two). On a 2 vCPU Xeon (Python 3.11, numpy 2.4), split time
# over one-process time, each the median of 15 alternating runs in one fresh
# process: at 20k trajectory rows parse 0.70-0.82 over 10 processes and write
# into a file 0.73-0.94 over 5, at 40k 0.64-0.90 and 0.67-0.95. In 5 earlier
# processes on the same shared host, the split parse lost at 20k (1.21-1.32).
_SPLIT_MIN_ROWS = 20_000

# a pose log stores each frame as its index in this tuple
_FRAMES = tuple(FrameId)
_FRAME_CODE = {f: k for k, f in enumerate(_FRAMES)}
_FRAME_CODE_BY_LABEL = {f.value: k for k, f in enumerate(_FRAMES)}
# a frame label and its comma as the writer lays out fields: NUL-padded bytes
_FRAME_FIELDS = np.array([f"{f.value}," for f in _FRAMES], dtype="S")
_FRAME_FIELDS = _FRAME_FIELDS.view(np.uint8).reshape(len(_FRAMES), -1)
# the active flag's field, by the flag
_FLAG_FIELDS = np.frombuffer(b"0,1,", np.uint8).reshape(2, 2)


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

    The bulk parse (_bulk_rows) reads the rows, and ``valid`` tests the whole
    array. Where the bulk parse gives no rows or the test is false, the whole
    log is decoded and ``scan`` reads its lines instead: it returns the same
    rows or raises the first error in file order.
    """
    rows = _bulk_rows(data, header, converters)
    if rows is not None and valid(rows):
        return rows
    lines = _decode(data).split("\n")
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", 1)
    return scan(lines)


def _bulk_rows(data: str | bytes, header: str, converters) -> np.ndarray | None:
    """The rows of one bulk ``np.loadtxt`` parse of the lines after the header;
    None where the first line is not ``header`` (whitespace aside), the lines
    are not valid UTF-8, or loadtxt rejects a line.

    A log of ``str`` is read as its UTF-8 bytes. Where the lines hold at least
    _SPLIT_MIN_ROWS line ends (_splits), they are split at the first line
    start at or after their middle, and each half is decoded, split and
    parsed in its own process (_in_two).
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")  # a lone surrogate fails the decode below
    start = data.find(b"\n") + 1 or len(data)
    if data[:start].strip() != header.encode("ascii"):
        return None
    width = header.count(",") + 1

    def load(lo: int, hi: int) -> np.ndarray | None:
        try:
            part = str(memoryview(data)[lo:hi], "utf-8")
        except UnicodeDecodeError:
            return None
        if not part or part.isspace():
            return np.empty((0, width))  # loadtxt would warn that there is no data
        lines = part.split("\n")
        del part  # the lines hold their own copy
        if not lines[-1]:
            lines.pop()  # the LF that ends the last line starts no row
        try:
            rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, converters=converters)
        except ValueError:
            return None
        return rows if rows.shape[1] == width else None

    end, line_ends = len(data), 0
    for stop in range(start, end, 1 << 20):  # a MiB at a time: a long log is not counted through
        line_ends += data.count(b"\n", stop, stop + (1 << 20))
        if line_ends >= _SPLIT_MIN_ROWS:
            break
    if _splits(line_ends):
        mid = data.find(b"\n", (start + end) // 2) + 1 or end
        halves = _in_two(lambda: load(start, mid), lambda: load(mid, end))
    else:
        halves = (load(start, end),)
    return None if any(half is None for half in halves) else np.concatenate(halves)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _splits(rows: int) -> bool:
    """Whether a log of ``rows`` rows is converted in two processes (_in_two):
    it holds at least _SPLIT_MIN_ROWS, ``os.fork`` exists and a second CPU is
    usable."""
    return rows >= _SPLIT_MIN_ROWS and hasattr(os, "fork") and _usable_cpus() >= 2


def _in_two(first, second) -> tuple:
    """``(first(), second())``, computed side by side: a forked child pickles
    ``second()`` into a pipe while this process computes ``first()``.

    Where no process can be forked, or the child sends no whole result, this
    process computes ``second()`` too, so the results and exceptions are
    those of calling both here. The child leaves by ``os._exit``, so it
    flushes none of the buffered files it shares with this process.
    ``second`` must call no BLAS, since a child forked beside BLAS threads
    may find their locks held.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory
        os.close(read_end)
        os.close(write_end)
        return first(), second()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pickle.dump(second(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    sent = ()
    try:
        # closing the read end, also when first() raises, lets a child blocked
        # on a full pipe fail its write and exit before the wait
        with open(read_end, "rb") as pipe:
            result = first()
            try:
                sent = (pickle.load(pipe),)
            except (EOFError, pickle.UnpicklingError):  # the child sent no whole result
                pass
    finally:
        _, status = os.waitpid(pid, 0)
    return result, sent[0] if status == 0 and sent else second()


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


def _scan_pose_lines(lines: list[str]) -> np.ndarray:
    """The (N, 10) rows of a pose log, read line by line; the first error in
    file order is raised. A row is the bulk parse's: frames as their codes,
    the quaternion as written."""
    rows, seen = array.array("d"), set()
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
        translation = [_parse_float(f, "translation component", lineno) for f in fields[7:]]
        norm = _norms(np.array(quat))
        if not QUAT_NORM_WINDOW[0] <= norm <= QUAT_NORM_WINDOW[1]:
            raise ParseError(f"quaternion norm {norm:.6g} outside {QUAT_NORM_WINDOW}", lineno)
        rows.extend((*key, *quat, *translation))
    return np.frombuffer(rows).reshape(-1, 10)


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


def serialize_pose_log(log: PoseLog, file=None) -> str | None:
    """Pose-log text of a PoseLog: returned, or written into ``file``, a
    binary file, at its position (see _write_csv)."""
    columns = (
        log.timestamps,
        _FRAME_FIELDS[log.sources],
        _FRAME_FIELDS[log.targets],
        *log.quats_wxyz.T,
        *log.translations.T,
    )
    return _write_csv(POSE_LOG_HEADER, columns, file)


def _trajectory_rows_valid(rows: np.ndarray) -> bool:
    t, active = rows[:, 0], rows[:, 4]
    return bool(
        np.isfinite(rows).all()
        and ((active == 0.0) | (active == 1.0)).all()
        and (t[1:] > t[:-1]).all()
    )


def _scan_trajectory_lines(lines: list[str]) -> np.ndarray:
    """The (N, 5) rows of a trajectory log, read line by line; the first
    error in file order is raised."""
    names = TRAJECTORY_LOG_HEADER.split(",")
    rows, previous = array.array("d"), -math.inf
    for lineno, fields in _data_fields(lines, 5):
        row = [_parse_float(f, name, lineno) for f, name in zip(fields, names)]
        t, active = row[0], row[4]
        if not t > previous:
            raise NonMonotoneTime(f"timestamp {t!r} does not increase past {previous!r}", lineno)
        if active not in (0.0, 1.0):
            raise ParseError(f"active flag must be 0 or 1, got {active}", lineno)
        rows.extend(row)
        previous = t
    return np.frombuffer(rows).reshape(-1, 5)


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


def serialize_trajectory_log(rec: TrajectoryRecording, file=None) -> str | None:
    """Trajectory-log text of a recording: returned, or written into
    ``file``, a binary file, at its position (see _write_csv)."""
    flags = _FLAG_FIELDS[rec.tool_active.view(np.uint8)]
    return _write_csv(TRAJECTORY_LOG_HEADER, (rec.timestamps, *rec.points.T, flags), file)


def _write_csv(header: str, columns, file=None) -> str | None:
    """CSV text of equal-length columns, made a block of rows at a time.

    A column is float64 values or an (N, width) uint8 array of field bytes
    that end in the field's comma, NUL-padded. A block holds _FIELD_BLOCK
    floats: one _field_words call lays out every float column of its rows.
    A row's fields side by side make one fixed-width byte row, whose last
    byte becomes the LF and whose NUL bytes one translate deletes.

    The bytes are written into the binary file ``file`` at its position, or,
    with no ``file``, returned as text. Where the log splits (_splits), this
    process writes the first half of the rows while a forked child makes the
    bytes of the second half and sends them back (_in_two); else this process
    writes each block as it is made.
    """
    floats = [col for col in columns if col.ndim == 1]
    width = sum(_FIELD_BYTES if col.ndim == 1 else col.shape[1] for col in columns)
    step = _FIELD_BLOCK // len(floats)

    def blocks(lo: int, hi: int):
        for start in range(lo, hi, step):
            rows = slice(start, min(start + step, hi))
            words = _field_words(np.stack([col[rows] for col in floats]).view(np.uint64).ravel())
            fields = iter(words.view(np.uint8).reshape(len(floats), -1, _FIELD_BYTES))
            buffer = bytearray((rows.stop - rows.start) * width)
            line = np.frombuffer(buffer, np.uint8).reshape(-1, width)
            pieces = [next(fields) if col.ndim == 1 else col[rows] for col in columns]
            np.concatenate(pieces, axis=1, out=line)
            line[:, -1] = ord("\n")
            yield buffer.translate(None, b"\0")

    n = len(columns[0])
    out = io.BytesIO() if file is None else file
    out.write(f"{header}\n".encode("ascii"))
    if _splits(n):
        h = n // 2
        _, rest = _in_two(lambda: out.writelines(blocks(0, h)), lambda: b"".join(blocks(h, n)))
        out.write(rest)
    else:
        out.writelines(blocks(0, n))
    return str(out.getbuffer(), "ascii") if file is None else None


# The float writer. Each float64 becomes the text repr gives it: the
# shortest decimal that reads back as the same float (the closest such, ties
# to an even last digit), positional from 1e-4 up to below 1e16, scientific
# outside. Its digits come from Schubfach (R. Giulietti, "The Schubfach way to
# render doubles", 2020), run on uint64 arrays with 128-bit products built
# from 32-bit limbs. Every operand of a uint64 operation is a uint64 array or
# an np.uint64 scalar, so that no numpy version promotes one to float64.

_U = np.uint64
_U32 = _U(32)
_U63 = _U(63)
_LOW32 = _U(2**32 - 1)
_LOW63 = _U(2**63 - 1)
_EXP_BITS = _U(0x7FF0_0000_0000_0000)  # a float with these all set is inf or nan

# the decimal exponents k of the scaled powers of ten 10^-k
_K_MIN, _K_MAX = -324, 292


def _pow10_table() -> np.ndarray:
    """(6, K) uint64 for k from _K_MIN to _K_MAX: g = floor(10^-k * 2^r) + 1,
    r such that 2^125 <= g < 2^126, as the low and high 32-bit limbs of
    g1 = g >> 63, those of g0 = g mod 2^63, then g1 and g0 whole."""
    g = [0] * (_K_MAX - _K_MIN + 1)
    five = 1  # 5^m: 10^m is 5^m times a power of two, 10^-m a power of two over 5^m
    for m in range(-_K_MIN + 1):
        b = five.bit_length()
        g[-m - _K_MIN] = (five << (126 - b) if b <= 126 else five >> (b - 126)) + 1
        if 0 < m <= _K_MAX:
            g[m - _K_MIN] = (1 << (125 + b)) // five + 1
        five *= 5
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & (2**63 - 1) for v in g], dtype=np.uint64)
    return np.stack([g1 & _LOW32, g1 >> _U32, g0 & _LOW32, g0 >> _U32, g1, g0])


_POW10_G = _pow10_table()


def _mul128(a_lo, a_hi, b_lo, b_hi) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of a * b, each given as 32-bit limbs."""
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ll >> _U32
    mid += lh & _LOW32
    mid += hl & _LOW32
    hi = a_hi * b_hi
    hi += lh >> _U32
    hi += hl >> _U32
    hi += mid >> _U32  # the carry out of the middle limbs
    mid <<= _U32
    ll &= _LOW32
    mid |= ll
    return hi, mid


def _round_to_odd(x1, y1, y0) -> np.ndarray:
    """Schubfach's rop(g, cp) from x1 = g0 * cp >> 64 and y1:y0 = g1 * cp:
    about g * cp / 2^127, truncated, its last bit set where that is inexact."""
    z = y0 >> _U(1)
    z += x1
    vb = y1 + (z >> _U63)
    z &= _LOW63
    z += _LOW63
    vb |= z >> _U63
    return vb


def _scaled_interval(k, cp, lower, upper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rop(g, cp), rop(g, cp - 2^lower) and rop(g, cp + 2^upper), g the power
    of ten of k. The bounds' products are cp's minus or plus g shifted, so
    only cp's product takes multiplications."""
    g = np.take(_POW10_G, k - _K_MIN, axis=1)
    cp_lo, cp_hi = cp & _LOW32, cp >> _U32
    y1, y0 = _mul128(g[0], g[1], cp_lo, cp_hi)
    x1, x0 = _mul128(g[2], g[3], cp_lo, cp_hi)
    g1, g0 = g[4:]
    # 128-bit differences and sums: a borrow leaves the low word above x0 or
    # y0, a carry below
    down, up = _U(64) - lower, _U(64) - upper
    xl, yl = x0 - (g0 << lower), y0 - (g1 << lower)
    vbl = _round_to_odd(x1 - (g0 >> down) - (xl > x0), y1 - (g1 >> down) - (yl > y0), yl)
    xu, yu = x0 + (g0 << upper), y0 + (g1 << upper)
    vbr = _round_to_odd(x1 + (g0 >> up) + (xu < x0), y1 + (g1 >> up) + (yu < y0), yu)
    return _round_to_odd(x1, y1, y0), vbl, vbr


def _shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k): f * 10^k is the shortest decimal that reads back as each float
    of ``bits`` (finite, nonzero, as uint64), the closest such, ties to even
    f; f may end in zeros. Schubfach's steps for all the floats at once, in
    its names: u = s * 10^k, w = (s + 1) * 10^k, u' and w' the multiples of
    10 * 10^k at or below and above."""
    exponent = (bits >> _U(52)) & _U(0x7FF)
    c = bits & _U(2**52 - 1)
    # at a power of two above the least normal the gap below is half the gap above
    irregular = (c == _U(0)) & (exponent > _U(1))
    normal = exponent != _U(0)
    c |= normal.astype(np.uint64) << _U(52)
    q = exponent.view(np.int64) + ~normal - 1075  # the float is c * 2^q
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).view(np.uint64)
    # 4 * c * 2^q / 10^k and the bounds of the float's rounding interval, rounded to odd
    vb, vbl, vbr = _scaled_interval(k, c << (h + _U(2)), h + _U(1) - irregular, h + _U(1))
    inclusive = c & _U(1)  # an even c rounds its interval's bounds to itself
    vbl += inclusive
    vbr -= inclusive
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    u10_in = vbl <= s10 << _U(2)
    w10_in = (s10 << _U(2)) + _U(40) <= vbr
    s4 = s << _U(2)
    u_in, w_in = vbl <= s4, s4 + _U(4) <= vbr
    mid = s4 + _U(2)
    w_closer = (vb > mid) | ((vb == mid) & (s & _U(1)).astype(bool))
    # the one of u and w inside, or where both are, the closer; but the one
    # of u' and w' inside where just one is, having a digit fewer
    f = s + np.where(u_in != w_in, w_in, w_closer)
    f += (u10_in != w10_in) * (s10 + (~u10_in) * _U(10) - f)
    return f, k


# A float's field is 48 bytes, six 8-byte words from _FIELD_WORDS:
#   0       the sign, "-" or NUL
#   1-5     "0.000": "0." before a value below 1, and up to three zeros after it
#   6-39    the 17 significant digits, each followed by "."
#   40-44   "e", the exponent's sign and digits (the hundreds NUL below 100)
#   45-47   NUL, NUL, the comma after the field
# ANDed with one of _LAYOUT_MASKS, it keeps the bytes of repr's text.
_FIELD_BYTES = 48
_DIGIT_CHARS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
# the word table: the first words (sign and first digit, 20), 4-digit groups
# (10,000) and the exponents (-324 to 308); a field's index into each part
_WORD_OFFSETS = np.array([0, 20, 20, 20, 20, 10_020 + 324])
# the places d of the decimal point in positional text (the value is 0.d1d2... * 10^d)
_D_MIN, _D_MAX = -3, 16
# floats per kernel pass, which bounds the temporaries alive at once. On a
# 2 vCPU Xeon (numpy 2.4), at 16,384 every 128 KiB temporary was freshly
# page-faulted (0.069 faults per value), and a pass took about 2x as long.
_FIELD_BLOCK = 8192


def _words(rows) -> np.ndarray:
    """Rows of bytes as uint64 words."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)


def _field_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The word table, the trailing zeros of each 4-digit group, and the
    layout masks: row (d - _D_MIN) * 17 + n - 1 for positional text with n
    significant digits, row 340 + n - 1 for scientific text."""
    first = np.tile(np.frombuffer(b"\x000.000\x00.", np.uint8), (20, 1))
    first[10:, 0] = ord("-")
    first[:, 6] = np.tile(_DIGIT_CHARS, 2)
    group = np.arange(10_000, dtype=np.uint16)
    groups = np.full((10_000, 8), ord("."), np.uint8)
    for i, place in enumerate((1000, 100, 10, 1)):
        groups[:, 2 * i] = _DIGIT_CHARS[group // place % 10]
    e = abs(np.arange(-324, 309))
    exponents = np.zeros((len(e), 8), np.uint8)
    exponents[:, :2] = np.frombuffer(b"e-", np.uint8)
    exponents[324:, 1] = ord("+")
    exponents[:, 2] = np.where(e >= 100, _DIGIT_CHARS[e // 100], 0)
    exponents[:, 3] = _DIGIT_CHARS[e // 10 % 10]
    exponents[:, 4] = _DIGIT_CHARS[e % 10]
    exponents[:, 7] = ord(",")
    words = np.concatenate([_words(first), _words(groups), _words(exponents)])[:, 0]
    trailing_zeros = sum((group % place == 0).view(np.uint8) for place in (10, 100, 1000, 10_000))

    n = np.tile(np.arange(1, 18), _D_MAX - _D_MIN + 2)[:, None]
    d = np.repeat(np.arange(_D_MIN, _D_MAX + 2), 17)[:, None]  # _D_MAX + 1: scientific
    positional, j = d <= _D_MAX, np.arange(1, 18)
    keep = np.zeros((len(d), _FIELD_BYTES), bool)
    keep[:, [0, -1]] = True
    keep[:, 1:3] = positional & (d <= 0)
    keep[:, 3:6] = positional & (np.arange(1, 4) <= -d)
    # positional text shows every digit up to the point and one after it
    keep[:, 6:40:2] = j <= np.where(positional, np.maximum(n, d + 1), n)
    keep[:, 7:40:2] = np.where(positional, j == d, (j == 1) & (n > 1))
    keep[:, 40:45] = ~positional
    return words, trailing_zeros, _words(keep.view(np.uint8) * np.uint8(0xFF))


_FIELD_WORDS, _GROUP_TRAILING_ZEROS, _LAYOUT_MASKS = _field_tables()
# the fields of nan (whatever its sign and payload), inf and -inf
_NON_FINITE_WORDS = _words(
    [list(f"{x},".rjust(_FIELD_BYTES, "\0").encode()) for x in ("nan", "inf", "-inf")]
)


def _field_words(bits: np.ndarray) -> np.ndarray:
    """(N, 6) uint64: the field of each float64 of ``bits`` (its uint64
    view), its repr and a comma, NUL-padded (see the layout above)."""
    magnitude = bits & _LOW63
    finite_nonzero = (magnitude != _U(0)) & (magnitude < _EXP_BITS)
    f, k = _shortest_decimal(bits)
    f *= finite_nonzero  # a zero has the digits 0; nan and inf are written below
    # the digit count of f: a bit length b gives floor(log10(2^b)) digits or one more
    t = (np.frexp(f.astype(np.float64))[1] * 1233) >> 12
    digits = t + (f >= np.take(_POW10, t))
    point = np.where(finite_nonzero, k + digits, 1)
    # the 17 digits of f left-aligned: the first, then four groups of 4
    f *= np.take(_POW10, 17 - digits)
    first = f // _U(10**16)
    rest = f - first * _U(10**16)
    high = rest // _U(10**8)
    rest -= high * _U(10**8)
    groups = np.stack([high // _U(10**4), high, rest // _U(10**4), rest]).view(np.int64)
    groups[1::2] -= groups[::2] * 10**4
    z = np.take(_GROUP_TRAILING_ZEROS, groups)
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    scientific = (point < _D_MIN) | (point > _D_MAX)
    # n - 1 = 16 - zeros for n significant digits
    layout = np.where(scientific, 340, (point - _D_MIN) * 17) + 16 - zeros
    first += (bits >> _U63) * _U(10)
    index = np.stack([first.view(np.int64), *groups, point - 1], axis=1)
    index += _WORD_OFFSETS
    words = np.take(_FIELD_WORDS, index)
    words &= np.take(_LAYOUT_MASKS, layout, axis=0)
    non_finite = np.flatnonzero(magnitude >= _EXP_BITS)
    if len(non_finite):
        sign = (bits[non_finite] >> _U63).view(np.int64)
        nan = magnitude[non_finite] > _EXP_BITS
        words[non_finite] = _NON_FINITE_WORDS[np.where(nan, 0, 1 + sign)]
    return words


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
