import json
import math
import os
import signal
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_transforms_close
from cutcal.errors import CutcalError, FrameError, NonMonotoneTime, ParseError
from cutcal.geometry import FrameId, RigidTransform, quat_from_rotation, rotation_from_quat
from cutcal import logio
from cutcal.logio import (
    _SPLIT_MIN_ROWS,
    _WRITE_CHUNK_ROWS,
    _in_halves,
    _parse_float,
    MAX_BIN_COUNT,
    POSE_LOG_HEADER,
    TRAJECTORY_LOG_HEADER,
    AnalysisOptions,
    PlanFile,
    PoseLog,
    parse_plan,
    parse_pose_log,
    parse_trajectory_log,
    serialize_plan,
    serialize_pose_log,
    serialize_trajectory_log,
)
from cutcal.metrics import GatePolicy, PlannedCut, TrajectoryRecording
from cutcal.planner import PassPolicy
from cutcal.simrig import random_rotation


def random_pose_log(rng, n) -> PoseLog:
    """n rows of random frames and poses, stamped 0, 1, ..."""
    return PoseLog(
        np.arange(n, dtype=np.float64),
        rng.integers(len(FrameId), size=n),
        rng.integers(len(FrameId), size=n),
        quat_from_rotation(np.array([random_rotation(rng) for _ in range(n)])),
        rng.uniform(-100.0, 100.0, (n, 3)),
    )


def assert_pose_logs_equal(a: PoseLog, b: PoseLog):
    """Same rows, bit for bit."""
    for name in ("timestamps", "sources", "targets", "quats_wxyz", "translations"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def random_recording(rng, n=None) -> TrajectoryRecording:
    n = n or int(rng.integers(2, 30))
    return TrajectoryRecording(
        np.cumsum(rng.uniform(0.01, 0.5, n)),
        rng.normal(0, 100, (n, 3)),
        rng.integers(0, 2, n).astype(bool),
    )


def row_by_row_trajectory_log(rec: TrajectoryRecording) -> str:
    """The trajectory-log writer as a per-row f-string loop (the reference)."""
    lines = [TRAJECTORY_LOG_HEADER]
    for t, p, a in zip(rec.timestamps.tolist(), rec.points.tolist(), rec.tool_active.tolist()):
        lines.append(f"{t!r},{p[0]!r},{p[1]!r},{p[2]!r},{int(a)}")
    return "\n".join(lines) + "\n"


def random_plan_file(rng) -> PlanFile:
    r = random_rotation(rng)
    target = float(rng.uniform(1.0, 12.0))
    plan = PlannedCut(
        entry_point=rng.uniform(-100, 100, 3),
        direction=r[:, 0],
        depth_axis=r[:, 2],
        length_mm=float(rng.uniform(20.0, 150.0)),
        target_depth_mm=target,
        cutting_speed_mm_s=float(rng.uniform(0.5, 5.0)),
    )
    policy = PassPolicy(
        depth_increment_mm=float(rng.uniform(0.3, 1.0)) * target,
        insertion_speed_mm_s=float(rng.uniform(0.5, 4.0)),
    )
    analysis = AnalysisOptions(
        bin_count=int(rng.integers(1, 200)),
        gate=GatePolicy(active_only=bool(rng.integers(2)), s_margin_mm=float(rng.uniform(0, 5))),
        lateral_mode="lateral" if rng.integers(2) else "line3d",
    )
    return PlanFile(plan, policy, analysis)


class TestPoseLog:
    def test_header_only_gives_empty_list(self):
        assert len(parse_pose_log(POSE_LOG_HEADER + "\n")) == 0

    def test_identity_quaternion_row(self):
        text = POSE_LOG_HEADER + "\n0.5,S,EE,1,0,0,0,0,0,0\n"
        log = parse_pose_log(text)
        assert len(log) == 1 and log.rows_of(FrameId.S, FrameId.EE).tolist() == [0]
        assert_transforms_close(log.poses(0), RigidTransform.identity(), atol=1e-12)

    def test_quaternion_norm_half_rejected(self):
        text = POSE_LOG_HEADER + "\n0,S,EE,0.5,0,0,0,0,0,0\n"
        with pytest.raises(ParseError) as exc:
            parse_pose_log(text)
        assert exc.value.line == 2

    @pytest.mark.filterwarnings("error")
    def test_huge_quaternion_component_is_a_parse_error_without_a_warning(self):
        # its squared norm overflows to inf
        text = POSE_LOG_HEADER + "\n0,S,EE,1e200,0,0,0,0,0,0\n"
        with pytest.raises(ParseError, match="line 2: quaternion norm inf"):
            parse_pose_log(text)

    def test_quaternion_norm_within_window_renormalized(self):
        q = np.array([1.0, 0.0, 0.0, 0.0]) * 1.0005
        text = POSE_LOG_HEADER + f"\n0,S,EE,{q[0]},{q[1]},{q[2]},{q[3]},1,2,3\n"
        log = parse_pose_log(text)
        assert abs(np.linalg.norm(log.quats_wxyz[0]) - 1.0) < 1e-12

    def test_unknown_frame_label(self):
        text = POSE_LOG_HEADER + "\n0,S,Banana,1,0,0,0,0,0,0\n"
        with pytest.raises(FrameError) as exc:
            parse_pose_log(text)
        assert exc.value.line == 2

    def test_bad_float_reports_line(self):
        # "1_0" and non-ASCII digits are numbers to float() but not to np.loadtxt
        bad_rows = ["1,S,EE,1,0,oops,0,0,0,0"]
        bad_rows += [f"1,S,EE,1,0,0,0,{token},0,0" for token in ("1_0", "\u0661", "\uff11")]
        for row in bad_rows:
            text = POSE_LOG_HEADER + f"\n0,S,EE,1,0,0,0,0,0,0\n{row}\n"
            with pytest.raises(ParseError) as exc:
                parse_pose_log(text)
            assert exc.value.line == 3

    def test_duplicate_row_reports_line(self):
        rows = ["0,S,EE,1,0,0,0,0,0,0", "0,OT,Tool,1,0,0,0,0,0,0", "0.0,S,EE,1,0,0,0,1,2,3"]
        text = "\n".join([POSE_LOG_HEADER, *rows]) + "\n"
        with pytest.raises(ParseError) as exc:
            parse_pose_log(text)
        assert exc.value.line == 4
        assert "duplicate S,EE row at timestamp 0.0" in str(exc.value)

    def test_wrong_field_count(self):
        text = POSE_LOG_HEADER + "\n0,S,EE,1,0,0,0\n"
        with pytest.raises(ParseError) as exc:
            parse_pose_log(text)
        assert exc.value.line == 2

    def test_wrong_header(self):
        with pytest.raises(ParseError) as exc:
            parse_pose_log("time,stuff\n")
        assert exc.value.line == 1

    def test_bytes_input_accepted(self):
        assert len(parse_pose_log((POSE_LOG_HEADER + "\n").encode())) == 0

    def test_serialize_parse_roundtrip_fuzz(self, rng):
        for _ in range(300):
            log = random_pose_log(rng, int(rng.integers(1, 6)))
            assert_pose_logs_equal(parse_pose_log(serialize_pose_log(log)), log)


PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def recordings(draw) -> TrajectoryRecording:
    """Valid recordings: any distinct finite timestamps in order, any finite
    points (-0.0 and subnormals included) and any flags."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    timestamps = sorted(draw(st.lists(finite, min_size=2, max_size=30, unique=True)))
    n = len(timestamps)
    points = draw(st.lists(st.tuples(finite, finite, finite), min_size=n, max_size=n))
    return TrajectoryRecording(
        timestamps, points, draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )


# A pose-log row as the references below write and read it:
# (timestamp, source FrameId, target FrameId, quaternion (4,), translation (3,)).


def pose_log_of(rows) -> PoseLog:
    frames = list(FrameId)
    return PoseLog(
        np.array([r[0] for r in rows], dtype=np.float64),
        np.array([frames.index(r[1]) for r in rows]),
        np.array([frames.index(r[2]) for r in rows]),
        np.array([r[3] for r in rows], dtype=np.float64),
        np.array([r[4] for r in rows], dtype=np.float64),
    )


def rows_of_log(log: PoseLog) -> list[tuple]:
    frames = list(FrameId)
    return [
        (t, frames[s], frames[g], q, p)
        for t, s, g, q, p in zip(
            log.timestamps.tolist(), log.sources, log.targets, log.quats_wxyz, log.translations
        )
    ]


def row_by_row_pose_log(rows) -> str:
    """The pose-log writer as a per-row f-string loop (the reference)."""
    out = [POSE_LOG_HEADER]
    for timestamp, source, target, quat, translation in rows:
        q = ",".join(repr(float(v)) for v in quat)
        t = ",".join(repr(float(v)) for v in translation)
        out.append(f"{float(timestamp)!r},{source},{target},{q},{t}")
    return "\n".join(out) + "\n"


def per_row_pose_log(text: str) -> list[tuple]:
    """The pose-log parser one row at a time, every check in file order (the reference)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != POSE_LOG_HEADER:
        raise ParseError(f"expected header {POSE_LOG_HEADER!r}", 1)
    frames = {f.value: f for f in FrameId}

    def number(field, what, line):
        if "_" in field or not field.strip().isascii():
            raise ParseError(f"bad {what}: {field!r}", line)
        try:
            value = float(field)
        except ValueError:
            raise ParseError(f"bad {what}: {field!r}", line) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite {what}: {field!r}", line)
        return value

    def frame(label, line):
        if label not in frames:
            raise FrameError(f"unknown frame label {label!r}", line)
        return frames[label]

    rows, seen = [], set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 10:
            raise ParseError(f"expected 10 fields, got {len(fields)}", lineno)
        timestamp = number(fields[0], "timestamp", lineno)
        source, target = frame(fields[1].strip(), lineno), frame(fields[2].strip(), lineno)
        if (timestamp, source, target) in seen:
            raise ParseError(f"duplicate {source},{target} row at timestamp {timestamp!r}", lineno)
        seen.add((timestamp, source, target))
        quat = np.array([number(f, "quaternion component", lineno) for f in fields[3:7]])
        trans = np.array([number(f, "translation component", lineno) for f in fields[7:10]])
        norm = float(np.linalg.norm(quat))
        if not (0.999 <= norm <= 1.001):
            raise ParseError(f"quaternion norm {norm:.6g} outside (0.999, 1.001)", lineno)
        if abs(norm - 1.0) > 1e-12:
            quat = quat / norm
        rows.append((timestamp, source, target, quat, trans))
    return rows


def outcome(parse, text):
    """What a parser makes of a text: its rows as plain values, or its error."""
    try:
        rows = parse(text)
    except CutcalError as e:
        return type(e), getattr(e, "line", None), str(e)
    if isinstance(rows, PoseLog):
        rows = rows_of_log(rows)
    return [(t, s, g, q.tobytes(), p.tobytes()) for t, s, g, q, p in rows]


finite = st.floats(allow_nan=False, allow_infinity=False)


def pose_rows(min_size=0):
    """Lists of pose-log rows with unit quaternions and distinct keys."""
    return st.lists(
        st.tuples(
            finite,
            st.sampled_from(list(FrameId)),
            st.sampled_from(list(FrameId)),
            st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
            st.tuples(finite, finite, finite),
        ),
        min_size=min_size,
        max_size=30,
        unique_by=lambda row: row[:3],
    ).map(
        lambda rows: [
            (t, s, g, np.array(q) / np.linalg.norm(q), np.array(p)) for t, s, g, q, p in rows
        ]
    )

# field replacements that break a row in each way the parser checks
BAD_TOKENS = ["x", "", "1_0", "\u0661", "nan", "-inf", "1e400", " 0.25 ", "0.5", "2", "0",
              "Banana", "S", "OT", "Tool", "1,2"]


class TestStackedPoseLog:
    @PROPERTY
    @given(pose_rows())
    def test_serialize_parse_is_exact_and_matches_the_row_writer(self, rows):
        text = row_by_row_pose_log(rows)
        log = pose_log_of(rows)
        assert serialize_pose_log(log) == text
        parsed = parse_pose_log(text)
        assert len(parsed) == len(rows)
        assert_pose_logs_equal(parsed, log)
        assert serialize_pose_log(parsed) == text

    @PROPERTY
    @given(
        pose_rows(min_size=3),
        st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 9), st.sampled_from(BAD_TOKENS)),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_errors_and_rows_equal_the_per_row_parser(self, rows, edits, blank_line):
        lines = row_by_row_pose_log(rows).splitlines()
        for row, field, token in edits:
            k = 1 + row % len(rows)
            fields = lines[k].split(",")
            fields[field] = token
            lines[k] = ",".join(fields)
        if blank_line:
            lines.insert(1 + len(rows) // 2, "  ")
        text = "\n".join(lines) + "\n"
        assert outcome(parse_pose_log, text) == outcome(per_row_pose_log, text)

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,S,EE,2,0,0,0,0,0,0", "1,S,EE,x,0,0,0,0,0,0"],  # bad norm, then bad number
            ["0,S,EE,0,0,0,0,0,0,0", "1,S,Nope,1,0,0,0,0,0,0"],  # then unknown frame
            ["0,S,EE,2,0,0,0,0,0,0", "0,S,EE,1,0,0,0,0,0,0"],  # then duplicate
            ["0,S,EE,1,0,0,0,0,0,0", "0,S,EE,x,0,0,0,0,0,0"],  # duplicate before bad number
            ["0,S,EE,1,0,0,0,0,0,0", "1,S,EE,0.5,0,0,0,x,0,0"],  # bad number before bad norm
        ],
    )
    def test_first_error_in_file_order_wins(self, rows):
        text = "\n".join([POSE_LOG_HEADER, *rows]) + "\n"
        expected = outcome(per_row_pose_log, text)
        assert isinstance(expected, tuple) and outcome(parse_pose_log, text) == expected

    def test_rows_are_views_of_the_stack(self):
        text = POSE_LOG_HEADER + "\n0,S,EE,1,0,0,0,1,2,3\n1.5,OT,Tool,0,1,0,0,4,5,6\n"
        log = parse_pose_log(text)
        assert len(log) == 2 and log.rows_of(FrameId.OT, FrameId.TOOL).tolist() == [1]
        timestamp, source, target, quat, translation = rows_of_log(log)[1]
        assert (timestamp, source, target) == (1.5, FrameId.OT, FrameId.TOOL)
        assert translation.tolist() == [4.0, 5.0, 6.0]
        assert_transforms_close(
            log.poses([0, 1])[1], RigidTransform(rotation_from_quat(quat), translation)
        )


def per_row_trajectory_log(text: str) -> list[tuple]:
    """The trajectory-log parser one row at a time, every check in file order (the reference)."""
    lines = text.split("\n")
    if lines[0].strip() != TRAJECTORY_LOG_HEADER:
        raise ParseError(f"expected header {TRAJECTORY_LOG_HEADER!r}", 1)

    def number(field, what, line):
        text = field.strip()
        if "_" in text or not text.isascii():
            raise ParseError(f"bad {what}: {field!r}", line)
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"bad {what}: {field!r}", line) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite {what}: {field!r}", line)
        return value

    names = ("timestamp", "x", "y", "z", "active")
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.endswith("\r"):
            raw = raw[:-1]
        if not raw.strip():
            continue
        if "\r" in raw:
            raise ParseError("carriage return inside a line", lineno)
        fields = raw.split(",")
        if len(fields) != 5:
            raise ParseError(f"expected 5 fields, got {len(fields)}", lineno)
        t, x, y, z, active = [number(f, name, lineno) for f, name in zip(fields, names)]
        if rows and not t > rows[-1][0]:
            raise NonMonotoneTime(f"timestamp {t!r} does not increase past {rows[-1][0]!r}", lineno)
        if active not in (0.0, 1.0):
            raise ParseError(f"active flag must be 0 or 1, got {active}", lineno)
        rows.append((t, (x, y, z), active == 1.0))
    if len(rows) < 2:
        raise ParseError("a trajectory needs at least 2 samples")
    return rows


def trajectory_outcome(parse, text):
    """What a trajectory parser makes of a text: its rows, bit for bit, or its error."""
    try:
        rows = parse(text)
    except CutcalError as e:
        return type(e), getattr(e, "line", None), str(e)
    if isinstance(rows, TrajectoryRecording):
        rows = zip(rows.timestamps.tolist(), rows.points.tolist(), rows.tool_active.tolist())
    return [(np.array([t, *p]).tobytes(), a) for t, p, a in rows]


# field replacements that break a trajectory row in each way the parser
# checks; None repeats the timestamp of the row before
TRAJECTORY_BAD_TOKENS = ["2", "nan", None, "x", "", "1_0", "\u0661", "-inf", "1e400", " 1 ",
                         "0", "-1", "0.5", "1,2", "\x0c", "1\x1f", "\r", "\u2028", "# c"]


class TestTrajectoryLogErrors:
    @PROPERTY
    @given(
        recordings(),
        st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 4), st.sampled_from(TRAJECTORY_BAD_TOKENS)),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([None, "", "  ", "\x0c", "\t\r"]),
    )
    @example(
        TrajectoryRecording(np.arange(12.0), np.zeros((12, 3)), np.ones(12, dtype=bool)),
        [(1, 4, "2"), (8, 0, "x")],  # a bad flag on line 3, garbage on line 10
        None,
    )
    def test_errors_and_rows_equal_the_per_row_parser(self, rec, edits, blank_line):
        lines = row_by_row_trajectory_log(rec).splitlines()
        for row, field, token in edits:
            k = 1 + row % len(rec)
            fields = lines[k].split(",")
            fields[field] = lines[k - 1].split(",")[0] if token is None else token
            lines[k] = ",".join(fields)
        if blank_line is not None:
            lines.insert(1 + len(rec) // 2, blank_line)
        text = "\n".join(lines) + "\n"
        assert trajectory_outcome(parse_trajectory_log, text) == trajectory_outcome(
            per_row_trajectory_log, text
        )


# text of one numeric field: digits, signs, points, exponents, digit
# separators, whitespace, control characters and non-ASCII digits; CR and LF
# end a line, so they are not field text
FIELD_TEXT = st.text(
    st.sampled_from("0123456789+-.eE_")
    | st.characters(categories=("Zs", "Zl", "Zp", "Cc", "Nd"), exclude_characters="\r\n"),
    max_size=6,
)

# (parser, log text with {} for the field, the field's parsed value); any
# finite value there leaves the log valid, and line 3 is a good row
FIELD_SLOTS = [
    (parse_pose_log, POSE_LOG_HEADER + "\n{},S,EE,1,0,0,0,1,2,3\n0,OT,Tool,1,0,0,0,4,5,6\n",
     lambda log: log.timestamps[0]),
    (parse_pose_log, POSE_LOG_HEADER + "\n0,S,EE,1,0,0,0,1,{},3\n0,OT,Tool,1,0,0,0,4,5,6\n",
     lambda log: log.translations[0, 1]),
    (parse_pose_log, POSE_LOG_HEADER + "\n0,S,EE,1,0,0,0,1,2,{}\n0,OT,Tool,1,0,0,0,4,5,6\n",
     lambda log: log.translations[0, 2]),
    (parse_trajectory_log, TRAJECTORY_LOG_HEADER + "\n0,{},2,3,1\n1,4,5,6,0\n",
     lambda rec: rec.points[0, 0]),
    (parse_trajectory_log, TRAJECTORY_LOG_HEADER + "\n0,1,2,{},1\n1,4,5,6,0\n",
     lambda rec: rec.points[0, 2]),
]


class TestFieldText:
    @PROPERTY
    @given(FIELD_TEXT, st.sampled_from(FIELD_SLOTS), st.booleans())
    @example("1\x1f", FIELD_SLOTS[3], True)
    @example("\x1c-0", FIELD_SLOTS[2], False)
    def test_a_log_parses_exactly_when_parse_float_accepts_the_field(self, text, slot, broken):
        # the bulk parse and the line scan must agree, so a later malformed
        # line cannot change what a field means
        parse, template, field_value = slot
        log = template.format(text) + ("oops\n" if broken else "")
        try:
            value = _parse_float(text, "field", 2)
        except ParseError:
            value = None
        if value is None or broken:
            with pytest.raises(ParseError) as exc:
                parse(log)
            assert exc.value.line == (2 if value is None else 4)
        else:
            assert field_value(parse(log)).tobytes() == np.float64(value).tobytes()


# characters str.splitlines() breaks lines at and LF-only line counting does not
SPLITLINES_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", SPLITLINES_BREAKS)
@pytest.mark.parametrize(
    "parse, rows",
    [
        (parse_trajectory_log, [TRAJECTORY_LOG_HEADER, "0.0,0,0,0,1", "0.1,0,0,0,1", "0.2,0,0,0,1",
                                "0.3,0,0,0,2"]),
        (parse_pose_log, [POSE_LOG_HEADER, "0,S,EE,1,0,0,0,0,0,0", "1,S,EE,1,0,0,0,0,0,0",
                          "2,S,EE,1,0,0,0,0,0,0", "3,S,EE,2,0,0,0,0,0,0"]),
    ],
    ids=["trajectory", "pose"],
)
@pytest.mark.parametrize("where", ["alone", "ending"])
def test_error_line_is_the_lf_line(parse, rows, char, where):
    # line 5 holds the error; line 3 is the character alone or ends in it
    rows = list(rows)
    rows[2] = char if where == "alone" else rows[2] + char
    with pytest.raises(ParseError) as exc:
        parse("\n".join(rows) + "\n")
    assert exc.value.line == 5


@pytest.mark.parametrize(
    "parse, rows",
    [
        (parse_trajectory_log, [TRAJECTORY_LOG_HEADER, "0.0,1,2,3,1", "0.1,4,5,6,0"]),
        (parse_pose_log, [POSE_LOG_HEADER, "0,S,EE,1,0,0,0,1,2,3", "1,OT,Tool,1,0,0,0,4,5,6"]),
    ],
    ids=["trajectory", "pose"],
)
def test_a_carriage_return_only_ends_a_line(parse, rows):
    lf = parse("\n".join(rows) + "\n")
    crlf = parse("\r\n".join(rows) + "\r\n")
    for name in vars(lf):
        assert getattr(lf, name).tobytes() == getattr(crlf, name).tobytes(), name
    with pytest.raises(ParseError) as exc:  # a bare-CR file is one line
        parse("\r".join(rows) + "\r")
    assert exc.value.line == 1
    for bad in (rows[2].replace(",", "\r,", 1), rows[2] + "\r "):
        with pytest.raises(ParseError) as exc:
            parse("\n".join([*rows, bad]) + "\n")
        assert exc.value.line == 4 and "carriage return" in str(exc.value)


class TestTrajectoryLog:
    def test_two_rows_parse(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,1.0,2.0,3.0,1\n0.1,1.5,2.0,3.0,0\n"
        rec = parse_trajectory_log(text)
        assert len(rec) == 2
        assert rec.tool_active.tolist() == [True, False]

    def test_decreasing_timestamps(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,0,0,0,1\n0.2,0,0,0,1\n0.1,0,0,0,1\n"
        with pytest.raises(NonMonotoneTime) as exc:
            parse_trajectory_log(text)
        assert exc.value.line == 4

    def test_malformed_row_reports_line(self):
        for token in ("nope", "1_0", "\u0661", "\uff11"):
            text = TRAJECTORY_LOG_HEADER + f"\n0.0,0,0,0,1\n{token},0,0,0,1\n"
            with pytest.raises(ParseError) as exc:
                parse_trajectory_log(text)
            assert exc.value.line == 3

    def test_wrong_column_count_reports_line(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,0,0,0,1\n0.1,0,0,1\n"
        with pytest.raises(ParseError) as exc:
            parse_trajectory_log(text)
        assert exc.value.line == 3

    def test_active_flag_must_be_binary(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,0,0,0,1\n0.1,0,0,0,2\n"
        with pytest.raises(ParseError) as exc:
            parse_trajectory_log(text)
        assert exc.value.line == 3

    def test_single_row_rejected(self):
        with pytest.raises(ParseError):
            parse_trajectory_log(TRAJECTORY_LOG_HEADER + "\n0.0,0,0,0,1\n")

    def test_header_only_rejected(self):
        with pytest.raises(ParseError):
            parse_trajectory_log(TRAJECTORY_LOG_HEADER + "\n")

    @PROPERTY
    @given(recordings())
    @example(
        TrajectoryRecording(
            [-0.0, 5e-324, 1e16],
            [[-0.0, 5e-324, 1e16], [-5e-324, 2.2250738585072014e-308, -1e16], [0.0, 1e-05, 1.5]],
            [True, False, True],
        )
    )
    def test_serialize_parse_roundtrip_fuzz(self, rec):
        parsed = parse_trajectory_log(serialize_trajectory_log(rec))
        for got, want in ((parsed.timestamps, rec.timestamps), (parsed.points, rec.points)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(parsed.tool_active, rec.tool_active)

    @pytest.mark.parametrize(
        "n",
        [2, _WRITE_CHUNK_ROWS - 1, _WRITE_CHUNK_ROWS, _WRITE_CHUNK_ROWS + 1,
         2 * _WRITE_CHUNK_ROWS + 3],
    )
    def test_serialize_equals_row_by_row_writer(self, rng, n):
        special = [-0.0, 5e-324, 1e-05, 1e16, 2.0**53 + 2, 123456789.123]
        points = rng.normal(0, 100, (n, 3))
        points.flat[: len(special)] = special
        points[-1] = special[-3:]
        steps = rng.uniform(0.01, 0.5, n - 2)
        timestamps = np.concatenate([[-0.0, 5e-324], 1e-05 + np.cumsum(steps)])
        rec = TrajectoryRecording(timestamps, points, rng.integers(0, 2, n).astype(bool))
        text = serialize_trajectory_log(rec)
        assert text == row_by_row_trajectory_log(rec)
        parsed = parse_trajectory_log(text)
        for got, want in ((parsed.timestamps, rec.timestamps), (parsed.points, rec.points)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(parsed.tool_active, rec.tool_active)

    def test_comment_text_is_a_malformed_row(self):
        for row in ("0.1,0,0,0,1 # x", "# note"):
            text = TRAJECTORY_LOG_HEADER + f"\n0.0,0,0,0,1\n{row}\n0.2,0,0,0,1\n"
            with pytest.raises(ParseError) as exc:
                parse_trajectory_log(text)
            assert exc.value.line == 3, row

    def test_bad_active_flag_after_blank_lines_reports_file_line(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,0,0,0,1\n\n\n0.1,0,0,0,2\n"
        with pytest.raises(ParseError) as exc:
            parse_trajectory_log(text)
        assert exc.value.line == 5

    def test_repeated_timestamp_after_blank_lines_reports_file_line(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,0,0,0,1\n\n\n0.0,0,0,0,1\n"
        with pytest.raises(NonMonotoneTime) as exc:
            parse_trajectory_log(text)
        assert exc.value.line == 5
        assert "timestamp 0.0 does not increase past 0.0" in str(exc.value)

    def test_whitespace_only_lines_are_skipped(self):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,1,2,3,1\n   \n\t\n\n0.1,4,5,6,0\n  \n"
        rec = parse_trajectory_log(text)
        assert rec.timestamps.tolist() == [0.0, 0.1]
        assert rec.points.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert rec.tool_active.tolist() == [True, False]

    def test_million_row_throughput(self, rng):
        # best of 3: one wall-clock sample on a shared CPU times the host's
        # load as much as the parser
        rec = random_recording(rng, n=1_000_000)
        text = serialize_trajectory_log(rec)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parsed = parse_trajectory_log(text)
            times.append(time.perf_counter() - start)
            np.testing.assert_array_equal(parsed.timestamps, rec.timestamps)
            np.testing.assert_array_equal(parsed.points, rec.points)
            np.testing.assert_array_equal(parsed.tool_active, rec.tool_active)
        assert min(times) < 2.0, "parse took " + ", ".join(f"{t:.2f}s" for t in times)


class TestSplitConversion:
    """Logs of at least _SPLIT_MIN_ROWS rows are written and parsed half in a
    forked child; the results must be those of the one-process path."""

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        """The pids forked during a test, which must all have been reaped."""
        pids = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(logio, "_usable_cpus", lambda: 2)
        yield pids
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def inline(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(logio, "_usable_cpus", lambda: 1)
            return fn(*args)

    @staticmethod
    def assert_recordings_equal(a: TrajectoryRecording, b: TrajectoryRecording):
        for name in ("timestamps", "points", "tool_active"):
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [_SPLIT_MIN_ROWS - 1, _SPLIT_MIN_ROWS, _SPLIT_MIN_ROWS + 1])
    def test_trajectory_text_and_rows_equal_the_inline_path(self, rng, monkeypatch, forks, n):
        rec = random_recording(rng, n)
        text = self.inline(monkeypatch, serialize_trajectory_log, rec)
        assert not forks
        assert serialize_trajectory_log(rec) == text == row_by_row_trajectory_log(rec)
        parsed = parse_trajectory_log(text)
        assert len(forks) == (2 if n >= _SPLIT_MIN_ROWS else 0)
        self.assert_recordings_equal(parsed, self.inline(monkeypatch, parse_trajectory_log, text))
        self.assert_recordings_equal(parsed, rec)

    def test_pose_log_text_and_rows_equal_the_inline_path(self, rng, monkeypatch, forks):
        log = random_pose_log(rng, _SPLIT_MIN_ROWS + 1)
        text = self.inline(monkeypatch, serialize_pose_log, log)
        assert serialize_pose_log(log) == text
        parsed = parse_pose_log(text)
        assert len(forks) == 2
        assert_pose_logs_equal(parsed, self.inline(monkeypatch, parse_pose_log, text))

    def test_one_usable_cpu_forks_nothing(self, rng, monkeypatch, forks):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.undo()  # the real CPU count, and os.fork uncounted
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        rec = random_recording(rng, _SPLIT_MIN_ROWS)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            parsed = parse_trajectory_log(serialize_trajectory_log(rec))
        finally:
            os.sched_setaffinity(0, cpus)
        self.assert_recordings_equal(parsed, rec)

    def test_blank_whitespace_and_crlf_lines_on_both_sides_of_the_split(
        self, rng, monkeypatch, forks
    ):
        rec = random_recording(rng, _SPLIT_MIN_ROWS + 1)
        lines = serialize_trajectory_log(rec).split("\n")
        h = len(lines) // 2
        for k in (1, 2, h - 2, h - 1, h, h + 1, len(lines) - 3):
            lines[k] += "\r"
        for k, extra in ((h + 2, " \t "), (h, ""), (h - 1, "\r"), (3, "   "), (2, "")):
            lines.insert(k, extra)
        for text in ("\n".join(lines), "\n".join(line for line in lines if line.strip())):
            parsed = parse_trajectory_log(text)
            inline = self.inline(monkeypatch, parse_trajectory_log, text)
            self.assert_recordings_equal(parsed, inline)
            self.assert_recordings_equal(parsed, rec)
        assert forks

    @pytest.mark.parametrize(
        "row, edit, error, fragment",
        [
            # the first row after the split repeats the timestamp before it
            (0, lambda f, before: [before[0], *f[1:]], NonMonotoneTime, "does not increase past"),
            (1, lambda f, _: ["nan", *f[1:]], ParseError, "non-finite timestamp"),
            (7, lambda f, _: [*f[:4], "2"], ParseError, "active flag must be 0 or 1"),
            (-1, lambda f, _: [*f[:2], "1e", *f[3:]], ParseError, "bad y"),
            (-2, lambda f, _: f[:4], ParseError, "expected 5 fields, got 4"),
        ],
    )
    def test_first_error_in_the_childs_half_is_reported_at_its_line(
        self, rng, monkeypatch, forks, row, edit, error, fragment
    ):
        n = _SPLIT_MIN_ROWS + 1
        rec = random_recording(rng, n)
        lines = serialize_trajectory_log(rec).split("\n")[:-1]
        h = n // 2
        k = 1 + h + row if row >= 0 else len(lines) + row
        lines[k] = ",".join(edit(lines[k].split(","), lines[k - 1].split(",")))
        lines[3] = lines[3] + "\r"  # an error-free CRLF line in the parent's half
        text = "\n".join(lines) + "\n"
        with pytest.raises(error, match=fragment) as split:
            parse_trajectory_log(text)
        assert forks
        with pytest.raises(error) as inline:
            self.inline(monkeypatch, parse_trajectory_log, text)
        assert split.value.line == inline.value.line == k + 1
        assert str(split.value) == str(inline.value)

    def test_a_half_that_fails_in_the_child_is_computed_again(self, forks):
        parent = os.getpid()

        def fail_in_child(how):
            def fn(lo, hi):
                if os.getpid() != parent:
                    if how == "raise":
                        raise RuntimeError("child only")
                    if how == "exit":
                        os._exit(7)
                    os.kill(os.getpid(), signal.SIGKILL)
                return list(range(lo, hi))
            return fn

        n = _SPLIT_MIN_ROWS + 1
        for how in ("raise", "exit", "kill"):
            first, second = _in_halves(fail_in_child(how), n)
            assert first + second == list(range(n)), how
        assert len(forks) == 3

    def test_an_error_in_the_childs_half_is_raised_as_inline(self, monkeypatch, forks):
        n = _SPLIT_MIN_ROWS + 1

        def fn(lo, hi):
            if hi == n:
                raise ValueError("bad last row")
            return lo

        with pytest.raises(ValueError, match="bad last row"):
            self.inline(monkeypatch, _in_halves, fn, n)
        assert not forks
        with pytest.raises(ValueError, match="bad last row"):
            _in_halves(fn, n)
        assert forks

    def test_an_error_in_the_parents_half_propagates_past_a_full_pipe(self, forks):
        # the child's half is far over a 64 KiB pipe buffer: the child blocks
        # on its write until the parent closes the read end
        def fn(lo, hi):
            if lo == 0:
                raise KeyError("parent half")
            return "x" * (1 << 20)

        def hung(*_):
            signal.alarm(1)  # and again, should a later wait hang too
            raise TimeoutError("_in_halves hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(KeyError, match="parent half"):
                _in_halves(fn, _SPLIT_MIN_ROWS)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert forks


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def plan_files(draw) -> PlanFile:
    """Valid plan files: any finite entry point and margin, any positive
    length, depth, increment, speed and clearance, and every option."""
    r = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    plan = PlannedCut(
        entry_point=draw(st.lists(FINITE, min_size=3, max_size=3)),
        direction=r[:, 0],
        depth_axis=r[:, 2],
        length_mm=draw(POSITIVE),
        target_depth_mm=draw(POSITIVE),
        cutting_speed_mm_s=draw(POSITIVE),
    )
    policy = PassPolicy(
        depth_increment_mm=draw(POSITIVE),
        insertion_speed_mm_s=draw(POSITIVE),
        retraction_speed_mm_s=draw(POSITIVE),
        cutting_speed_mm_s=draw(st.none() | POSITIVE),
        retract_clearance_mm=draw(POSITIVE),
        bidirectional=draw(st.booleans()),
    )
    analysis = AnalysisOptions(
        bin_count=draw(st.integers(1, MAX_BIN_COUNT)),
        gate=GatePolicy(active_only=draw(st.booleans()), s_margin_mm=draw(FINITE)),
        lateral_mode=draw(st.sampled_from(["lateral", "line3d"])),
    )
    return PlanFile(plan, policy, analysis)


# no cutting speed of its own, bidirectional, "gating": "all" and line3d at once
ALL_OPTIONS_PLAN = PlanFile(
    PlannedCut([1.5, -2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], 80.0, 6.0, 2.5),
    PassPolicy(depth_increment_mm=2.0, bidirectional=True),
    AnalysisOptions(bin_count=7, gate=GatePolicy(active_only=False), lateral_mode="line3d"),
)


class TestPlanFile:
    @PROPERTY
    @given(plan_files())
    @example(ALL_OPTIONS_PLAN)
    def test_serialize_parse_is_exact(self, pf):
        text = serialize_plan(pf)
        back = parse_plan(text)
        for name in ("entry_point", "direction", "depth_axis"):
            assert getattr(back.plan, name).tobytes() == getattr(pf.plan, name).tobytes(), name
        for name in ("length_mm", "target_depth_mm", "cutting_speed_mm_s"):
            assert getattr(back.plan, name) == getattr(pf.plan, name), name
        assert back.policy == pf.policy
        assert back.analysis == pf.analysis
        assert serialize_plan(back) == text

    def test_keys_are_the_field_names(self):
        policy = PassPolicy(depth_increment_mm=2.0, cutting_speed_mm_s=1.5)
        doc = json.loads(serialize_plan(PlanFile(ALL_OPTIONS_PLAN.plan, policy)))
        assert set(doc) - {"pass_policy", "analysis"} == {f.name for f in fields(PlannedCut)}
        assert set(doc["pass_policy"]) == {f.name for f in fields(PassPolicy)}

    @pytest.mark.filterwarnings("error")
    def test_huge_direction_is_a_parse_error_without_a_warning(self):
        # its squared norm overflows to inf
        doc = json.loads(serialize_plan(ALL_OPTIONS_PLAN))
        doc["direction"] = [1e300, 0.0, 0.0]
        with pytest.raises(ParseError, match="invalid plan: direction must be a unit vector"):
            parse_plan(json.dumps(doc))

    def test_roundtrip_fuzz(self, rng):
        for _ in range(200):
            pf = random_plan_file(rng)
            back = parse_plan(serialize_plan(pf))
            np.testing.assert_array_equal(back.plan.entry_point, pf.plan.entry_point)
            np.testing.assert_array_equal(back.plan.direction, pf.plan.direction)
            assert back.plan.length_mm == pf.plan.length_mm
            assert back.policy == pf.policy
            assert back.analysis == pf.analysis

    def test_unknown_key_rejected(self, rng):
        doc = serialize_plan(random_plan_file(rng))
        broken = doc.replace('"length_mm"', '"length_mm": 1, "surprise"', 1)
        with pytest.raises(ParseError):
            parse_plan(broken)

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_plan("{}")
        assert "missing" in str(exc.value)

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            parse_plan("{not json")

    def test_non_unit_direction_rejected(self, rng):
        pf = random_plan_file(rng)
        doc = json.loads(serialize_plan(pf))
        doc["direction"] = [2.0, 0.0, 0.0]
        with pytest.raises(ParseError):
            parse_plan(json.dumps(doc))

    def test_non_finite_or_bool_vector_rejected(self, rng):
        for key in ("entry_point", "direction", "depth_axis"):
            for bad in (math.nan, math.inf, True):
                doc = json.loads(serialize_plan(random_plan_file(rng)))
                doc[key][1] = bad
                with pytest.raises(ParseError) as exc:
                    parse_plan(json.dumps(doc))
                assert f"plan.{key}.1 must be a finite number" in str(exc.value)

    def test_bad_pass_policy_rejected(self, rng):
        doc = json.loads(serialize_plan(random_plan_file(rng)))
        doc["pass_policy"]["depth_increment_mm"] = -1.0
        with pytest.raises(ParseError):
            parse_plan(json.dumps(doc))

    def test_bad_gating_value_rejected(self, rng):
        doc = json.loads(serialize_plan(random_plan_file(rng)))
        doc["analysis"]["gating"] = "sometimes"
        with pytest.raises(ParseError):
            parse_plan(json.dumps(doc))
