import contextlib
import json
import math
import os
import signal
import threading
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
    _FIELD_BLOCK,
    _SPLIT_MIN_ROWS,
    _in_two,
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

    # the writer lays out _FIELD_BLOCK // 8 rows of a pose log at a time
    @pytest.mark.parametrize(
        "n", [*(_FIELD_BLOCK // 8 + d for d in (-1, 0, 1)), 2 * (_FIELD_BLOCK // 8) + 3]
    )
    def test_serialize_equals_row_by_row_writer(self, rng, n):
        special = [-0.0, 5e-324, 1e-05, 1e16, 2.0**53 + 2, 123456789.123]
        log = random_pose_log(rng, n)
        timestamps, translations = log.timestamps.copy(), log.translations.copy()
        timestamps[:3] = special[:3]
        translations.flat[: len(special)] = special
        translations[-1] = special[-3:]
        log = PoseLog(timestamps, log.sources, log.targets, log.quats_wxyz, translations)
        text = serialize_pose_log(log)
        assert text == row_by_row_pose_log(rows_of_log(log))
        assert_pose_logs_equal(parse_pose_log(text), log)


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


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The line count of each np.loadtxt call this process makes; a forked
    child's calls land in its own copy of the list."""
    calls = []
    loadtxt = np.loadtxt

    def counted(lines, *args, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


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

    # the writer lays out _FIELD_BLOCK // 4 rows of a trajectory log at a time
    @pytest.mark.parametrize(
        "n",
        [2, *(k * (_FIELD_BLOCK // 4) + d for k in (1, 2) for d in (-1, 0, 1)),
         2 * (_FIELD_BLOCK // 4) + 3, 4 * (_FIELD_BLOCK // 4) + 3],
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

    def test_whitespace_only_lines_are_skipped(self, loadtxt_calls):
        text = TRAJECTORY_LOG_HEADER + "\n0.0,1,2,3,1\n   \n\t\n\n0.1,4,5,6,0\n  \n"
        rec = parse_trajectory_log(text)
        assert loadtxt_calls == [6]  # the bulk parse fails; the line scan gives the rows
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


def pose_log_of_values(values) -> PoseLog:
    """Rows of eight float fields holding ``values`` in order, zero-padded."""
    rows = np.zeros((-(-len(values) // 8), 8))
    rows.flat[: len(values)] = values
    frames = np.zeros(len(rows), dtype=int)
    return PoseLog(rows[:, 0], frames, frames + 1, rows[:, 1:5], rows[:, 5:])


def recording_of_values(values) -> TrajectoryRecording:
    """The distinct finite values (and -1.0 to 6.0) in order, four a row:
    the timestamp and the point, the last row padded with the largest."""
    distinct = np.unique(np.concatenate([values[np.isfinite(values)], np.arange(-1.0, 7.0)]))
    rows = np.concatenate([distinct, np.full(-len(distinct) % 4, distinct[-1])]).reshape(-1, 4)
    return TrajectoryRecording(rows[:, 0], rows[:, 1:], np.arange(len(rows)) % 3 == 0)


def neighbours(values) -> np.ndarray:
    """Each value, the floats just below and above it, and their negations."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the float above the largest is inf
        around = [np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)]
    return np.concatenate([*around, *(-v for v in around)])


# fixed float inputs: every power of two and of ten with both neighbours; the
# points where the text switches layout (scientific below 1e-4 and from 1e16
# up, positional between; 2^53 is where consecutive floats first differ by 2);
# and the extremes, zeros and subnormals
POWERS = neighbours(
    np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]]
    )
)
SWITCHES = [1e-5, 9.999999999999999e-05, 1e-4, 1e16, 2.0**53]
EXTREMES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0, -5e-324]


class TestFloatText:
    """Both writers give every float64 the bytes repr gives it."""

    @staticmethod
    def assert_written_as_repr(values):
        values = np.asarray(values, dtype=np.float64)
        log = pose_log_of_values(values)
        # rows_of_log with Python floats, which the reference reprs faster
        frames = list(FrameId)
        columns = [log.timestamps, log.sources, log.targets, log.quats_wxyz, log.translations]
        columns = zip(*(column.tolist() for column in columns))
        rows = [(t, frames[s], frames[g], q, p) for t, s, g, q, p in columns]
        assert serialize_pose_log(log) == row_by_row_pose_log(rows)
        rec = recording_of_values(values)
        assert serialize_trajectory_log(rec) == row_by_row_trajectory_log(rec)

    def test_a_million_random_bit_patterns(self):
        bits = np.random.default_rng(18).integers(0, 2**64, 1_050_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert len(values) >= 1_000_000 and (values < 0).any() and (values > 0).any()
        self.assert_written_as_repr(values)

    def test_powers_of_two_and_ten(self):
        self.assert_written_as_repr(POWERS)

    def test_where_the_text_switches_layout(self):
        self.assert_written_as_repr(neighbours(SWITCHES))
        text = serialize_pose_log(pose_log_of_values(np.array(SWITCHES)))
        row = "1e-05,S,EE,9.999999999999999e-05,0.0001,1e+16,9007199254740992.0,0.0,0.0,0.0"
        assert text == f"{POSE_LOG_HEADER}\n{row}\n"

    def test_extremes_and_zeros(self):
        self.assert_written_as_repr(EXTREMES)

    def test_nan_and_infinities_in_a_pose_log(self):
        # the PoseLog constructor does not reject them; the parser would
        payload_nan = np.array([0x7FF0_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        values = [np.nan, np.inf, -np.inf, np.copysign(np.nan, -1.0), payload_nan, 1.5]
        log = pose_log_of_values(values)
        text = serialize_pose_log(log)
        assert text == row_by_row_pose_log(rows_of_log(log))
        assert text.splitlines()[1] == "nan,S,EE,inf,-inf,nan,nan,1.5,0.0,0.0"

    @PROPERTY
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        self.assert_written_as_repr(values)

    def test_a_log_of_no_rows_is_its_header(self):
        assert serialize_pose_log(pose_log_of_values(np.empty(0))) == POSE_LOG_HEADER + "\n"


def pose_log_of_translations(values) -> PoseLog:
    """Identity poses, stamped 0, 1, ..., whose translations hold ``values``
    in order, zero-padded."""
    translations = np.zeros((-(-len(values) // 3), 3))
    translations.flat[: len(values)] = values
    n = len(translations)
    frames = np.zeros(n, dtype=int)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return PoseLog(np.arange(n, dtype=np.float64), frames, frames + 1, quats, translations)


class TestBothReadPaths:
    """The line scan returns the rows of the bulk parse bit for bit, so it can
    read any log that the bulk parse rejects but the scan accepts."""

    @staticmethod
    def assert_paths_agree(text, header, valid, scan, converters=None):
        def scanned(lines):
            pytest.fail("the bulk parse rejected a valid log")

        bulk = logio._read_csv(text, header, valid, scanned, converters)
        rows = scan(text.split("\n"))
        assert rows.dtype == bulk.dtype and rows.shape == bulk.shape
        assert rows.tobytes() == bulk.tobytes()

    def assert_pose_paths_agree(self, text):
        converters = {1: logio._frame_code, 2: logio._frame_code}
        self.assert_paths_agree(
            text, POSE_LOG_HEADER, logio._pose_rows_valid, logio._scan_pose_lines, converters
        )

    def assert_trajectory_paths_agree(self, text):
        self.assert_paths_agree(
            text, TRAJECTORY_LOG_HEADER, logio._trajectory_rows_valid, logio._scan_trajectory_lines
        )

    @PROPERTY
    @given(recordings())
    def test_trajectory_logs(self, rec):
        self.assert_trajectory_paths_agree(serialize_trajectory_log(rec))

    @PROPERTY
    @given(pose_rows())
    def test_pose_logs(self, rows):
        self.assert_pose_paths_agree(row_by_row_pose_log(rows))

    @pytest.mark.parametrize(
        "values",
        [POWERS, neighbours(SWITCHES), EXTREMES],
        ids=["powers", "layout switches", "extremes"],
    )
    def test_fixed_floats(self, values):
        values = np.asarray(values, dtype=np.float64)
        self.assert_trajectory_paths_agree(serialize_trajectory_log(recording_of_values(values)))
        self.assert_pose_paths_agree(serialize_pose_log(pose_log_of_translations(values)))


def raw_midpoint(data) -> int:
    """The middle of a log's lines after the header, before the reader moves
    it to the next line start."""
    start = data.index("\n" if isinstance(data, str) else b"\n") + 1
    return (start + len(data)) // 2


def split_log(kind: str, rng, n: int):
    """(serializer, log) of a random trajectory or pose log of n rows."""
    if kind == "trajectory":
        return serialize_trajectory_log, random_recording(rng, n)
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    frames = rng.integers(len(FrameId), size=(2, n))
    log = PoseLog(np.arange(n, dtype=np.float64), *frames, quats, rng.uniform(-100, 100, (n, 3)))
    return serialize_pose_log, log


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError where the body takes longer than ``seconds``."""
    def hung(*_):
        signal.alarm(1)  # and again, should a later wait hang too
        raise TimeoutError("hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def through_pipe(write) -> bytes:
    """The bytes ``write(pipe)`` sends through a pipe, drained as they come."""
    read_end, write_end = os.pipe()
    received = []

    def drain():
        with open(read_end, "rb") as pipe:
            received.append(pipe.read())

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        with open(write_end, "wb") as pipe:
            write(pipe)
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    return received[0]


SPLIT_SIZES = pytest.mark.parametrize("n", [_SPLIT_MIN_ROWS - 1, _SPLIT_MIN_ROWS, _SPLIT_MIN_ROWS + 1])
BOTH_LOGS = pytest.mark.parametrize("kind", ["trajectory", "pose"])


class TestSplitConversion:
    """Logs of at least _SPLIT_MIN_ROWS rows are parsed and written half in
    a forked child, whatever they are written to; the results must be those
    of the one-process path."""

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

    @SPLIT_SIZES
    def test_trajectory_text_and_rows_equal_the_inline_path(self, rng, monkeypatch, forks, n):
        rec = random_recording(rng, n)
        text = serialize_trajectory_log(rec)
        assert len(forks) == (n >= _SPLIT_MIN_ROWS)
        assert text == row_by_row_trajectory_log(rec)
        for data in (text, text.encode()):
            parsed = parse_trajectory_log(data)
            self.assert_recordings_equal(parsed, self.inline(monkeypatch, parse_trajectory_log, data))
            self.assert_recordings_equal(parsed, rec)
        assert len(forks) == (3 if n >= _SPLIT_MIN_ROWS else 0)

    def test_pose_log_text_and_rows_equal_the_inline_path(self, rng, monkeypatch, forks):
        log = random_pose_log(rng, _SPLIT_MIN_ROWS + 1)
        text = serialize_pose_log(log)
        assert len(forks) == 1
        assert text == row_by_row_pose_log(rows_of_log(log))
        for data in (text, text.encode()):
            parsed = parse_pose_log(data)
            assert_pose_logs_equal(parsed, self.inline(monkeypatch, parse_pose_log, data))
        assert len(forks) == 3

    def test_one_usable_cpu_forks_nothing(self, rng, monkeypatch, forks, tmp_path):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        monkeypatch.undo()  # the real CPU count, and os.fork uncounted
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        rec = random_recording(rng, _SPLIT_MIN_ROWS)
        path = tmp_path / "log.csv"
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            with open(path, "wb") as file:
                serialize_trajectory_log(rec, file)
            parsed = parse_trajectory_log(path.read_bytes())
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

    @pytest.mark.parametrize("mode", ["wb", "ab"])
    @SPLIT_SIZES
    @BOTH_LOGS
    def test_a_file_gets_the_bytes_of_the_text_at_its_position(
        self, rng, monkeypatch, forks, tmp_path, kind, n, mode
    ):
        serialize, log = split_log(kind, rng, n)
        text = self.inline(monkeypatch, serialize, log).encode()
        path = tmp_path / "log.csv"
        path.write_bytes(b"before\n" if mode == "ab" else b"")
        with open(path, mode) as file:
            if mode == "wb":
                # still buffered at the fork: only this process may flush it
                file.write(b"before\n")
            assert serialize(log, file) is None
            assert file.tell() == 7 + len(text)
            file.write(b"after\n")
        assert path.read_bytes() == b"before\n" + text + b"after\n"
        assert len(forks) == (n >= _SPLIT_MIN_ROWS)

    @SPLIT_SIZES
    @BOTH_LOGS
    def test_a_pipe_gets_the_bytes_of_the_text(self, rng, monkeypatch, forks, kind, n):
        serialize, log = split_log(kind, rng, n)
        text = self.inline(monkeypatch, serialize, log).encode()
        assert through_pipe(lambda pipe: serialize(log, pipe)) == text
        assert len(forks) == (n >= _SPLIT_MIN_ROWS)

    @pytest.mark.parametrize("how", ["raise", "exit", "kill"])
    @pytest.mark.parametrize("to", ["file", "pipe"])
    @BOTH_LOGS
    def test_a_half_the_child_fails_to_make_is_made_by_this_process(
        self, rng, monkeypatch, forks, tmp_path, kind, to, how
    ):
        serialize, log = split_log(kind, rng, _SPLIT_MIN_ROWS + 1)
        text = self.inline(monkeypatch, serialize, log).encode()
        parent, field_words = os.getpid(), logio._field_words

        def failing_field_words(bits):
            if os.getpid() != parent:
                if how == "raise":
                    raise OSError("child only")
                if how == "exit":
                    os._exit(7)
                os.kill(os.getpid(), signal.SIGKILL)
            return field_words(bits)

        monkeypatch.setattr(logio, "_field_words", failing_field_words)
        if to == "pipe":
            assert through_pipe(lambda pipe: serialize(log, pipe)) == text
        else:
            path = tmp_path / "log.csv"
            with open(path, "wb") as file:
                serialize(log, file)
                assert file.tell() == len(text)
            assert path.read_bytes() == text
        assert len(forks) == 1

    def test_an_error_in_this_processs_half_ends_the_writing_child(
        self, rng, monkeypatch, forks, tmp_path
    ):
        rec = random_recording(rng, _SPLIT_MIN_ROWS)
        parent, field_words = os.getpid(), logio._field_words

        def failing_field_words(bits):
            if os.getpid() == parent:
                raise KeyError("parent half")
            return field_words(bits)

        monkeypatch.setattr(logio, "_field_words", failing_field_words)
        with time_limit(20), open(tmp_path / "log.csv", "wb") as file:
            with pytest.raises(KeyError, match="parent half"):
                serialize_trajectory_log(rec, file)
        assert forks

    @pytest.mark.parametrize("where", ["header", "crlf", "last line", "whitespace line"])
    @pytest.mark.parametrize("encode", [False, True], ids=["str", "bytes"])
    def test_where_the_middle_of_the_log_falls(self, rng, monkeypatch, forks, where, encode):
        rec = random_recording(rng, _SPLIT_MIN_ROWS + 1)
        text = serialize_trajectory_log(rec)
        if where == "header":  # the middle of the whole file
            text = text.replace("\n", " " * len(text) + "\n", 1)
            assert len(text) // 2 < text.index("\n")
        elif where == "crlf":
            text = text.replace("\n", "\r\n")
            for pad in range(400):  # spaces after the last row's flag move the middle
                padded = text[:-2] + " " * pad + "\r\n"
                if padded[raw_midpoint(padded)] == "\n":
                    text = padded
                    break
            assert text[raw_midpoint(text) - 1 : raw_midpoint(text) + 1] == "\r\n"
        elif where == "last line":  # with no LF
            text = text[:-1] + " " * len(text)
            assert text.find("\n", raw_midpoint(text)) == -1
        else:
            mid = text.index("\n", raw_midpoint(text)) + 1
            text = text[:mid] + " " * 1000 + "\n" + text[mid:]
            assert text[raw_midpoint(text)] == " "
        data = text.encode() if encode else text
        forks.clear()  # the writer's
        scans, scan = [], logio._scan_trajectory_lines
        monkeypatch.setattr(logio, "_scan_trajectory_lines", lambda lines: scans.append(1) or scan(lines))
        parsed = parse_trajectory_log(data)
        assert len(forks) == 1
        # each half holds whole lines, so only the whitespace-only line sends
        # the log to the line scan
        assert len(scans) == (where == "whitespace line")
        self.assert_recordings_equal(parsed, self.inline(monkeypatch, parse_trajectory_log, data))
        self.assert_recordings_equal(parsed, rec)

    def test_invalid_utf8_in_the_childs_half_is_reported_for_the_whole_file(
        self, rng, monkeypatch, forks
    ):
        data = serialize_trajectory_log(random_recording(rng, _SPLIT_MIN_ROWS + 1)).encode()
        at = data.index(b"\n", raw_midpoint(data) + 1000) + 1
        data = data[:at] + b"\xff" + data[at:]
        with pytest.raises(ParseError, match="not valid UTF-8") as split:
            parse_trajectory_log(data)
        assert forks
        with pytest.raises(ParseError) as inline:
            self.inline(monkeypatch, parse_trajectory_log, data)
        assert str(split.value) == str(inline.value)
        assert f"in position {at}:" in str(split.value)

    @pytest.mark.parametrize("n", [3, _SPLIT_MIN_ROWS + 1])
    def test_invalid_utf8_is_reported_before_a_bad_header(self, rng, n):
        text = serialize_trajectory_log(random_recording(rng, n))
        data = text.replace("active", "activ", 1).encode() + b"\xff\n"
        with pytest.raises(ParseError, match="not valid UTF-8"):
            parse_trajectory_log(data)
        with pytest.raises(ParseError, match="expected header"):
            parse_trajectory_log(data[:-2])

    @pytest.mark.parametrize("n", [3, _SPLIT_MIN_ROWS + 1])
    @BOTH_LOGS
    def test_a_lone_surrogate_in_a_str_log_is_an_error_at_its_line(self, rng, kind, n):
        serialize, log = split_log(kind, rng, n)
        lines = serialize(log).split("\n")
        k = len(lines) - 2  # the last row: in the child's half of a long log
        lines[k] = lines[k].replace(",", ",\ud800", 1)  # at the start of the second field
        parse, error, fragment = (
            (parse_trajectory_log, ParseError, "bad x")
            if kind == "trajectory"
            else (parse_pose_log, FrameError, "unknown frame label")
        )
        with pytest.raises(error, match=fragment) as exc:
            parse("\n".join(lines))
        assert exc.value.line == k + 1

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
        text = serialize_trajectory_log(rec)
        lines = text.split("\n")[:-1]
        k = text.count("\n", 0, text.index("\n", raw_midpoint(text)) + 1) + row
        k = k if row >= 0 else len(lines) + row
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

    def test_a_half_that_loadtxt_rejects_in_the_child_is_not_parsed_again(
        self, rng, forks, loadtxt_calls
    ):
        text = serialize_trajectory_log(random_recording(rng, _SPLIT_MIN_ROWS)) + "x,0,0,0,1\n"
        forks.clear()  # the writer's
        with pytest.raises(ParseError, match="bad timestamp") as exc:
            parse_trajectory_log(text)
        assert exc.value.line == _SPLIT_MIN_ROWS + 2
        # one loadtxt call here, on the lines of this process's half only
        start, mid = text.index("\n") + 1, text.index("\n", raw_midpoint(text)) + 1
        assert len(forks) == 1 and loadtxt_calls == [text.count("\n", start, mid)]
        assert loadtxt_calls[0] < _SPLIT_MIN_ROWS

    def test_a_half_that_fails_in_the_child_is_computed_again(self, forks):
        parent = os.getpid()

        def fail_in_child(how):
            def second():
                if os.getpid() != parent:
                    if how == "raise":
                        raise RuntimeError("child only")
                    if how == "exit":
                        os._exit(7)
                    os.kill(os.getpid(), signal.SIGKILL)
                return 2
            return second

        for how in ("raise", "exit", "kill"):
            assert _in_two(lambda: "first", fail_in_child(how)) == ("first", 2), how
        assert len(forks) == 3

    def test_the_childs_int_is_sent_back(self, forks):
        for value in (0, -1, 2**63 - 1, -(2**63)):
            assert _in_two(lambda: os.getpid(), lambda: value) == (os.getpid(), value)
        parent, child = _in_two(lambda: os.getpid(), lambda: os.getpid())
        assert parent == os.getpid() and child == forks[-1]

    def test_where_no_process_can_be_forked_this_process_computes_both(self, monkeypatch):
        def no_fork():
            raise OSError("out of processes")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _in_two(lambda: "first", lambda: 2) == ("first", 2)

    def test_an_error_in_the_childs_half_is_raised_as_inline(self, forks):
        def second():
            raise ValueError("bad last row")

        with pytest.raises(ValueError, match="bad last row"):
            _in_two(lambda: 0, second)
        assert len(forks) == 1

    def test_an_error_in_the_parents_half_propagates_past_a_full_pipe(self, forks):
        # the child is reaped before the error leaves, whatever its half costs
        def first():
            raise KeyError("parent half")

        with time_limit(20), pytest.raises(KeyError, match="parent half"):
            _in_two(first, lambda: len("x" * (1 << 20)))
        assert forks


def parse_outcome(parse, data):
    """What ``parse`` makes of ``data``: each array's dtype and bytes, or the
    error's type, line and text."""
    try:
        result = parse(data)
    except CutcalError as e:
        return type(e), getattr(e, "line", None), str(e)
    return [(getattr(result, f.name).dtype, getattr(result, f.name).tobytes()) for f in fields(result)]


@pytest.fixture
def small_split(monkeypatch):
    """Small logs split and read in small chunks: _SPLIT_MIN_ROWS 8, two
    usable CPUs and 128-byte chunks. Yields the pids forked during a test,
    which must all have been reaped."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(logio, "_SPLIT_MIN_ROWS", 8)
    monkeypatch.setattr(logio, "_CHUNK_BYTES", 128)
    monkeypatch.setattr(logio, "_usable_cpus", lambda: 2)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSmallChunks:
    """40-row logs through the fork split and many chunks (small_split):
    each half of the parse reads a chunk of two or three lines at a time.
    Each outcome must be the one-process parse's, which reads the whole log
    as one chunk."""

    ROWS = 40

    @pytest.fixture(autouse=True)
    def forks(self, small_split):
        return small_split

    @staticmethod
    def one_process(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(logio, "_usable_cpus", lambda: 1)
            m.setattr(logio, "_CHUNK_BYTES", 1 << 20)
            return fn(*args)

    def assert_outcomes_equal(self, monkeypatch, forks, parse, data):
        forks.clear()
        outcome = parse_outcome(parse, data)
        assert len(forks) == 1
        assert outcome == self.one_process(monkeypatch, parse_outcome, parse, data)
        assert not forks[1:]
        return outcome

    def lines(self, rng, kind="trajectory") -> list[str]:
        serialize, log = split_log(kind, rng, self.ROWS)
        return serialize(log).split("\n")

    @BOTH_LOGS
    def test_a_clean_log_is_read_in_several_chunks_per_half(
        self, rng, monkeypatch, forks, loadtxt_calls, kind
    ):
        text = "\n".join(self.lines(rng, kind))
        parse = parse_trajectory_log if kind == "trajectory" else parse_pose_log
        for data in (text, text.encode()):
            loadtxt_calls.clear()
            outcome = self.assert_outcomes_equal(monkeypatch, forks, parse, data)
            assert isinstance(outcome, list)
            # this process read its half, a few lines a chunk, before the
            # one-process parse read the whole log in one
            assert len(loadtxt_calls) > 3 and loadtxt_calls[-1] == self.ROWS
            assert sum(loadtxt_calls[:-1]) < self.ROWS

    @pytest.mark.parametrize("blank", ["", "\r", " ", "\t  ", " " * 300], ids=repr)
    def test_a_blank_or_whitespace_line_before_each_line(self, rng, monkeypatch, forks, blank):
        # every line start, so a blank line falls in each half, on each side of
        # the midpoint and at each chunk boundary; a 300-space line fills a
        # whole chunk, which is skipped
        lines = self.lines(rng)
        for k in range(1, len(lines)):
            text = "\n".join([*lines[:k], blank, *lines[k:]])
            outcome = self.assert_outcomes_equal(monkeypatch, forks, parse_trajectory_log, text)
            assert isinstance(outcome, list), k

    def test_blank_lines_in_the_first_half_leave_no_gap(self, rng, monkeypatch, forks):
        lines = self.lines(rng)
        for k in (1, 2, 2, 5, 9, 9, 9):
            lines.insert(k, "")
        lines.insert(len(lines) - 5, "")
        text = "\n".join(lines)
        outcome = self.assert_outcomes_equal(monkeypatch, forks, parse_trajectory_log, text)
        assert isinstance(outcome, list)

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize("last_lf", [True, False], ids=["last lf", "no last lf"])
    @BOTH_LOGS
    def test_line_ends(self, rng, monkeypatch, forks, kind, crlf, last_lf):
        text = "\n".join(self.lines(rng, kind))
        text = text if last_lf else text[:-1]
        text = text.replace("\n", "\r\n") if crlf else text
        parse = parse_trajectory_log if kind == "trajectory" else parse_pose_log
        for data in (text, text.encode()):
            outcome = self.assert_outcomes_equal(monkeypatch, forks, parse, data)
            assert isinstance(outcome, list)

    def test_an_ff_byte_in_either_half(self, rng, monkeypatch, forks):
        data = "\n".join(self.lines(rng)).encode()
        mid = data.index(b"\n", raw_midpoint(data)) + 1
        for at in (data.index(b"\n") + 1, mid - 3, mid, mid + 70, len(data) - 2):
            bad = data[:at] + b"\xff" + data[at:]
            error, line, text = self.assert_outcomes_equal(monkeypatch, forks, parse_trajectory_log, bad)
            assert error is ParseError and "not valid UTF-8" in text and f"position {at}:" in text

    @pytest.mark.parametrize("field", [0, 2, 4])
    def test_a_bad_field_on_each_line(self, rng, monkeypatch, forks, field):
        lines = self.lines(rng)
        for k in range(1, len(lines) - 1):
            edited = lines.copy()
            fields_k = edited[k].split(",")
            fields_k[field] = "1e"
            edited[k] = ",".join(fields_k)
            error, line, _ = self.assert_outcomes_equal(
                monkeypatch, forks, parse_trajectory_log, "\n".join(edited)
            )
            assert error is ParseError and line == k + 1


class TestFailedForks:
    """A fork that is refused, or a child that fails, leaves this process to
    compute the child's half into the same shared buffer: the text and the
    arrays are those of the one-process path."""

    @pytest.fixture(autouse=True)
    def forks(self, small_split):
        yield small_split
        assert len(small_split) == 1 or not small_split and self.refused

    refused = False

    def fail(self, monkeypatch, how, module, name):
        """Make ``module.name`` fail as ``how`` says in any child process;
        "refused" makes os.fork raise."""
        if how == "refused":
            self.refused = True
            def refused():
                raise OSError("out of processes")

            monkeypatch.setattr(os, "fork", refused)
            return
        parent, original = os.getpid(), getattr(module, name)

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                if how == "raise":
                    raise OSError("child only")
                if how == "exit":
                    os._exit(7)
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)

    @pytest.mark.parametrize("how", ["refused", "raise", "exit", "kill"])
    @pytest.mark.parametrize("to", ["file", "str"])
    @BOTH_LOGS
    def test_the_writer(self, rng, monkeypatch, tmp_path, kind, to, how):
        serialize, log = split_log(kind, rng, 40)
        with monkeypatch.context() as m:
            m.setattr(logio, "_usable_cpus", lambda: 1)
            want = serialize(log)
        self.fail(monkeypatch, how, logio, "_field_words")
        if to == "str":
            assert serialize(log) == want
        else:
            path = tmp_path / "log.csv"
            with open(path, "wb") as file:
                serialize(log, file)
            assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("how", ["refused", "raise", "exit", "kill"])
    @pytest.mark.parametrize("source", ["file", "str"])
    @BOTH_LOGS
    def test_the_reader(self, rng, monkeypatch, tmp_path, kind, source, how):
        serialize, log = split_log(kind, rng, 40)
        parse = parse_trajectory_log if kind == "trajectory" else parse_pose_log
        with monkeypatch.context() as m:
            m.setattr(logio, "_usable_cpus", lambda: 1)
            text = serialize(log)
            want = parse_outcome(parse, text)
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        self.fail(monkeypatch, how, np, "loadtxt")
        data = text if source == "str" else path.read_bytes()
        assert parse_outcome(parse, data) == want


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
