"""Command-line surface: calibrate, analyze, simulate and report.

Exit codes: 0 success, 1 data error (machine-readable JSON on stderr),
2 usage error. All numeric output is deterministic given inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .errors import CutcalError, ParseError
from .geometry import FrameId, RigidTransform, orthonormalize
from .handeye import DEFAULT_MIN_ROTATION, HandEyeDataset, HandEyeSolution, calibrate_hand_eye
from .logio import (
    _FRAME_CODE,
    PoseLog,
    _number,
    dump_json,
    load_json,
    parse_plan,
    parse_pose_log,
    parse_trajectory_log,
    serialize_pose_log,
    serialize_trajectory_log,
)
from .metrics import TrialLabel, build_report
from .pointcal import DEFAULT_MAX_TIP_SPREAD_MM, TipCalDataset, calibrate_pivot, calibrate_tip_in_ee
from .report import emit_report_table, parse_report, serialize_report
from .simrig import (
    JitterModel,
    NoiseModel,
    RigGroundTruth,
    generate_handeye_dataset,
    generate_pivot_dataset,
    generate_tipcal_dataset,
    synthesize_muso_trial,
    synthesize_ruso_trial,
)


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e


def _write(output, path: str | None) -> None:
    """Write a command's output to ``path``, or to stdout where it is None.

    The output is text, or a log serializer: called with no file it returns
    the text, and given a binary file it writes the text into it.
    """
    if path is None:
        sys.stdout.write(output if isinstance(output, str) else output())
        return
    try:
        with open(path, "wb") as file:
            if isinstance(output, str):
                file.write(output.encode("utf-8"))
            else:
                output(file)
    except OSError as e:
        raise CutcalError(f"cannot write {path}: {e.strerror}") from e


def _transform_to_dict(t: RigidTransform) -> dict:
    return {"rotation": t.rotation.tolist(), "translation_mm": t.translation.tolist()}


def _transform_from_dict(doc: dict, where: str) -> RigidTransform:
    try:
        rotation = np.asarray(doc["rotation"], dtype=np.float64)
        translation = np.asarray(doc["translation_mm"], dtype=np.float64)
        if not (np.isfinite(rotation).all() and np.isfinite(translation).all()):
            raise ValueError("rotation and translation_mm must be finite")
        if (rotation.shape, translation.shape) != ((3, 3), (3,)):
            raise ValueError(f"not one pose: shapes {rotation.shape} and {translation.shape}")
        t = RigidTransform(rotation, translation)
        # a rotation that only just passes the check can fail it once chained
        # with other poses; its nearest proper rotation cannot
        return RigidTransform(orthonormalize(t.rotation), t.translation)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"invalid transform in {where}: {e}") from e


def _pose_pairs(log: PoseLog, first, second) -> tuple[RigidTransform, RigidTransform]:
    """Pose stacks of the ``first`` and of the ``second`` stream's rows at the
    timestamps both streams share, in timestamp order."""
    a, b = log.rows_of(*first), log.rows_of(*second)
    # timestamps are unique within a stream: parse_pose_log rejects duplicates
    _, i, j = np.intersect1d(
        log.timestamps[a], log.timestamps[b], assume_unique=True, return_indices=True
    )
    if not len(i):
        raise ParseError(
            f"no timestamp-paired ({first[0]},{first[1]}) and ({second[0]},{second[1]}) rows"
        )
    return log.poses(a[i]), log.poses(b[j])


# Each command returns what main writes to --output (or stdout): text, or a
# serializer of the log it made (see _write).


def _cmd_calibrate_handeye(args) -> str:
    log = parse_pose_log(_read(args.input))
    pairs = _pose_pairs(log, (FrameId.S, FrameId.EE), (FrameId.OT, FrameId.TOOL))
    dataset = HandEyeDataset(*pairs)
    solution = calibrate_hand_eye(
        dataset,
        min_rotation=math.radians(args.min_rotation_deg),
        pairing=args.pairing,
    )
    return dump_json(
        {
            "base_from_tracker": _transform_to_dict(solution.base_from_tracker),
            "ee_from_tool": _transform_to_dict(solution.ee_from_tool),
            "residual_rotation_rad": solution.residual_rotation_rad,
            "residual_translation_mm": solution.residual_translation_mm,
            "samples": len(dataset),
        }
    )


def _cmd_calibrate_pivot(args) -> str:
    log = parse_pose_log(_read(args.input))
    rows = log.rows_of(FrameId.OT, FrameId.TOOL)
    if not len(rows):
        raise ParseError("no (OT,Tool) rows in pose log")
    solution = calibrate_pivot(log.poses(rows))
    return dump_json(
        {
            "tip_in_tool_mm": solution.tip_in_tool.tolist(),
            "divot_in_tracker_mm": solution.divot_in_tracker.tolist(),
            "rms_residual_mm": solution.rms_residual_mm,
            "poses": len(rows),
        }
    )


def _load_handeye_solution(path: str) -> HandEyeSolution:
    doc = load_json(_read(path))
    if not isinstance(doc, dict):
        raise ParseError(f"hand-eye solution in {path} must be a JSON object")
    residuals = [
        _number(doc, key, path) if key in doc else 0.0
        for key in ("residual_rotation_rad", "residual_translation_mm")
    ]
    return HandEyeSolution(
        _transform_from_dict(doc.get("base_from_tracker", {}), path),
        _transform_from_dict(doc.get("ee_from_tool", {}), path),
        *residuals,
    )


def _cmd_calibrate_tip(args) -> str:
    log = parse_pose_log(_read(args.input))
    pairs = _pose_pairs(log, (FrameId.S, FrameId.EE), (FrameId.OT, FrameId.DIGITIZER))
    dataset = TipCalDataset(*pairs, hand_eye=_load_handeye_solution(args.handeye))
    solution = calibrate_tip_in_ee(dataset, max_spread_mm=args.max_spread_mm)
    return dump_json(
        {
            "ee_from_tip": _transform_to_dict(solution.ee_from_tip),
            "tip_position_spread_mm": solution.spread_mm,
            "samples": len(dataset),
        }
    )


def _cmd_analyze(args) -> str:
    plan_file = parse_plan(_read(args.plan))
    recording = parse_trajectory_log(_read(args.traj))
    report = build_report(
        recording,
        plan_file.plan,
        plan_file.analysis.bin_count,
        args.label,
        gate=plan_file.analysis.gate,
        lateral_mode=plan_file.analysis.lateral_mode,
    )
    if args.format == "json":
        return serialize_report(report)
    return emit_report_table([report], format=args.format)


def _pose_log(*streams):
    """The serializer of the pose log of (source, target, pose stack)
    streams: row i of every stream in turn, stamped float(i)."""
    n = len(streams[0][2])
    log = PoseLog(
        np.repeat(np.arange(n, dtype=np.float64), len(streams)),
        np.tile([_FRAME_CODE[source] for source, _, _ in streams], n),
        np.tile([_FRAME_CODE[target] for _, target, _ in streams], n),
        np.stack([poses.quat_wxyz() for _, _, poses in streams], axis=1),
        np.stack([poses.translation for _, _, poses in streams], axis=1),
    )
    return functools.partial(serialize_pose_log, log)


def _cmd_simulate(args):
    rig = RigGroundTruth.random(args.seed)
    noise = NoiseModel(
        tracker_rot_sigma_rad=math.radians(args.tracker_rot_sigma_deg),
        tracker_trans_sigma_mm=args.tracker_trans_sigma,
        robot_rot_sigma_rad=math.radians(args.robot_rot_sigma_deg),
        robot_trans_sigma_mm=args.robot_trans_sigma,
    )
    if args.kind in ("ruso", "muso"):
        if args.plan is None:
            raise ParseError(f"simulate {args.kind} requires --plan")
        plan_file = parse_plan(_read(args.plan))
        if args.kind == "ruso":
            recording = synthesize_ruso_trial(
                rig,
                plan_file.plan,
                plan_file.policy,
                noise=noise,
                rate_hz=args.rate,
                seed=args.seed,
            )
        else:
            jitter = JitterModel(
                lateral_sigma_mm=args.lateral_sigma,
                depth_bias_mm=args.depth_bias,
                depth_sigma_mm=args.depth_sigma,
            )
            recording = synthesize_muso_trial(
                plan_file.plan, jitter=jitter, rate_hz=args.rate, seed=args.seed
            )
        output = functools.partial(serialize_trajectory_log, recording)
    elif args.kind == "pivot":
        poses = generate_pivot_dataset(
            rig,
            args.poses,
            cone_half_angle_rad=math.radians(args.cone_deg),
            noise=noise,
            seed=args.seed,
        )
        output = _pose_log((FrameId.OT, FrameId.TOOL, poses))
    elif args.kind == "handeye":
        he = generate_handeye_dataset(rig, args.poses, noise=noise, seed=args.seed)
        output = _pose_log((FrameId.S, FrameId.EE, he.robot), (FrameId.OT, FrameId.TOOL, he.tracker))
    else:
        tip = generate_tipcal_dataset(rig, args.poses, noise=noise, seed=args.seed)
        output = _pose_log(
            (FrameId.S, FrameId.EE, tip.robot), (FrameId.OT, FrameId.DIGITIZER, tip.digitizer)
        )
    if args.ground_truth_output:
        _write(
            dump_json(
                {
                    "base_from_tracker": _transform_to_dict(rig.base_from_tracker),
                    "ee_from_tool": _transform_to_dict(rig.ee_from_tool),
                    "tip_in_tool_mm": rig.tip_in_tool.tolist(),
                    "divot_in_tracker_mm": rig.divot_in_tracker.tolist(),
                    "seed": rig.seed,
                }
            ),
            args.ground_truth_output,
        )
    return output


def _cmd_report(args) -> str:
    reports = []
    for path in args.input:
        reports.extend(parse_report(_read(path)))
    return emit_report_table(reports, format=args.format)


def _checked(convert, ok, rule: str):
    """argparse type: convert the flag text, then require ``ok(value)``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid float value: 'abc'"
    return parse


_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "a non-negative finite number")
_COUNT = _checked(int, lambda n: n >= 1, "a positive integer")
_SEED = _checked(int, lambda n: n >= 0, "a non-negative integer")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose negative-number pattern also takes exponent
    notation and the negative infinities and NaN that ``float`` reads:
    argparse's own reads a value such as ``-2e0`` or ``-inf`` as an option,
    so the flag's own check never sees it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cutcal",
        description="Calibration and cut-trajectory analysis for tracked osteotomy tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate-handeye", help="solve base/tracker and EE/tool transforms")
    p.add_argument("--input", required=True, help="pose log CSV with (S,EE) and (OT,Tool) rows")
    p.add_argument("--output", help="solution JSON (default stdout)")
    p.add_argument(
        "--min-rotation-deg", type=_NON_NEGATIVE, default=math.degrees(DEFAULT_MIN_ROTATION)
    )
    p.add_argument("--pairing", choices=["consecutive", "all_pairs"], default="consecutive")
    p.set_defaults(func=_cmd_calibrate_handeye)

    p = sub.add_parser("calibrate-pivot", help="solve the tool tip offset from pivoting poses")
    p.add_argument("--input", required=True, help="pose log CSV with (OT,Tool) rows")
    p.add_argument("--output", help="solution JSON (default stdout)")
    p.set_defaults(func=_cmd_calibrate_pivot)

    p = sub.add_parser("calibrate-tip", help="solve the tip pose in the EE frame")
    p.add_argument("--input", required=True, help="pose log CSV with (S,EE) and (OT,Digitizer) rows")
    p.add_argument("--handeye", required=True, help="hand-eye solution JSON")
    p.add_argument("--max-spread-mm", type=_NON_NEGATIVE, default=DEFAULT_MAX_TIP_SPREAD_MM)
    p.add_argument("--output", help="solution JSON (default stdout)")
    p.set_defaults(func=_cmd_calibrate_tip)

    p = sub.add_parser("analyze", help="compute trial metrics from a trajectory log")
    p.add_argument("--traj", required=True, help="trajectory log CSV")
    p.add_argument("--plan", required=True, help="plan JSON")
    p.add_argument(
        "--label", type=TrialLabel.parse, default="X1.1", help="trial label, e.g. R1.3"
    )
    p.add_argument("--format", choices=["json", "text", "csv"], default="json")
    p.add_argument("--output", help="report file (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="generate synthetic logs with known ground truth")
    p.add_argument("kind", choices=["ruso", "muso", "handeye", "pivot", "tipcal"])
    p.add_argument("--plan", help="plan JSON (ruso/muso)")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--rate", type=_POSITIVE, default=10.0, help="sampling rate, Hz")
    p.add_argument("--poses", type=_COUNT, default=20, help="dataset size (handeye/pivot/tipcal)")
    p.add_argument("--cone-deg", type=_NON_NEGATIVE, default=30.0, help="pivot cone half-angle")
    p.add_argument("--tracker-rot-sigma-deg", type=_NON_NEGATIVE, default=0.0)
    p.add_argument("--tracker-trans-sigma", type=_NON_NEGATIVE, default=0.0, help="mm")
    p.add_argument("--robot-rot-sigma-deg", type=_NON_NEGATIVE, default=0.0)
    p.add_argument("--robot-trans-sigma", type=_NON_NEGATIVE, default=0.0, help="mm")
    muso = JitterModel()
    p.add_argument(
        "--lateral-sigma", type=_NON_NEGATIVE, default=muso.lateral_sigma_mm, help="muso tremor, mm"
    )
    p.add_argument(
        "--depth-bias", type=_FINITE, default=muso.depth_bias_mm, help="muso over-penetration, mm"
    )
    p.add_argument(
        "--depth-sigma", type=_NON_NEGATIVE, default=muso.depth_sigma_mm, help="muso depth spread, mm"
    )
    p.add_argument("--output", help="log file (default stdout)")
    p.add_argument("--ground-truth-output", help="also write the rig ground truth JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="aggregate trial reports into a summary table")
    p.add_argument("--input", required=True, nargs="+", help="report JSON file(s)")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--output", help="table file (default stdout)")
    p.set_defaults(func=_cmd_report)
    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every command of the process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.kind in ("handeye", "pivot") and args.poses < 3:
        parser.error(f"simulate {args.kind} needs --poses >= 3")
    try:
        # numpy overflows to inf or nan without a warning: each command rejects
        # a non-finite result as a CutcalError before anything is written
        with np.errstate(over="ignore", invalid="ignore"):
            _write(args.func(args), args.output)
    except CutcalError as e:
        sys.stderr.write(
            json.dumps({"error": type(e).__name__, "message": str(e)}, sort_keys=True) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
