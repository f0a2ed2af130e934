"""Aggregation of per-trial metrics into a summary table (text, CSV, JSON).

Trials group by experiment-set prefix of their label (every "R4.x" trial
feeds the "R4" row); each metric is reported as mean and sample standard
deviation over the set's trials, in the column order: target depth,
cutting speed, RMSE, length, procedure time, depth.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput, ParseError
from .logio import _number, dump_json, load_json
from .metrics import CutProfile, MetricsReport, TrialLabel

_METRIC_FIELDS = (
    ("rmse_mm", "RMSE (mm)"),
    ("executed_length_mm", "Length (mm)"),
    ("procedure_time_s", "Procedure Time (s)"),
    ("mean_depth_mm", "Depth (mm)"),
)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2 or np.ptp(arr) == 0.0:
        return mean, 0.0
    return mean, float(arr.std(ddof=1))


def summarize_sets(reports: list[MetricsReport]) -> list[dict]:
    """Per-set aggregate rows, ordered by set name."""
    if not reports:
        raise EmptyInput("no reports to aggregate")
    groups: dict[str, list[MetricsReport]] = {}
    for r in reports:
        groups.setdefault(r.trial_label.set_name, []).append(r)
    rows = []
    for set_name in sorted(groups):
        members = groups[set_name]
        row: dict = {
            "set": set_name,
            "trials": len(members),
            "target_depth_mm": float(np.mean([m.target_depth_mm for m in members])),
            "cutting_speed_mm_s": float(np.mean([m.cutting_speed_mm_s for m in members])),
        }
        for field, _ in _METRIC_FIELDS:
            mean, std = _mean_std([getattr(m, field) for m in members])
            row[f"{field}_mean"] = mean
            row[f"{field}_std"] = std
        rows.append(row)
    return rows


def emit_report_table(reports: list[MetricsReport], format: str = "text") -> str:
    """Render the aggregate table; format is 'text', 'csv' or 'json'."""
    rows = summarize_sets(reports)
    if format == "json":
        return dump_json(rows)
    if format == "csv":
        header = ["set", "trials", "target_depth_mm", "cutting_speed_mm_s"]
        for field, _ in _METRIC_FIELDS:
            header += [f"{field}_mean", f"{field}_std"]
        lines = [",".join(header)]
        for row in rows:
            cells = [row["set"], str(row["trials"])]
            cells += [repr(row["target_depth_mm"]), repr(row["cutting_speed_mm_s"])]
            for field, _ in _METRIC_FIELDS:
                cells += [repr(row[f"{field}_mean"]), repr(row[f"{field}_std"])]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if format == "text":
        headers = ["Set", "Trials", "Target Depth (mm)", "Cutting Speed (mm/s)"] + [
            label for _, label in _METRIC_FIELDS
        ]
        table = [headers]
        for row in rows:
            cells = [
                row["set"],
                str(row["trials"]),
                f"{row['target_depth_mm']:.2f}",
                f"{row['cutting_speed_mm_s']:.2f}",
            ]
            for field, _ in _METRIC_FIELDS:
                cells.append(f"{row[f'{field}_mean']:.2f} ± {row[f'{field}_std']:.2f}")
            table.append(cells)
        widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def report_to_dict(report: MetricsReport) -> dict:
    depths = [None if math.isnan(d) else d for d in report.profile.depths_mm.tolist()]
    return {
        "trial_label": str(report.trial_label),
        "target_depth_mm": report.target_depth_mm,
        "cutting_speed_mm_s": report.cutting_speed_mm_s,
        "rmse_mm": report.rmse_mm,
        "executed_length_mm": report.executed_length_mm,
        "procedure_time_s": report.procedure_time_s,
        "mean_depth_mm": report.mean_depth_mm,
        "mean_depth_strict_mm": report.mean_depth_strict_mm,
        "profile": {
            "bin_count": report.profile.bin_count,
            "bin_width_mm": report.profile.bin_width_mm,
            "depths_mm": depths,
            "coverage": report.profile.coverage,
        },
    }


def report_from_dict(doc: dict) -> MetricsReport:
    try:
        profile = doc["profile"]
        raw = profile["depths_mm"]
        depths = np.array(
            [math.nan if d is None else _number(raw, i, "profile.depths_mm") for i, d in enumerate(raw)]
        )
        bin_count = profile["bin_count"]
        if not isinstance(bin_count, int) or isinstance(bin_count, bool) or bin_count < 1:
            raise ParseError("profile.bin_count must be a positive integer")
        return MetricsReport(
            trial_label=TrialLabel.parse(doc["trial_label"]),
            target_depth_mm=_number(doc, "target_depth_mm", "report"),
            cutting_speed_mm_s=_number(doc, "cutting_speed_mm_s", "report"),
            rmse_mm=_number(doc, "rmse_mm", "report"),
            executed_length_mm=_number(doc, "executed_length_mm", "report"),
            procedure_time_s=_number(doc, "procedure_time_s", "report"),
            mean_depth_mm=_number(doc, "mean_depth_mm", "report"),
            mean_depth_strict_mm=_number(doc, "mean_depth_strict_mm", "report"),
            profile=CutProfile(
                bin_count=bin_count,
                bin_width_mm=_number(profile, "bin_width_mm", "profile"),
                depths_mm=depths,
                coverage=_number(profile, "coverage", "profile"),
            ),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid report document: {e}") from e


def serialize_report(report: MetricsReport) -> str:
    return dump_json(report_to_dict(report))


def parse_report(data: str | bytes) -> list[MetricsReport]:
    """Parse a report JSON file holding one report or a list of them."""
    doc = load_json(data)
    docs = doc if isinstance(doc, list) else [doc]
    return [report_from_dict(d) for d in docs]
