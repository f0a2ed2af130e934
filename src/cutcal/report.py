"""Aggregation of per-trial metrics into a summary table (text, CSV, JSON).

Trials group by experiment-set prefix of their label (every "R4.x" trial
feeds the "R4" row). A row gives the mean target depth and cutting speed of
the set's trials, then the mean and sample standard deviation of RMSE,
length, procedure time and depth.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .errors import CutcalError, EmptyInput, ParseError
from .logio import _field_keys, _fields_doc, _number, _require_present, dump_json, load_json
from .metrics import CutProfile, MetricsReport, TrialLabel

# the summary's columns after set and trials: report field, text header, and
# whether the table gives the spread (a _mean and a _std column) or the mean
_COLUMNS = (
    ("target_depth_mm", "Target Depth (mm)", False),
    ("cutting_speed_mm_s", "Cutting Speed (mm/s)", False),
    ("rmse_mm", "RMSE (mm)", True),
    ("executed_length_mm", "Length (mm)", True),
    ("procedure_time_s", "Procedure Time (s)", True),
    ("mean_depth_mm", "Depth (mm)", True),
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
    for set_name, members in sorted(groups.items()):
        row: dict = {"set": set_name, "trials": len(members)}
        for field, _, spread in _COLUMNS:
            values = [getattr(m, field) for m in members]
            if spread:
                row[f"{field}_mean"], row[f"{field}_std"] = _mean_std(values)
            else:
                row[field] = float(np.mean(values))
        rows.append(row)
    return rows


def emit_report_table(reports: list[MetricsReport], format: str = "text") -> str:
    """Render the aggregate table; format is 'text', 'csv' or 'json'.

    Raises:
        CutcalError: an aggregate is NaN or infinite (a sum overflowed), which
            no format may carry.
    """
    rows = summarize_sets(reports)
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CutcalError(
                    f"output holds a non-finite number: {key} of set {row['set']} is {value!r}"
                )
    if format == "json":
        return dump_json(rows)
    if format == "csv":
        # str of a float is its repr, so the CSV holds the JSON's numbers
        lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
        return "\n".join(lines) + "\n"
    if format == "text":
        table = [["Set", "Trials"]] + [[row["set"], str(row["trials"])] for row in rows]
        for field, label, spread in _COLUMNS:
            table[0].append(label)
            for cells, row in zip(table[1:], rows):
                values = (row[f"{field}_mean"], row[f"{field}_std"]) if spread else (row[field],)
                cells.append(" ± ".join(f"{v:.2f}" for v in values))
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def report_to_dict(report: MetricsReport) -> dict:
    """The JSON object of a report. Its keys are the field names of
    MetricsReport, and those of ``profile`` the field names of CutProfile.
    The label is its text, and a profile bin no sample reached is null."""
    profile = _fields_doc(report.profile)
    profile["depths_mm"] = [None if math.isnan(d) else d for d in profile["depths_mm"]]
    return {**_fields_doc(report), "trial_label": str(report.trial_label), "profile": profile}


def _numbers(cls, doc, where: str) -> dict:
    """The float fields of ``cls`` read from the JSON object ``doc``, in field order."""
    return {f.name: _number(doc, f.name, where) for f in fields(cls) if f.type == "float"}


def report_from_dict(doc: dict) -> MetricsReport:
    """The report of a JSON object as report_to_dict writes it; keys that are
    not field names are ignored. The report's and the profile's keys are
    checked first, then the depth profile, the label and the numbers."""
    if not isinstance(doc, dict):
        raise ParseError("report document must be a JSON object")
    _require_present(doc, _field_keys(MetricsReport), "report")
    profile = doc["profile"]
    if not isinstance(profile, dict):
        raise ParseError("report.profile must be an object")
    _require_present(profile, _field_keys(CutProfile), "profile")
    raw = profile["depths_mm"]
    if not isinstance(raw, list):
        raise ParseError("profile.depths_mm must be a list")
    depths = [
        math.nan if d is None else _number(raw, i, "profile.depths_mm") for i, d in enumerate(raw)
    ]
    bin_count = profile["bin_count"]
    if not isinstance(bin_count, int) or isinstance(bin_count, bool) or bin_count < 1:
        raise ParseError("profile.bin_count must be a positive integer")
    if not isinstance(doc["trial_label"], str):
        raise ParseError("report.trial_label must be a string")
    try:
        label = TrialLabel.parse(doc["trial_label"])
        numbers = _numbers(MetricsReport, doc, "report")
        profile = CutProfile(bin_count, depths_mm=depths, **_numbers(CutProfile, profile, "profile"))
        return MetricsReport(label, **numbers, profile=profile)
    except ValueError as e:
        raise ParseError(f"invalid report document: {e}") from e


def serialize_report(report: MetricsReport) -> str:
    return dump_json(report_to_dict(report))


def parse_report(data: str | bytes) -> list[MetricsReport]:
    """Parse a report JSON file holding one report or a list of them."""
    doc = load_json(data)
    docs = doc if isinstance(doc, list) else [doc]
    return [report_from_dict(d) for d in docs]
