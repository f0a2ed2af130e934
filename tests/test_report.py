import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutcal.errors import EmptyInput, ParseError
from cutcal.metrics import CutProfile, MetricsReport, TrialLabel
from cutcal.report import (
    emit_report_table,
    parse_report,
    report_to_dict,
    serialize_report,
    summarize_sets,
)


def make_report(label="R4.1", rmse=0.09, length=102.2, time_s=90.33, depth=8.06) -> MetricsReport:
    return MetricsReport(
        trial_label=TrialLabel.parse(label),
        target_depth_mm=8.0,
        cutting_speed_mm_s=3.0,
        rmse_mm=rmse,
        executed_length_mm=length,
        procedure_time_s=time_s,
        mean_depth_mm=depth,
        mean_depth_strict_mm=depth,
        profile=CutProfile(4, 25.0, np.array([depth, depth, np.nan, depth]), 0.75),
    )


class TestSummarize:
    def test_identical_reports_zero_std(self):
        rows = summarize_sets([make_report(f"R4.{i}") for i in (1, 2, 3)])
        assert len(rows) == 1
        row = rows[0]
        assert row["set"] == "R4" and row["trials"] == 3
        for field in ("rmse_mm", "executed_length_mm", "procedure_time_s", "mean_depth_mm"):
            assert row[f"{field}_std"] == 0.0

    def test_grouping_by_set_prefix(self):
        reports = [make_report("R4.1"), make_report("R4.2"), make_report("M1.1", rmse=1.1)]
        rows = summarize_sets(reports)
        assert [r["set"] for r in rows] == ["M1", "R4"]
        assert rows[0]["trials"] == 1 and rows[1]["trials"] == 2

    def test_mean_std_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        reports = [
            make_report(f"R4.{i + 1}", rmse=float(rng.uniform(0.05, 0.2))) for i in range(7)
        ]
        row = summarize_sets(reports)[0]
        values = [r.rmse_mm for r in reports]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert abs(row["rmse_mm_mean"] - mean) < 1e-12
        assert abs(row["rmse_mm_std"] - math.sqrt(var)) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            summarize_sets([])


class TestEmitFormats:
    def test_text_has_table_columns(self):
        text = emit_report_table([make_report()], format="text")
        for column in ("Set", "Target Depth (mm)", "Cutting Speed (mm/s)", "RMSE (mm)",
                       "Length (mm)", "Procedure Time (s)", "Depth (mm)"):
            assert column in text

    def test_csv_json_carry_identical_values(self):
        reports = [make_report("R4.1", rmse=0.0901), make_report("R4.2", rmse=0.132)]
        csv_text = emit_report_table(reports, format="csv")
        json_rows = json.loads(emit_report_table(reports, format="json"))
        header, row = csv_text.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        for key, value in json_rows[0].items():
            if isinstance(value, float):
                assert float(cells[key]) == value
            else:
                assert str(value) == cells[key]

    def test_csv_header_is_the_json_row_keys(self):
        reports = [make_report("R4.1"), make_report("M1.1", rmse=1.1)]
        header = emit_report_table(reports, format="csv").split("\n")[0].split(",")
        for row in json.loads(emit_report_table(reports, format="json")):
            assert sorted(header) == list(row)  # JSON keys are sorted

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report_table([make_report()], format="yaml")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def reports(draw) -> MetricsReport:
    """Valid reports: any label, finite numbers (non-negative metrics but for
    the signed depth means) and profiles with any mix of depths and NaN bins."""
    bin_count = draw(st.integers(1, 40))
    return MetricsReport(
        trial_label=TrialLabel(
            draw(st.from_regex(r"[A-Za-z]+[0-9]*", fullmatch=True)), draw(st.integers(0, 10**9))
        ),
        target_depth_mm=draw(FINITE),
        cutting_speed_mm_s=draw(FINITE),
        rmse_mm=draw(NON_NEGATIVE),
        executed_length_mm=draw(NON_NEGATIVE),
        procedure_time_s=draw(NON_NEGATIVE),
        mean_depth_mm=draw(FINITE),
        mean_depth_strict_mm=draw(FINITE),
        profile=CutProfile(
            bin_count,
            draw(FINITE),
            draw(st.lists(st.just(math.nan) | FINITE, min_size=bin_count, max_size=bin_count)),
            draw(FINITE),
        ),
    )


def float_bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestReportSerialization:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(reports())
    @example(make_report())
    def test_roundtrip_preserves_values_and_nans(self, report):
        text = serialize_report(report)
        (back,) = parse_report(text)
        assert back.trial_label == report.trial_label
        for name in (
            "target_depth_mm", "cutting_speed_mm_s", "rmse_mm", "executed_length_mm",
            "procedure_time_s", "mean_depth_mm", "mean_depth_strict_mm",
        ):
            assert float_bits(getattr(back, name)) == float_bits(getattr(report, name)), name
        got, want = back.profile, report.profile
        assert got.bin_count == want.bin_count
        assert float_bits(got.bin_width_mm) == float_bits(want.bin_width_mm)
        assert float_bits(got.coverage) == float_bits(want.coverage)
        missing = np.isnan(want.depths_mm)
        np.testing.assert_array_equal(np.isnan(got.depths_mm), missing)
        assert got.depths_mm[~missing].tobytes() == want.depths_mm[~missing].tobytes()
        assert serialize_report(back) == text

    def test_keys_are_the_field_names(self):
        doc = json.loads(serialize_report(make_report()))
        assert set(doc) == {f.name for f in fields(MetricsReport)}
        assert set(doc["profile"]) == {f.name for f in fields(CutProfile)}

    def test_parse_report_accepts_single_and_list(self):
        single = serialize_report(make_report())
        assert len(parse_report(single)) == 1
        as_list = json.dumps([report_to_dict(make_report()), report_to_dict(make_report("R4.2"))])
        assert len(parse_report(as_list)) == 2

    def test_parse_report_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_report("{nope")
        with pytest.raises(ParseError):
            parse_report('{"trial_label": "R1.1"}')
        good = report_to_dict(make_report())
        bad_values = [
            ("rmse_mm", "nan"), ("rmse_mm", math.nan), ("rmse_mm", math.inf), ("rmse_mm", True),
            ("rmse_mm", None), ("rmse_mm", 10**400), ("target_depth_mm", "1e400"),
        ]
        bad_profiles = [
            ("bin_count", 4.0), ("bin_count", True), ("bin_count", 0), ("bin_count", "4"),
            ("depths_mm", [1.0, "x", None, 1.0]), ("depths_mm", [1.0, math.nan, None, 1.0]),
            ("coverage", math.inf), ("bin_width_mm", "25"),
        ]
        docs = [{**good, key: value} for key, value in bad_values]
        docs += [{**good, "profile": {**good["profile"], k: v}} for k, v in bad_profiles]
        for doc in docs:
            with pytest.raises(ParseError):
                parse_report(json.dumps(doc))
        with pytest.raises(ParseError):
            parse_report(json.dumps(good).replace("0.09", "1e400"))
        assert len(parse_report(json.dumps(good))) == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: {k: v for k, v in d.items() if k != "rmse_mm"},
             "missing key(s) ['rmse_mm'] in report"),
            (lambda d: [[d]], "report document must be a JSON object"),
            (lambda d: {**d, "profile": [d["profile"]]}, "report.profile must be an object"),
            (lambda d: {**d, "profile": {}},
             "missing key(s) ['bin_count', 'bin_width_mm', 'depths_mm', 'coverage'] in profile"),
            (lambda d: {**d, "profile": {**d["profile"], "depths_mm": 4}},
             "profile.depths_mm must be a list"),
            (lambda d: {**d, "trial_label": 4}, "report.trial_label must be a string"),
        ],
        ids=["missing-key", "list-in-list", "profile-list", "profile-empty", "depths-number",
             "numeric-label"],
    )
    def test_malformed_document_says_what_is_wrong(self, edit, message):
        doc = edit(report_to_dict(make_report()))
        with pytest.raises(ParseError) as caught:
            parse_report(json.dumps(doc))
        assert str(caught.value) == message
