import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
from cutcal.errors import CutcalError, InvalidPolicy
from cutcal.metrics import GatePolicy, PlannedCut, TrajectoryRecording, build_report
from cutcal.planner import (
    MAX_SAMPLE_COUNT,
    CutSequence,
    PassPolicy,
    pass_depths,
    plan_sequence,
    sample_sequence,
)
from cutcal.simrig import random_rotation


def make_plan(length=100.0, target=4.0, speed=3.0, entry=(0.0, 0.0, 0.0)) -> PlannedCut:
    return PlannedCut(
        entry_point=entry,
        direction=[1.0, 0.0, 0.0],
        depth_axis=[0.0, 0.0, -1.0],
        length_mm=length,
        target_depth_mm=target,
        cutting_speed_mm_s=speed,
    )


def random_plan(rng) -> PlannedCut:
    r = random_rotation(rng)
    return PlannedCut(
        entry_point=rng.uniform(-100, 100, 3),
        direction=r[:, 0],
        depth_axis=r[:, 2],
        length_mm=float(rng.uniform(20.0, 150.0)),
        target_depth_mm=float(rng.uniform(1.0, 12.0)),
        cutting_speed_mm_s=float(rng.uniform(0.5, 5.0)),
    )


def one_pass(starts, ends, speeds) -> CutSequence:
    """A one-pass sequence from its insert, cut and retract moves."""
    return CutSequence(np.array([starts], float), np.array([ends], float), [speeds])


# The per-segment planner and sampler the stacked ones replaced, kept as the
# reference: one object per move, its duration float(norm(end - start)) / speed.


class RefSegment(NamedTuple):
    start: np.ndarray
    end: np.ndarray
    speed_mm_s: float
    tool_active: bool

    @property
    def duration_s(self) -> float:
        return float(np.linalg.norm(self.end - self.start)) / self.speed_mm_s


def reference_plan_sequence(plan: PlannedCut, policy: PassPolicy) -> list[RefSegment]:
    cutting_speed = (
        policy.cutting_speed_mm_s if policy.cutting_speed_mm_s is not None else plan.cutting_speed_mm_s
    )
    entry = plan.entry_point
    along = plan.direction * plan.length_mm
    down = plan.depth_axis
    count = max(1, math.ceil(plan.target_depth_mm / policy.depth_increment_mm - 1e-9))
    segments = []
    for k in range(count):
        depth = min((k + 1) * policy.depth_increment_mm, plan.target_depth_mm)
        reverse = policy.bidirectional and k % 2 == 1
        start_surface = entry + along if reverse else entry
        end_surface = entry if reverse else entry + along
        floor = start_surface + depth * down
        cut_end = end_surface + depth * down
        segments += [
            RefSegment(start_surface, floor, policy.insertion_speed_mm_s, True),
            RefSegment(floor, cut_end, cutting_speed, True),
            RefSegment(
                cut_end,
                end_surface - policy.retract_clearance_mm * down,
                policy.retraction_speed_mm_s,
                False,
            ),
        ]
    return segments


def reference_sample_sequence(segments: list[RefSegment], rate_hz: float) -> TrajectoryRecording:
    times, points, active = [], [], []
    t0 = 0.0
    first = True
    for seg in segments:
        duration = seg.duration_s
        if duration <= 0.0:
            continue
        n = max(2, round(duration * rate_hz))
        local = np.linspace(0.0, duration, n)
        pts = seg.start + (local / duration)[:, None] * (seg.end - seg.start)
        flags = np.full(n, seg.tool_active)
        if not first:
            local, pts, flags = local[1:], pts[1:], flags[1:]
        times.append(t0 + local)
        points.append(pts)
        active.append(flags)
        t0 += duration
        first = False
    return TrajectoryRecording(np.concatenate(times), np.vstack(points), np.concatenate(active))


PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


class TestPassPolicy:
    def test_rejects_zero_increment(self):
        with pytest.raises(InvalidPolicy):
            PassPolicy(depth_increment_mm=0.0)

    def test_rejects_negative_speed(self):
        with pytest.raises(InvalidPolicy):
            PassPolicy(depth_increment_mm=4.0, insertion_speed_mm_s=-1.0)


class TestCutSequence:
    def test_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError, match="same passes"):
            CutSequence(np.zeros((2, 3, 3)), np.ones((2, 3, 3)), np.ones((1, 3)))

    def test_rejects_empty_and_non_positive_speeds(self):
        with pytest.raises(ValueError, match="at least one pass"):
            CutSequence(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="positive"):
            one_pass(np.zeros((3, 3)), np.ones((3, 3)), [1.0, 0.0, 1.0])


class TestPlanSequence:
    def test_single_pass_when_increment_equals_target(self):
        seq = plan_sequence(make_plan(target=4.0), PassPolicy(depth_increment_mm=4.0))
        assert len(seq) == 1

    def test_two_passes_for_eight_with_four(self):
        seq = plan_sequence(make_plan(target=8.0), PassPolicy(depth_increment_mm=4.0))
        assert len(seq) == 2

    def test_three_passes_with_final_clamp(self):
        seq = plan_sequence(make_plan(target=8.0), PassPolicy(depth_increment_mm=3.0))
        plan = make_plan(target=8.0)
        depths = (seq.starts[:, 1] - plan.entry_point) @ plan.depth_axis
        np.testing.assert_allclose(depths, [3.0, 6.0, 8.0], atol=1e-12)

    def test_increment_larger_than_target_rejected(self):
        with pytest.raises(InvalidPolicy):
            plan_sequence(make_plan(target=4.0), PassPolicy(depth_increment_mm=5.0))

    def test_invariants_hold(self, rng):
        for _ in range(20):
            plan = random_plan(rng)
            increment = float(rng.uniform(0.2, 1.0)) * plan.target_depth_mm
            policy = PassPolicy(depth_increment_mm=increment)
            seq = plan_sequence(plan, policy)
            rel = seq.starts[:, 1] - plan.entry_point
            depths = rel @ plan.depth_axis
            # cut start sits on the plan line offset by the pass depth
            assert np.all(np.abs(rel @ plan.direction) < 1e-9)
            assert np.all(np.linalg.norm(rel - depths[:, None] * plan.depth_axis, axis=1) < 1e-9)
            # cut runs the full planned length
            np.testing.assert_allclose(
                seq.ends[:, 1] - seq.starts[:, 1],
                np.broadcast_to(plan.direction * plan.length_mm, (len(seq), 3)),
                atol=1e-9,
            )
            # each move starts where the one before it ended, within a pass
            np.testing.assert_array_equal(seq.starts[:, 1:], seq.ends[:, :-1])
            np.testing.assert_array_equal(
                seq.speeds_mm_s,
                np.broadcast_to(
                    [policy.insertion_speed_mm_s, plan.cutting_speed_mm_s, policy.retraction_speed_mm_s],
                    (len(seq), 3),
                ),
            )
            assert np.all(np.diff(depths) > 0)
            assert abs(depths[-1] - plan.target_depth_mm) < 1e-9

    def test_bidirectional_alternates_cut_direction(self):
        plan = make_plan(target=8.0)
        seq = plan_sequence(
            plan, PassPolicy(depth_increment_mm=3.0, bidirectional=True)
        )
        cuts = seq.ends[:, 1] - seq.starts[:, 1]
        assert np.sign(cuts @ plan.direction).tolist() == [1.0, -1.0, 1.0]
        # reverse passes still run the full length on the plan line
        np.testing.assert_allclose(np.linalg.norm(cuts, axis=1), plan.length_mm, atol=1e-9)

    def test_bidirectional_roundtrip_identity(self, rng):
        plan = random_plan(rng)
        increment = plan.target_depth_mm / 2.5
        seq = plan_sequence(plan, PassPolicy(depth_increment_mm=increment, bidirectional=True))
        rec = sample_sequence(seq, 60.0)
        report = build_report(rec, plan, 50, "R1.1")
        assert report.rmse_mm < 1e-9
        assert abs(report.mean_depth_mm - plan.target_depth_mm) < 1e-9
        assert abs(report.executed_length_mm - plan.length_mm) < 1e-9

    def test_pass_count_matches_ceil(self, rng):
        for _ in range(200):
            target = float(rng.uniform(0.5, 20.0))
            increment = float(rng.uniform(0.05, 1.0)) * target
            depths = pass_depths(target, increment)
            assert len(depths) == math.ceil(target / increment - 1e-9)
            assert abs(depths[-1] - target) < 1e-12

    @PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.15, 1.0),
        bidirectional=st.booleans(),
        own_cutting_speed=st.booleans(),
        rate_hz=st.floats(0.5, 1000.0),
    )
    def test_stacks_and_samples_equal_the_per_segment_reference(
        self, seed, fraction, bidirectional, own_cutting_speed, rate_hz
    ):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        policy = PassPolicy(
            depth_increment_mm=fraction * plan.target_depth_mm,
            insertion_speed_mm_s=float(rng.uniform(0.5, 4.0)),
            retraction_speed_mm_s=float(rng.uniform(2.0, 20.0)),
            cutting_speed_mm_s=float(rng.uniform(0.5, 5.0)) if own_cutting_speed else None,
            retract_clearance_mm=float(rng.uniform(1.0, 10.0)),
            bidirectional=bidirectional,
        )
        seq = plan_sequence(plan, policy)
        segments = reference_plan_sequence(plan, policy)
        assert 3 * len(seq) == len(segments)
        for name, got in (("start", seq.starts), ("end", seq.ends), ("speed_mm_s", seq.speeds_mm_s)):
            want = np.array([getattr(s, name) for s in segments], dtype=np.float64)
            assert got.reshape(want.shape).tobytes() == want.tobytes(), name
        assert seq.durations_s.ravel().tolist() == [s.duration_s for s in segments]
        got, want = sample_sequence(seq, rate_hz), reference_sample_sequence(segments, rate_hz)
        for name in ("timestamps", "points", "tool_active"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestPassCountBound:
    def test_deep_plan_rejected_before_allocating(self):
        # 1e9 passes of 1 um: nothing per pass is built before the error
        plan = make_plan(target=1e6)
        policy = PassPolicy(depth_increment_mm=1e-3)

        def attempt():
            with pytest.raises(InvalidPolicy, match="passes") as exc:
                plan_sequence(plan, policy)
            assert isinstance(exc.value, CutcalError)

        assert peak_traced_bytes(attempt) < 2**20

    def test_bound_is_six_samples_a_pass(self):
        limit = MAX_SAMPLE_COUNT // 6  # three moves a pass, two samples at least each
        assert 6 * limit <= MAX_SAMPLE_COUNT < 6 * (limit + 1)
        assert len(pass_depths(float(limit), 1.0)) == limit
        with pytest.raises(InvalidPolicy):
            pass_depths(float(limit + 1), 1.0)

    def test_quotient_overflow_is_a_policy_error(self):
        with pytest.raises(InvalidPolicy):
            pass_depths(1e300, 1e-300)


class TestNominalTimeline:
    def test_single_pass_active_time(self):
        # 4 mm insert at 2 mm/s plus 100 mm cut at 3 mm/s
        plan = make_plan(target=4.0, speed=3.0)
        policy = PassPolicy(depth_increment_mm=4.0, insertion_speed_mm_s=2.0)
        durations = plan_sequence(plan, policy).durations_s
        assert durations.shape == (1, 3)
        active = durations[:, :2].sum()
        assert abs(active - (100.0 / 3.0 + 2.0)) < 1e-9
        assert abs(active - 35.33) < 0.01

    def test_zero_length_cut_contributes_nothing(self):
        entry = np.zeros(3)
        floor = np.array([0.0, 0.0, -4.0])
        lifted = entry + [0, 0, 5.0]
        durations = one_pass([entry, floor, floor], [floor, floor, lifted], [2.0, 3.0, 10.0]).durations_s
        assert durations[0, 1] == 0.0
        assert abs(durations[:, :2].sum() - 2.0) < 1e-12

    def test_two_pass_cutting_time(self):
        plan = make_plan(target=8.0, speed=3.0)
        durations = plan_sequence(plan, PassPolicy(depth_increment_mm=4.0)).durations_s
        assert abs(durations[:, 1].sum() - 200.0 / 3.0) < 1e-9
        assert durations[:, 0].sum() > 0.0 and durations[:, 2].sum() > 0.0


class TestSampleSequence:
    def test_sample_count_at_rate(self):
        # one live 10 mm / 1 mm/s move sampled at 10 Hz spans 10 s
        end = [10.0, 0.0, 0.0]
        single = one_pass([np.zeros(3), np.zeros(3), end], [np.zeros(3), end, end], [1.0, 1.0, 1.0])
        rec = sample_sequence(single, 10.0)
        assert len(rec) == 100
        assert abs(rec.timestamps[-1] - 10.0) < 1e-12
        assert rec.tool_active.all()

    def test_endpoints_always_included(self):
        end = [0.4, 0.0, 0.0]
        seq = one_pass([np.zeros(3), np.zeros(3), end], [np.zeros(3), end, end], [1.0, 1.0, 1.0])
        rec = sample_sequence(seq, 1.0)  # sub-second move at 1 Hz
        assert len(rec) == 2
        np.testing.assert_allclose(rec.points[0], [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(rec.points[-1], [0.4, 0.0, 0.0], atol=1e-12)

    def test_the_samples_are_held_once(self):
        # the recording's arrays are the only whole-trial buffers: per-move
        # lists joined at the end would hold every sample twice
        plan = make_plan(target=8.0, speed=3.0)
        seq = plan_sequence(plan, PassPolicy(depth_increment_mm=4.0))
        peak = peak_traced_bytes(lambda: sample_sequence(seq, 1000.0))
        samples = len(sample_sequence(seq, 1000.0))
        assert samples > 50_000
        assert peak < 1.5 * samples * (8 + 3 * 8 + 1)

    def test_retract_samples_are_tool_off(self):
        plan = make_plan(target=8.0, speed=3.0)
        rec = sample_sequence(plan_sequence(plan, PassPolicy(depth_increment_mm=4.0)), 10.0)
        off = ~rec.tool_active
        above = (rec.points - plan.entry_point) @ plan.depth_axis < 0.0
        # retraction lifts at the far end, and nothing else leaves the material
        assert off.any() and above.any() and not rec.tool_active[above].any()
        np.testing.assert_array_equal(rec.points[off, 0], plan.length_mm)

    def test_timestamps_strictly_increasing(self, rng):
        plan = random_plan(rng)
        seq = plan_sequence(plan, PassPolicy(depth_increment_mm=plan.target_depth_mm / 3))
        rec = sample_sequence(seq, 37.0)
        assert np.all(np.diff(rec.timestamps) > 0)

    def test_full_plan_metrics_identity_at_60hz(self):
        plan = make_plan(target=4.0, speed=3.0)
        rec = sample_sequence(plan_sequence(plan, PassPolicy(depth_increment_mm=4.0)), 60.0)
        report = build_report(rec, plan, 100, "R3.1")
        assert report.rmse_mm < 1e-9
        assert abs(report.mean_depth_mm - 4.0) < 1e-9
        assert abs(report.executed_length_mm - 100.0) < 1e-9


class TestRoundTrip:
    def test_planner_sampler_metrics_identity(self, rng):
        for _ in range(20):
            plan = random_plan(rng)
            increment = float(rng.uniform(0.25, 1.0)) * plan.target_depth_mm
            seq = plan_sequence(plan, PassPolicy(depth_increment_mm=increment))
            rec = sample_sequence(seq, 60.0)
            report = build_report(rec, plan, 50, "R1.1", gate=GatePolicy())
            assert report.rmse_mm < 1e-9
            assert abs(report.mean_depth_mm - plan.target_depth_mm) < 1e-9
            assert abs(report.executed_length_mm - plan.length_mm) < 1e-9

    def test_no_sample_deeper_than_target(self, rng):
        for _ in range(20):
            plan = random_plan(rng)
            increment = float(rng.uniform(0.2, 0.9)) * plan.target_depth_mm
            seq = plan_sequence(plan, PassPolicy(depth_increment_mm=increment))
            rec = sample_sequence(seq, 45.0)
            depths = (rec.points - plan.entry_point) @ plan.depth_axis
            assert depths.max() <= plan.target_depth_mm + 1e-9
