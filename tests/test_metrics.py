import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rigid
from cutcal.errors import EmptyAfterGating, EmptyInput, EmptyProfile
from cutcal.metrics import (
    CutProfile,
    GatePolicy,
    MetricsReport,
    PlannedCut,
    TrajectoryRecording,
    TrialLabel,
    build_report,
    depth_profile,
    executed_length,
    mean_depth,
    mean_depth_strict,
    perpendicular_errors,
    procedure_time,
    trajectory_rmse,
)
from cutcal.simrig import random_rotation


def xz_plan(length=100.0, target=4.0, speed=3.0) -> PlannedCut:
    # cut along +x, depth along -z, lateral deviation along +y
    return PlannedCut(
        entry_point=np.zeros(3),
        direction=[1.0, 0.0, 0.0],
        depth_axis=[0.0, 0.0, -1.0],
        length_mm=length,
        target_depth_mm=target,
        cutting_speed_mm_s=speed,
    )


def recording(points, active=None, t0=0.0, dt=0.1) -> TrajectoryRecording:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if active is None:
        active = np.ones(n, dtype=bool)
    times = t0 + dt * np.arange(n)
    return TrajectoryRecording(times, points, np.asarray(active, dtype=bool))


def brute_force_profile(rec, plan, bin_count):
    # independent oracle for the binning and deepest-per-bin semantics: a
    # pure-python linear scan with comparison-based bin membership. The
    # projections reuse the same vectorized arithmetic as the implementation
    # so value comparisons can be bit-exact.
    rel = rec.points - plan.entry_point
    s_all = rel @ plan.direction
    d_all = rel @ plan.depth_axis
    width = plan.length_mm / bin_count
    depths = [None] * bin_count
    for s, d in zip(s_all.tolist(), d_all.tolist()):
        if s < 0.0 or s > plan.length_mm:
            continue
        j = 0
        while j < bin_count - 1 and not (j * width <= s < (j + 1) * width):
            j += 1  # anything not claimed by an interior bin lands in the last (closed) bin
        if depths[j] is None or d > depths[j]:
            depths[j] = d
    return depths


class TestPlannedCut:
    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            PlannedCut(np.zeros(3), [2, 0, 0], [0, 0, 1], 100, 4, 3)

    def test_rejects_non_perpendicular_axes(self):
        with pytest.raises(ValueError):
            PlannedCut(np.zeros(3), [1, 0, 0], [1e-3, 0, 1], 100, 4, 3)

    def test_rejects_non_positive_scalars(self):
        with pytest.raises(ValueError):
            PlannedCut(np.zeros(3), [1, 0, 0], [0, 0, 1], 0.0, 4, 3)

    def test_lateral_axis_is_unit_normal(self):
        plan = xz_plan()
        np.testing.assert_allclose(plan.lateral_axis, [0.0, 1.0, 0.0], atol=1e-12)


class TestTrajectoryRecording:
    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            TrajectoryRecording([0.0], [[0, 0, 0]], [True])

    def test_rejects_non_monotone_timestamps(self):
        with pytest.raises(ValueError):
            TrajectoryRecording([0.0, 0.0], [[0, 0, 0], [1, 0, 0]], [True, True])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TrajectoryRecording([0.0, 1.0], [[0, 0, 0], [np.nan, 0, 0]], [True, True])


class TestPerpendicularErrors:
    def test_on_line_is_zero(self):
        plan = xz_plan()
        rec = recording([[s, 0, 0] for s in (0.0, 30.0, 60.0, 100.0)])
        np.testing.assert_array_equal(perpendicular_errors(rec, plan), np.zeros(4))

    def test_lateral_offsets_give_point_line_distances(self):
        plan = xz_plan()
        rec = recording([[10.0, 1.0, 0.0], [50.0, 2.0, 0.0], [90.0, -2.0, 0.0]])
        np.testing.assert_allclose(perpendicular_errors(rec, plan), [1.0, 2.0, 2.0], atol=1e-12)

    def test_all_inactive_raises_under_active_gate(self):
        plan = xz_plan()
        rec = recording([[10, 0, 0], [20, 0, 0]], active=[False, False])
        with pytest.raises(EmptyAfterGating):
            perpendicular_errors(rec, plan)
        # the permissive gate keeps them
        assert len(perpendicular_errors(rec, plan, GatePolicy(active_only=False))) == 2

    def test_s_window_drops_parked_samples(self):
        plan = xz_plan()
        rec = recording([[-50.0, 3.0, 0.0], [10.0, 1.0, 0.0], [150.0, 3.0, 0.0]])
        np.testing.assert_allclose(perpendicular_errors(rec, plan), [1.0], atol=1e-12)

    def test_lateral_mode_ignores_depth_line3d_includes_it(self):
        plan = xz_plan()
        rec = recording([[50.0, 3.0, -4.0], [60.0, 3.0, -4.0]])
        np.testing.assert_allclose(perpendicular_errors(rec, plan), [3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(
            perpendicular_errors(rec, plan, lateral_mode="line3d"), [5.0, 5.0], atol=1e-12
        )


class TestTrajectoryRmse:
    def test_zeros(self):
        assert trajectory_rmse([0.0, 0.0, 0.0]) == 0.0

    def test_hand_computed_value(self):
        assert abs(trajectory_rmse([1.0, 2.0, 2.0]) - math.sqrt(3.0)) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            trajectory_rmse([])

    def test_iid_noise_scale_matches_sigma(self):
        # lateral sigma 0.11 over 10^4 on-line samples: rmse within 0.01
        rng = np.random.default_rng(7)
        plan = xz_plan()
        n = 10_000
        s = np.linspace(0, 100, n)
        pts = np.column_stack([s, rng.normal(0, 0.11, n), np.zeros(n)])
        rec = TrajectoryRecording(np.arange(n) * 0.01, pts, np.ones(n, bool))
        rmse = trajectory_rmse(perpendicular_errors(rec, plan))
        assert abs(rmse - 0.11) < 0.01

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
            min_size=2,
            max_size=40,
        ),
        st.integers(0, 2**32 - 1).map(lambda seed: random_rigid(np.random.default_rng(seed), 1e3)),
    )
    def test_rigid_invariance(self, points, g):
        plan = xz_plan()  # x runs along the cut: every sample is in the gate
        rec = TrajectoryRecording(np.arange(len(points), dtype=float), points, [True] * len(points))
        base = trajectory_rmse(perpendicular_errors(rec, plan))
        moved = trajectory_rmse(perpendicular_errors(rec.transformed(g), plan.transformed(g)))
        assert abs(base - moved) < 1e-9


class TestExecutedLength:
    def test_full_span(self):
        plan = xz_plan()
        rec = recording([[s, 0, 0] for s in np.linspace(0, 100, 11)])
        assert abs(executed_length(rec, plan) - 100.0) < 1e-12

    def test_overshoot_span(self):
        plan = xz_plan()
        rec = recording([[-0.5, 0, 0], [40, 0, 0], [101.3, 0, 0]])
        assert abs(executed_length(rec, plan) - 101.8) < 1e-12

    def test_single_surviving_sample_is_zero(self):
        plan = xz_plan()
        rec = recording([[50, 0, 0], [200, 0, 0]], active=[True, True])
        assert executed_length(rec, plan) == 0.0

    def test_invariant_under_reorder_and_duplication(self, rng):
        plan = xz_plan()
        s = rng.uniform(0, 100, 30)
        pts = np.column_stack([s, np.zeros(30), np.zeros(30)])
        rec = recording(pts)
        base = executed_length(rec, plan)
        order = rng.permutation(30)
        dup = np.vstack([pts[order], pts[:5]])
        rec2 = recording(dup)
        assert abs(executed_length(rec2, plan) - base) < 1e-12


class TestProcedureTime:
    def test_single_run(self):
        rec = recording([[0, 0, 0]] * 46, active=[True] * 46, dt=1.0)
        assert abs(procedure_time(rec) - 45.0) < 1e-12

    def test_two_runs_with_idle_gap(self):
        # oracle: sum of per-run (last - first) intervals
        times, active = [], []
        t = 0.0
        for _ in range(334):  # 33.3 s active at 0.1 s
            times.append(t), active.append(True)
            t += 0.1
        for _ in range(100):  # 10 s idle
            times.append(t), active.append(False)
            t += 0.1
        for _ in range(334):
            times.append(t), active.append(True)
            t += 0.1
        rec = TrajectoryRecording(np.array(times), np.zeros((len(times), 3)), np.array(active))
        assert abs(procedure_time(rec) - 66.6) < 1e-9

    def test_never_active(self):
        rec = recording([[0, 0, 0]] * 5, active=[False] * 5)
        assert procedure_time(rec) == 0.0

    def test_invariant_to_sample_density_within_runs(self):
        sparse = TrajectoryRecording(
            np.array([0.0, 10.0, 11.0, 20.0]),
            np.zeros((4, 3)),
            np.array([True, True, False, False]),
        )
        dense_times = np.concatenate([np.linspace(0.0, 10.0, 101), [11.0, 20.0]])
        dense_active = np.concatenate([np.ones(101, bool), [False, False]])
        dense = TrajectoryRecording(dense_times, np.zeros((103, 3)), dense_active)
        assert abs(procedure_time(sparse) - procedure_time(dense)) < 1e-12


class TestDepthProfile:
    def test_constant_depth_full_coverage(self):
        plan = xz_plan()
        pts = [[s, 0.0, -4.0] for s in np.linspace(0, 100, 500)]
        profile = depth_profile(recording(pts), plan, 100)
        assert profile.coverage == 1.0
        np.testing.assert_allclose(profile.depths_mm, 4.0, atol=1e-12)

    def test_second_deeper_pass_wins_everywhere(self):
        plan = xz_plan()
        pass1 = [[s, 0.0, -2.0] for s in np.linspace(0, 100, 400)]
        pass2 = [[s, 0.0, -4.0] for s in np.linspace(0, 100, 400)]
        rec = recording(pass1 + pass2)
        profile = depth_profile(rec, plan, 50)
        oracle = brute_force_profile(rec, plan, 50)
        np.testing.assert_array_equal(profile.depths_mm, np.array(oracle, dtype=float))
        np.testing.assert_allclose(profile.depths_mm, 4.0, atol=1e-12)

    def test_bin_width_for_k100_over_100mm(self):
        plan = xz_plan(length=100.0)
        profile = depth_profile(recording([[0, 0, 0], [1, 0, 0]]), plan, 100)
        assert profile.bin_width_mm == 1.0
        assert profile.bin_count == 100

    def test_matches_brute_force_on_random_recordings(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            r = random_rotation(rng)
            direction, lateral, depth_axis = r[:, 0], r[:, 1], r[:, 2]
            entry = rng.uniform(-50, 50, 3)
            length = float(rng.uniform(20.0, 150.0))
            plan = PlannedCut(entry, direction, depth_axis, length, 5.0, 3.0)
            k = int(rng.integers(1, 140))
            n = int(rng.integers(2, 400))
            s = rng.uniform(-10.0, length + 10.0, n)
            d = rng.uniform(-6.0, 10.0, n)
            lat = rng.normal(0, 1.0, n)
            pts = entry + np.outer(s, direction) + np.outer(d, depth_axis) + np.outer(lat, lateral)
            rec = TrajectoryRecording(
                np.arange(n) * 0.05, pts, rng.integers(0, 2, n).astype(bool)
            )
            got = depth_profile(rec, plan, k)
            expected = brute_force_profile(rec, plan, k)
            for j in range(k):
                if expected[j] is None:
                    assert math.isnan(got.depths_mm[j])
                else:
                    assert got.depths_mm[j] == expected[j]

    def test_adding_deeper_sample_is_monotone(self):
        plan = xz_plan()
        pts = [[s, 0.0, -3.0] for s in np.linspace(0, 100, 200)]
        base = depth_profile(recording(pts), plan, 20)
        deeper = recording(pts + [[42.0, 0.0, -9.0]])
        bumped = depth_profile(deeper, plan, 20)
        j = int(42.0 // base.bin_width_mm)
        assert bumped.depths_mm[j] >= base.depths_mm[j]
        mask = np.arange(20) != j
        np.testing.assert_array_equal(bumped.depths_mm[mask], base.depths_mm[mask])

    def test_missing_bins_are_nan(self):
        plan = xz_plan()
        rec = recording([[5.0, 0.0, -1.0], [6.0, 0.0, -1.0]])
        profile = depth_profile(rec, plan, 10)
        assert profile.coverage == 0.1
        assert not math.isnan(profile.depths_mm[0])
        assert math.isnan(profile.depths_mm[5])


class TestMeanDepth:
    def test_uniform(self):
        profile = CutProfile(4, 25.0, np.full(4, 4.2), 1.0)
        assert abs(mean_depth(profile) - 4.2) < 1e-12

    def test_hand_computed_mean(self):
        profile = CutProfile(4, 25.0, np.array([4.0, 4.0, 8.0, 8.0]), 1.0)
        assert mean_depth(profile) == 6.0

    def test_empty_profile_raises(self):
        profile = CutProfile(3, 10.0, np.full(3, np.nan), 0.0)
        with pytest.raises(EmptyProfile):
            mean_depth(profile)

    def test_strict_mean_counts_missing_as_zero(self):
        profile = CutProfile(4, 25.0, np.array([4.0, np.nan, 8.0, np.nan]), 0.5)
        assert mean_depth(profile) == 6.0
        assert mean_depth_strict(profile) == 3.0


class TestTrialLabel:
    def test_parses_caret_and_dot(self):
        assert TrialLabel.parse("R1^3") == TrialLabel("R1", 3)
        assert TrialLabel.parse("M2.4") == TrialLabel("M2", 4)

    def test_serializes_with_dot(self):
        assert str(TrialLabel.parse("R1^3")) == "R1.3"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            TrialLabel.parse("nope")


class TestBuildReport:
    def test_noiseless_trial_end_to_end(self):
        plan = xz_plan(target=4.0)
        s = np.linspace(0, 100, 1000)
        pts = np.column_stack([s, np.zeros(1000), np.full(1000, -4.0)])
        rec = TrajectoryRecording(np.arange(1000) * 0.05, pts, np.ones(1000, bool))
        report = build_report(rec, plan, 100, "R1.3")
        assert report.rmse_mm < 1e-12
        assert abs(report.executed_length_mm - 100.0) < 1e-9
        assert abs(report.mean_depth_mm - 4.0) < 1e-9
        assert report.target_depth_mm == 4.0
        assert str(report.trial_label) == "R1.3"

    def test_caret_label_round_trips(self):
        plan = xz_plan()
        rec = recording([[0, 0, -4.0], [100, 0, -4.0]])
        report = build_report(rec, plan, 10, "R1^3")
        assert str(report.trial_label) == "R1.3"

    def test_never_active_recording_errors(self):
        plan = xz_plan()
        rec = recording([[0, 0, 0], [1, 0, 0]], active=[False, False])
        with pytest.raises(EmptyAfterGating):
            build_report(rec, plan, 10, "M1.1")

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            MetricsReport(
                trial_label=TrialLabel("R1", 1),
                target_depth_mm=4.0,
                cutting_speed_mm_s=3.0,
                rmse_mm=-1.0,
                executed_length_mm=100.0,
                procedure_time_s=30.0,
                mean_depth_mm=4.0,
                mean_depth_strict_mm=4.0,
                profile=CutProfile(1, 100.0, np.array([4.0]), 1.0),
            )
