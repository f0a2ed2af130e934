"""cutcal: calibration and cut-trajectory analysis for tracked osteotomy tools."""

from .errors import (
    CutcalError,
    DegenerateConfiguration,
    EmptyAfterGating,
    EmptyInput,
    EmptyProfile,
    FrameError,
    InconsistentSamples,
    InsufficientMotion,
    InvalidPolicy,
    NonMonotoneTime,
    ParseError,
)
from .geometry import (
    FrameId,
    RigidTransform,
    best_fit_rotation,
    compose,
    invert,
    rotation_about_axis,
    rotation_angle_between,
    transform_point,
)
from .handeye import (
    HandEyeDataset,
    HandEyeSolution,
    build_relative_motions,
    calibrate_hand_eye,
    solve_base_to_tracker,
    solve_ee_to_tool,
)
from .metrics import (
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
from .planner import CutSequence, PassPolicy, plan_sequence, sample_sequence
from .pointcal import (
    PivotSolution,
    TipCalDataset,
    TipSolution,
    calibrate_pivot,
    calibrate_tip_in_ee,
    tip_position_in_base,
)
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

__version__ = "0.1.0"
