"""Multi-camera mobile-robot pose estimation and localization toolkit.

Library for estimating a ground-plane robot pose from synchronized
multi-view keypoint detections, with prior-free initialization, a
single-camera outlier gate, pose-graph fusion with drifting odometry,
and a calibrated synthetic sensor network for end-to-end validation.
"""

from .estimation import (
    GateThresholds,
    PoseEstimate,
    SolverConfig,
    average_estimates,
    gate_single_view,
    initialize_global,
    single_view_candidate,
    solve_multiview,
)
from .geometry import (
    CameraModel,
    PoseSE2,
    angle_diff,
    wrap_angle,
    RigidTransform3,
    RobotModel,
)
from .evaluation import (
    Trajectory,
    WaypointStats,
    error_over_distance,
    match_stamps,
    procrustes_align,
    translation_rmse,
    waypoint_errors,
)
from .pipeline import RunResult, run_pipeline, simulate_detections, write_outputs
from .posegraph import PoseGraph
from .scenario import (
    ScenarioConfig,
    camera_visibility_count,
    config_from_dict,
    generate_scenarios,
    load_config,
    make_camera,
)
from .simulation import (
    GroundTruthSample,
    NoiseModel,
    OdometryNoise,
    TrajectoryScript,
    Waypoint,
    default_robot_model,
    script_trajectory,
    simulate_frame,
    simulate_odometry_step,
)
from .sync import DetectionMessage, FrameSet, SyncConfig, Synchronizer

__version__ = "0.1.0"
