"""End-to-end scenario runner: simulation, synchronization, per-mode
estimation, pose-graph fusion, feedback, and metric export.

Two independent random streams are derived from the scenario seed, one for
detections and one for odometry, so that a recorded detection stream can be
replayed against regenerated odometry with bit-identical results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InsufficientObservations, InsufficientOverlap, NoEligibleCamera
from .errors import SolverDiverged, UnknownCamera, UnknownKeypoint
from .estimation import (
    AVERAGE_SPAN,
    average_estimates,
    gate_single_view,
    initialize_global,
    solve_multiview,
)
from .evaluation import (
    Trajectory,
    error_over_distance,
    procrustes_align,
    translation_rmse,
    waypoint_errors,
)
from .geometry import PoseSE2
from .posegraph import PoseGraph
from .scenario import ALL_MODES, ScenarioConfig, camera_visibility_count
from .simulation import script_trajectory, simulate_frame, simulate_odometry_step
from .sync import Synchronizer, nearest_stamp_index

# Pose-graph node creation thresholds.
NODE_TRANS_STEP = 0.05  # m
NODE_ROT_STEP = math.radians(2.0)
# Free nodes of the fixed-lag solve that feeds pose-correction feedback.
FEEDBACK_LAG = 100
# Covariance floor for (near-)static odometry edges.
STATIC_VAR_T = 1e-6  # m^2
STATIC_VAR_R = 1e-8  # rad^2


@dataclass
class RunResult:
    ground_truth: Trajectory
    mode_trajectories: dict
    waypoint_windows: list  # (waypoint_id, t_start, t_end)
    camera_visibility: dict  # waypoint_id -> n_cameras
    counters: dict = field(default_factory=dict)


def _detection_rng(seed):
    return np.random.default_rng([int(seed), 0])


def _odometry_rng(seed):
    return np.random.default_rng([int(seed), 1])


def simulate_detections(config: ScenarioConfig, samples=None):
    """Generate the detection message stream for a scenario, stamp-ordered."""
    samples = samples or script_trajectory(config.trajectory)
    rng = _detection_rng(config.seed)
    messages = []
    for i, sample in enumerate(samples):
        if i % config.frame_stride:
            continue
        messages.extend(
            simulate_frame(sample, config.cameras, config.robot_model, config.noise, rng)
        )
    messages.sort(key=lambda m: (m.stamp, m.camera_id))
    return messages


def _odometry_covariance(noise, length, turn):
    var_t = (noise.trans_sigma_per_meter**2) * length + STATIC_VAR_T
    sig_r = noise.rot_sigma_per_meter * math.sqrt(length) + noise.rot_sigma_per_rad * math.sqrt(turn)
    var_r = sig_r**2 + STATIC_VAR_R
    return np.diag([var_t, var_t, var_r])


def _waypoint_labels(config: ScenarioConfig):
    """Output label of each waypoint, in trajectory order."""
    specs = config.raw.get("trajectory", {}).get("waypoints", [])
    labels = [int(w.get("waypoint_id", i)) for i, w in enumerate(specs)]
    return labels or list(range(len(config.trajectory.waypoints)))


def _waypoint_windows(samples, labels):
    """(label, t_start, t_end) of each run of samples dwelling at a waypoint,
    labelled by the run's first sample."""
    windows = []
    for is_static, run in itertools.groupby(samples, key=lambda s: s.is_static):
        if is_static:
            run = list(run)
            windows.append((labels[run[0].waypoint_id], run[0].stamp, run[-1].stamp))
    return windows


def run_pipeline(config: ScenarioConfig, messages=None) -> RunResult:
    """Run the full estimation pipeline on a recorded or simulated detection
    stream; odometry is always regenerated from the seed. Without messages,
    the stream is simulated only if some output solves frame-sets.
    """
    samples = script_trajectory(config.trajectory)
    need_fused = "fused" in config.modes or config.feedback
    need_estimates = any(m in config.modes
                         for m in ("raw", "gated_1frame", "averaged_5frames"))
    if messages is None:
        messages = simulate_detections(config, samples) if need_estimates or need_fused else []

    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    framesets = [fs for msg in messages for fs in sync.ingest(msg)] + sync.flush()

    # Associate each frame-set with the nearest ground-truth sample.
    fs_by_sample = {}
    nearest = nearest_stamp_index([s.stamp for s in samples], [fs.anchor_stamp for fs in framesets])
    for idx, fs in zip(nearest.tolist(), framesets):
        fs_by_sample.setdefault(idx, []).append(fs)

    counters = {
        "gated_estimates": 0,
        "solver_iterations": 0,
        "skipped_framesets": 0,
        "feedback_applications": 0,
        "pose_graph_solves": 0,
    }

    rng_odo = _odometry_rng(config.seed)
    robot_pose = samples[0].pose  # the robot's own dead-reckoned belief
    graph = PoseGraph(initial_pose=robot_pose, initial_stamp=samples[0].stamp)
    camera_by_id = {c.camera_id: c for c in config.cameras}

    if need_fused:
        # anchor node so the first dwell's estimates have a home
        cov = _odometry_covariance(config.odometry_noise, 0.0, 0.0)
        graph.add_odometry(PoseSE2(), cov, stamp=samples[0].stamp + 1e-6)
    prior = None  # last accepted estimate pose
    odo_since_prior = PoseSE2()
    pending = PoseSE2()
    pending_len = 0.0
    pending_turn = 0.0
    static_buffer = []
    static_key = None
    tracks = {mode: [] for mode in ALL_MODES if mode != "fused"}

    for i, sample in enumerate(samples):
        if i > 0:
            true_delta = samples[i - 1].pose.inverse().compose(sample.pose)
            delta = simulate_odometry_step(true_delta, config.odometry_noise, rng_odo)
            robot_pose = robot_pose.compose(delta)
            odo_since_prior = odo_since_prior.compose(delta)
            pending = pending.compose(delta)
            pending_len += math.hypot(delta.x, delta.y)
            pending_turn += abs(delta.theta)
            if need_fused and (
                sample.is_static
                or pending_len >= NODE_TRANS_STEP
                or pending_turn >= NODE_ROT_STEP
            ):
                cov = _odometry_covariance(config.odometry_noise, pending_len, pending_turn)
                graph.add_odometry(pending, cov, stamp=sample.stamp)
                pending = PoseSE2()
                pending_len = 0.0
                pending_turn = 0.0

        tracks["robot"].append((sample.stamp, robot_pose))

        if not sample.is_static:
            static_key = None
            static_buffer = []

        for fs in fs_by_sample.get(i, []):
            # solve only when some requested output needs this frame-set
            if not need_estimates and not (need_fused and sample.is_static):
                continue
            predicted = None if prior is None else prior.compose(odo_since_prior)
            try:
                if predicted is None:
                    est = initialize_global(fs, config.cameras, config.robot_model, config.solver)
                else:
                    est = solve_multiview(
                        fs, predicted, config.cameras, config.robot_model, config.solver
                    )
            except (NoEligibleCamera, InsufficientObservations, SolverDiverged,
                    UnknownCamera, UnknownKeypoint):
                counters["skipped_framesets"] += 1
                continue
            counters["solver_iterations"] += est.n_iterations

            gated = est
            if est.n_cameras == 1 and predicted is not None:
                camera = camera_by_id[next(iter(fs.per_camera))]
                gated = gate_single_view(predicted, est, camera, config.gate)
                if gated.gated:
                    counters["gated_estimates"] += 1

            tracks["raw"].append((fs.anchor_stamp, est.pose))
            tracks["gated_1frame"].append((fs.anchor_stamp, gated.pose))
            prior = gated.pose
            odo_since_prior = PoseSE2()

            if sample.is_static:
                if static_key != sample.waypoint_id:
                    static_buffer = []
                    static_key = sample.waypoint_id
                # average only estimates within AVERAGE_SPAN of each other; a
                # stamp far off the trajectory must not fail the whole run
                static_buffer = [e for e in static_buffer
                                 if abs(gated.stamp - e.stamp) <= AVERAGE_SPAN]
                static_buffer.append(gated)
                if len(static_buffer) == 5:
                    avg = average_estimates(static_buffer)
                    tracks["averaged_5frames"].append((avg.stamp, avg.pose))
                    static_buffer = []

                if need_fused:
                    node_id = graph.nearest_node(fs.anchor_stamp)
                    graph.add_camera_estimate(node_id, gated)
                    if config.feedback:
                        # feedback needs the fused pose now: solve the newest
                        # nodes and reset the static robot's belief to it; the
                        # fused output gets the batch solve below
                        graph.optimize(config.solver, lag=FEEDBACK_LAG)
                        counters["pose_graph_solves"] += 1
                        robot_pose = graph.nodes[node_id].pose
                        counters["feedback_applications"] += 1

    counters["stale_messages"] = sync.stale_count
    counters["stamp_mismatch_warnings"] = graph.stamp_mismatch_warnings

    mode_trajectories = {
        mode: Trajectory.from_samples(track)
        for mode, track in tracks.items()
        if mode in config.modes
    }
    if "fused" in config.modes:
        if graph.unary_edges:
            graph.optimize(config.solver)
            counters["pose_graph_solves"] += 1
            mode_trajectories["fused"] = Trajectory.from_samples(graph.trajectory())
        else:
            # no absolute constraint ever arrived; fused output would be
            # gauge-free, so omit it and leave a trace in the counters
            counters["fused_gauge_free"] = 1

    labels = _waypoint_labels(config)
    visibility = {}
    for label, waypoint in zip(labels, config.trajectory.waypoints):
        if label not in visibility:
            visibility[label] = camera_visibility_count(
                waypoint.pose, config.cameras, config.robot_model
            )

    return RunResult(
        ground_truth=Trajectory.from_samples([(s.stamp, s.pose) for s in samples]),
        mode_trajectories=mode_trajectories,
        waypoint_windows=_waypoint_windows(samples, labels),
        camera_visibility=visibility,
        counters=counters,
    )


# -- metric export --------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_outputs(result: RunResult, config: ScenarioConfig, output_dir):
    """Write waypoint_stats.csv, trajectory_error.csv and run_meta.json."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    stats = waypoint_errors(
        result.mode_trajectories,
        result.ground_truth,
        result.waypoint_windows,
        result.camera_visibility,
    )
    lines = ["waypoint_id,n_cameras,mode,trans_mean_m,trans_std_m,rot_mean_rad,rot_std_rad"]
    for s in stats:
        lines.append(
            f"{s.waypoint_id},{s.n_cameras},{s.mode},{_fmt(s.translation_mean)},"
            f"{_fmt(s.translation_std)},{_fmt(s.orientation_mean)},{_fmt(s.orientation_std)}"
        )
    (out / "waypoint_stats.csv").write_text("\n".join(lines) + "\n")

    err_lines = ["stamp_ns,distance_m,error_m,mode"]
    rmse = {}
    for mode in sorted(result.mode_trajectories):
        traj = result.mode_trajectories[mode]
        if len(traj) < 2:
            continue
        try:
            aligned, _ = procrustes_align(traj, result.ground_truth)
            rmse[mode] = translation_rmse(aligned, result.ground_truth)
            series = error_over_distance(aligned, result.ground_truth)
        except InsufficientOverlap:
            continue
        for stamp, dist, err in series:
            err_lines.append(f"{int(round(stamp * 1e9))},{_fmt(dist)},{_fmt(err)},{mode}")
    (out / "trajectory_error.csv").write_text("\n".join(err_lines) + "\n")

    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    meta = {
        "config": config.raw,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": config.seed,
        "counters": result.counters,
        "rmse_m": rmse,
        "camera_visibility": {str(k): v for k, v in sorted(result.camera_visibility.items())},
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return rmse
