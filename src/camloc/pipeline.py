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
from collections import deque
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
from .scenario import ScenarioConfig, camera_visibility_count
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


def _dwell(sample):
    """The waypoint index a sample dwells at, None while moving: consecutive
    samples with one key form one dwell."""
    return sample.waypoint_id if sample.is_static else None


def _waypoint_windows(samples, waypoints):
    """(label, t_start, t_end) of each dwell, from its first to its last
    sample."""
    windows = []
    for key, run in itertools.groupby(samples, key=_dwell):
        if key is not None:
            run = list(run)
            windows.append((waypoints[key].label, run[0].stamp, run[-1].stamp))
    return windows


def run_pipeline(config: ScenarioConfig, messages=None) -> RunResult:
    """Run the full estimation pipeline on a recorded or simulated detection
    stream; odometry is always regenerated from the seed. Without messages,
    the stream is simulated only if some output solves frame-sets.

    Three passes: every sample's odometry increment; the frame-set solves,
    each started from the last accepted pose moved by the odometry since;
    then the robot's dead-reckoned track and the pose graph, which takes the
    static estimates and, with feedback, resets the robot's belief to the
    fused pose. Feedback never changes a solve.
    """
    samples = script_trajectory(config.trajectory)
    need_fused = "fused" in config.modes or config.feedback
    need_estimates = any(m in config.modes
                         for m in ("raw", "gated_1frame", "averaged_5frames"))
    if messages is None:
        messages = simulate_detections(config, samples) if need_estimates or need_fused else []

    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    framesets = [fs for msg in messages for fs in sync.ingest(msg)] + sync.flush()
    # Anchors strictly increase, so the nearest samples never decrease.
    nearest = nearest_stamp_index([s.stamp for s in samples], [fs.anchor_stamp for fs in framesets])

    # Pass 1: steps[i - 1] is the odometry increment from sample i - 1 to i.
    rng_odo = _odometry_rng(config.seed)
    steps = [simulate_odometry_step(a.pose.inverse().compose(b.pose), config.odometry_noise,
                                    rng_odo) for a, b in zip(samples, samples[1:])]

    # Pass 2: the frame-set solves, in stream order.
    camera_by_id = {c.camera_id: c for c in config.cameras}
    solves = []  # (sample index, raw estimate, gated estimate)
    skipped = 0
    prior = None  # last accepted estimate pose
    odo_since_prior, odo_upto = PoseSE2(), 0  # the steps after prior, up to sample odo_upto
    for i, fs in zip(nearest.tolist(), framesets):
        # solve only when some requested output needs this frame-set
        if not (need_estimates or need_fused and samples[i].is_static):
            continue
        for step in steps[odo_upto:i]:
            odo_since_prior = odo_since_prior.compose(step)
        odo_upto = i
        predicted = None if prior is None else prior.compose(odo_since_prior)
        try:
            if predicted is None:
                est = initialize_global(fs, config.cameras, config.robot_model, config.solver)
            else:
                est = solve_multiview(fs, predicted, config.cameras, config.robot_model,
                                      config.solver)
        except (NoEligibleCamera, InsufficientObservations, SolverDiverged,
                UnknownCamera, UnknownKeypoint):
            skipped += 1
            continue
        gated = est
        if est.n_cameras == 1 and predicted is not None:
            camera = camera_by_id[next(iter(fs.per_camera))]
            gated = gate_single_view(predicted, est, camera, config.gate)
        solves.append((i, est, gated))
        prior, odo_since_prior = gated.pose, PoseSE2()

    # Each dwell averages its gated estimates in fives. Only estimates within
    # AVERAGE_SPAN of each other are averaged: a stamp far off the
    # trajectory must not fail the whole run.
    static = [(i, gated) for i, _, gated in solves if samples[i].is_static]
    averaged = []
    for _, run in itertools.groupby(static, key=lambda s: _dwell(samples[s[0]])):
        buffer = []
        for _, est in run:
            buffer = [e for e in buffer if abs(est.stamp - e.stamp) <= AVERAGE_SPAN] + [est]
            if len(buffer) == 5:
                avg = average_estimates(buffer)
                averaged.append((avg.stamp, avg.pose))
                buffer = []

    counters = {
        "gated_estimates": sum(gated.gated for _, _, gated in solves),
        "solver_iterations": sum(est.n_iterations for _, est, _ in solves),
        "skipped_framesets": skipped,
        "feedback_applications": 0,
        "pose_graph_solves": 0,
    }
    # Pass 3: the robot's track and the pose graph, sample by sample.
    robot_pose = samples[0].pose  # the robot's own dead-reckoned belief
    robot = []
    graph = PoseGraph(initial_pose=robot_pose, initial_stamp=samples[0].stamp)
    fixes = deque(static if need_fused else [])  # the graph's absolute constraints
    if need_fused:
        # anchor node so the first dwell's estimates have a home
        cov = _odometry_covariance(config.odometry_noise, 0.0, 0.0)
        graph.add_odometry(PoseSE2(), cov, stamp=samples[0].stamp + 1e-6)
    pending, pending_len, pending_turn = PoseSE2(), 0.0, 0.0
    for i, sample in enumerate(samples):
        if i > 0:
            delta = steps[i - 1]
            robot_pose = robot_pose.compose(delta)
            pending = pending.compose(delta)
            pending_len += math.hypot(delta.x, delta.y)
            pending_turn += abs(delta.theta)
            if need_fused and (sample.is_static or pending_len >= NODE_TRANS_STEP
                               or pending_turn >= NODE_ROT_STEP):
                cov = _odometry_covariance(config.odometry_noise, pending_len, pending_turn)
                graph.add_odometry(pending, cov, stamp=sample.stamp)
                pending, pending_len, pending_turn = PoseSE2(), 0.0, 0.0
        robot.append((sample.stamp, robot_pose))

        while fixes and fixes[0][0] == i:
            _, fix = fixes.popleft()
            node_id = graph.nearest_node(fix.stamp)
            graph.add_camera_estimate(node_id, fix)
            if config.feedback:
                # feedback needs the fused pose now: solve the newest nodes
                # and reset the static robot's belief to it; the fused
                # output gets the batch solve below
                graph.optimize(config.solver, lag=FEEDBACK_LAG)
                counters["pose_graph_solves"] += 1
                robot_pose = graph.nodes[node_id].pose
                counters["feedback_applications"] += 1

    counters["stale_messages"] = sync.stale_count
    counters["stamp_mismatch_warnings"] = graph.stamp_mismatch_warnings

    tracks = {
        "robot": robot,
        "raw": [(est.stamp, est.pose) for _, est, _ in solves],
        "gated_1frame": [(gated.stamp, gated.pose) for _, _, gated in solves],
        "averaged_5frames": averaged,
    }
    mode_trajectories = {mode: Trajectory.from_samples(track)
                         for mode, track in tracks.items() if mode in config.modes}
    if "fused" in config.modes:
        if graph.unary_edges:
            graph.optimize(config.solver)
            counters["pose_graph_solves"] += 1
            mode_trajectories["fused"] = Trajectory.from_samples(graph.trajectory())
        else:
            # no absolute constraint ever arrived; fused output would be
            # gauge-free, so omit it and leave a trace in the counters
            counters["fused_gauge_free"] = 1

    waypoints = config.trajectory.waypoints
    visibility = {}
    for wp in waypoints:
        if wp.label not in visibility:
            visibility[wp.label] = camera_visibility_count(wp.pose, config.cameras,
                                                           config.robot_model)

    return RunResult(
        ground_truth=Trajectory.from_samples([(s.stamp, s.pose) for s in samples]),
        mode_trajectories=mode_trajectories,
        waypoint_windows=_waypoint_windows(samples, waypoints),
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
