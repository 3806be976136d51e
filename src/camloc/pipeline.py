"""End-to-end scenario runner: simulation, synchronization, per-mode
estimation, pose-graph fusion, feedback, and metric export.

Every frame-set an output reads, the first fix included, is solved as one
row of a batched solve from its own algebraic seed (see _solve_framesets).

Detections and odometry draw from independent generators derived from the
scenario seed: one per simulated frame, from the seed and the sample index,
and one odometry stream. A recorded detection stream can then be replayed
against regenerated odometry with bit-identical results, and a run can
simulate only the frames it reads.
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

from .errors import CamlocError, InsufficientObservations, InsufficientOverlap, SolverDiverged
from .estimation import (
    AVERAGE_SPAN,
    BATCH_BLOCK,
    average_estimates,
    gate_single_view,
    information_mean,
    positive_definite,
    solve_batch,
    solve_multiview,
)
# No run calls it, but bench/tracer.py wraps camloc.pipeline.initialize_global,
# looked up with getattr, so the name must resolve here.
from .estimation import initialize_global  # noqa: F401
from .evaluation import (
    Trajectory,
    error_over_distance,
    procrustes_align,
    translation_rmse,
    waypoint_errors,
)
from .geometry import PoseSE2, gather_observations
from .posegraph import PoseGraph
from .scenario import ScenarioConfig, camera_visibility_count
from .simulation import script_trajectory, simulate_frame, simulate_odometry_step
from .sync import Synchronizer, nearest_stamp_index

# Pose-graph node creation thresholds.
NODE_TRANS_STEP = 0.05  # m
NODE_ROT_STEP = math.radians(2.0)
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


def _frame_rng(seed, i):
    """Sample i's detection generator: a frame's draws depend on the seed and
    the sample index alone, not on the frames simulated before it."""
    return np.random.default_rng([int(seed), 0, i])


def _odometry_rng(seed):
    return np.random.default_rng([int(seed), 1])


def simulate_detections(config: ScenarioConfig, samples=None):
    """Generate the detection message stream for a scenario, stamp-ordered."""
    samples = samples or script_trajectory(config.trajectory)
    return _simulate(config, samples, range(0, len(samples), config.frame_stride))


def _simulate(config, samples, frames):
    """The stamp-ordered detections of the frames at sample indices
    ``frames``, simulated in batches of at most BATCH_BLOCK frames."""
    messages = []
    for start in range(0, len(frames), BATCH_BLOCK):
        block = frames[start:start + BATCH_BLOCK]
        messages.extend(simulate_frame([samples[i] for i in block], config.cameras,
                                       config.robot_model, config.noise,
                                       [_frame_rng(config.seed, i) for i in block]))
    messages.sort(key=lambda m: (m.stamp, m.camera_id))
    return messages


def _odometry_covariance(noise, length, turn):
    var_t = (noise.trans_sigma_per_meter**2) * length + STATIC_VAR_T
    sig_r = noise.rot_sigma_per_meter * math.sqrt(length) + noise.rot_sigma_per_rad * math.sqrt(turn)
    var_r = sig_r**2 + STATIC_VAR_R
    return np.diag([var_t, var_t, var_r])


def _predict(cov, pose, delta, delta_cov):
    """Covariance F cov F^T + G delta_cov G^T of pose = prev ∘ delta, where
    cov and delta_cov are those of prev and delta, and F and G the Jacobians
    of PoseSE2.compose w.r.t. prev, of heading pose.theta - delta.theta, and
    w.r.t. delta."""
    c, s = math.cos(pose.theta - delta.theta), math.sin(pose.theta - delta.theta)
    g = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    f = np.eye(3)
    f[:2, 2] = g[:2, :2] @ (-delta.y, delta.x)
    return f @ cov @ f.T + g @ delta_cov @ g.T


def _fuse(pose, cov, fix):
    """information_mean of the robot's belief (pose, cov) and a fix, or None
    where it cannot be formed: an information matrix that is singular, or
    a result that is not finite or not positive definite."""
    try:
        mean, fused = information_mean([pose, fix.pose], [cov, fix.covariance])
    except np.linalg.LinAlgError:
        return None
    values = fused.ravel().tolist()
    if all(map(math.isfinite, [mean.x, mean.y, mean.theta] + values)) and positive_definite(values):
        return mean, fused
    return None


def _solve_framesets(config, steps, needed):
    """The solves of pass 2: (solves, skipped, rejected), with solves a list
    of (sample index, raw estimate, gated estimate) for the (sample index,
    frame-set) pairs ``needed``, in stream order, and skipped and rejected
    the skipped frame-sets and the dropped detections.

    Each block of BATCH_BLOCK frame-sets is gathered in one
    gather_observations and solved in one solve_batch, each from its own
    algebraic seed, so that only one block's arrays are held at once. A
    sweep in stream order then takes the first frame-set that solves as the
    first fix, ungated, and after it predicts a pose only where one is
    read: for the single-camera gate, and for a frame-set whose seed is
    singular, which is solved from it. The prediction is the last accepted
    pose moved by the odometry since. A frame-set holding an unknown id,
    whose solve fails, or whose seed is singular before the first fix, is
    skipped.
    """
    solves, skipped, rejected = [], 0, 0
    pending = iter(needed)
    while block := list(itertools.islice(pending, BATCH_BLOCK)):
        gathered = gather_observations([fs for _, fs in block], config.cameras,
                                       config.robot_model)
        skipped += len(gathered.failures)
        rejected += sum(gathered.rejected)
        estimates = solve_batch(gathered, config.solver)
        for n, (p, est) in enumerate(zip(gathered.source, estimates)):
            i = block[p][0]
            try:
                if est is None and not solves:
                    raise InsufficientObservations("a singular seed before the first fix")
                if isinstance(est, CamlocError):
                    raise est
                gated = est
                if solves and (est is None or est.n_cameras == 1):  # the prediction is read
                    prior_at, _, prior = solves[-1]
                    moved = PoseSE2()
                    for step in steps[prior_at:i]:
                        moved = moved.compose(step)
                    predicted = prior.pose.compose(moved)
                    if est is None:  # a singular seed
                        gated = est = solve_multiview(gathered.row(n), predicted, config.solver)
                    if est.n_cameras == 1:
                        gated = gate_single_view(predicted, est, gathered.cameras[n][0],
                                                 config.gate)
            except (InsufficientObservations, SolverDiverged):
                skipped += 1
                continue
            solves.append((i, est, gated))
    return solves, skipped, rejected


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


def run_pipeline(config: ScenarioConfig, messages=None, samples=None) -> RunResult:
    """Run the full estimation pipeline on a recorded or simulated detection
    stream; odometry is always regenerated from the seed. Without messages,
    only the frames some output solves are simulated: every frame for a
    per-frame mode (raw, gated_1frame, averaged_5frames), none for the
    robot's track alone, and for fused or feedback alone the static ones,
    when no two samples can share a frame-set. Each frame has its own
    generator, so the result is that of simulate_detections' stream.
    Without samples, the scenario's trajectory is scripted here.

    Three passes: every sample's odometry increment; the frame-set solves
    (see _solve_framesets); then the robot's track and the pose graph, which
    takes the static estimates; with feedback, an information filter over
    the graph's edges keeps the robot's belief. Feedback never changes a
    solve.
    """
    samples = samples or script_trajectory(config.trajectory)
    need_fused = "fused" in config.modes or config.feedback
    need_estimates = any(m in config.modes
                         for m in ("raw", "gated_1frame", "averaged_5frames"))
    if messages is None:
        frames = range(0, len(samples), config.frame_stride)
        # samples farther apart than a sync window and the jitter's span
        # never share a frame-set, so the static frames stand alone
        apart = config.trajectory.sample_dt > config.sync.window + 6 * config.noise.timestamp_jitter
        if not need_estimates and (apart or not need_fused):
            frames = [i for i in frames if need_fused and samples[i].is_static]
        messages = _simulate(config, samples, frames)

    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    framesets = [fs for msg in messages for fs in sync.ingest(msg)] + sync.flush()
    # Anchors strictly increase, so the nearest samples never decrease.
    nearest = nearest_stamp_index([s.stamp for s in samples], [fs.anchor_stamp for fs in framesets])

    # Pass 1: steps[i - 1] is the odometry increment from sample i - 1 to i.
    rng_odo = _odometry_rng(config.seed)
    steps = [simulate_odometry_step(a.pose.inverse().compose(b.pose), config.odometry_noise,
                                    rng_odo) for a, b in zip(samples, samples[1:])]

    # Pass 2: the frame-set solves that some requested output needs.
    needed = [(i, fs) for i, fs in zip(nearest.tolist(), framesets)
              if need_estimates or need_fused and samples[i].is_static]
    solves, skipped, rejected = _solve_framesets(config, steps, needed)

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
        "rejected_detections": rejected,
        "feedback_applications": 0,
        "feedback_restarts": 0,
        "pose_graph_solves": 0,
    }
    # Pass 3: the robot's track and the pose graph, sample by sample.
    robot_pose = samples[0].pose  # the robot's own belief
    robot_cov = None  # its covariance, from the first fix on
    robot = []
    graph = PoseGraph(initial_pose=robot_pose, initial_stamp=samples[0].stamp)
    fixes = deque(static if need_fused else [])  # the graph's absolute constraints
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
                if robot_cov is not None:
                    robot_cov = _predict(robot_cov, robot_pose, pending, cov)
                pending, pending_len, pending_turn = PoseSE2(), 0.0, 0.0

        while fixes and fixes[0][0] == i:
            _, fix = fixes.popleft()
            graph.add_camera_estimate(graph.nearest_node(fix.stamp), fix)
            if config.feedback:
                # a static sample adds a node, so the fix constrains the
                # belief's, the newest; the fused output gets the batch solve
                belief = None if robot_cov is None else _fuse(robot_pose, robot_cov, fix)
                if belief is None:  # the first fix, or a fusion that cannot be formed
                    counters["feedback_restarts"] += robot_cov is not None
                    belief = fix.pose, fix.covariance
                robot_pose, robot_cov = belief
                counters["feedback_applications"] += 1
        robot.append((sample.stamp, robot_pose))

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
