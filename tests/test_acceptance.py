"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
thresholds are asserted at their stated tolerances, never loosened.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from camloc import cli
from camloc.errors import NoEligibleCamera
from camloc.estimation import initialize_global, solve_multiview
from camloc.evaluation import procrustes_align, translation_rmse, waypoint_errors
from camloc.geometry import PoseSE2, angle_diff, flatten_observations, reprojection_kernel
from camloc.pipeline import run_pipeline
from camloc.scenario import (
    WAYPOINTS,
    camera_visibility_count,
    load_config,
    make_camera,
)
from camloc.simulation import (
    GroundTruthSample,
    NoiseModel,
    TrajectoryScript,
    Waypoint,
    script_trajectory,
    simulate_frame,
)
from camloc.sync import DetectionMessage, FrameSet, SyncConfig, Synchronizer

import oracles

ZERO_NOISE = NoiseModel(pixel_sigma=0.0, dropout_prob=0.0, outlier_prob=0.0,
                        timestamp_jitter=0.0)
TRAJECTORIES = ("traj1", "traj2", "traj3")
DATASET_SEEDS = range(1000, 1006)


def report(num, name, ok, detail=""):
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def frameset_at(sample, rig, model, noise, rng):
    msgs = simulate_frame(sample, rig, model, noise, rng)
    return FrameSet(anchor_stamp=sample.stamp, per_camera={m.camera_id: m for m in msgs})


def random_visible_pose(rng, rig, model, min_cameras=2):
    while True:
        pose = PoseSE2(rng.uniform(1.0, 9.0), rng.uniform(1.0, 7.0),
                       rng.uniform(-math.pi, math.pi))
        if camera_visibility_count(pose, rig, model) >= min_cameras:
            return pose


@pytest.fixture(scope="module")
def dataset(scenario_dir):
    """18 full-mode runs: 3 trajectories x 6 seeds, default noise."""
    runs = {}
    for traj in TRAJECTORIES:
        for seed in DATASET_SEEDS:
            config = load_config(scenario_dir / f"{traj}.json", {"seed": seed})
            runs[(traj, seed)] = run_pipeline(config)
    return runs


def aligned_rmse(result, mode):
    traj = result.mode_trajectories[mode]
    aligned, _ = procrustes_align(traj, result.ground_truth)
    return translation_rmse(aligned, result.ground_truth)


def dataset_waypoint_stats(runs):
    rows = []
    for result in runs.values():
        rows.extend(waypoint_errors(result.mode_trajectories, result.ground_truth,
                                    result.waypoint_windows, result.camera_visibility))
    return rows


def mode_mean(rows, mode, n_cameras=None):
    sel = [r.translation_mean for r in rows
           if r.mode == mode and (n_cameras is None or r.n_cameras == n_cameras)]
    return float(np.mean(sel))


class TestAcceptance:
    def test_criterion_01_noiseless_exactness(self, rig, robot_model):
        order = [2, 3, 5, 7, 4] * 3
        wps = [Waypoint(PoseSE2(*WAYPOINTS[w]), 1.0) for w in order]
        samples = script_trajectory(TrajectoryScript(waypoints=wps))
        rng = np.random.default_rng(0)
        framesets = []
        for s in samples:
            fs = frameset_at(s, rig, robot_model, ZERO_NOISE, rng)
            if len(fs.per_camera) >= 2:
                framesets.append((s, fs))
        assert len(framesets) >= 500
        framesets = framesets[:500]
        prior = framesets[0][0].pose.compose(PoseSE2(0.05, -0.05, 0.02))
        worst_t = worst_r = 0.0
        t0 = time.perf_counter()
        for s, fs in framesets:
            est = solve_multiview(flatten_observations(fs, rig, robot_model), prior)
            prior = est.pose
            worst_t = max(worst_t, math.hypot(est.pose.x - s.pose.x, est.pose.y - s.pose.y))
            worst_r = max(worst_r, abs(angle_diff(est.pose.theta, s.pose.theta)))
        elapsed = time.perf_counter() - t0
        ok = worst_t < 1e-6 and worst_r < 1e-6 and elapsed < 5.0
        report(1, "noiseless exactness", ok,
               f"(max {worst_t:.2e} m / {worst_r:.2e} rad, {elapsed:.2f} s / 500 frames)")

    def test_criterion_02_jacobian_correctness(self, robot_model):
        rng = np.random.default_rng(7)
        worst = 0.0
        n = 0
        while n < 1000:
            cam = make_camera(0, (rng.uniform(0, 10), rng.uniform(0, 8), rng.uniform(2, 3)),
                              rng.uniform(-math.pi, math.pi),
                              rng.uniform(math.radians(15), math.radians(50)))
            pose = PoseSE2(rng.uniform(0, 10), rng.uniform(0, 8),
                           rng.uniform(-math.pi, math.pi))
            j = int(rng.integers(robot_model.n_keypoints))
            pw = oracles.keypoint_world(pose, robot_model, j)
            pc = cam.world_to_camera.apply(pw)
            if pc[2] < 0.5:
                continue
            n += 1
            msg = DetectionMessage(0, 0.0, [j], [(0.0, 0.0)], [1.0])
            obs = flatten_observations(FrameSet(0.0, {0: msg}), [cam], robot_model)
            _, jac, _ = reprojection_kernel(pose.as_array(), obs)
            analytic = jac[:, :, 0].T  # (2, 3): pixel row by pose column
            # residual = observed - projected, so its jacobian is the
            # negated projection jacobian
            fd = -oracles.central_difference_jacobian(
                lambda p: oracles.project(
                    cam, oracles.keypoint_world(PoseSE2(*p), robot_model, j)),
                pose.as_array())
            rel = np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())
            worst = max(worst, rel)
        ok = worst < 1e-5
        report(2, "analytic jacobians", ok, f"(max relative error {worst:.2e})")

    def test_criterion_03_grid_oracle_optimality(self, rig, robot_model):
        if not oracles.HAVE_NUMBA:
            pytest.skip("grid oracle requires numba")
        rng = np.random.default_rng(21)
        noise = NoiseModel(pixel_sigma=2.0, dropout_prob=0.0, outlier_prob=0.0,
                           timestamp_jitter=0.0)
        # build all frames first so the timed section is pure comparison
        cases = []
        for _ in range(500):
            pose = random_visible_pose(rng, rig, robot_model)
            fs = frameset_at(GroundTruthSample(0.0, pose, True, 0), rig, robot_model,
                             noise, rng)
            cases.append((pose, fs))
        warm = oracles.frameset_obs_arrays(cases[0][1], rig, robot_model)
        oracles.grid_search_objective(cases[0][0].as_array(), warm, 5.0)  # jit warm-up
        wins = 0
        t0 = time.perf_counter()
        for pose, fs in cases:
            est = solve_multiview(flatten_observations(fs, rig, robot_model), pose)
            obs = oracles.frameset_obs_arrays(fs, rig, robot_model)
            lm_obj = oracles.reference_objective(est.pose.as_array(), obs, 5.0)
            _, grid_pose = oracles.grid_search_objective(est.pose.as_array(), obs, 5.0)
            grid_obj = oracles.reference_objective(grid_pose, obs, 5.0)
            if lm_obj <= grid_obj + 1e-9:
                wins += 1
        elapsed = time.perf_counter() - t0
        ok = wins >= 495 and elapsed < 120.0
        report(3, "grid-search optimality", ok,
               f"({wins}/500 frames, {elapsed:.1f} s)")

    def test_criterion_04_waypoint_error_magnitudes(self, dataset):
        rows = dataset_waypoint_stats(dataset)
        t2 = mode_mean(rows, "raw", n_cameras=2)
        t4 = mode_mean(rows, "raw", n_cameras=4)
        o2 = float(np.mean([r.orientation_mean for r in rows
                            if r.mode == "raw" and r.n_cameras == 2]))
        o4 = float(np.mean([r.orientation_mean for r in rows
                            if r.mode == "raw" and r.n_cameras == 4]))
        t1 = mode_mean(rows, "gated_1frame", n_cameras=1)
        ok = (t2 <= 0.05 and t4 <= 0.05 and o2 <= math.radians(1.5)
              and o4 <= math.radians(1.5) and t1 <= 0.10)
        report(4, "waypoint error magnitudes", ok,
               f"(2-cam {t2 * 100:.2f} cm/{math.degrees(o2):.2f} deg, "
               f"4-cam {t4 * 100:.2f} cm/{math.degrees(o4):.2f} deg, "
               f"1-cam gated {t1 * 100:.2f} cm)")

    def test_criterion_05_mode_orderings(self, dataset):
        rows = dataset_waypoint_stats(dataset)
        raw_1cam = mode_mean(rows, "raw", n_cameras=1)
        gated_1cam = mode_mean(rows, "gated_1frame", n_cameras=1)
        gated_all = mode_mean(rows, "gated_1frame")
        avg_all = mode_mean(rows, "averaged_5frames")
        by_mode = {m: mode_mean(rows, m)
                   for m in ("robot", "raw", "gated_1frame", "averaged_5frames", "fused")}
        ok = (gated_1cam <= raw_1cam + 1e-12
              and avg_all <= gated_all
              and min(by_mode, key=by_mode.get) == "fused")
        detail = ", ".join(f"{m} {v * 100:.2f} cm" for m, v in by_mode.items())
        report(5, "mode orderings", ok, f"({detail})")

    def test_criterion_06_fusion_vs_odometry(self, dataset):
        details, ok = [], True
        for traj in TRAJECTORIES:
            odo = float(np.mean([aligned_rmse(dataset[(traj, s)], "robot")
                                 for s in DATASET_SEEDS]))
            fused = float(np.mean([aligned_rmse(dataset[(traj, s)], "fused")
                                   for s in DATASET_SEEDS]))
            ok = ok and 0.15 <= odo <= 0.25 and fused <= odo / 3.0
            details.append(f"{traj} odo {odo * 100:.1f} cm fused {fused * 100:.2f} cm")
        report(6, "fused vs odometry rmse", ok, "(" + "; ".join(details) + ")")

    def test_criterion_07_feedback_experiment(self, scenario_dir):
        path = scenario_dir / "long_feedback.json"
        successes = 0
        for seed in range(2000, 2100):
            on = run_pipeline(load_config(path, {
                "seed": seed, "modes": '["robot","fused"]'}))
            off = run_pipeline(load_config(path, {
                "seed": seed, "modes": '["robot"]', "feedback": "false"}))
            with_fb = aligned_rmse(on, "robot")
            without_fb = aligned_rmse(off, "robot")
            fused = aligned_rmse(on, "fused")
            if with_fb <= without_fb / 2.0 and fused <= with_fb:
                successes += 1
        ok = successes >= 95
        report(7, "pose-correction feedback", ok, f"({successes}/100 seeds)")

    def test_criterion_08_kidnapped_initialization(self, rig, robot_model):
        rng = np.random.default_rng(31)
        noise = NoiseModel(timestamp_jitter=0.0)
        hits = 0
        for _ in range(500):
            pose = random_visible_pose(rng, rig, robot_model)
            fs = frameset_at(GroundTruthSample(0.0, pose, True, 0), rig, robot_model,
                             noise, rng)
            try:
                est = initialize_global(fs, rig, robot_model)
            except NoEligibleCamera:
                continue
            if (math.hypot(est.pose.x - pose.x, est.pose.y - pose.y) <= 0.05
                    and abs(angle_diff(est.pose.theta, pose.theta)) <= math.radians(2)):
                hits += 1
        exact = 0
        for _ in range(100):
            pose = random_visible_pose(rng, rig, robot_model)
            fs = frameset_at(GroundTruthSample(0.0, pose, True, 0), rig, robot_model,
                             ZERO_NOISE, rng)
            est = initialize_global(fs, rig, robot_model)
            if (math.hypot(est.pose.x - pose.x, est.pose.y - pose.y) <= 0.05
                    and abs(angle_diff(est.pose.theta, pose.theta)) <= math.radians(2)):
                exact += 1
        ok = hits >= 475 and exact == 100
        report(8, "kidnapped-robot initialization", ok,
               f"({hits}/500 noisy, {exact}/100 noise-free)")

    def test_criterion_09_synchronizer_fuzz(self):
        def _msg(cam, t):
            return DetectionMessage(cam, t, [0], [[1.0, 2.0]], [0.9])

        rng = np.random.default_rng(5)
        t0 = time.perf_counter()
        for _ in range(1000):
            n_cameras = int(rng.integers(2, 6))
            sync = Synchronizer(range(n_cameras), SyncConfig(window=0.05))
            t = 0.0
            msgs = []
            for _ in range(int(rng.integers(20, 120))):
                t += float(rng.exponential(0.02))
                stamp = t + float(rng.normal(0, 0.01))
                if rng.random() < 0.05:
                    stamp -= float(rng.uniform(0.1, 1.0))
                msgs.append(_msg(int(rng.integers(n_cameras)), stamp))
            emitted = []
            for m in msgs:
                emitted.extend(sync.ingest(m))
            emitted.extend(sync.flush())
            anchors = [fs.anchor_stamp for fs in emitted]
            assert anchors == sorted(anchors) and len(set(anchors)) == len(anchors)
            placed = 0
            for fs in emitted:
                for cam_id, m in fs.per_camera.items():
                    assert m.camera_id == cam_id
                    assert abs(m.stamp - fs.anchor_stamp) <= 0.05
                    placed += 1
            assert placed + sync.stale_count == len(msgs)
        elapsed = time.perf_counter() - t0
        ok = elapsed < 30.0
        report(9, "synchronizer fuzz", ok, f"(1000 streams in {elapsed:.1f} s)")

    def test_criterion_10_determinism(self, scenario_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["run", "--scenario", str(scenario_dir / "traj3.json"),
                           "--out", str(out), "--seed", "42"])
            assert rc == 0
            outs.append({p.name: p.read_bytes() for p in sorted(Path(out).iterdir())})
        ok = outs[0] == outs[1]
        report(10, "seeded determinism", ok,
               f"({len(outs[0])} output files byte-compared)")
