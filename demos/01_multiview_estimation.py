"""Multi-view pose estimation from keypoint detections.

Walks through the core estimator: project a known robot pose into a
four-camera rig, recover it exactly from noiseless detections, watch the
error grow as pixel noise is added, and finally solve the kidnapped-robot
problem with no prior at all.

Run:  python3 demos/01_multiview_estimation.py
"""

import math
from pathlib import Path

import numpy as np

from camloc import (
    NoiseModel,
    PoseSE2,
    angle_diff,
    default_robot_model,
    initialize_global,
    solve_multiview,
)
from camloc.geometry import flatten_observations
from camloc.scenario import load_config
from camloc.simulation import GroundTruthSample, simulate_frame
from camloc.sync import FrameSet

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def frameset(pose, rig, model, noise, rng):
    msgs = simulate_frame(GroundTruthSample(0.0, pose, True, 0), rig, model, noise, rng)
    return FrameSet(anchor_stamp=0.0, per_camera={m.camera_id: m for m in msgs})


def main():
    rig = load_config(SCENARIOS / "traj1.json").cameras
    model = default_robot_model()
    rng = np.random.default_rng(0)
    truth = PoseSE2(5.0, 4.0, math.radians(40))
    print(f"ground truth: x={truth.x:.3f} y={truth.y:.3f} theta={math.degrees(truth.theta):.1f} deg")

    # 1. noiseless detections: recovery is exact
    clean = NoiseModel(pixel_sigma=0, dropout_prob=0, outlier_prob=0, timestamp_jitter=0)
    fs = frameset(truth, rig, model, clean, rng)
    obs = flatten_observations(fs, rig, model)  # one column per detected keypoint
    est = solve_multiview(obs, truth.compose(PoseSE2(0.1, -0.1, 0.1)))
    err = math.hypot(est.pose.x - truth.x, est.pose.y - truth.y)
    print(f"\nnoiseless ({est.n_cameras} cameras, {est.n_keypoints} keypoints): "
          f"error {err:.2e} m, rms residual {est.rms_residual:.2e} px")

    # 2. pixel noise sweep: error scales with detection quality
    print("\npixel noise sweep (mean over 50 frames each):")
    for sigma in (0.5, 1.0, 2.0, 4.0):
        noise = NoiseModel(pixel_sigma=sigma, dropout_prob=0, outlier_prob=0,
                           timestamp_jitter=0)
        errs = []
        for _ in range(50):
            fs = frameset(truth, rig, model, noise, rng)
            est = solve_multiview(flatten_observations(fs, rig, model), truth)
            errs.append(math.hypot(est.pose.x - truth.x, est.pose.y - truth.y))
        print(f"  sigma {sigma:3.1f} px -> {1000 * np.mean(errs):5.1f} mm translation error")

    # 3. kidnapped robot: no prior, one algebraic seed per camera
    noise = NoiseModel(timestamp_jitter=0)
    print("\nkidnapped-robot initialization (default noise, no prior):")
    for seed in range(5):
        rng2 = np.random.default_rng(seed)
        pose = PoseSE2(rng2.uniform(2, 8), rng2.uniform(2, 6), rng2.uniform(-math.pi, math.pi))
        fs = frameset(pose, rig, model, noise, rng2)
        est = initialize_global(fs, rig, model)
        terr = math.hypot(est.pose.x - pose.x, est.pose.y - pose.y)
        rerr = abs(angle_diff(est.pose.theta, pose.theta))
        print(f"  pose ({pose.x:4.1f},{pose.y:4.1f},{math.degrees(pose.theta):6.1f} deg) "
              f"-> error {100 * terr:4.1f} cm / {math.degrees(rerr):4.2f} deg")


if __name__ == "__main__":
    main()
