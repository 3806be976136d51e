"""Single-camera depth ambiguity and the plausibility gate.

A lone camera constrains the robot's bearing well but its distance poorly:
pixel noise moves the estimate mostly along the viewing ray. The gate
compares a fresh single-view estimate against the previous pose, and when
the jump along the ray (or in heading) is implausible it keeps the prior
depth and heading, accepting only the well-observed lateral component.
The estimate's own covariance, sigma^2 * H^-1 of its solve, is already
long along the ray.

Run:  python3 demos/02_single_camera_gating.py
"""

import math

import numpy as np

from camloc import (
    GateThresholds,
    NoiseModel,
    PoseSE2,
    default_robot_model,
    gate_single_view,
    single_view_candidate,
    solve_multiview,
)
from camloc.scenario import make_camera
from camloc.simulation import GroundTruthSample, simulate_frame
from camloc.sync import FrameSet


def main():
    model = default_robot_model()
    cam = make_camera(0, (0.0, 0.0, 2.5), 0.0, math.radians(18.0))
    truth = PoseSE2(6.0, 0.0, 2.0)
    noise = NoiseModel(pixel_sigma=2.0, dropout_prob=0, outlier_prob=0,
                       timestamp_jitter=0)

    # 1. anisotropy: error along the viewing ray vs. across it
    depth_sq, lat_sq, depth_var = [], [], []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        msg = simulate_frame(GroundTruthSample(0.0, truth, True, 0), [cam],
                             model, noise, rng)[0]
        cand = single_view_candidate(msg, cam, model)
        err = cand.pose.xy - truth.xy
        view = truth.xy - cam.ground_position()
        view /= np.linalg.norm(view)
        depth_sq.append(float(err @ view) ** 2)
        lat_sq.append(float(err @ np.array([-view[1], view[0]])) ** 2)
        depth_var.append(float(view @ cand.covariance[:2, :2] @ view))
    print("single camera at 6 m, 2 px noise, 300 frames:")
    print(f"  rms error along viewing ray : {1000 * math.sqrt(np.mean(depth_sq)):5.1f} mm")
    print(f"  rms error across viewing ray: {1000 * math.sqrt(np.mean(lat_sq)):5.1f} mm")
    print(f"  predicted sd along the ray  : {1000 * math.sqrt(np.mean(depth_var)):5.1f} mm")

    # 2. the gate on an implausible jump (camera on the +x axis at 5 m)
    cam2 = make_camera(0, (5.0, 0.0, 2.5), math.pi, math.radians(30.0))
    prev = PoseSE2(0.0, 0.0, 0.0)
    rng = np.random.default_rng(1)
    msg = simulate_frame(GroundTruthSample(0.0, PoseSE2(0.8, 0.3, math.radians(25)), True, 0),
                         [cam2], model, NoiseModel(pixel_sigma=0, dropout_prob=0,
                                                   outlier_prob=0, timestamp_jitter=0),
                         rng)[0]
    fs = FrameSet(anchor_stamp=0.0, per_camera={0: msg})
    raw = solve_multiview(fs, PoseSE2(0.8, 0.3, math.radians(25)), [cam2], model)
    gated = gate_single_view(prev, raw, cam2, GateThresholds())
    print("\nimplausible single-view jump from a static prior at the origin:")
    print(f"  raw estimate  : ({raw.pose.x:5.2f}, {raw.pose.y:5.2f}, "
          f"{math.degrees(raw.pose.theta):5.1f} deg)")
    print(f"  gated estimate: ({gated.pose.x:5.2f}, {gated.pose.y:5.2f}, "
          f"{math.degrees(gated.pose.theta):5.1f} deg)  gated={gated.gated}")
    view = raw.pose.xy - cam2.ground_position()
    view /= np.linalg.norm(view)
    lateral = np.array([-view[1], view[0]])
    along = math.sqrt(view @ raw.covariance[:2, :2] @ view)
    across = math.sqrt(lateral @ raw.covariance[:2, :2] @ lateral)
    print(f"  lone-camera sd along the ray / across it: {along / across:.1f}")


if __name__ == "__main__":
    main()
