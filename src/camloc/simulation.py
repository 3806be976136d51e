"""Synthetic observation model: scripted trajectories, per-camera keypoint
detections with noise/confidence/dropout, and drifting odometry.

Stands in for a real detection pipeline so the estimator can be exercised
against exact ground truth. All randomness flows through a caller-provided
seeded generator; identical seeds give bit-identical outputs. A frame's
detection noise is drawn as arrays in one fixed layout (see
simulate_frame), so its detections depend on its generator alone, and a
batch of frames, simulated in one call with vectorized projection and
noise, gives the bytes of one call per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import PoseSE2, RobotModel, angle_diff, project_robots
from .sync import DetectionMessage, ns_to_stamp, stamp_to_ns


@dataclass
class NoiseModel:
    pixel_sigma: float = 2.0  # px
    dropout_prob: float = 0.05
    outlier_prob: float = 0.01
    outlier_spread: float = 50.0  # px
    confidence_floor: float = 0.1
    timestamp_jitter: float = 0.002  # seconds

    def __post_init__(self):
        for p in (self.dropout_prob, self.outlier_prob, self.confidence_floor):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        if not (self.pixel_sigma >= 0 and self.timestamp_jitter >= 0):
            raise ValueError("sigmas must be non-negative")


ODOMETRY_SIGMA_MAX = float(np.finfo(float).max) ** (1 / 3)  # see OdometryNoise


@dataclass
class OdometryNoise:
    """Drift model for dead-reckoned odometry, scaled by distance traveled.

    Defaults are calibrated so that integrating a straight 5 m drive gives a
    median terminal error around 19 cm.

    Each sigma is at most ODOMETRY_SIGMA_MAX (5.6e102). A node's odometry
    variance is the square of sigma * sqrt(span), and the span is measured
    from odometry that itself carries noise of sigma * sqrt(step), so the
    variance grows as sigma cubed: past the bound it overflows a float.
    """

    trans_sigma_per_meter: float = 0.0625  # m / sqrt(m)
    rot_sigma_per_meter: float = 0.0125  # rad / sqrt(m)
    rot_sigma_per_rad: float = 0.0375  # rad / sqrt(rad)
    bias_trans: float = 0.0125  # m / m
    bias_rot: float = 0.005  # rad / m

    def __post_init__(self):
        for s in (
            self.trans_sigma_per_meter,
            self.rot_sigma_per_meter,
            self.rot_sigma_per_rad,
        ):
            if not 0 <= s <= ODOMETRY_SIGMA_MAX:
                raise ValueError(f"sigmas must be in [0, {ODOMETRY_SIGMA_MAX:.3g}]")
        if not (math.isfinite(self.bias_trans) and math.isfinite(self.bias_rot)):
            raise ValueError("biases must be finite")


@dataclass
class Waypoint:
    pose: PoseSE2
    dwell: float = 0.0  # seconds
    label: int | None = None  # output waypoint_id; None means the waypoint's index

    def __post_init__(self):
        if not 0 <= self.dwell < math.inf:
            raise ValueError("dwell must be finite and non-negative")


MAX_SAMPLES = 10**6  # a longer TrajectoryScript is rejected; long_feedback takes 1814


@dataclass
class TrajectoryScript:
    waypoints: list
    speed: float = 0.5  # m/s
    turn_rate: float = math.pi / 4  # rad/s
    sample_dt: float = 0.1  # seconds

    def __post_init__(self):
        if not self.waypoints:
            raise ValueError("waypoint list must be non-empty")
        if not all(0 < v < math.inf for v in (self.speed, self.turn_rate, self.sample_dt)):
            raise ValueError("speed, turn_rate and sample_dt must be finite and positive")
        self.waypoints = [wp if wp.label is not None else replace(wp, label=i)
                          for i, wp in enumerate(self.waypoints)]
        n = sum(ph.duration for ph in _phases(self)[0]) / self.sample_dt
        if not n <= MAX_SAMPLES:
            raise ValueError(f"the script takes {n:.3g} samples, more than {MAX_SAMPLES}")


@dataclass(frozen=True)
class GroundTruthSample:
    stamp: float
    pose: PoseSE2
    is_static: bool
    waypoint_id: int | None = None  # set while dwelling


class _Phase:
    """One piecewise-constant motion segment of the scripted trajectory."""

    def __init__(self, duration, pose_fn, is_static, waypoint_id=None):
        self.duration = duration
        self.pose_fn = pose_fn
        self.is_static = is_static
        self.waypoint_id = waypoint_id


def _dwell_phase(pose, dwell, wp_id):
    return _Phase(dwell, lambda t, p=pose: p, True, wp_id)


def _turn_phase(x, y, theta_from, theta_to, turn_rate):
    delta = angle_diff(theta_to, theta_from)
    duration = abs(delta) / turn_rate
    rate = math.copysign(turn_rate, delta)

    def pose_fn(t, x=x, y=y, th=theta_from, rate=rate):
        return PoseSE2(x, y, th + rate * t)

    return _Phase(duration, pose_fn, False)


def _drive_phase(p0, p1, heading, speed):
    dist = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    duration = dist / speed
    ux = math.cos(heading)
    uy = math.sin(heading)

    def pose_fn(t, p0=p0, ux=ux, uy=uy, th=heading, v=speed):
        return PoseSE2(p0[0] + ux * v * t, p0[1] + uy * v * t, th)

    return _Phase(duration, pose_fn, False)


def _phases(script: TrajectoryScript):
    """The script's motion phases, and the pose it ends at."""
    phases = []
    wps = script.waypoints
    first = wps[0]
    if first.dwell > 0:
        phases.append(_dwell_phase(first.pose, first.dwell, 0))
    cur = first.pose
    for idx in range(1, len(wps)):
        wp = wps[idx]
        dx = wp.pose.x - cur.x
        dy = wp.pose.y - cur.y
        dist = math.hypot(dx, dy)
        if dist > 1e-12:
            heading = math.atan2(dy, dx)
            if abs(angle_diff(heading, cur.theta)) > 1e-12:
                phases.append(_turn_phase(cur.x, cur.y, cur.theta, heading, script.turn_rate))
            phases.append(_drive_phase((cur.x, cur.y), (wp.pose.x, wp.pose.y), heading, script.speed))
            cur = PoseSE2(wp.pose.x, wp.pose.y, heading)
        if abs(angle_diff(wp.pose.theta, cur.theta)) > 1e-12:
            phases.append(_turn_phase(cur.x, cur.y, cur.theta, wp.pose.theta, script.turn_rate))
            cur = wp.pose
        if wp.dwell > 0:
            phases.append(_dwell_phase(wp.pose, wp.dwell, idx))
        cur = wp.pose
    return phases, cur


def script_trajectory(script: TrajectoryScript):
    """Sample the scripted motion every sample_dt.

    Between waypoints the robot turns in place toward the travel direction,
    drives straight, turns to the waypoint's commanded heading, then dwells
    (is_static) for the waypoint's dwell time.
    """
    phases, cur = _phases(script)
    wps = script.waypoints
    total = sum(p.duration for p in phases)
    n = int(math.floor(total / script.sample_dt + 1e-9))
    samples = []
    for i in range(n + 1):
        t = i * script.sample_dt
        remaining = t
        sample = None
        for ph in phases:
            if remaining <= ph.duration + 1e-9:
                sample = GroundTruthSample(
                    stamp=t,
                    pose=ph.pose_fn(min(remaining, ph.duration)),
                    is_static=ph.is_static,
                    waypoint_id=ph.waypoint_id,
                )
                break
            remaining -= ph.duration
        if sample is None:  # numerical tail: clamp to final pose
            sample = GroundTruthSample(t, cur, bool(wps[-1].dwell > 0), len(wps) - 1)
        samples.append(sample)
    if not phases:  # single waypoint, zero dwell
        samples = [GroundTruthSample(0.0, wps[0].pose, True, 0)]
    return samples


def simulate_frame(sample, cameras, model, noise: NoiseModel, rng):
    """Simulate synchronized captures; returns per-camera detection messages.

    ``sample`` and ``rng`` are one GroundTruthSample and its generator, or
    equal-length sequences of them: the F frames are simulated as one batch
    and their messages returned in frame order, then camera-id order.

    Keypoints are projected exactly, then perturbed by truncated Gaussian
    pixel noise (clipped at 6 sigma), dropped out at random, and occasionally
    replaced by uniform-offset outliers. Confidence reflects only the
    Gaussian component, so outliers keep a deceptively plausible confidence.

    Each frame draws its noise from its own generator, frame after frame, as
    arrays over the C cameras, in camera-id order, by the M model keypoints,
    in this order and whether or not a keypoint is visible or a sigma is 0:
    the dropout uniforms (C, M), the pixel normals (C, M, 2), the outlier
    uniforms (C, M), the outlier angles (C, M) and radii (C, M), and the
    stamp jitter (C,). The batch is then projected in one project_robots
    and perturbed in one pass over (F, C, M) arrays, elementwise, so a
    frame's messages have the bytes of a call with it alone, and F frames
    sharing one generator draw as F single-frame calls would.
    """
    samples, rngs = ([sample], [rng]) if isinstance(sample, GroundTruthSample) else (sample, rng)
    if len(samples) != len(rngs):
        raise ValueError(f"{len(samples)} samples but {len(rngs)} generators")
    if not samples:
        return []
    cameras = sorted(cameras, key=lambda c: c.camera_id)
    pixels, visible = project_robots([s.pose for s in samples], cameras, model)
    shape = visible.shape[1:]
    dropout, offset, outlier, angle, radius, jitter = map(np.array, zip(*[
        (g.random(shape), g.normal(0.0, noise.pixel_sigma, shape + (2,)), g.random(shape),
         g.uniform(0.0, 2.0 * math.pi, shape), g.uniform(0.0, noise.outlier_spread, shape),
         g.normal(0.0, noise.timestamp_jitter, len(cameras))) for g in rngs]))
    kept = visible & (dropout >= noise.dropout_prob)
    mag = np.hypot(offset[..., 0], offset[..., 1])
    limit = 6.0 * noise.pixel_sigma
    clipped = mag > limit
    offset[clipped] *= (limit / mag[clipped])[:, None]
    mag[clipped] = limit
    # np.clip's values at less of its per-call cost, which a single frame feels
    confidence = np.minimum(np.maximum(1.0 - mag / (3.0 * noise.pixel_sigma + 1e-9),
                                       noise.confidence_floor), 1.0)
    pixels = pixels + offset
    outlier = outlier < noise.outlier_prob
    angle, radius = angle[outlier], radius[outlier]
    pixels[outlier] += (radius * np.array([np.cos(angle), np.sin(angle)])).T
    span = 3 * noise.timestamp_jitter
    jitter = np.minimum(np.maximum(jitter, -span), span).tolist()
    # the kept detections in (frame, camera, keypoint) order; those of
    # (frame f, camera c) are rows bounds[f * C + c] to bounds[f * C + c + 1]
    ids = kept.nonzero()[2]
    pixels, confidence = pixels[kept], confidence[kept]
    bounds = [0] + kept.sum(axis=2).cumsum().tolist()
    messages = []
    for fc, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if a < b:
            f, c = divmod(fc, len(cameras))
            stamp = ns_to_stamp(stamp_to_ns(samples[f].stamp + jitter[f][c]))
            messages.append(DetectionMessage(cameras[c].camera_id, stamp, ids[a:b],
                                             pixels[a:b], confidence[a:b]))
    return messages


def simulate_odometry_step(true_delta: PoseSE2, noise: OdometryNoise, rng) -> PoseSE2:
    """Perturb a true relative motion by drift noise and deterministic bias.

    Zero-length static steps pass through exactly: a standing robot does not
    accumulate odometry drift.
    """
    length = math.hypot(true_delta.x, true_delta.y)
    turn = abs(true_delta.theta)
    if length == 0.0 and turn == 0.0:
        return PoseSE2(0.0, 0.0, 0.0)
    sigma_t = noise.trans_sigma_per_meter * math.sqrt(length)
    sigma_r = noise.rot_sigma_per_meter * math.sqrt(length) + noise.rot_sigma_per_rad * math.sqrt(turn)
    nx = rng.normal(0.0, sigma_t) if sigma_t > 0 else 0.0
    ny = rng.normal(0.0, sigma_t) if sigma_t > 0 else 0.0
    nth = rng.normal(0.0, sigma_r) if sigma_r > 0 else 0.0
    return PoseSE2(
        true_delta.x * (1.0 + noise.bias_trans) + nx,
        true_delta.y * (1.0 + noise.bias_trans) + ny,
        true_delta.theta + noise.bias_rot * length + nth,
    )


def default_robot_model() -> RobotModel:
    """Eight keypoints at the corners of two stacked horizontal rectangles.

    The rectangle footprint is 0.35 m wide (x) by 0.45 m deep (y), at
    heights 0.05 m and 0.30 m, bilaterally symmetric about the body x-axis.
    """
    half_w = 0.35 / 2.0
    half_d = 0.45 / 2.0
    corners = []
    for z in (0.05, 0.30):
        for x, y in ((half_w, half_d), (half_w, -half_d), (-half_w, -half_d), (-half_w, half_d)):
            corners.append((x, y, z))
    return RobotModel(keypoints=np.array(corners), body_width=0.35)
