"""Rigid-body types, pinhole projection and reprojection residuals.

Everything here is a pure function of immutable value types: a ground-plane
robot pose (x, y, theta), calibrated pinhole cameras with fixed extrinsics,
and a rigid set of 3D keypoints on the robot body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroWeights, BehindCamera, UnknownCamera, UnknownKeypoint
from .sync import DetectionMessage, KeypointObservation

_TWO_PI = 2.0 * math.pi
MIN_DEPTH = 0.05  # m; projection depth clamp, see reprojection_kernel


def wrap_angle(a: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    a = math.fmod(a, _TWO_PI)
    if a > math.pi:
        a -= _TWO_PI
    elif a <= -math.pi:
        a += _TWO_PI
    return a


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorised wrap_angle: the same fmod and (-pi, pi] edges."""
    theta = np.fmod(theta, _TWO_PI)
    return theta - _TWO_PI * (theta > math.pi) + _TWO_PI * (theta <= -math.pi)


def angle_diff(a: float, b: float) -> float:
    """Wrapped difference a - b in (-pi, pi]."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class PoseSE2:
    """Ground-plane robot pose; theta is always normalized into (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def compose(self, other: "PoseSE2") -> "PoseSE2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return PoseSE2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def inverse(self) -> "PoseSE2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return PoseSE2(-c * self.x - s * self.y, s * self.x - c * self.y, -self.theta)

    def apply(self, pt_xy) -> np.ndarray:
        """Transform a ground-plane point (or array of points) by this pose."""
        pt = np.asarray(pt_xy, dtype=float)
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, -s], [s, c]])
        return pt @ rot.T + np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


@dataclass(frozen=True)
class RigidTransform3:
    """Rotation + translation in 3D; rotation must be orthonormal, det +1."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        tr = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")

    def apply(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform3":
        rt = self.rotation.T
        return RigidTransform3(rt, -rt @ self.translation)


@dataclass(frozen=True)
class CameraModel:
    """Calibrated pinhole camera with a fixed world-to-camera extrinsic."""

    camera_id: int
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    world_to_camera: RigidTransform3

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point outside the image")

    def center_world(self) -> np.ndarray:
        """Camera optical center in world coordinates."""
        return self.world_to_camera.inverse().translation

    def ground_position(self) -> np.ndarray:
        """Camera center projected to the ground plane."""
        return self.center_world()[:2]


@dataclass(frozen=True)
class RobotModel:
    """M rigid 3D keypoints in the robot body frame."""

    keypoints: np.ndarray
    body_width: float

    def __post_init__(self):
        kps = np.asarray(self.keypoints, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "keypoints", kps)
        if kps.shape[0] < 4:
            raise ValueError("robot model needs at least 4 keypoints")
        if np.abs(kps).max() > 1.0:
            raise ValueError("keypoints exceed the 1 m body bounding box")
        if self.body_width <= 0:
            raise ValueError("body_width must be positive")

    @property
    def n_keypoints(self) -> int:
        return self.keypoints.shape[0]


def project_points(camera: CameraModel, pts_world: np.ndarray):
    """Vectorized projection. Returns (pixels (N,2), valid depth mask (N,))."""
    pc = camera.world_to_camera.apply(pts_world)
    valid = pc[:, 2] > 1e-9
    z = np.where(valid, pc[:, 2], 1.0)
    pix = np.stack(
        [camera.fx * pc[:, 0] / z + camera.cx, camera.fy * pc[:, 1] / z + camera.cy],
        axis=1,
    )
    return pix, valid


def in_image(camera: CameraModel, pix: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mask (N,) of projections from ``project_points`` that are in front of
    the camera and, rounded to the pixel grid, land inside the image."""
    col, row = np.round(pix[:, 0]), np.round(pix[:, 1])
    return valid & (col >= 0) & (col < camera.width) & (row >= 0) & (row < camera.height)


def visible_keypoints(camera: CameraModel, pts_world: np.ndarray) -> np.ndarray:
    """Mask (N,) of the points whose projection is ``in_image``."""
    return in_image(camera, *project_points(camera, pts_world))


def keypoints_world(pose: PoseSE2, model: RobotModel) -> np.ndarray:
    """World positions of all keypoints, shape (M, 3): the body keypoints
    rotated about z by theta and shifted by (x, y) on the ground plane."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return model.keypoints @ rot.T + np.array([pose.x, pose.y, 0.0])


@dataclass(frozen=True)
class FlatObservations:
    """Detections flattened once per solve, one row per detected keypoint.

    The camera-frame point of row k with the robot at (x, y, theta) is
    ``r0 * (bx + x) + r1 * (by + y) + base`` where (bx, by) is the body
    keypoint rotated by theta, so the keypoint height and the camera
    translation are folded into ``base`` ahead of every evaluation.
    """

    r0: np.ndarray  # (K, 3) first column of the camera rotation
    r1: np.ndarray  # (K, 3) second column of the camera rotation
    base: np.ndarray  # (K, 3) kp_z * R[:, 2] + t
    focal: np.ndarray  # (K, 2) fx, fy
    center: np.ndarray  # (K, 2) cx, cy
    kx: np.ndarray  # (K,) body-frame keypoint x
    ky: np.ndarray  # (K,) body-frame keypoint y
    pixel: np.ndarray  # (K, 2) observed pixel
    weight: np.ndarray  # (K,) detection confidence
    n_cameras: int

    @property
    def n_rows(self) -> int:
        return len(self.weight)


def flatten_observations(pairs, model: RobotModel) -> FlatObservations:
    """Flatten (camera, detection message) pairs into one FlatObservations.

    Raises UnknownKeypoint for a keypoint index outside the robot model.
    """
    cams, index, pixel, weight, cam_row = [], [], [], [], []
    for camera, message in pairs:
        for k in message.keypoints:
            index.append(k.index)
            pixel.append(k.pixel)
            weight.append(k.confidence)
        cam_row += [len(cams)] * len(message.keypoints)
        cams.append(camera)
    idx = np.array(index, dtype=int)
    bad = (idx < 0) | (idx >= model.n_keypoints)
    if bad.any():
        raise UnknownKeypoint(f"keypoint index {idx[bad][0]} outside the "
                              f"{model.n_keypoints}-keypoint robot model")
    rot = np.array([c.world_to_camera.rotation for c in cams]).reshape(-1, 3, 3)
    columns = rot.transpose(2, 0, 1)[:, cam_row]  # (3, K, 3): rotation column j of row k
    trans = np.array([c.world_to_camera.translation for c in cams]).reshape(-1, 3)[cam_row]
    intrinsics = np.array([[c.fx, c.fy, c.cx, c.cy] for c in cams]).reshape(-1, 4)[cam_row]
    kp = model.keypoints[idx]
    return FlatObservations(
        r0=columns[0],
        r1=columns[1],
        base=kp[:, 2:] * columns[2] + trans,
        focal=intrinsics[:, :2],
        center=intrinsics[:, 2:],
        kx=kp[:, 0],
        ky=kp[:, 1],
        pixel=np.array(pixel, dtype=float).reshape(-1, 2),
        weight=np.array(weight, dtype=float),
        n_cameras=len(cams),
    )


def frameset_observations(frameset, cameras, model: RobotModel) -> FlatObservations:
    """Flatten a frame-set in camera-id order.

    Raises UnknownCamera for a camera id outside the rig and UnknownKeypoint
    for a keypoint index outside the robot model.
    """
    cams = {c.camera_id: c for c in cameras}
    pairs = []
    for cam_id in sorted(frameset.per_camera):
        if cam_id not in cams:
            raise UnknownCamera(f"camera {cam_id} not in rig")
        pairs.append((cams[cam_id], frameset.per_camera[cam_id]))
    return flatten_observations(pairs, model)


def reprojection_kernel(params, obs: FlatObservations, jacobian: bool = False):
    """Reprojection residuals of S robot poses against K flattened rows.

    params: (S, 3) rows of (x, y, theta). Returns (residuals (S, K, 2),
    Jacobian (S, K, 2, 3) w.r.t. (x, y, theta) or None, depth (S, K)).
    The residual is observed pixel minus projection. Depth is the camera-
    frame z before the projection clamps it at MIN_DEPTH, which keeps the
    residual and its gradient finite when a trial pose puts a keypoint
    behind a camera.
    """
    params = np.asarray(params, dtype=float)
    theta = params[:, 2:3]
    c, s = np.cos(theta), np.sin(theta)
    bx = c * obs.kx - s * obs.ky  # (S, K) body keypoint rotated into the world
    by = s * obs.kx + c * obs.ky
    pc = (bx + params[:, 0:1])[..., None] * obs.r0 + (by + params[:, 1:2])[..., None] * obs.r1
    pc += obs.base
    depth = pc[..., 2]
    z = np.maximum(depth, MIN_DEPTH)[..., None]
    res = obs.pixel - (obs.focal * pc[..., :2] / z + obs.center)
    if not jacobian:
        return res, None, depth
    # residual = -projection and d(f * p / z) = f / z * (dp - p / z * dz), with
    # d pc / d(x, y, theta) = r0, r1 and the rotated body lever arm
    f_z = obs.focal / z
    p_z = pc[..., :2] / z
    d_theta = bx[..., None] * obs.r1 - by[..., None] * obs.r0
    jac = np.empty(res.shape + (3,))
    for col, d_pc in enumerate((obs.r0, obs.r1, d_theta)):
        jac[..., col] = f_z * (p_z * d_pc[..., 2:] - d_pc[..., :2])
    return res, jac, depth


def reprojection_residuals(pose: PoseSE2, cameras, frameset, model: RobotModel):
    """Stacked reprojection residuals over a frame-set.

    Returns (residuals (K, 2), weights (K,)) with one row per detected
    keypoint: observed pixel minus projected model keypoint. The weighted
    squared norm of the stack is the multi-view least-squares objective.
    Evaluated by the solver's kernel, so depth is clamped at MIN_DEPTH as
    in the solve; raises BehindCamera when a keypoint lies behind its camera.
    """
    obs = frameset_observations(frameset, cameras, model)
    res, _, depth = reprojection_kernel(pose.as_array()[None], obs)
    if np.any(depth <= 1e-9):
        raise BehindCamera(f"depth {depth.min():.3g} behind a camera")
    return res[0], obs.weight


def residual_jacobian(
    pose: PoseSE2, camera: CameraModel, model: RobotModel, j: int
) -> np.ndarray:
    """2x3 derivative of the reprojection residual w.r.t. (x, y, theta).

    Chain rule through the ground-plane embedding, the camera extrinsic and
    the pinhole division, evaluated by the solver's own kernel. The residual
    is observation minus projection, so the result is the negated
    projection derivative.
    """
    message = DetectionMessage(camera.camera_id, 0.0, (KeypointObservation(j, (0.0, 0.0), 1.0),))
    obs = flatten_observations([(camera, message)], model)
    _, jac, depth = reprojection_kernel(pose.as_array()[None], obs, jacobian=True)
    if depth[0, 0] <= 1e-9:
        raise BehindCamera(f"depth {depth[0, 0]:.3g} in camera {camera.camera_id}")
    return jac[0, 0]


def circular_weighted_mean(angles, weights) -> float:
    """Weighted mean of angles on the unit circle, result in (-pi, pi]."""
    angles = np.asarray(angles, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not np.any(weights > 0):
        raise AllZeroWeights("all weights are zero")
    s = float(np.sum(weights * np.sin(angles)))
    c = float(np.sum(weights * np.cos(angles)))
    return wrap_angle(math.atan2(s, c))
