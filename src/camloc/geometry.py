"""Rigid-body types, pinhole projection and reprojection residuals.

Everything here is a pure function of immutable value types: a ground-plane
robot pose (x, y, theta), calibrated pinhole cameras with fixed extrinsics,
and a rigid set of 3D keypoints on the robot body. The one cache, of the
rig's linear map (_rig_map), changes no result: it is built once per
(cameras, robot model), and the rig projection and every flattened
frame-set read their columns from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnknownCamera, UnknownKeypoint

_TWO_PI = 2.0 * math.pi
MIN_DEPTH = 0.05  # m; projection depth clamp and visibility bound, see _pixel_offset


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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ValueError("principal point outside the image")
        # optical center: the world point that world_to_camera maps to 0
        rot, tr = self.world_to_camera.rotation, self.world_to_camera.translation
        object.__setattr__(self, "_center", -rot.T @ tr)

    def center_world(self) -> np.ndarray:
        """Camera optical center in world coordinates."""
        return self._center

    def ground_position(self) -> np.ndarray:
        """Camera center projected to the ground plane."""
        return self._center[:2]


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
        if not (np.abs(kps) <= 1.0).all():
            raise ValueError("keypoints must be finite and inside the 1 m body bounding box")
        if (kps[:, :2] == kps[0, :2]).all():  # a turn about it would move no keypoint
            raise ValueError("keypoints must not all share one ground-plane footprint (x, y)")
        if not 0 < self.body_width < math.inf:
            raise ValueError("body_width must be finite and positive")

    @property
    def n_keypoints(self) -> int:
        return self.keypoints.shape[0]


@dataclass(frozen=True)
class FlatObservations:
    """A frame-set flattened once, one column per detected keypoint.

    With the robot at (x, y, theta), the camera-frame point of column k is
    linear in (cos theta, sin theta, x, y, 1). For a camera rotation with
    columns R0, R1, R2, a translation t and a body keypoint (bx, by, bz):

        pc = cos * (bx R0 + by R1) + sin * (bx R1 - by R0)
             + x R0 + y R1 + (bz R2 + t)

    ``linear_map`` holds these five coefficient vectors as its rows, with
    the x and y components scaled by fx and fy. One matmul then gives
    (fx X, fy Y, Z), and its first two components divided by Z are the
    pixel offset from the principal point. The columns are component-major:
    column j * K + k is component j of keypoint k. Keypoints follow the
    cameras in camera-id order, then each message's detection order.
    """

    linear_map: np.ndarray  # (5, 3K) coefficients of (cos, sin, x, y, 1)
    center: np.ndarray  # (2, K) cx, cy
    pixel: np.ndarray  # (2, K) observed pixel
    weight: np.ndarray  # (K,) detection confidence
    stamp: float  # the frame-set's anchor stamp
    cameras: tuple  # the contributing CameraModels, in camera-id order
    offsets: tuple  # camera i's keypoints are offsets[i]:offsets[i + 1]
    rejected: int = 0  # detections dropped as lying far outside their image

    @property
    def n_rows(self) -> int:
        return len(self.weight)

    @property
    def n_cameras(self) -> int:
        return len(self.cameras)

    def camera(self, i: int) -> "FlatObservations":
        """Camera i's keypoints alone, as a one-camera FlatObservations."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        linear_map = self.linear_map.reshape(5, 3, self.n_rows)[:, :, lo:hi].reshape(5, -1)
        return FlatObservations(linear_map, self.center[:, lo:hi], self.pixel[:, lo:hi],
                                self.weight[lo:hi], self.stamp, self.cameras[i:i + 1],
                                (0, hi - lo))


def flatten_observations(frameset, cameras, model: RobotModel) -> FlatObservations:
    """Flatten a frame-set into one FlatObservations, gathering its columns
    from the rig's linear map (see _rig_map).

    A detection more than one image width (u) or height (v) outside its
    camera's image is dropped and counted in ``rejected``: no camera could
    have produced it, and its residual would swamp the solve. The simulated
    noise moves a pixel at most 6 * pixel_sigma + outlier_spread (62 px by
    default) past the edge. A camera left without keypoints adds none.

    Raises UnknownCamera for a camera id outside the rig and UnknownKeypoint
    for a keypoint index outside the robot model.
    """
    rig_cams, rig_map, rig_center, rig_size = _rig_map(cameras, model)
    position = {c.camera_id: i for i, c in enumerate(rig_cams)}
    unknown = frameset.per_camera.keys() - position.keys()
    if unknown:
        raise UnknownCamera(f"camera {min(unknown)} not in rig")
    ids = sorted(frameset.per_camera)
    messages = [frameset.per_camera[i] for i in ids]
    idx = np.concatenate([m.keypoints for m in messages] + [np.zeros(0, int)])
    bad = (idx < 0) | (idx >= model.n_keypoints)
    if bad.any():
        raise UnknownKeypoint(f"keypoint index {idx[bad][0]} outside the "
                              f"{model.n_keypoints}-keypoint robot model")
    n_rows = [len(m.keypoints) for m in messages]
    pixel = np.concatenate([m.pixels for m in messages] + [np.zeros((0, 2))])
    rig_row = np.repeat(np.array([position[i] for i in ids], dtype=int), n_rows)
    size = rig_size[rig_row, :, 0]
    keep = (np.abs(pixel - 0.5 * size) <= 1.5 * size).all(axis=1)
    counts = np.bincount(np.repeat(np.arange(len(ids)), n_rows)[keep], minlength=len(ids))
    cams = tuple(rig_cams[position[i]] for i, n in zip(ids, counts) if n)
    counts = counts[counts > 0]  # kept keypoints per contributing camera
    m = model.n_keypoints
    columns = (rig_row * m + idx)[keep]
    return FlatObservations(
        linear_map=rig_map.reshape(5, 3, len(rig_cams) * m).take(columns, axis=2).reshape(5, -1),
        center=rig_center.take(columns, axis=1),
        pixel=pixel[keep].T.copy(),
        weight=np.concatenate([m.confidence for m in messages] + [np.zeros(0)])[keep],
        stamp=frameset.anchor_stamp,
        cameras=cams,
        offsets=tuple(itertools.accumulate(counts.tolist(), initial=0)),
        rejected=len(keep) - int(np.count_nonzero(keep)),
    )


def _linear_map(cams, cam_row, body_points):
    """The (5, 3K) linear map of FlatObservations and the (2, K) principal
    points of K columns: column k is body point body_points[k] (K, 3) seen
    by camera cams[cam_row[k]]."""
    rot = np.array([c.world_to_camera.rotation for c in cams]).reshape(-1, 3, 3)
    trans = np.array([c.world_to_camera.translation for c in cams]).reshape(-1, 3, 1)
    intrinsics = np.array([(c.fx, c.fy, 1.0, c.cx, c.cy) for c in cams]).reshape(-1, 5)
    # [R | t] with its x and y rows scaled by fx and fy, per camera
    extrinsic = np.concatenate([rot, trans], axis=2) * intrinsics[:, :3, None]
    r0, r1, r2, t = extrinsic[cam_row].transpose(2, 1, 0)  # (3, K) each
    bx, by, bz = body_points.T
    linear_map = np.stack([bx * r0 + by * r1, bx * r1 - by * r0, r0, r1, bz * r2 + t])
    return linear_map.reshape(5, -1), intrinsics[cam_row, 3:].T.copy()


_last_rig = ((), None, None, None, None)  # (cameras, model, *_rig_map's arrays)


def _rig_map(cameras, model: RobotModel):
    """The cameras as a tuple, and the linear map (5, 3CM), principal points
    (2, CM) and image sizes (C, 2, 1) of the C cameras: column i * M + j is
    keypoint j of ``model`` in camera i. _linear_map computes a column from
    its camera and keypoint alone, so gathered columns have the bits of a
    fresh map of just those columns.

    Every caller passes one rig, so one entry is kept. It is reused while
    the cameras, in order, and the model are the same objects, and it holds
    them, so their ids cannot be reused."""
    global _last_rig
    cams, last_model, *arrays = _last_rig
    if (last_model is not model or len(cams) != len(cameras)
            or any(a is not b for a, b in zip(cams, cameras))):
        cams, m = tuple(cameras), model.n_keypoints
        linear_map, center = _linear_map(cams, np.repeat(np.arange(len(cams)), m),
                                         np.tile(model.keypoints, (len(cams), 1)))
        size = np.array([(c.width, c.height) for c in cams], dtype=int).reshape(-1, 2, 1)
        arrays = [linear_map, center, size]
        for a in arrays:
            a.flags.writeable = False
        _last_rig = (cams, model, *arrays)
    return (cams, *arrays)


def _pixel_offset(pc):
    """Pixel offset from the principal point (2, K) of camera-frame points
    pc (3, K) whose x and y are scaled by fx and fy, and the depth it
    divides by: pc's z clamped at MIN_DEPTH."""
    z = np.maximum(pc[2], MIN_DEPTH)
    return pc[:2] / z, z


def project_robot(pose: PoseSE2, cameras, model: RobotModel):
    """Every robot keypoint projected into every camera, with the robot at
    ``pose``. Returns (pixels (C, M, 2), visible (C, M)), cameras in the
    given order: keypoint j is visible in camera i iff it lies more than
    MIN_DEPTH in front of the camera and its pixel, rounded to the pixel
    grid, lands inside the image."""
    cams, linear_map, center, size = _rig_map(cameras, model)
    m = model.n_keypoints
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    pc = (np.array([c, s, pose.x, pose.y, 1.0]) @ linear_map).reshape(3, -1)
    pixels = (_pixel_offset(pc)[0] + center).reshape(2, len(cams), m)
    col, row = np.round(pixels)
    visible = ((pc[2].reshape(len(cams), m) > MIN_DEPTH) & (col >= 0) & (col < size[:, 0])
               & (row >= 0) & (row < size[:, 1]))
    return pixels.transpose(1, 2, 0), visible


# Rows applied to FlatObservations.linear_map: the camera-frame point,
# (cos, sin, x, y, 1), and its derivatives in x, y and theta, (0, 0, 1, 0, 0),
# (0, 0, 0, 1, 0) and (-sin, cos, 0, 0, 0). The pose-dependent entries are
# filled per pose.
_POINT_AND_DERIVATIVES = np.array([[0.0, 0.0, 0.0, 0.0, 1.0],
                                   [0.0, 0.0, 1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 1.0, 0.0],
                                   [0.0, 0.0, 0.0, 0.0, 0.0]])


def reprojection_kernel(pose, obs: FlatObservations):
    """Reprojection residuals of one robot pose against K flattened keypoints.

    pose: (x, y, theta). Returns (residuals (2, K), Jacobian (3, 2, K) w.r.t.
    (x, y, theta), depth (K,)). The residual is observed pixel minus
    projection. Depth is the camera-frame z before the projection clamps it
    at MIN_DEPTH, which keeps the residual and its gradient finite when a
    trial pose puts a keypoint behind a camera.
    """
    x, y, theta = pose
    c, s = math.cos(theta), math.sin(theta)
    rows = _POINT_AND_DERIVATIVES.copy()
    rows[0, 0] = rows[3, 1] = c
    rows[0, 1] = s
    rows[3, 0] = -s
    rows[0, 2:4] = x, y
    point_and_derivatives = (rows @ obs.linear_map).reshape(4, 3, obs.n_rows)
    pc = point_and_derivatives[0]
    res, jac = _residual(pc, point_and_derivatives[1:], obs.pixel, obs.center)
    return res, jac, pc[2]


def reprojection_kernels(params, linear_map, pixel, center):
    """reprojection_kernel of N poses, params (3, N), each against its own
    frame-set of W columns: linear_map (N, 5, 3W), pixel and center
    (2, N, W). Returns (residuals (2, N, W), Jacobian (3, 2, N, W)). Each
    frame-set's projection is the one matmul of reprojection_kernel, so
    its bits do not depend on the other frame-sets or on zero columns
    appended to its own.
    """
    x, y, theta = params
    c, s = np.cos(theta), np.sin(theta)
    rows = np.tile(_POINT_AND_DERIVATIVES, (len(theta), 1, 1))
    rows[:, 0, 0] = rows[:, 3, 1] = c
    rows[:, 0, 1] = s
    rows[:, 3, 0] = -s
    rows[:, 0, 2], rows[:, 0, 3] = x, y
    point_and_derivatives = np.matmul(rows, linear_map).reshape(len(theta), 4, 3, -1)
    point_and_derivatives = point_and_derivatives.transpose(1, 2, 0, 3)
    return _residual(point_and_derivatives[0], point_and_derivatives[1:], pixel, center)


def _residual(pc, d_pc, pixel, center):
    """Observed pixel (2, ...) minus the projection of camera-frame points
    pc (3, ...), as _pixel_offset makes it, and its Jacobian (3, 2, ...)
    from d_pc (3, 3, ...), pc's derivatives in (x, y, theta)."""
    offset, z = _pixel_offset(pc)
    # residual = -projection and d(fp / z) = (fp / z * dz - d(fp)) / -z,
    # formed in place to hold one (3, 2, ...) array
    jac = offset * d_pc[:, 2:]
    jac -= d_pc[:, :2]
    jac /= z
    return pixel - (offset + center), jac

