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


def flatten_observations(frameset, cameras, model: RobotModel) -> FlatObservations:
    """Flatten a frame-set into one FlatObservations: gather_observations of
    the frame-set alone, whose rule and checks it shares (see _gather).

    Raises UnknownCamera for a camera id outside the rig and UnknownKeypoint
    for a keypoint index outside the robot model.
    """
    (linear_map, center, pixel, weight), rows, failures = _gather([frameset], cameras, model)
    if failures:
        raise failures[0][1]
    _, (stamp,), (cams,), (offsets,), (rejected,) = rows
    return FlatObservations(linear_map.reshape(5, -1), center, pixel.T.copy(), weight, stamp,
                            cams, offsets, rejected)


@dataclass(frozen=True)
class ObservationBlock:
    """N frame-sets flattened at once, in the layout of the batched solve.

    Row n holds frame-set n's K_n columns, as FlatObservations orders them,
    padded with zero columns to the widest row's W: a zero column has a
    zero linear map, principal point, pixel and weight. The per-row tuples
    and arrays hold what FlatObservations holds for one frame-set.
    """

    linear_map: np.ndarray  # (N, 5, 3W); row n's column j * W + k is component j of keypoint k
    center: np.ndarray  # (2, N, W)
    pixel: np.ndarray  # (2, N, W)
    weight: np.ndarray  # (N, W)
    n_rows: np.ndarray  # (N,) each row's K_n
    stamps: tuple
    cameras: tuple  # each row's contributing CameraModels, in camera-id order
    offsets: tuple  # each row's camera column ranges
    rejected: tuple  # each row's detections dropped as far outside their image
    source: tuple  # each row's position among the gathered frame-sets
    failures: tuple  # (position, UnknownCamera or UnknownKeypoint) of each frame-set left out

    def __len__(self) -> int:
        return len(self.n_rows)

    def row(self, n: int) -> FlatObservations:
        """Row n as the FlatObservations that flatten_observations makes of
        its frame-set, bit for bit."""
        k, w = int(self.n_rows[n]), self.weight.shape[1]
        linear_map = self.linear_map[n].reshape(5, 3, w)[:, :, :k].reshape(5, -1)
        return FlatObservations(linear_map, self.center[:, n, :k], self.pixel[:, n, :k],
                                self.weight[n, :k], self.stamps[n], self.cameras[n],
                                self.offsets[n], self.rejected[n])


def gather_observations(framesets, cameras, model: RobotModel) -> ObservationBlock:
    """Flatten frame-sets into one ObservationBlock, gathering their columns
    from the rig's linear map (see _rig_map).

    A frame-set with a camera id outside the rig gets no row: it is left out
    with an UnknownCamera, and one with a keypoint index outside the robot
    model with an UnknownKeypoint. A detection more than one image width
    (u) or height (v) outside its camera's image is dropped and counted in
    its row's ``rejected``: no camera could have produced it, and its
    residual would swamp the solve. The simulated noise moves a pixel at
    most 6 * pixel_sigma + outlier_spread (62 px by default) past the edge.
    A camera left without keypoints adds none.
    """
    (linear_map, center, pixel, weight), rows, failures = _gather(framesets, cameras, model)
    source, stamps, cams, offsets, rejected = rows
    n_rows = np.array([o[-1] for o in offsets], dtype=int)
    n, width = len(n_rows), max(n_rows.tolist(), default=0)
    # kept column c of row r lands in column c - (r's first) of the padded row
    row_of = np.repeat(np.arange(n), n_rows)
    col = np.arange(len(row_of)) - (np.cumsum(n_rows) - n_rows)[row_of]

    def padded(values):
        """(..., N, W) from the kept columns' values (..., sum of K_n)."""
        out = np.zeros((*values.shape[:-1], n, width))
        out[..., row_of, col] = values
        return out

    block_map = np.zeros((n, 15, width))
    block_map[row_of, :, col] = linear_map.T
    return ObservationBlock(block_map.reshape(n, 5, 3 * width),
                            padded(center), padded(pixel.T), padded(weight), n_rows,
                            tuple(stamps), tuple(cams), tuple(offsets), tuple(rejected),
                            tuple(source), tuple(failures))


def _gather(framesets, cameras, model: RobotModel):
    """The rule of gather_observations, before the padding: (columns, rows,
    failures). columns holds the kept columns of all rows, each row's after
    the row before's: their linear map (15, C), principal points (2, C),
    pixels (C, 2) and weights (C,). rows holds five lists, of each row's
    position among the frame-sets, stamp, cameras, offsets and rejected
    count. failures lists (position, error) in position order."""
    rig_cams, rig_map, rig_center, rig_size = _rig_map(cameras, model)
    position = {c.camera_id: i for i, c in enumerate(rig_cams)}
    m = model.n_keypoints
    source, stamps, failures = [], [], []
    rows = []  # each row's (rig position, message) pairs, in camera-id order
    for p, fs in enumerate(framesets):
        unknown = fs.per_camera.keys() - position.keys()
        if unknown:
            failures.append((p, UnknownCamera(f"camera {min(unknown)} not in rig")))
            continue
        source.append(p)
        stamps.append(fs.anchor_stamp)
        rows.append([(position[i], fs.per_camera[i]) for i in sorted(fs.per_camera)])
    while True:  # until no row holds an unknown keypoint
        messages = [msg for row in rows for _, msg in row]
        lengths = [len(msg.keypoints) for msg in messages]
        idx = np.concatenate([msg.keypoints for msg in messages] + [np.zeros(0, int)])
        bad = (idx < 0) | (idx >= m)
        if not bad.any():
            break
        row_of = np.repeat(np.arange(len(rows)),
                           [sum(len(msg.keypoints) for _, msg in row) for row in rows])
        drop = np.unique(row_of[bad]).tolist()
        failures += [(source[r], UnknownKeypoint(f"keypoint index {idx[bad & (row_of == r)][0]} "
                                                 f"outside the {m}-keypoint robot model"))
                     for r in drop]
        source, stamps, rows = ([x for r, x in enumerate(a) if r not in drop]
                                for a in (source, stamps, rows))
    failures.sort(key=lambda failure: failure[0])

    pixel = np.concatenate([msg.pixels for msg in messages] + [np.zeros((0, 2))])
    rig_row = np.repeat(np.array([p for row in rows for p, _ in row], dtype=int), lengths)
    size = rig_size[rig_row, :, 0]
    keep = (np.abs(pixel - 0.5 * size) <= 1.5 * size).all(axis=1)
    if keep.all():  # the common case: every detection is a column
        kept, keep = lengths, slice(None)
    else:
        kept = np.bincount(np.repeat(np.arange(len(messages)), lengths)[keep],
                           minlength=len(messages)).tolist()
    cams, offsets, rejected = [], [], []
    k = 0
    for row in rows:
        end = k + len(row)
        cams.append(tuple(itertools.compress([rig_cams[p] for p, _ in row], kept[k:end])))
        offsets.append(tuple(itertools.accumulate(filter(None, kept[k:end]), initial=0)))
        rejected.append(sum(lengths[k:end]) - offsets[-1][-1])
        k = end
    columns = (rig_row * m + idx)[keep]
    weight = np.concatenate([msg.confidence for msg in messages] + [np.zeros(0)])[keep]
    return ((rig_map.reshape(15, -1).take(columns, axis=1), rig_center.take(columns, axis=1),
             pixel[keep], weight), (source, stamps, cams, offsets, rejected), failures)


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
    pixels, visible = project_robots([pose], cameras, model)
    return pixels[0], visible[0]


def project_robots(poses, cameras, model: RobotModel):
    """project_robot at each of F poses: (pixels (F, C, M, 2), visible
    (F, C, M)). Each pose is its own product with the rig's linear map in
    one stacked matmul, so its pixels do not depend on the other poses."""
    cams, linear_map, center, size = _rig_map(cameras, model)
    shape = (len(poses), len(cams), model.n_keypoints)
    rows = np.array([(math.cos(p.theta), math.sin(p.theta), p.x, p.y, 1.0) for p in poses])
    pc = np.matmul(rows.reshape(-1, 1, 5), linear_map).reshape(-1, 3, shape[1] * shape[2])
    offset, _ = _pixel_offset(pc.transpose(1, 0, 2))
    pixels = (offset + center[:, None]).reshape((2,) + shape)
    col, row = np.round(pixels)
    visible = ((pc[:, 2].reshape(shape) > MIN_DEPTH) & (col >= 0) & (col < size[:, 0])
               & (row >= 0) & (row < size[:, 1]))
    return pixels.transpose(1, 2, 3, 0), visible


# Rows applied to FlatObservations.linear_map: the camera-frame point,
# (cos, sin, x, y, 1), and its derivatives in x, y and theta, (0, 0, 1, 0, 0),
# (0, 0, 0, 1, 0) and (-sin, cos, 0, 0, 0). The pose-dependent entries are
# filled per pose.
_POINT_AND_DERIVATIVES = np.array([[0.0, 0.0, 0.0, 0.0, 1.0],
                                   [0.0, 0.0, 1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0, 1.0, 0.0],
                                   [0.0, 0.0, 0.0, 0.0, 0.0]])


def reprojection_kernels(params, linear_map, pixel, center):
    """Reprojection residuals of N robot poses, params (3, N) of (x, y,
    theta), each against its own frame-set of W flattened keypoints:
    linear_map (N, 5, 3W), pixel and center (2, N, W). Returns (residuals
    (2, N, W), Jacobian (3, 2, N, W) w.r.t. (x, y, theta)). The residual
    is observed pixel minus projection; the projection clamps the depth at
    MIN_DEPTH, which keeps the residual and its gradient finite when a
    trial pose puts a keypoint behind a camera. Each frame-set's projection
    is its own matmul, so its bits do not depend on the other frame-sets or
    on zero columns appended to its own.
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
    d_pc = point_and_derivatives[1:]  # the derivatives of pc in (x, y, theta)
    offset, z = _pixel_offset(point_and_derivatives[0])
    # residual = -projection and d(fp / z) = (fp / z * dz - d(fp)) / -z,
    # formed in place to hold one (3, 2, N, W) array
    jac = offset * d_pc[:, 2:]
    jac -= d_pc[:, :2]
    jac /= z
    return pixel - (offset + center), jac
