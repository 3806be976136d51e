import math

import numpy as np
import pytest

from camloc import geometry
from camloc.errors import UnknownCamera, UnknownKeypoint
from camloc.geometry import (
    MIN_DEPTH,
    CameraModel,
    PoseSE2,
    RigidTransform3,
    RobotModel,
    angle_diff,
    flatten_observations,
    gather_observations,
    project_robot,
    reprojection_kernel,
    wrap_angle,
)
from camloc.estimation import BATCH_BLOCK
from camloc.pipeline import simulate_detections
from camloc.scenario import load_config
from camloc.sync import DetectionMessage, FrameSet, Synchronizer

from oracles import (BehindCamera, central_difference_jacobian, keypoint_world, project,
                     reference_flatten)


def _axis_camera(fx=600.0, fy=600.0, cx=424.0, cy=240.0):
    """Camera at the origin looking along world +z (identity extrinsic)."""
    return CameraModel(0, fx, fy, cx, cy, 848, 480, RigidTransform3(np.eye(3), np.zeros(3)))


class TestAngles:
    def test_wrap_into_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.1) == pytest.approx(0.1)

    def test_angle_diff_wraps(self):
        assert angle_diff(math.radians(170), math.radians(-170)) == pytest.approx(
            math.radians(-20)
        )


class TestPoseSE2:
    def test_theta_normalized_on_construction(self):
        assert PoseSE2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_compose_inverse_is_identity(self, rng):
        for _ in range(100):
            p = PoseSE2(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
            r = p.compose(p.inverse())
            assert abs(r.x) < 1e-12 and abs(r.y) < 1e-12 and abs(r.theta) < 1e-12

    def test_apply_rotates_and_translates(self):
        p = PoseSE2(1.0, 2.0, math.pi / 2)
        np.testing.assert_allclose(p.apply([1.0, 0.0]), [1.0, 3.0], atol=1e-12)


class TestRigidTransform3:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform3(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestCameraModel:
    def test_center_maps_to_camera_origin(self, rng):
        for _ in range(10):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            cam = CameraModel(0, 600.0, 600.0, 424.0, 240.0, 848, 480,
                              RigidTransform3(q, rng.normal(size=3)))
            center = cam.center_world()
            np.testing.assert_allclose(cam.world_to_camera.apply(center), 0.0, atol=1e-12)
            np.testing.assert_array_equal(cam.ground_position(), center[:2])


# A camera at the world origin looking along world +x: camera x is world -y,
# camera y is world -z, so a point (d, -u, -v) has depth d and, at d = 1,
# pixel offset (fx u, fy v) from the principal point.
_FORWARD = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
# Keypoint 0 at the body origin, keypoint 1 half a metre to the body's right.
_PROBE = RobotModel(keypoints=np.array([[0, 0, 0], [0, -0.5, 0], [0.1, 0, 0.2], [0, 0.3, 0.1]]),
                    body_width=0.35)


def _forward_camera(fx=600.0, fy=600.0, cx=424.0, cy=240.0):
    return CameraModel(0, fx, fy, cx, cy, 848, 480, RigidTransform3(_FORWARD, np.zeros(3)))


def _random_camera(rng, camera_id):
    """A camera somewhere in the 10 x 8 m room, 1-3 m high, with a random
    orientation."""
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    q *= np.sign(np.linalg.det(q))
    center = np.array([*rng.uniform((0, 0), (10, 8)), rng.uniform(1, 3)])
    return CameraModel(camera_id, *rng.uniform(400, 800, 2), 424.0, 240.0, 848, 480,
                       RigidTransform3(q, -q @ center))


class TestProjection:
    def test_principal_point(self):
        pix, visible = project_robot(PoseSE2(2.0, 0.0, 0.0), [_forward_camera()], _PROBE)
        assert visible[0, 0]
        np.testing.assert_allclose(pix[0, 0], [424, 240])

    def test_pinhole_offset(self):
        pix, _ = project_robot(PoseSE2(2.0, 0.0, 0.0), [_forward_camera()], _PROBE)
        np.testing.assert_allclose(pix[0, 1], [574, 240])

    def test_behind_camera(self):
        # the point behind the camera projects inside the image once its
        # depth is clamped, so only the depth bound keeps it out
        cam = _forward_camera()
        pix, visible = project_robot(PoseSE2(-1.0, 0.0, 0.0), [cam], _PROBE)
        assert 0 <= pix[0, 0, 0] < cam.width and 0 <= pix[0, 0, 1] < cam.height
        assert not visible[0, 0]

    def test_marks_points_within_min_depth(self):
        cam = _forward_camera()
        for depth in (0.5 * MIN_DEPTH, MIN_DEPTH):
            pix, visible = project_robot(PoseSE2(depth, 0.0, 0.0), [cam], _PROBE)
            np.testing.assert_allclose(pix[0, 0], [424, 240])
            assert not visible[0, 0]
        _, visible = project_robot(PoseSE2(2.0 * MIN_DEPTH, 0.0, 0.0), [cam], _PROBE)
        assert visible[0, 0]

    def test_matches_scalar_oracle(self, rig, robot_model, rng):
        """Every keypoint in every camera against the scalar oracle, on random
        poses and cameras: the pixel within 1e-9 px wherever the keypoint is
        more than MIN_DEPTH in front of the camera, and visible iff it is and
        its rounded pixel lies in the image."""
        behind = in_front = 0
        for trial in range(200):
            cams = rig if trial % 2 else [_random_camera(rng, i) for i in range(3)]
            pose = PoseSE2(*rng.uniform((0, 0), (10, 8)), rng.uniform(-math.pi, math.pi))
            pix, visible = project_robot(pose, cams, robot_model)
            assert pix.shape == (len(cams), robot_model.n_keypoints, 2)
            assert visible.shape == pix.shape[:2]
            for i, cam in enumerate(cams):
                for j in range(robot_model.n_keypoints):
                    world = keypoint_world(pose, robot_model, j)
                    if cam.world_to_camera.apply(world)[2] <= MIN_DEPTH:
                        assert not visible[i, j]
                        behind += 1
                        continue
                    in_front += 1
                    expected = project(cam, world)
                    np.testing.assert_allclose(pix[i, j], expected, rtol=0, atol=1e-9)
                    col, row = np.round(expected)
                    assert visible[i, j] == (0 <= col < cam.width and 0 <= row < cam.height)
        assert behind > 100 and in_front > 100


class TestKeypointWorld:
    """project_robot places the body keypoints in the world: rotated about z
    by theta and shifted by (x, y), seen here by a camera 3 m above the
    origin looking straight down."""

    MODEL = RobotModel(
        keypoints=np.array([[0.1, 0.2, 0.3], [0.1, 0, 0], [0.1, 0, 0.5], [0, 0, 0.1]]),
        body_width=0.35,
    )
    CAMERA = CameraModel(0, 600.0, 600.0, 424.0, 240.0, 848, 480,
                         RigidTransform3(np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 3.0])))

    def _assert_world(self, pose, world):
        pix, visible = project_robot(pose, [self.CAMERA], self.MODEL)
        assert visible.all()
        expected = [project(self.CAMERA, w) for w in world]
        np.testing.assert_allclose(pix[0], expected, rtol=0, atol=1e-9)

    def test_identity_pose(self):
        self._assert_world(PoseSE2(), self.MODEL.keypoints)

    def test_half_turn(self):
        self._assert_world(PoseSE2(1, 0, math.pi),
                           [[0.9, -0.2, 0.3], [0.9, 0, 0], [0.9, 0, 0.5], [1, 0, 0.1]])

    def test_z_preserved(self):
        self._assert_world(PoseSE2(0, 0, math.pi / 2),
                           [[-0.2, 0.1, 0.3], [0, 0.1, 0], [0, 0.1, 0.5], [0, 0, 0.1]])


class TestRobotModelInvariants:
    def test_needs_four_keypoints(self):
        with pytest.raises(ValueError):
            RobotModel(keypoints=np.zeros((3, 3)), body_width=0.35)

    def test_bounding_box_enforced(self):
        kps = np.zeros((4, 3))
        kps[0, 0] = 1.5
        with pytest.raises(ValueError):
            RobotModel(keypoints=kps, body_width=0.35)


def _noise_free_frameset(pose, cameras, model):
    per_camera = {}
    for cam in cameras:
        ids, pixels = [], []
        for j in range(model.n_keypoints):
            try:
                pix = project(cam, keypoint_world(pose, model, j))
            except BehindCamera:
                continue
            if 0 <= pix[0] < cam.width and 0 <= pix[1] < cam.height:
                ids.append(j)
                pixels.append(pix)
        if ids:
            per_camera[cam.camera_id] = DetectionMessage(cam.camera_id, 0.0, ids, pixels,
                                                         np.ones(len(ids)))
    return FrameSet(anchor_stamp=0.0, per_camera=per_camera)


def _residuals(pose, cameras, fs, model):
    """The kernel's residuals of one pose over a frame-set, one (2,) row per
    detected keypoint, and the detection weights."""
    obs = flatten_observations(fs, cameras, model)
    res, _, _ = reprojection_kernel(pose.as_array(), obs)
    return res.T, obs.weight


def _keypoint_jacobian(pose, camera, model, j):
    """The kernel's 2x3 residual Jacobian and depth of keypoint j in one camera."""
    message = DetectionMessage(camera.camera_id, 0.0, [j], [(0.0, 0.0)], [1.0])
    obs = flatten_observations(FrameSet(0.0, {camera.camera_id: message}), [camera], model)
    _, jac, depth = reprojection_kernel(pose.as_array(), obs)
    return jac[:, :, 0].T, depth[0]


class TestReprojectionResiduals:
    def test_exact_pose_gives_zero_residuals(self, rig, robot_model):
        pose = PoseSE2(5.0, 4.0, 0.7)
        fs = _noise_free_frameset(pose, rig, robot_model)
        res, w = _residuals(pose, rig, fs, robot_model)
        assert res.shape[0] > 0
        assert np.abs(res).max() < 1e-9
        np.testing.assert_allclose(w, 1.0)

    def test_constructed_offset(self, rig, robot_model):
        pose = PoseSE2(5.0, 4.0, 0.0)
        fs = _noise_free_frameset(pose, rig, robot_model)
        cam_id = sorted(fs.per_camera)[0]
        msg = fs.per_camera[cam_id]
        shifted = msg.pixels.copy()
        shifted[0, 0] += 1.0
        fs.per_camera[cam_id] = DetectionMessage(cam_id, 0.0, msg.keypoints, shifted,
                                                 msg.confidence)
        res, w = _residuals(pose, rig, fs, robot_model)
        objective = float(np.sum(w * np.sum(res**2, axis=1)))
        assert objective == pytest.approx(1.0, abs=1e-9)

    def test_first_order_expansion(self, rig, robot_model):
        pose = PoseSE2(5.0, 4.0, 0.3)
        fs = _noise_free_frameset(PoseSE2(5.01, 4.0, 0.3), rig, robot_model)

        def objective(p):
            res, w = _residuals(PoseSE2(*p), rig, fs, robot_model)
            return float(np.sum(w * np.sum(res**2, axis=1)))

        p0 = pose.as_array()
        grad = central_difference_jacobian(lambda p: np.array([objective(p)]), p0)[0]
        step = np.array([1e-4, 0.0, 0.0])
        predicted = objective(p0) + grad @ step
        assert objective(p0 + step) == pytest.approx(predicted, rel=1e-3)

    def test_unknown_camera(self, rig, robot_model):
        fs = FrameSet(
            anchor_stamp=0.0,
            per_camera={
                99: DetectionMessage(99, 0.0, [0], [[0, 0]], [1.0])
            },
        )
        with pytest.raises(UnknownCamera):
            flatten_observations(fs, rig, robot_model)

    def test_unknown_keypoint(self, rig, robot_model):
        cam_id = rig[0].camera_id
        fs = FrameSet(
            anchor_stamp=0.0,
            per_camera={
                cam_id: DetectionMessage(cam_id, 0.0, [42], [[0, 0]], [1.0])
            },
        )
        with pytest.raises(UnknownKeypoint):
            flatten_observations(fs, rig, robot_model)

    def test_far_detections_dropped_and_counted(self, rig, robot_model):
        # more than one image width (u) or height (v) outside the image: gone
        a, b = rig[0], rig[1]
        w, h = a.width, a.height
        fs = FrameSet(anchor_stamp=0.0, per_camera={
            a.camera_id: DetectionMessage(a.camera_id, 0.0, [0, 1, 2, 3],
                                          [[-w, 10.0], [2 * w + 1e-9, 10.0],
                                           [100.0, 2 * h], [100.0, 200.0]],
                                          [0.9, 0.8, 0.7, 0.6]),
            b.camera_id: DetectionMessage(b.camera_id, 0.0, [0], [[100.0, -b.height - 1.0]],
                                          [1.0]),
        })
        obs = flatten_observations(fs, rig, robot_model)
        assert obs.rejected == 2
        assert obs.cameras == (a,) and obs.offsets == (0, 3)
        np.testing.assert_array_equal(obs.pixel.T, [[-w, 10.0], [100.0, 2 * h], [100.0, 200.0]])
        np.testing.assert_array_equal(obs.weight, [0.9, 0.7, 0.6])
        kept = FrameSet(anchor_stamp=0.0, per_camera={a.camera_id: DetectionMessage(
            a.camera_id, 0.0, [0, 2, 3], obs.pixel.T, obs.weight)})
        assert np.array_equal(flatten_observations(kept, rig, robot_model).linear_map,
                              obs.linear_map)

    def test_objective_invariant_to_detection_order(self, rig, robot_model, rng):
        pose = PoseSE2(5.0, 4.0, 0.3)
        fs = _noise_free_frameset(PoseSE2(5.02, 3.97, 0.33), rig, robot_model)
        res, w = _residuals(pose, rig, fs, robot_model)
        obj = float(np.sum(w * np.sum(res**2, axis=1)))
        for cam_id, msg in list(fs.per_camera.items()):
            perm = rng.permutation(len(msg.keypoints))
            fs.per_camera[cam_id] = DetectionMessage(
                cam_id, msg.stamp, msg.keypoints[perm], msg.pixels[perm], msg.confidence[perm]
            )
        res2, w2 = _residuals(pose, rig, fs, robot_model)
        obj2 = float(np.sum(w2 * np.sum(res2**2, axis=1)))
        assert obj2 == pytest.approx(obj, rel=1e-12)


class TestResidualJacobian:
    def test_matches_finite_differences_random(self, rig, robot_model, rng):
        # a denser sweep lives in the acceptance suite
        checked = 0
        while checked < 100:
            cam = rig[rng.integers(len(rig))]
            pose = PoseSE2(*rng.uniform(1, 8, 2), rng.uniform(-math.pi, math.pi))
            j = int(rng.integers(robot_model.n_keypoints))

            def residual(p):
                pt = keypoint_world(PoseSE2(*p), robot_model, j)
                return -project(cam, pt)

            analytic, depth = _keypoint_jacobian(pose, cam, robot_model, j)
            if depth <= 1e-9:  # behind the camera: the oracle has no projection
                continue
            numeric = central_difference_jacobian(residual, pose.as_array())
            scale = max(1.0, np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-5
            checked += 1

    def test_theta_column_zero_for_on_axis_keypoint(self, single_camera):
        model = RobotModel(
            keypoints=np.array([[0, 0, 0.1], [0, 0, 0.2], [0, 0, 0.3], [0.1, 0, 0.4]]),
            body_width=0.35,
        )
        jac, _ = _keypoint_jacobian(PoseSE2(3, 3, 0.5), single_camera, model, 1)
        np.testing.assert_allclose(jac[:, 2], 0.0, atol=1e-12)

    def test_behind_camera_reports_negative_depth(self, single_camera, robot_model):
        pose = PoseSE2(-5, -5, 0)
        jac, depth = _keypoint_jacobian(pose, single_camera, robot_model, 0)
        true_depth = single_camera.world_to_camera.apply(keypoint_world(pose, robot_model, 0))[2]
        assert true_depth < 0
        assert depth == pytest.approx(true_depth, abs=1e-12)
        assert np.isfinite(jac).all()


class TestReprojectionKernel:
    def test_batch_of_poses_matches_oracle(self, rig, robot_model):
        """3 poses, each evaluated alone, against one 4-camera frame-set: the
        true pose, a perturbed one, and one that puts a camera's keypoints
        behind it."""
        truth = PoseSE2(5.0, 4.0, 0.7)
        fs = _noise_free_frameset(truth, rig, robot_model)
        assert len(fs.per_camera) == 4
        cams = {c.camera_id: c for c in rig}
        cam0 = cams[min(fs.per_camera)]
        forward = cam0.world_to_camera.rotation[2, :2]
        behind = cam0.ground_position() - 5.0 * forward / np.linalg.norm(forward)
        params = np.array([truth.as_array(), [5.1, 3.9, 0.9], [behind[0], behind[1], -2.0]])
        obs = flatten_observations(fs, rig, robot_model)
        res, jac, depth = map(np.array, zip(*(reprojection_kernel(p, obs) for p in params)))
        n = obs.n_rows
        assert res.shape == (3, 2, n) and jac.shape == (3, 3, 2, n) and depth.shape == (3, n)
        # columns follow camera id, then detection order
        columns = [(cams[cid], j, pixel) for cid in sorted(fs.per_camera)
                   for j, pixel in zip(fs.per_camera[cid].keypoints, fs.per_camera[cid].pixels)]
        assert len(columns) == n
        in_front = [0, 0, 0]
        for s, p in enumerate(params):
            for k, (cam, j, pixel) in enumerate(columns):
                pc = cam.world_to_camera.apply(keypoint_world(PoseSE2(*p), robot_model, j))
                assert depth[s, k] == pytest.approx(pc[2], abs=1e-12)
                if pc[2] <= MIN_DEPTH:
                    assert np.isfinite(res[s, :, k]).all() and np.isfinite(jac[s, ..., k]).all()
                    continue
                in_front[s] += 1

                def projection(q, cam=cam, j=j):
                    return project(cam, keypoint_world(PoseSE2(*q), robot_model, j))

                np.testing.assert_allclose(res[s, :, k], pixel - projection(p), rtol=0,
                                           atol=1e-9)
                fd = -central_difference_jacobian(projection, p)
                block = jac[s, :, :, k].T
                assert np.abs(block - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5
        assert in_front[0] == in_front[1] == n
        assert 0 < in_front[2] < n and depth[2].min() < 0


def _fresh_projection(pose, cameras, model):
    """project_robot's arithmetic on a linear map built afresh: pixels
    (C, M, 2) and camera-frame depths (C, M)."""
    cams, m = tuple(cameras), model.n_keypoints
    linear_map, center = geometry._linear_map(cams, np.repeat(np.arange(len(cams)), m),
                                              np.tile(model.keypoints, (len(cams), 1)))
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    pc = (np.array([c, s, pose.x, pose.y, 1.0]) @ linear_map).reshape(3, -1)
    pixels = (geometry._pixel_offset(pc)[0] + center).reshape(2, len(cams), m)
    return pixels.transpose(1, 2, 0), pc[2].reshape(len(cams), m)


class TestRigMap:
    """project_robot and flatten_observations read one cached rig map."""

    def test_alternating_rigs_match_a_fresh_map(self, rig, robot_model, single_camera):
        """Called alternately with two rigs, a reordered camera list and a
        second robot model, both equal a fresh _linear_map computation bit
        for bit."""
        rng = np.random.default_rng(4)
        other_model = RobotModel(robot_model.keypoints[::-1][:6] * 0.8, body_width=0.3)
        rigs = [list(rig), list(reversed(rig)), [single_camera], rig[1:3]]
        models = (robot_model, other_model)
        # each step changes either the cameras or the model
        steps = [(cams, models[(i + j) % 2]) for i, cams in enumerate(rigs) for j in range(2)]
        seen = 0
        for cams, model in 3 * steps:
            pose = PoseSE2(*rng.uniform((2, 2), (8, 6)), rng.uniform(-math.pi, math.pi))
            pixels, visible = project_robot(pose, cams, model)
            want, depth = _fresh_projection(pose, cams, model)
            assert pixels.tobytes() == want.tobytes()
            col, row = np.round(want).transpose(2, 0, 1)
            size = np.array([(c.width, c.height) for c in cams]).reshape(-1, 2, 1)
            assert np.array_equal(visible, (depth > MIN_DEPTH) & (col >= 0) & (row >= 0)
                                  & (col < size[:, 0]) & (row < size[:, 1]))
            per_camera = {}
            for cam, cam_pixels, cam_visible in zip(cams, pixels, visible):
                ids = rng.permutation(np.flatnonzero(cam_visible))
                if len(ids):
                    per_camera[cam.camera_id] = DetectionMessage(
                        cam.camera_id, 0.0, ids, cam_pixels[ids], np.ones(len(ids)))
            obs = flatten_observations(FrameSet(0.0, per_camera), cams, model)
            ids = np.concatenate([per_camera[c.camera_id].keypoints for c in obs.cameras]
                                 + [np.zeros(0, int)])
            cam_row = np.repeat(np.arange(obs.n_cameras), np.diff(obs.offsets))
            linear_map, center = geometry._linear_map(obs.cameras, cam_row, model.keypoints[ids])
            assert obs.linear_map.tobytes() == linear_map.tobytes()
            assert obs.center.tobytes() == center.tobytes()
            seen += obs.n_rows
        assert seen > 100

    def test_built_once_per_rig(self, rig, robot_model):
        """A new list of the same cameras reuses the map; another order or
        another model builds a new one."""
        first = geometry._rig_map(rig, robot_model)[1]
        assert geometry._rig_map(list(rig), robot_model)[1] is first
        assert geometry._rig_map(rig, RobotModel(robot_model.keypoints, 0.35))[1] is not first
        first = geometry._rig_map(rig, robot_model)[1]
        assert geometry._rig_map(rig[::-1], robot_model)[1] is not first


def _stream_framesets(config):
    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    return [fs for msg in simulate_detections(config) for fs in sync.ingest(msg)] + sync.flush()


class TestGather:
    """gather_observations against oracles.reference_flatten, the flatten
    of one frame-set on its own that it replaced: every row, bit for bit,
    and every frame-set left out, with the reference's error."""

    @staticmethod
    def _assert_rows(framesets, cameras, model):
        block = gather_observations(framesets, cameras, model)
        rows = iter(range(len(block)))
        for p, fs in enumerate(framesets):
            try:
                want = reference_flatten(fs, cameras, model)
            except (UnknownCamera, UnknownKeypoint) as error:
                assert [type(e) for q, e in block.failures if q == p] == [type(error)]
                continue
            n = next(rows)
            assert block.source[n] == p
            got = block.row(n)
            for name in ("linear_map", "center", "pixel", "weight"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert (got.cameras, got.offsets, got.stamp, got.rejected) == (
                want.cameras, want.offsets, want.stamp, want.rejected)
            # the padding the batched solve relies on: zero columns
            k = block.n_rows[n]
            assert not block.weight[n, k:].any() and not block.pixel[:, n, k:].any()
            assert not block.center[:, n, k:].any()
            assert not block.linear_map[n].reshape(5, 3, -1)[:, :, k:].any()
        assert next(rows, None) is None
        assert len(block) + len(block.failures) == len(framesets)
        return block

    @pytest.mark.parametrize("name", ["traj1", "traj2", "traj3"])
    def test_every_row_equals_the_reference(self, scenario_dir, name):
        config = load_config(scenario_dir / f"{name}.json", {"seed": 7})
        framesets = _stream_framesets(config)
        blocks = [self._assert_rows(framesets[lo:lo + BATCH_BLOCK], config.cameras,
                                    config.robot_model)
                  for lo in range(0, len(framesets), BATCH_BLOCK)]
        assert len(blocks) > 3
        assert len(set(blocks[0].n_rows.tolist())) > 3  # most rows are padded
        for fs in framesets[::25]:
            got = flatten_observations(fs, config.cameras, config.robot_model)
            want = reference_flatten(fs, config.cameras, config.robot_model)
            assert got.linear_map.tobytes() == want.linear_map.tobytes()
            assert got.pixel.tobytes() == want.pixel.tobytes()

    def test_a_mixed_block(self, traj1_config):
        """Clean frame-sets, and frame-sets holding an unknown camera id, a
        keypoint id 99, a 1e200 px pixel, and only 2 keypoints."""
        cameras, model = traj1_config.cameras, traj1_config.robot_model
        clean = _stream_framesets(traj1_config)[:12]

        def edited(fs, edit):
            per_camera = dict(fs.per_camera)
            cam_id = min(per_camera)
            m = per_camera[cam_id]
            ids, pixels, conf = m.keypoints.copy(), m.pixels.copy(), m.confidence.copy()
            cam_id, ids, pixels, conf = edit(cam_id, ids, pixels, conf)
            per_camera[cam_id] = DetectionMessage(cam_id, m.stamp, ids, pixels, conf)
            return FrameSet(fs.anchor_stamp, per_camera)

        def two_keypoints(fs):
            cam_id = min(fs.per_camera)
            m = fs.per_camera[cam_id]
            return FrameSet(fs.anchor_stamp, {cam_id: DetectionMessage(
                cam_id, m.stamp, m.keypoints[:2], m.pixels[:2], m.confidence[:2])})

        def far(cam_id, ids, pixels, conf):
            pixels[0, 0] = 1e200
            return cam_id, ids, pixels, conf

        def unknown_keypoint(cam_id, ids, pixels, conf):
            ids[-1] = 99
            return cam_id, ids, pixels, conf

        mixed = list(clean)
        mixed[2] = edited(clean[2], lambda cam_id, *rest: (99, *rest))
        mixed[4] = edited(clean[4], unknown_keypoint)
        mixed[5] = edited(clean[5], far)
        mixed[7] = two_keypoints(clean[7])
        mixed.append(edited(clean[8], unknown_keypoint))
        block = self._assert_rows(mixed, cameras, model)
        assert [(p, type(e)) for p, e in block.failures] == [
            (2, UnknownCamera), (4, UnknownKeypoint), (12, UnknownKeypoint)]
        assert block.rejected[block.source.index(5)] == 1
        assert block.n_rows[block.source.index(7)] == 2
