import math

import numpy as np
import pytest

from camloc.errors import AllZeroWeights, BehindCamera, UnknownCamera, UnknownKeypoint
from camloc.geometry import (
    CameraModel,
    PoseSE2,
    RigidTransform3,
    RobotModel,
    angle_diff,
    circular_weighted_mean,
    in_image,
    keypoints_world,
    project_points,
    reprojection_residuals,
    residual_jacobian,
    wrap_angle,
)
from camloc.sync import DetectionMessage, FrameSet, KeypointObservation

from oracles import central_difference_jacobian, project


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

    def test_compose_inverse(self, rng):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        t = RigidTransform3(q, rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)


class TestProjection:
    def test_principal_point(self):
        pix, valid = project_points(_axis_camera(), np.array([[0, 0, 2.0]]))
        assert valid.tolist() == [True]
        np.testing.assert_allclose(pix, [[424, 240]])

    def test_pinhole_offset(self):
        pix, _ = project_points(_axis_camera(), np.array([[0.5, 0, 2.0]]))
        np.testing.assert_allclose(pix, [[574, 240]])

    def test_behind_camera(self):
        # the point behind the camera projects inside the image once its
        # depth is replaced, so only the depth mask keeps it out
        cam = _axis_camera()
        pix, valid = project_points(cam, np.array([[0, 0, -1.0]]))
        assert 0 <= pix[0, 0] < cam.width and 0 <= pix[0, 1] < cam.height
        assert in_image(cam, pix, valid).tolist() == [False]

    def test_project_points_marks_invalid_depth(self):
        cam = _axis_camera()
        pix, valid = project_points(cam, np.array([[0, 0, 2.0], [0, 0, -1.0]]))
        assert valid.tolist() == [True, False]
        np.testing.assert_allclose(pix[0], [424, 240])


class TestKeypointWorld:
    MODEL = RobotModel(
        keypoints=np.array([[0.1, 0.2, 0.3], [0.1, 0, 0], [0.1, 0, 0.5], [0, 0, 0.1]]),
        body_width=0.35,
    )

    def test_identity_pose(self):
        np.testing.assert_allclose(
            keypoints_world(PoseSE2(), self.MODEL), self.MODEL.keypoints, atol=1e-15
        )

    def test_half_turn(self):
        np.testing.assert_allclose(
            keypoints_world(PoseSE2(1, 0, math.pi), self.MODEL)[1], [0.9, 0, 0], atol=1e-12
        )

    def test_z_preserved(self):
        np.testing.assert_allclose(
            keypoints_world(PoseSE2(0, 0, math.pi / 2), self.MODEL),
            [[-0.2, 0.1, 0.3], [0, 0.1, 0], [0, 0.1, 0.5], [0, 0, 0.1]],
            atol=1e-12,
        )


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
    pts = keypoints_world(pose, model)
    for cam in cameras:
        obs = []
        for j in range(model.n_keypoints):
            try:
                pix = project(cam, pts[j])
            except BehindCamera:
                continue
            if 0 <= pix[0] < cam.width and 0 <= pix[1] < cam.height:
                obs.append(KeypointObservation(j, pix, 1.0))
        if obs:
            per_camera[cam.camera_id] = DetectionMessage(cam.camera_id, 0.0, tuple(obs))
    return FrameSet(anchor_stamp=0.0, per_camera=per_camera)


class TestReprojectionResiduals:
    def test_exact_pose_gives_zero_residuals(self, rig, robot_model):
        pose = PoseSE2(5.0, 4.0, 0.7)
        fs = _noise_free_frameset(pose, rig, robot_model)
        res, w = reprojection_residuals(pose, rig, fs, robot_model)
        assert res.shape[0] > 0
        assert np.abs(res).max() < 1e-9
        np.testing.assert_allclose(w, 1.0)

    def test_constructed_offset(self, rig, robot_model):
        pose = PoseSE2(5.0, 4.0, 0.0)
        fs = _noise_free_frameset(pose, rig, robot_model)
        cam_id = sorted(fs.per_camera)[0]
        msg = fs.per_camera[cam_id]
        k0 = msg.keypoints[0]
        shifted = (KeypointObservation(k0.index, k0.pixel + [1.0, 0.0], 1.0),) + msg.keypoints[1:]
        fs.per_camera[cam_id] = DetectionMessage(cam_id, 0.0, shifted)
        res, w = reprojection_residuals(pose, rig, fs, robot_model)
        objective = float(np.sum(w * np.sum(res**2, axis=1)))
        assert objective == pytest.approx(1.0, abs=1e-9)

    def test_first_order_expansion(self, rig, robot_model):
        pose = PoseSE2(5.0, 4.0, 0.3)
        fs = _noise_free_frameset(PoseSE2(5.01, 4.0, 0.3), rig, robot_model)

        def objective(p):
            res, w = reprojection_residuals(PoseSE2(*p), rig, fs, robot_model)
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
                99: DetectionMessage(99, 0.0, (KeypointObservation(0, [0, 0], 1.0),))
            },
        )
        with pytest.raises(UnknownCamera):
            reprojection_residuals(PoseSE2(), rig, fs, robot_model)

    def test_unknown_keypoint(self, rig, robot_model):
        cam_id = rig[0].camera_id
        fs = FrameSet(
            anchor_stamp=0.0,
            per_camera={
                cam_id: DetectionMessage(cam_id, 0.0, (KeypointObservation(42, [0, 0], 1.0),))
            },
        )
        with pytest.raises(UnknownKeypoint):
            reprojection_residuals(PoseSE2(5, 4, 0), rig, fs, robot_model)

    def test_objective_invariant_to_detection_order(self, rig, robot_model, rng):
        pose = PoseSE2(5.0, 4.0, 0.3)
        fs = _noise_free_frameset(PoseSE2(5.02, 3.97, 0.33), rig, robot_model)
        res, w = reprojection_residuals(pose, rig, fs, robot_model)
        obj = float(np.sum(w * np.sum(res**2, axis=1)))
        for cam_id, msg in list(fs.per_camera.items()):
            perm = rng.permutation(len(msg.keypoints))
            fs.per_camera[cam_id] = DetectionMessage(
                cam_id, msg.stamp, tuple(msg.keypoints[i] for i in perm)
            )
        res2, w2 = reprojection_residuals(pose, rig, fs, robot_model)
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
                pt = keypoints_world(PoseSE2(*p), robot_model)[j]
                return -project(cam, pt)

            try:
                analytic = residual_jacobian(pose, cam, robot_model, j)
            except BehindCamera:
                continue
            numeric = central_difference_jacobian(residual, pose.as_array())
            scale = max(1.0, np.abs(numeric).max())
            assert np.abs(analytic - numeric).max() / scale < 1e-5
            checked += 1

    def test_theta_column_zero_for_on_axis_keypoint(self, single_camera):
        model = RobotModel(
            keypoints=np.array([[0, 0, 0.1], [0, 0, 0.2], [0, 0, 0.3], [0, 0, 0.4]]),
            body_width=0.35,
        )
        jac = residual_jacobian(PoseSE2(3, 3, 0.5), single_camera, model, 1)
        np.testing.assert_allclose(jac[:, 2], 0.0, atol=1e-12)

    def test_behind_camera_raises(self, single_camera, robot_model):
        with pytest.raises(BehindCamera):
            residual_jacobian(PoseSE2(-5, -5, 0), single_camera, robot_model, 0)


class TestCircularWeightedMean:
    def test_symmetric_mean(self):
        got = circular_weighted_mean([math.radians(10), math.radians(20)], [1, 1])
        assert got == pytest.approx(math.radians(15))

    def test_wraparound(self):
        got = circular_weighted_mean([math.radians(170), math.radians(-170)], [1, 1])
        assert abs(got) == pytest.approx(math.pi)

    def test_single_angle(self):
        assert circular_weighted_mean([1.234], [0.5]) == pytest.approx(1.234)

    def test_all_zero_weights(self):
        with pytest.raises(AllZeroWeights):
            circular_weighted_mean([0.1, 0.2], [0, 0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            circular_weighted_mean([0.1], [-1.0])
