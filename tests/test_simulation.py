import math

import numpy as np
import pytest

from camloc.geometry import PoseSE2, keypoints_world
from camloc.simulation import (
    NoiseModel,
    OdometryNoise,
    TrajectoryScript,
    Waypoint,
    default_robot_model,
    script_trajectory,
    simulate_frame,
    simulate_odometry_step,
)

from oracles import project


class TestDefaultRobotModel:
    def test_eight_keypoints_pass_invariants(self):
        model = default_robot_model()
        assert model.n_keypoints == 8
        assert model.body_width == pytest.approx(0.35)

    def test_x_extent_is_body_width(self):
        kps = default_robot_model().keypoints
        assert kps[:, 0].max() - kps[:, 0].min() == pytest.approx(0.35)

    def test_bilateral_symmetry_about_x_axis(self):
        kps = default_robot_model().keypoints
        mirrored = kps * np.array([1.0, -1.0, 1.0])
        as_set = {tuple(np.round(k, 9)) for k in kps}
        assert {tuple(np.round(k, 9)) for k in mirrored} == as_set


class TestScriptTrajectory:
    def test_straight_drive_sample_count(self):
        script = TrajectoryScript(
            waypoints=[Waypoint(PoseSE2(0, 0, 0)), Waypoint(PoseSE2(1, 0, 0))],
            speed=0.5,
            sample_dt=0.1,
        )
        samples = script_trajectory(script)
        assert len(samples) == 21
        assert samples[-1].stamp == pytest.approx(2.0)
        assert samples[-1].pose.x == pytest.approx(1.0)
        assert all(not s.is_static for s in samples[:-1])

    def test_single_waypoint_dwell(self):
        script = TrajectoryScript(waypoints=[Waypoint(PoseSE2(1, 2, 0.5), dwell=1.0)])
        samples = script_trajectory(script)
        assert len(samples) == 11
        assert all(s.is_static for s in samples)
        assert all(s.pose == samples[0].pose for s in samples)

    def test_turn_in_place_duration(self):
        script = TrajectoryScript(
            waypoints=[
                Waypoint(PoseSE2(0, 0, math.pi / 2)),
                Waypoint(PoseSE2(1, 0, 0)),
            ],
            speed=0.5,
            turn_rate=math.pi / 4,
            sample_dt=0.1,
        )
        samples = script_trajectory(script)
        # 90 degrees at pi/4 rad/s: the robot turns for the first 2 s
        turning = [s for s in samples if s.stamp <= 2.0 - 1e-9]
        assert all(s.pose.x == 0 and s.pose.y == 0 for s in turning)
        assert samples[0].pose.theta == pytest.approx(math.pi / 2)

    def test_stamps_strictly_increasing(self):
        script = TrajectoryScript(
            waypoints=[Waypoint(PoseSE2(0, 0, 0), 0.5), Waypoint(PoseSE2(2, 1, 1), 0.5)]
        )
        stamps = [s.stamp for s in script_trajectory(script)]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_unlabelled_waypoints_labelled_by_index(self):
        script = TrajectoryScript(waypoints=[Waypoint(PoseSE2(0, 0, 0)),
                                             Waypoint(PoseSE2(1, 0, 0), label=7),
                                             Waypoint(PoseSE2(2, 0, 0))])
        assert [wp.label for wp in script.waypoints] == [0, 7, 2]


class TestSimulateFrame:
    def test_outside_every_frustum(self, rig, robot_model, rng):
        from camloc.simulation import GroundTruthSample

        sample = GroundTruthSample(0.0, PoseSE2(100.0, 100.0, 0.0), True, 0)
        assert simulate_frame(sample, rig, robot_model, NoiseModel(), rng) == []

    def test_zero_noise_exact_projections(self, rig, robot_model, rng):
        from camloc.simulation import GroundTruthSample

        noise = NoiseModel(pixel_sigma=0.0, dropout_prob=0.0, outlier_prob=0.0,
                           timestamp_jitter=0.0)
        pose = PoseSE2(5.0, 4.0, 0.3)
        msgs = simulate_frame(GroundTruthSample(1.0, pose, True, 0), rig, robot_model,
                              noise, rng)
        assert len(msgs) == 4
        cams = {c.camera_id: c for c in rig}
        pts = keypoints_world(pose, robot_model)
        for m in msgs:
            assert m.stamp == 1.0
            assert (m.confidence == 1.0).all()
            for j, pixel in zip(m.keypoints, m.pixels):
                np.testing.assert_allclose(pixel, project(cams[m.camera_id], pts[j]))

    def test_total_dropout(self, rig, robot_model, rng):
        from camloc.simulation import GroundTruthSample

        noise = NoiseModel(dropout_prob=1.0)
        sample = GroundTruthSample(0.0, PoseSE2(5.0, 4.0, 0.0), True, 0)
        assert simulate_frame(sample, rig, robot_model, noise, rng) == []

    def test_noise_truncated_and_confidence_monotone(self, rig, robot_model):
        from camloc.simulation import GroundTruthSample

        noise = NoiseModel(pixel_sigma=2.0, dropout_prob=0.0, outlier_prob=0.0,
                           timestamp_jitter=0.0)
        pose = PoseSE2(5.0, 4.0, 0.3)
        cams = {c.camera_id: c for c in rig}
        pts = keypoints_world(pose, robot_model)
        rng = np.random.default_rng(3)
        records = []
        for _ in range(50):
            for m in simulate_frame(GroundTruthSample(0.0, pose, True, 0), rig,
                                    robot_model, noise, rng):
                for j, pixel, conf in zip(m.keypoints, m.pixels, m.confidence):
                    exact = project(cams[m.camera_id], pts[j])
                    offset = float(np.linalg.norm(pixel - exact))
                    assert offset <= 6.0 * noise.pixel_sigma + 1e-9
                    assert noise.confidence_floor <= conf <= 1.0
                    records.append((offset, conf))
        records.sort()
        # confidence non-increasing in noise magnitude (up to the floor)
        for (o1, c1), (o2, c2) in zip(records, records[1:]):
            assert c2 <= c1 + 1e-9

    def test_deterministic_given_seed(self, rig, robot_model):
        from camloc.simulation import GroundTruthSample

        sample = GroundTruthSample(0.0, PoseSE2(5.0, 4.0, 0.3), True, 0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            msgs = simulate_frame(sample, rig, robot_model, NoiseModel(), rng)
            runs.append([(m.camera_id, m.stamp, m.keypoints.tolist(), m.pixels.tolist(),
                          m.confidence.tolist()) for m in msgs])
        assert runs[0] == runs[1]


class TestSimulateOdometry:
    def test_zero_noise_zero_bias_identity(self, rng):
        noise = OdometryNoise(0, 0, 0, 0, 0)
        delta = PoseSE2(0.3, -0.1, 0.2)
        out = simulate_odometry_step(delta, noise, rng)
        assert out == delta

    def test_static_step_exact_zero(self, rng):
        out = simulate_odometry_step(PoseSE2(), OdometryNoise(), rng)
        assert (out.x, out.y, out.theta) == (0.0, 0.0, 0.0)

    def test_deterministic_given_seed(self):
        a = simulate_odometry_step(PoseSE2(0.05, 0, 0), OdometryNoise(),
                                   np.random.default_rng(5))
        b = simulate_odometry_step(PoseSE2(0.05, 0, 0), OdometryNoise(),
                                   np.random.default_rng(5))
        assert a == b

    def test_five_meter_drift_calibration(self):
        # median terminal error over a straight 5 m drive, 200 seeded runs
        errs = []
        step = PoseSE2(0.05, 0.0, 0.0)
        noise = OdometryNoise()
        for seed in range(200):
            rng = np.random.default_rng([seed, 17])
            pose = PoseSE2()
            for _ in range(100):
                pose = pose.compose(simulate_odometry_step(step, noise, rng))
            errs.append(math.hypot(pose.x - 5.0, pose.y))
        med = float(np.median(errs))
        assert 0.15 <= med <= 0.25


class TestNoiseModelValidation:
    def test_probability_range(self):
        with pytest.raises(ValueError):
            NoiseModel(dropout_prob=1.5)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(pixel_sigma=-1.0)

    def test_negative_odometry_sigma(self):
        with pytest.raises(ValueError):
            OdometryNoise(trans_sigma_per_meter=-0.1)
