import math

import numpy as np
import pytest

from camloc.geometry import PoseSE2, project_robot
from camloc.scenario import WAYPOINTS
from camloc.simulation import (
    MAX_SAMPLES,
    GroundTruthSample,
    NoiseModel,
    OdometryNoise,
    TrajectoryScript,
    Waypoint,
    default_robot_model,
    script_trajectory,
    simulate_frame,
    simulate_odometry_step,
)

from oracles import keypoint_world, project


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

    def test_sample_count_bounded_before_sampling(self):
        dwell = 0.5 * MAX_SAMPLES * 0.1
        TrajectoryScript(waypoints=[Waypoint(PoseSE2(0, 0, 0), dwell=dwell)])
        with pytest.raises(ValueError, match=f"more than {MAX_SAMPLES}"):
            TrajectoryScript(waypoints=[Waypoint(PoseSE2(0, 0, 0), dwell=4 * dwell)])
        with pytest.raises(ValueError, match="inf samples"):
            TrajectoryScript(waypoints=[Waypoint(PoseSE2(0, 0, 0)), Waypoint(PoseSE2(1, 0, 0))],
                             speed=5e-324)

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
        for m in msgs:
            assert m.stamp == 1.0
            assert (m.confidence == 1.0).all()
            for j, pixel in zip(m.keypoints, m.pixels):
                expected = project(cams[m.camera_id], keypoint_world(pose, robot_model, j))
                np.testing.assert_allclose(pixel, expected, rtol=0, atol=1e-9)

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
        rng = np.random.default_rng(3)
        records = []
        for _ in range(50):
            for m in simulate_frame(GroundTruthSample(0.0, pose, True, 0), rig,
                                    robot_model, noise, rng):
                for j, pixel, conf in zip(m.keypoints, m.pixels, m.confidence):
                    exact = project(cams[m.camera_id], keypoint_world(pose, robot_model, j))
                    offset = float(np.linalg.norm(pixel - exact))
                    assert offset <= 6.0 * noise.pixel_sigma + 1e-9
                    assert noise.confidence_floor <= conf <= 1.0
                    records.append((offset, conf))
        records.sort()
        # confidence non-increasing in noise magnitude (up to the floor)
        for (o1, c1), (o2, c2) in zip(records, records[1:]):
            assert c2 <= c1 + 1e-9

    @staticmethod
    def _draws(rig, model, noise, n_frames, rng):
        """Per visible keypoint draw over n_frames captures at waypoint 7 (all
        four cameras): whether it was detected, its offset from the exact
        pixel and its confidence; and every message's stamp jitter."""
        pose = PoseSE2(*WAYPOINTS[7])
        cams = sorted(rig, key=lambda c: c.camera_id)
        exact, visible = project_robot(pose, cams, model)
        detected, offsets, confidence, jitter = [], [], [], []
        for i in range(n_frames):
            sample = GroundTruthSample(float(i), pose, True, 0)
            seen = np.zeros_like(visible)
            for m in simulate_frame(sample, rig, model, noise, rng):
                c = [cam.camera_id for cam in cams].index(m.camera_id)
                seen[c, m.keypoints] = True
                offsets.append(m.pixels - exact[c, m.keypoints])
                confidence.append(m.confidence)
                jitter.append(m.stamp - sample.stamp)
            assert not (seen & ~visible).any()
            detected.append(seen[visible])
        return (np.concatenate(detected), np.concatenate(offsets),
                np.concatenate(confidence), np.array(jitter))

    def test_noise_statistics(self, rig, robot_model):
        """The noise model's shares and spreads over more than 20k keypoint
        draws. Each share or spread is bound at five standard errors for its
        sample size."""
        noise = NoiseModel(outlier_prob=0.0)
        detected, offsets, confidence, jitter = self._draws(rig, robot_model, noise, 700,
                                                            np.random.default_rng(11))
        n = len(detected)
        assert n >= 20_000
        p = noise.dropout_prob
        assert abs(1.0 - detected.mean() - p) <= 5 * math.sqrt(p * (1 - p) / n)
        sigma = noise.pixel_sigma
        spread = math.sqrt(np.mean(offsets**2))
        assert abs(spread - sigma) <= 5 * sigma / math.sqrt(2 * offsets.size)
        assert np.hypot(*offsets.T).max() <= 6 * sigma * (1 + 1e-12)
        assert confidence.min() >= noise.confidence_floor and confidence.max() <= 1.0
        limit = 3 * noise.timestamp_jitter
        assert np.abs(jitter).max() <= limit + 1e-9  # stamps are whole nanoseconds
        assert np.abs(jitter).max() > 0.5 * limit

        noise = NoiseModel(pixel_sigma=0.0, dropout_prob=0.0, timestamp_jitter=0.0)
        detected, offsets, _, _ = self._draws(rig, robot_model, noise, 700,
                                               np.random.default_rng(12))
        assert detected.all()
        radius = np.hypot(*offsets.T)
        n, p = len(radius), noise.outlier_prob
        assert n >= 20_000
        assert abs(np.mean(radius > 0) - p) <= 5 * math.sqrt(p * (1 - p) / n)
        assert radius.max() <= noise.outlier_spread

    def test_offsets_and_jitter_clipped(self, rig, robot_model):
        """Normal draws a hundred times too wide are clipped: a pixel offset to a
        norm of 6 sigma at the floor confidence, a jitter to 3 sigma."""
        class WideNormals:
            def __init__(self, seed):
                self._rng = np.random.default_rng(seed)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def normal(self, loc, scale, size):
                return self._rng.normal(loc, 100 * scale, size)

        noise = NoiseModel(dropout_prob=0.0, outlier_prob=0.0)
        detected, offsets, confidence, jitter = self._draws(rig, robot_model, noise, 20,
                                                            WideNormals(5))
        radius = np.hypot(*offsets.T)
        clipped = radius > 5.9 * noise.pixel_sigma
        assert clipped.mean() > 0.9
        np.testing.assert_allclose(radius[clipped], 6 * noise.pixel_sigma, rtol=1e-12)
        assert (confidence[clipped] == noise.confidence_floor).all()
        limit = 3 * noise.timestamp_jitter
        assert np.mean(np.abs(np.abs(jitter) - limit) <= 1e-9) > 0.9

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
