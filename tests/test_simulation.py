import math

import numpy as np
import pytest

from camloc import pipeline
from camloc.geometry import PoseSE2, project_robot, project_robots
from camloc.scenario import WAYPOINTS, load_config
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


def _fields(messages):
    """Each message's camera, stamp, ids and the bytes of its arrays."""
    return [(m.camera_id, m.stamp, m.keypoints.tolist(), m.pixels.tobytes(),
             m.confidence.tobytes()) for m in messages]


class TestSimulateBatch:
    """simulate_frame over a sequence of samples and generators against the
    single-frame route: one call per frame, each with its own generator."""

    @staticmethod
    def _per_frame(config, samples, frames, rngs):
        return [m for i, rng in zip(frames, rngs)
                for m in simulate_frame(samples[i], config.cameras, config.robot_model,
                                        config.noise, rng)]

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("name", ["traj1", "traj2", "traj3", "long_feedback"])
    def test_batch_is_the_per_frame_route(self, scenario_dir, name, seed):
        config = load_config(scenario_dir / f"{name}.json", {"seed": seed})
        samples = script_trajectory(config.trajectory)
        frames = range(0, len(samples), config.frame_stride)
        single = self._per_frame(config, samples, frames,
                                 [pipeline._frame_rng(seed, i) for i in frames])
        batch = simulate_frame([samples[i] for i in frames], config.cameras,
                               config.robot_model, config.noise,
                               [pipeline._frame_rng(seed, i) for i in frames])
        assert len(single) > 1000
        assert _fields(batch) == _fields(single)

    @pytest.mark.parametrize("block", [7, pipeline.BATCH_BLOCK])
    def test_blocks_of_the_stream(self, scenario_dir, monkeypatch, block):
        """The pipeline's stream, simulated in blocks whose last one is short,
        is the per-frame route's, stamp-ordered."""
        config = load_config(scenario_dir / "traj3.json", {"seed": 7})
        samples = script_trajectory(config.trajectory)
        frames = range(0, len(samples), config.frame_stride)
        assert len(frames) % block
        monkeypatch.setattr(pipeline, "BATCH_BLOCK", block)
        blocked = pipeline.simulate_detections(config, samples)
        single = self._per_frame(config, samples, frames,
                                 [pipeline._frame_rng(7, i) for i in frames])
        single.sort(key=lambda m: (m.stamp, m.camera_id))
        assert _fields(blocked) == _fields(single)

    def test_empty_batch(self, rig, robot_model):
        assert simulate_frame([], rig, robot_model, NoiseModel(), []) == []

    def test_lengths_must_match(self, rig, robot_model):
        sample = GroundTruthSample(0.0, PoseSE2(5.0, 4.0, 0.3), True, 0)
        with pytest.raises(ValueError, match="2 samples but 1 generators"):
            simulate_frame([sample, sample], rig, robot_model, NoiseModel(),
                           [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            simulate_frame([], rig, robot_model, NoiseModel(), [np.random.default_rng(0)])

    def test_shared_generator_draws_as_single_calls(self, rig, robot_model):
        """Frames that share one generator, as the relocalization set-up's
        do, draw frame after frame, as one call per frame would."""
        poses = [PoseSE2(*p) for p in WAYPOINTS.values()] * 5
        samples = [GroundTruthSample(0.1 * k, pose, True, 0) for k, pose in enumerate(poses)]
        rng_single, rng_batch = np.random.default_rng(5), np.random.default_rng(5)
        single = [m for s in samples
                  for m in simulate_frame(s, rig, robot_model, NoiseModel(), rng_single)]
        batch = simulate_frame(samples, rig, robot_model, NoiseModel(),
                               [rng_batch] * len(samples))
        assert len(single) > 40
        assert _fields(batch) == _fields(single)
        assert rng_batch.random() == rng_single.random()  # the same number of draws

    def test_projection_is_per_pose(self, rig, robot_model):
        """project_robots has the bits of project_robot at each pose."""
        rng = np.random.default_rng(6)
        poses = [PoseSE2(*p) for p in rng.uniform([-1.0, -1.0, -4.0], [11.0, 9.0, 4.0], (300, 3))]
        pixels, visible = project_robots(poses, rig, robot_model)
        for pose, pix, vis in zip(poses, pixels, visible):
            one_pix, one_vis = project_robot(pose, rig, robot_model)
            assert pix.tobytes() == one_pix.tobytes()
            assert (vis == one_vis).all()


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
