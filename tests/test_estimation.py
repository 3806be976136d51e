import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from camloc import estimation
from camloc.errors import (
    InsufficientKeypoints,
    InsufficientObservations,
    NoEligibleCamera,
    SolverDiverged,
    UnknownCamera,
    UnknownKeypoint,
)
from camloc.estimation import (
    GateThresholds,
    PoseEstimate,
    SolverConfig,
    average_estimates,
    gate_single_view,
    initialize_global,
    single_view_candidate,
    solve_multiview,
)
from camloc.geometry import PoseSE2, angle_diff, flatten_observations, frameset_observations
from camloc.scenario import WAYPOINTS, camera_visibility_count, make_camera
from camloc.simulation import GroundTruthSample, NoiseModel, simulate_frame
from camloc.sync import DetectionMessage, FrameSet

import oracles

ZERO_NOISE = NoiseModel(pixel_sigma=0.0, dropout_prob=0.0, outlier_prob=0.0,
                        timestamp_jitter=0.0)


def make_frameset(pose, rig, model, noise, rng, stamp=0.0):
    msgs = simulate_frame(GroundTruthSample(stamp, pose, True, 0), rig, model, noise, rng)
    return FrameSet(anchor_stamp=stamp, per_camera={m.camera_id: m for m in msgs})


def zero_confidence(fs, cam_ids):
    """A copy of the frame-set whose given cameras report confidence 0."""
    per_camera = dict(fs.per_camera)
    for cam_id in cam_ids:
        msg = per_camera[cam_id]
        per_camera[cam_id] = DetectionMessage(cam_id, msg.stamp, msg.keypoints, msg.pixels,
                                              np.zeros(len(msg.keypoints)))
    return FrameSet(anchor_stamp=fs.anchor_stamp, per_camera=per_camera)


class TestSolveMultiview:
    def test_noiseless_exact_recovery(self, rig, robot_model, rng):
        truth = PoseSE2(5.0, 4.0, 0.7)
        fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
        init = PoseSE2(truth.x + 0.2, truth.y + 0.2, truth.theta + math.radians(10))
        est = solve_multiview(fs, init, rig, robot_model)
        assert math.hypot(est.pose.x - truth.x, est.pose.y - truth.y) < 1e-6
        assert abs(angle_diff(est.pose.theta, truth.theta)) < 1e-6
        assert est.rms_residual < 1e-6
        assert est.n_cameras == 4
        assert est.n_keypoints == sum(len(m.keypoints) for m in fs.per_camera.values())

    def test_insufficient_observations(self, rig, robot_model):
        msg = DetectionMessage(0, 0.0, [0, 1], [[10, 10], [20, 20]], [1.0, 1.0])
        for fs in (FrameSet(anchor_stamp=0.0, per_camera={0: msg}), FrameSet(anchor_stamp=0.0)):
            with pytest.raises(InsufficientObservations):
                solve_multiview(fs, PoseSE2(5, 4, 0), rig, robot_model)

    def test_zero_confidence_is_uninformative(self, rig, robot_model, rng):
        # valid on the wire, but every keypoint has weight 0: the Hessian is
        # singular and the solve must not return its prior as an answer
        fs = make_frameset(PoseSE2(3.0, 3.0, math.pi / 4), rig, robot_model, ZERO_NOISE, rng)
        fs = zero_confidence(fs, fs.per_camera)
        with pytest.raises(InsufficientObservations):
            solve_multiview(fs, PoseSE2(3.0, 3.0, math.pi / 4), rig, robot_model)

    def test_weight_scaling_leaves_argmin_unchanged(self, rig, robot_model):
        truth = PoseSE2(4.5, 3.5, -0.4)
        rng = np.random.default_rng(11)
        fs = make_frameset(truth, rig, robot_model, NoiseModel(timestamp_jitter=0.0,
                                                              dropout_prob=0.0,
                                                              outlier_prob=0.0), rng)
        est1 = solve_multiview(fs, truth, rig, robot_model)
        scaled = {}
        for cam_id, msg in fs.per_camera.items():
            scaled[cam_id] = DetectionMessage(cam_id, msg.stamp, msg.keypoints, msg.pixels,
                                              msg.confidence * 0.5)
        fs2 = FrameSet(anchor_stamp=0.0, per_camera=scaled)
        est2 = solve_multiview(fs2, truth, rig, robot_model)
        assert math.hypot(est2.pose.x - est1.pose.x, est2.pose.y - est1.pose.y) < 1e-8
        assert abs(angle_diff(est2.pose.theta, est1.pose.theta)) < 1e-8

    def test_huber_bounds_outlier_influence(self, rig, robot_model):
        truth = PoseSE2(5.0, 4.0, 0.3)
        noise = NoiseModel(pixel_sigma=2.0, dropout_prob=0.0, outlier_prob=0.0,
                           timestamp_jitter=0.0)
        worse = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            fs = make_frameset(truth, rig, robot_model, noise, rng)
            base = solve_multiview(fs, truth, rig, robot_model)
            cam_id = sorted(fs.per_camera)[0]
            msg = fs.per_camera[cam_id]
            corrupted = msg.pixels.copy()
            corrupted[0, 0] += 50.0
            fs.per_camera[cam_id] = DetectionMessage(cam_id, msg.stamp, msg.keypoints,
                                                     corrupted, msg.confidence)
            out = solve_multiview(fs, truth, rig, robot_model)
            e_base = math.hypot(base.pose.x - truth.x, base.pose.y - truth.y)
            e_out = math.hypot(out.pose.x - truth.x, out.pose.y - truth.y)
            if e_out > 2.0 * max(e_base, 1e-4):
                worse += 1
        assert worse <= 3  # outliers must not dominate under the robust loss


class TestLocalOptimality:
    """Extra coverage beside acceptance criterion 03, which needs numba for
    its dense grid: no nearby pose has a lower objective than the LM answer
    under the independent reference objective."""

    def test_no_lower_objective_near_the_answer(self, rig, robot_model):
        rng = np.random.default_rng(31)
        noise = NoiseModel(pixel_sigma=2.0, dropout_prob=0.0, outlier_prob=0.0,
                           timestamp_jitter=0.0)
        delta = SolverConfig().huber_delta
        step = np.array([1e-3, 1e-3, math.radians(0.05)])
        stencil = [np.array(o) * step for o in itertools.product((-1, 0, 1), repeat=3) if any(o)]
        box = np.array([0.10, 0.10, math.radians(5.0)])
        answers = 0
        while answers < 200:
            pose = PoseSE2(rng.uniform(1.0, 9.0), rng.uniform(1.0, 7.0),
                           rng.uniform(-math.pi, math.pi))
            if camera_visibility_count(pose, rig, robot_model) < 2:
                continue
            fs = make_frameset(pose, rig, robot_model, noise, rng)
            answer = solve_multiview(fs, pose, rig, robot_model).pose.as_array()
            obs = oracles.frameset_obs_arrays(fs, rig, robot_model)
            best = oracles.reference_objective(answer, obs, delta)
            for offset in stencil + list(rng.uniform(-box, box, (200, 3))):
                assert best <= oracles.reference_objective(answer + offset, obs, delta)
            answers += 1


class TestSolveCovariance:
    """Every solve's covariance is sigma^2 * H^-1 of its own Gauss-Newton
    Hessian, with sigma^2 = objective / (2K - 3) floored at R_MIN^2."""

    @staticmethod
    def _solve(fs, truth, rig, model):
        obs = frameset_observations(fs, rig, model)
        est = solve_multiview(fs, truth, rig, model)
        _, obj, _, _, hess = estimation._levenberg_marquardt(truth.as_array()[None], obs,
                                                            SolverConfig())
        return est, obs, obj[0], hess[0]

    def test_residual_variance_scale(self, rig, robot_model):
        truth = PoseSE2(5.0, 4.0, 0.3)
        noise = NoiseModel(dropout_prob=0.0, outlier_prob=0.0, timestamp_jitter=0.0)
        fs = make_frameset(truth, rig, robot_model, noise, np.random.default_rng(3))
        est, obs, obj, hess = self._solve(fs, truth, rig, robot_model)
        sigma2 = obj / (2 * obs.n_rows - 3)
        assert sigma2 > estimation.R_MIN**2
        np.testing.assert_allclose(est.covariance, sigma2 * np.linalg.inv(hess), rtol=1e-9)

    def test_zero_residual_floored(self, rig, robot_model, rng):
        truth = PoseSE2(5.0, 4.0, 0.3)
        fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
        est, _, obj, hess = self._solve(fs, truth, rig, robot_model)
        assert obj < 1e-12
        np.linalg.cholesky(est.covariance)
        np.testing.assert_allclose(est.covariance, estimation.R_MIN**2 * np.linalg.inv(hess),
                                   rtol=1e-9)

    def test_shrinks_with_more_cameras(self, rig, robot_model, rng):
        truth = PoseSE2(5.0, 4.0, 0.3)
        fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
        assert len(fs.per_camera) == 4
        four = solve_multiview(fs, truth, rig, robot_model).covariance
        cam_id = sorted(fs.per_camera)[0]
        one = solve_multiview(FrameSet(anchor_stamp=0.0,
                                       per_camera={cam_id: fs.per_camera[cam_id]}),
                              truth, rig, robot_model).covariance
        # the 4-camera covariance is smaller in every direction
        assert np.linalg.eigvalsh(one - four).min() > 0

    @pytest.mark.parametrize("waypoint,lone", [(1, True), (6, True), (3, False), (7, False)])
    def test_monte_carlo_calibration(self, rig, robot_model, waypoint, lone):
        """Over 300 solves with pixel noise only, the predicted sd along the
        viewing ray, across it and in heading is within 25% of the spread of
        the answers; a lone camera's major axis lies along its ray."""
        truth = PoseSE2(*WAYPOINTS[waypoint])
        noise = NoiseModel(dropout_prob=0.0, outlier_prob=0.0, timestamp_jitter=0.0)
        rng = np.random.default_rng(waypoint)
        errors, covariances = [], []
        for _ in range(300):
            fs = make_frameset(truth, rig, robot_model, noise, rng)
            if lone:  # the observing camera's message alone
                cam_id = max(fs.per_camera, key=lambda c: len(fs.per_camera[c].keypoints))
                fs = FrameSet(anchor_stamp=0.0, per_camera={cam_id: fs.per_camera[cam_id]})
            est = solve_multiview(fs, truth, rig, robot_model)
            errors.append([*(est.pose.xy - truth.xy), angle_diff(est.pose.theta, truth.theta)])
            covariances.append(est.covariance)
        errors, cov = np.array(errors), np.mean(covariances, axis=0)
        # the lone camera's ray; with four cameras, camera 0's
        camera = next(c for c in rig if c.camera_id == min(fs.per_camera))
        ray = truth.xy - camera.ground_position()
        ray /= np.linalg.norm(ray)
        across = np.array([-ray[1], ray[0]])
        for direction in (ray, across):
            predicted = math.sqrt(direction @ cov[:2, :2] @ direction)
            assert 0.75 <= predicted / np.std(errors[:, :2] @ direction) <= 1.25
        assert 0.75 <= math.sqrt(cov[2, 2]) / np.std(errors[:, 2]) <= 1.25
        if lone:
            major = np.linalg.eigh(cov[:2, :2])[1][:, -1]
            assert abs(major @ ray) >= 0.9


class TestSingleViewCandidate:
    def test_noiseless_recovery(self, rig, robot_model, rng):
        truth = PoseSE2(4.0, 3.0, 0.9)
        fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
        cam_id = sorted(fs.per_camera)[0]
        cam = next(c for c in rig if c.camera_id == cam_id)
        cand = single_view_candidate(fs.per_camera[cam_id], cam, robot_model)
        assert math.hypot(cand.pose.x - truth.x, cand.pose.y - truth.y) < 1e-5
        assert abs(angle_diff(cand.pose.theta, truth.theta)) < 1e-5

    def test_requires_four_keypoints(self, rig, robot_model):
        msg = DetectionMessage(0, 0.0, range(3), [[100.0 + i, 100.0] for i in range(3)],
                               np.ones(3))
        with pytest.raises(InsufficientKeypoints):
            single_view_candidate(msg, rig[0], robot_model)

    def test_depth_error_exceeds_lateral(self, robot_model):
        # single camera 6 m away: depth is the weak direction
        cam = make_camera(0, (0.0, 0.0, 2.5), 0.0, math.radians(18.0))
        truth = PoseSE2(6.0, 0.0, 2.0)
        noise = NoiseModel(pixel_sigma=2.0, dropout_prob=0.0, outlier_prob=0.0,
                           timestamp_jitter=0.0)
        depth_sq, lat_sq = [], []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            msgs = simulate_frame(GroundTruthSample(0.0, truth, True, 0), [cam],
                                  robot_model, noise, rng)
            assert len(msgs) == 1
            cand = single_view_candidate(msgs[0], cam, robot_model)
            err = cand.pose.xy - truth.xy
            view = truth.xy - cam.ground_position()
            view = view / np.linalg.norm(view)
            depth_sq.append(float(err @ view) ** 2)
            lat_sq.append(float(err @ np.array([-view[1], view[0]])) ** 2)
        assert math.sqrt(np.mean(depth_sq)) >= 2.0 * math.sqrt(np.mean(lat_sq))


class TestInterpolateCandidates:
    """The blend of single-view candidates that seeds `initialize_global`'s final solve."""

    def test_single_candidate_identity(self, rig, robot_model, rng):
        fs = make_frameset(PoseSE2(4.0, 3.0, 0.9), rig, robot_model, ZERO_NOISE, rng)
        cam_id = sorted(fs.per_camera)[0]
        cam = next(c for c in rig if c.camera_id == cam_id)
        cand = single_view_candidate(fs.per_camera[cam_id], cam, robot_model)
        out = average_estimates([cand]).pose
        assert out.x == pytest.approx(cand.pose.x, abs=1e-12)
        assert out.y == pytest.approx(cand.pose.y, abs=1e-12)
        assert abs(angle_diff(out.theta, cand.pose.theta)) < 1e-12

    def test_empty_rejected(self):
        from camloc.errors import EmptyInput

        with pytest.raises(EmptyInput):
            average_estimates([])


class TestBatchedMultiStart:
    """single_view_candidate runs its 8 heading starts as one LM batch; each
    start must end exactly where it ends when solved alone."""

    @staticmethod
    def _single_camera_messages(rig, model, n=50):
        rng = np.random.default_rng(2024)
        noise = NoiseModel(timestamp_jitter=0.0)
        out = []
        while len(out) < n:
            pose = PoseSE2(rng.uniform(0, 10), rng.uniform(0, 8), rng.uniform(-math.pi, math.pi))
            msgs = simulate_frame(GroundTruthSample(0.0, pose, True, 0), rig, model, noise, rng)
            out.extend(m for m in msgs if len(m.keypoints) >= 4)
        return out[:n]

    @staticmethod
    def _starts(msg, cam, model):
        obs = flatten_observations([(cam, msg)], model)
        return obs, estimation._heading_starts(estimation._backproject_centroid(obs, cam, model))

    def test_batch_matches_each_start_alone(self, rig, robot_model):
        cams = {c.camera_id: c for c in rig}
        config = SolverConfig()
        for msg in self._single_camera_messages(rig, robot_model):
            cam = cams[msg.camera_id]
            obs, starts = self._starts(msg, cam, robot_model)
            params, obj, iters, diverged, hess = estimation._levenberg_marquardt(
                starts, obs, config)
            assert params.shape == (8, 3) and hess.shape == (8, 3, 3) and not diverged.any()
            for i in range(8):
                p1, o1, it1, d1, h1 = estimation._levenberg_marquardt(
                    starts[i:i + 1], obs, config)
                assert np.abs(p1[0] - params[i]).max() <= 1e-12
                assert abs(o1[0] - obj[i]) <= 1e-12
                assert it1[0] == iters[i] and not d1[0]
                np.testing.assert_allclose(h1[0], hess[i], rtol=1e-9)
            cand = single_view_candidate(msg, cam, robot_model, config)
            first_best = int(np.flatnonzero(obj == obj.min())[0])
            assert cand.pose == PoseSE2(*params[first_best])
            assert cand.rms_residual == math.sqrt(obj[first_best] / obs.n_rows)
            assert (cand.n_cameras, cand.n_keypoints, cand.stamp) == (1, obs.n_rows, msg.stamp)
            sigma2 = max(obj[first_best] / (2 * obs.n_rows - 3), estimation.R_MIN**2)
            np.testing.assert_allclose(cand.covariance,
                                       sigma2 * np.linalg.inv(hess[first_best]), rtol=1e-9)

    def test_diverged_start_leaves_the_others(self, rig, robot_model, monkeypatch):
        msg = self._single_camera_messages(rig, robot_model, n=1)[0]
        cam = next(c for c in rig if c.camera_id == msg.camera_id)
        obs, starts = self._starts(msg, cam, robot_model)
        config = SolverConfig()
        clean = estimation._levenberg_marquardt(starts, obs, config)
        broken = starts.copy()
        broken[3] = np.nan  # a non-finite start can only diverge
        params, obj, iters, diverged, hess = estimation._levenberg_marquardt(broken, obs, config)
        keep = np.arange(8) != 3
        assert diverged.tolist() == (~keep).tolist()
        np.testing.assert_array_equal(params[keep], clean[0][keep])
        np.testing.assert_array_equal(obj[keep], clean[1][keep])
        np.testing.assert_array_equal(iters[keep], clean[2][keep])
        np.testing.assert_array_equal(hess[keep], clean[4][keep])

        monkeypatch.setattr(estimation, "_heading_starts", lambda seed_xy: broken)
        cand = single_view_candidate(msg, cam, robot_model, config)
        best = np.flatnonzero(keep)[np.argmin(obj[keep])]
        assert cand.pose == PoseSE2(*params[best])

        monkeypatch.setattr(estimation, "_heading_starts",
                            lambda seed_xy: np.full((8, 3), np.nan))
        with pytest.raises(SolverDiverged):
            single_view_candidate(msg, cam, robot_model, config)


class TestInitializeGlobal:
    def test_noiseless_kidnapped_recovery(self, rig, robot_model, rng):
        truth = PoseSE2(5.5, 4.5, -1.2)
        fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
        est = initialize_global(fs, rig, robot_model)
        assert math.hypot(est.pose.x - truth.x, est.pose.y - truth.y) < 1e-5
        assert abs(angle_diff(est.pose.theta, truth.theta)) < 1e-5

    def test_zero_confidence_frameset_skipped(self, rig, robot_model, rng):
        fs = make_frameset(PoseSE2(3.0, 3.0, math.pi / 4), rig, robot_model, ZERO_NOISE, rng)
        fs = zero_confidence(fs, fs.per_camera)
        with pytest.raises(NoEligibleCamera):
            initialize_global(fs, rig, robot_model)

    def test_zero_confidence_camera_skipped(self, rig, robot_model, rng):
        truth = PoseSE2(5.5, 4.5, -1.2)
        fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
        silent = max(fs.per_camera, key=lambda c: len(fs.per_camera[c].keypoints))
        fs = zero_confidence(fs, [silent])
        with pytest.raises(InsufficientObservations):
            single_view_candidate(fs.per_camera[silent],
                                  next(c for c in rig if c.camera_id == silent), robot_model)
        est = initialize_global(fs, rig, robot_model)
        assert math.hypot(est.pose.x - truth.x, est.pose.y - truth.y) < 1e-5
        assert abs(angle_diff(est.pose.theta, truth.theta)) < 1e-5

    def test_no_eligible_camera(self, rig, robot_model):
        msg = DetectionMessage(0, 0.0, range(3), [[100.0 + i, 100.0] for i in range(3)],
                               np.ones(3))
        fs = FrameSet(anchor_stamp=0.0, per_camera={0: msg})
        with pytest.raises(NoEligibleCamera):
            initialize_global(fs, rig, robot_model)


class TestUnknownInputIds:
    """A camera id outside the rig or a keypoint index outside the model
    raises a typed error on the solver path, not KeyError or IndexError."""

    SOLVERS = {
        "solve_multiview": lambda fs, rig, model: solve_multiview(
            fs, PoseSE2(5.0, 4.0, 0.7), rig, model),
        "initialize_global": lambda fs, rig, model: initialize_global(fs, rig, model),
    }

    @pytest.fixture
    def frameset(self, rig, robot_model, rng):
        fs = make_frameset(PoseSE2(5.0, 4.0, 0.7), rig, robot_model, ZERO_NOISE, rng)
        assert max(len(m.keypoints) for m in fs.per_camera.values()) >= 4
        return fs

    @staticmethod
    def _widest(fs):
        return max(fs.per_camera, key=lambda c: len(fs.per_camera[c].keypoints))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_unknown_camera(self, frameset, rig, robot_model, solver):
        msg = frameset.per_camera.pop(self._widest(frameset))
        frameset.per_camera[99] = DetectionMessage(99, msg.stamp, msg.keypoints, msg.pixels,
                                                   msg.confidence)
        with pytest.raises(UnknownCamera):
            self.SOLVERS[solver](frameset, rig, robot_model)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_unknown_keypoint(self, frameset, rig, robot_model, solver):
        cam_id = self._widest(frameset)
        msg = frameset.per_camera[cam_id]
        bad = msg.keypoints.copy()
        bad[0] = 42
        frameset.per_camera[cam_id] = DetectionMessage(cam_id, msg.stamp, bad, msg.pixels,
                                                       msg.confidence)
        with pytest.raises(UnknownKeypoint):
            self.SOLVERS[solver](frameset, rig, robot_model)


class TestGateSingleView:
    def _estimate(self, pose, n_cameras=1):
        return PoseEstimate(pose=pose, covariance=np.diag([1e-4, 1e-4, 1e-4]),
                            rms_residual=1.0, n_cameras=n_cameras, n_keypoints=8,
                            stamp=0.0)

    def _camera_at(self, x, y):
        return make_camera(0, (x, y, 2.5), math.atan2(-y, -x), math.radians(30.0))

    def test_spec_example_depth_trigger(self):
        cam = self._camera_at(5.0, 0.0)
        prev = PoseSE2(0.0, 0.0, 0.0)
        raw = self._estimate(PoseSE2(0.8, 0.3, math.radians(25)))
        out = gate_single_view(prev, raw, cam, GateThresholds())
        assert out.gated
        assert out.pose.x == pytest.approx(0.0, abs=1e-9)
        assert out.pose.y == pytest.approx(0.3, abs=1e-9)
        assert out.pose.theta == pytest.approx(0.0, abs=1e-12)

    def test_within_thresholds_unchanged(self):
        cam = self._camera_at(5.0, 0.0)
        prev = PoseSE2(0.0, 0.0, 0.0)
        raw = self._estimate(PoseSE2(0.1, 0.05, math.radians(5)))
        out = gate_single_view(prev, raw, cam, GateThresholds())
        assert not out.gated
        assert out.pose == raw.pose

    def test_rejects_multi_camera_estimate(self):
        cam = self._camera_at(5.0, 0.0)
        raw = self._estimate(PoseSE2(0.1, 0.0, 0.0), n_cameras=2)
        with pytest.raises(ValueError):
            gate_single_view(PoseSE2(), raw, cam)

    def test_gated_estimate_keeps_its_covariance(self):
        # a lone camera's own covariance is already long along its ray
        cam = self._camera_at(5.0, 0.0)
        prev = PoseSE2(0.0, 0.0, 0.0)
        raw = replace(self._estimate(PoseSE2(0.8, 0.0, 0.0)),
                      covariance=np.diag([16e-4, 1e-4, 1e-4]))
        out = gate_single_view(prev, raw, cam, GateThresholds())
        assert out.gated
        np.testing.assert_array_equal(out.covariance, raw.covariance)

    def test_gate_dominance_on_depth_perturbation(self, rng):
        # whenever the raw depth error exceeds d_depth and the prior is
        # closer to truth, projecting out the depth component cannot lose
        cam = self._camera_at(5.0, 0.0)
        thresholds = GateThresholds()
        for _ in range(200):
            truth = PoseSE2(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.1, 0.1))
            prev = PoseSE2(truth.x + rng.uniform(-0.05, 0.05),
                           truth.y + rng.uniform(-0.05, 0.05), truth.theta)
            depth_err = rng.uniform(0.35, 1.0) * (1 if rng.random() < 0.5 else -1)
            view = truth.xy - cam.ground_position()
            view = view / np.linalg.norm(view)
            raw_xy = truth.xy + depth_err * view
            raw = self._estimate(PoseSE2(raw_xy[0], raw_xy[1], truth.theta))
            out = gate_single_view(prev, raw, cam, thresholds)
            if not out.gated:
                continue
            e_raw = np.linalg.norm(raw.pose.xy - truth.xy)
            e_gated = np.linalg.norm(out.pose.xy - truth.xy)
            assert e_gated <= e_raw + 1e-9


class TestAverageEstimates:
    def _estimate(self, pose, sigma=0.01, stamp=0.0):
        return PoseEstimate(pose=pose, covariance=np.diag([sigma**2, sigma**2, sigma**2]),
                            rms_residual=1.0, n_cameras=2, n_keypoints=8, stamp=stamp)

    def test_identical_estimates_shrink_covariance(self):
        pose = PoseSE2(1.0, 2.0, 0.3)
        ests = [self._estimate(pose, stamp=0.1 * i) for i in range(5)]
        avg = average_estimates(ests)
        assert avg.pose.x == pytest.approx(1.0)
        assert avg.pose.theta == pytest.approx(0.3)
        assert avg.covariance[0, 0] == pytest.approx(ests[0].covariance[0, 0] / 5)

    def test_single_estimate_identity(self):
        e = self._estimate(PoseSE2(1, 1, 1))
        avg = average_estimates([e])
        assert avg.pose.x == pytest.approx(e.pose.x)
        assert avg.pose.theta == pytest.approx(e.pose.theta)

    def test_information_weighting(self):
        a = self._estimate(PoseSE2(0, 0, 0), sigma=0.01)
        b = self._estimate(PoseSE2(1, 0, 0), sigma=0.02, stamp=0.1)
        avg = average_estimates([a, b])
        # weights 1/sigma^2 -> 4:1 toward the tighter estimate
        assert avg.pose.x == pytest.approx(0.2)

    def test_symmetric_mean_with_wraparound(self):
        a = self._estimate(PoseSE2(1, 0, math.radians(170)))
        b = self._estimate(PoseSE2(0, 1, math.radians(-170)))
        out = average_estimates([a, b])
        assert out.pose.x == pytest.approx(0.5)
        assert out.pose.y == pytest.approx(0.5)
        assert abs(out.pose.theta) == pytest.approx(math.pi)

    def test_negligible_weight_neutrality(self):
        a = self._estimate(PoseSE2(0, 0, 0))
        b = self._estimate(PoseSE2(1, 1, 0.2))
        c = self._estimate(PoseSE2(50, 50, 3.0), sigma=1e4)
        with_c = average_estimates([a, b, c]).pose
        without_c = average_estimates([a, b]).pose
        assert math.hypot(with_c.x - without_c.x, with_c.y - without_c.y) < 1e-4
        assert abs(angle_diff(with_c.theta, without_c.theta)) < 1e-4

    def test_span_beyond_two_seconds_rejected(self):
        ests = [self._estimate(PoseSE2(), stamp=0.0), self._estimate(PoseSE2(), stamp=2.5)]
        with pytest.raises(ValueError):
            average_estimates(ests)

    def test_empty_rejected(self):
        from camloc.errors import EmptyInput

        with pytest.raises(EmptyInput):
            average_estimates([])

    def test_averaging_reduces_error(self, rig, robot_model):
        truth = PoseSE2(5.0, 4.0, 0.3)
        noise = NoiseModel(dropout_prob=0.0, outlier_prob=0.0, timestamp_jitter=0.0)
        single_err, avg_err = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            ests = []
            for k in range(5):
                fs = make_frameset(truth, rig, robot_model, noise, rng, stamp=0.1 * k)
                ests.append(solve_multiview(fs, truth, rig, robot_model))
            avg = average_estimates(ests)
            single_err.append(np.linalg.norm(ests[0].pose.xy - truth.xy))
            avg_err.append(np.linalg.norm(avg.pose.xy - truth.xy))
        assert np.mean(avg_err) <= np.mean(single_err)


class TestPoseEstimateInvariants:
    def test_rejects_non_positive_definite_covariance(self):
        with pytest.raises(np.linalg.LinAlgError):
            PoseEstimate(pose=PoseSE2(), covariance=np.diag([1.0, 1.0, -1.0]),
                         rms_residual=0.0, n_cameras=1, n_keypoints=4, stamp=0.0)

    def test_rejects_zero_cameras(self):
        with pytest.raises(ValueError):
            PoseEstimate(pose=PoseSE2(), covariance=np.eye(3), rms_residual=0.0,
                         n_cameras=0, n_keypoints=4, stamp=0.0)


class TestSolverConfigValidation:
    def test_positive_constants_required(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            GateThresholds(d_depth=-1.0)
