import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from camloc import estimation, pipeline
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
from camloc.geometry import PoseSE2, angle_diff, flatten_observations, gather_observations
from camloc.pipeline import run_pipeline, simulate_detections
from camloc.scenario import WAYPOINTS, camera_visibility_count, load_config, make_camera
from camloc.simulation import GroundTruthSample, NoiseModel, simulate_frame
from camloc.sync import DetectionMessage, FrameSet, Synchronizer

import oracles

ZERO_NOISE = NoiseModel(pixel_sigma=0.0, dropout_prob=0.0, outlier_prob=0.0,
                        timestamp_jitter=0.0)


def make_frameset(pose, rig, model, noise, rng, stamp=0.0):
    msgs = simulate_frame(GroundTruthSample(stamp, pose, True, 0), rig, model, noise, rng)
    return FrameSet(anchor_stamp=stamp, per_camera={m.camera_id: m for m in msgs})


def lone(msg, cam, model):
    """One camera's message flattened alone, anchored at its own stamp."""
    return flatten_observations(FrameSet(anchor_stamp=msg.stamp, per_camera={cam.camera_id: msg}),
                                [cam], model)


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
        est = solve_multiview(flatten_observations(fs, rig, robot_model), init)
        assert math.hypot(est.pose.x - truth.x, est.pose.y - truth.y) < 1e-6
        assert abs(angle_diff(est.pose.theta, truth.theta)) < 1e-6
        assert est.rms_residual < 1e-6
        assert est.n_cameras == 4
        assert est.n_keypoints == sum(len(m.keypoints) for m in fs.per_camera.values())

    def test_insufficient_observations(self, rig, robot_model):
        msg = DetectionMessage(0, 0.0, [0, 1], [[10, 10], [20, 20]], [1.0, 1.0])
        for fs in (FrameSet(anchor_stamp=0.0, per_camera={0: msg}), FrameSet(anchor_stamp=0.0)):
            with pytest.raises(InsufficientObservations):
                solve_multiview(flatten_observations(fs, rig, robot_model), PoseSE2(5, 4, 0))

    def test_zero_confidence_is_uninformative(self, rig, robot_model, rng):
        # valid on the wire, but every keypoint has weight 0: the Hessian is
        # singular and the solve must not return its prior as an answer
        fs = make_frameset(PoseSE2(3.0, 3.0, math.pi / 4), rig, robot_model, ZERO_NOISE, rng)
        fs = zero_confidence(fs, fs.per_camera)
        with pytest.raises(InsufficientObservations):
            solve_multiview(flatten_observations(fs, rig, robot_model),
                            PoseSE2(3.0, 3.0, math.pi / 4))

    def test_weight_scaling_leaves_argmin_unchanged(self, rig, robot_model):
        truth = PoseSE2(4.5, 3.5, -0.4)
        rng = np.random.default_rng(11)
        fs = make_frameset(truth, rig, robot_model, NoiseModel(timestamp_jitter=0.0,
                                                              dropout_prob=0.0,
                                                              outlier_prob=0.0), rng)
        est1 = solve_multiview(flatten_observations(fs, rig, robot_model), truth)
        scaled = {}
        for cam_id, msg in fs.per_camera.items():
            scaled[cam_id] = DetectionMessage(cam_id, msg.stamp, msg.keypoints, msg.pixels,
                                              msg.confidence * 0.5)
        fs2 = FrameSet(anchor_stamp=0.0, per_camera=scaled)
        est2 = solve_multiview(flatten_observations(fs2, rig, robot_model), truth)
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
            base = solve_multiview(flatten_observations(fs, rig, robot_model), truth)
            cam_id = sorted(fs.per_camera)[0]
            msg = fs.per_camera[cam_id]
            corrupted = msg.pixels.copy()
            corrupted[0, 0] += 50.0
            fs.per_camera[cam_id] = DetectionMessage(cam_id, msg.stamp, msg.keypoints,
                                                     corrupted, msg.confidence)
            out = solve_multiview(flatten_observations(fs, rig, robot_model), truth)
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
            flat = flatten_observations(fs, rig, robot_model)
            answer = solve_multiview(flat, pose).pose.as_array()
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
        obs = flatten_observations(fs, rig, model)
        est = solve_multiview(obs, truth)
        _, obj, _, _, hess = estimation._levenberg_marquardt(truth.as_array(), obs,
                                                            SolverConfig())
        return est, obs, obj, hess

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
        four = solve_multiview(flatten_observations(fs, rig, robot_model), truth).covariance
        cam_id = sorted(fs.per_camera)[0]
        one = solve_multiview(flatten_observations(
            FrameSet(anchor_stamp=0.0, per_camera={cam_id: fs.per_camera[cam_id]}),
            rig, robot_model), truth).covariance
        # the 4-camera covariance is smaller in every direction
        assert np.linalg.eigvalsh(one - four).min() > 0

    def test_overflow_leaves_the_pose_unconstrained(self):
        # sigma^2 near the float maximum times a large H^-1 has no finite value
        with pytest.raises(InsufficientObservations):
            estimation._solve_covariance(1e-10 * np.eye(3), 1e308, 8)

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
            est = solve_multiview(flatten_observations(fs, rig, robot_model), truth)
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
        cand = single_view_candidate(lone(fs.per_camera[cam_id], cam, robot_model))
        assert math.hypot(cand.pose.x - truth.x, cand.pose.y - truth.y) < 1e-5
        assert abs(angle_diff(cand.pose.theta, truth.theta)) < 1e-5

    def test_requires_four_keypoints(self, rig, robot_model):
        msg = DetectionMessage(0, 0.0, range(3), [[100.0 + i, 100.0] for i in range(3)],
                               np.ones(3))
        with pytest.raises(InsufficientKeypoints):
            single_view_candidate(lone(msg, rig[0], robot_model))

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
            cand = single_view_candidate(lone(msgs[0], cam, robot_model))
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
        cand = single_view_candidate(lone(fs.per_camera[cam_id], cam, robot_model))
        out = average_estimates([cand]).pose
        assert out.x == pytest.approx(cand.pose.x, abs=1e-12)
        assert out.y == pytest.approx(cand.pose.y, abs=1e-12)
        assert abs(angle_diff(out.theta, cand.pose.theta)) < 1e-12

    def test_empty_rejected(self):
        from camloc.errors import EmptyInput

        with pytest.raises(EmptyInput):
            average_estimates([])


class TestBatchedMultiStart:
    """The 8-heading multi-start of the oracle, each start one LM run: every
    start converges, and the first lowest start's answer is what
    `_best_solve` returns from that start."""

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
        obs = lone(msg, cam, model)
        return obs, oracles.heading_starts(obs, cam, model)

    def test_batch_matches_each_start_alone(self, rig, robot_model):
        cams = {c.camera_id: c for c in rig}
        config = SolverConfig()
        for msg in self._single_camera_messages(rig, robot_model):
            cam = cams[msg.camera_id]
            obs, starts = self._starts(msg, cam, robot_model)
            best_start, results = oracles.multi_start(obs, starts, config)
            for params, _, _, diverged, hess in results:
                assert params.shape == (3,) and hess.shape == (3, 3) and not diverged
            obj = np.array([r[1] for r in results])
            first_best = int(np.flatnonzero(obj == obj.min())[0])
            assert best_start == first_best
            params, _, _, _, hess = results[first_best]
            best = estimation._best_solve(obs, starts[first_best], config)
            assert best.pose == PoseSE2(*params)
            assert best.rms_residual == math.sqrt(obj[first_best] / obs.n_rows)
            assert (best.n_cameras, best.n_keypoints, best.stamp) == (1, obs.n_rows, msg.stamp)
            sigma2 = max(obj[first_best] / (2 * obs.n_rows - 3), estimation.R_MIN**2)
            np.testing.assert_allclose(best.covariance, sigma2 * np.linalg.inv(hess), rtol=1e-9)
            # the candidate is the solve from its one algebraic seed
            cand = single_view_candidate(lone(msg, cam, robot_model), config)
            alone = estimation._best_solve(obs, estimation._algebraic_seed(obs), config)
            assert cand.pose == alone.pose and cand.n_iterations == alone.n_iterations
            assert cand.rms_residual == alone.rms_residual
            assert (cand.n_cameras, cand.n_keypoints, cand.stamp) == (1, obs.n_rows, msg.stamp)
            np.testing.assert_array_equal(cand.covariance, alone.covariance)

    def test_diverged_start_leaves_the_others(self, rig, robot_model):
        msg = self._single_camera_messages(rig, robot_model, n=1)[0]
        cam = next(c for c in rig if c.camera_id == msg.camera_id)
        obs, starts = self._starts(msg, cam, robot_model)
        config = SolverConfig()
        _, clean = oracles.multi_start(obs, starts, config)
        broken = starts.copy()
        broken[3] = np.nan  # a non-finite start can only diverge
        best, results = oracles.multi_start(obs, broken, config)
        keep = np.arange(8) != 3
        assert [r[3] for r in results] == (~keep).tolist()
        for i in np.flatnonzero(keep):
            for got, want in zip(results[i], clean[i]):
                np.testing.assert_array_equal(got, want)

        obj = np.array([r[1] for r in results])
        assert best == np.flatnonzero(keep)[np.argmin(obj[keep])]
        assert estimation._best_solve(obs, broken[best], config).pose == PoseSE2(*results[best][0])
        with pytest.raises(SolverDiverged):
            estimation._best_solve(obs, broken[3], config)
        assert oracles.multi_start(obs, np.full((8, 3), np.nan), config)[0] is None


class TestScalarLM:
    """The one-start LM's stop paths: the iteration cap, divergence from a
    non-finite start, and relocalization skipping a diverged candidate."""

    @staticmethod
    def _noisy(rig, model):
        truth = PoseSE2(5.0, 4.0, 0.7)
        noise = NoiseModel(dropout_prob=0.0, outlier_prob=0.0, timestamp_jitter=0.0)
        fs = make_frameset(truth, rig, model, noise, np.random.default_rng(11))
        return truth, fs, flatten_observations(fs, rig, model)

    def test_iteration_cap(self, rig, robot_model):
        truth, _, obs = self._noisy(rig, robot_model)
        start = truth.as_array() + [0.3, -0.2, 0.3]
        _, _, free, _, _ = estimation._levenberg_marquardt(start, obs, SolverConfig())
        assert free > 2
        params, obj, iters, diverged, _ = estimation._levenberg_marquardt(
            start, obs, SolverConfig(max_iterations=2))
        assert iters == 2 and not diverged
        assert math.isfinite(obj) and np.isfinite(params).all()

    def test_nan_start_diverges(self, rig, robot_model):
        _, _, obs = self._noisy(rig, robot_model)
        start = np.full(3, np.nan)
        params, obj, _, diverged, _ = estimation._levenberg_marquardt(start, obs, SolverConfig())
        assert diverged is True
        assert not math.isfinite(obj) and not np.isfinite(params).all()
        with pytest.raises(SolverDiverged):
            estimation._best_solve(obs, start, SolverConfig())

    def test_diverged_candidate_skipped(self, rig, robot_model, monkeypatch):
        truth, fs, obs = self._noisy(rig, robot_model)
        eligible = [i for i in range(obs.n_cameras)
                    if obs.camera(i).n_rows >= estimation.MIN_SEED_KEYPOINTS]
        assert len(eligible) >= 2
        bad = obs.cameras[eligible[0]].camera_id
        seed = estimation._algebraic_seed
        monkeypatch.setattr(estimation, "_algebraic_seed", lambda view: (
            np.full(3, np.nan) if view.cameras[0].camera_id == bad else seed(view)))
        with pytest.raises(SolverDiverged):
            single_view_candidate(obs.camera(eligible[0]))
        good = [single_view_candidate(obs.camera(i)) for i in eligible[1:]]
        est = initialize_global(fs, rig, robot_model)
        assert est.pose == solve_multiview(obs, average_estimates(good).pose).pose
        assert math.hypot(est.pose.x - truth.x, est.pose.y - truth.y) < 0.05
        monkeypatch.setattr(estimation, "_algebraic_seed", lambda view: np.full(3, np.nan))
        with pytest.raises(NoEligibleCamera):
            initialize_global(fs, rig, robot_model)


class TestOneLMLoop:
    """The pose LM runs the loop it shares with the pose graph; it matches
    its own loop from before the sharing, oracles.reference_pose_lm, bit for
    bit: pose, objective, iterations, divergence flag and Hessian, after as
    many kernel evaluations."""

    @staticmethod
    def _counted(module, monkeypatch):
        calls, kernel = [], module.reprojection_kernel
        monkeypatch.setattr(module, "reprojection_kernel",
                            lambda *args: calls.append(1) or kernel(*args))
        return calls

    def _assert_same(self, start, obs, config, monkeypatch):
        calls, calls0 = (self._counted(m, monkeypatch) for m in (estimation, oracles))
        got = estimation._levenberg_marquardt(start, obs, config)
        want = oracles.reference_pose_lm(start, obs, config)
        assert len(calls) == len(calls0)
        monkeypatch.undo()
        (params, obj, iters, diverged, hess), (params0, obj0, iters0, diverged0, hess0) = got, want
        assert params.tobytes() == params0.tobytes()
        assert np.float64(obj).tobytes() == np.float64(obj0).tobytes()
        assert (iters, diverged) == (iters0, diverged0)
        assert hess.tobytes() == hess0.tobytes()

    def test_seeded_framesets(self, rig, robot_model, monkeypatch):
        rng = np.random.default_rng(29)
        noise = NoiseModel(timestamp_jitter=0.0)  # dropouts and outliers on
        capped = SolverConfig(max_iterations=2)
        framesets = 0
        while framesets < 60:
            truth = PoseSE2(rng.uniform(0.5, 9.5), rng.uniform(0.5, 7.5),
                            rng.uniform(-math.pi, math.pi))
            obs = flatten_observations(make_frameset(truth, rig, robot_model, noise, rng),
                                       rig, robot_model)
            if obs.n_rows < 3:
                continue
            start = truth.as_array() + rng.normal(0.0, 0.3, 3)
            for config in (SolverConfig(), capped):
                self._assert_same(start, obs, config, monkeypatch)
            for view in map(obs.camera, range(obs.n_cameras)):
                if view.n_rows >= estimation.MIN_SEED_KEYPOINTS:
                    self._assert_same(estimation._algebraic_seed(view), view, SolverConfig(),
                                      monkeypatch)
            framesets += 1

    def test_stop_paths(self, rig, robot_model, monkeypatch):
        truth = PoseSE2(5.0, 4.0, 0.7)
        fs = make_frameset(truth, rig, robot_model, NoiseModel(timestamp_jitter=0.0),
                           np.random.default_rng(11))
        obs = flatten_observations(fs, rig, robot_model)
        far = truth.as_array() + [0.3, -0.2, 0.3]
        self._assert_same(far, obs, SolverConfig(max_iterations=2), monkeypatch)
        self._assert_same(np.full(3, np.nan), obs, SolverConfig(), monkeypatch)
        blind = flatten_observations(zero_confidence(fs, fs.per_camera), rig, robot_model)
        self._assert_same(far, blind, SolverConfig(), monkeypatch)


def stream_framesets(config):
    """Every frame-set of a scenario's simulated stream."""
    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    return [fs for msg in simulate_detections(config) for fs in sync.ingest(msg)] + sync.flush()


def gathered(framesets, config):
    return gather_observations(framesets, config.cameras, config.robot_model)


def batch_seed(obs):
    """The batch's algebraic seed of one frame-set, solved in a block of one."""
    seeds, singular = estimation._algebraic_seeds(
        obs.linear_map[None], (obs.pixel - obs.center)[:, None], obs.weight[None])
    assert not singular[0]
    return PoseSE2(*seeds[:, 0])


def assert_same_bits(got, want):
    assert (got.pose, got.rms_residual, got.n_iterations, got.n_cameras, got.n_keypoints,
            got.stamp) == (want.pose, want.rms_residual, want.n_iterations, want.n_cameras,
                           want.n_keypoints, want.stamp)
    assert got.covariance.tobytes() == want.covariance.tobytes()


class TestSolveBatch:
    """solve_batch is solve_multiview from the algebraic seed, for every
    row of a gathered block at once."""

    @pytest.mark.parametrize("name", ["traj1", "traj2", "traj3"])
    def test_equals_the_scalar_loop(self, scenario_dir, name):
        config = load_config(scenario_dir / f"{name}.json", {"seed": 7})
        framesets = stream_framesets(config)
        assert len(framesets) > estimation.BATCH_BLOCK * 3
        for lo in range(0, len(framesets), estimation.BATCH_BLOCK):
            block = gathered(framesets[lo:lo + estimation.BATCH_BLOCK], config)
            batch = estimation.solve_batch(block, config.solver)
            assert len(batch) == len(block) == len(framesets[lo:lo + estimation.BATCH_BLOCK])
            for n, got in enumerate(batch):
                obs = block.row(n)
                want = solve_multiview(obs, batch_seed(obs), config.solver)
                assert got.n_iterations == want.n_iterations
                assert (got.n_cameras, got.n_keypoints, got.stamp) == (
                    want.n_cameras, want.n_keypoints, want.stamp)
                assert abs(got.pose.x - want.pose.x) < 1e-9
                assert abs(got.pose.y - want.pose.y) < 1e-9
                assert abs(angle_diff(got.pose.theta, want.pose.theta)) < 1e-9
                np.testing.assert_allclose(got.covariance, want.covariance, rtol=1e-9, atol=0)
                assert got.rms_residual == pytest.approx(want.rms_residual, rel=1e-9)

    @pytest.mark.parametrize("solver", [
        SolverConfig(max_iterations=1),
        SolverConfig(max_iterations=3, lm_lambda_init=1e4, lm_lambda_scale=1.5),
        SolverConfig(convergence_tol=1e-3, lm_lambda_init=1e-9, huber_delta=0.5),
        SolverConfig(lm_lambda_scale=1e30),
    ], ids=["one_iteration", "heavy_damping", "loose_tolerance", "lam_at_its_bounds"])
    def test_equals_the_scalar_loop_at_other_settings(self, traj1_config, solver):
        """The iteration cap, the lam schedule, the tolerance and the Huber
        threshold mean what they mean to levenberg_marquardt."""
        block = gathered(stream_framesets(traj1_config)[:150], traj1_config)
        for n, got in enumerate(estimation.solve_batch(block, solver)):
            obs = block.row(n)
            want = solve_multiview(obs, batch_seed(obs), solver)
            assert got.n_iterations == want.n_iterations
            assert np.abs(got.pose.as_array() - want.pose.as_array()).max() < 1e-9
            np.testing.assert_allclose(got.covariance, want.covariance, rtol=1e-9, atol=0)

    def test_bad_frame_sets_fail_alone(self, traj1_config):
        """Three rows that must fail share a block with 40 that must not:
        each fails with solve_multiview's error, and every other answer is
        that of its frame-set solved in a block of one, bit for bit."""
        good = stream_framesets(traj1_config)[:40]
        framesets = list(good)
        for k, twin in ((10, 3), (21, 7), (32, 9)):
            framesets.insert(k, good[twin])
        block = gathered(framesets, traj1_config)
        weight, pixel, n_rows = block.weight.copy(), block.pixel.copy(), block.n_rows.copy()
        linear_map, center = block.linear_map.copy(), block.center.copy()
        weight[10] = 0.0  # every confidence 0
        pixel[0, 21, 0] = 1e200  # past the image: the gather drops it
        n_rows[32] = 2  # only 2 keypoints
        for a in (weight[32], pixel[:, 32], center[:, 32], linear_map[32].reshape(5, 3, -1)):
            a[..., 2:] = 0.0
        offsets = list(block.offsets)
        offsets[32] = (0, 2)
        block = replace(block, linear_map=linear_map, center=center, pixel=pixel, weight=weight,
                        n_rows=n_rows, offsets=tuple(offsets))
        bad = {10: InsufficientObservations, 21: SolverDiverged, 32: InsufficientObservations}
        assert len(set(block.n_rows.tolist())) > 3  # the block pads most of them
        results = estimation.solve_batch(block, traj1_config.solver)
        for k, error in bad.items():
            assert type(results[k]) is error
            obs = block.row(k)
            with pytest.raises(error):
                solve_multiview(obs, batch_seed(obs) if obs.n_rows >= 3 else PoseSE2(),
                                traj1_config.solver)
        for k, (fs, got) in enumerate(zip(framesets, results)):
            if k not in bad:
                alone = gathered([fs], traj1_config)
                assert_same_bits(got, estimation.solve_batch(alone, traj1_config.solver)[0])

    def test_a_block_with_no_row_to_solve(self, traj1_config, monkeypatch):
        """An empty block, rows of 0 and 2 columns, and rows whose every
        seed is singular: nothing enters the LM, and each row gets its
        entry."""
        cam = traj1_config.cameras[0].camera_id
        short = [FrameSet(0.0, {cam: DetectionMessage(cam, 0.0, ids, [[400.0, 200.0]] * len(ids),
                                                      [1.0] * len(ids))})
                 for ids in ([], [0, 1])]
        assert estimation.solve_batch(gathered([], traj1_config)) == []
        results = estimation.solve_batch(gathered(short, traj1_config))
        assert [type(r) for r in results] == [InsufficientObservations] * 2
        seeds = estimation._algebraic_seeds

        def all_singular(*arrays):
            out, singular = seeds(*arrays)
            return out * np.nan, singular | True

        monkeypatch.setattr(estimation, "_algebraic_seeds", all_singular)
        block = gathered(stream_framesets(traj1_config)[:5] + short, traj1_config)
        assert estimation.solve_batch(block)[:5] == [None] * 5

    def test_a_singular_matrix_fails_alone(self, rng):
        """_each solves a stack in one call, or, when one matrix is singular,
        one matrix at a time: NaN and raised for that one, the one-call bits
        for the rest."""
        a = rng.standard_normal((6, 4, 4))
        b = rng.standard_normal((6, 4))
        solved, raised = estimation._each(estimation._solve_stack, a, b)
        assert not raised.any()
        a[2] = 0.0
        again, raised = estimation._each(estimation._solve_stack, a, b)
        assert raised.tolist() == [False, False, True, False, False, False]
        assert np.isnan(again[2]).all()
        keep = [0, 1, 3, 4, 5]
        assert again[keep].tobytes() == solved[keep].tobytes()


class TestAlgebraicSeed:
    """A single-view candidate starts its LM from one weighted linear solve
    in (cos, sin, x, y) instead of 8 heading starts."""

    def test_noiseless_seed_is_exact(self, rig, robot_model):
        rng = np.random.default_rng(7)
        views = 0
        while views < 40:
            truth = PoseSE2(rng.uniform(0, 10), rng.uniform(0, 8), rng.uniform(-math.pi, math.pi))
            fs = make_frameset(truth, rig, robot_model, ZERO_NOISE, rng)
            obs = flatten_observations(fs, rig, robot_model)
            for view in map(obs.camera, range(obs.n_cameras)):
                if view.n_rows < estimation.MIN_SEED_KEYPOINTS:
                    continue
                x, y, theta = estimation._algebraic_seed(view)
                assert math.hypot(x - truth.x, y - truth.y) <= 1e-9
                assert abs(angle_diff(theta, truth.theta)) <= 1e-9
                views += 1

    def test_matches_the_multi_start(self, rig, robot_model):
        cams = {c.camera_id: c for c in rig}
        config = SolverConfig()
        for msg in TestBatchedMultiStart._single_camera_messages(rig, robot_model):
            obs, starts = TestBatchedMultiStart._starts(msg, cams[msg.camera_id], robot_model)
            best, _ = oracles.multi_start(obs, starts, config)
            oracle = estimation._best_solve(obs, starts[best], config)
            cand = single_view_candidate(obs, config)
            assert cand.rms_residual**2 <= oracle.rms_residual**2 * (1 + 1e-9)
            assert np.linalg.norm(cand.pose.xy - oracle.pose.xy) <= 1e-6
            assert abs(angle_diff(cand.pose.theta, oracle.pose.theta)) <= 1e-6

    @staticmethod
    def _on_axis_only(msg, model):
        """The message cut down to the keypoints on the body z-axis, whose
        seed system has zero cos and sin columns."""
        keep = (model.keypoints[msg.keypoints, :2] == 0.0).all(axis=1)
        assert keep.sum() >= estimation.MIN_SEED_KEYPOINTS
        return DetectionMessage(msg.camera_id, msg.stamp, msg.keypoints[keep], msg.pixels[keep],
                                msg.confidence[keep])

    @staticmethod
    def _absurd_pixel(obs, i):
        """obs with camera i's first pixel at u = 1e200, a pixel that
        flatten_observations itself would drop."""
        pixel = obs.pixel.copy()
        pixel[0, obs.offsets[i]] = 1e200
        return replace(obs, pixel=pixel)

    @pytest.mark.parametrize("case", ["singular", "non_finite"])
    def test_unusable_seed_skips_the_camera(self, rig, robot_model, rng, monkeypatch, case):
        model = robot_model
        if case == "singular":
            on_axis = [[0.0, 0.0, z] for z in (0.1, 0.15, 0.2, 0.25)]
            model = replace(robot_model, keypoints=np.vstack([robot_model.keypoints, on_axis]))
        fs = make_frameset(PoseSE2(5.0, 4.0, 0.7), rig, model, ZERO_NOISE, rng)
        bad_id = TestUnknownInputIds._widest(fs)
        if case == "singular":
            fs.per_camera[bad_id] = self._on_axis_only(fs.per_camera[bad_id], model)
        obs = flatten_observations(fs, rig, model)
        if case == "non_finite":  # planted after the flatten, which drops it
            obs = self._absurd_pixel(obs, [c.camera_id for c in obs.cameras].index(bad_id))
            monkeypatch.setattr(estimation, "flatten_observations", lambda *args: obs)
        views = {c.camera_id: obs.camera(i) for i, c in enumerate(obs.cameras)}
        if case == "singular":
            with pytest.raises(InsufficientObservations):
                estimation._algebraic_seed(views[bad_id])
        else:
            assert not np.isfinite(estimation._algebraic_seed(views[bad_id])).all()
            with pytest.raises(SolverDiverged):
                single_view_candidate(views[bad_id])
        good = [single_view_candidate(v) for i, v in views.items()
                if i != bad_id and v.n_rows >= estimation.MIN_SEED_KEYPOINTS]
        assert good
        inits = []
        monkeypatch.setattr(estimation, "solve_multiview",
                            lambda obs, init, config=None: inits.append(init))
        initialize_global(fs, rig, model)
        assert inits == [average_estimates(good).pose]


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
            single_view_candidate(lone(fs.per_camera[silent],
                                       next(c for c in rig if c.camera_id == silent),
                                       robot_model))
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
            flatten_observations(fs, rig, model), PoseSE2(5.0, 4.0, 0.7)),
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


class TestOneFlatten:
    """A frame-set is flattened once; each camera's candidate reads a slice
    of that one FlatObservations."""

    @staticmethod
    def _noisy_framesets(rig, model, n):
        rng = np.random.default_rng(17)
        out = []
        while len(out) < n:
            pose = PoseSE2(rng.uniform(0, 10), rng.uniform(0, 8), rng.uniform(-math.pi, math.pi))
            fs = make_frameset(pose, rig, model, NoiseModel(timestamp_jitter=0.0), rng)
            if any(len(m.keypoints) >= estimation.MIN_SEED_KEYPOINTS
                   for m in fs.per_camera.values()):
                out.append(fs)
        return out

    def test_slice_equals_lone_flatten(self, rig, robot_model):
        candidates = 0
        for fs in self._noisy_framesets(rig, robot_model, 40):
            obs = flatten_observations(fs, rig, robot_model)
            assert [c.camera_id for c in obs.cameras] == sorted(fs.per_camera)
            for i, cam in enumerate(obs.cameras):
                view = obs.camera(i)
                alone = flatten_observations(
                    FrameSet(fs.anchor_stamp, {cam.camera_id: fs.per_camera[cam.camera_id]}),
                    rig, robot_model)
                assert view.cameras == alone.cameras == (cam,)
                assert view.offsets == alone.offsets and view.stamp == alone.stamp
                for name in ("linear_map", "center", "pixel", "weight"):
                    np.testing.assert_array_equal(getattr(view, name), getattr(alone, name))
                if view.n_rows < estimation.MIN_SEED_KEYPOINTS:
                    continue
                a = single_view_candidate(view)
                b = single_view_candidate(alone)
                assert a.pose == b.pose and a.n_iterations == b.n_iterations
                np.testing.assert_array_equal(a.covariance, b.covariance)
                candidates += 1
        assert candidates >= 40

    def test_one_flatten_per_relocalization(self, rig, robot_model, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return flatten_observations(*args)

        monkeypatch.setattr(estimation, "flatten_observations", counted)
        framesets = self._noisy_framesets(rig, robot_model, 20)
        for fs in framesets:
            initialize_global(fs, rig, robot_model)
        assert len(calls) == len(framesets)
        # one flatten per seeding camera would make more calls than that
        seeding = sum(len(m.keypoints) >= estimation.MIN_SEED_KEYPOINTS
                      for fs in framesets for m in fs.per_camera.values())
        assert seeding > len(framesets)

    @staticmethod
    def _with_empty_message(fs, cam_id):
        empty = DetectionMessage(cam_id, fs.anchor_stamp, [], [], [])
        return FrameSet(fs.anchor_stamp, {**fs.per_camera, cam_id: empty})

    def test_empty_message_adds_no_camera(self, rig, robot_model, rng):
        truth = PoseSE2(*WAYPOINTS[1])
        noise = NoiseModel(dropout_prob=0.0, outlier_prob=0.0, timestamp_jitter=0.0)
        fs = make_frameset(truth, rig, robot_model, noise, rng)
        cam_id = max(fs.per_camera, key=lambda c: len(fs.per_camera[c].keypoints))
        fs = FrameSet(fs.anchor_stamp, {cam_id: fs.per_camera[cam_id]})  # the observing camera
        other = next(c.camera_id for c in rig if c.camera_id not in fs.per_camera)
        padded = self._with_empty_message(fs, other)
        obs = flatten_observations(padded, rig, robot_model)
        assert obs.n_cameras == 1 and other not in [c.camera_id for c in obs.cameras]
        for solve in (lambda f: solve_multiview(flatten_observations(f, rig, robot_model), truth),
                      lambda f: initialize_global(f, rig, robot_model)):
            base, out = solve(fs), solve(padded)
            assert out.n_cameras == 1
            assert out.pose == base.pose
            np.testing.assert_array_equal(out.covariance, base.covariance)

    def test_pipeline_gates_a_lone_camera_beside_an_empty_message(self, small_scenario,
                                                                 monkeypatch):
        config = load_config(small_scenario)
        messages = simulate_detections(config)
        lone_id = max({m.camera_id for m in messages},
                      key=lambda c: sum(m.camera_id == c for m in messages))
        other = next(c.camera_id for c in config.cameras if c.camera_id != lone_id)
        lone = [m for m in messages if m.camera_id == lone_id]
        padded = [p for m in lone for p in (m, DetectionMessage(other, m.stamp, [], [], []))]
        gated = []

        def spy(prev, raw, camera, thresholds):
            gated.append(camera.camera_id)
            return gate_single_view(prev, raw, camera, thresholds)

        monkeypatch.setattr(pipeline, "gate_single_view", spy)
        base = run_pipeline(config, lone)
        n_base = len(gated)
        assert n_base > 0
        out = run_pipeline(config, padded)
        assert gated == [lone_id] * (2 * n_base)
        for mode in ("raw", "gated_1frame"):
            a, b = base.mode_trajectories[mode], out.mode_trajectories[mode]
            np.testing.assert_array_equal(a.stamps, b.stamps)
            assert a.poses == b.poses


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
                ests.append(solve_multiview(flatten_observations(fs, rig, robot_model), truth))
            avg = average_estimates(ests)
            single_err.append(np.linalg.norm(ests[0].pose.xy - truth.xy))
            avg_err.append(np.linalg.norm(avg.pose.xy - truth.xy))
        assert np.mean(avg_err) <= np.mean(single_err)


class TestPoseEstimateInvariants:
    def test_rejects_non_positive_definite_covariance(self):
        with pytest.raises(np.linalg.LinAlgError):
            PoseEstimate(pose=PoseSE2(), covariance=np.diag([1.0, 1.0, -1.0]),
                         rms_residual=0.0, n_cameras=1, n_keypoints=4, stamp=0.0)

    def test_rejects_non_finite_covariance(self):
        with pytest.raises(ValueError):
            PoseEstimate(pose=PoseSE2(), covariance=np.diag([np.inf, 1.0, 1.0]),
                         rms_residual=0.0, n_cameras=1, n_keypoints=4, stamp=0.0)

    def test_rejects_zero_cameras(self):
        with pytest.raises(ValueError):
            PoseEstimate(pose=PoseSE2(), covariance=np.eye(3), rms_residual=0.0,
                         n_cameras=0, n_keypoints=4, stamp=0.0)

    @pytest.mark.parametrize("cov", [
        np.diag([0.0, 1.0, 1.0]),  # a zero first pivot
        # pivots 1 and 1, then 1 - 0.8^2 - 0.8^2 < 0
        np.array([[1.0, 0.0, 0.8], [0.0, 1.0, 0.8], [0.8, 0.8, 1.0]]),
        np.diag([1.0, 1.0, np.nextafter(0.0, -1.0)]),
    ], ids=["zero_first_pivot", "negative_third_pivot", "third_pivot_below_zero"])
    def test_rejects_a_non_positive_pivot(self, cov):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        with pytest.raises(np.linalg.LinAlgError):
            PoseEstimate(pose=PoseSE2(), covariance=cov, rms_residual=0.0, n_cameras=1,
                         n_keypoints=4, stamp=0.0)

    def test_pivots_agree_with_lapack(self, rng):
        """positive_definite is np.linalg.cholesky's verdict on symmetric
        matrices with eigenvalues of either sign, spread over six decades:
        far enough from zero that rounding cannot flip either verdict."""
        verdicts = set()
        for _ in range(2000):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            eig = rng.choice([-1.0, 1.0], size=3, p=[0.2, 0.8]) * 10.0 ** rng.uniform(-3, 3, 3)
            cov = q @ np.diag(eig) @ q.T
            cov = 0.5 * (cov + cov.T)
            try:
                np.linalg.cholesky(cov)
                want = True
            except np.linalg.LinAlgError:
                want = False
            assert estimation.positive_definite(cov.ravel().tolist()) == want
            verdicts.add(want)
        assert verdicts == {True, False}


class TestSolverConfigValidation:
    def test_positive_constants_required(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            GateThresholds(d_depth=-1.0)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 1e-300])
    def test_lambda_scale_must_exceed_1(self, scale):
        # a rejected trial retries at lam * scale until lam passes LAMBDA_MAX
        with pytest.raises(ValueError, match="lm_lambda_scale"):
            SolverConfig(lm_lambda_scale=scale)
        assert SolverConfig(lm_lambda_scale=1.0 + 1e-9).lm_lambda_scale > 1
