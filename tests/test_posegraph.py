import copy
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from camloc.errors import GaugeFree, SolverDiverged, UnknownNode
from camloc.estimation import PoseEstimate, SolverConfig, average_estimates, information_mean
from camloc.geometry import PoseSE2, angle_diff
from camloc.pipeline import _dwell, _predict, run_pipeline
from camloc.posegraph import Node, PoseGraph
from camloc.scenario import load_config
from camloc.simulation import script_trajectory

import oracles
from oracles import central_difference_jacobian, two_node_unary_optimum

SMALL_COV = np.diag([1e-4, 1e-4, 1e-4])


# One relocalization in a fresh interpreter, printing every scipy module loaded.
RELOCALIZE_SCRIPT = """
import sys
import numpy as np
import camloc
from camloc import estimation, scenario, simulation
from camloc.geometry import PoseSE2
from camloc.sync import FrameSet
config = scenario.load_config(sys.argv[1])
sample = simulation.GroundTruthSample(0.0, PoseSE2(5.0, 4.0, 0.7), True, 0)
msgs = simulation.simulate_frame(sample, config.cameras, config.robot_model, config.noise,
                                 np.random.default_rng(0))
estimation.initialize_global(FrameSet(0.0, {m.camera_id: m for m in msgs}), config.cameras,
                             config.robot_model)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def unary(pose, sigma=0.01, stamp=0.0):
    return PoseEstimate(pose=pose, covariance=np.diag([sigma**2] * 3),
                        rms_residual=1.0, n_cameras=2, n_keypoints=8, stamp=stamp)


class TestGraphConstruction:
    def test_anchor_node_created_by_constructor(self):
        g = PoseGraph(PoseSE2(1.0, 2.0, 0.5), initial_stamp=10.0)
        assert len(g.nodes) == 1 and len(g.odometry_edges) == 0
        assert g.nodes[0].pose == PoseSE2(1.0, 2.0, 0.5)
        assert g.nodes[0].stamp == 10.0
        assert g.nearest_node(3.0) == 0
        nid = g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=10.1)
        assert nid == 1
        assert g.nodes[1].pose == PoseSE2(1.0, 2.0, 0.5).compose(PoseSE2(0.1, 0, 0))

    def test_hundred_deltas(self):
        g = PoseGraph()
        for i in range(100):
            g.add_odometry(PoseSE2(0.05, 0, 0), SMALL_COV, stamp=0.1 * (i + 1))
        assert len(g.nodes) == 101
        assert len(g.odometry_edges) == 100
        assert g.nodes[-1].pose.x == pytest.approx(5.0)

    def test_unknown_node_rejected(self):
        g = PoseGraph()
        g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0)
        with pytest.raises(UnknownNode):
            g.add_camera_estimate(7, unary(PoseSE2()))

    def test_non_positive_definite_covariance_rejected_at_insert(self):
        """The check runs when the edge is added, not at the solve that
        inverts it, and leaves the graph as it was."""
        g = PoseGraph()
        with pytest.raises(np.linalg.LinAlgError):
            g.add_odometry(PoseSE2(0.1, 0, 0), np.diag([1.0, -1.0, 1.0]), stamp=1.0)
        assert len(g.nodes) == 1 and len(g.odometry_edges) == 0

    @pytest.mark.parametrize("cov,accepted", [
        ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], False),  # second pivot 0
        (np.diag([1.0, 1.0, -1e-300]), False),
        # pivots 1, 1 and 2^-52: the last one just above zero
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25 + 2.0**-52]], True),
        (np.diag([1.0, 1.0, 5e-324]), True),  # a subnormal last pivot
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 0.25]], False),  # on the boundary
    ], ids=["zero_pivot", "negative_pivot", "just_inside", "subnormal_pivot", "boundary"])
    def test_insert_check_is_choleskys_verdict(self, cov, accepted):
        """add_odometry's check on Python floats accepts and rejects what
        np.linalg.cholesky does."""
        try:
            np.linalg.cholesky(np.array(cov))
            assert accepted
        except np.linalg.LinAlgError:
            assert not accepted
        g = PoseGraph()
        if accepted:
            g.add_odometry(PoseSE2(0.1, 0, 0), cov, stamp=1.0)
        else:
            with pytest.raises(np.linalg.LinAlgError):
                g.add_odometry(PoseSE2(0.1, 0, 0), cov, stamp=1.0)
        assert len(g.nodes) == 1 + accepted

    @pytest.mark.parametrize("row,col", [(1, 1), (2, 0)])
    def test_nan_covariance_rejected(self, row, col):
        """A NaN pivot is not positive. np.linalg.cholesky passes it on
        OpenBLAS, whose factorization returns NaN without an error, so the
        check is made on the pivots themselves."""
        cov = np.eye(3)
        cov[row, col] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            PoseGraph().add_odometry(PoseSE2(0.1, 0, 0), cov, stamp=1.0)

    @pytest.mark.parametrize("cov", [
        [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # NaN above the diagonal
        [[1.0, 5.0, 5.0], [0.0, 1.0, 5.0], [0.0, 0.0, 1.0]],  # asymmetric, identity below
    ], ids=["nan_upper", "asymmetric"])
    def test_upper_triangle_checked(self, cov):
        """The solve inverts the whole matrix, so the insert check reads all
        of it: a lower triangle that passes Cholesky does not let a NaN or an
        asymmetric upper triangle in."""
        g = PoseGraph()
        with pytest.raises(np.linalg.LinAlgError):
            g.add_odometry(PoseSE2(0.1, 0, 0), cov, stamp=1.0)
        assert len(g.nodes) == 1 and len(g.odometry_edges) == 0

    def test_non_increasing_stamp_rejected(self):
        g = PoseGraph()
        g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0)
        with pytest.raises(ValueError):
            g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0)

    def test_nearest_node_and_mismatch_warning(self):
        g = PoseGraph()
        for i in range(5):
            g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0 * (i + 1))
        assert g.nearest_node(3.04) == 3
        assert g.stamp_mismatch_warnings == 0
        g.nearest_node(9.0)
        assert g.stamp_mismatch_warnings == 1


class TestOptimize:
    def test_gauge_free_without_unary(self):
        g = PoseGraph()
        g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0)
        with pytest.raises(GaugeFree):
            g.optimize()

    def test_perfect_chain_unchanged(self):
        truth = [PoseSE2(0.5 * i, 0.1 * i, 0.05 * i) for i in range(8)]
        g = PoseGraph(truth[0])
        for a, b in zip(truth, truth[1:]):
            g.add_odometry(a.inverse().compose(b), SMALL_COV,
                           stamp=truth.index(b) * 1.0)
        g.add_camera_estimate(0, unary(truth[0]))
        g.add_camera_estimate(7, unary(truth[7]))
        g.optimize()
        for node, t in zip(g.nodes, truth):
            assert math.hypot(node.pose.x - t.x, node.pose.y - t.y) < 1e-8
            assert abs(angle_diff(node.pose.theta, t.theta)) < 1e-8
        assert g.objective() < 1e-10

    def test_matches_closed_form_two_node_optimum(self):
        # one odometry edge along x plus unaries on both nodes; y/theta stay
        # zero, so the x components must match the scalar weighted optimum
        info_odo, info_a, info_b = 1.0, 1.0, 1.0
        delta, a_meas, b_meas = 1.0, 0.0, 2.0
        g = PoseGraph(PoseSE2(0.0, 0.0, 0.0))
        g.add_odometry(PoseSE2(delta, 0, 0), np.diag([1.0, 1e-9, 1e-9]), stamp=1.0)
        g.add_camera_estimate(0, unary(PoseSE2(a_meas, 0, 0), sigma=1.0))
        g.add_camera_estimate(1, unary(PoseSE2(b_meas, 0, 0), sigma=1.0))
        g.optimize()
        xa, xb = two_node_unary_optimum(delta, info_odo, a_meas, b_meas, info_a, info_b)
        assert g.nodes[0].pose.x == pytest.approx(xa, abs=1e-6)
        assert g.nodes[1].pose.x == pytest.approx(xb, abs=1e-6)
        assert abs(g.nodes[0].pose.y) < 1e-6 and abs(g.nodes[1].pose.theta) < 1e-6

    def test_information_scaling_leaves_argmin_unchanged(self):
        rng = np.random.default_rng(4)

        def build(scale):
            g = PoseGraph()
            pose = PoseSE2()
            rng2 = np.random.default_rng(4)
            for i in range(10):
                d = PoseSE2(0.3 + rng2.normal(0, 0.02), rng2.normal(0, 0.02),
                            rng2.normal(0, 0.02))
                g.add_odometry(d, np.diag([1e-3] * 3) / scale, stamp=i + 1.0)
            g.add_camera_estimate(0, unary(PoseSE2(0, 0, 0), sigma=0.05 / math.sqrt(scale)))
            g.add_camera_estimate(10, unary(PoseSE2(3.0, 0, 0), sigma=0.05 / math.sqrt(scale)))
            g.optimize()
            return np.array([n.pose.as_array() for n in g.nodes])

        a, b = build(1.0), build(7.0)
        assert np.abs(a - b).max() < 1e-6

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(8)
        g = PoseGraph()
        for i in range(30):
            d = PoseSE2(0.3 + rng.normal(0, 0.05), rng.normal(0, 0.05),
                        rng.normal(0, 0.05))
            g.add_odometry(d, np.diag([2.5e-3, 2.5e-3, 2.5e-3]), stamp=i + 1.0)
        for nid in (0, 10, 20, 30):
            g.add_camera_estimate(nid, unary(PoseSE2(0.3 * nid, 0, 0), sigma=0.02))
        before = g.objective()
        g.optimize()
        assert g.objective() <= before + 1e-12

    def test_nan_odometry_raises_solver_diverged(self):
        g = PoseGraph()
        g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0)
        g.add_odometry(PoseSE2(math.nan, 0, 0), SMALL_COV, stamp=2.0)
        g.add_camera_estimate(0, unary(PoseSE2()))
        with pytest.raises(SolverDiverged):
            g.optimize()

    def test_fusion_beats_raw_odometry(self):
        # drifting chain with periodic absolute fixes: optimized trajectory
        # must have lower RMSE than dead reckoning, on average over seeds
        odo_rmse, fused_rmse = [], []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            truth, pose = [PoseSE2()], PoseSE2()
            g = PoseGraph()
            odo_pose, odo_traj = PoseSE2(), [PoseSE2()]
            for i in range(60):
                d = PoseSE2(0.1, 0, 0)
                truth.append(truth[-1].compose(d))
                noisy = PoseSE2(d.x + rng.normal(0, 0.01), rng.normal(0, 0.01),
                                rng.normal(0, 0.005))
                odo_pose = odo_pose.compose(noisy)
                odo_traj.append(odo_pose)
                nid = g.add_odometry(noisy, np.diag([1e-4, 1e-4, 2.5e-5]),
                                     stamp=i + 1.0)
                if nid % 10 == 0:
                    t = truth[-1]
                    g.add_camera_estimate(nid, unary(
                        PoseSE2(t.x + rng.normal(0, 0.01), t.y + rng.normal(0, 0.01),
                                t.theta + rng.normal(0, 0.005)), sigma=0.01))
            g.optimize()
            fused = [n.pose for n in g.nodes]
            odo_rmse.append(math.sqrt(np.mean(
                [(a.x - b.x) ** 2 + (a.y - b.y) ** 2 for a, b in zip(odo_traj, truth)])))
            fused_rmse.append(math.sqrt(np.mean(
                [(a.x - b.x) ** 2 + (a.y - b.y) ** 2 for a, b in zip(fused, truth)])))
        assert np.mean(fused_rmse) < np.mean(odo_rmse)


def drifting_chain(seed, n=120, fix_every=10):
    """Noisy odometry deltas along x and noisy absolute fixes at every
    ``fix_every``-th node, as (node id, delta, fix or None) steps."""
    rng = np.random.default_rng(seed)
    truth, steps = PoseSE2(), []
    for nid in range(1, n + 1):
        d = PoseSE2(0.1, 0.0, 0.02)
        truth = truth.compose(d)
        noisy = PoseSE2(d.x + rng.normal(0, 0.01), rng.normal(0, 0.01),
                        d.theta + rng.normal(0, 0.005))
        fix = None
        if nid % fix_every == 0:
            fix = unary(PoseSE2(truth.x + rng.normal(0, 0.01), truth.y + rng.normal(0, 0.01),
                                truth.theta + rng.normal(0, 0.005)), sigma=0.01)
        steps.append((nid, noisy, fix))
    return steps


def build_chain(steps, solve_each_fix=False):
    g = PoseGraph()
    for nid, delta, fix in steps:
        g.add_odometry(delta, np.diag([1e-4, 1e-4, 2.5e-5]), stamp=float(nid))
        if fix is not None:
            g.add_camera_estimate(nid, fix)
            if solve_each_fix:
                g.optimize()
    return g


def pose_rows(g):
    return np.array([n.pose.as_array() for n in g.nodes])


def random_covariance(rng):
    """A full 3x3 covariance with random axes and standard deviations from
    1 mm (1 mrad) to 1 m (1 rad)."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(10.0 ** rng.uniform(-6, 0, 3)) @ q.T


class TestInformationFrames:
    """A residual is written in the frame its information is written in:
    unary residuals in the world frame of the estimate's covariance."""

    def test_world_frame_covariances_at_a_quarter_turn(self):
        # one fix precise in world x, the other precise in world y: their
        # fusion takes x from the first and y from the second at any heading
        heading = math.pi / 2
        g = PoseGraph(PoseSE2(0.0, 0.0, heading))
        for pose, cov in ((PoseSE2(1.0, 0.0, heading), np.diag([1e-6, 1.0, 1e-4])),
                          (PoseSE2(0.0, 1.0, heading), np.diag([1.0, 1e-6, 1e-4]))):
            g.add_camera_estimate(0, PoseEstimate(pose, cov, rms_residual=1.0, n_cameras=2,
                                                  n_keypoints=8, stamp=0.0))
        g.optimize()
        assert g.nodes[0].pose.x == pytest.approx(1.0, abs=1e-3)
        assert g.nodes[0].pose.y == pytest.approx(1.0, abs=1e-3)

    def test_one_node_graph_is_the_average(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(500):
            center = PoseSE2(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
            ests = []
            for k in range(rng.integers(1, 6)):
                cov = random_covariance(rng)
                pose = PoseSE2(*(center.as_array() + rng.multivariate_normal(np.zeros(3), cov)))
                ests.append(PoseEstimate(pose, cov, rms_residual=1.0, n_cameras=2,
                                         n_keypoints=8, stamp=0.1 * k))
            avg = average_estimates(ests).pose
            g = PoseGraph(ests[0].pose)
            for e in ests:
                g.add_camera_estimate(0, e)
            g.optimize()
            got = g.nodes[0].pose
            worst = max(worst, abs(got.x - avg.x), abs(got.y - avg.y),
                        abs(angle_diff(got.theta, avg.theta)))
        assert worst < 1e-8


class TestSolveSchedule:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_final_solve_matches_solving_after_every_fix(self, seed):
        steps = drifting_chain(seed)
        each, once = build_chain(steps, solve_each_fix=True), build_chain(steps)
        each.optimize()
        once.optimize()
        a, b = pose_rows(each), pose_rows(once)
        assert np.abs(a[:, :2] - b[:, :2]).max() < 1e-8
        assert max(abs(angle_diff(x, y)) for x, y in zip(a[:, 2], b[:, 2])) < 1e-8


class TestOneLMLoop:
    """optimize runs the loop it shares with the pose solve; it matches its
    own loop from before the sharing, oracles.reference_graph_optimize, bit
    for bit."""

    @staticmethod
    def _both(steps):
        return build_chain(steps), build_chain(steps)

    @pytest.mark.parametrize("cap", [None, 1, 25, 500])
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_and_windows(self, seed, cap):
        """Batch solves run to convergence (cap None) or stopped after
        ``cap`` linearizations."""
        config = None if cap is None else SolverConfig(max_iterations=cap)
        got, want = self._both(drifting_chain(seed))
        got.optimize(config)
        oracles.reference_graph_optimize(want, config)
        assert pose_rows(got).tobytes() == pose_rows(want).tobytes()

    def test_warm_started_windows(self):
        """Repeated batch solves as fixes arrive, mostly capped at two
        linearizations, each from where the last one stopped."""
        got, want = PoseGraph(), PoseGraph()
        capped = SolverConfig(max_iterations=2)
        for nid, delta, fix in drifting_chain(5):
            for g in (got, want):
                g.add_odometry(delta, np.diag([1e-4, 1e-4, 2.5e-5]), stamp=float(nid))
                if fix is not None:
                    g.add_camera_estimate(nid, fix)
            if fix is not None:
                config = capped if nid % 20 else None
                got.optimize(config)
                oracles.reference_graph_optimize(want, config)
                assert pose_rows(got).tobytes() == pose_rows(want).tobytes()

    def test_nan_odometry(self):
        got, want = PoseGraph(), PoseGraph()
        for g in (got, want):
            g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=1.0)
            g.add_odometry(PoseSE2(math.nan, 0, 0), SMALL_COV, stamp=2.0)
            g.add_camera_estimate(0, unary(PoseSE2()))
        with pytest.raises(SolverDiverged) as raised:
            got.optimize()
        with pytest.raises(SolverDiverged) as expected:
            oracles.reference_graph_optimize(want)
        assert str(raised.value) == str(expected.value)
        assert pose_rows(got).tobytes() == pose_rows(want).tobytes()


class TestNormalEquations:
    """The packed band and gradient against J^T W J and J^T W r, with J
    taken by central differences of the stacked edge residuals."""

    @staticmethod
    def chain(seed):
        rng = np.random.default_rng(6)
        g = PoseGraph()
        for i in range(7):
            d = PoseSE2(0.4 + rng.normal(0, 0.05), rng.normal(0, 0.05), 0.3 + rng.normal(0, 0.1))
            g.add_odometry(d, np.diag([1e-2, 2e-2, 5e-3]), stamp=i + 1.0)
        for nid in (1, 5, 5):
            g.add_camera_estimate(nid, unary(PoseSE2(*rng.normal(0, 1.0, 3)), sigma=0.2))
        # an anisotropic covariance turned off the axes, at a heading far from 0
        g.add_camera_estimate(3, PoseEstimate(PoseSE2(1.0, 0.5, 2.0), random_covariance(rng),
                                              rms_residual=1.0, n_cameras=1, n_keypoints=8,
                                              stamp=3.0))
        # move the poses off the odometry so that every residual is nonzero
        noise = np.random.default_rng(seed).normal(0, 0.05, (len(g.nodes), 3))
        g.nodes = [Node(n.id, n.stamp, PoseSE2(*(n.pose.as_array() + e)))
                   for n, e in zip(g.nodes, noise)]
        return g

    @pytest.mark.parametrize("seed", [0, 3])
    def test_band_and_gradient_match_finite_differences(self, seed):
        g = self.chain(seed)
        arrays = g._edge_arrays()
        od, o_info, ui, um, u_info = arrays
        poses = pose_rows(g)
        band, grad = g._normal_equations(poses, arrays, g._residuals(poses, od, ui, um))

        def stacked(params):
            return np.concatenate(g._residuals(params.reshape(-1, 3), od, ui, um)).ravel()

        jac = central_difference_jacobian(stacked, poses.ravel())
        w = scipy.linalg.block_diag(*o_info, *u_info)
        hess = jac.T @ w @ jac
        expected_grad = jac.T @ w @ stacked(poses.ravel())
        n = len(hess)
        expected = np.zeros((6, n))
        for j in range(n):
            for i in range(max(j - 5, 0), j + 1):
                expected[5 + i - j, j] = hess[i, j]
        scale = np.abs(hess).max()
        assert len(grad) == n == 3 * len(g.nodes)
        assert np.abs(band - expected).max() < 1e-8 * scale
        assert np.abs(grad - expected_grad).max() < 1e-8 * np.abs(expected_grad).max()
        # the chain couples only neighbouring nodes: nothing outside the band
        assert np.abs(np.triu(hess, 6)).max() < 1e-8 * scale


class TestFeedback:
    def test_feedback_only_while_static(self, scenario_dir, monkeypatch):
        """Feedback keeps the robot's belief at the fused pose of the newest
        node, and moves it only while the robot stands still: on
        long_feedback, the robot row at the last fix of each dwell lies
        within 1e-4 m and 1e-3 rad of the batch solve of the graph cut at
        that fix's node, and with feedback on and off every step into a
        moving sample is the same odometry increment."""
        path = scenario_dir / "long_feedback.json"
        off = run_pipeline(load_config(path, {"seed": 7, "feedback": "false"}))
        calls = []  # the graph's edges, as (method, args, kwargs) in the order added
        original = {name: getattr(PoseGraph, name)
                    for name in ("add_odometry", "add_camera_estimate")}
        for name, method in original.items():
            def logged(self, *args, _method=method, **kwargs):
                calls.append((_method, args, kwargs))
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(PoseGraph, name, logged)
        on = run_pipeline(load_config(path, {"seed": 7}))
        monkeypatch.undo()
        n_fixes = sum(method is original["add_camera_estimate"] for method, _, _ in calls)
        assert 0 < on.counters["feedback_applications"] == n_fixes

        samples = script_trajectory(load_config(path).trajectory)
        dwell = {}  # sample stamp -> ordinal of its dwell
        for n, (_, run) in enumerate(itertools.groupby(samples, key=_dwell)):
            dwell.update((s.stamp, n) for s in run if s.is_static)
        p_on, p_off = on.mode_trajectories["robot"].poses, off.mode_trajectories["robot"].poses
        assert len(p_on) == len(p_off) == len(samples)
        row = dict(zip(on.mode_trajectories["robot"].stamps.tolist(), p_on))

        # replay the edges, cutting the graph at the last fix of each dwell
        stamps = [samples[0].stamp] + [kwargs["stamp"] for method, _, kwargs in calls
                                       if method is original["add_odometry"]]
        last = {dwell[stamps[args[0]]]: k for k, (method, args, _) in enumerate(calls)
                if method is original["add_camera_estimate"]}  # dwell -> index in calls
        assert len(last) > 10
        graph = PoseGraph(samples[0].pose, initial_stamp=samples[0].stamp)
        for k, (method, args, kwargs) in enumerate(calls):
            method(graph, *args, **kwargs)
            if k in last.values():
                cut = copy.deepcopy(graph)
                cut.optimize()
                node = cut.nodes[args[0]]
                assert node.id == len(cut.nodes) - 1  # the fix's node is the newest
                got = row[node.stamp]
                assert math.hypot(got.x - node.pose.x, got.y - node.pose.y) < 1e-4, node.stamp
                assert abs(angle_diff(got.theta, node.pose.theta)) < 1e-3, node.stamp

        gaps = {True: [], False: []}  # by is_static of the step's second sample
        for i in range(1, len(samples)):
            a = p_on[i - 1].inverse().compose(p_on[i])
            b = p_off[i - 1].inverse().compose(p_off[i])
            gap = max(abs(a.x - b.x), abs(a.y - b.y), abs(angle_diff(a.theta, b.theta)))
            gaps[samples[i].is_static].append(gap)
        assert max(gaps[False]) < 1e-9
        assert max(gaps[True]) > 1e-3  # the feedback did move the belief

        # Feedback moves only the robot's belief: no solve reads it, so every
        # estimate track and solve counter is bit-identical.
        for mode in ("raw", "gated_1frame", "averaged_5frames"):
            a, b = on.mode_trajectories[mode], off.mode_trajectories[mode]
            assert len(a) > 0 and a.stamps.tobytes() == b.stamps.tobytes(), mode
            assert (np.array([p.as_array() for p in a.poses]).tobytes()
                    == np.array([p.as_array() for p in b.poses]).tobytes()), mode
        for key in ("solver_iterations", "skipped_framesets", "gated_estimates"):
            assert on.counters[key] == off.counters[key], key


class TestFeedbackFilter:
    """The filter that carries the robot's belief between fixes: _predict
    for each odometry edge, information_mean for each fix."""

    def test_predict_uses_the_jacobians_of_compose(self):
        # F and G by central differences of PoseSE2.compose, away from the
        # heading wrap
        rng = np.random.default_rng(23)
        for _ in range(50):
            pose = PoseSE2(*rng.uniform(-5, 5, 2), rng.uniform(-2.5, 2.5))
            delta = PoseSE2(*rng.normal(0, 0.3, 2), rng.uniform(-0.3, 0.3))
            f = central_difference_jacobian(
                lambda p: PoseSE2(*p).compose(delta).as_array(), pose.as_array())
            g = central_difference_jacobian(
                lambda d: pose.compose(PoseSE2(*d)).as_array(), delta.as_array())
            cov, delta_cov = random_covariance(rng), random_covariance(rng)
            zero = np.zeros((3, 3))
            for p, q, want in ((cov, zero, f @ cov @ f.T),
                               (zero, delta_cov, g @ delta_cov @ g.T)):
                got = _predict(p, pose.compose(delta), delta, q)
                assert np.abs(got - want).max() < 1e-6 * max(np.abs(want).max(), 1.0)

    def test_filter_is_the_batch_solve_on_a_straight_chain(self):
        """Driving along x at heading 0 with fixes at y = theta = 0, the
        graph's optimum keeps y = theta = 0 and is linear in x: after every
        fix, the filter's pose is the batch solve's newest node."""
        rng = np.random.default_rng(29)
        graph = PoseGraph()
        pose, cov, worst, n_fixes = PoseSE2(), None, 0.0, 0
        for nid in range(1, 121):
            delta = PoseSE2(0.1 + rng.normal(0, 0.01), 0.0, 0.0)
            delta_cov = np.diag([rng.uniform(0.5, 2.0) * 1e-4, 1e-4, 2.5e-5])
            graph.add_odometry(delta, delta_cov, stamp=float(nid))
            pose = pose.compose(delta)
            if cov is not None:
                cov = _predict(cov, pose, delta, delta_cov)
            if nid % 7:
                continue
            fix = PoseEstimate(PoseSE2(0.1 * nid + rng.normal(0, 0.02), 0.0, 0.0),
                               np.diag([rng.uniform(1, 9) * 1e-4, 4e-4, 1e-4]),
                               rms_residual=1.0, n_cameras=2, n_keypoints=8, stamp=float(nid))
            graph.add_camera_estimate(nid, fix)
            pose, cov = ((fix.pose, fix.covariance) if cov is None
                         else information_mean([pose, fix.pose], [cov, fix.covariance]))
            graph.optimize()
            newest = graph.nodes[-1].pose
            worst = max(worst, abs(newest.x - pose.x), abs(newest.y - pose.y),
                        abs(angle_diff(newest.theta, pose.theta)))
            n_fixes += 1
        assert n_fixes == 17
        assert worst < 1e-9


def test_relocalization_imports_no_scipy(scenario_dir):
    """Only PoseGraph.optimize needs scipy, whose import costs about 0.3 s
    and 28 MB; importing camloc and relocalizing must not load it."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", RELOCALIZE_SCRIPT, str(scenario_dir / "traj1.json")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
