import math

import numpy as np
import pytest
import scipy.linalg

from camloc.errors import GaugeFree, SolverDiverged, UnknownNode
from camloc.estimation import PoseEstimate
from camloc.geometry import PoseSE2, angle_diff
from camloc.pipeline import run_pipeline
from camloc.posegraph import PoseGraph
from camloc.scenario import load_config
from camloc.simulation import script_trajectory

from oracles import central_difference_jacobian, two_node_unary_optimum

SMALL_COV = np.diag([1e-4, 1e-4, 1e-4])


def unary(pose, sigma=0.01, stamp=0.0):
    return PoseEstimate(pose=pose, covariance=np.diag([sigma**2] * 3),
                        rms_residual=1.0, n_cameras=2, n_keypoints=8, stamp=stamp)


class TestGraphConstruction:
    def test_anchor_node_created_lazily(self):
        g = PoseGraph(PoseSE2(1.0, 2.0, 0.5), initial_stamp=10.0)
        assert g.nodes == []
        nid = g.add_odometry(PoseSE2(0.1, 0, 0), SMALL_COV, stamp=10.1)
        assert nid == 1
        assert g.nodes[0].pose == PoseSE2(1.0, 2.0, 0.5)
        assert g.nodes[0].stamp == 10.0

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

    def test_lag_covering_the_graph_is_the_batch_solve(self):
        steps = drifting_chain(1)
        batch = build_chain(steps)
        batch.optimize()
        n = len(batch.nodes)
        for lag in (n, n + 7):
            windowed = build_chain(steps)
            windowed.optimize(lag=lag)
            assert np.array_equal(pose_rows(windowed), pose_rows(batch))

    def test_window_leaves_older_nodes_unchanged(self):
        g = build_chain(drifting_chain(2))
        before = pose_rows(g)
        lag = 25
        g.optimize(lag=lag)
        after = pose_rows(g)
        assert np.array_equal(after[:-lag], before[:-lag])
        assert not np.array_equal(after[-lag:], before[-lag:])

    def test_window_ignores_constraints_among_fixed_nodes(self):
        steps = drifting_chain(3)
        plain, extra = build_chain(steps), build_chain(steps)
        extra.add_camera_estimate(5, unary(PoseSE2(9.0, 9.0, 1.0)))
        plain.optimize(lag=30)
        extra.optimize(lag=30)
        assert np.array_equal(pose_rows(plain), pose_rows(extra))

    def test_window_reaches_the_batch_optimum_near_the_head(self):
        # with the older nodes already at the batch optimum, the window has
        # nothing left to move
        g = build_chain(drifting_chain(4))
        g.optimize()
        settled = pose_rows(g)
        g.optimize(lag=40)
        assert np.abs(pose_rows(g) - settled).max() < 1e-8

    def test_non_positive_lag_rejected(self):
        g = build_chain(drifting_chain(0, n=20))
        with pytest.raises(ValueError):
            g.optimize(lag=0)


class TestNormalEquations:
    """The packed band and gradient against J^T W J and J^T W r, with J
    taken by central differences of the stacked edge residuals."""

    @staticmethod
    def chain():
        rng = np.random.default_rng(6)
        g = PoseGraph()
        for i in range(7):
            d = PoseSE2(0.4 + rng.normal(0, 0.05), rng.normal(0, 0.05), 0.3 + rng.normal(0, 0.1))
            g.add_odometry(d, np.diag([1e-2, 2e-2, 5e-3]), stamp=i + 1.0)
        for nid in (1, 5, 5):
            g.add_camera_estimate(nid, unary(PoseSE2(*rng.normal(0, 1.0, 3)), sigma=0.2))
        # move the poses off the odometry so that every residual is nonzero
        g._poses.view[:] += rng.normal(0, 0.05, (len(g.nodes), 3))
        return g

    @pytest.mark.parametrize("first", [0, 3])
    def test_band_and_gradient_match_finite_differences(self, first):
        g = self.chain()
        arrays, base = g._edge_arrays(first)
        fixed = first - base
        od, o_info, ui, um, u_info = arrays
        poses = g._poses.view[base:].copy()
        band, grad = g._normal_equations(poses, arrays, fixed, g._residuals(poses, od, ui, um))

        def stacked(params):
            return np.concatenate(g._residuals(params.reshape(-1, 3), od, ui, um)).ravel()

        jac = central_difference_jacobian(stacked, poses.ravel())[:, 3 * fixed:]
        w = scipy.linalg.block_diag(*o_info, *u_info)
        hess = jac.T @ w @ jac
        expected_grad = jac.T @ w @ stacked(poses.ravel())
        n = len(hess)
        expected = np.zeros((6, n))
        for j in range(n):
            for i in range(max(j - 5, 0), j + 1):
                expected[5 + i - j, j] = hess[i, j]
        scale = np.abs(hess).max()
        assert len(grad) == n == 3 * (len(g.nodes) - first)
        assert np.abs(band - expected).max() < 1e-8 * scale
        assert np.abs(grad - expected_grad).max() < 1e-8 * np.abs(expected_grad).max()
        # the chain couples only neighbouring nodes: nothing outside the band
        assert np.abs(np.triu(hess, 6)).max() < 1e-8 * scale


class TestFeedback:
    def test_feedback_only_while_static(self, scenario_dir, monkeypatch):
        """Feedback resets the robot's belief only while it stands still: on
        long_feedback, with feedback on and off, every robot-track step that
        leaves a moving sample is the same odometry increment."""
        windowed = []
        optimize = PoseGraph.optimize

        def counted(self, config=None, lag=None):
            windowed.append(lag is not None)
            return optimize(self, config, lag)

        monkeypatch.setattr(PoseGraph, "optimize", counted)
        path = scenario_dir / "long_feedback.json"
        on = run_pipeline(load_config(path, {"seed": 7}))
        off = run_pipeline(load_config(path, {"seed": 7, "feedback": "false"}))
        assert 0 < on.counters["feedback_applications"] == sum(windowed)

        samples = script_trajectory(load_config(path).trajectory)
        p_on, p_off = on.mode_trajectories["robot"].poses, off.mode_trajectories["robot"].poses
        assert len(p_on) == len(p_off) == len(samples)
        # a sample's feedback lands after its track entry, so it shows in
        # the step that leaves the sample
        gaps = {True: [], False: []}  # by is_static of the step's first sample
        for i in range(len(samples) - 1):
            a = p_on[i].inverse().compose(p_on[i + 1])
            b = p_off[i].inverse().compose(p_off[i + 1])
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
