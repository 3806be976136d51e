import math

import numpy as np
import pytest

from camloc.errors import EmptyWindow, InsufficientOverlap
from camloc.evaluation import (
    Trajectory,
    error_over_distance,
    match_stamps,
    procrustes_align,
    translation_rmse,
    waypoint_errors,
)
from camloc.geometry import PoseSE2, angle_diff


def make_traj(points, t0=0.0, dt=0.1):
    stamps = np.arange(len(points)) * dt + t0
    return Trajectory(stamps, [PoseSE2(x, y, th) for x, y, th in points])


def random_traj(rng, n=40):
    pts = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 8)),
            float(rng.uniform(-math.pi, math.pi))) for _ in range(n)]
    return make_traj(pts)


class TestTrajectory:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), [PoseSE2()])

    def test_non_increasing_stamps_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), [PoseSE2(), PoseSE2()])

    def test_from_samples_sorts(self):
        traj = Trajectory.from_samples([(1.0, PoseSE2(1, 0, 0)), (0.0, PoseSE2())])
        assert traj.stamps[0] == 0.0
        assert traj.poses[1].x == 1.0


class TestMatchStamps:
    def test_within_tolerance_only(self):
        a = make_traj([(0, 0, 0), (1, 0, 0)], dt=1.0)
        b = Trajectory(np.array([0.03, 0.8]), [PoseSE2(), PoseSE2()])
        pairs = match_stamps(a, b, tol=0.05)
        assert pairs == [(0, 0)]

    def test_empty_inputs(self):
        a = make_traj([(0, 0, 0)])
        empty = Trajectory(np.array([]), [])
        assert match_stamps(a, empty) == []
        assert match_stamps(empty, a) == []


class TestProcrustesAlign:
    def test_identity_recovery(self):
        rng = np.random.default_rng(0)
        traj = random_traj(rng)
        aligned, transform = procrustes_align(traj, traj)
        assert abs(transform.x) < 1e-9 and abs(transform.y) < 1e-9
        assert abs(transform.theta) < 1e-9
        assert translation_rmse(aligned, traj) < 1e-9

    def test_known_transform_recovered(self):
        rng = np.random.default_rng(1)
        ref = random_traj(rng)
        offset = PoseSE2(1.0, 2.0, math.radians(30))
        est = Trajectory(ref.stamps.copy(),
                         [offset.inverse().compose(p) for p in ref.poses])
        aligned, transform = procrustes_align(est, ref)
        assert transform.x == pytest.approx(1.0, abs=1e-9)
        assert transform.y == pytest.approx(2.0, abs=1e-9)
        assert abs(angle_diff(transform.theta, math.radians(30))) < 1e-9
        assert translation_rmse(aligned, ref) < 1e-9

    def test_beats_random_search_oracle(self):
        # closed-form alignment must never lose to 10,000 random transforms
        rng = np.random.default_rng(2)
        ref = random_traj(rng, n=25)
        noisy = Trajectory(ref.stamps.copy(), [
            PoseSE2(p.x + rng.normal(0, 0.05), p.y + rng.normal(0, 0.05), p.theta)
            for p in ref.poses])
        aligned, _ = procrustes_align(noisy, ref)
        best = translation_rmse(aligned, ref)
        pos = noisy.positions()
        ref_pos = ref.positions()
        thetas = rng.uniform(-math.pi, math.pi, 10000)
        txs = rng.uniform(-1, 1, 10000)
        tys = rng.uniform(-1, 1, 10000)
        for th, tx, ty in zip(thetas, txs, tys):
            c, s = math.cos(th), math.sin(th)
            moved = pos @ np.array([[c, s], [-s, c]]) + [tx, ty]
            rmse = math.sqrt(np.mean(np.sum((moved - ref_pos) ** 2, axis=1)))
            assert best <= rmse + 1e-12

    def test_insufficient_overlap(self):
        a = make_traj([(0, 0, 0)])
        b = make_traj([(0, 0, 0)], t0=10.0)
        with pytest.raises(InsufficientOverlap):
            procrustes_align(a, b)

    def test_aligned_poses_are_the_per_pose_compose(self):
        """The vectorized compose has the bits of transform.compose(p)."""
        rng = np.random.default_rng(3)
        ref = random_traj(rng, n=2000)
        est = Trajectory(ref.stamps.copy(), [
            PoseSE2(p.x + rng.normal(0, 0.3), p.y + rng.normal(0, 0.3), p.theta + 3.0)
            for p in ref.poses])
        aligned, transform = procrustes_align(est, ref)
        assert aligned.stamps.tobytes() == est.stamps.tobytes()
        assert aligned.poses == [transform.compose(p) for p in est.poses]


class TestTranslationRmse:
    def test_constant_offsets(self):
        ref = make_traj([(0, 0, 0), (1, 0, 0)])
        est = Trajectory(ref.stamps.copy(), [PoseSE2(0.03, 0, 0), PoseSE2(1.0, 0.04, 0)])
        # errors of 3 cm and 4 cm -> rmse sqrt((9+16)/2) cm
        assert translation_rmse(est, ref) == pytest.approx(math.sqrt(12.5e-4))

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        ref = random_traj(rng, n=10)
        est = Trajectory(ref.stamps.copy(), [
            PoseSE2(p.x + rng.normal(0, 0.1), p.y + rng.normal(0, 0.1), p.theta)
            for p in ref.poses])
        forward = translation_rmse(est, ref)
        assert translation_rmse(ref, est) == pytest.approx(forward)

    def test_zero_on_identical(self):
        traj = random_traj(np.random.default_rng(4))
        assert translation_rmse(traj, traj) == 0.0


class TestWaypointErrors:
    def _setup(self):
        ref = make_traj([(0, 0, 0)] * 5 + [(1, 0, 0)] * 5, dt=0.1)
        windows = [(1, 0.0, 0.4), (2, 0.5, 0.9)]
        return ref, windows

    def test_perfect_estimates_zero_error(self):
        ref, windows = self._setup()
        stats = waypoint_errors({"raw": ref}, ref, windows, {1: 2, 2: 4})
        assert len(stats) == 2
        for s in stats:
            assert s.translation_mean == 0.0
            assert s.orientation_mean == 0.0
            assert s.n_samples == 5
        assert {s.n_cameras for s in stats} == {2, 4}

    def test_constructed_offset(self):
        ref, windows = self._setup()
        est = Trajectory(ref.stamps.copy(),
                         [PoseSE2(p.x + 0.02, p.y, p.theta + 0.01) for p in ref.poses])
        stats = waypoint_errors({"raw": est}, ref, windows, {1: 2, 2: 4})
        for s in stats:
            assert s.translation_mean == pytest.approx(0.02)
            assert s.translation_std == pytest.approx(0.0, abs=1e-12)
            assert s.orientation_mean == pytest.approx(0.01)

    def test_empty_window_rejected(self):
        ref, _ = self._setup()
        with pytest.raises(EmptyWindow):
            waypoint_errors({"raw": ref}, ref, [(1, 5.0, 6.0)], {})

    def test_mode_without_coverage_skipped(self):
        ref, windows = self._setup()
        sparse = Trajectory(np.array([0.0]), [PoseSE2()])
        stats = waypoint_errors({"raw": sparse}, ref, windows, {})
        assert [s.waypoint_id for s in stats] == [1]


class TestErrorOverDistance:
    def test_distance_and_error_columns(self):
        ref = make_traj([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        est = Trajectory(ref.stamps.copy(),
                         [PoseSE2(p.x, p.y + 0.1, p.theta) for p in ref.poses])
        rows = error_over_distance(est, ref)
        assert [d for _, d, _ in rows] == pytest.approx([0.0, 1.0, 2.0])
        assert [e for _, _, e in rows] == pytest.approx([0.1, 0.1, 0.1])

    def test_no_overlap_rejected(self):
        a = make_traj([(0, 0, 0)])
        b = make_traj([(0, 0, 0)], t0=5.0)
        with pytest.raises(InsufficientOverlap):
            error_over_distance(a, b)

    def test_rows_are_the_per_pair_norms(self):
        """The vectorized rows have the bits of one np.linalg.norm per
        matched pair, on a stream with unmatched samples on both sides."""
        rng = np.random.default_rng(4)
        full = random_traj(rng, n=3000)

        def subset(share, offset, noise):
            keep = (rng.random(len(full)) < share).nonzero()[0]
            return Trajectory(full.stamps[keep] + offset, [
                PoseSE2(full.poses[k].x + rng.normal(0, noise),
                        full.poses[k].y + rng.normal(0, noise), 0.0) for k in keep])

        # an estimate 20 ms after a sample the reference lacks is 80 ms
        # from the nearest one, so it stays unmatched
        ref, est = subset(0.9, 0.0, 0.0), subset(0.8, 0.02, 0.2)
        pairs = match_stamps(est, ref)
        assert 0 < len(pairs) < min(len(est), len(ref))
        ref_pos, pos = ref.positions(), est.positions()
        cumdist = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(ref_pos, axis=0),
                                                                  axis=1))])
        want = [(float(est.stamps[ia]), float(cumdist[ib]),
                 float(np.linalg.norm(pos[ia] - ref_pos[ib]))) for ia, ib in pairs]
        assert error_over_distance(est, ref) == want
