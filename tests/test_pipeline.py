"""Pass 2 of run_pipeline: the batched frame-set solves against the
prior-started loop they replaced (oracles.reference_solve_framesets)."""

import math

import numpy as np
import pytest

from camloc import estimation, pipeline
from camloc.geometry import PoseSE2, angle_diff
from camloc.scenario import load_config
from camloc.simulation import script_trajectory, simulate_odometry_step
from camloc.sync import nearest_stamp_index

import oracles


def _config(scenario_dir, name, seed):
    return load_config(scenario_dir / f"{name}.json",
                       {"seed": seed, "modes": ["raw", "gated_1frame"]})


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", ["traj1", "traj2", "traj3", "long_feedback"])
def test_matches_the_prior_started_route(scenario_dir, monkeypatch, name, seed):
    """Each solve starts from its own seed, not from the predicted pose, and
    still lands on the prior-started answer within 1e-5 m and rad, with the
    same skips, gate decisions and dropped detections."""
    config = _config(scenario_dir, name, seed)
    samples = script_trajectory(config.trajectory)
    messages = pipeline.simulate_detections(config, samples)
    batched = pipeline.run_pipeline(config, messages, samples)
    monkeypatch.setattr(pipeline, "_solve_framesets", oracles.reference_solve_framesets)
    reference = pipeline.run_pipeline(config, messages, samples)
    for mode in ("raw", "gated_1frame"):
        got, want = batched.mode_trajectories[mode], reference.mode_trajectories[mode]
        assert got.stamps.tobytes() == want.stamps.tobytes(), mode
        assert len(got) > 400
        for a, b in zip(got.poses, want.poses):
            assert math.hypot(a.x - b.x, a.y - b.y) < 1e-5, mode
            assert abs(angle_diff(a.theta, b.theta)) < 1e-5, mode
    for key in ("skipped_framesets", "gated_estimates", "rejected_detections"):
        assert batched.counters[key] == reference.counters[key], key


def _counting(monkeypatch, name, calls):
    original = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)


def test_the_batch_is_the_route(scenario_dir, monkeypatch):
    """After the first fix no frame-set is solved one at a time."""
    calls = {"solve_multiview": 0, "initialize_global": 0}
    for name in calls:
        _counting(monkeypatch, name, calls)
    result = pipeline.run_pipeline(load_config(scenario_dir / "traj1.json", {"seed": 7}))
    assert calls == {"solve_multiview": 0, "initialize_global": 1}
    assert len(result.mode_trajectories["raw"]) > 600


def test_singular_seed_is_solved_from_the_prediction(scenario_dir, monkeypatch):
    """A frame-set whose seed is singular (forced here: the sixth of the
    batch) gets solve_multiview's answer from the pose predicted from the
    last accepted one by the odometry since."""
    config = _config(scenario_dir, "traj1", 7)
    seeds, forced = estimation._algebraic_seeds, []

    def singular_sixth(*block):
        out, singular = seeds(*block)
        if not forced:
            forced.append(True)
            out[:, 5], singular[5] = np.nan, True
        return out, singular

    spied = []
    solve = pipeline.solve_multiview

    def spy(obs, init, solver_config=None):
        est = solve(obs, init, solver_config)
        spied.append((obs, init, est))
        return est

    monkeypatch.setattr(estimation, "_algebraic_seeds", singular_sixth)
    monkeypatch.setattr(pipeline, "solve_multiview", spy)
    samples = script_trajectory(config.trajectory)
    result = pipeline.run_pipeline(config, samples=samples)
    (obs, predicted, est), = spied

    raw, gated = result.mode_trajectories["raw"], result.mode_trajectories["gated_1frame"]
    k = int(np.flatnonzero(raw.stamps == obs.stamp)[0])
    assert k == 6  # the first fix, then the batch's first five
    assert raw.poses[k] == est.pose
    # the prediction: the last accepted pose moved by the odometry since
    rng = pipeline._odometry_rng(config.seed)
    steps = [simulate_odometry_step(a.pose.inverse().compose(b.pose), config.odometry_noise, rng)
             for a, b in zip(samples, samples[1:])]
    prev, now = nearest_stamp_index([s.stamp for s in samples], [gated.stamps[k - 1], obs.stamp])
    moved = PoseSE2()
    for step in steps[prev:now]:
        moved = moved.compose(step)
    assert predicted == gated.poses[k - 1].compose(moved)
    again = estimation.solve_multiview(obs, predicted, config.solver)
    assert (again.pose, again.n_iterations) == (est.pose, est.n_iterations)
    assert again.covariance.tobytes() == est.covariance.tobytes()
