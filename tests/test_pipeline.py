"""Pass 2 of run_pipeline: the batched frame-set solves against the
prior-started loop they replaced (oracles.reference_solve_framesets)."""

import math

import numpy as np
import pytest

from camloc import estimation, geometry, pipeline
from camloc.errors import NoEligibleCamera
from camloc.geometry import PoseSE2, angle_diff, flatten_observations
from camloc.scenario import load_config
from camloc.simulation import script_trajectory, simulate_odometry_step
from camloc.sync import DetectionMessage, Synchronizer, nearest_stamp_index

import oracles


def _config(scenario_dir, name, seed):
    return load_config(scenario_dir / f"{name}.json",
                       {"seed": seed, "modes": ["raw", "gated_1frame"]})


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", ["traj1", "traj2", "traj3", "long_feedback"])
def test_matches_the_prior_started_route(scenario_dir, monkeypatch, name, seed):
    """Each solve starts from its own seed, not from the predicted pose, and
    still lands on the prior-started answer within 1e-5 m and rad, with the
    same skips, gate decisions and dropped detections. The first fix, a row
    of the batch, is initialize_global of its frame-set bit for bit."""
    config = _config(scenario_dir, name, seed)
    samples = script_trajectory(config.trajectory)
    messages = pipeline.simulate_detections(config, samples)
    solve, runs = pipeline._solve_framesets, []

    def recorded(config, steps, needed):
        runs.append((needed, solve(config, steps, needed)))
        return runs[-1][1]

    monkeypatch.setattr(pipeline, "_solve_framesets", recorded)
    batched = pipeline.run_pipeline(config, messages, samples)
    (needed, (solves, _, _)), = runs
    _, first, _ = solves[0]
    fs = next(fs for _, fs in needed if fs.anchor_stamp == first.stamp)
    want = estimation.initialize_global(fs, config.cameras, config.robot_model, config.solver)
    assert (first.pose, first.n_iterations) == (want.pose, want.n_iterations)
    assert first.covariance.tobytes() == want.covariance.tobytes()
    assert batched.mode_trajectories["raw"].poses[0] == first.pose
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
    """Count the calls to ``name`` through every camloc module that holds it."""
    for module in (pipeline, estimation, geometry):
        if hasattr(module, name):
            original = getattr(module, name)

            def counted(*args, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)


def test_the_batch_is_the_route(scenario_dir, monkeypatch):
    """No frame-set is flattened or solved one at a time, the first fix
    included: every solve is a row of the batch."""
    calls = {"solve_multiview": 0, "initialize_global": 0, "flatten_observations": 0}
    for name in calls:
        _counting(monkeypatch, name, calls)
    result = pipeline.run_pipeline(load_config(scenario_dir / "traj1.json", {"seed": 7}))
    assert calls == {"solve_multiview": 0, "initialize_global": 0, "flatten_observations": 0}
    assert len(result.mode_trajectories["raw"]) > 600


def test_singular_seed_is_solved_from_the_prediction(scenario_dir, monkeypatch):
    """A frame-set whose seed is singular (forced here: the sixth of the
    first block, the fifth after the first fix) gets solve_multiview's
    answer from the pose predicted from the last accepted one by the
    odometry since."""
    config = _config(scenario_dir, "traj1", 7)
    seeds, forced = estimation._algebraic_seeds, []

    def singular_sixth(*block):
        out, singular = seeds(*block)
        if not forced and len(singular) > 5:  # the first block, not a solve of one row
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
    assert k == 5  # the first fix, then four more of the first block
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


def _stream_framesets(config, messages):
    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    return [fs for msg in messages for fs in sync.ingest(msg)] + sync.flush()


def _cut(messages, replaced):
    """The stream with each message whose id() is a key of ``replaced``
    swapped for its value, or dropped where that is None."""
    return [replaced.get(id(m), m) for m in messages if replaced.get(id(m), m) is not None]


def test_a_sparse_first_frameset_is_the_first_fix(scenario_dir):
    """The first three frame-sets hold 3 keypoints over two cameras, 2 and
    1, so that no camera has the 4 that initialize_global asks of one: the
    first of them is the first fix, solved by the batch from its seed."""
    config = _config(scenario_dir, "traj2", 7)
    samples = script_trajectory(config.trajectory)
    messages = pipeline.simulate_detections(config, samples)
    framesets = _stream_framesets(config, messages)
    replaced = {}
    for fs in framesets[:3]:
        (a, first), (b, second), *rest = sorted(fs.per_camera.items())
        replaced[id(first)] = DetectionMessage(a, first.stamp, first.keypoints[:2],
                                               first.pixels[:2], first.confidence[:2])
        replaced[id(second)] = DetectionMessage(b, second.stamp, second.keypoints[:1],
                                                second.pixels[:1], second.confidence[:1])
        replaced.update((id(m), None) for _, m in rest)
    stream = _cut(messages, replaced)
    sparse = _stream_framesets(config, stream)[0]
    assert sorted(len(m.keypoints) for m in sparse.per_camera.values()) == [1, 2]
    with pytest.raises(NoEligibleCamera):
        estimation.initialize_global(sparse, config.cameras, config.robot_model, config.solver)

    result = pipeline.run_pipeline(config, stream, samples)
    assert result.counters["skipped_framesets"] == 0
    raw = result.mode_trajectories["raw"]
    assert raw.stamps[0] == sparse.anchor_stamp
    want = estimation.solve_multiview(
        flatten_observations(sparse, config.cameras, config.robot_model), None, config.solver)
    assert raw.poses[0] == want.pose
    truth = samples[nearest_stamp_index([s.stamp for s in samples], [sparse.anchor_stamp])[0]]
    assert math.hypot(want.pose.x - truth.pose.x, want.pose.y - truth.pose.y) < 0.1


def test_a_singular_seed_before_the_first_fix_is_skipped(scenario_dir, monkeypatch):
    """Frame-set 0's seed is forced singular, and frame-set 1 is cut to its
    widest camera: frame-set 0 is skipped and counted, as there is no
    prediction to solve it from, and frame-set 1 is the first fix, not
    gated although one camera sees it. Nothing is solved one at a time."""
    config = _config(scenario_dir, "traj1", 7)
    samples = script_trajectory(config.trajectory)
    messages = pipeline.simulate_detections(config, samples)
    lone = _stream_framesets(config, messages)[1]
    kept = max(lone.per_camera.values(), key=lambda m: len(m.keypoints))
    stream = _cut(messages, {id(m): None for m in lone.per_camera.values() if m is not kept})
    framesets = _stream_framesets(config, stream)
    assert framesets[1].per_camera == {kept.camera_id: kept}

    seeds, forced = estimation._algebraic_seeds, []

    def singular_first(*block):
        out, singular = seeds(*block)
        if not forced:
            forced.append(True)
            out[:, 0], singular[0] = np.nan, True
        return out, singular

    gate, gate_stamps = pipeline.gate_single_view, []

    def spy(predicted, raw, camera, thresholds=None):
        gate_stamps.append(raw.stamp)
        return gate(predicted, raw, camera, thresholds)

    calls = {"solve_multiview": 0}
    _counting(monkeypatch, "solve_multiview", calls)
    monkeypatch.setattr(pipeline, "gate_single_view", spy)
    monkeypatch.setattr(estimation, "_algebraic_seeds", singular_first)
    result = pipeline.run_pipeline(config, stream, samples)
    assert forced and calls == {"solve_multiview": 0}
    assert result.counters["skipped_framesets"] == 1
    raw, gated = result.mode_trajectories["raw"], result.mode_trajectories["gated_1frame"]
    assert raw.stamps[0] == gated.stamps[0] == framesets[1].anchor_stamp
    assert raw.poses[0] == gated.poses[0]
    assert gate_stamps and framesets[1].anchor_stamp not in gate_stamps


def _steps(config, samples):
    rng = pipeline._odometry_rng(config.seed)
    return [simulate_odometry_step(a.pose.inverse().compose(b.pose), config.odometry_noise, rng)
            for a, b in zip(samples, samples[1:])]


def test_a_prediction_after_a_skip_is_the_eager_fold(scenario_dir, monkeypatch):
    """A frame-set skipped for an unknown camera, then one seen by a lone
    camera: the gate's prediction is the last accepted pose moved by every
    odometry step since, the skipped frame-set's included, composed one by
    one from the identity in stream order, bit for bit."""
    config = _config(scenario_dir, "traj1", 7)
    samples = script_trajectory(config.trajectory)
    messages = pipeline.simulate_detections(config, samples)
    sync = Synchronizer([c.camera_id for c in config.cameras], config.sync)
    framesets = [fs for msg in messages for fs in sync.ingest(msg)] + sync.flush()
    skipped, lone = framesets[300], framesets[301]
    kept = max(lone.per_camera.values(), key=lambda m: len(m.keypoints))
    dropped = {id(m) for m in lone.per_camera.values() if m is not kept}
    stray = next(iter(skipped.per_camera.values()))
    stray = DetectionMessage(99, stray.stamp, stray.keypoints, stray.pixels, stray.confidence)
    stream = [m for m in messages if id(m) not in dropped] + [stray]
    stream.sort(key=lambda m: (m.stamp, m.camera_id))

    gate, seen = pipeline.gate_single_view, []

    def spy(predicted, raw, camera, thresholds=None):
        seen.append((predicted, raw))
        return gate(predicted, raw, camera, thresholds)

    monkeypatch.setattr(pipeline, "gate_single_view", spy)
    result = pipeline.run_pipeline(config, stream, samples)
    assert result.counters["skipped_framesets"] == 1
    (predicted, raw), = [(p, r) for p, r in seen if r.stamp == lone.anchor_stamp]
    assert raw.n_cameras == 1

    gated = result.mode_trajectories["gated_1frame"]
    k = int(np.flatnonzero(gated.stamps == lone.anchor_stamp)[0])
    assert gated.stamps[k - 1] < skipped.anchor_stamp < lone.anchor_stamp
    prev, now = nearest_stamp_index([s.stamp for s in samples],
                                    [gated.stamps[k - 1], lone.anchor_stamp])
    moved = PoseSE2()
    for step in _steps(config, samples)[prev:now]:
        moved = moved.compose(step)
    assert predicted == gated.poses[k - 1].compose(moved)


@pytest.mark.parametrize("name", ["traj1", "traj2", "traj3", "long_feedback"])
def test_no_bundled_run_restarts_its_belief(scenario_dir, name):
    """Every fix of a bundled run with feedback fuses into the belief."""
    config = load_config(scenario_dir / f"{name}.json",
                         {"seed": 7, "feedback": True, "modes": ["robot"]})
    counters = pipeline.run_pipeline(config).counters
    assert counters["feedback_applications"] > 50
    assert counters["feedback_restarts"] == 0


@pytest.mark.parametrize("cov", [np.full((3, 3), np.nan), -np.eye(3)],
                         ids=["not_finite", "not_positive_definite"])
def test_a_fusion_that_cannot_be_formed_is_refused(cov):
    """A belief whose fusion with a fix gives a non-finite or indefinite
    covariance is not fused: the caller restarts it from the fix."""
    fix = estimation.PoseEstimate(PoseSE2(1.0, 2.0, 0.3), 2.0 * np.eye(3), rms_residual=0.0,
                                  n_cameras=2, n_keypoints=8, stamp=0.0)
    assert pipeline._fuse(PoseSE2(), cov, fix) is None
    mean, fused = pipeline._fuse(PoseSE2(), np.eye(3), fix)
    assert estimation.positive_definite(fused.ravel().tolist())
