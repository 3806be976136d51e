"""The benchmark's workloads.

Each workload turns the workload seed into inputs in ``setup`` and then
runs one operation at a time with ``run_op``. An operation returns an
``OpResult``: wall time, robot-seconds it localized, whether it passed the
output checks, and its accuracy figures. Inputs are generated only from the
seed, so the same seed always gives byte-identical inputs
(``inputs_bytes``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from camloc import cli, estimation, evaluation, pipeline, scenario, simulation
from camloc.geometry import PoseSE2, angle_diff
from camloc.sync import FrameSet, message_to_json

RUN_OUTPUTS = ("waypoint_stats.csv", "trajectory_error.csv", "detections.jsonl", "run_meta.json")


@dataclass
class OpResult:
    wall_s: float
    robot_s: float
    ok: bool
    values: dict = field(default_factory=dict)  # accuracy figures of this op
    error: str = ""


def _finite(x):
    return x is not None and math.isfinite(x)


def _robot_seconds(config):
    samples = simulation.script_trajectory(config.trajectory)
    return samples[-1].stamp - samples[0].stamp


class ScenarioRun:
    """In-process ``camloc run`` on the bundled traj1, traj2 and traj3."""

    name = "scenario_run"
    min_ops = 12  # four rounds of the three trajectories: the accuracy set
    trace_ops = 3
    trajectories = ("traj1", "traj2", "traj3")

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.ops = [(self.trajectories[i % 3], int(rng.integers(0, 2**31 - 1)))
                    for i in range(60)]
        self.robot_s = {}
        for traj in self.trajectories:
            config = scenario.load_config(self.root / "scenarios" / f"{traj}.json")
            self.robot_s[traj] = _robot_seconds(config)

    def inputs_bytes(self):
        return json.dumps(self.ops).encode()

    def run_op(self, i):
        traj, scenario_seed = self.ops[i % len(self.ops)]
        out = self.out_dir / f"op{i}"
        argv = ["run", "--scenario", str(self.root / "scenarios" / f"{traj}.json"),
                "--out", str(out), "--seed", str(scenario_seed)]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # one bad run is counted, not fatal
            return OpResult(time.perf_counter() - t0, 0.0, False, error=repr(exc))
        wall = time.perf_counter() - t0
        try:
            missing = [f for f in RUN_OUTPUTS if not (out / f).is_file()]
            rmse = json.loads((out / "run_meta.json").read_text())["rmse_m"] if not missing else {}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        bad_modes = [m for m in scenario.ALL_MODES if not _finite(rmse.get(m))]
        if code != 0 or missing or bad_modes:
            return OpResult(wall, 0.0, False,
                            error=f"exit {code}, missing {missing}, bad modes {bad_modes}")
        values = {"fused_rmse_cm": 100 * rmse["fused"], "raw_rmse_cm": 100 * rmse["raw"]}
        return OpResult(wall, self.robot_s[traj], True, values)


class FeedbackSweep:
    """One unit of the pose-correction feedback experiment per scenario seed
    on ``long_feedback.json``: a feedback-on run (robot, fused), a
    feedback-off run (robot), and aligned scoring of both."""

    name = "feedback_sweep"
    min_ops = 4
    trace_ops = 2

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.path = root / "scenarios" / "long_feedback.json"
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.ops = [int(rng.integers(0, 2**31 - 1)) for _ in range(40)]
        self.robot_s = _robot_seconds(scenario.load_config(self.path))

    def inputs_bytes(self):
        return json.dumps(self.ops).encode()

    @staticmethod
    def _aligned_rmse(result, mode):
        traj = result.mode_trajectories.get(mode)
        if traj is None or len(traj) < 2:
            return None
        aligned, _ = evaluation.procrustes_align(traj, result.ground_truth)
        return evaluation.translation_rmse(aligned, result.ground_truth)

    def run_op(self, i):
        seed = self.ops[i % len(self.ops)]
        t0 = time.perf_counter()
        try:
            on = pipeline.run_pipeline(scenario.load_config(
                self.path, {"seed": seed, "modes": '["robot","fused"]'}))
            off = pipeline.run_pipeline(scenario.load_config(
                self.path, {"seed": seed, "modes": '["robot"]', "feedback": "false"}))
            with_fb = self._aligned_rmse(on, "robot")
            fused = self._aligned_rmse(on, "fused")
            without_fb = self._aligned_rmse(off, "robot")
        except Exception as exc:  # one bad unit is counted, not fatal
            return OpResult(time.perf_counter() - t0, 0.0, False, error=repr(exc))
        wall = time.perf_counter() - t0
        if not all(_finite(x) for x in (with_fb, fused, without_fb)):
            return OpResult(wall, 0.0, False, error="robot or fused missing or non-finite")
        values = {"fused_rmse_cm": 100 * fused, "feedback_robot_rmse_cm": 100 * with_fb,
                  "nofeedback_robot_rmse_cm": 100 * without_fb}
        # both runs localize the whole trajectory
        return OpResult(wall, 2 * self.robot_s, True, values)


class Relocalize:
    """Kidnapped-robot initialization on noisy frame-sets at random floor
    poses (``initialize_global`` per frame-set)."""

    name = "relocalize"
    min_ops = 600  # every generated frame-set once
    trace_ops = 300
    room = (10.0, 8.0)
    pos_tol = 0.05  # m
    heading_tol = math.radians(2.0)

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.path = root / "scenarios" / "traj1.json"
        self.seed = seed

    def setup(self):
        config = scenario.load_config(self.path)
        self.cameras, self.model, self.solver = config.cameras, config.robot_model, config.solver
        # one frame-set stands for one capture at the scenario's frame period
        self.frame_s = config.trajectory.sample_dt * config.frame_stride
        noise = replace(config.noise, timestamp_jitter=0.0)
        rng = np.random.default_rng(self.seed)
        self.ops = []
        while len(self.ops) < self.min_ops:
            pose = PoseSE2(rng.uniform(0.0, self.room[0]), rng.uniform(0.0, self.room[1]),
                           rng.uniform(-math.pi, math.pi))
            if scenario.camera_visibility_count(pose, self.cameras, self.model) < 1:
                continue
            sample = simulation.GroundTruthSample(0.0, pose, True, 0)
            msgs = simulation.simulate_frame(sample, self.cameras, self.model, noise, rng)
            # initialize_global needs one camera with >= 4 keypoints; dropout
            # can take a seen camera below that, and such a capture is not a
            # relocalization request
            if any(len(m.keypoints) >= 4 for m in msgs):
                fs = FrameSet(anchor_stamp=0.0, per_camera={m.camera_id: m for m in msgs})
                self.ops.append((pose, fs))

    def inputs_bytes(self):
        lines = []
        for pose, fs in self.ops:
            lines.append(json.dumps([pose.x, pose.y, pose.theta]))
            lines.extend(message_to_json(m) for m in fs.per_camera.values())
        return "\n".join(lines).encode()

    def run_op(self, i):
        pose, fs = self.ops[i % len(self.ops)]
        t0 = time.perf_counter()
        try:
            est = estimation.initialize_global(fs, self.cameras, self.model, self.solver)
        except Exception as exc:  # one bad relocalization is counted, not fatal
            return OpResult(time.perf_counter() - t0, 0.0, False, error=repr(exc))
        wall = time.perf_counter() - t0
        p = est.pose
        if not all(math.isfinite(v) for v in (p.x, p.y, p.theta)):
            return OpResult(wall, 0.0, False, error="non-finite pose")
        err = math.hypot(p.x - pose.x, p.y - pose.y)
        hit = err <= self.pos_tol and abs(angle_diff(p.theta, pose.theta)) <= self.heading_tol
        return OpResult(wall, self.frame_s, True, {"err_cm": 100 * err, "hit": float(hit)})


WORKLOADS = {w.name: w for w in (ScenarioRun, FeedbackSweep, Relocalize)}
