import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camloc import cli, pipeline, simulation
from camloc.errors import ConfigError, SolverDiverged
from camloc.estimation import GateThresholds, SolverConfig
from camloc.geometry import PoseSE2, RobotModel
from camloc.pipeline import run_pipeline
from camloc.posegraph import PoseGraph
from camloc.scenario import config_from_dict, generate_scenarios, load_config
from camloc.simulation import (NoiseModel, OdometryNoise, TrajectoryScript, Waypoint,
                               default_robot_model)
from camloc.sync import SyncConfig, message_from_json, message_to_json

ZERO_PIXEL_NOISE = [
    "--override", "noise.pixel_sigma_px=0",
    "--override", "noise.dropout_prob=0",
    "--override", "noise.outlier_prob=0",
    "--override", "noise.timestamp_jitter_s=0",
]
ZERO_ODOMETRY_NOISE = [
    "--override", "odometry_noise.trans_sigma_per_sqrt_m=0",
    "--override", "odometry_noise.rot_sigma_per_sqrt_m=0",
    "--override", "odometry_noise.rot_sigma_per_sqrt_rad=0",
    "--override", "odometry_noise.bias_trans_m_per_m=0",
    "--override", "odometry_noise.bias_rot_rad_per_m=0",
]


def read_outputs(out_dir):
    out = Path(out_dir)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestGen:
    def test_writes_four_valid_scenarios(self, tmp_path, capsys):
        assert cli.main(["gen", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.glob("*.json")}
        assert names == {"traj1.json", "traj2.json", "traj3.json", "long_feedback.json"}
        for name in names:
            cfg = load_config(tmp_path / name)
            assert len(cfg.cameras) == 4
        printed = capsys.readouterr().out
        assert all(n in printed for n in names)

    def test_matches_bundled_scenarios(self, tmp_path):
        bundled = Path(__file__).parent.parent / "scenarios"
        assert cli.main(["gen", "--out", str(tmp_path)]) == 0
        for path in sorted(bundled.glob("*.json")):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_traj3_avoids_single_camera_waypoints(self, scenario_dir):
        doc = json.loads((scenario_dir / "traj3.json").read_text())
        ids = {w["waypoint_id"] for w in doc["trajectory"]["waypoints"]}
        assert ids.isdisjoint({1, 6})

    def test_long_feedback_enables_feedback(self, scenario_dir):
        cfg = load_config(scenario_dir / "long_feedback.json")
        assert cfg.feedback
        assert cfg.frame_stride == 2


class TestConfigValidation:
    def test_round_trip(self, scenario_dir):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        cfg = config_from_dict(doc)
        assert config_from_dict(cfg.raw).seed == cfg.seed

    def test_zero_cameras_rejected(self, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        doc["cameras"] = []
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_trajectory_rejected(self, scenario_dir):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        del doc["trajectory"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_mode_rejected(self, scenario_dir):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        doc["modes"] = ["raw", "psychic"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unreadable_scenario_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["run", "--scenario", str(missing), "--out", str(tmp_path)]) == 2

    def test_malformed_override_exit_code(self, small_scenario, tmp_path):
        rc = cli.main(["run", "--scenario", str(small_scenario),
                       "--out", str(tmp_path), "--override", "no-equals-sign"])
        assert rc == 2

    @pytest.mark.parametrize("override,key", [
        ("solvr.max_iterations=1", "'solvr'"),
        ("noise.pixel_sigma=0", "'noise.pixel_sigma'"),
    ])
    def test_unknown_override_key_exit_code(self, small_scenario, tmp_path, capsys,
                                            override, key):
        rc = cli.main(["run", "--scenario", str(small_scenario),
                       "--out", str(tmp_path / "o"), "--override", override])
        assert rc == 2
        assert f"unknown config key {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path,key", [
        (("cameras", 1, "fxx_px"), "cameras[1].fxx_px"),
        (("trajectory", "waypoints", 2, "dwell"), "trajectory.waypoints[2].dwell"),
        (("trajectory", "speed"), "trajectory.speed"),
        (("gate", "d_depth"), "gate.d_depth"),
        (("sede",), "sede"),
        (("cameras", 0, "distortion"), "cameras[0].distortion"),
    ])
    def test_unknown_nested_key_named(self, scenario_dir, path, key):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = 1
        with pytest.raises(ConfigError, match=re.escape(repr(key))):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["x_m", "y_m"])
    def test_waypoint_without_coordinate_named(self, scenario_dir, key):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        del doc["trajectory"]["waypoints"][2][key]
        missing = f"missing 'trajectory.waypoints[2].{key}'"
        with pytest.raises(ConfigError, match=re.escape(missing)):
            config_from_dict(doc)

    @pytest.mark.parametrize("label", ["x", None, 1.7, True])
    def test_waypoint_label_must_be_an_integer(self, small_scenario, tmp_path, capsys, label):
        doc = json.loads(small_scenario.read_text())
        doc["trajectory"]["waypoints"][1]["waypoint_id"] = label
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "trajectory.waypoints[1].waypoint_id" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_section_must_be_an_object(self, scenario_dir):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        doc["solver"] = 50
        with pytest.raises(ConfigError, match="solver must be a JSON object"):
            config_from_dict(doc)

    def test_every_leaf_of_the_wrong_type_named(self, scenario_dir):
        """Each scalar of traj1 replaced by a value of another JSON type, or
        by NaN for a number, or by 1.5 for an integer, is rejected by its
        dotted path."""
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        leaves = list(_scalar_leaves(doc))
        assert len(leaves) > 100
        for path, value in leaves:
            bad_values = ["1"]
            if isinstance(value, bool):
                bad_values += [0, 1]
            elif isinstance(value, (int, float)):
                bad_values += [True, 1.5 if isinstance(value, int) else math.nan]
            for bad in bad_values:
                mutated = json.loads(json.dumps(doc))
                _set_leaf(mutated, path, bad)
                with pytest.raises(ConfigError) as info:
                    config_from_dict(mutated)
                assert _dotted(path) in str(info.value), (path, bad)

    @pytest.mark.parametrize("edit,key", [
        (lambda d: d.update(feedback="false"), "feedback"),
        (lambda d: d.update(seed=1.7), "seed"),
        (lambda d: d.update(seed=True), "seed"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d["cameras"][1].update(camera_id=1.7), "cameras[1].camera_id"),
        (lambda d: d["cameras"][2].update(camera_id=0), "cameras[2].camera_id"),
        (lambda d: d["trajectory"].update(frame_stride=2.5), "trajectory.frame_stride"),
        (lambda d: d["trajectory"].update(sample_dt_s=math.inf), "trajectory.sample_dt_s"),
        (lambda d: d["trajectory"]["waypoints"][1].update(dwell_s=-2),
         "trajectory.waypoints[1]"),
        (lambda d: d["noise"].update(pixel_sigma_px=math.nan), "noise.pixel_sigma_px"),
        (lambda d: d["sync"].update(max_open_sets=-3), "max_open_sets"),
        (lambda d: d.update(robot_model={"keypoints_m": [[0, 0, 0]] * 4, "body_width_m": 0.3}),
         "robot_model"),
        # finite sigmas whose odometry covariance overflows a float
        (lambda d: d["odometry_noise"].update(trans_sigma_per_sqrt_m=1e200),
         "odometry_noise.trans_sigma_per_sqrt_m"),
        (lambda d: d["odometry_noise"].update(rot_sigma_per_sqrt_m=1e200),
         "odometry_noise.rot_sigma_per_sqrt_m"),
        (lambda d: d["odometry_noise"].update(rot_sigma_per_sqrt_rad=1e200),
         "odometry_noise.rot_sigma_per_sqrt_rad"),
        (lambda d: d["odometry_noise"].update(rot_sigma_per_sqrt_rad=1e154),
         "odometry_noise.rot_sigma_per_sqrt_rad"),
    ], ids=["feedback_string", "seed_fraction", "seed_bool", "seed_negative",
            "camera_id_fraction", "camera_id_repeated", "stride_fraction", "sample_dt_infinite",
            "dwell_negative", "pixel_sigma_nan", "max_open_sets_negative",
            "robot_model_coincident", "trans_sigma_overflowing", "rot_sigma_per_m_overflowing",
            "rot_sigma_per_rad_overflowing", "rot_sigma_per_rad_overflowing_through_turn"])
    def test_bad_value_exits_2_naming_key(self, small_scenario, tmp_path, capsys, edit, key):
        doc = json.loads(small_scenario.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runaway_sample_count_exits_2(self, scenario_dir, tmp_path):
        """A script that would take more than MAX_SAMPLES samples is rejected
        before it is sampled. It runs in a child process limited to 60 s and
        2 GB, so that a regression fails instead of sampling without end."""
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "camloc.cli", "run", "--scenario",
             str(scenario_dir / "traj3.json"), "--out", str(tmp_path / "o"),
             "--override", "trajectory.speed_mps=1e-300"],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: trajectory: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scale,code", [("1", 2), ("0.5", 2), ("1.5", 0)])
    def test_lambda_scale_must_exceed_1(self, small_scenario, tmp_path, scale, code):
        """A rejected LM trial retries at lam * lm_lambda_scale until lam
        passes LAMBDA_MAX, so a scale of at most 1 could retry without end:
        it exits 2 naming solver. The run is a child process limited to
        60 s, so that a regression fails instead of hanging."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "camloc.cli", "run", "--scenario", str(small_scenario),
             "--out", str(tmp_path / "o"), "--override", f"solver.lm_lambda_scale={scale}",
             "--override", "feedback=true"],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stderr.startswith("error: solver: lm_lambda_scale "), proc.stderr
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,override", [
        ("traj3", "odometry_noise.bias_trans_m_per_m=1e100"),
        ("long_feedback", "odometry_noise.rot_sigma_per_sqrt_rad=1e20"),
    ], ids=["bias_trans_1e100", "rot_sigma_per_rad_1e20"])
    def test_unformable_feedback_fusion_costs_its_fix(self, scenario_dir, tmp_path, name,
                                                      override):
        """Odometry this poor makes the information of the robot's belief
        singular or not positive definite. Each such fusion restarts the
        belief from its fix and is counted; it never ends in a traceback
        (exit 1). The run is a child process limited to 60 s."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "camloc.cli", "run", "--scenario",
             str(scenario_dir / f"{name}.json"), "--out", str(tmp_path / "o"),
             "--override", override, "--override", "feedback=true"],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode in (0, 2, 3), proc.stderr
        if proc.returncode == 0:
            counters = json.loads((tmp_path / "o" / "run_meta.json").read_text())["counters"]
            assert 0 < counters["feedback_restarts"] <= counters["feedback_applications"]

    @pytest.mark.parametrize("override,segment", [
        ("cameras.0.fx_px=700", "cameras"),
        ("seed.x=3", "seed"),
    ])
    def test_override_through_a_value_named(self, small_scenario, tmp_path, capsys,
                                            override, segment):
        rc = cli.main(["run", "--scenario", str(small_scenario),
                       "--out", str(tmp_path / "o"), "--override", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"override {override.split('=')[0]!r}: {segment} is not a JSON object" in err
        assert not (tmp_path / "o").exists()

    def test_override_creates_absent_section(self, scenario_dir, tmp_path):
        doc = json.loads((scenario_dir / "traj1.json").read_text())
        del doc["noise"]
        path = tmp_path / "no_noise.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path, {"noise.pixel_sigma_px": "0"})
        assert cfg.noise.pixel_sigma == 0.0
        assert cfg.noise.dropout_prob == NoiseModel().dropout_prob

    @pytest.mark.parametrize("build", [
        lambda: NoiseModel(pixel_sigma=math.nan),
        lambda: NoiseModel(timestamp_jitter=math.nan),
        lambda: OdometryNoise(trans_sigma_per_meter=math.nan),
        lambda: OdometryNoise(rot_sigma_per_rad=math.nan),
        lambda: OdometryNoise(bias_trans=math.nan),
        lambda: TrajectoryScript([Waypoint(PoseSE2())], speed=math.nan),
        lambda: TrajectoryScript([Waypoint(PoseSE2())], sample_dt=math.inf),
        lambda: Waypoint(PoseSE2(), dwell=math.nan),
        lambda: Waypoint(PoseSE2(), dwell=-2.0),
        lambda: SolverConfig(convergence_tol=math.nan),
        lambda: SolverConfig(huber_delta=math.nan),
        lambda: GateThresholds(d_theta=math.nan),
        lambda: GateThresholds(d_depth=math.nan),
        lambda: SyncConfig(window=math.nan),
        lambda: SyncConfig(max_open_sets=-3),
        lambda: RobotModel(keypoints=np.full((8, 3), math.nan), body_width=0.35),
        lambda: RobotModel(keypoints=default_robot_model().keypoints, body_width=math.nan),
        lambda: RobotModel(keypoints=default_robot_model().keypoints, body_width=math.inf),
    ])
    def test_dataclass_rejects_nan_and_out_of_range(self, build):
        with pytest.raises(ValueError):
            build()


def _scalar_leaves(node, path=()):
    """(path, value) of every scalar in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _scalar_leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _set_leaf(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _dotted(path):
    """The parser's name for a path: 'cameras[0].position_m[1]'."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else "." * bool(out) + key
    return out


class TestWaypointWindows:
    def test_shared_pose_dwells_stay_apart(self, small_scenario):
        """Two consecutive waypoints at one pose and heading are two dwells,
        each reported under its own label."""
        doc = json.loads(small_scenario.read_text())
        first, last = doc["trajectory"]["waypoints"]
        doc["trajectory"]["waypoints"] = [first, {**first, "waypoint_id": 8}, last]
        doc["modes"], doc["feedback"] = ["robot"], False
        result = run_pipeline(config_from_dict(doc))
        windows = result.waypoint_windows
        assert [w[0] for w in windows] == [first["waypoint_id"], 8, last["waypoint_id"]]
        assert windows[0][2] < windows[1][1] <= windows[1][2] < windows[2][1]
        assert result.camera_visibility[8] == result.camera_visibility[first["waypoint_id"]]


class TestRun:
    def test_outputs_written(self, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)]) == 0
        files = read_outputs(out)
        assert {"waypoint_stats.csv", "trajectory_error.csv", "detections.jsonl",
                "run_meta.json"} <= set(files)
        meta = json.loads(files["run_meta.json"])
        assert "config_sha256" in meta and "rmse_m" in meta
        assert "fused" in capsys.readouterr().out

    def test_seed_flag_changes_outputs(self, small_scenario, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--scenario", str(small_scenario), "--out", str(a), "--seed", "1"])
        cli.main(["run", "--scenario", str(small_scenario), "--out", str(b), "--seed", "2"])
        assert read_outputs(a)["detections.jsonl"] != read_outputs(b)["detections.jsonl"]

    def test_determinism_same_seed(self, small_scenario, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["run", "--scenario", str(small_scenario), "--out", str(out),
                      "--seed", "9"])
        assert read_outputs(a) == read_outputs(b)

    def test_detection_stream_pinned(self, scenario_dir, tmp_path):
        # The simulated stream depends only on the scenario and the seed, so a
        # change to estimation or fusion leaves these bytes alone; a change to
        # the simulator's draws or projection updates the digest openly. The
        # one rig projection (project_robot) moved pixels by <= 7e-13 px. The
        # digest changed again when each frame got its own generator and its
        # noise became array draws over cameras x keypoints.
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(scenario_dir / "traj1.json"),
                         "--out", str(out), "--seed", "7"]) == 0
        digest = hashlib.sha256((out / "detections.jsonl").read_bytes()).hexdigest()
        assert digest == "6bcdd4be21cbac89103db26faa961fe5d82008e1b725669477a38b6659d3b3ab"

    def test_trajectory_scripted_once(self, small_scenario, tmp_path, monkeypatch):
        """camloc run scripts the trajectory once and hands the samples to
        both the simulator and the pipeline."""
        calls = []

        def counted(script, original=simulation.script_trajectory):
            calls.append(script)
            return original(script)

        for module in (cli, pipeline):
            if hasattr(module, "script_trajectory"):
                monkeypatch.setattr(module, "script_trajectory", counted)
        assert cli.main(["run", "--scenario", str(small_scenario),
                         "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_zero_pixel_noise_raw_mode_exact(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)]
                      + ZERO_PIXEL_NOISE)
        assert rc == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["rmse_m"]["raw"] < 1e-4

    def test_all_noise_zero_fused_exact(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)]
                      + ZERO_PIXEL_NOISE + ZERO_ODOMETRY_NOISE)
        assert rc == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["rmse_m"]["fused"] < 1e-4

    @pytest.mark.parametrize("feedback", [False, True])
    def test_pose_graph_solves_counted(self, scenario_dir, tmp_path, monkeypatch, feedback):
        calls = {"optimize": 0, "add_camera_estimate": 0}
        for name in calls:
            original = getattr(PoseGraph, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(PoseGraph, name, counted)
        out = tmp_path / "out"
        rc = cli.main(["run", "--scenario", str(scenario_dir / "traj1.json"), "--out", str(out),
                       "--override", f"feedback={str(feedback).lower()}"])
        assert rc == 0
        solves = json.loads((out / "run_meta.json").read_text())["counters"]["pose_graph_solves"]
        assert solves == calls["optimize"]
        assert calls["add_camera_estimate"] > 0
        assert solves == 1  # feedback is a filter; the fused output is the one solve

    def test_solver_divergence_exit_code(self, small_scenario, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverDiverged("non-finite state")

        monkeypatch.setattr(cli, "run_pipeline", boom)
        rc = cli.main(["run", "--scenario", str(small_scenario), "--out", str(tmp_path)])
        assert rc == 3


class TestReplay:
    def test_round_trip_matches_run(self, small_scenario, tmp_path):
        out = tmp_path / "run"
        cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)])
        replay_out = tmp_path / "replay"
        rc = cli.main(["replay", "--stream", str(out / "detections.jsonl"),
                       "--scenario", str(small_scenario), "--out", str(replay_out)])
        assert rc == 0
        run_files = read_outputs(out)
        replay_files = read_outputs(replay_out)
        for name in ("waypoint_stats.csv", "trajectory_error.csv"):
            assert replay_files[name] == run_files[name]
        assert "detections.jsonl" not in replay_files

    @pytest.mark.parametrize("line", [
        "not json", "[]", "1", '"x"', "null",
        '{"type":"detections","camera_id":0,"stamp_ns":Infinity,"keypoints":[]}',
        '{"type":"detections","camera_id":Infinity,"stamp_ns":5,"keypoints":[]}',
        '{"type":"detections","camera_id":0,"stamp_ns":5,'
        '"keypoints":[{"id":Infinity,"u":1.0,"v":2.0,"conf":0.9}]}',
        '{"type":"detections","camera_id":0,"stamp_ns":5,'
        '"keypoints":[{"id":1.7,"u":1.0,"v":2.0,"conf":0.9}]}',
        '{"type":"detections","camera_id":0,"stamp_ns":5,'
        '"keypoints":[{"id":1,"u":"12.5","v":2.0,"conf":0.9}]}',
        '{"type":"detections","camera_id":0,"stamp_ns":5,'
        '"keypoints":[{"id":1,"u":1.0,"v":2.0,"conf":true}]}',
    ], ids=["not_json", "list", "number", "string", "null", "infinite_stamp",
            "infinite_camera", "infinite_id", "fractional_id", "string_pixel", "bool_conf"])
    def test_malformed_line_reports_location(self, small_scenario, tmp_path, capsys, line):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"type":"detections","camera_id":0,"stamp_ns":0,"keypoints":[]}\n'
                          f"{line}\n")
        rc = cli.main(["replay", "--stream", str(stream),
                       "--scenario", str(small_scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{stream}:2" in capsys.readouterr().err

    def test_non_finite_pixel_reports_location(self, small_scenario, tmp_path, capsys):
        stream = tmp_path / "stream.jsonl"
        stream.write_text('{"type":"detections","camera_id":0,"stamp_ns":0,"keypoints":[]}\n'
                          '{"type":"detections","camera_id":0,"stamp_ns":1,"keypoints":'
                          '[{"id":0,"u":NaN,"v":240.0,"conf":0.9}]}\n')
        rc = cli.main(["replay", "--stream", str(stream),
                       "--scenario", str(small_scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{stream}:2" in capsys.readouterr().err

    @staticmethod
    def _replay_one_corrupted(small_scenario, tmp_path, corrupt, whole_frame=False):
        """Replay a recorded stream clean and with one solvable message of its
        second half corrupted, or with every message of that message's frame
        corrupted; returns the run_meta counters of both."""
        out = tmp_path / "run"
        cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)])
        lines = (out / "detections.jsonl").read_text().splitlines()
        # a message in the second half that could be solved on its own
        k = next(k for k in range(len(lines) // 2, len(lines))
                 if len(json.loads(lines[k])["keypoints"]) >= 4)
        targets = [k]
        if whole_frame:  # frames are 0.1 s apart, with a few ms of jitter
            stamp = json.loads(lines[k])["stamp_ns"]
            targets = [j for j, line in enumerate(lines)
                       if abs(json.loads(line)["stamp_ns"] - stamp) < 50_000_000]
        for j in targets:
            msg = json.loads(lines[j])
            corrupt(msg)
            lines[j] = json.dumps(msg)
        bad_stream = tmp_path / "bad.jsonl"
        bad_stream.write_text("\n".join(lines) + "\n")
        counters = {}
        for name, stream in (("clean", out / "detections.jsonl"), ("bad", bad_stream)):
            rc = cli.main(["replay", "--stream", str(stream),
                           "--scenario", str(small_scenario), "--out", str(tmp_path / name)])
            assert rc == 0
            meta = json.loads((tmp_path / name / "run_meta.json").read_text())
            counters[name] = meta["counters"]
        assert set(read_outputs(tmp_path / "bad")) == {
            "waypoint_stats.csv", "trajectory_error.csv", "run_meta.json"}
        return counters["clean"], counters["bad"]

    @pytest.mark.parametrize("corrupt", [
        lambda msg: msg.update(camera_id=7),
        lambda msg: msg["keypoints"][0].update(id=42),
    ], ids=["unknown_camera", "unknown_keypoint"])
    def test_bad_id_costs_one_frameset(self, small_scenario, tmp_path, corrupt):
        clean, bad = self._replay_one_corrupted(small_scenario, tmp_path, corrupt)
        # the bad message was placed, and only its frame-set was skipped
        assert bad["stale_messages"] == clean["stale_messages"]
        assert bad["skipped_framesets"] == clean["skipped_framesets"] + 1

    def test_uninformative_frameset_costs_one_frameset(self, small_scenario, tmp_path):
        # confidence 0 is valid on the wire, but a frame-set of nothing else
        # leaves the pose unconstrained: it is skipped, not trusted
        def corrupt(msg):
            for kp in msg["keypoints"]:
                kp["conf"] = 0.0

        clean, bad = self._replay_one_corrupted(small_scenario, tmp_path, corrupt,
                                                whole_frame=True)
        assert bad["stale_messages"] == clean["stale_messages"]
        assert bad["skipped_framesets"] == clean["skipped_framesets"] + 1

    def test_far_stamp_leaves_static_averaging_alone(self, small_scenario, tmp_path):
        # stamped 11 days before the run, the message forms a frame-set of
        # its own at the first waypoint, too far off to average with the rest
        def corrupt(msg):
            msg["stamp_ns"] = -10**15

        clean, bad = self._replay_one_corrupted(small_scenario, tmp_path, corrupt)
        assert bad["stale_messages"] == clean["stale_messages"]

    def test_diverged_solve_costs_one_frameset(self, small_scenario, tmp_path, monkeypatch):
        # detections that flatten_observations keeps cannot drive a solve to
        # a non-finite state, so the divergence is planted: the batched solve
        # of the frame-set that holds the marked confidence diverges
        marker, solve = 0.123, pipeline.solve_batch

        def diverging(block, config=None):
            return [SolverDiverged("planted") if (weight == marker).any() else est
                    for weight, est in zip(block.weight, solve(block, config))]

        def corrupt(msg):
            msg["keypoints"][0]["conf"] = marker

        monkeypatch.setattr(pipeline, "solve_batch", diverging)
        clean, bad = self._replay_one_corrupted(small_scenario, tmp_path, corrupt)
        assert bad["stale_messages"] == clean["stale_messages"]
        assert bad["skipped_framesets"] == clean["skipped_framesets"] + 1

    def test_absurd_pixels_cost_themselves(self, small_scenario, tmp_path):
        # u = 1e154 is finite, but it would swamp the objective of every
        # solve it joined: each such detection is dropped and counted, and
        # its frame-set is solved from the rest
        out = tmp_path / "run"
        cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)])
        lines = (out / "detections.jsonl").read_text().splitlines()
        for j in range(6):
            msg = json.loads(lines[j])
            msg["keypoints"][0]["u"] = 1e154
            lines[j] = json.dumps(msg)
        stream = tmp_path / "bad.jsonl"
        stream.write_text("\n".join(lines) + "\n")
        rc = cli.main(["replay", "--stream", str(stream),
                       "--scenario", str(small_scenario), "--out", str(tmp_path / "bad")])
        assert rc == 0
        clean = json.loads((out / "run_meta.json").read_text())["counters"]
        bad = json.loads((tmp_path / "bad" / "run_meta.json").read_text())["counters"]
        assert bad["rejected_detections"] == 6 and clean["rejected_detections"] == 0
        assert bad["skipped_framesets"] == clean["skipped_framesets"]

    def test_far_pixel_costs_only_itself(self, scenario_dir):
        """One keypoint of traj3's seed-7 stream (line 1501, camera 3 at
        t = 38.10 s) moved to u = 1e20 is dropped: the run equals a run on
        the stream without that keypoint, and counts the one detection."""
        config = load_config(scenario_dir / "traj3.json", {"seed": 7})
        lines = [message_to_json(m) for m in pipeline.simulate_detections(config)]
        far, cut = json.loads(lines[1500]), json.loads(lines[1500])
        far["keypoints"][0]["u"] = 1e20
        del cut["keypoints"][0]
        runs = {}
        for name, msg in (("far", far), ("cut", cut)):
            stream = lines[:1500] + [json.dumps(msg)] + lines[1501:]
            runs[name] = run_pipeline(config, [message_from_json(line) for line in stream])
        assert runs["far"].counters["rejected_detections"] == 1
        assert runs["cut"].counters["rejected_detections"] == 0
        stamp = far["stamp_ns"] * 1e-9
        for mode in ("raw", "gated_1frame", "averaged_5frames", "fused"):
            a, b = runs["far"].mode_trajectories[mode], runs["cut"].mode_trajectories[mode]
            assert a.stamps.tobytes() == b.stamps.tobytes(), mode
            assert (np.array([p.as_array() for p in a.poses]).tobytes()
                    == np.array([p.as_array() for p in b.poses]).tobytes()), mode
        assert np.abs(runs["far"].mode_trajectories["raw"].stamps - stamp).min() < 0.05

    def test_empty_stream_succeeds(self, small_scenario, tmp_path):
        stream = tmp_path / "empty.jsonl"
        stream.write_text("")
        rc = cli.main(["replay", "--stream", str(stream),
                       "--scenario", str(small_scenario), "--out", str(tmp_path / "o")])
        assert rc == 0


# any JSON value, NaN and the infinities included, as a corrupt field may hold;
# the edge values come first so that a short run meets them: non-integral and
# out-of-range integers, a pixel whose square overflows, a stamp days away
_JSON_VALUES = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.7, 2**63, True,
                     1e200, -10**15, 10**15]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                   max_size=3),
        max_leaves=4,
    ),
)
RECORDING_LINES = 60
FUZZ_EXAMPLES = 200
_MESSAGE_FIELDS = ("type", "camera_id", "stamp_ns", "keypoints")
_KEYPOINT_FIELDS = ("id", "u", "v", "conf")
_LINE = st.integers(0, 10**6)  # taken modulo the stream's line count
_FIELD_EDITS = st.lists(st.tuples(
    _LINE, _LINE, st.sampled_from(_MESSAGE_FIELDS + _KEYPOINT_FIELDS), _JSON_VALUES),
    max_size=2)
_LINE_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["drop", "duplicate"]), _LINE, st.just(0)),
    st.tuples(st.sampled_from(["swap", "truncate"]), _LINE, _LINE),
), max_size=3)


def _corrupt_stream(lines, field_edits, line_edits):
    """Apply field replacements to the parsed messages, then drop, duplicate,
    swap and truncate whole lines."""
    messages = [json.loads(line) for line in lines]
    for i, k, name, value in field_edits:
        msg = messages[i % len(messages)]
        kps = msg["keypoints"]
        if name in _MESSAGE_FIELDS:
            msg[name] = value
        elif isinstance(kps, list) and kps and isinstance(kps[k % len(kps)], dict):
            kps[k % len(kps)][name] = value
    lines = [json.dumps(m) for m in messages]
    for op, i, j in line_edits:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i][:j % max(len(lines[i]), 1)]
    return lines


class TestCorruptedStreamFuzz:
    """A corrupted recording replays to exit 0, with bad frame-sets counted
    and skipped, or to exit 2 naming the bad line; never to a traceback."""

    @pytest.fixture(scope="class")
    def recording(self, small_scenario, tmp_path_factory):
        out = tmp_path_factory.mktemp("recording")
        assert cli.main(["run", "--scenario", str(small_scenario), "--out", str(out)]) == 0
        return (out / "detections.jsonl").read_text().splitlines()[:RECORDING_LINES]

    @settings(derandomize=True, deadline=None, max_examples=FUZZ_EXAMPLES,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field_edits=_FIELD_EDITS, line_edits=_LINE_EDITS)
    def test_replay_exits_0_or_2(self, small_scenario, recording, tmp_path_factory,
                                 field_edits, line_edits):
        work = tmp_path_factory.getbasetemp() / "fuzz"
        work.mkdir(exist_ok=True)
        stream = work / "stream.jsonl"
        lines = _corrupt_stream(recording, field_edits, line_edits)
        stream.write_text("".join(line + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["replay", "--stream", str(stream), "--scenario", str(small_scenario),
                           "--out", str(work / "out")])
        assert rc in (0, 2), err.getvalue()
        if rc == 2:
            assert f"{stream}:" in err.getvalue()


class TestSimulationOnlyWhenRead:
    """A robot-only run without feedback reads no detection, so run_pipeline
    simulates none; camloc run still records the stream."""

    def test_robot_only_run_simulates_nothing(self, scenario_dir, monkeypatch):
        path = scenario_dir / "long_feedback.json"
        every_mode = run_pipeline(load_config(path, {"seed": 7, "feedback": "false"}))

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate_frame called")

        monkeypatch.setattr(pipeline, "simulate_frame", no_simulation)
        robot_only = run_pipeline(load_config(
            path, {"seed": 7, "feedback": "false", "modes": '["robot"]'}))
        assert set(robot_only.mode_trajectories) == {"robot"}
        ours, theirs = robot_only.mode_trajectories["robot"], every_mode.mode_trajectories["robot"]
        assert ours.stamps.tobytes() == theirs.stamps.tobytes()
        assert (np.array([p.as_array() for p in ours.poses]).tobytes()
                == np.array([p.as_array() for p in theirs.poses]).tobytes())

    @pytest.mark.parametrize("name,overrides,static_only", [
        ("long_feedback", {}, True),
        # samples 20 ms apart can share a 50 ms sync window, so every frame is
        # simulated; simulating only the static ones changes the tracks here
        ("long_feedback", {"trajectory.sample_dt_s": "0.02"}, False),
    ], ids=["long_feedback", "frames_within_a_window"])
    def test_feedback_run_simulates_only_static_frames(self, scenario_dir, monkeypatch,
                                                       name, overrides, static_only):
        """With feedback on and no per-frame mode, run_pipeline simulates only
        the static frames, when no two samples can share a frame-set. They
        are those frames of the whole stream, bit for bit, and the robot and
        fused tracks are those of a run on it."""
        config = load_config(scenario_dir / f"{name}.json", {
            "seed": 7, "modes": '["robot","fused"]', "feedback": "true", **overrides})
        samples = simulation.script_trajectory(config.trajectory)
        whole = pipeline.simulate_detections(config, samples)
        simulated, lines = [], []

        def recorded(batch, *args):
            """Records each batch's samples and messages, flattened."""
            messages = simulation.simulate_frame(batch, *args)
            simulated.extend(batch)
            lines.extend(message_to_json(m) for m in messages)
            return messages

        monkeypatch.setattr(pipeline, "simulate_frame", recorded)
        ours = run_pipeline(config)
        monkeypatch.undo()
        theirs = run_pipeline(config, whole)
        frames = samples[::config.frame_stride]
        static = [s for s in frames if s.is_static]
        assert len(static) < len(frames) / 2
        assert simulated == (static if static_only else frames)
        assert set(lines) <= {message_to_json(m) for m in whole}
        assert ours.counters["feedback_applications"] > 50
        for mode in ("robot", "fused"):
            a, b = ours.mode_trajectories[mode], theirs.mode_trajectories[mode]
            assert a.stamps.tobytes() == b.stamps.tobytes()
            assert (np.array([p.as_array() for p in a.poses]).tobytes()
                    == np.array([p.as_array() for p in b.poses]).tobytes())

    def test_robot_only_cli_run_records_the_stream(self, small_scenario, tmp_path):
        for name, extra in (("all", []), ("robot", ["--override", 'modes=["robot"]'])):
            assert cli.main(["run", "--scenario", str(small_scenario),
                             "--out", str(tmp_path / name)] + extra) == 0
        assert ((tmp_path / "robot" / "detections.jsonl").read_bytes()
                == (tmp_path / "all" / "detections.jsonl").read_bytes())
