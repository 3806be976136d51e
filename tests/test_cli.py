import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camloc import cli, pipeline
from camloc.errors import ConfigError, SolverDiverged
from camloc.pipeline import run_pipeline
from camloc.posegraph import PoseGraph
from camloc.scenario import config_from_dict, generate_scenarios, load_config

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
        with pytest.raises(ConfigError, match=re.escape(f"missing {key!r} in waypoint")):
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
        # the simulator's draws updates the digest openly.
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(scenario_dir / "traj1.json"),
                         "--out", str(out), "--seed", "7"]) == 0
        digest = hashlib.sha256((out / "detections.jsonl").read_bytes()).hexdigest()
        assert digest == "5ad84708590ec13bf9d00ae9b0cdd8f2cce75b05aaced79e004fc3f2e6e3730f"

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
        if feedback:
            assert solves == calls["add_camera_estimate"] + 1
        else:
            assert solves == 1

    def test_solver_divergence_exit_code(self, small_scenario, tmp_path, monkeypatch):
        def boom(config, messages=None):
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
    ], ids=["not_json", "list", "number", "string", "null", "infinite_stamp",
            "infinite_camera", "infinite_id", "fractional_id"])
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

    def test_diverged_solve_costs_one_frameset(self, small_scenario, tmp_path):
        # a pixel of 1e200 makes the squared residual overflow, so the solve
        # of that frame-set ends in a non-finite state and diverges
        def corrupt(msg):
            msg["keypoints"][0]["u"] = 1e200

        clean, bad = self._replay_one_corrupted(small_scenario, tmp_path, corrupt)
        assert bad["stale_messages"] == clean["stale_messages"]
        assert bad["skipped_framesets"] == clean["skipped_framesets"] + 1

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

    def test_robot_only_cli_run_records_the_stream(self, small_scenario, tmp_path):
        for name, extra in (("all", []), ("robot", ["--override", 'modes=["robot"]'])):
            assert cli.main(["run", "--scenario", str(small_scenario),
                             "--out", str(tmp_path / name)] + extra) == 0
        assert ((tmp_path / "robot" / "detections.jsonl").read_bytes()
                == (tmp_path / "all" / "detections.jsonl").read_bytes())
