"""Scenario configuration: JSON schema, validation, and bundled scenario
generation (camera rig, waypoint layout, and the evaluation trajectories)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .estimation import MIN_SEED_KEYPOINTS, GateThresholds, SolverConfig
from .geometry import CameraModel, PoseSE2, RigidTransform3, RobotModel, visible_keypoints
from .geometry import keypoints_world
from .simulation import (
    NoiseModel,
    OdometryNoise,
    TrajectoryScript,
    Waypoint,
    default_robot_model,
)
from .sync import SyncConfig, wire_int

ALL_MODES = ("robot", "raw", "gated_1frame", "averaged_5frames", "fused")


def make_camera(camera_id, position, yaw, pitch_down, fx=620.0, fy=620.0,
                cx=424.0, cy=240.0, width=848, height=480) -> CameraModel:
    """Build a camera from a mount position, heading and downward pitch.

    Camera frame follows the usual convention: z along the optical axis,
    x right, y down in the image.
    """
    cp, sp = math.cos(pitch_down), math.sin(pitch_down)
    cy_, sy_ = math.cos(yaw), math.sin(yaw)
    forward = np.array([cp * cy_, cp * sy_, -sp])
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rot_cw = np.stack([right, down, forward])  # world -> camera rows
    pos = np.asarray(position, dtype=float)
    return CameraModel(
        camera_id=camera_id,
        fx=fx,
        fy=fy,
        cx=cx,
        cy=cy,
        width=width,
        height=height,
        world_to_camera=RigidTransform3(rot_cw, -rot_cw @ pos),
    )


@dataclass
class ScenarioConfig:
    cameras: list
    robot_model: RobotModel
    trajectory: TrajectoryScript
    noise: NoiseModel
    odometry_noise: OdometryNoise
    sync: SyncConfig
    solver: SolverConfig
    gate: GateThresholds
    seed: int
    modes: tuple
    feedback: bool
    frame_stride: int = 1
    raw: dict = field(default_factory=dict)  # resolved JSON document

    def __post_init__(self):
        if not self.cameras:
            raise ConfigError("scenario needs at least one camera")
        if not self.modes:
            raise ConfigError("modes must be non-empty")
        for m in self.modes:
            if m not in ALL_MODES:
                raise ConfigError(f"unknown mode {m!r}")
        if self.frame_stride < 1:
            raise ConfigError("frame_stride must be >= 1")


def _require(d, key, where):
    if key not in d:
        raise ConfigError(f"missing {key!r} in {where}")
    return d[key]


def _check_keys(spec, known, where):
    """Reject a section that is not a JSON object or holds a key outside
    ``known``, naming the key by its dotted path."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where or 'scenario'} must be a JSON object")
    for key in spec:
        if key not in known:
            raise ConfigError(f"unknown config key {where + '.' * bool(where) + key!r}")


# Optional keys: JSON key -> (field, type). An absent key keeps the default
# of the dataclass or function the fields are passed to.
_CAMERA_OPTIONAL = {"fx_px": ("fx", float), "fy_px": ("fy", float), "cx_px": ("cx", float),
                    "cy_px": ("cy", float), "width_px": ("width", int), "height_px": ("height", int)}
_TRAJECTORY_OPTIONAL = {"speed_mps": ("speed", float), "turn_rate_radps": ("turn_rate", float),
                        "sample_dt_s": ("sample_dt", float)}
_STRIDE = {"frame_stride": ("frame_stride", int)}
_THETA = {"theta_rad": ("theta", float)}
_DWELL = {"dwell_s": ("dwell", float)}

_TOP_KEYS = ("seed", "modes", "feedback", "cameras", "robot_model", "trajectory",
             "noise", "odometry_noise", "sync", "solver", "gate")
_CAMERA_KEYS = ("camera_id", "position_m", "yaw_rad", "pitch_down_rad", *_CAMERA_OPTIONAL)
_ROBOT_KEYS = ("keypoints_m", "body_width_m")
_TRAJECTORY_KEYS = ("waypoints", *_TRAJECTORY_OPTIONAL, *_STRIDE)
_WAYPOINT_KEYS = ("waypoint_id", "x_m", "y_m", *_THETA, *_DWELL)

# Flat sections, every key optional.
_SECTIONS = {
    "noise": (NoiseModel, {
        "pixel_sigma_px": ("pixel_sigma", float),
        "dropout_prob": ("dropout_prob", float),
        "outlier_prob": ("outlier_prob", float),
        "outlier_spread_px": ("outlier_spread", float),
        "confidence_floor": ("confidence_floor", float),
        "timestamp_jitter_s": ("timestamp_jitter", float),
    }),
    "odometry_noise": (OdometryNoise, {
        "trans_sigma_per_sqrt_m": ("trans_sigma_per_meter", float),
        "rot_sigma_per_sqrt_m": ("rot_sigma_per_meter", float),
        "rot_sigma_per_sqrt_rad": ("rot_sigma_per_rad", float),
        "bias_trans_m_per_m": ("bias_trans", float),
        "bias_rot_rad_per_m": ("bias_rot", float),
    }),
    "sync": (SyncConfig, {
        "window_s": ("window", float),
        "max_open_sets": ("max_open_sets", int),
    }),
    "solver": (SolverConfig, {
        "max_iterations": ("max_iterations", int),
        "convergence_tol": ("convergence_tol", float),
        "lm_lambda_init": ("lm_lambda_init", float),
        "lm_lambda_scale": ("lm_lambda_scale", float),
        "huber_delta_px": ("huber_delta", float),
    }),
    "gate": (GateThresholds, {
        "d_theta_rad": ("d_theta", float),
        "d_depth_m": ("d_depth", float),
    }),
}


def _present(spec, fields) -> dict:
    """Keyword arguments for the optional keys that ``spec`` sets."""
    return {attr: conv(spec[key]) for key, (attr, conv) in fields.items() if key in spec}


def _section(doc, name):
    cls, fields = _SECTIONS[name]
    spec = doc.get(name, {})
    _check_keys(spec, fields, name)
    return cls(**_present(spec, fields))


def _camera_from_spec(spec, where) -> CameraModel:
    _check_keys(spec, _CAMERA_KEYS, where)
    try:
        return make_camera(
            camera_id=int(_require(spec, "camera_id", "camera")),
            position=_require(spec, "position_m", "camera"),
            yaw=float(_require(spec, "yaw_rad", "camera")),
            pitch_down=float(_require(spec, "pitch_down_rad", "camera")),
            **_present(spec, _CAMERA_OPTIONAL),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid camera spec: {exc}") from exc


def _robot_model_from_spec(spec) -> RobotModel:
    if spec == "default" or spec is None:
        return default_robot_model()
    _check_keys(spec, _ROBOT_KEYS, "robot_model")
    try:
        return RobotModel(
            keypoints=np.array(_require(spec, "keypoints_m", "robot_model")),
            body_width=float(_require(spec, "body_width_m", "robot_model")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid robot model: {exc}") from exc


def _trajectory_from_spec(spec) -> TrajectoryScript:
    _check_keys(spec, _TRAJECTORY_KEYS, "trajectory")
    wps = []
    for i, w in enumerate(_require(spec, "waypoints", "trajectory")):
        where = f"trajectory.waypoints[{i}]"
        _check_keys(w, _WAYPOINT_KEYS, where)
        pose = PoseSE2(float(_require(w, "x_m", "waypoint")),
                       float(_require(w, "y_m", "waypoint")), **_present(w, _THETA))
        label = wire_int(w.get("waypoint_id", i), f"{where}.waypoint_id")
        wps.append(Waypoint(pose=pose, label=label, **_present(w, _DWELL)))
    try:
        return TrajectoryScript(waypoints=wps, **_present(spec, _TRAJECTORY_OPTIONAL))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid trajectory: {exc}") from exc


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig."""
    _check_keys(doc, _TOP_KEYS, "")
    try:
        cameras = [_camera_from_spec(c, f"cameras[{i}]")
                   for i, c in enumerate(_require(doc, "cameras", "scenario"))]
        traj_spec = _require(doc, "trajectory", "scenario")
        return ScenarioConfig(
            cameras=cameras,
            robot_model=_robot_model_from_spec(doc.get("robot_model", "default")),
            trajectory=_trajectory_from_spec(traj_spec),
            noise=_section(doc, "noise"),
            odometry_noise=_section(doc, "odometry_noise"),
            sync=_section(doc, "sync"),
            solver=_section(doc, "solver"),
            gate=_section(doc, "gate"),
            seed=int(doc.get("seed", 0)),
            modes=tuple(doc.get("modes", list(ALL_MODES))),
            feedback=bool(doc.get("feedback", False)),
            raw=doc,
            **_present(traj_spec, _STRIDE),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from exc


def load_config(path, overrides=None) -> ScenarioConfig:
    """Load a scenario JSON file, applying dotted-path overrides first."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    for key, value in (overrides or {}).items():
        _apply_override(doc, key, value)
    return config_from_dict(doc)


def _apply_override(doc, dotted_key, value):
    parts = dotted_key.split(".")
    node = doc
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            node[p] = {}
        node = node[p]
    try:
        node[parts[-1]] = json.loads(value) if isinstance(value, str) else value
    except json.JSONDecodeError:
        node[parts[-1]] = value


def camera_visibility_count(pose: PoseSE2, cameras, model: RobotModel) -> int:
    """Number of cameras that see MIN_SEED_KEYPOINTS or more robot keypoints."""
    pts = keypoints_world(pose, model)
    return sum(int(visible_keypoints(cam, pts).sum()) >= MIN_SEED_KEYPOINTS for cam in cameras)


# -- bundled scenarios ----------------------------------------------------

ROOM_SIZE = (10.0, 8.0)
CAMERA_HEIGHT = 2.5
CAMERA_PITCH_DOWN = math.radians(36.0)


def default_camera_specs():
    """Four cameras at the room corners, 2.5 m high, aimed at the floor
    center. Their frustum overlap partitions the floor into regions seen by
    1, 2 and 4 cameras."""
    cx, cy = ROOM_SIZE[0] / 2.0, ROOM_SIZE[1] / 2.0
    mounts = [(0.4, 0.4), (ROOM_SIZE[0] - 0.4, 0.4),
              (ROOM_SIZE[0] - 0.4, ROOM_SIZE[1] - 0.4), (0.4, ROOM_SIZE[1] - 0.4)]
    specs = []
    for i, (mx, my) in enumerate(mounts):
        yaw = math.atan2(cy - my, cx - mx)
        specs.append(
            {
                "camera_id": i,
                "position_m": [mx, my, CAMERA_HEIGHT],
                "yaw_rad": round(yaw, 9),
                "pitch_down_rad": round(CAMERA_PITCH_DOWN, 9),
                "fx_px": 620.0,
                "fy_px": 620.0,
                "cx_px": 424.0,
                "cy_px": 240.0,
                "width_px": 848,
                "height_px": 480,
            }
        )
    return specs


# Seven waypoints; ids 1..7 to match the trajectory descriptions.
# WP 1 and WP 6 sit in single-camera regions, WP 2 and WP 4 in two-camera
# regions, the rest in four-camera regions, stably across headings
# (verified by camera_visibility_count in the test suite).
WAYPOINTS = {
    1: (1.2, 6.5, -math.pi / 2),
    2: (0.9, 3.5, 0.0),
    3: (3.0, 3.0, math.pi / 4),
    4: (9.1, 4.4, math.pi / 2),
    5: (7.0, 5.0, math.pi),
    6: (8.8, 1.5, math.pi),
    7: (5.0, 4.0, 0.0),
}

TRAJ1_ORDER = [1, 2, 3, 7, 5, 4, 6]
TRAJ2_ORDER = [6, 4, 5, 7, 3, 2, 1]
TRAJ3_ORDER = [2, 3, 5, 7, 4]  # omits the single-camera waypoints 1 and 6
# Loop order for the long feedback scenario: same five waypoints, ordered so
# that consecutive legs (including the loop-closure leg) stay short.
LONG_ORDER = [2, 7, 4, 5, 3]


def _waypoint_spec(wp_id, dwell):
    x, y, th = WAYPOINTS[wp_id]
    return {"waypoint_id": wp_id, "x_m": x, "y_m": y, "theta_rad": round(th, 9), "dwell_s": dwell}


def _scenario_doc(order, seed, dwell=2.0, loops=1, feedback=False, stride=1):
    wps = []
    for _ in range(loops):
        wps.extend(_waypoint_spec(w, dwell) for w in order)
    return {
        "seed": seed,
        "modes": list(ALL_MODES),
        "feedback": feedback,
        "cameras": default_camera_specs(),
        "robot_model": "default",
        "trajectory": {
            "speed_mps": 0.5,
            "turn_rate_radps": round(math.pi / 4, 9),
            "sample_dt_s": 0.1,
            "frame_stride": stride,
            "waypoints": wps,
        },
        "noise": {
            "pixel_sigma_px": 2.0,
            "dropout_prob": 0.05,
            "outlier_prob": 0.01,
            "outlier_spread_px": 50.0,
            "confidence_floor": 0.1,
            "timestamp_jitter_s": 0.002,
        },
        "odometry_noise": {
            "trans_sigma_per_sqrt_m": 0.0625,
            "rot_sigma_per_sqrt_m": 0.0125,
            "rot_sigma_per_sqrt_rad": 0.0375,
            "bias_trans_m_per_m": 0.0125,
            "bias_rot_rad_per_m": 0.005,
        },
        "sync": {"window_s": 0.05, "max_open_sets": 8},
        "solver": {
            "max_iterations": 50,
            "convergence_tol": 1e-10,
            "lm_lambda_init": 1e-3,
            "lm_lambda_scale": 10.0,
            "huber_delta_px": 5.0,
        },
        "gate": {"d_theta_rad": round(math.radians(15.0), 9), "d_depth_m": 0.30},
    }


def generate_scenarios(output_dir) -> list:
    """Write the bundled scenario files; returns the written paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    docs = {
        "traj1.json": _scenario_doc(TRAJ1_ORDER, seed=101),
        "traj2.json": _scenario_doc(TRAJ2_ORDER, seed=102),
        "traj3.json": _scenario_doc(TRAJ3_ORDER, seed=103),
        "long_feedback.json": _scenario_doc(
            LONG_ORDER, seed=104, dwell=3.0, loops=3, feedback=True, stride=2
        ),
    }
    paths = []
    for name, doc in docs.items():
        config_from_dict(doc)  # round-trip validation before writing
        path = out / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths.append(path)
    return paths
