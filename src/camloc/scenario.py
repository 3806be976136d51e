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
from .geometry import CameraModel, PoseSE2, RigidTransform3, RobotModel, project_robot
from .simulation import (
    ODOMETRY_SIGMA_MAX,
    NoiseModel,
    OdometryNoise,
    TrajectoryScript,
    Waypoint,
    default_robot_model,
)
from .sync import SyncConfig, wire_bool, wire_float, wire_int

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


@dataclass(kw_only=True)
class ScenarioConfig:
    cameras: list
    robot_model: RobotModel = field(default_factory=default_robot_model)
    trajectory: TrajectoryScript
    noise: NoiseModel = field(default_factory=NoiseModel)
    odometry_noise: OdometryNoise = field(default_factory=OdometryNoise)
    sync: SyncConfig = field(default_factory=SyncConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    gate: GateThresholds = field(default_factory=GateThresholds)
    seed: int = 0
    modes: tuple = ALL_MODES
    feedback: bool = False
    frame_stride: int
    raw: dict = field(default_factory=dict)  # resolved JSON document

    def __post_init__(self):
        self.modes = tuple(self.modes)
        if not self.cameras:
            raise ConfigError("scenario needs at least one camera")
        ids = [cam.camera_id for cam in self.cameras]
        for i, cam_id in enumerate(ids):
            if ids.index(cam_id) < i:
                raise ConfigError(f"cameras[{i}].camera_id {cam_id} repeats "
                                  f"cameras[{ids.index(cam_id)}].camera_id")
        if not self.modes:
            raise ConfigError("modes must be non-empty")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")
        if self.frame_stride < 1:
            raise ConfigError("trajectory.frame_stride must be >= 1")


# The JSON schema. A converter takes a JSON value and its dotted path and
# returns a field's value, or raises ValueError naming that path. Each JSON
# object has one table: JSON key -> (field, converter, required).


def _fields(spec, table, where) -> dict:
    """Keyword arguments converted from the JSON object ``spec`` by
    ``table``, whose dotted path is ``where``. A field of None spreads the
    converter's dict of keyword arguments into the result."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where or 'scenario'} must be a JSON object")
    prefix = f"{where}." if where else ""
    for key in spec:
        if key not in table:
            raise ConfigError(f"unknown config key {prefix + key!r}")
    kwargs = {}
    for key, (name, convert, required) in table.items():
        path = prefix + key
        if key not in spec:
            if required:
                raise ConfigError(f"missing {path!r}")
            continue
        try:
            value = convert(spec[key], path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        kwargs.update(value if name is None else {name: value})
    return kwargs


def _object(build, table):
    """A converter from a JSON object to ``build(**fields)``; a ValueError
    from ``build``'s own checks is prefixed with the object's dotted path."""
    def convert(spec, where):
        kwargs = _fields(spec, table, where)
        try:
            return build(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return convert


def _list(item, length=None):
    """A converter from a JSON list whose items convert by ``item``; the
    list must hold ``length`` items when that is given."""
    def convert(value, where):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise ValueError(f"{where} must be a JSON list"
                             + (f" of {length} items" if length else ""))
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return convert


def _mode(value, where) -> str:
    if value not in ALL_MODES:
        raise ValueError(f"{where} {value!r} is not one of {', '.join(ALL_MODES)}")
    return value


def _odometry_sigma(value, where) -> float:
    """An OdometryNoise sigma; one out of range is named by its dotted path."""
    sigma = wire_float(value, where)
    if not 0 <= sigma <= ODOMETRY_SIGMA_MAX:
        raise ValueError(f"{where} {value!r} is not in [0, {ODOMETRY_SIGMA_MAX:.3g}]")
    return sigma


def _waypoint(x, y, theta=0.0, **kwargs) -> Waypoint:
    return Waypoint(pose=PoseSE2(x, y, theta), **kwargs)


def _trajectory(frame_stride=1, **kwargs) -> dict:
    """ScenarioConfig's fields from the trajectory section, which also holds
    the stride of camera frames over trajectory samples."""
    return {"trajectory": TrajectoryScript(**kwargs), "frame_stride": frame_stride}


_VECTOR3 = _list(wire_float, 3)
_CUSTOM_ROBOT = _object(RobotModel, {
    "keypoints_m": ("keypoints", _list(_VECTOR3), True),
    "body_width_m": ("body_width", wire_float, True),
})


def _robot_model(spec, where) -> RobotModel:
    return default_robot_model() if spec in ("default", None) else _CUSTOM_ROBOT(spec, where)


_TOP = {
    "seed": ("seed", wire_int, False),
    "modes": ("modes", _list(_mode), False),
    "feedback": ("feedback", wire_bool, False),
    "cameras": ("cameras", _list(_object(make_camera, {
        "camera_id": ("camera_id", wire_int, True), "position_m": ("position", _VECTOR3, True),
        "yaw_rad": ("yaw", wire_float, True), "pitch_down_rad": ("pitch_down", wire_float, True),
        "fx_px": ("fx", wire_float, False), "fy_px": ("fy", wire_float, False),
        "cx_px": ("cx", wire_float, False), "cy_px": ("cy", wire_float, False),
        "width_px": ("width", wire_int, False), "height_px": ("height", wire_int, False),
    })), True),
    "robot_model": ("robot_model", _robot_model, False),
    "trajectory": (None, _object(_trajectory, {
        "waypoints": ("waypoints", _list(_object(_waypoint, {
            "waypoint_id": ("label", wire_int, False),
            "x_m": ("x", wire_float, True), "y_m": ("y", wire_float, True),
            "theta_rad": ("theta", wire_float, False), "dwell_s": ("dwell", wire_float, False),
        })), True),
        "speed_mps": ("speed", wire_float, False),
        "turn_rate_radps": ("turn_rate", wire_float, False),
        "sample_dt_s": ("sample_dt", wire_float, False),
        "frame_stride": ("frame_stride", wire_int, False),
    }), True),
    "noise": ("noise", _object(NoiseModel, {
        "pixel_sigma_px": ("pixel_sigma", wire_float, False),
        "dropout_prob": ("dropout_prob", wire_float, False),
        "outlier_prob": ("outlier_prob", wire_float, False),
        "outlier_spread_px": ("outlier_spread", wire_float, False),
        "confidence_floor": ("confidence_floor", wire_float, False),
        "timestamp_jitter_s": ("timestamp_jitter", wire_float, False),
    }), False),
    "odometry_noise": ("odometry_noise", _object(OdometryNoise, {
        "trans_sigma_per_sqrt_m": ("trans_sigma_per_meter", _odometry_sigma, False),
        "rot_sigma_per_sqrt_m": ("rot_sigma_per_meter", _odometry_sigma, False),
        "rot_sigma_per_sqrt_rad": ("rot_sigma_per_rad", _odometry_sigma, False),
        "bias_trans_m_per_m": ("bias_trans", wire_float, False),
        "bias_rot_rad_per_m": ("bias_rot", wire_float, False),
    }), False),
    "sync": ("sync", _object(SyncConfig, {
        "window_s": ("window", wire_float, False),
        "max_open_sets": ("max_open_sets", wire_int, False),
    }), False),
    "solver": ("solver", _object(SolverConfig, {
        "max_iterations": ("max_iterations", wire_int, False),
        "convergence_tol": ("convergence_tol", wire_float, False),
        "lm_lambda_init": ("lm_lambda_init", wire_float, False),
        "lm_lambda_scale": ("lm_lambda_scale", wire_float, False),
        "huber_delta_px": ("huber_delta", wire_float, False),
    }), False),
    "gate": ("gate", _object(GateThresholds, {
        "d_theta_rad": ("d_theta", wire_float, False), "d_depth_m": ("d_depth", wire_float, False),
    }), False),
}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a ScenarioConfig."""
    return ScenarioConfig(**_fields(doc, _TOP, ""), raw=doc)


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
    """Set ``dotted_key`` in ``doc``, creating each object missing on its
    path; a value on the path that is not an object is an error."""
    *path, last = dotted_key.split(".")
    node = doc
    for depth in range(len(path) + 1):
        if not isinstance(node, dict):
            where = ".".join(path[:depth]) or "the scenario"
            raise ConfigError(f"override {dotted_key!r}: {where} is not a JSON object")
        if depth < len(path):
            node = node.setdefault(path[depth], {})
    try:
        node[last] = json.loads(value) if isinstance(value, str) else value
    except json.JSONDecodeError:
        node[last] = value


def camera_visibility_count(pose: PoseSE2, cameras, model: RobotModel) -> int:
    """Number of cameras that see MIN_SEED_KEYPOINTS or more robot keypoints."""
    _, visible = project_robot(pose, cameras, model)
    return int((visible.sum(axis=1) >= MIN_SEED_KEYPOINTS).sum())


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
