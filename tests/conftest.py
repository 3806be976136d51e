import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from camloc import generate_scenarios, load_config
from camloc.scenario import make_camera
from camloc.simulation import default_robot_model


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenarios")
    generate_scenarios(out)
    return out


@pytest.fixture(scope="session")
def small_scenario(tmp_path_factory, scenario_dir):
    """traj3 truncated to two waypoints so CLI runs stay fast."""
    doc = json.loads((scenario_dir / "traj3.json").read_text())
    doc["trajectory"]["waypoints"] = doc["trajectory"]["waypoints"][:2]
    for wp in doc["trajectory"]["waypoints"]:
        wp["dwell_s"] = 1.0
    path = tmp_path_factory.mktemp("scen") / "small.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="session")
def traj1_config(scenario_dir):
    return load_config(scenario_dir / "traj1.json")


@pytest.fixture(scope="session")
def rig(traj1_config):
    return traj1_config.cameras


@pytest.fixture(scope="session")
def robot_model():
    return default_robot_model()


@pytest.fixture
def single_camera():
    return make_camera(
        camera_id=0, position=(0.0, 0.0, 2.5), yaw=math.radians(45.0),
        pitch_down=math.radians(30.0),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
