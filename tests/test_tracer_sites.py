"""The benchmark's tracer (bench/tracer.py, loaded read-only) still finds
every layer it wraps. It patches camloc functions at the module attributes
their callers resolve, so a refactor that calls one through another module
leaves that layer's metrics at 0 while the tracer still installs cleanly."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from camloc import cli, estimation
from camloc.geometry import PoseSE2
from camloc.scenario import WAYPOINTS
from camloc.simulation import GroundTruthSample, NoiseModel, simulate_frame
from camloc.sync import FrameSet

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"
# The single-camera gate is reached on no bundled scenario (see the ROADMAP item
# on making the single-camera gate do work).
NOT_REACHED = {"estimation.gate_single_view"}


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _sites(tracer):
    """(owner, attribute) of every patched site."""
    sites = [(importlib.import_module(mod), name.split(".", 1)[1])
             for name, mods in tracer.FUNCTION_SITES.items() for mod in mods]
    sites += [(getattr(importlib.import_module(mod), cls), attr)
              for mod, cls, attr in tracer.METHOD_SITES.values()]
    return sites


def test_every_traced_layer_records_spans(small_scenario, tmp_path, monkeypatch):
    tracer_mod = _load_tracer(monkeypatch)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in _sites(tracer_mod)]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        rc = cli.main(["run", "--scenario", str(small_scenario), "--out", str(tmp_path),
                       "--override", "feedback=true"])
    finally:
        tracer.uninstall()
    assert rc == 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    recorded = {span.name for span in tracer.spans}
    expected = set(tracer_mod.FUNCTION_SITES) | set(tracer_mod.METHOD_SITES)
    assert expected - NOT_REACHED - recorded == set()


def test_relocalization_spans_nest(rig, robot_model, monkeypatch):
    """initialize_global reaches its per-camera candidates and its final
    solve through the estimation module, so both are traced inside it."""
    sample = GroundTruthSample(0.0, PoseSE2(*WAYPOINTS[7]), True, 0)
    msgs = simulate_frame(sample, rig, robot_model, NoiseModel(timestamp_jitter=0.0),
                          np.random.default_rng(5))
    fs = FrameSet(anchor_stamp=0.0, per_camera={m.camera_id: m for m in msgs})
    tracer = _load_tracer(monkeypatch).Tracer()
    tracer.install()
    try:
        estimation.initialize_global(fs, rig, robot_model)
    finally:
        tracer.uninstall()
    (top,) = [i for i, span in enumerate(tracer.spans)
              if span.name == "estimation.initialize_global"]
    inner = [span.name for span in tracer.spans if span.parent == top]
    assert inner.count("estimation.single_view_candidate") >= 2
    assert inner[-1] == "estimation.solve_multiview"
