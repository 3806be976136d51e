"""Tests of the benchmark itself: input determinism, self-time arithmetic,
metric names against BENCHMARK.json, and refusal to run without sources.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

workloads, tracer = run._load_camloc()

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _inputs(cls, seed, tmp_path):
    w = cls(run.ROOT, seed, tmp_path)
    w.setup()
    return w.inputs_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = _inputs(cls, 3, tmp_path)
    assert _inputs(cls, 3, tmp_path) == first
    assert _inputs(cls, 4, tmp_path) != first


def _span(name, start, end, parent=None):
    return tracer.Span(name, start, end, parent, "op0")


def test_self_time_subtracts_children():
    spans = [
        _span("pipeline.run_pipeline", 0.0, 10.0),
        _span("estimation.solve_multiview", 1.0, 4.0, parent=0),
        _span("estimation.single_view_candidate", 2.0, 3.0, parent=1),
        _span("posegraph.optimize", 5.0, 7.0, parent=0),
        _span("pipeline.write_outputs", 11.0, 12.0),
    ]
    spans[3].attrs = {"nodes": 700, "unary_edges": 9}
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])
    m = tracer.layer_metrics(spans)
    assert m["pipeline.run_pipeline.busy_s"][0] == pytest.approx(10.0)
    assert m["pipeline.run_pipeline.self_s"][0] == pytest.approx(5.0)
    assert m["pipeline.write_outputs.self_s"][0] == pytest.approx(1.0)
    assert m["posegraph.optimize.ms_p50.nodes_500_1000"][0] == pytest.approx(2000.0)
    assert m["posegraph.optimize.ms_p50.nodes_lt500"][0] == 0.0
    assert m["posegraph.nodes_final"][0] == 700


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 4.0), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 5.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_restores_originals():
    import camloc.cli
    import camloc.posegraph

    before = (camloc.cli.run_pipeline, camloc.posegraph.PoseGraph.__dict__["optimize"])
    tr = tracer.Tracer()
    tr.install()
    assert camloc.cli.run_pipeline is not before[0]
    tr.uninstall()
    assert (camloc.cli.run_pipeline, camloc.posegraph.PoseGraph.__dict__["optimize"]) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_declared_metrics(name, trace):
    correct, attempted, failed, metrics, _ = run.measure(
        name, 5, 0.0, trace, min_ops=1, trace_ops=1)
    # one relocalization may miss the tolerance and fail the run-level
    # success-share check, so `correct` is asserted only where it cannot
    assert attempted == 1 and failed == 0
    assert correct or (name == "relocalize" and not trace)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert all(math.isfinite(v) for v, _ in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "relocalize", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
