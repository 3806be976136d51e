"""Span tracing of camloc's public functions, installed from outside.

The tracer replaces each traced function at the names its callers resolve
(module attributes and class methods) with a wrapper that records one span:
name, start, end, parent span and operation id. Spans stay in memory until
the run ends. Nothing under ``src/`` is edited; ``uninstall`` puts every
original back, so untraced code runs exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# span name -> modules whose attribute of the same function name callers
# resolve. The bench's own workloads call through the defining module, so
# that module is listed wherever the bench calls the function directly.
FUNCTION_SITES = {
    "simulation.simulate_frame": ("camloc.pipeline",),
    "estimation.solve_multiview": ("camloc.pipeline", "camloc.estimation"),
    "estimation.initialize_global": ("camloc.pipeline", "camloc.estimation"),
    "estimation.single_view_candidate": ("camloc.estimation",),
    "estimation.gate_single_view": ("camloc.pipeline",),
    "estimation.average_estimates": ("camloc.pipeline",),
    "scenario.camera_visibility_count": ("camloc.pipeline", "camloc.scenario"),
    "scenario.load_config": ("camloc.cli", "camloc.scenario"),
    "evaluation.procrustes_align": ("camloc.pipeline", "camloc.evaluation"),
    "evaluation.translation_rmse": ("camloc.pipeline", "camloc.evaluation"),
    "evaluation.error_over_distance": ("camloc.pipeline",),
    "evaluation.waypoint_errors": ("camloc.pipeline",),
    "pipeline.run_pipeline": ("camloc.cli", "camloc.pipeline"),
    "pipeline.write_outputs": ("camloc.cli",),
}

# span name -> (module, class, method)
METHOD_SITES = {
    "posegraph.optimize": ("camloc.posegraph", "PoseGraph", "optimize"),
    "posegraph.nearest_node": ("camloc.posegraph", "PoseGraph", "nearest_node"),
    "sync.ingest": ("camloc.sync", "Synchronizer", "ingest"),
    "sync.flush": ("camloc.sync", "Synchronizer", "flush"),
}


def _probe(name, args, result):
    """Counts recorded at a layer boundary, from the call's arguments and
    return value."""
    if name == "simulation.simulate_frame":
        return {"messages": len(result)}
    if name in ("sync.ingest", "sync.flush"):
        return {"framesets": len(result), "placed": sum(len(fs.per_camera) for fs in result)}
    if name == "estimation.solve_multiview":
        return {"iterations": int(result.n_iterations)}
    if name == "estimation.gate_single_view":
        return {"gated": bool(result.gated)}
    if name == "posegraph.optimize":
        graph = args[0]
        return {"nodes": len(graph.nodes), "unary_edges": len(graph.unary_edges)}
    if name == "pipeline.run_pipeline":
        c = result.counters
        return {"skipped_framesets": int(c["skipped_framesets"]),
                "stale_messages": int(c["stale_messages"])}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.attrs.update(_probe(name, args, result))
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, modules in FUNCTION_SITES.items():
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
        for name, (mod_name, cls_name, attr) in METHOD_SITES.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write all spans as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, cursor = 0.0, span.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[k].start, cursor)
            hi = min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


# posegraph.optimize latency buckets by node count at call time
NODE_BUCKETS = (("nodes_lt500", 0, 500), ("nodes_500_1000", 500, 1000),
                ("nodes_ge1000", 1000, float("inf")))


def _pct(values, q, scale):
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from a list of spans."""
    selfs = self_times(spans)
    by_name = {}
    for span, self_s in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, self_s))

    def durations(name):
        return [s.end - s.start for s, _ in by_name.get(name, [])]

    def busy(name):
        return float(sum(durations(name)))

    def self_sum(name):
        return float(sum(x for _, x in by_name.get(name, [])))

    def calls(name):
        return len(by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s, _ in by_name.get(name, []))

    m = {}
    for name in ("simulation.simulate_frame", "sync.ingest"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.us_p50"] = (_pct(durations(name), 50, 1e6), "us")
    m["simulation.messages_out"] = (attr_sum("simulation.simulate_frame", "messages"), "count")
    m["sync.framesets_out"] = (
        attr_sum("sync.ingest", "framesets") + attr_sum("sync.flush", "framesets"), "count")
    m["sync.stale_messages"] = (attr_sum("pipeline.run_pipeline", "stale_messages"), "count")
    placed = attr_sum("sync.ingest", "placed") + attr_sum("sync.flush", "placed")
    n_in = calls("sync.ingest")
    m["sync.placed_share"] = (placed / n_in if n_in else 0.0, "share")

    for name in ("estimation.solve_multiview", "estimation.initialize_global"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.ms_p50"] = (_pct(durations(name), 50, 1e3), "ms")
        m[f"{name}.ms_p95"] = (_pct(durations(name), 95, 1e3), "ms")
    iters = attr_sum("estimation.solve_multiview", "iterations")
    m["estimation.lm_iterations"] = (iters, "count")
    m["estimation.us_per_lm_iteration"] = (
        busy("estimation.solve_multiview") / iters * 1e6 if iters else 0.0, "us")
    m["estimation.single_view_candidate.calls"] = (calls("estimation.single_view_candidate"), "count")
    m["estimation.single_view_candidate.busy_s"] = (busy("estimation.single_view_candidate"), "s")
    gate_calls = calls("estimation.gate_single_view")
    fired = attr_sum("estimation.gate_single_view", "gated")
    m["estimation.gate_single_view.calls"] = (gate_calls, "count")
    m["estimation.gate_fired"] = (fired, "count")
    m["estimation.gate_fire_share"] = (fired / gate_calls if gate_calls else 0.0, "share")
    # the pipeline counts skipped frame-sets itself; a frame-set the bench
    # hands straight to initialize_global is skipped when the call raises
    direct_reloc_errors = sum(
        1 for s, _ in by_name.get("estimation.initialize_global", [])
        if s.parent is None and "error" in s.attrs)
    m["estimation.skipped_framesets"] = (
        attr_sum("pipeline.run_pipeline", "skipped_framesets") + direct_reloc_errors, "count")
    m["estimation.average_estimates.busy_s"] = (busy("estimation.average_estimates"), "s")

    opt = by_name.get("posegraph.optimize", [])
    m["posegraph.optimize.calls"] = (len(opt), "count")
    m["posegraph.optimize.busy_s"] = (busy("posegraph.optimize"), "s")
    m["posegraph.optimize.ms_p50"] = (_pct(durations("posegraph.optimize"), 50, 1e3), "ms")
    m["posegraph.optimize.ms_p95"] = (_pct(durations("posegraph.optimize"), 95, 1e3), "ms")
    for label, lo, hi in NODE_BUCKETS:
        d = [s.end - s.start for s, _ in opt if lo <= s.attrs["nodes"] < hi]
        m[f"posegraph.optimize.ms_p50.{label}"] = (_pct(d, 50, 1e3), "ms")
    m["posegraph.nodes_final"] = (max((s.attrs["nodes"] for s, _ in opt), default=0), "count")
    m["posegraph.unary_edges_final"] = (
        max((s.attrs["unary_edges"] for s, _ in opt), default=0), "count")
    m["posegraph.nearest_node.busy_s"] = (busy("posegraph.nearest_node"), "s")

    for fn in ("procrustes_align", "translation_rmse", "error_over_distance", "waypoint_errors"):
        m[f"evaluation.{fn}.busy_s"] = (busy(f"evaluation.{fn}"), "s")
    for fn in ("run_pipeline", "write_outputs"):
        m[f"pipeline.{fn}.busy_s"] = (busy(f"pipeline.{fn}"), "s")
        m[f"pipeline.{fn}.self_s"] = (self_sum(f"pipeline.{fn}"), "s")
    m["scenario.load_config.busy_s"] = (busy("scenario.load_config"), "s")
    m["scenario.camera_visibility_count.busy_s"] = (busy("scenario.camera_visibility_count"), "s")
    return m


def self_time_by_layer(spans):
    """Total self time per span name, for the report's ranking."""
    out = {}
    for span, self_s in zip(spans, self_times(spans)):
        out[span.name] = out.get(span.name, 0.0) + self_s
    return out
