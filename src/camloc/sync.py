"""Software synchronization of per-camera detection messages into frame-sets.

Messages from each camera arrive with non-decreasing timestamps; the
synchronizer groups them into frame-sets whose member stamps fall within a
common window, and emits completed sets in strictly increasing anchor order.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class DetectionMessage:
    """One camera's detections at one stamp: row i of the three arrays
    holds one keypoint's id, sub-pixel (u, v) and confidence."""

    camera_id: int
    stamp: float  # seconds
    keypoints: np.ndarray  # (n,) keypoint ids
    pixels: np.ndarray  # (n, 2) (u, v) in pixels
    confidence: np.ndarray  # (n,) in [0, 1]

    def __post_init__(self):
        # reshape only when needed: a reshaped view keeps its input alive
        ids = np.asarray(self.keypoints, dtype=int)
        ids = ids if ids.ndim == 1 else ids.reshape(-1)
        pixels = np.asarray(self.pixels, dtype=float)
        pixels = pixels if pixels.ndim == 2 and pixels.shape[1] == 2 else pixels.reshape(-1, 2)
        conf = np.asarray(self.confidence, dtype=float)
        conf = conf if conf.ndim == 1 else conf.reshape(-1)
        object.__setattr__(self, "keypoints", ids)
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "confidence", conf)
        if not len(ids) == len(pixels) == len(conf):
            raise ValueError("keypoints, pixels and confidence differ in length")
        # checked on Python floats: at a few keypoints numpy's per-call cost
        # is most of the work
        if not all(map(math.isfinite, pixels.ravel().tolist())):
            bad = pixels[~np.isfinite(pixels).all(axis=1)][0]
            raise ValueError(f"non-finite pixel {bad.tolist()}")
        if not all(0.0 <= c <= 1.0 for c in conf.tolist()):  # NaN fails too
            raise ValueError("confidence outside [0, 1]")
        if len(set(ids.tolist())) != len(ids):
            raise ValueError("duplicate keypoint indices in message")


@dataclass
class FrameSet:
    anchor_stamp: float
    per_camera: dict = field(default_factory=dict)  # camera_id -> DetectionMessage


@dataclass
class SyncConfig:
    window: float = 0.05  # seconds
    max_open_sets: int = 8

    def __post_init__(self):
        if not self.window > 0:
            raise ValueError("window must be positive")
        if not self.max_open_sets >= 1:
            raise ValueError("max_open_sets must be at least 1")


class Synchronizer:
    """Assembles detection messages into frame-sets.

    A message joins the oldest open set whose anchor lies within one window
    of its stamp; otherwise it opens a new set. A set is emitted when every
    known camera has contributed, when a repeated camera forces it closed,
    or when a newer stamp implies its window has elapsed. Messages that can
    no longer be placed without breaking anchor monotonicity are counted as
    stale and dropped.
    """

    def __init__(self, camera_ids, config: SyncConfig | None = None):
        self.camera_ids = frozenset(camera_ids)
        self.config = config or SyncConfig()
        self._open = []  # list of FrameSet, sorted by anchor
        self._last_emitted_anchor = -np.inf
        self.stale_count = 0

    def ingest(self, message: DetectionMessage):
        """Feed one message; returns the list of frame-sets completed by it."""
        win = self.config.window
        out = []
        if message.stamp < self._last_emitted_anchor - win:
            self.stale_count += 1
            return out

        # A newer stamp closes every open set whose window has elapsed.
        while self._open and message.stamp > self._open[0].anchor_stamp + win:
            out.append(self._pop_front())

        target = None
        for fs in self._open:
            if abs(message.stamp - fs.anchor_stamp) <= win:
                target = fs
                break

        if target is not None and message.camera_id in target.per_camera:
            # Same camera twice: force-close up to and including that set.
            while self._open:
                closed = self._pop_front()
                out.append(closed)
                if closed is target:
                    break
            target = None

        if target is None:
            if message.stamp <= self._last_emitted_anchor:
                self.stale_count += 1
                return out
            target = FrameSet(anchor_stamp=message.stamp)
            self._open.append(target)
            self._open.sort(key=lambda fs: fs.anchor_stamp)

        target.per_camera[message.camera_id] = message

        if set(target.per_camera) >= self.camera_ids:
            while self._open:
                closed = self._pop_front()
                out.append(closed)
                if closed is target:
                    break

        while len(self._open) > self.config.max_open_sets:
            out.append(self._pop_front())
        return out

    def flush(self):
        """Emit all open sets in anchor order and reset state."""
        out = []
        while self._open:
            out.append(self._pop_front())
        return out

    def _pop_front(self) -> FrameSet:
        fs = self._open.pop(0)
        self._last_emitted_anchor = fs.anchor_stamp
        return fs


def nearest_stamp_index(stamps, queries) -> np.ndarray:
    """Index of the stamp nearest to each query: the smallest |Δt|, the
    earlier stamp on a tie, exactly as ``np.argmin(np.abs(stamps - q))``.

    stamps must be non-empty and strictly increasing.
    """
    stamps = np.asarray(stamps, dtype=float)
    queries = np.asarray(queries, dtype=float)
    # Strictly increasing stamps make |stamps - q| fall then rise, so the
    # minimum sits at one of the two stamps that bracket q.
    hi = np.minimum(np.searchsorted(stamps, queries), len(stamps) - 1)
    lo = np.maximum(hi - 1, 0)
    take_lo = np.abs(stamps[lo] - queries) <= np.abs(stamps[hi] - queries)
    return np.where(take_lo, lo, hi)


def stamp_to_ns(stamp: float) -> int:
    return int(round(stamp * 1e9))


def ns_to_stamp(stamp_ns: int) -> float:
    return stamp_ns * 1e-9


def message_to_json(message: DetectionMessage) -> str:
    """Serialize a message to the one-line JSONL wire format: the line
    json.dumps writes with separators (",", ":"), formatted directly, since
    json writes an int or a finite float as its repr. DetectionMessage
    admits no non-finite value."""
    keypoints = ",".join(
        f'{{"id":{j!r},"u":{u!r},"v":{v!r},"conf":{c!r}}}'
        for j, (u, v), c in zip(message.keypoints.tolist(), message.pixels.tolist(),
                                message.confidence.tolist()))
    return (f'{{"type":"detections","camera_id":{int(message.camera_id)!r},'
            f'"stamp_ns":{stamp_to_ns(message.stamp)!r},"keypoints":[{keypoints}]}}')


def wire_int(value, name) -> int:
    """An integer field of a message or a scenario, which must hold an
    integral 64-bit value: Infinity, 1.7, true or "1" raises ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -2**63 <= value < 2**63 or not float(value).is_integer()):
        raise ValueError(f"{name} {value!r} is not a 64-bit integer")
    return int(value)


def wire_float(value, name) -> float:
    """A number field of a message or a scenario, which must be a finite
    JSON number: NaN, Infinity, true or "1.5" raises ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} {value!r} is not a finite number")
    return float(value)


def wire_bool(value, name) -> bool:
    """A flag of a scenario, which must be JSON true or false: 0, "false" or
    null raises ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not true or false")
    return value


def message_from_json(line: str) -> DetectionMessage:
    """Parse one JSONL line; raises ValueError on malformed input."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("type") != "detections":
        raise ValueError(f"unexpected message type {payload.get('type')!r}")
    kps = payload["keypoints"]
    if not isinstance(kps, list):
        raise ValueError(f"keypoints must be a JSON list, got {type(kps).__name__}")
    return DetectionMessage(
        camera_id=wire_int(payload["camera_id"], "camera_id"),
        stamp=ns_to_stamp(wire_int(payload["stamp_ns"], "stamp_ns")),
        keypoints=[wire_int(k["id"], "keypoint id") for k in kps],
        pixels=[(wire_float(k["u"], "u"), wire_float(k["v"], "v")) for k in kps],
        confidence=[wire_float(k["conf"], "conf") for k in kps],
    )
