"""Software synchronization of per-camera detection messages into frame-sets.

Messages from each camera arrive with non-decreasing timestamps; the
synchronizer groups them into frame-sets whose member stamps fall within a
common window, and emits completed sets in strictly increasing anchor order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class KeypointObservation:
    index: int
    pixel: np.ndarray  # (u, v) in pixels, sub-pixel
    confidence: float

    def __post_init__(self):
        pixel = np.asarray(self.pixel, dtype=float).reshape(2)
        object.__setattr__(self, "pixel", pixel)
        if not (math.isfinite(pixel[0]) and math.isfinite(pixel[1])):
            raise ValueError(f"non-finite pixel {pixel.tolist()}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence outside [0, 1]")


@dataclass(frozen=True)
class DetectionMessage:
    camera_id: int
    stamp: float  # seconds
    keypoints: tuple

    def __post_init__(self):
        kps = tuple(self.keypoints)
        object.__setattr__(self, "keypoints", kps)
        ids = [k.index for k in kps]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate keypoint indices in message")


@dataclass
class FrameSet:
    anchor_stamp: float
    per_camera: dict = field(default_factory=dict)  # camera_id -> DetectionMessage

    @property
    def n_cameras(self) -> int:
        return len(self.per_camera)

    @property
    def n_keypoints(self) -> int:
        return sum(len(m.keypoints) for m in self.per_camera.values())


@dataclass
class SyncConfig:
    window: float = 0.05  # seconds
    max_open_sets: int = 8

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("window must be positive")


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
    """Serialize a message to the one-line JSONL wire format."""
    payload = {
        "type": "detections",
        "camera_id": int(message.camera_id),
        "stamp_ns": stamp_to_ns(message.stamp),
        "keypoints": [
            {
                "id": int(k.index),
                "u": float(k.pixel[0]),
                "v": float(k.pixel[1]),
                "conf": float(k.confidence),
            }
            for k in message.keypoints
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def message_from_json(line: str) -> DetectionMessage:
    """Parse one JSONL line; raises ValueError on malformed input."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("type") != "detections":
        raise ValueError(f"unexpected message type {payload.get('type')!r}")
    kps = tuple(
        KeypointObservation(int(k["id"]), np.array([k["u"], k["v"]]), float(k["conf"]))
        for k in payload["keypoints"]
    )
    return DetectionMessage(
        camera_id=int(payload["camera_id"]),
        stamp=ns_to_stamp(int(payload["stamp_ns"])),
        keypoints=kps,
    )
