import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camloc.sync import (
    DetectionMessage,
    FrameSet,
    SyncConfig,
    Synchronizer,
    message_from_json,
    message_to_json,
    nearest_stamp_index,
    ns_to_stamp,
    stamp_to_ns,
)


def _msg(camera_id, stamp, n_kp=1):
    return DetectionMessage(camera_id, stamp, range(n_kp),
                            [[10.0 * i, 20.0] for i in range(n_kp)], [0.9] * n_kp)


class TestMessageInvariants:
    def test_arrays(self):
        msg = _msg(0, 0.0, n_kp=3)
        assert msg.keypoints.dtype.kind == "i" and msg.keypoints.shape == (3,)
        assert msg.pixels.shape == (3, 2) and msg.confidence.shape == (3,)
        empty = DetectionMessage(0, 0.0, [], [], [])
        assert empty.pixels.shape == (0, 2) and len(empty.keypoints) == 0

    def test_built_from_lists_retains_no_base(self):
        """Lists as simulate_frame passes them become arrays that own their
        data, not views that keep a temporary array alive."""
        ids = [np.int64(2), np.int64(5)]
        pixels = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        msg = DetectionMessage(0, 0.0, ids, pixels, [0.5, 0.9])
        for array in (msg.keypoints, msg.pixels, msg.confidence):
            assert array.base is None
        assert msg.pixels.shape == (2, 2)

    def test_flat_pixels_reshaped(self):
        msg = DetectionMessage(0, 0.0, [0, 1, 2], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0] * 3)
        assert msg.pixels.shape == (3, 2)
        np.testing.assert_array_equal(msg.pixels, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_duplicate_keypoint_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DetectionMessage(0, 0.0, [0, 0], [[1, 2], [3, 4]], [0.5, 0.5])

    def test_confidence_range(self):
        with pytest.raises(ValueError, match="confidence"):
            DetectionMessage(0, 0.0, [0], [[1, 2]], [1.5])

    def test_non_finite_pixel(self):
        with pytest.raises(ValueError, match="non-finite"):
            DetectionMessage(0, 0.0, [0, 1], [[1, 2], [np.inf, 4]], [0.5, 0.5])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="length"):
            DetectionMessage(0, 0.0, [0, 1], [[1, 2], [3, 4]], [0.5])


class TestIngest:
    def test_all_within_window(self):
        sync = Synchronizer([0, 1, 2, 3], SyncConfig(window=0.05))
        out = []
        for cam, t in [(0, 0.0), (1, 0.010), (2, 0.020), (3, 0.030)]:
            out.extend(sync.ingest(_msg(cam, t)))
        assert len(out) == 1
        fs = out[0]
        assert len(fs.per_camera) == 4
        assert fs.anchor_stamp == 0.0  # anchor is the first member's stamp

    def test_forced_close_on_repeated_camera(self):
        sync = Synchronizer([1, 2, 3], SyncConfig(window=0.05))
        out = []
        out.extend(sync.ingest(_msg(1, 0.0)))
        out.extend(sync.ingest(_msg(2, 0.005)))
        assert out == []
        out.extend(sync.ingest(_msg(1, 0.070)))
        assert len(out) == 1
        assert set(out[0].per_camera) == {1, 2}

    def test_stale_message_counted_and_dropped(self):
        sync = Synchronizer([0, 1], SyncConfig(window=0.05))
        done = []
        done.extend(sync.ingest(_msg(0, 1.0)))
        done.extend(sync.ingest(_msg(1, 1.01)))
        assert len(done) == 1
        before = sync.stale_count
        assert sync.ingest(_msg(0, 0.5)) == []
        assert sync.stale_count == before + 1

    def test_window_elapse_closes_earlier_sets(self):
        sync = Synchronizer([0, 1], SyncConfig(window=0.05))
        assert sync.ingest(_msg(0, 0.0)) == []
        out = sync.ingest(_msg(0, 0.2))
        assert len(out) == 1 and set(out[0].per_camera) == {0}

    def test_flush_empties_state(self):
        sync = Synchronizer([0, 1], SyncConfig(window=0.05))
        sync.ingest(_msg(0, 0.0))
        out = sync.flush()
        assert len(out) == 1
        assert sync.flush() == []


class TestSyncFuzz:
    def _random_stream(self, rng):
        n_cameras = int(rng.integers(2, 6))
        msgs = []
        t = 0.0
        for _ in range(int(rng.integers(20, 120))):
            t += float(rng.exponential(0.02))
            cam = int(rng.integers(n_cameras))
            stamp = t + float(rng.normal(0, 0.01))
            if rng.random() < 0.05:
                stamp -= float(rng.uniform(0.1, 1.0))  # inject stale candidates
            msgs.append(_msg(cam, stamp))
        return list(range(n_cameras)), msgs

    def test_partition_and_monotonic_anchors(self):
        rng = np.random.default_rng(99)
        for _ in range(100):  # the 1000-stream sweep runs in the acceptance suite
            cams, msgs = self._random_stream(rng)
            sync = Synchronizer(cams, SyncConfig(window=0.05))
            emitted = []
            for m in msgs:
                emitted.extend(sync.ingest(m))
            emitted.extend(sync.flush())
            seen = set()
            anchors = [fs.anchor_stamp for fs in emitted]
            assert anchors == sorted(anchors)
            assert len(set(anchors)) == len(anchors)
            placed = 0
            for fs in emitted:
                for cam_id, m in fs.per_camera.items():
                    assert m.camera_id == cam_id
                    assert abs(m.stamp - fs.anchor_stamp) <= 0.05
                    assert id(m) not in seen
                    seen.add(id(m))
                    placed += 1
            assert placed + sync.stale_count == len(msgs)


@st.composite
def _stamps_and_queries(draw):
    """Strictly increasing stamps (integers, so midpoints are exact ties, or
    milliseconds) and queries before, on, between, midway and after them."""
    ticks = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30, unique=True))
    scale = draw(st.sampled_from([1.0, 1e-3]))
    stamps = np.array(sorted(ticks), dtype=float) * scale
    free = draw(st.lists(st.floats(-2e6 * scale, 2e6 * scale), max_size=20))
    queries = np.concatenate([
        stamps,
        (stamps[:-1] + stamps[1:]) / 2.0,
        [stamps[0] - scale, stamps[-1] + scale],
        free,
    ])
    return stamps, queries


class TestNearestStampIndex:
    @given(_stamps_and_queries())
    def test_matches_argmin(self, case):
        stamps, queries = case
        got = nearest_stamp_index(stamps, queries)
        for q, idx in zip(queries, got):
            assert idx == np.argmin(np.abs(stamps - q)), (stamps, q)

    def test_scalar_query(self):
        assert nearest_stamp_index([0.0, 1.0, 2.0], 1.5) == 1


class TestWireFormat:
    def test_schema_field_names(self):
        msg = _msg(3, 1.25, n_kp=2)
        payload = json.loads(message_to_json(msg))
        assert payload["type"] == "detections"
        assert payload["camera_id"] == 3
        assert payload["stamp_ns"] == 1_250_000_000
        assert set(payload["keypoints"][0]) == {"id", "u", "v", "conf"}

    def test_round_trip_bit_exact(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            stamp = ns_to_stamp(int(rng.integers(0, 10**12)))
            msg = DetectionMessage(int(rng.integers(0, 8)), stamp, rng.permutation(n),
                                   rng.uniform(0, 848, (n, 2)), rng.uniform(0, 1, n))
            line = message_to_json(msg)
            back = message_from_json(line)
            assert message_to_json(back) == line
            assert back.stamp == msg.stamp
            for name in ("keypoints", "pixels", "confidence"):
                np.testing.assert_array_equal(getattr(back, name), getattr(msg, name))

    def test_ns_quantization_round_trip(self):
        assert ns_to_stamp(stamp_to_ns(1.234567891)) == pytest.approx(1.234567891, abs=1e-12)

    @pytest.mark.parametrize("field,value", [
        ("camera_id", 1.7), ("camera_id", float("inf")), ("stamp_ns", float("nan")),
        ("stamp_ns", 2**63), ("camera_id", True), ("camera_id", "3"), ("id", 1.5),
    ])
    def test_non_integral_integer_field_rejected(self, field, value):
        payload = {"type": "detections", "camera_id": 0, "stamp_ns": 0,
                   "keypoints": [{"id": 0, "u": 1.0, "v": 2.0, "conf": 0.5}]}
        (payload["keypoints"][0] if field == "id" else payload)[field] = value
        with pytest.raises(ValueError, match="64-bit integer"):
            message_from_json(json.dumps(payload))

    def test_integral_float_accepted(self):
        msg = message_from_json('{"type":"detections","camera_id":2.0,"stamp_ns":1e9,'
                                '"keypoints":[{"id":3.0,"u":1,"v":2,"conf":1}]}')
        assert (msg.camera_id, msg.stamp, msg.keypoints.tolist()) == (2, 1.0, [3])

    def test_malformed_type_rejected(self):
        with pytest.raises(ValueError):
            message_from_json('{"type":"other","camera_id":0,"stamp_ns":0,"keypoints":[]}')
