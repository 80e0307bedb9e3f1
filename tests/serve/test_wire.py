"""Serving payload codecs: round trips and malformed-input rejection."""

import numpy as np
import pytest

from repro.serve import wire


class TestPointsCodec:
    def test_round_trip(self):
        pts = np.arange(12, dtype=np.float64).reshape(4, 3) * 0.5
        out = wire.decode_points(wire.encode_points(pts))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, pts)

    def test_round_trip_preserves_exact_bits(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(100, 5))
        out = wire.decode_points(wire.encode_points(pts))
        assert out.tobytes() == pts.tobytes()

    def test_empty_block_round_trips(self):
        pts = np.empty((0, 4), dtype=np.float64)
        out = wire.decode_points(wire.encode_points(pts))
        assert out.shape == (0, 4)

    def test_non_2d_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.encode_points(np.zeros(3))

    def test_truncated_header_rejected(self):
        with pytest.raises(wire.WireFormatError, match="truncated"):
            wire.decode_points(b"\x00" * 4)

    def test_length_mismatch_rejected(self):
        payload = wire.encode_points(np.zeros((2, 2)))
        with pytest.raises(wire.WireFormatError, match="expected"):
            wire.decode_points(payload[:-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        pts = np.zeros((3, 2))
        pts[1, 0] = bad
        with pytest.raises(wire.WireFormatError, match="NaN/inf"):
            wire.decode_points(wire.encode_points(pts))

    def test_zero_dim_rejected(self):
        import struct

        payload = struct.pack(">QI", 0, 0)
        with pytest.raises(wire.WireFormatError, match="at least one axis"):
            wire.decode_points(payload)

    def test_absurd_count_rejected_before_allocation(self):
        import struct

        payload = struct.pack(">QI", 1 << 40, 3)
        with pytest.raises(wire.WireFormatError, match="exceed"):
            wire.decode_points(payload)

    def test_oversized_encode_rejected(self):
        # A broadcast view has an absurd row count but no backing
        # allocation; the bound must trip before any materialization.
        big = np.broadcast_to(
            np.zeros((1, 2)), (wire.MAX_POINTS_PER_REQUEST + 1, 2)
        )
        with pytest.raises(wire.WireFormatError, match="exceed"):
            wire.encode_points(big)


class TestLabelsCodec:
    def test_round_trip_carries_epoch(self):
        labels = np.array([0, -1, 7, 2], dtype=np.int64)
        epoch, out = wire.decode_labels(wire.encode_labels(5, labels))
        assert epoch == 5
        np.testing.assert_array_equal(out, labels)

    def test_non_1d_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.encode_labels(1, np.zeros((2, 2), dtype=np.int64))

    def test_truncated_rejected(self):
        payload = wire.encode_labels(1, np.arange(3, dtype=np.int64))
        with pytest.raises(wire.WireFormatError):
            wire.decode_labels(payload[:-2])


class TestControlCodecs:
    def test_error_round_trip(self):
        assert wire.decode_error(wire.encode_error("överload")) == "överload"

    def test_obj_round_trip(self):
        obj = {"epoch": 3, "counts": [1, 2], "nested": {"ok": True}}
        assert wire.decode_obj(wire.encode_obj(obj)) == obj
