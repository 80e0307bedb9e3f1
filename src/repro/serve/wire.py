"""Serving-plane payload codecs (the bytes inside the protocol frames).

The serving wire rides the exact frame codec of the distributed
substrate (:mod:`repro.engine.remote.protocol`: magic + version + type
+ length); this module only defines what the *payloads* mean for the
four serving message types:

``MSG_PREDICT``
    A point block: ``u64 m`` + ``u32 d`` (big-endian, matching the
    frame header) followed by ``m * d`` little-endian float64 values in
    row-major order.  Raw array bytes, not pickle — the predict path is
    the hot path and must not pay object encoding per request.
``MSG_LABELS``
    ``u64 epoch`` + ``u64 m`` followed by ``m`` little-endian int64
    labels.  ``epoch`` names the resident model that answered, so a
    client can observe an ``ingest`` swap mid-stream.
``MSG_INGEST``
    The same point block as ``MSG_PREDICT``.
``MSG_INGEST_ACK`` / ``MSG_STATS_ACK``
    Pickled dicts — control-plane traffic, rare by construction.
``MSG_ERROR``
    A UTF-8 reason string.  On a serving connection an error is a
    *per-request* rejection (overload, shape mismatch); the connection
    stays usable, unlike the node-agent dialect where ERROR is terminal.

Array byte order is pinned little-endian explicitly (``<f8``/``<i8``)
rather than native so a frame means the same thing on any peer.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

import numpy as np

__all__ = [
    "MAX_POINTS_PER_REQUEST",
    "WireFormatError",
    "encode_points",
    "decode_points",
    "encode_labels",
    "decode_labels",
    "encode_error",
    "decode_error",
    "encode_obj",
    "decode_obj",
]

#: Upper bound on points in one request — far above any sane micro-
#: batching client, small enough that a corrupt length field cannot
#: demand an absurd allocation.
MAX_POINTS_PER_REQUEST = 1 << 24  # 16.7M points

_POINTS_HEADER = struct.Struct(">QI")
_LABELS_HEADER = struct.Struct(">QQ")


class WireFormatError(ValueError):
    """A serving payload is not well-formed."""


def encode_points(points: np.ndarray) -> bytes:
    """Serialize an ``(m, d)`` float64 point block."""
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise WireFormatError("points must be (m, d)")
    m, d = pts.shape
    # Bound-check on the view, before ascontiguousarray can materialize
    # an oversized block.
    if m > MAX_POINTS_PER_REQUEST:
        raise WireFormatError(
            f"{m} points exceed the {MAX_POINTS_PER_REQUEST}-point "
            "per-request bound"
        )
    pts = np.ascontiguousarray(pts, dtype="<f8")
    return _POINTS_HEADER.pack(m, d) + pts.tobytes()


def decode_points(payload: bytes) -> np.ndarray:
    """Parse a point block back into a float64 ``(m, d)`` array.

    A block with a NaN or inf coordinate is malformed: no model can
    place it in a cell, so it is refused here, per request.
    """
    if len(payload) < _POINTS_HEADER.size:
        raise WireFormatError("truncated point-block header")
    m, d = _POINTS_HEADER.unpack_from(payload)
    if d < 1:
        raise WireFormatError("point block must have at least one axis")
    if m > MAX_POINTS_PER_REQUEST:
        raise WireFormatError(
            f"{m} points exceed the {MAX_POINTS_PER_REQUEST}-point "
            "per-request bound"
        )
    expected = _POINTS_HEADER.size + 8 * m * d
    if len(payload) != expected:
        raise WireFormatError(
            f"point block of {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f8", offset=_POINTS_HEADER.size)
    if not np.isfinite(data).all():
        raise WireFormatError("point block holds NaN/inf coordinates")
    return data.reshape(m, d).astype(np.float64, copy=False)


def encode_labels(epoch: int, labels: np.ndarray) -> bytes:
    """Serialize a label vector under the answering model's epoch."""
    out = np.ascontiguousarray(labels, dtype="<i8")
    if out.ndim != 1:
        raise WireFormatError("labels must be 1-d")
    return _LABELS_HEADER.pack(int(epoch), out.shape[0]) + out.tobytes()


def decode_labels(payload: bytes) -> tuple[int, np.ndarray]:
    """Parse a label payload; returns ``(epoch, labels)``."""
    if len(payload) < _LABELS_HEADER.size:
        raise WireFormatError("truncated label header")
    epoch, m = _LABELS_HEADER.unpack_from(payload)
    expected = _LABELS_HEADER.size + 8 * m
    if len(payload) != expected:
        raise WireFormatError(
            f"label payload of {len(payload)} bytes, expected {expected}"
        )
    labels = np.frombuffer(payload, dtype="<i8", offset=_LABELS_HEADER.size)
    return epoch, labels.astype(np.int64, copy=False)


def encode_error(message: str) -> bytes:
    """Serialize a rejection reason."""
    return message.encode("utf-8", errors="replace")


def decode_error(payload: bytes) -> str:
    """Parse a rejection reason."""
    return payload.decode("utf-8", errors="replace")


def encode_obj(obj: Any) -> bytes:
    """Pickle a control-plane payload (ingest acks, stats snapshots)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_obj(payload: bytes) -> Any:
    """Unpickle a control-plane payload."""
    return pickle.loads(payload)
