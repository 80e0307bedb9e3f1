"""Wire protocol of the distributed substrate.

Every message on a driver↔node connection is one **frame**:

.. code-block:: text

    offset  size  field
    0       4     magic    b"RPDN"
    4       2     version  u16 big-endian (PROTOCOL_VERSION)
    6       2     type     u16 big-endian (MSG_* constant)
    8       8     length   u64 big-endian payload byte count
    16      n     payload  opaque bytes (pickle / npz blobs)

The payload is the repo's existing serialization currency — pickle
blobs, with the columnar dictionaries inside them riding their compact
``to_bytes``/npz reducers (see ``repro.core.serialization``) — so the
wire layer never invents a second encoding.  Framing and payload are
deliberately decoupled: the frame codec moves bytes, the endpoints
decide what they mean.

Versioning is per-frame, not per-session: every header carries
:data:`PROTOCOL_VERSION` and :func:`read_frame` refuses a mismatched
frame with :class:`VersionMismatchError` before touching the payload,
so an old agent and a new driver fail loudly at ``hello`` instead of
mis-parsing each other mid-run.

:class:`HeartbeatMonitor` is the liveness bookkeeping shared by driver
and tests: pure data plus an injectable clock, so timeout detection is
testable with a fake clock and no sockets.
"""

from __future__ import annotations

import asyncio
import struct
import time
from collections.abc import Callable

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_MAGIC",
    "HEADER_SIZE",
    "MAX_FRAME_BYTES",
    "FrameError",
    "VersionMismatchError",
    "encode_frame",
    "decode_header",
    "read_frame",
    "write_frame",
    "HeartbeatMonitor",
    "MSG_HELLO",
    "MSG_HELLO_ACK",
    "MSG_BROADCAST",
    "MSG_BROADCAST_ACK",
    "MSG_TASK",
    "MSG_RESULT",
    "MSG_HEARTBEAT",
    "MSG_STATS",
    "MSG_STATS_ACK",
    "MSG_SHUTDOWN",
    "MSG_ERROR",
    "MSG_PREDICT",
    "MSG_LABELS",
    "MSG_INGEST",
    "MSG_INGEST_ACK",
    "MESSAGE_TYPES",
]

#: Bump on any incompatible change to framing or message payloads.
#: Version 2: TASK and RESULT bodies carry the driver's flight id.
PROTOCOL_VERSION = 2

FRAME_MAGIC = b"RPDN"
_HEADER = struct.Struct(">4sHHQ")
HEADER_SIZE = _HEADER.size  # 16 bytes

#: Upper bound on a single frame's payload — far above any real
#: broadcast, but small enough that a garbage length field (from a
#: non-protocol peer or a corrupted stream) is rejected instead of
#: attempting a multi-exabyte read.
MAX_FRAME_BYTES = 1 << 34  # 16 GiB

# Message types.  Driver → node: HELLO, BROADCAST, TASK, STATS,
# SHUTDOWN.  Node → driver: HELLO_ACK, BROADCAST_ACK, RESULT,
# HEARTBEAT, STATS_ACK.  ERROR flows either way and is terminal for the
# connection.
MSG_HELLO = 1
MSG_HELLO_ACK = 2
MSG_BROADCAST = 3
MSG_BROADCAST_ACK = 4
MSG_TASK = 5
MSG_RESULT = 6
MSG_HEARTBEAT = 7
MSG_STATS = 8
MSG_STATS_ACK = 9
MSG_SHUTDOWN = 10
MSG_ERROR = 11

# Serving-plane messages (client ↔ predict server, ``repro.serve``).
# The serving plane reuses this frame codec so there is exactly one
# wire framing in the repo; unlike the node-agent dialect, a serving
# MSG_ERROR is a per-request rejection (overload, bad shape) and does
# NOT terminate the connection.
MSG_PREDICT = 12
MSG_LABELS = 13
MSG_INGEST = 14
MSG_INGEST_ACK = 15

MESSAGE_TYPES = frozenset(
    (
        MSG_HELLO, MSG_HELLO_ACK, MSG_BROADCAST, MSG_BROADCAST_ACK,
        MSG_TASK, MSG_RESULT, MSG_HEARTBEAT, MSG_STATS, MSG_STATS_ACK,
        MSG_SHUTDOWN, MSG_ERROR, MSG_PREDICT, MSG_LABELS, MSG_INGEST,
        MSG_INGEST_ACK,
    )
)


class FrameError(RuntimeError):
    """The byte stream is not a well-formed protocol frame."""


class VersionMismatchError(FrameError):
    """A frame carries a protocol version this endpoint does not speak."""


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload) to bytes."""
    if msg_type not in MESSAGE_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    header = _HEADER.pack(
        FRAME_MAGIC, PROTOCOL_VERSION, msg_type, len(payload)
    )
    return header + payload


def decode_header(header: bytes) -> tuple[int, int]:
    """Parse a 16-byte frame header; returns ``(msg_type, length)``.

    Raises :class:`FrameError` on bad magic, unknown type, or an
    implausible length, and :class:`VersionMismatchError` on a foreign
    protocol version — checked *after* the magic (a wrong magic is
    garbage, not a version skew) and *before* the type (a future
    version may legitimately add types).
    """
    if len(header) != HEADER_SIZE:
        raise FrameError(
            f"truncated frame header: {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, version, msg_type, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"peer speaks protocol version {version}, "
            f"this endpoint speaks {PROTOCOL_VERSION}"
        )
    if msg_type not in MESSAGE_TYPES:
        raise FrameError(f"unknown message type {msg_type}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return msg_type, length


async def read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    """Read one frame; returns ``(msg_type, payload)``.

    Raises :class:`asyncio.IncompleteReadError` on a cleanly closed
    stream (EOF at a frame boundary arrives as an incomplete read of 0
    bytes) and :class:`FrameError`/:class:`VersionMismatchError` on a
    malformed header.
    """
    header = await reader.readexactly(HEADER_SIZE)
    msg_type, length = decode_header(header)
    payload = await reader.readexactly(length) if length else b""
    return msg_type, payload


async def write_frame(
    writer: asyncio.StreamWriter, msg_type: int, payload: bytes = b""
) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(msg_type, payload))
    await writer.drain()


class HeartbeatMonitor:
    """Last-seen bookkeeping with an injectable clock.

    The driver beats a node on every frame it receives from it
    (heartbeats, results, acks — any traffic proves liveness) and
    periodically asks :meth:`expired` which nodes have been silent past
    the timeout.  Nodes never beaten are never expired — liveness
    tracking starts at the first :meth:`beat` (the hello ack).
    """

    def __init__(
        self,
        timeout_s: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        self._clock = clock
        self._last_seen: dict[int, float] = {}

    def beat(self, node_id: int) -> None:
        """Record traffic from ``node_id`` now."""
        self._last_seen[node_id] = self._clock()

    def forget(self, node_id: int) -> None:
        """Stop tracking ``node_id`` (it is known dead; no double report)."""
        self._last_seen.pop(node_id, None)

    def last_seen(self, node_id: int) -> float | None:
        """Clock reading of the last beat, or ``None`` if never beaten."""
        return self._last_seen.get(node_id)

    def expired(self) -> list[int]:
        """Tracked nodes silent for longer than the timeout."""
        deadline = self._clock() - self.timeout_s
        return [
            node_id
            for node_id, seen in self._last_seen.items()
            if seen < deadline
        ]
