"""Blocking client for the predict server.

A deliberately small synchronous client over one TCP connection:
``predict`` / ``ingest`` / ``stats`` / ``shutdown`` each send one frame
and block for the reply, mirroring how a non-async application (or a
closed-loop load-generator thread in the bench) consumes the serving
plane.  Frames are the codec of :mod:`repro.engine.remote.protocol`;
payloads the codecs of :mod:`repro.serve.wire`.

A serving ``MSG_ERROR`` raises :class:`RequestRejected` and leaves the
connection usable — rejection (admission control, shape mismatch) is a
per-request outcome, so a load generator catches it and retries without
reconnecting.  Nothing read from the socket is unpickled: a control
reply that is not JSON raises :class:`~repro.serve.wire.WireFormatError`.
"""

from __future__ import annotations

import socket
from typing import Any

import numpy as np

from repro.engine.remote.protocol import (
    HEADER_SIZE,
    MSG_INGEST,
    MSG_INGEST_ACK,
    MSG_LABELS,
    MSG_PREDICT,
    MSG_SHUTDOWN,
    MSG_STATS,
    MSG_STATS_ACK,
    MSG_ERROR,
    FrameError,
    decode_header,
    encode_frame,
)
from repro.serve import wire

__all__ = ["ServeClient", "RequestRejected", "ServeProtocolError"]


class RequestRejected(RuntimeError):
    """The server refused this request (overload / malformed input).

    Per-request, not per-connection: the same client can retry.
    """


class ServeProtocolError(RuntimeError):
    """The server answered with a frame the client did not expect."""


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.server.PredictServer`.

    Parameters
    ----------
    host, port:
        The server's bound address (``server.host`` / ``server.port``).
    timeout_s:
        Socket timeout for each blocking reply, ``None`` = unbounded.
    """

    def __init__(
        self, host: str, port: int, *, timeout_s: float | None = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        #: Epoch tag of the model that answered the last ``predict`` —
        #: how a client observes an ingest swap mid-stream.
        self.last_epoch: int | None = None

    # ------------------------------------------------------------------
    # Frame plumbing (sync mirror of protocol.read_frame/write_frame)
    # ------------------------------------------------------------------

    def _recv_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> tuple[int, bytes]:
        msg_type, length = decode_header(self._recv_exactly(HEADER_SIZE))
        payload = self._recv_exactly(length) if length else b""
        return msg_type, payload

    def _round_trip(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        self._sock.sendall(encode_frame(msg_type, payload))
        reply_type, reply = self._read_frame()
        if reply_type == MSG_ERROR:
            raise RequestRejected(wire.decode_error(reply))
        return reply_type, reply

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Labels for ``points`` from the resident model.

        Sets :attr:`last_epoch` to the answering model's epoch tag.
        """
        reply_type, reply = self._round_trip(
            MSG_PREDICT, wire.encode_points(points)
        )
        if reply_type != MSG_LABELS:
            raise ServeProtocolError(
                f"expected MSG_LABELS, got message type {reply_type}"
            )
        epoch, labels = wire.decode_labels(reply)
        self.last_epoch = epoch
        return labels

    def ingest(self, points: np.ndarray) -> dict[str, Any]:
        """Append points to the resident model and swap it atomically.

        Returns the server's ingest report (new epoch, refit counters).
        """
        reply_type, reply = self._round_trip(
            MSG_INGEST, wire.encode_points(points)
        )
        if reply_type != MSG_INGEST_ACK:
            raise ServeProtocolError(
                f"expected MSG_INGEST_ACK, got message type {reply_type}"
            )
        return wire.decode_obj(reply)

    def stats(self) -> dict[str, Any]:
        """The server's live metrics snapshot plus config/epoch."""
        reply_type, reply = self._round_trip(MSG_STATS, b"")
        if reply_type != MSG_STATS_ACK:
            raise ServeProtocolError(
                f"expected MSG_STATS_ACK, got message type {reply_type}"
            )
        return wire.decode_obj(reply)

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged before it goes down)."""
        try:
            reply_type, _ = self._round_trip(MSG_SHUTDOWN, b"")
        except (ConnectionError, FrameError):
            return  # already gone — the goal state
        if reply_type != MSG_SHUTDOWN:
            raise ServeProtocolError(
                f"expected MSG_SHUTDOWN echo, got message type {reply_type}"
            )

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
