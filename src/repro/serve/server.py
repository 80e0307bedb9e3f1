"""The asyncio predict server: socket → micro-batch → shm kernel.

``PredictServer`` is the serving plane's front end.  It loads one
fitted :class:`~repro.core.cluster_state.ClusterState`, hoists the
derived :class:`~repro.core.prediction.ClusterModel` into shared memory
through a :class:`~repro.serve.pool.PredictorPool` (the model exists
once in physical memory no matter how many predictor processes attach),
and answers ``MSG_PREDICT`` frames by handing them to a
:class:`~repro.serve.batcher.MicroBatcher`, which dispatches them as
fused columnar batches with per-request scatter-back.

Design points, in the order a request meets them:

* **Wire** — the length-prefixed frame codec of
  :mod:`repro.engine.remote.protocol`; payload meanings in
  :mod:`repro.serve.wire`.  One outstanding request per connection
  (concurrency comes from connections, which is what micro-batching
  wants anyway).
* **Admission control** — the server refuses work beyond
  ``max_pending`` in-flight requests with an immediate ``MSG_ERROR``
  rejection instead of queueing unbounded latency; a serving error is
  per-request, the connection survives.
* **Micro-batching** — in-flight-depth dispatch as in
  :class:`MicroBatcher`, with a depth of
  :data:`~repro.serve.batcher.BATCHES_PER_WORKER` batches per worker:
  a request dispatches at once while a worker slot is free, and
  requests arriving meanwhile leave as one batch when a slot frees.
  ``max_batch=1`` degenerates to request-at-a-time (the measured
  baseline).
* **Warm start** — the pool install runs
  :meth:`ClusterModel.warmup` in every worker (JIT compile + candidate
  tables) before the socket opens, billed to
  ``setup_seconds.serve_install`` / ``serve_warmup`` — the first
  request never pays compile cost.
* **Serve-while-ingest** — the refit runs in a process of its own.
  :meth:`PredictServer.start` forks it first, before the pool and the
  socket exist, so it inherits the state and nothing else; from then on
  it owns the state and the caller's object is never modified.
  ``MSG_INGEST`` sends the point block down its pipe; the process runs
  :meth:`ClusterState.ingest` (incremental refit) and builds the next
  model, and the server installs that model under a bumped epoch tag
  while an executor thread waits on the pipe with the GIL released —
  predicts keep the event loop and the interpreter to themselves, and
  answer from the old epoch until the swap lands.  Label replies carry
  the answering epoch so clients can observe the swap.  A block the
  refit refuses leaves its state as it was (``ingest`` commits last)
  and gets ``MSG_ERROR``; if the process dies, that ingest and every
  later one are refused naming the loss, and predicts keep answering
  on the last installed epoch.
* **Observability** — latency histograms, queue-depth gauges, the
  batch-size distribution, and install/warm-up setup counters in a
  :class:`~repro.obs.metrics.MetricsRegistry`, rendered by
  :func:`repro.obs.report.render_serving_report` and served as JSON
  over ``MSG_STATS``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from repro.core.prediction import ClusterModel
from repro.engine.remote.protocol import (
    MSG_INGEST,
    MSG_INGEST_ACK,
    MSG_LABELS,
    MSG_PREDICT,
    MSG_SHUTDOWN,
    MSG_STATS,
    MSG_STATS_ACK,
    MSG_ERROR,
    FrameError,
    read_frame,
    write_frame,
)
from repro.obs.metrics import (
    SERVE_BATCH_BUCKETS,
    SERVE_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.serve import wire
from repro.serve.batcher import BATCHES_PER_WORKER, MicroBatcher
from repro.serve.pool import PredictorPool

__all__ = ["ServeConfig", "PredictServer", "running_server"]


@dataclass
class ServeConfig:
    """Tunables of one predict server."""

    host: str = "127.0.0.1"
    #: ``0`` binds an OS-assigned port (read it back from ``server.port``).
    port: int = 0
    #: Predictor worker processes attaching the shm-resident model.
    workers: int = 1
    #: Fused-point cap per dispatch (``1`` = request-at-a-time baseline).
    max_batch: int = 256
    #: Admission bound: in-flight requests beyond this are rejected.
    max_pending: int = 1024
    #: Distance backend for the resident model (``auto``/``numpy``/...).
    kernel: str = "auto"


@dataclass
class _ServeState:
    """Mutable serving-side bookkeeping grouped for readability."""

    epoch: int = 0
    #: Points in the refit process's state after the last ingest.
    num_points: int = 0
    queue_peak: int = 0
    #: Open connections: each handler task and its stream writer.
    clients: dict = field(default_factory=dict)
    ingest_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


def _refit_main(conn, server_end, state, kernel: str) -> None:
    """Refit process loop: ingest each point block into ``state`` and
    reply with the report, the next serving model and the point count.

    ``ingest`` commits last, so a block it refuses leaves ``state`` as
    it was.  The loop ends when the server closes its end of the pipe.
    """
    # A forked child holds a copy of the server's end too; the EOF
    # that ends this loop comes only once that copy is closed.
    server_end.close()
    # The server owns shutdown; a terminal's Ctrl-C reaches this
    # process too and must not kill it mid-refit with a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            points = conn.recv()
        except EOFError:
            return
        try:
            report = state.ingest(points)
            model = ClusterModel.from_state(state, kernel=kernel)
            reply = ("ok", report, model, state.num_points)
        except Exception as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)


class _RefitProcess:
    """The process that owns the ingest state, and its pipe."""

    def __init__(self, state, kernel: str) -> None:
        ctx = get_context("fork" if os.name == "posix" else "spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=_refit_main,
            args=(child, self._conn, state, kernel),
            name="serve-refit",
            daemon=True,
        )
        self._process.start()
        child.close()
        self.pid = self._process.pid
        #: Why ingest is unavailable, once the process is gone.
        self._lost: str | None = None

    def refit(self, points: np.ndarray):
        """Ingest ``points`` over there; blocks on the pipe (GIL
        released) and returns ``(report, model, num_points)``."""
        if self._lost is not None:
            raise RuntimeError(self._lost)
        try:
            self._conn.send(points)
            reply = self._conn.recv()
        except (EOFError, OSError):
            self._process.join(timeout=5.0)
            self._lost = (
                f"refit process {self.pid} lost (exit code "
                f"{self._process.exitcode}); predicts keep the last "
                "installed model"
            )
            raise RuntimeError(self._lost) from None
        if reply[0] == "error":
            raise RuntimeError(reply[1])
        return reply[1:]

    def close(self) -> None:
        """Close the pipe (the process's signal to exit) and join it."""
        self._conn.close()
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)


class PredictServer:
    """One serving endpoint over one resident cluster model.

    Parameters
    ----------
    state:
        The fitted model plane; :meth:`start` derives the serving view
        and forks the refit process, which ingests into its own copy —
        this object is never modified.
    config:
        :class:`ServeConfig`; defaults serve a 1-worker micro-batching
        endpoint on an OS-assigned port.
    registry:
        Optional externally owned metrics registry (tests share one).
    """

    def __init__(
        self,
        state,
        config: ServeConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._state = state
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self._serve = _ServeState()
        self._refit: _RefitProcess | None = None
        self._pool: PredictorPool | None = None
        self._batcher: MicroBatcher | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._stopping: asyncio.Task | None = None
        self._latency = self.registry.histogram(
            "serve.latency_seconds", SERVE_LATENCY_BUCKETS
        )
        self._batch_hist = self.registry.histogram(
            "serve.batch_points", SERVE_BATCH_BUCKETS
        )
        self._queue_depth = self.registry.gauge("serve.queue_depth")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``config.port == 0`` after start)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def epoch(self) -> int:
        """Epoch tag of the resident model."""
        return self._serve.epoch

    async def start(self) -> None:
        """Fork the refit process, install the model shm-resident, warm
        it, open the socket."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        # First: the refit process must inherit neither a pool pipe nor
        # the listening socket.
        self._refit = _RefitProcess(self._state, cfg.kernel)
        self._serve.num_points = self._state.num_points
        model = ClusterModel.from_state(self._state, kernel=cfg.kernel)
        self._pool = PredictorPool(cfg.workers)
        install = await loop.run_in_executor(None, self._pool.install, model)
        self._serve.epoch = install.epoch
        self.registry.gauge("serve.epoch").set(install.epoch)
        self.registry.counter("setup_seconds.serve_install").inc(
            max(install.seconds - install.warmup_seconds, 0.0)
        )
        self.registry.counter("setup_seconds.serve_warmup").inc(
            install.warmup_seconds
        )
        self._batcher = MicroBatcher(
            self._dispatch,
            depth=BATCHES_PER_WORKER * cfg.workers,
            max_batch=cfg.max_batch,
            on_batch=lambda n_req, n_pts: self._batch_hist.observe(n_pts),
        )
        self._server = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )

    async def stop(self) -> None:
        """Close the socket, drain in-flight work, stop the pool and the
        refit process.

        Every caller (a ``MSG_SHUTDOWN`` frame, the harness's exit)
        awaits one shared teardown, and the server reads as stopped only
        once the pool is closed: a second, concurrent stop must not let
        the loop exit and cancel a pool close that has not yet started,
        which would leave the model's segment linked.
        """
        if self._stopping is None:
            self._stopping = asyncio.ensure_future(self._teardown())
        await asyncio.shield(self._stopping)

    async def _teardown(self) -> None:
        if self._server is not None:
            self._server.close()
            # Close every open connection, idle ones included, and let
            # its handler return: a handler still pending when the loop
            # exits would be cancelled there and logged as an error.
            handlers = list(self._serve.clients)
            for writer in self._serve.clients.values():
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.drain()
        loop = asyncio.get_running_loop()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await loop.run_in_executor(None, pool.close)
        if self._refit is not None:
            # After the pool: its workers were forked holding the
            # server's end of the refit pipe, and the process sees EOF
            # only once every copy is closed.
            refit, self._refit = self._refit, None
            await loop.run_in_executor(None, refit.close)
        self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Block until a ``MSG_SHUTDOWN`` frame (or :meth:`stop`)."""
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _dispatch(self, fused: np.ndarray) -> tuple[int, np.ndarray]:
        """Batcher → pool bridge: one fused batch, one worker round trip."""
        return await asyncio.wrap_future(self._pool.submit_predict(fused))

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._serve.clients[task] = writer
        try:
            while True:
                try:
                    msg_type, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except FrameError as exc:
                    # A malformed *frame* means the stream is garbage —
                    # unlike a per-request rejection this is terminal.
                    with contextlib.suppress(Exception):
                        await write_frame(
                            writer, MSG_ERROR, wire.encode_error(str(exc))
                        )
                    return
                try:
                    if msg_type == MSG_PREDICT:
                        await self._on_predict(writer, payload)
                    elif msg_type == MSG_INGEST:
                        await self._on_ingest(writer, payload)
                    elif msg_type == MSG_STATS:
                        await self._on_stats(writer)
                    elif msg_type == MSG_SHUTDOWN:
                        await write_frame(writer, MSG_SHUTDOWN)
                        asyncio.get_running_loop().create_task(self.stop())
                        return
                    else:
                        await write_frame(
                            writer,
                            MSG_ERROR,
                            wire.encode_error(
                                f"unsupported message type {msg_type} on a "
                                "serving connection"
                            ),
                        )
                except ConnectionError:
                    return
        finally:
            del self._serve.clients[task]
            with contextlib.suppress(Exception):
                writer.close()

    async def _reject(self, writer, message: str, *, counter: str) -> None:
        self.registry.counter(counter).inc()
        await write_frame(writer, MSG_ERROR, wire.encode_error(message))

    async def _read_points(self, writer, payload: bytes, role: str):
        """The request's point block, or ``None`` once it was rejected
        (malformed, wrong dimension, or empty)."""
        try:
            points = wire.decode_points(payload)
        except wire.WireFormatError as exc:
            await self._reject(writer, str(exc), counter="serve.errors")
            return None
        dim = self._state.geometry.dim
        if points.shape[1] != dim:
            await self._reject(
                writer,
                f"{role} points have dim {points.shape[1]}; the resident "
                f"model expects {dim}",
                counter="serve.errors",
            )
            return None
        if points.shape[0] == 0:
            await self._reject(
                writer, "empty point block", counter="serve.errors"
            )
            return None
        return points

    async def _on_predict(self, writer, payload: bytes) -> None:
        start = time.perf_counter()
        points = await self._read_points(writer, payload, "query")
        if points is None:
            return
        depth = self._batcher.pending_requests
        if depth >= self.config.max_pending:
            # Overload: answer *now* with a rejection the client can
            # retry, rather than stretching every queued request's tail.
            await self._reject(
                writer,
                f"server overloaded: {depth} requests in flight "
                f"(max_pending={self.config.max_pending})",
                counter="serve.rejected",
            )
            return
        self._queue_depth.set(depth + 1)
        if depth + 1 > self._serve.queue_peak:
            self._serve.queue_peak = depth + 1
            self.registry.gauge("serve.queue_depth_peak").set(depth + 1)
        try:
            epoch, labels = await self._batcher.submit(points)
        except Exception as exc:
            failure: Exception | None = exc
        else:
            failure = None
        # The request has left the batcher: the gauge reads what is left.
        self._queue_depth.set(self._batcher.pending_requests)
        if failure is not None:
            await self._reject(
                writer, f"predict failed: {failure}", counter="serve.errors"
            )
            return
        self._latency.observe(time.perf_counter() - start)
        self.registry.counter("serve.requests").inc()
        self.registry.counter("serve.points").inc(points.shape[0])
        await write_frame(writer, MSG_LABELS, wire.encode_labels(epoch, labels))

    async def _on_ingest(self, writer, payload: bytes) -> None:
        points = await self._read_points(writer, payload, "ingest")
        if points is None:
            return
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        # One refit at a time; predicts keep flowing against the old
        # epoch the whole while — the swap below is the only sync point.
        async with self._serve.ingest_lock:
            try:
                report, model, num_points = await loop.run_in_executor(
                    None, self._refit.refit, points
                )
                install = await loop.run_in_executor(
                    None, self._pool.install, model
                )
            except Exception as exc:
                await self._reject(
                    writer, f"ingest failed: {exc}", counter="serve.errors"
                )
                return
            self._serve.epoch = install.epoch
            self._serve.num_points = num_points
        self.registry.counter("serve.ingests").inc()
        self.registry.gauge("serve.epoch").set(install.epoch)
        self.registry.counter("setup_seconds.serve_ingest").inc(
            time.perf_counter() - start
        )
        self.registry.counter("setup_seconds.serve_warmup").inc(
            install.warmup_seconds
        )
        ack = {
            "epoch": int(install.epoch),
            "num_new_points": int(report.num_new_points),
            "cells_total": int(report.cells_total),
            "cells_dirty": int(report.cells_dirty),
            "cells_new": int(report.cells_new),
            "n_clusters": int(report.n_clusters),
            "ingest_seconds": float(report.total_seconds),
            "install_seconds": float(install.seconds),
            "warmup_seconds": float(install.warmup_seconds),
        }
        await write_frame(writer, MSG_INGEST_ACK, wire.encode_obj(ack))

    async def _on_stats(self, writer) -> None:
        self.registry.gauge("serve.worker_respawns").set(
            self._pool.respawns if self._pool else 0
        )
        stats = {
            "epoch": self._serve.epoch,
            "num_points": self._serve.num_points,
            "connections": len(self._serve.clients),
            "batches_dispatched": (
                self._batcher.batches_dispatched if self._batcher else 0
            ),
            "config": {
                "workers": self.config.workers,
                "max_batch": self.config.max_batch,
                "max_pending": self.config.max_pending,
                "kernel": self.config.kernel,
            },
            "snapshot": self.registry.snapshot(),
        }
        await write_frame(writer, MSG_STATS_ACK, wire.encode_obj(stats))


@contextlib.contextmanager
def running_server(state, config: ServeConfig | None = None):
    """A started :class:`PredictServer` on a background event loop.

    The in-process harness tests, the example, and the bench baseline
    use: spins one daemon thread running the server's loop, yields the
    server once its socket is bound (``server.port`` is resolved), and
    tears everything down — pool, segment, refit process, loop — on
    exit.  Ingests land in the refit process's copy of ``state``; the
    caller's object is never modified.
    """
    server = PredictServer(state, config)
    started = threading.Event()
    failure: list[BaseException] = []
    loop_holder: list[asyncio.AbstractEventLoop] = []

    async def _main() -> None:
        loop_holder.append(asyncio.get_running_loop())
        try:
            await server.start()
        except BaseException as exc:  # surface startup failure to caller
            failure.append(exc)
            started.set()
            return
        started.set()
        await server.serve_until_stopped()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()), name="predict-server", daemon=True
    )
    thread.start()
    started.wait(timeout=120.0)
    if failure:
        thread.join(timeout=10.0)
        raise failure[0]
    try:
        yield server
    finally:
        loop = loop_holder[0]
        if not server._stopped.is_set():
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
                timeout=30.0
            )
        thread.join(timeout=30.0)
