"""The asyncio predict server: socket → micro-batch → shm kernel.

``PredictServer`` is the serving plane's front end.  It loads one
fitted :class:`~repro.core.cluster_state.ClusterState`, hoists the
derived :class:`~repro.core.prediction.ClusterModel` into shared memory
through a :class:`~repro.serve.pool.PredictorPool` (the model exists
once in physical memory no matter how many predictor processes attach),
and answers ``MSG_PREDICT`` frames by gathering concurrent requests in
a :class:`~repro.serve.batcher.MicroBatcher` and dispatching them as
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
* **Micro-batching** — ``batch_window_s`` / ``max_batch`` as in
  :class:`MicroBatcher`; ``max_batch=1`` degenerates to
  request-at-a-time (the measured baseline).
* **Warm start** — the pool install runs
  :meth:`ClusterModel.warmup` in every worker (JIT compile + candidate
  tables) before the socket opens, billed to
  ``setup_seconds.serve_install`` / ``serve_warmup`` — the first
  request never pays compile cost.
* **Serve-while-ingest** — ``MSG_INGEST`` appends points through
  :meth:`ClusterState.ingest` (incremental refit) and atomically swaps
  the resident model under a bumped epoch tag; predicts in flight keep
  answering from the old epoch until the swap lands (DBSCAN++'s
  sampled-core analysis bounds the staleness window — see ISSUE/PAPERS
  discussion), and label replies carry the answering epoch so clients
  can observe the swap.
* **Observability** — latency histograms, queue-depth gauges, the
  batch-size distribution, and install/warm-up setup counters in a
  :class:`~repro.obs.metrics.MetricsRegistry`, rendered by
  :func:`repro.obs.report.render_serving_report` and served raw over
  ``MSG_STATS``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import dataclass, field

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
from repro.serve.batcher import MicroBatcher
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
    #: Micro-batch gather window in seconds (``0`` = dispatch per request).
    batch_window_s: float = 0.001
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
    queue_peak: int = 0
    connections: int = 0
    ingest_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class PredictServer:
    """One serving endpoint over one resident cluster model.

    Parameters
    ----------
    state:
        The fitted model plane; :meth:`start` derives the serving view
        and owns it from then on (``ingest`` mutates this state).
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
        """Install the model shm-resident, warm it, open the socket."""
        cfg = self.config
        loop = asyncio.get_running_loop()
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
            window_s=cfg.batch_window_s,
            max_batch=cfg.max_batch,
            on_batch=lambda n_req, n_pts: self._batch_hist.observe(n_pts),
        )
        self._server = await asyncio.start_server(
            self._handle_client, cfg.host, cfg.port
        )

    async def stop(self) -> None:
        """Close the socket, drain in-flight work, stop the pool.

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
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            await self._batcher.drain()
        if self._pool is not None:
            pool, self._pool = self._pool, None
            await asyncio.get_running_loop().run_in_executor(None, pool.close)
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
        self._serve.connections += 1
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
            self._serve.connections -= 1
            with contextlib.suppress(Exception):
                writer.close()

    async def _reject(self, writer, message: str, *, counter: str) -> None:
        self.registry.counter(counter).inc()
        await write_frame(writer, MSG_ERROR, wire.encode_error(message))

    async def _on_predict(self, writer, payload: bytes) -> None:
        start = time.perf_counter()
        try:
            points = wire.decode_points(payload)
        except wire.WireFormatError as exc:
            await self._reject(writer, str(exc), counter="serve.errors")
            return
        dim = self._state.geometry.dim
        if points.shape[1] != dim:
            await self._reject(
                writer,
                f"query points have dim {points.shape[1]}; the resident "
                f"model expects {dim}",
                counter="serve.errors",
            )
            return
        if points.shape[0] == 0:
            await self._reject(
                writer, "empty point block", counter="serve.errors"
            )
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
        self.registry.gauge("serve.queue_depth").set(depth + 1)
        if depth + 1 > self._serve.queue_peak:
            self._serve.queue_peak = depth + 1
            self.registry.gauge("serve.queue_depth_peak").set(depth + 1)
        try:
            epoch, labels = await self._batcher.submit(points)
        except Exception as exc:
            await self._reject(
                writer, f"predict failed: {exc}", counter="serve.errors"
            )
            return
        self._latency.observe(time.perf_counter() - start)
        self.registry.counter("serve.requests").inc()
        self.registry.counter("serve.points").inc(points.shape[0])
        await write_frame(writer, MSG_LABELS, wire.encode_labels(epoch, labels))

    async def _on_ingest(self, writer, payload: bytes) -> None:
        try:
            points = wire.decode_points(payload)
        except wire.WireFormatError as exc:
            await self._reject(writer, str(exc), counter="serve.errors")
            return
        dim = self._state.geometry.dim
        if points.shape[1] != dim:
            await self._reject(
                writer,
                f"ingest points have dim {points.shape[1]}; the resident "
                f"model expects {dim}",
                counter="serve.errors",
            )
            return
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        # One refit at a time; predicts keep flowing against the old
        # epoch the whole while — the swap below is the only sync point.
        async with self._serve.ingest_lock:
            try:
                report = await loop.run_in_executor(
                    None, self._state.ingest, points
                )
                model = ClusterModel.from_state(
                    self._state, kernel=self.config.kernel
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
        self.registry.counter("serve.ingests").inc()
        self.registry.gauge("serve.epoch").set(install.epoch)
        self.registry.counter("setup_seconds.serve_ingest").inc(
            time.perf_counter() - start
        )
        self.registry.counter("setup_seconds.serve_warmup").inc(
            install.warmup_seconds
        )
        ack = {
            "epoch": install.epoch,
            "num_new_points": report.num_new_points,
            "cells_total": report.cells_total,
            "cells_dirty": report.cells_dirty,
            "cells_new": report.cells_new,
            "n_clusters": report.n_clusters,
            "ingest_seconds": report.total_seconds,
            "install_seconds": install.seconds,
            "warmup_seconds": install.warmup_seconds,
        }
        await write_frame(writer, MSG_INGEST_ACK, wire.encode_obj(ack))

    async def _on_stats(self, writer) -> None:
        self.registry.gauge("serve.worker_respawns").set(
            self._pool.respawns if self._pool else 0
        )
        stats = {
            "epoch": self._serve.epoch,
            "num_points": self._state.num_points,
            "connections": self._serve.connections,
            "batches_dispatched": (
                self._batcher.batches_dispatched if self._batcher else 0
            ),
            "config": {
                "workers": self.config.workers,
                "batch_window_s": self.config.batch_window_s,
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
    tears everything down — pool, segment, loop — on exit.
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
