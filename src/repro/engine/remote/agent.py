"""The per-machine node agent: ``python -m repro.node``.

One agent fronts one machine.  It owns a local persistent process pool
(a plain process-mode :class:`~repro.engine.executors.Engine`, so every
pool behavior — barrier fan-out, epoch-tagged caches, shm segments,
damage detection — is the battle-tested local code path) and speaks the
:mod:`~repro.engine.remote.protocol` frame protocol to the driver:

* **BROADCAST** — the driver ships each epoch's value to the node
  exactly once, as a plain pickle blob.  The agent unpickles it and
  re-hoists it through its local engine's broadcast channel, which
  lands the columnar dictionaries in *node-local* shared-memory
  segments that the node's workers attach zero-copy.  This is the
  PR 4/6 ship-vs-attach split lifted across the network: TCP carries
  one copy per machine, shm fans it out per worker — sharded
  ``broadcast_budget`` payloads included, since the local engine's
  channel already handles them.
* **TASK** — fn and task arrive pickled; the agent rewrites the
  driver's broadcast epoch to the local pool epoch and submits to its
  pool.  Results (or failures) stream back as RESULT frames as they
  complete — the agent never serializes the phase.
* **Local fault tolerance** — a watchdog notices local worker death
  (``_pool_damaged``), respawns the pool, re-installs the current
  broadcast, and fails the in-flight tasks back to the driver with a
  ``requeue`` flag so the driver reschedules them without charging
  retry budget — exactly what the driver-side respawn does for a local
  pool.
* **HEARTBEAT** — periodic liveness frames; the driver declares the
  node dead after a silence window.
* **Node chaos** — if the driver's hello carries a
  :class:`~repro.engine.faults.FaultInjector` with node-fault
  probabilities, the agent evaluates ``decide_node(phase, node_id)``
  and executes it: crash (terminate pool, ``os._exit``), connection
  drop, or a dispatch delay.  Decisions are seeded and SHA-stable, so
  dead-node chaos runs replay exactly.

One driver connection at a time: a new hello supersedes the previous
connection (that is how a driver rejoins a surviving agent after a
network drop).  The pool — and any installed broadcast — survives
across connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pickle
import time
from typing import Any

from repro.engine.executors import Engine, _run_task
from repro.engine.faults import CRASH_EXIT_CODE, FaultInjector, StaleBroadcastError
from repro.engine.remote import protocol as proto

__all__ = ["NodeAgent"]


class NodeAgent:
    """One node's daemon: a TCP server fronting a local process pool.

    Parameters
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port, exposed as
        :attr:`bound_port` once :meth:`serve` is up (the loopback
        harness uses this to run many agents on one machine).
    workers:
        Local pool size; defaults to the CPU count.
    broadcast_channel / start_method:
        Forwarded to the local engine (the node-local fan-out keeps the
        full ``auto``/``pickle``/``shm`` choice).
    heartbeat_interval_s:
        Seconds between HEARTBEAT frames to a connected driver.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        *,
        broadcast_channel: str = "auto",
        start_method: str | None = None,
        heartbeat_interval_s: float = 1.0,
    ) -> None:
        self.host = host
        self.port = port
        self.engine = Engine(
            "process",
            num_workers=workers,
            broadcast_channel=broadcast_channel,
            start_method=start_method,
        )
        self.workers = self.engine.num_workers
        self.heartbeat_interval_s = heartbeat_interval_s
        self.node_id: int | None = None
        self.injector: FaultInjector | None = None
        self.installs = 0
        self.respawns = 0
        self.tasks_run = 0
        self.bound_port: int | None = None
        # Driver epoch -> local pool epoch for the currently installed
        # broadcast, plus the value itself so a pool respawn can
        # re-install without a network round trip.
        self._epoch_map: dict[int, int] = {}
        self._installed: tuple[int, Any, Any] | None = None
        # (task_id, attempt) -> task message, for respawn notification.
        self._pending: dict[tuple[int, int], dict] = {}
        self._writer: asyncio.StreamWriter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop: asyncio.Event | None = None
        self._install_lock = asyncio.Lock()
        # Node-chaos state: tasks received per phase (the crash/drop
        # trigger counts receipts, so a fault lands mid-phase) and the
        # phases whose one-shot connection drop already fired.
        self._phase_receipts: dict[str, int] = {}
        self._dropped_phases: set[str] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def serve(self, *, ready: Any = None) -> None:
        """Run the agent until :meth:`request_stop` (or SHUTDOWN frame).

        ``ready(agent)`` is called once the socket is bound — the CLI
        prints its "listening" line from it, the loopback harness waits
        on that line.
        """
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        # Fork the pool before the server (and its helper tasks) exist:
        # the children inherit as little event-loop state as possible.
        self.engine._ensure_pool()
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(self)
        watchdog = asyncio.create_task(self._watchdog())
        try:
            await self._stop.wait()
        finally:
            watchdog.cancel()
            self._server.close()
            await self._server.wait_closed()
            self.engine.close()

    def request_stop(self) -> None:
        """Ask :meth:`serve` to exit (signal handlers and SHUTDOWN)."""
        if self._stop is not None and not self._stop.is_set():
            self._stop.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        previous, self._writer = self._writer, writer
        if previous is not None:
            previous.close()
        heartbeat = asyncio.create_task(self._heartbeat(writer))
        try:
            while True:
                try:
                    msg_type, payload = await proto.read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                except proto.VersionMismatchError as exc:
                    # Hello refusal: tell the driver why in *our*
                    # version's framing, then hang up.
                    await self._send_safe(
                        writer, proto.MSG_ERROR, pickle.dumps(str(exc))
                    )
                    break
                except proto.FrameError:
                    break  # garbage stream: nothing sane to reply
                if msg_type == proto.MSG_HELLO:
                    await self._handle_hello(writer, payload)
                elif msg_type == proto.MSG_BROADCAST:
                    await self._handle_broadcast(writer, payload)
                elif msg_type == proto.MSG_TASK:
                    await self._handle_task(writer, payload)
                elif msg_type == proto.MSG_STATS:
                    await self._handle_stats(writer, payload)
                elif msg_type == proto.MSG_SHUTDOWN:
                    self.request_stop()
                    break
                # Unexpected-but-valid types (e.g. a stray heartbeat)
                # are ignored; the stream stays framed either way.
        finally:
            heartbeat.cancel()
            if self._writer is writer:
                self._writer = None
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _heartbeat(self, writer: asyncio.StreamWriter) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            body = pickle.dumps({"pending": len(self._pending)})
            await self._send_safe(writer, proto.MSG_HEARTBEAT, body)

    async def _send_safe(
        self, writer: asyncio.StreamWriter, msg_type: int, payload: bytes
    ) -> None:
        """Best-effort frame write: a broken pipe is the driver's death
        (or a chaos drop), never the agent's — the read loop notices."""
        try:
            await proto.write_frame(writer, msg_type, payload)
        except (ConnectionError, OSError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    async def _handle_hello(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        msg = pickle.loads(payload)
        self.node_id = msg.get("node_id")
        self.injector = msg.get("injector")
        ack = {
            "node_id": self.node_id,
            "workers": self.workers,
            "pid": os.getpid(),
            "installs": self.installs,
            "respawns": self.respawns,
        }
        await self._send_safe(writer, proto.MSG_HELLO_ACK, pickle.dumps(ack))

    async def _handle_broadcast(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        msg = pickle.loads(payload)
        async with self._install_lock:
            started = time.perf_counter()
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._install, msg
                )
            except Exception as exc:  # install failed: tell the driver
                body = {
                    "epoch": msg["epoch"],
                    "ok": False,
                    "error": repr(exc),
                }
                await self._send_safe(
                    writer, proto.MSG_BROADCAST_ACK, pickle.dumps(body)
                )
                return
            body = {
                "epoch": msg["epoch"],
                "ok": True,
                "installs": self.installs,
                "warm_s": self._last_warm_s,
                "install_s": time.perf_counter() - started,
            }
        await self._send_safe(
            writer, proto.MSG_BROADCAST_ACK, pickle.dumps(body)
        )

    _last_warm_s = 0.0

    def _install(self, msg: dict) -> None:
        """Unpickle and install one driver epoch into the local pool
        (executor thread — the pool fan-out blocks)."""
        value = pickle.loads(msg["value"])
        warmup = pickle.loads(msg["warmup"]) if msg.get("warmup") else None
        setup_before = self.engine.counters.setup_seconds.get("warmup", 0.0)
        self.engine._ensure_pool()
        self.engine._ship_broadcast(value, warmup)
        self._last_warm_s = (
            self.engine.counters.setup_seconds.get("warmup", 0.0) - setup_before
        )
        self._epoch_map = {msg["epoch"]: self.engine._shipped_epoch}
        self._installed = (msg["epoch"], value, warmup)
        self.installs += 1

    async def _handle_task(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        msg = pickle.loads(payload)
        key = (msg["task_id"], msg["attempt"])
        if not await self._apply_node_chaos(msg["phase"], writer):
            return  # connection dropped by chaos; driver will requeue
        # A local pool respawn holds the lock: wait for the new pool and
        # epoch map instead of bouncing the task as stale.  Nothing below
        # awaits, so no respawn can start before the task is dispatched.
        async with self._install_lock:
            pass
        epoch = msg["epoch"]
        local_epoch = None
        if epoch is not None:
            local_epoch = self._epoch_map.get(epoch)
            if local_epoch is None:
                self._send_failure(
                    key,
                    error=StaleBroadcastError(
                        f"node {self.node_id}: driver epoch {epoch} is not "
                        "installed"
                    ),
                    requeue=True,
                )
                return
        try:
            fn = pickle.loads(msg["fn"])
            task = pickle.loads(msg["task"])
        except Exception as exc:
            # A payload this node cannot decode is the task's failure,
            # not the node's: report it, keep the connection alive.
            self._send_failure(
                key,
                error=RuntimeError(
                    f"node {self.node_id}: could not unpickle task "
                    f"{msg['task_id']}: {exc!r}"
                ),
                requeue=False,
            )
            return
        worker_payload = (
            fn, msg["task_id"], task, local_epoch, msg["phase"],
            msg["attempt"], msg.get("injector"), bool(msg.get("profile")),
        )
        self._pending[key] = msg
        loop = self._loop

        def on_done(res: Any, key: tuple[int, int] = key) -> None:
            loop.call_soon_threadsafe(self._complete, key, res, None)

        def on_error(exc: BaseException, key: tuple[int, int] = key) -> None:
            loop.call_soon_threadsafe(self._complete, key, None, exc)

        self.engine._pool.apply_async(
            _run_task, (worker_payload,),
            callback=on_done, error_callback=on_error,
        )

    def _complete(
        self, key: tuple[int, int], res: Any, exc: BaseException | None
    ) -> None:
        if key not in self._pending:
            return  # already answered by a respawn notification
        if exc is not None:
            requeue = isinstance(exc, StaleBroadcastError)
            self._send_failure(key, error=exc, requeue=requeue)
            return
        del self._pending[key]
        task_id, result, elapsed, pid, _start_ts, blob = res
        self.tasks_run += 1
        body = {
            "task_id": task_id,
            "attempt": key[1],
            "ok": True,
            "result": pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
            "elapsed": elapsed,
            "pid": pid,
            "profile": blob,
        }
        self._post(proto.MSG_RESULT, body)

    def _send_failure(
        self, key: tuple[int, int], *, error: BaseException, requeue: bool
    ) -> None:
        self._pending.pop(key, None)
        try:
            error_blob = pickle.dumps(error)
        except Exception:
            error_blob = pickle.dumps(RuntimeError(repr(error)))
        body = {
            "task_id": key[0],
            "attempt": key[1],
            "ok": False,
            "error": error_blob,
            "requeue": requeue,
        }
        self._post(proto.MSG_RESULT, body)

    def _post(self, msg_type: int, body: dict) -> None:
        """Queue a frame to the current driver connection (loop thread)."""
        writer = self._writer
        if writer is None:
            return
        self._loop.create_task(
            self._send_safe(writer, msg_type, pickle.dumps(body))
        )

    async def _handle_stats(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        try:
            stats = await asyncio.get_running_loop().run_in_executor(
                None, self.engine.collect_broadcast_stats
            )
        except Exception:
            stats = []
        body = {"node_id": self.node_id, "workers": stats}
        await self._send_safe(writer, proto.MSG_STATS_ACK, pickle.dumps(body))

    # ------------------------------------------------------------------
    # Local fault tolerance + node chaos
    # ------------------------------------------------------------------

    async def _watchdog(self) -> None:
        """When a local worker dies, fail the in-flight tasks back to the
        driver as requeue-able at once — their retries need not wait for
        the new pool — then respawn the pool."""
        while True:
            # Well under the driver's shortest straggler wait, so a lost
            # attempt is requeued, not speculated.
            await asyncio.sleep(0.05)
            if self.engine._pool is not None and self.engine._pool_damaged():
                async with self._install_lock:
                    lost, self._pending = self._pending, {}
                    self._epoch_map = {}
                    for key in lost:
                        self._notify_lost(key)
                    await asyncio.get_running_loop().run_in_executor(
                        None, self._respawn
                    )

    def _respawn(self) -> None:
        # Keep the segments: the broadcast value is unchanged, the
        # replacement workers re-attach the node-local segments.
        self.engine._teardown_pool(keep_segments=True)
        self.engine._ensure_pool()
        if self._installed is not None:
            epoch, value, warmup = self._installed
            self.engine._ship_broadcast(value, warmup)
            self._epoch_map = {epoch: self.engine._shipped_epoch}
        self.respawns += 1

    def _notify_lost(self, key: tuple[int, int]) -> None:
        self._pending[key] = None  # re-arm so _send_failure pops cleanly
        self._send_failure(
            key,
            error=RuntimeError(
                f"node {self.node_id}: a local worker died; "
                "attempt lost, pool respawning"
            ),
            requeue=True,
        )

    async def _apply_node_chaos(
        self, phase: str, writer: asyncio.StreamWriter
    ) -> bool:
        """Execute this node's chaos decision for ``phase``.

        Returns ``False`` when the connection was dropped (the caller
        must not dispatch the task).  Crash never returns.
        """
        injector = self.injector
        if injector is None or self.node_id is None:
            return True
        count = self._phase_receipts[phase] = (
            self._phase_receipts.get(phase, 0) + 1
        )
        decision = injector.decide_node(phase, self.node_id)
        if decision.delay and count == 1:
            await asyncio.sleep(injector.node_delay_s)
        if decision.crash and count == 2:
            # Mid-phase node death.  Take the local workers down first
            # (an abruptly orphaned pool would outlive os._exit) and
            # unlink the node's segments — the machine is "gone", the
            # loopback host is not.  No goodbye frame: the driver must
            # discover the death, not be told.
            self.engine.close()
            os._exit(CRASH_EXIT_CODE)
        if decision.drop and count == 2 and phase not in self._dropped_phases:
            self._dropped_phases.add(phase)
            writer.close()
            return False
        return True
