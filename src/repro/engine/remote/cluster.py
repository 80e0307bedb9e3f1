"""Driver-side view of a node cluster.

:class:`RemoteCluster` owns one TCP connection per node agent and an
asyncio event loop running in a dedicated background thread; the engine
talks to it through a small synchronous facade (connect / ship / submit
/ stats / close) so the dispatch loop behind
:meth:`repro.engine.executors.Engine.map_tasks` stays synchronous —
remote flights expose the same ``ready()``/``get()`` surface as a pool
``AsyncResult``, plus a done callback that wakes the loop.

Liveness and death:

* every frame received from a node beats the
  :class:`~repro.engine.remote.protocol.HeartbeatMonitor`; a health
  task declares silent nodes dead after the timeout;
* a dropped connection (EOF, reset, frame garbage) kills the node
  immediately;
* death fails that node's in-flight futures with
  :class:`NodeDeathError`, resets its shipped-epoch bookkeeping, and —
  when ``reconnect`` is on — starts a background redial; a rejoined
  node starts with no installed broadcast, so the substrate re-ships
  the current epoch before dispatching to it again.

Per-node counters (ships, bytes, tasks, deaths, rejoins) accumulate on
the :class:`RemoteNode` records and surface as the run report's node
ledger.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import pickle
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.engine.faults import EngineClosedError
from repro.engine.remote import protocol as proto

__all__ = [
    "RemoteCluster",
    "RemoteNode",
    "NodeDeathError",
    "RemoteTaskLostError",
    "parse_node_addr",
]


class NodeDeathError(RuntimeError):
    """A node died (missed heartbeats or dropped connection)."""


class RemoteTaskLostError(RuntimeError):
    """An attempt was lost to a node-local pool respawn; the task is
    requeue-able without charging retry budget (the node's fault, not
    the task's)."""


def parse_node_addr(addr: str) -> tuple[str, int]:
    """Parse ``host:port`` (the CLI/-constructor node syntax)."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"node address {addr!r} is not host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"node address {addr!r} has a non-integer port")


@dataclass
class RemoteNode:
    """Driver-side record of one node: address, link, and counters."""

    node_id: int
    host: str
    port: int
    workers: int = 0
    pid: int = 0
    alive: bool = False
    #: Driver broadcast epoch this node has installed (None = none).
    shipped_epoch: int | None = None
    # Lifetime counters (the node ledger).
    tasks_done: int = 0
    ships: int = 0
    bytes_shipped: int = 0
    deaths: int = 0
    rejoins: int = 0
    reader: Any = field(default=None, repr=False)
    writer: Any = field(default=None, repr=False)

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def label(self) -> str:
        return f"n{self.node_id}"

    def ledger_row(self) -> dict:
        return {
            "node": self.label,
            "addr": self.addr,
            "workers": self.workers,
            "tasks": self.tasks_done,
            "ships": self.ships,
            "bytes_shipped": self.bytes_shipped,
            "deaths": self.deaths,
            "rejoins": self.rejoins,
            "alive": self.alive,
        }


class _RemoteFlightResult:
    """AsyncResult-shaped adapter over a concurrent future.

    ``get()`` decodes the RESULT body on the *caller's* thread (the
    recovery loop), keeping big unpickles off the event loop, and
    reconstructs the remote failure taxonomy: the original exception
    for ordinary task failures (retry budget applies),
    :class:`RemoteTaskLostError` for requeue-able losses,
    :class:`NodeDeathError` when the node died under the flight.
    """

    def __init__(self, future: concurrent.futures.Future) -> None:
        self._future = future

    def ready(self) -> bool:
        return self._future.done()

    def add_done_callback(self, callback: Callable[[Any], Any]) -> None:
        """Call ``callback(future)`` once the attempt is answered or its
        node dies (at once if that already happened)."""
        self._future.add_done_callback(callback)

    def get(self) -> tuple[int, Any, float, int, float | None, bytes | None]:
        body = self._future.result()
        if not body["ok"]:
            error = pickle.loads(body["error"])
            if body.get("requeue"):
                raise RemoteTaskLostError(str(error)) from error
            raise error
        result = pickle.loads(body["result"])
        return (
            body["task_id"], result, body["elapsed"], body["pid"],
            None, body.get("profile"),
        )


class RemoteCluster:
    """Connections, liveness, and dispatch for a set of node agents.

    Parameters
    ----------
    addrs:
        ``host:port`` strings, one per node; node ids are their indices.
    injector:
        Optional :class:`~repro.engine.faults.FaultInjector` forwarded
        to every agent in the hello, carrying the node-chaos
        probabilities (``node_crash`` et al.).
    heartbeat_timeout_s:
        Silence window after which a node is declared dead.
    connect_timeout_s:
        Per-node budget for dial + hello.
    reconnect:
        Redial dead nodes in the background; a rejoined node is used
        again after the substrate re-ships the current broadcast.
    clock:
        Injectable monotonic clock for the heartbeat monitor (tests).
    """

    def __init__(
        self,
        addrs: Sequence[str],
        *,
        injector: Any = None,
        heartbeat_timeout_s: float = 10.0,
        connect_timeout_s: float = 10.0,
        reconnect: bool = True,
        reconnect_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not addrs:
            raise ValueError("a remote cluster needs at least one node address")
        self.nodes = [
            RemoteNode(node_id, *parse_node_addr(addr))
            for node_id, addr in enumerate(addrs)
        ]
        self.injector = injector
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnect = reconnect
        self.reconnect_interval_s = reconnect_interval_s
        self._monitor = proto.HeartbeatMonitor(heartbeat_timeout_s, clock=clock)
        self._lock = threading.Lock()
        #: (node_id, task_id, attempt) -> concurrent future of the body.
        self._pending: dict[tuple[int, int, int], concurrent.futures.Future] = {}
        #: Death events not yet consumed by the substrate: (node, reason).
        self._death_events: list[tuple[RemoteNode, str]] = []
        #: Nodes that rejoined and have not been re-equipped yet.
        self._rejoined: list[RemoteNode] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Dial and hello every node; raises if any node is unreachable."""
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="rpdbscan-remote-cluster",
            daemon=True,
        )
        self._thread.start()
        try:
            self._call(
                self._connect_all(),
                timeout=self.connect_timeout_s * len(self.nodes) + 10.0,
            )
            self._call(self._start_health(), timeout=5.0)
        except BaseException:
            self.close()
            raise

    def close(self, *, shutdown_agents: bool = True) -> None:
        """Cancel flights, hang up (optionally telling agents to exit),
        and stop the loop thread.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    EngineClosedError("remote cluster closed with tasks in flight")
                )
        if self._loop is not None and self._loop.is_running():
            with contextlib.suppress(Exception):
                self._call(
                    self._shutdown_all(shutdown_agents), timeout=5.0
                )
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._loop is not None and not self._loop.is_running():
            with contextlib.suppress(Exception):
                self._loop.close()

    def _call(self, coro: Any, *, timeout: float) -> Any:
        """Run a coroutine on the loop thread, synchronously."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TimeoutError("remote cluster operation timed out") from None

    # ------------------------------------------------------------------
    # Connection management (loop thread)
    # ------------------------------------------------------------------

    async def _connect_all(self) -> None:
        errors = []
        for node in self.nodes:
            try:
                await asyncio.wait_for(
                    self._connect(node), timeout=self.connect_timeout_s
                )
            except Exception as exc:
                errors.append(f"{node.label} ({node.addr}): {exc!r}")
        if errors:
            raise ConnectionError(
                "could not reach node agent(s): " + "; ".join(errors)
            )

    async def _connect(self, node: RemoteNode) -> None:
        reader, writer = await asyncio.open_connection(node.host, node.port)
        hello = {
            "node_id": node.node_id,
            "driver_pid": None,
            "injector": self.injector,
        }
        await proto.write_frame(writer, proto.MSG_HELLO, pickle.dumps(hello))
        msg_type, payload = await proto.read_frame(reader)
        if msg_type == proto.MSG_ERROR:
            writer.close()
            raise ConnectionError(
                f"node {node.label} refused hello: {pickle.loads(payload)}"
            )
        if msg_type != proto.MSG_HELLO_ACK:
            writer.close()
            raise proto.FrameError(
                f"expected hello ack from {node.label}, got type {msg_type}"
            )
        ack = pickle.loads(payload)
        with self._lock:
            node.reader, node.writer = reader, writer
            node.workers = int(ack["workers"])
            node.pid = int(ack["pid"])
            node.alive = True
            node.shipped_epoch = None
        self._monitor.beat(node.node_id)
        asyncio.get_running_loop().create_task(self._read_loop(node))

    async def _read_loop(self, node: RemoteNode) -> None:
        reader = node.reader
        try:
            while True:
                msg_type, payload = await proto.read_frame(reader)
                self._monitor.beat(node.node_id)
                if msg_type == proto.MSG_RESULT:
                    body = pickle.loads(payload)
                    key = (node.node_id, body["task_id"], body["attempt"])
                    with self._lock:
                        future = self._pending.pop(key, None)
                        if future is not None and body["ok"]:
                            node.tasks_done += 1
                    if future is not None and not future.done():
                        future.set_result(body)
                elif msg_type in (
                    proto.MSG_HEARTBEAT,
                    proto.MSG_BROADCAST_ACK,
                    proto.MSG_STATS_ACK,
                ):
                    if msg_type != proto.MSG_HEARTBEAT:
                        self._resolve_ack(node, msg_type, payload)
                elif msg_type == proto.MSG_ERROR:
                    raise proto.FrameError(
                        f"node {node.label} reported: {pickle.loads(payload)}"
                    )
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            proto.FrameError,
        ) as exc:
            if node.reader is reader:  # not superseded by a reconnect
                self._mark_dead(node, f"connection lost ({exc!r})")

    # Per-node one-slot ack mailboxes (broadcast ack, stats ack).  The
    # driver serializes these per node — one ship or stats request in
    # flight per node at a time — so a single slot per type suffices.
    def _ack_box(self, node: RemoteNode) -> dict:
        box = getattr(node, "_acks", None)
        if box is None:
            box = {}
            node._acks = box  # type: ignore[attr-defined]
        return box

    def _resolve_ack(self, node: RemoteNode, msg_type: int, payload: bytes) -> None:
        future = self._ack_box(node).pop(msg_type, None)
        if future is not None and not future.done():
            future.set_result(pickle.loads(payload))

    def _expect_ack(
        self, node: RemoteNode, msg_type: int
    ) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._ack_box(node)[msg_type] = future
        return future

    def _mark_dead(self, node: RemoteNode, reason: str) -> None:
        with self._lock:
            if not node.alive:
                return
            node.alive = False
            node.deaths += 1
            node.shipped_epoch = None
            self._death_events.append((node, reason))
            lost = [
                (key, future)
                for key, future in self._pending.items()
                if key[0] == node.node_id
            ]
            for key, _ in lost:
                del self._pending[key]
        self._monitor.forget(node.node_id)
        for msg_type, future in list(self._ack_box(node).items()):
            self._ack_box(node).pop(msg_type, None)
            if not future.done():
                future.set_exception(
                    NodeDeathError(f"node {node.label} died: {reason}")
                )
        for _, future in lost:
            if not future.done():
                future.set_exception(
                    NodeDeathError(f"node {node.label} died: {reason}")
                )
        if node.writer is not None:
            with contextlib.suppress(Exception):
                node.writer.close()
        if self.reconnect and not self._closed:
            self._loop.create_task(self._redial(node))

    async def _redial(self, node: RemoteNode) -> None:
        while not self._closed and not node.alive:
            await asyncio.sleep(self.reconnect_interval_s)
            try:
                await asyncio.wait_for(
                    self._connect(node), timeout=self.connect_timeout_s
                )
            except Exception:
                continue
            with self._lock:
                node.rejoins += 1
                self._rejoined.append(node)
            return

    async def _start_health(self) -> None:
        async def health() -> None:
            interval = max(self.heartbeat_timeout_s / 4.0, 0.05)
            while not self._closed:
                await asyncio.sleep(interval)
                for node_id in self._monitor.expired():
                    node = self.nodes[node_id]
                    if node.alive:
                        self._mark_dead(
                            node,
                            f"missed heartbeats for "
                            f">{self.heartbeat_timeout_s:g}s",
                        )

        asyncio.get_running_loop().create_task(health())

    async def _shutdown_all(self, shutdown_agents: bool) -> None:
        for node in self.nodes:
            if node.writer is None:
                continue
            if shutdown_agents and node.alive:
                with contextlib.suppress(Exception):
                    await proto.write_frame(node.writer, proto.MSG_SHUTDOWN)
            with contextlib.suppress(Exception):
                node.writer.close()
        # Retire the helper tasks (read loops, health, redials) so
        # stopping the loop does not strand them mid-await.
        for task in asyncio.all_tasks():
            if task is not asyncio.current_task():
                task.cancel()

    # ------------------------------------------------------------------
    # Synchronous facade (driver thread)
    # ------------------------------------------------------------------

    def alive_nodes(self) -> list[RemoteNode]:
        with self._lock:
            return [n for n in self.nodes if n.alive]

    def total_slots(self) -> int:
        return sum(n.workers for n in self.alive_nodes())

    def take_death_events(self) -> list[tuple[RemoteNode, str]]:
        """Drain the not-yet-consumed node-death events."""
        with self._lock:
            events, self._death_events = self._death_events, []
        return events

    def take_rejoined(self) -> list[RemoteNode]:
        """Drain the nodes that reconnected since the last call."""
        with self._lock:
            rejoined, self._rejoined = self._rejoined, []
        return rejoined

    def submit(
        self,
        node: RemoteNode,
        *,
        task_id: int,
        attempt: int,
        epoch: int | None,
        phase: str,
        fn_blob: bytes,
        task_blob: bytes,
        injector: Any = None,
        profile: bool = False,
    ) -> _RemoteFlightResult:
        """Dispatch one task attempt to ``node``; returns a flight whose
        ``ready()``/``get()`` mirror a pool ``AsyncResult``."""
        body = {
            "task_id": task_id,
            "attempt": attempt,
            "epoch": epoch,
            "phase": phase,
            "fn": fn_blob,
            "task": task_blob,
            "injector": injector,
            "profile": profile,
        }
        key = (node.node_id, task_id, attempt)
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            if self._closed:
                raise EngineClosedError("submit on a closed remote cluster")
            if not node.alive:
                raise NodeDeathError(f"node {node.label} is dead")
            self._pending[key] = future
        blob = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)

        async def send() -> None:
            try:
                await proto.write_frame(node.writer, proto.MSG_TASK, blob)
            except Exception as exc:
                self._mark_dead(node, f"send failed ({exc!r})")

        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(send())
        )
        return _RemoteFlightResult(future)

    def ship_broadcast(
        self,
        epoch: int,
        value_blob: bytes,
        warmup_blob: bytes | None,
        nodes: Sequence[RemoteNode] | None = None,
        *,
        timeout_s: float = 120.0,
    ) -> dict[int, dict]:
        """Ship one epoch to every (given) alive node lacking it.

        Sends the pre-pickled value to each target concurrently, waits
        for every BROADCAST_ACK, and updates the per-node ledger.  A
        node dying mid-ship is left to the death-event machinery; its
        absence from the returned ``{node_id: ack}`` map tells the
        substrate not to dispatch to it.  Raises only if *no* target
        node accepted the epoch.
        """
        targets = [
            n for n in (nodes if nodes is not None else self.nodes)
            if n.alive and n.shipped_epoch != epoch
        ]
        if not targets:
            return {}
        body = pickle.dumps(
            {"epoch": epoch, "value": value_blob, "warmup": warmup_blob},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        acks: dict[int, concurrent.futures.Future] = {}

        async def send(node: RemoteNode) -> None:
            try:
                await proto.write_frame(node.writer, proto.MSG_BROADCAST, body)
            except Exception as exc:
                self._mark_dead(node, f"broadcast send failed ({exc!r})")

        for node in targets:
            acks[node.node_id] = self._expect_ack(node, proto.MSG_BROADCAST_ACK)
            self._loop.call_soon_threadsafe(
                lambda n=node: self._loop.create_task(send(n))
            )
        results: dict[int, dict] = {}
        deadline = time.monotonic() + timeout_s
        for node in targets:
            budget = max(deadline - time.monotonic(), 0.01)
            try:
                ack = acks[node.node_id].result(timeout=budget)
            except (NodeDeathError, concurrent.futures.TimeoutError):
                continue
            if not ack.get("ok", False):
                continue
            with self._lock:
                node.shipped_epoch = epoch
                node.ships += 1
                node.bytes_shipped += len(value_blob)
            results[node.node_id] = ack
        if not results:
            raise NodeDeathError(
                f"no node accepted broadcast epoch {epoch} "
                f"({len(targets)} target(s))"
            )
        return results

    def collect_stats(self, *, timeout_s: float = 30.0) -> list[tuple[str, dict]]:
        """Gather each node's worker shard-residency ledgers.

        Returns ``[(f"n<k>:<pid>", stats), ...]`` across all alive
        nodes — the remote analogue of
        :meth:`Engine.collect_broadcast_stats`'s ``(pid, stats)`` rows.
        """
        acks = []
        for node in self.alive_nodes():
            future = self._expect_ack(node, proto.MSG_STATS_ACK)

            async def send(n: RemoteNode = node) -> None:
                try:
                    await proto.write_frame(n.writer, proto.MSG_STATS)
                except Exception as exc:
                    self._mark_dead(n, f"stats send failed ({exc!r})")

            self._loop.call_soon_threadsafe(
                lambda n=node: self._loop.create_task(send(n))
            )
            acks.append((node, future))
        rows: list[tuple[str, dict]] = []
        deadline = time.monotonic() + timeout_s
        for node, future in acks:
            budget = max(deadline - time.monotonic(), 0.01)
            try:
                body = future.result(timeout=budget)
            except (NodeDeathError, concurrent.futures.TimeoutError):
                continue
            for pid, stats in body.get("workers", []):
                rows.append((f"{node.label}:{pid}", stats))
        return rows

    def ledger(self) -> list[dict]:
        """Per-node counters for the run report / fit result."""
        with self._lock:
            return [node.ledger_row() for node in self.nodes]
