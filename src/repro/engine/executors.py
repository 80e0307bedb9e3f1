"""Task executors: serial (deterministic), a persistent process pool,
and a node cluster.

The engine exposes one operation, :meth:`Engine.map_tasks`: apply a
function to every task of a phase, with an optional broadcast value
shared by all tasks, and record a :class:`~repro.engine.counters.TaskStats`
per task.  This mirrors the Spark usage in the paper — ``mapPartitions``
over pseudo random partitions with the broadcast two-level cell
dictionary.

**One dispatch loop.**  Every ``map_tasks`` call runs the same
driver-side loop (``Engine._map_with_recovery``) over one of three
substrates: the driver itself (serial mode and single-task phases), the
local process pool, or the node cluster.  The loop sleeps until an
attempt completes — pool callbacks and remote futures wake it — and at
most ``poll_interval_s`` while nothing does, which paces the
worker-death watch.  Retries, timeouts, tracing, and task accounting
live in that loop alone.

Process-mode semantics (matching Spark's executor model):

* **One pool per engine lifetime.**  The worker pool is created lazily
  on the first parallel ``map_tasks`` call and then reused by every
  subsequent phase and every subsequent ``fit()`` that shares the
  engine.  Use the engine as a context manager (``with Engine("process")
  as e: ...``) or call :meth:`Engine.close` to release the workers;
  ``close()`` is idempotent and permanent — mapping on a closed engine
  fails with :class:`~repro.engine.faults.EngineClosedError` instead of
  silently resurrecting workers.
* **Epoch-tagged broadcast caching.**  Each distinct broadcast value is
  shipped to each worker exactly once, via a barrier fan-out that lands
  one install task on every worker.  An epoch counter tags the installed
  value; re-mapping with the *same* broadcast object ships nothing,
  while a new broadcast bumps the epoch and invalidates the per-worker
  module-level cache.  Every task carries its expected epoch, so a stale
  cache raises instead of silently computing with old data.
* **Warm-up hook.**  ``map_tasks(..., warmup=fn)`` runs ``fn(broadcast)``
  once per worker during broadcast installation (once on the driver in
  serial mode).  Phase II uses this to build the region-query engine
  (candidate index, kernel JIT) *before* the first task, so first-task
  timings measure clustering, not index construction.
* **Setup vs. compute accounting.**  Pool startup, broadcast shipping,
  and warm-up are recorded in the counters' ``engine.setup`` bucket
  (:attr:`~repro.engine.counters.Counters.setup_seconds`), outside every
  phase timer, so Fig 12/13 reproductions are not polluted by one-time
  engine overhead.
* **Fault tolerance.**  A :class:`~repro.engine.faults.FaultPolicy`
  sets what the loop recovers from: per-task retries with exponential
  backoff, per-task and per-phase timeouts, a worker-death watchdog
  that re-spawns the pool (re-shipping broadcasts under a fresh epoch),
  and straggler detection with speculative re-execution — the Spark
  safety net the paper's substrate provides for free.  Without a
  policy the loop runs under one with no retries, re-spawns,
  speculation, or timeouts: a failing task re-raises its own
  exception, and a lost worker or node fails the phase naming the loss.
  Recovery events land in the counters' fault buckets
  (``engine.retries``, ``engine.timeouts``, ``engine.respawns``,
  ``engine.speculations``) and, like setup time, never enter phase
  breakdowns.
* **Observability (opt-in).**  Constructing the engine with a
  :class:`~repro.obs.spans.Tracer` records every phase as a span tree —
  phase → task → attempt, with worker ids, broadcast epochs, and
  retry/timeout/respawn/speculation event spans — exportable as JSONL
  or Chrome ``trace_event`` JSON (see :mod:`repro.obs`).  ``profile=
  True`` additionally runs each task body under ``cProfile`` and merges
  the per-worker captures into one stats view.  Both default off; an
  untraced run costs one no-op call per recording site.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import pickle
import statistics
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine.counters import DRIVER_WORKER, Counters, TaskStats
from repro.obs.profiling import dump_merged_profile, profile_call
from repro.obs.spans import (
    EVENT_RESPAWN,
    EVENT_RETRY,
    EVENT_SPECULATION,
    EVENT_TIMEOUT,
    NULL_TRACER,
    Span,
    Tracer,
)
from repro.engine.faults import (
    FAULT_RESPAWNS,
    FAULT_RETRIES,
    FAULT_SPECULATIONS,
    FAULT_TIMEOUTS,
    EngineClosedError,
    FaultInjector,
    FaultPolicy,
    PhaseTimeoutError,
    StaleBroadcastError,
    TaskFailedError,
)
from repro.engine.remote.cluster import NodeDeathError, RemoteTaskLostError

__all__ = ["Engine"]

#: Sentinel meaning "no broadcast has been shipped/warmed yet" — distinct
#: from ``None``, which is a legal (if pointless) broadcast value.
_NOTHING = object()

#: Deadlock backstop for the broadcast-install rendezvous: if a worker
#: died, the barrier breaks loudly after this many seconds instead of
#: hanging the fan-out forever.
_BARRIER_TIMEOUT_S = 120.0

#: The policy of an engine constructed without one: no retries, no
#: re-spawns, no speculation, no timeouts.  Under it a failing task
#: re-raises its own exception, and a lost worker or node fails the
#: phase with an error naming the loss.
_NO_POLICY = FaultPolicy(max_retries=0, max_respawns=0, speculative=False)

# ----------------------------------------------------------------------
# Worker-side module state.  Lives in each pool worker process; the
# driver's copy is only used when tasks run inline.
# ----------------------------------------------------------------------
_WORKER_BROADCAST: Any = None
_WORKER_EPOCH: int = -1
_WORKER_BARRIER: Any = None
_WORKER_INSTALLS: int = 0
#: Shared-memory attachments backing the current broadcast (shm channel
#: only): the flat segment and/or sharded attachments, each exposing
#: ``close()``; kept so a later install can unmap the previous epoch.
_WORKER_SHM: list[Any] = []


def _init_worker(barrier: Any) -> None:
    """Pool initializer: reset the broadcast cache, keep the barrier."""
    global _WORKER_BROADCAST, _WORKER_EPOCH, _WORKER_BARRIER, _WORKER_INSTALLS
    global _WORKER_SHM
    _WORKER_BARRIER = barrier
    _WORKER_BROADCAST = None
    _WORKER_EPOCH = -1
    _WORKER_INSTALLS = 0
    _WORKER_SHM = []
    _reset_inherited_signal_state()


def _reset_inherited_signal_state() -> None:
    """Drop event-loop signal plumbing a fork-context worker inherits.

    When the parent runs an asyncio loop with ``add_signal_handler``
    (the node agent does), forked workers inherit both the loop's
    signal wakeup fd — the *shared* socketpair the loop sleeps on — and
    the no-op Python-level SIGTERM/SIGINT handlers.  A SIGTERM aimed at
    such a worker (``pool.terminate()`` during a respawn) then (a) gets
    swallowed by the no-op handler so the worker never dies, and (b) is
    written by the worker's C trampoline into the shared wakeup pipe,
    which the *parent's* loop reads as its own SIGTERM and shuts the
    agent down mid-fit.  Clearing the wakeup fd and restoring default
    dispositions here confines each worker's signals to the worker.
    """
    import signal

    with contextlib.suppress(ValueError, OSError):
        signal.set_wakeup_fd(-1)
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(ValueError, OSError):
            if signal.getsignal(sig) not in (
                signal.SIG_DFL,
                signal.SIG_IGN,
                signal.default_int_handler,
            ):
                signal.signal(sig, signal.SIG_DFL)


def _install_broadcast(
    payload: tuple[int, str, bytes, Any, Callable[[Any], Any] | None],
) -> tuple[int, int, float]:
    """Install one broadcast epoch in this worker, then rendezvous.

    ``payload`` is ``(epoch, channel, blob, handle, warmup)``: the value
    arrives pre-pickled by the driver (``blob``), either self-contained
    (``channel == "pickle"``) or with its dictionaries hoisted into
    shared memory (``channel == "shm"``), ``handle`` being the pair
    ``(flat_segment_handle | None, sharded_dictionary_handles)``.  The
    flat segment (if any) and every sharded root segment are attached
    eagerly; leaf shard segments attach lazily through the partial
    dictionary's LRU store, bounded by the broadcast budget.

    The trailing ``barrier.wait()`` keeps this worker busy until *every*
    worker has taken exactly one install task, which is what guarantees
    the fan-out reaches the whole pool instead of piling onto one idle
    worker.
    """
    epoch, channel, blob, handle, warmup = payload
    global _WORKER_BROADCAST, _WORKER_EPOCH, _WORKER_INSTALLS, _WORKER_SHM
    if channel == "shm":
        from repro.engine import shm as _shm

        flat_handle, sharded_handles = handle
        attachments: list[Any] = []
        flat_shm = None
        if flat_handle is not None:
            flat_shm = _shm.attach_segment(flat_handle)
            attachments.append(flat_shm)
        value, sharded_attachments = _shm.import_broadcast_parts(
            blob, flat_handle, flat_shm, sharded_handles
        )
        attachments.extend(sharded_attachments)
    else:
        attachments = []
        value = pickle.loads(blob)
    previous = _WORKER_SHM
    _WORKER_BROADCAST = value
    _WORKER_SHM = attachments
    _WORKER_EPOCH = epoch
    _WORKER_INSTALLS += 1
    for stale in previous:
        # The prior epoch's views just became garbage; unmap them.  A
        # lingering reference would make close() raise — leave the unmap
        # to process exit in that case rather than fail the install.
        try:
            stale.close()
        except Exception:
            pass
    warm_seconds = 0.0
    if warmup is not None:
        start = time.perf_counter()
        warmup(value)
        warm_seconds = time.perf_counter() - start
    _WORKER_BARRIER.wait(timeout=_BARRIER_TIMEOUT_S)
    return os.getpid(), _WORKER_INSTALLS, warm_seconds


def _collect_residency(_token: int) -> tuple[int, dict]:
    """Report this worker's shard-residency ledger, then rendezvous.

    The barrier gives the fan-out the same every-worker-exactly-once
    guarantee as :func:`_install_broadcast`.
    """
    from repro.core.sharding import live_residency_stats

    stats = live_residency_stats()
    _WORKER_BARRIER.wait(timeout=_BARRIER_TIMEOUT_S)
    return os.getpid(), stats


def _run_task(
    payload: tuple[
        Callable[..., Any], int, Any, int | None, str, int,
        FaultInjector | None, bool,
    ],
) -> tuple[int, Any, float, int, float, bytes | None]:
    """Worker-side task body.

    Returns ``(task_id, result, elapsed, pid, start_ts, profile_blob)``.
    ``start_ts`` is the worker's ``perf_counter`` at compute start — on
    Linux (where the pool forks) that clock is ``CLOCK_MONOTONIC``,
    system-wide, so the driver's tracer can place the execution window
    on its own time axis.
    """
    fn, task_id, task, epoch, phase, attempt, injector, profile = payload
    if injector is not None:
        # Chaos happens before the task timer starts: an injected delay
        # models infrastructure slowness, not task compute.
        injector.apply(phase, task_id, attempt, allow_crash=True)
    if epoch is None:
        args = (task,)
    else:
        if _WORKER_EPOCH != epoch:
            raise StaleBroadcastError(
                f"stale broadcast in worker {os.getpid()}: cached epoch "
                f"{_WORKER_EPOCH}, task expects {epoch}"
            )
        args = (task, _WORKER_BROADCAST)
    return (task_id, *_timed_call(fn, args, profile))


def _timed_call(
    fn: Callable[..., Any], args: tuple, profile: bool
) -> tuple[Any, float, int, float, bytes | None]:
    """Run one task body: ``(result, elapsed, pid, start_ts, profile_blob)``."""
    start = time.perf_counter()
    blob = None
    if profile:
        result, blob = profile_call(fn, *args)
    else:
        result = fn(*args)
    return result, time.perf_counter() - start, os.getpid(), start, blob


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def _default_start_method() -> str:
    # fork is fastest where safe; Windows (and notably macOS since 3.8's
    # default flip) wants spawn.  Everything here is spawn-safe anyway.
    return "fork" if os.name == "posix" else "spawn"


@dataclass
class _Flight:
    """Driver-side record of one in-flight task attempt."""

    task_id: int
    attempt: int
    submitted_at: float
    async_result: Any
    timed_out: bool = False
    #: Remote substrate only: the :class:`RemoteNode` running the attempt.
    node: Any = None

    @property
    def node_id(self) -> int | None:
        return None if self.node is None else self.node.node_id


class _Finished:
    """An attempt that already ran, shaped like a pool ``AsyncResult``."""

    def __init__(self, outcome: Any = None, error: Exception | None = None) -> None:
        self._outcome = outcome
        self._error = error

    def ready(self) -> bool:
        return True

    def get(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._outcome


class _Substrate:
    """The recovery loop's view of where attempts run.

    The loop itself is substrate-agnostic: it launches attempts, reaps
    completions, retries, times out, speculates.  What varies between
    the driver, a local pool, and a node cluster is *where* attempts
    run, *what* a capacity slot is, *how* infrastructure death
    manifests, and *which* flights one death invalidates — exactly the
    surface the substrate classes carry.  This base holds the defaults
    (nothing to lose, nothing to maintain) and the completion event the
    loop sleeps on.
    """

    #: ``"pool"``: one damage event invalidates every in-flight attempt;
    #: ``"node"``: only the dead node's.
    loss_scope = "pool"

    def __init__(
        self,
        engine: "Engine",
        broadcast: Any,
        wants_broadcast: bool,
        warmup: Callable[[Any], Any] | None,
    ) -> None:
        self.engine = engine
        self.broadcast = broadcast
        self.wants_broadcast = wants_broadcast
        self.warmup = warmup
        #: Set by every attempt completion; the loop waits on it.
        self.completed = threading.Event()
        policy = engine.fault_policy or _NO_POLICY
        #: Attempts admitted per worker slot.  A second one waits in the
        #: worker's queue, so a worker that finishes starts its next task
        #: without a round trip through the driver — but then an
        #: attempt's age includes queue time, so only when no task
        #: timeout or speculation reads that age.
        self.depth = (
            1 if policy.speculative or policy.task_timeout_s is not None else 2
        )

    @property
    def epoch(self) -> int | None:
        return self.engine._shipped_epoch if self.wants_broadcast else None

    def _wake(self, _outcome: Any = None) -> None:
        self.completed.set()

    def damage_events(self) -> list[tuple[Any, str]]:
        """Newly detected infrastructure deaths: ``(node, reason)``
        pairs (``node`` is ``None`` for the local pool)."""
        return []

    def maintain(self) -> float:
        """Periodic upkeep; returns setup seconds to exclude from the
        phase timer."""
        return 0.0

    def lost_flights(self, flights: list[_Flight], node: Any) -> list[_Flight]:
        return list(flights)

    def recover(self, reason: str) -> None:
        return None

    def release(self, flight: _Flight) -> None:
        return None

    def worker_label(self, flight: _Flight, pid: int) -> int | str:
        return pid

    def flight_annotations(self, flight: _Flight) -> dict[str, Any]:
        return {}

    def attempt_window(
        self, flight: _Flight, start_ts: float | None, elapsed: float
    ) -> tuple[float, float]:
        # Worker perf_counter is CLOCK_MONOTONIC on Linux — same axis
        # as the driver's, so the reported window is used directly.
        return start_ts, start_ts + elapsed


class _InlineSubstrate(_Substrate):
    """The recovery loop's view of the driver itself: serial mode and
    single-task phases.

    One slot.  An attempt runs to completion inside :meth:`submit`, so
    the loop reaps it on its next scan; nothing can preempt the driver,
    so task timeouts and speculation never fire, and an injected crash
    degrades to an :class:`~repro.engine.faults.InjectedFault` (the
    driver must live).  There is no infrastructure to lose.
    """

    #: Tasks read the broadcast object itself; nothing is shipped.
    epoch = None

    def has_slot(self, n_inflight: int) -> bool:
        return n_inflight < 1

    def submit(
        self,
        fn: Callable[..., Any],
        task_id: int,
        task: Any,
        attempt: int,
        phase: str,
        injector: FaultInjector | None,
        profile: bool,
    ) -> _Flight:
        submitted = time.perf_counter()
        args = (task, self.broadcast) if self.wants_broadcast else (task,)
        try:
            if injector is not None:
                injector.apply(phase, task_id, attempt, allow_crash=False)
            outcome = _Finished((task_id, *_timed_call(fn, args, profile)))
        except Exception as exc:
            outcome = _Finished(error=exc)
        return _Flight(task_id, attempt, submitted, outcome)

    def worker_label(self, flight: _Flight, pid: int) -> int | str:
        return DRIVER_WORKER


class _ProcessSubstrate(_Substrate):
    """The recovery loop's view of the local process pool.

    Capacity is ``num_workers``, damage is ``_pool_damaged()`` (a worker
    died or was silently replaced), one damage event invalidates
    **every** flight (``loss_scope="pool"``), and recovery is a full
    pool re-spawn with a broadcast re-ship under a fresh epoch.  The
    pool's result callbacks wake the loop; a dead worker's attempt never
    completes, which is what the damage watch is for.
    """

    def has_slot(self, n_inflight: int) -> bool:
        return n_inflight < self.depth * self.engine.num_workers

    def submit(
        self,
        fn: Callable[..., Any],
        task_id: int,
        task: Any,
        attempt: int,
        phase: str,
        injector: FaultInjector | None,
        profile: bool,
    ) -> _Flight:
        payload = (fn, task_id, task, self.epoch, phase, attempt, injector, profile)
        return _Flight(
            task_id,
            attempt,
            time.perf_counter(),
            self.engine._pool.apply_async(
                _run_task, (payload,),
                callback=self._wake, error_callback=self._wake,
            ),
        )

    def damage_events(self) -> list[tuple[Any, str]]:
        if self.engine._pool_damaged():
            return [(None, "a worker process died")]
        return []

    def recover(self, reason: str) -> None:
        engine = self.engine
        with engine.counters.timed_setup("respawn_teardown"):
            # Keep the segments: the broadcast value is unchanged, so
            # the replacement workers re-attach what already exists.
            engine._teardown_pool(keep_segments=True)
        engine._ensure_pool()
        if self.wants_broadcast:
            engine._ship_broadcast(self.broadcast, self.warmup)

    def exhausted_message(self, budget: int, phase: str, reason: str) -> str:
        return (
            f"pool re-spawn budget ({budget}) exhausted "
            f"during phase {phase!r}: {reason}"
        )


class _RemoteSubstrate(_Substrate):
    """The recovery loop's view of a node cluster.

    Capacity is per-node (a node contributes ``workers`` slots while it
    holds the current broadcast epoch), damage is node death (missed
    heartbeats or a dropped connection), one death invalidates only
    **that node's** flights (``loss_scope="node"`` — the survivors keep
    computing), and recovery is re-shipping the current epoch to nodes
    that rejoin.  fn and tasks cross the wire pickled per attempt; the
    fn blob is cached since every attempt of a phase shares it.  Each
    attempt's future wakes the loop when its result (or its node's
    death) arrives.
    """

    loss_scope = "node"

    def __init__(
        self,
        engine: "Engine",
        broadcast: Any,
        wants_broadcast: bool,
        warmup: Callable[[Any], Any] | None,
    ) -> None:
        super().__init__(engine, broadcast, wants_broadcast, warmup)
        self.cluster = engine._cluster
        self._fn: Any = _NOTHING
        self._fn_blob: bytes | None = None
        #: node_id -> attempts currently on that node (driver view).
        self.inflight: dict[int, int] = {}
        self._all_dead_since: float | None = None

    def _eligible_nodes(self) -> list[Any]:
        epoch = self.epoch
        return [
            node
            for node in self.cluster.alive_nodes()
            if epoch is None or node.shipped_epoch == epoch
        ]

    def _pick_node(self) -> Any:
        """Least-loaded eligible node with a free slot, or ``None``."""
        best = None
        best_load = None
        for node in self._eligible_nodes():
            load = self.inflight.get(node.node_id, 0)
            if load >= self.depth * node.workers:
                continue
            if best is None or load / node.workers < best_load:
                best = node
                best_load = load / node.workers
        return best

    def has_slot(self, n_inflight: int) -> bool:
        return self._pick_node() is not None

    def submit(
        self,
        fn: Callable[..., Any],
        task_id: int,
        task: Any,
        attempt: int,
        phase: str,
        injector: FaultInjector | None,
        profile: bool,
    ) -> _Flight | None:
        node = self._pick_node()
        if node is None:
            return None
        if fn is not self._fn:
            self._fn = fn
            self._fn_blob = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        result = self.cluster.submit(
            node,
            task_id=task_id,
            attempt=attempt,
            epoch=self.epoch,
            phase=phase,
            fn_blob=self._fn_blob,
            task_blob=pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL),
            injector=injector,
            profile=profile,
        )
        self.inflight[node.node_id] = self.inflight.get(node.node_id, 0) + 1
        result.add_done_callback(self._wake)
        return _Flight(
            task_id, attempt, time.perf_counter(), result, node=node
        )

    def damage_events(self) -> list[tuple[Any, str]]:
        return [
            (node, f"node {node.label} ({node.addr}) died: {reason}")
            for node, reason in self.cluster.take_death_events()
        ]

    def maintain(self) -> float:
        """Re-equip rejoined nodes (ship the current epoch) and watch
        for total cluster loss; returns the setup seconds spent."""
        rejoined = self.cluster.take_rejoined()
        setup_s = 0.0
        if rejoined:
            start = time.perf_counter()
            for node in rejoined:
                self.inflight[node.node_id] = 0
                self.engine.tracer.event(
                    "node_rejoin", annotations={"node": node.label}
                )
            if self.wants_broadcast:
                try:
                    self.engine._ship_broadcast_remote(
                        self.broadcast, self.warmup, nodes=rejoined
                    )
                except NodeDeathError:
                    # The rejoined node died again mid-re-equip; its
                    # fresh death event does the accounting.
                    pass
            setup_s = time.perf_counter() - start
        if self.cluster.alive_nodes():
            self._all_dead_since = None
        else:
            now = time.perf_counter()
            if self._all_dead_since is None:
                self._all_dead_since = now
            grace = (
                self.cluster.connect_timeout_s
                if self.cluster.reconnect
                else 0.0
            )
            if now - self._all_dead_since > grace:
                raise TaskFailedError(
                    "every node of the remote cluster died and none rejoined"
                )
        return setup_s

    def lost_flights(self, flights: list[_Flight], node: Any) -> list[_Flight]:
        return [f for f in flights if f.node is node]

    # recover() stays the base no-op: the dead node's flights were
    # failed by the cluster, the survivors keep their epoch, and a
    # rejoin is re-equipped by maintain().

    def release(self, flight: _Flight) -> None:
        node_id = flight.node.node_id
        count = self.inflight.get(node_id, 0)
        if count > 0:
            self.inflight[node_id] = count - 1

    def worker_label(self, flight: _Flight, pid: int) -> int | str:
        return f"{flight.node.label}:{pid}"

    def flight_annotations(self, flight: _Flight) -> dict[str, Any]:
        return {"node": flight.node.label}

    def attempt_window(
        self, flight: _Flight, start_ts: float | None, elapsed: float
    ) -> tuple[float, float]:
        # Node clocks are not comparable to the driver's; place the
        # attempt by its driver-side completion, sized by the
        # node-reported compute time.
        now = time.perf_counter()
        return now - elapsed, now

    def exhausted_message(self, budget: int, phase: str, reason: str) -> str:
        return (
            f"node-loss budget (max_respawns={budget}) exhausted "
            f"during phase {phase!r}: {reason}"
        )


class Engine:
    """Runs phases of tasks and collects counters.

    Parameters
    ----------
    mode:
        ``"serial"`` (default), ``"process"``, or ``"remote"`` (tasks
        dispatched to the node agents listed in ``nodes``).
    num_workers:
        Worker count for the ``process`` mode; defaults to the CPU count.
    start_method:
        Multiprocessing start method for the pool (``"fork"`` or
        ``"spawn"``); defaults per platform.  The engine is spawn-safe:
        all worker entry points are module-level functions and the
        rendezvous barrier is shipped through the pool initializer.
    fault_policy:
        Optional :class:`~repro.engine.faults.FaultPolicy`: the retries,
        timeouts, pool re-spawns, and speculation every ``map_tasks``
        call's dispatch loop may use (inline attempts cannot be
        preempted, so timeouts and speculation act on the pool and the
        cluster only).  The policy's
        :class:`~repro.engine.faults.FaultInjector`, if any, wraps every
        task attempt in every mode.  Without a policy the same loop runs
        with no retries, re-spawns, speculation, or timeouts: a failing
        task re-raises its own exception, and a lost worker or node
        fails the phase with a
        :class:`~repro.engine.faults.TaskFailedError` naming the loss.
    tracer:
        Optional :class:`~repro.obs.spans.Tracer`.  When set, every
        ``map_tasks`` call records a ``phase`` span with nested
        ``task``/``attempt`` spans (worker id, broadcast epoch,
        retry/timeout/respawn/speculation event annotations), and engine
        setup steps record ``setup`` spans.  Defaults to the shared
        no-op :data:`~repro.obs.spans.NULL_TRACER`.
    profile:
        When ``True``, every task body runs under ``cProfile``; the
        per-task profiles accumulate in :attr:`profile_blobs` and merge
        via :meth:`merged_profile` / :meth:`dump_profile`.
    broadcast_channel:
        How broadcast values cross the process boundary: ``"pickle"``
        ships one self-contained pickle blob per worker; ``"shm"`` hoists
        every :class:`~repro.core.dictionary.FlatCellDictionary` inside
        the value into a single ``multiprocessing.shared_memory`` segment
        that workers map zero-copy, pickling only a small descriptor;
        ``"auto"`` (default) uses ``shm`` whenever the value contains a
        flat dictionary and ``pickle`` otherwise.  A forced ``"shm"``
        likewise degrades to a plain blob when there is nothing columnar
        to hoist.  Bytes shipped per channel are accounted in
        :attr:`Counters.broadcast_bytes`; segments are unlinked on
        :meth:`close`, pool re-spawn, and interpreter exit.

    Notes
    -----
    In ``process`` mode the engine owns a persistent worker pool.  It is
    created lazily by the first parallel :meth:`map_tasks` call and
    reused until :meth:`close` (also invoked by ``with``-exit).
    ``close()`` is idempotent and final: later :meth:`map_tasks` calls
    raise :class:`~repro.engine.faults.EngineClosedError` rather than
    resurrecting a pool behind the caller's back.

    Diagnostics useful for tests and benches: :attr:`pools_created`
    counts pool startups over the engine's lifetime and
    :attr:`broadcast_ships` counts broadcast fan-outs (one per *distinct*
    broadcast value, not one per ``map_tasks`` call).
    """

    def __init__(
        self,
        mode: str = "serial",
        num_workers: int | None = None,
        *,
        start_method: str | None = None,
        fault_policy: FaultPolicy | None = None,
        tracer: Tracer | None = None,
        profile: bool = False,
        broadcast_channel: str = "auto",
        nodes: Sequence[str] | None = None,
        heartbeat_timeout_s: float = 10.0,
    ) -> None:
        if mode not in ("serial", "process", "remote"):
            raise ValueError(f"unknown engine mode {mode!r}")
        if broadcast_channel not in ("auto", "pickle", "shm"):
            raise ValueError(
                f"unknown broadcast channel {broadcast_channel!r}; "
                "choose 'auto', 'pickle', or 'shm'"
            )
        if mode == "remote":
            if not nodes:
                raise ValueError(
                    "remote mode needs nodes=['host:port', ...] "
                    "(running `python -m repro.node` agents)"
                )
            if num_workers is not None:
                raise ValueError(
                    "num_workers is per-node in remote mode; configure it "
                    "on each agent's --workers instead"
                )
        self.mode = mode
        self.nodes = list(nodes) if nodes else None
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.broadcast_channel = broadcast_channel
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode == "remote":
            # Resolved at connect time: the sum of the agents' slots.
            self.num_workers = 0
        else:
            self.num_workers = (
                num_workers if num_workers is not None else _default_workers()
            )
        self.counters = Counters()
        self.start_method = start_method if start_method is not None else _default_start_method()
        self.fault_policy = fault_policy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profile = bool(profile)
        #: Marshaled per-task cProfile stats (``profile=True`` only).
        self.profile_blobs: list[bytes] = []
        # Persistent-pool state.
        self._pool: Any = None
        self._barrier: Any = None
        self._worker_pids: set[int] | None = None
        self._shipped_broadcast: Any = _NOTHING
        self._shipped_epoch = 0
        self._closed = False
        # Remote-cluster state (mode == "remote").
        self._cluster: Any = None
        self._remote_value_blob: bytes | None = None
        self._remote_warmup_blob: bytes | None = None
        # Serial-mode warm-up dedup (same identity semantics as shipping).
        self._warmed_broadcast: Any = _NOTHING
        #: Live shared-memory segments this driver created (shm channel);
        #: every one is unlinked on teardown/close — crash paths included.
        self._segments: list[Any] = []
        # Encoded-broadcast cache: a pool re-spawn re-ships the *same*
        # value, so the encode (and the segments it created) can be
        # reused instead of re-packed — the replacement workers simply
        # re-attach the segments that already exist.
        self._encoded_broadcast: Any = _NOTHING
        self._encoded: tuple[str, bytes, Any] | None = None
        # Lifetime diagnostics.
        self.pools_created = 0
        self.broadcast_ships = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut down the engine; idempotent, safe to call at any time.

        Teardown ordering matters when tasks are still in flight (a
        mid-phase close from another thread):

        1. ``_closed`` flips first, so any concurrent recovery loop
           that tries to re-spawn raises
           :class:`~repro.engine.faults.EngineClosedError` instead of
           resurrecting infrastructure behind the close.
        2. Flights are cancelled: the remote cluster fails its pending
           futures and hangs up — node agents are *not* told to exit
           (they are services owned by whoever started them, and stay
           available for the next driver); the local pool is
           ``terminate``\\ d (not gracefully joined, so closing cannot
           hang on workers stuck in a crashed phase).
        3. Only then are the driver's shared-memory segments unlinked —
           after no worker can still be mapping them, so a mid-phase
           close leaks nothing into ``/dev/shm``.

        After ``close()`` the engine refuses new work
        (:class:`~repro.engine.faults.EngineClosedError`) — callers that
        want more parallel maps should build a fresh :class:`Engine`.
        """
        self._closed = True
        cluster, self._cluster = self._cluster, None
        if cluster is not None:
            cluster.close(shutdown_agents=False)
        self._teardown_pool()

    def _teardown_pool(self, *, keep_segments: bool = False) -> None:
        """Release the pool (if any) and reset broadcast-cache state.

        ``keep_segments=True`` preserves the driver's live segments and
        encoded-broadcast cache across a re-spawn: the replacement pool
        re-attaches the existing segments instead of paying for a fresh
        pack of the (unchanged) broadcast value.
        """
        pool, self._pool = self._pool, None
        self._barrier = None
        self._worker_pids = None
        self._shipped_broadcast = _NOTHING
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass
        if not keep_segments:
            self._destroy_segments()

    def _destroy_segments(self) -> None:
        """Unlink every live shared-memory segment this driver created."""
        self._encoded_broadcast = _NOTHING
        self._encoded = None
        segments, self._segments = self._segments, []
        if segments:
            from repro.engine.shm import destroy_segment

            for segment in segments:
                destroy_segment(segment)

    def __del__(self) -> None:
        pool = getattr(self, "_pool", None)
        if pool is not None:
            try:
                pool.terminate()
            except Exception:
                pass
        cluster = getattr(self, "_cluster", None)
        if cluster is not None:
            try:
                cluster.close()
            except Exception:
                pass
        try:
            self._destroy_segments()
        except Exception:
            pass

    def _ensure_pool(self) -> Any:
        if self._closed:
            # A concurrent close() mid-phase must not be answered by
            # resurrecting the pool (and re-creating segments the close
            # just unlinked) — fail the in-progress map instead.
            raise EngineClosedError("engine closed while work was in flight")
        if self._pool is None:
            import multiprocessing as mp

            with self.counters.timed_setup("pool_startup"), self.tracer.span(
                "pool_startup", "setup"
            ):
                ctx = mp.get_context(self.start_method)
                self._barrier = ctx.Barrier(self.num_workers)
                self._pool = ctx.Pool(
                    self.num_workers,
                    initializer=_init_worker,
                    initargs=(self._barrier,),
                )
            self.pools_created += 1
            self._shipped_broadcast = _NOTHING
            self._worker_pids = self._snapshot_worker_pids()
        return self._pool

    def _snapshot_worker_pids(self) -> set[int] | None:
        procs = getattr(self._pool, "_pool", None)
        if procs is None:
            return None
        return {p.pid for p in procs}

    def _pool_damaged(self) -> bool:
        """Did a worker die (or get replaced) since pool creation?

        ``multiprocessing.Pool`` silently replaces crashed workers, but
        the replacements miss our broadcast cache and the crashed task's
        result is lost forever — both repaired by a full re-spawn.  The
        check reads the pool's worker list; if that private attribute
        ever disappears, the :class:`StaleBroadcastError` raised by a
        replacement worker still triggers the same re-spawn path.
        """
        if self._pool is None or self._worker_pids is None:
            return False
        procs = getattr(self._pool, "_pool", None)
        if procs is None:
            return False
        if any(p.exitcode is not None for p in procs):
            return True
        return {p.pid for p in procs} != self._worker_pids

    @property
    def broadcast_epoch(self) -> int:
        """Epoch of the broadcast currently installed in the pool."""
        return self._shipped_epoch

    def _ensure_cluster(self) -> Any:
        if self._closed:
            raise EngineClosedError("engine closed while work was in flight")
        if self._cluster is None:
            from repro.engine.remote.cluster import RemoteCluster

            injector = (
                self.fault_policy.injector
                if self.fault_policy is not None
                else None
            )
            with self.counters.timed_setup("cluster_connect"), self.tracer.span(
                "cluster_connect", "setup"
            ):
                cluster = RemoteCluster(
                    self.nodes,
                    injector=injector,
                    heartbeat_timeout_s=self.heartbeat_timeout_s,
                )
                cluster.start()
            self._cluster = cluster
            self.num_workers = cluster.total_slots()
            self.pools_created += 1
        return self._cluster

    def node_ledger(self) -> list[dict] | None:
        """Per-node counters (remote mode); ``None`` otherwise."""
        if self._cluster is None:
            return None
        return self._cluster.ledger()

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map_tasks(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Any],
        *,
        broadcast: Any = None,
        phase: str = "map",
        item_counter: Callable[[Any], int] | None = None,
        warmup: Callable[[Any], Any] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every task, in task order.

        Parameters
        ----------
        fn:
            Called as ``fn(task, broadcast)`` when ``broadcast`` is not
            ``None``, else ``fn(task)``.  Must be picklable in
            ``process`` mode.
        tasks:
            The per-partition inputs.
        broadcast:
            Read-only value shared by every task (e.g. the two-level cell
            dictionary).  Shipped to each worker at most once per
            distinct value (identity-compared): passing the same object
            to consecutive calls reuses the per-worker cache.
        phase:
            Counter bucket for the task stats, the name of this call's
            phase span, and the fault injector's phase key.
        item_counter:
            Optional function mapping a *task* to the number of items it
            carries, recorded in :class:`TaskStats` for the duplication
            metric.
        warmup:
            Optional ``warmup(broadcast)`` hook run once per worker while
            the broadcast is installed (once on the driver when tasks run
            inline), before any task of this broadcast executes.  Its
            cost lands in the ``engine.setup`` bucket, not in ``phase``.

        Returns
        -------
        list
            Results in task order.

        Raises
        ------
        EngineClosedError
            If :meth:`close` was called; a closed engine fails new work
            cleanly instead of resurrecting its pool.
        TaskFailedError
            If a task exhausted its retry budget or the phase lost more
            workers or nodes than the policy allows — without a policy,
            on the first loss.  Without a policy a failing task raises
            its own exception instead.
        """
        if self._closed:
            raise EngineClosedError(
                "map_tasks on a closed Engine; construct a new Engine instead"
            )
        wants_broadcast = broadcast is not None
        # Setup (pool startup or cluster connect, broadcast shipping,
        # warm-up) happens OUTSIDE the phase timer: it is engine
        # overhead, not work.
        if self.mode == "serial" or len(tasks) < 2:
            substrate_type: type[_Substrate] = _InlineSubstrate
            if wants_broadcast and warmup is not None:
                self._warm_inline(broadcast, warmup)
        elif self.mode == "process":
            substrate_type = _ProcessSubstrate
            if self._pool_damaged():
                # A worker died after the last phase stopped watching
                # (or was that phase's loss): start on a fresh pool.
                self._teardown_pool(keep_segments=True)
            self._ensure_pool()
            if wants_broadcast:
                self._ship_broadcast(broadcast, warmup)
        else:
            substrate_type = _RemoteSubstrate
            self._ensure_cluster()
            if wants_broadcast:
                self._ship_broadcast_remote(broadcast, warmup)
        return self._map_with_recovery(
            fn,
            tasks,
            substrate=substrate_type(self, broadcast, wants_broadcast, warmup),
            phase=phase,
            item_counter=item_counter,
        )

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _map_with_recovery(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Any],
        *,
        substrate: _Substrate,
        phase: str,
        item_counter: Callable[[Any], int] | None,
    ) -> list[Any]:
        """The driver-side dispatch loop every ``map_tasks`` call runs.

        Admission control keeps at most one attempt per free slot of the
        ``substrate`` (the driver, a pool worker, or a remote node
        slot), so an attempt's age measures *execution* time, not queue
        time — without it, attempts queued behind a slow worker would
        burn their retry budget before ever running.  When no task
        timeout or speculation reads that age, a second attempt per
        slot waits in the worker's queue (``_Substrate.depth``).  Each
        scan reaps
        completions, retries failures with backoff, abandons attempts
        that exceed the task timeout (the abandoned attempt keeps racing
        its retry — first completion wins — but holds its slot, since
        that slot really is busy), absorbs infrastructure loss (a pool
        re-spawn invalidates every flight; a node death only that
        node's), and launches speculative duplicates for stragglers on
        free slots.  Between scans the loop sleeps until an attempt
        completes, or at most ``poll_interval_s``, which paces the watch
        for lost workers, timeouts, and stragglers.  Phase time excludes
        recovery overhead, which is accounted as engine setup.
        """
        policy = self.fault_policy or _NO_POLICY
        injector = policy.injector
        tracer = self.tracer
        #: Open ``task`` spans by task id (first launch → accepted
        #: completion); attempts parent under these.
        task_spans: dict[int, Span] = {}
        phase_span = tracer.start_span(phase, "phase", phase=phase)
        n = len(tasks)
        results: list[Any] = [None] * n
        done = [False] * n
        launches = [0] * n        # attempt index, keeps injector draws unique
        failures = [0] * n        # failures charged against the retry budget
        speculated = [False] * n
        flights: list[_Flight] = []
        #: Launch queue: ``(task_id, kind)`` with kind one of
        #: ``"initial"``/``"retry"``/``"respawn"``/``"speculation"`` —
        #: fault events are counted when an entry actually launches.
        ready: deque[tuple[int, str]] = deque(
            (task_id, "initial") for task_id in range(n)
        )
        retry_heap: list[tuple[float, int, int]] = []  # (due, seq, task_id)
        retry_seq = 0
        durations: list[float] = []
        #: Ids of the nodes (``None``: the local pool) that completed an
        #: attempt of this phase.  Only their attempts can be stragglers:
        #: a node's first attempts pay one-time costs the median does not
        #: show (a rejoined agent and its workers import the phase
        #: function's module when they unpickle it).
        answered: set[int | None] = set()
        completed = 0
        respawns = 0
        epoch = substrate.epoch
        start = time.perf_counter()
        recovery_setup = 0.0      # mid-phase recovery wall, accounted as setup

        def launch_ready() -> bool:
            """Fill free slots from the launch queue."""
            launched = False
            while ready and substrate.has_slot(len(flights)):
                task_id, kind = ready.popleft()
                if done[task_id]:
                    continue
                if tracer.enabled and task_id not in task_spans:
                    # Opened before the submit: an inline attempt has
                    # already run by the time submit returns.
                    task_spans[task_id] = tracer.start_span(
                        f"task {task_id}", "task", push=False,
                        parent_id=phase_span.span_id,
                        phase=phase, task_id=task_id,
                    )
                attempt = launches[task_id]
                try:
                    flight = substrate.submit(
                        fn, task_id, tasks[task_id], attempt, phase,
                        injector, self.profile,
                    )
                except NodeDeathError:
                    flight = None
                if flight is None:
                    # The slot vanished under us (a node died between
                    # the capacity check and the dispatch): requeue and
                    # let the damage machinery catch up.
                    ready.appendleft((task_id, kind))
                    break
                launches[task_id] += 1
                if kind == "retry":
                    self.counters.add_fault_event(FAULT_RETRIES)
                    tracer.event(EVENT_RETRY, phase=phase, task_id=task_id)
                elif kind == "speculation":
                    self.counters.add_fault_event(FAULT_SPECULATIONS)
                    tracer.event(EVENT_SPECULATION, phase=phase, task_id=task_id)
                flights.append(flight)
                launched = True
            return launched

        def racing_attempts(task_id: int) -> int:
            """Attempts that could still complete this task: in flight
            (timed-out ones keep racing their retry) or queued."""
            return sum(1 for f in flights if f.task_id == task_id) + sum(
                1 for tid, _ in ready if tid == task_id
            )

        def fail_attempt(task_id: int, exc: BaseException) -> None:
            nonlocal retry_seq
            if done[task_id]:
                return
            failures[task_id] += 1
            if failures[task_id] > policy.max_retries:
                if racing_attempts(task_id) > 0:
                    return  # a racing attempt may still save the task
                if policy is _NO_POLICY:
                    raise exc
                raise TaskFailedError(
                    f"task {task_id} of phase {phase!r} failed "
                    f"{failures[task_id]} attempts "
                    f"(retry budget {policy.max_retries})"
                ) from exc
            retry_seq += 1
            heapq.heappush(
                retry_heap,
                (
                    time.perf_counter() + policy.backoff(failures[task_id]),
                    retry_seq,
                    task_id,
                ),
            )

        def record_flight_span(
            flight: _Flight, status: str, **annotations: Any
        ) -> None:
            """Close out one in-flight attempt as a trace span."""
            if not tracer.enabled:
                return
            if flight.timed_out:
                annotations.setdefault("timed_out", True)
            annotations.update(substrate.flight_annotations(flight))
            parent = task_spans.get(flight.task_id)
            tracer.record_span(
                f"task {flight.task_id}#{flight.attempt}", "attempt",
                start_s=flight.submitted_at, end_s=time.perf_counter(),
                parent_id=parent.span_id if parent is not None else phase_span.span_id,
                phase=phase, task_id=flight.task_id, attempt=flight.attempt,
                epoch=epoch, status=status, annotations=annotations,
            )

        def charge_respawn(reason: str) -> None:
            """One unit of the infrastructure-loss budget + its events."""
            nonlocal respawns
            respawns += 1
            if respawns > policy.max_respawns:
                if policy is _NO_POLICY:
                    raise TaskFailedError(
                        f"phase {phase!r} failed: {reason} (no fault "
                        "policy to recover from the loss)"
                    )
                raise TaskFailedError(
                    substrate.exhausted_message(
                        policy.max_respawns, phase, reason
                    )
                )
            self.counters.add_fault_event(FAULT_RESPAWNS)

        def absorb_loss(reason: str, node: Any) -> None:
            """Recover from one infrastructure death (pool or node).

            ``loss_scope="pool"``: every flight died with the pool —
            re-spawn it, re-ship the broadcast under a fresh epoch, and
            requeue all undone work.  ``loss_scope="node"``: only the
            dead node's flights are lost; survivors keep computing and
            their epoch stays valid, so just requeue the lost tasks.
            """
            nonlocal recovery_setup, epoch
            charge_respawn(reason)
            lost = substrate.lost_flights(flights, node)
            for flight in lost:
                record_flight_span(flight, "lost", reason=reason)
            t0 = time.perf_counter()
            substrate.recover(reason)
            epoch = substrate.epoch
            recovery_setup += time.perf_counter() - t0
            annotations = {"reason": reason}
            if node is not None:
                annotations["node"] = node.label
            tracer.event(EVENT_RESPAWN, phase=phase, annotations=annotations)
            if substrate.loss_scope == "pool":
                flights.clear()
                retry_heap.clear()
                ready.clear()
                ready.extend(
                    (task_id, "respawn")
                    for task_id in range(n)
                    if not done[task_id]
                )
            else:
                requeued: set[int] = set()
                for flight in lost:
                    flights.remove(flight)
                    substrate.release(flight)
                    if not done[flight.task_id]:
                        if flight.task_id not in requeued:
                            requeued.add(flight.task_id)
                            ready.append((flight.task_id, "respawn"))

        finished = False
        try:
            while completed < n:
                now = time.perf_counter()
                if (
                    policy.phase_timeout_s is not None
                    and now - start - recovery_setup > policy.phase_timeout_s
                ):
                    self.counters.add_fault_event(FAULT_TIMEOUTS)
                    tracer.event(
                        EVENT_TIMEOUT,
                        phase=phase,
                        annotations={"reason": "phase budget exhausted"},
                    )
                    raise PhaseTimeoutError(
                        f"phase {phase!r} exceeded its "
                        f"{policy.phase_timeout_s}s budget "
                        f"({completed}/{n} tasks done)"
                    )
                recovery_setup += substrate.maintain()
                damage = substrate.damage_events()
                if damage:
                    for dead_node, reason in damage:
                        absorb_loss(reason, dead_node)
                    launch_ready()
                    continue
                #: Agent pool re-spawns already seen this scan, so one
                #: burst of lost attempts charges the budget once.
                lost_agent_pools: set[int] = set()
                progressed = launch_ready()
                for flight in list(flights):
                    if flight.async_result.ready():
                        flights.remove(flight)
                        progressed = True
                        try:
                            task_id, result, elapsed, pid, start_ts, blob = (
                                flight.async_result.get()
                            )
                        except StaleBroadcastError as exc:
                            if substrate.loss_scope != "pool":
                                # Remote agents requeue their own
                                # staleness; a raw one is a task failure.
                                substrate.release(flight)
                                record_flight_span(
                                    flight, "error", error=repr(exc)
                                )
                                fail_attempt(flight.task_id, exc)
                                continue
                            # A silently-replaced worker ran with a cold
                            # cache; re-spawn invalidates every flight,
                            # so restart the scan from the fresh state.
                            absorb_loss(
                                "replacement worker had a cold broadcast cache",
                                None,
                            )
                            break
                        except RemoteTaskLostError as exc:
                            # The node's local pool died and re-spawned:
                            # the attempt is lost, not failed — requeue
                            # without charging the retry budget.  The
                            # respawn itself charges the loss budget,
                            # once per node per scan.
                            substrate.release(flight)
                            record_flight_span(flight, "lost", reason=str(exc))
                            node_id = flight.node.node_id
                            if node_id not in lost_agent_pools:
                                lost_agent_pools.add(node_id)
                                charge_respawn(str(exc))
                                tracer.event(
                                    EVENT_RESPAWN, phase=phase,
                                    annotations={
                                        "reason": str(exc),
                                        "node": flight.node.label,
                                    },
                                )
                            if not done[flight.task_id]:
                                ready.append((flight.task_id, "respawn"))
                        except NodeDeathError as exc:
                            # The node died under the flight; the death
                            # event (absorbed above or next scan) does
                            # the accounting — just requeue this task.
                            substrate.release(flight)
                            record_flight_span(flight, "lost", reason=str(exc))
                            if not done[flight.task_id]:
                                ready.append((flight.task_id, "respawn"))
                        except Exception as exc:
                            substrate.release(flight)
                            record_flight_span(flight, "error", error=repr(exc))
                            fail_attempt(flight.task_id, exc)
                        else:
                            substrate.release(flight)
                            answered.add(flight.node_id)
                            if blob is not None:
                                self.profile_blobs.append(blob)
                            won = not done[task_id]
                            worker = substrate.worker_label(flight, pid)
                            if tracer.enabled:
                                span_start, span_end = substrate.attempt_window(
                                    flight, start_ts, elapsed
                                )
                                parent = task_spans.get(task_id)
                                tracer.record_span(
                                    f"task {task_id}#{flight.attempt}",
                                    "attempt",
                                    start_s=span_start, end_s=span_end,
                                    parent_id=(
                                        parent.span_id if parent is not None
                                        else phase_span.span_id
                                    ),
                                    phase=phase, task_id=task_id,
                                    attempt=flight.attempt, worker=worker,
                                    epoch=epoch,
                                    annotations={
                                        "compute_s": elapsed,
                                        "winner": won,
                                        **substrate.flight_annotations(flight),
                                        **(
                                            {"timed_out": True}
                                            if flight.timed_out else {}
                                        ),
                                    },
                                )
                                if won and parent is not None:
                                    # The winning attempt's worker names
                                    # the whole task span.
                                    parent.worker = worker
                                    tracer.end_span(parent)
                            if won:
                                done[task_id] = True
                                completed += 1
                                results[task_id] = result
                                durations.append(elapsed)
                                self._record(
                                    phase, task_id, tasks[task_id],
                                    elapsed, item_counter, worker,
                                )
                    elif (
                        policy.task_timeout_s is not None
                        and not flight.timed_out
                        and now - flight.submitted_at > policy.task_timeout_s
                    ):
                        # Abandon, but keep listening: if the slow
                        # original finishes before its retry, it wins.
                        flight.timed_out = True
                        progressed = True
                        if done[flight.task_id]:
                            continue
                        self.counters.add_fault_event(FAULT_TIMEOUTS)
                        tracer.event(
                            EVENT_TIMEOUT,
                            phase=phase,
                            task_id=flight.task_id,
                            attempt=flight.attempt,
                        )
                        fail_attempt(
                            flight.task_id,
                            TimeoutError(
                                f"task {flight.task_id} attempt "
                                f"{flight.attempt} exceeded "
                                f"{policy.task_timeout_s}s"
                            ),
                        )
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, task_id = heapq.heappop(retry_heap)
                    if not done[task_id]:
                        ready.append((task_id, "retry"))
                        progressed = True
                if (
                    policy.speculative
                    and durations
                    and not ready
                    and substrate.has_slot(len(flights))
                    and completed >= max(policy.speculation_min_done, (n + 1) // 2)
                ):
                    median = statistics.median(durations)
                    threshold = max(
                        policy.straggler_factor * median,
                        policy.straggler_min_wait_s,
                    )
                    for flight in list(flights):
                        task_id = flight.task_id
                        if done[task_id] or speculated[task_id] or flight.timed_out:
                            continue
                        if flight.node_id not in answered:
                            continue
                        if now - flight.submitted_at > threshold:
                            speculated[task_id] = True
                            ready.append((task_id, "speculation"))
                            progressed = True
                if progressed:
                    launch_ready()
                else:
                    # Sleep until an attempt completes, a retry falls
                    # due, or the poll interval passes (the death watch).
                    timeout = policy.poll_interval_s
                    if retry_heap:
                        timeout = min(timeout, max(retry_heap[0][0] - now, 0.0))
                    substrate.completed.wait(timeout)
                    substrate.completed.clear()
            finished = True
        finally:
            if tracer.enabled:
                # Keep the trace well-formed no matter how the phase
                # ended: attempts still racing (a timed-out original or
                # a speculation loser) close as abandoned, and any task
                # span without an accepted completion closes with the
                # phase's fate.
                for flight in flights:
                    record_flight_span(flight, "abandoned")
                for task_id, span in task_spans.items():
                    if not span.closed:
                        tracer.end_span(
                            span, status="ok" if done[task_id] else "error"
                        )
                tracer.end_span(
                    phase_span,
                    status="ok" if finished else "error",
                    recovery_setup_s=recovery_setup,
                )
            else:
                tracer.end_span(phase_span)
            self.counters.add_phase_time(
                phase, time.perf_counter() - start - recovery_setup
            )
        return results

    # ------------------------------------------------------------------
    # Broadcast shipping
    # ------------------------------------------------------------------

    def _encode_broadcast(
        self, broadcast: Any
    ) -> tuple[str, bytes, Any, list[Any]]:
        """Serialize ``broadcast`` for fan-out on the configured channel.

        Returns ``(channel, blob, handle, segments)``.  ``auto`` (and a
        forced ``shm``) resolves to the shared-memory channel only when
        the value actually contains flat or sharded dictionaries to
        hoist; anything else ships as a plain pickle blob — there is
        nothing zero-copy about arbitrary Python objects.

        On the shm channel ``handle`` is the pair ``(flat_handle | None,
        sharded_dictionary_handles)`` and ``segments`` lists every
        shared-memory segment created: the flat segment plus, for each
        sharded dictionary, one root segment and one segment per leaf
        shard.  Creation is all-or-nothing — a failure partway destroys
        whatever was already created before re-raising, so no segment
        can leak without ever having been handed to a worker.
        """
        if self.broadcast_channel == "pickle":
            blob = pickle.dumps(broadcast, protocol=pickle.HIGHEST_PROTOCOL)
            return "pickle", blob, None, []
        from repro.engine import shm as _shm

        blob, flats, sharded = _shm.export_broadcast_parts(broadcast)
        if not flats and not sharded:
            # No columnar payload: the export blob has no persistent ids,
            # so it is an ordinary pickle stream.
            return "pickle", blob, None, []
        segments: list[Any] = []
        flat_handle = None
        try:
            if flats:
                flat_handle, flat_segment = _shm.create_segment(flats)
                segments.append(flat_segment)
            sharded_handles = []
            for dictionary in sharded:
                handle, shard_segments = _shm.create_sharded_segments(dictionary)
                segments.extend(shard_segments)
                sharded_handles.append(handle)
        except BaseException:
            for segment in segments:
                _shm.destroy_segment(segment)
            raise
        return "shm", blob, (flat_handle, tuple(sharded_handles)), segments

    def _ship_broadcast(
        self, broadcast: Any, warmup: Callable[[Any], Any] | None
    ) -> None:
        """Install ``broadcast`` in every pool worker, once per value."""
        if broadcast is self._shipped_broadcast:
            return
        self._shipped_epoch += 1
        reused = (
            broadcast is self._encoded_broadcast and self._encoded is not None
        )
        if reused:
            # Re-spawn path: same value, segments still linked — the
            # replacement workers just re-attach them.
            channel, blob, handle = self._encoded
            segments: list[Any] = []
        else:
            channel, blob, handle, segments = self._encode_broadcast(broadcast)
        live = segments if not reused else self._segments
        ship_span = self.tracer.start_span(
            "broadcast_ship", "setup", push=False, epoch=self._shipped_epoch,
            annotations={
                "channel": channel,
                "payload_bytes": len(blob),
                "segment_bytes": sum(s.size for s in live),
                "num_segments": len(live),
                "segments_reused": reused,
            },
        )
        start = time.perf_counter()
        payloads = [
            (self._shipped_epoch, channel, blob, handle, warmup)
        ] * self.num_workers
        try:
            installs = self._pool.map(_install_broadcast, payloads, chunksize=1)
        except BaseException:
            # Fan-out failed: nobody holds the new segments, reclaim
            # them (reused segments stay — the next re-spawn needs them,
            # and teardown/close unlinks them regardless).
            if segments:
                from repro.engine.shm import destroy_segment

                for segment in segments:
                    destroy_segment(segment)
            raise
        wall = time.perf_counter() - start
        self.tracer.end_span(ship_span, warmed=warmup is not None)
        if not reused:
            # Every worker has attached the new epoch (and unmapped the
            # old one), so the previous segments can be unlinked now.
            self._destroy_segments()
            self._segments.extend(segments)
            if channel == "shm":
                self._encoded_broadcast = broadcast
                self._encoded = (channel, blob, handle)
        self.counters.add_broadcast_bytes(channel, len(blob))
        if not reused and channel == "shm":
            flat_handle, sharded_handles = handle
            if flat_handle is not None:
                self.counters.add_broadcast_bytes("shm_segment", flat_handle.size)
            for sharded_handle in sharded_handles:
                self.counters.add_broadcast_bytes(
                    "shm_root_segment", sharded_handle.root.size
                )
                self.counters.add_broadcast_bytes(
                    "shm_shard_segments",
                    sum(h.size for h in sharded_handle.shards),
                )
        warm_wall = max(w for _, _, w in installs) if warmup is not None else 0.0
        # Warm-ups run concurrently across workers, so the slowest one is
        # the wall-clock share of the fan-out attributable to warm-up.
        self.counters.add_setup_time("broadcast_ship", max(wall - warm_wall, 0.0))
        if warmup is not None:
            self.counters.add_setup_time("warmup", warm_wall)
        self._shipped_broadcast = broadcast
        self.broadcast_ships += 1

    def _ship_broadcast_remote(
        self,
        broadcast: Any,
        warmup: Callable[[Any], Any] | None,
        *,
        nodes: Sequence[Any] | None = None,
    ) -> None:
        """Ship ``broadcast`` to nodes — exactly once per node per epoch.

        The wire carries one pickle blob per *node* (channel ``tcp``);
        each agent re-hoists it through its local broadcast channel, so
        TCP moves one copy per machine and node-local shm fans it out
        per worker.  A new value (identity comparison, same rule as
        :meth:`_ship_broadcast`) bumps the epoch and re-encodes; an
        unchanged value reuses the cached blob and only reaches nodes
        missing the current epoch (rejoins).  ``nodes`` narrows the
        targets to a re-equip set.
        """
        cluster = self._ensure_cluster()
        new_value = broadcast is not self._shipped_broadcast
        if new_value:
            self._shipped_epoch += 1
            with self.counters.timed_setup("broadcast_encode"):
                self._remote_value_blob = pickle.dumps(
                    broadcast, protocol=pickle.HIGHEST_PROTOCOL
                )
                self._remote_warmup_blob = (
                    None if warmup is None
                    else pickle.dumps(warmup, protocol=pickle.HIGHEST_PROTOCOL)
                )
            self._shipped_broadcast = broadcast
            self.broadcast_ships += 1
        epoch = self._shipped_epoch
        targets = list(nodes) if nodes is not None else cluster.alive_nodes()
        if all(node.shipped_epoch == epoch for node in targets):
            return  # every target already holds this epoch
        blob = self._remote_value_blob
        ship_span = self.tracer.start_span(
            "broadcast_ship", "setup", push=False, epoch=epoch,
            annotations={
                "channel": "tcp",
                "payload_bytes": len(blob),
                "segment_bytes": 0,
                "num_segments": 0,
                "segments_reused": not new_value,
            },
        )
        start = time.perf_counter()
        try:
            acks = cluster.ship_broadcast(
                epoch, blob, self._remote_warmup_blob, nodes=targets
            )
        except BaseException:
            self.tracer.end_span(ship_span, status="error")
            raise
        wall = time.perf_counter() - start
        by_id = {node.node_id: node for node in targets}
        warm_wall = 0.0
        now = time.perf_counter()
        for node_id, ack in acks.items():
            node = by_id[node_id]
            install_s = float(ack.get("install_s", 0.0))
            warm_s = float(ack.get("warm_s", 0.0))
            warm_wall = max(warm_wall, warm_s)
            self.counters.add_broadcast_bytes("tcp", len(blob))
            self.tracer.record_span(
                f"node_broadcast {node.label}", "setup",
                start_s=now - install_s, end_s=now,
                parent_id=ship_span.span_id, epoch=epoch,
                annotations={
                    "node": node.label,
                    "payload_bytes": len(blob),
                    "install_s": install_s,
                    "warm_s": warm_s,
                },
            )
        self.tracer.end_span(
            ship_span, warmed=warmup is not None, nodes_shipped=len(acks)
        )
        # Node-side warm-ups run concurrently; the slowest is the
        # wall-clock share of the ship attributable to warm-up.
        self.counters.add_setup_time("broadcast_ship", max(wall - warm_wall, 0.0))
        if warmup is not None:
            self.counters.add_setup_time("warmup", warm_wall)

    def collect_broadcast_stats(self) -> list[tuple[int | str, dict]]:
        """Gather each worker's shard-residency ledger.

        Process mode fans one :func:`_collect_residency` task to every
        worker with the same barrier rendezvous as a broadcast ship and
        returns ``[(pid, stats_dict), ...]``; remote mode asks every
        alive node for its workers' ledgers and returns
        ``[("n<k>:<pid>", stats_dict), ...]``.  Empty when there is no
        live pool/cluster or the pool is damaged (a crashed worker
        cannot report; its replacement has nothing to say).
        """
        if self.mode == "remote":
            if self._cluster is None:
                return []
            try:
                return self._cluster.collect_stats()
            except Exception:
                return []
        if self.mode != "process" or self._pool is None or self._pool_damaged():
            return []
        tokens = list(range(self.num_workers))
        try:
            return self._pool.map(_collect_residency, tokens, chunksize=1)
        except Exception:
            return []

    def _warm_inline(self, broadcast: Any, warmup: Callable[[Any], Any]) -> None:
        """Driver-side warm-up with the same once-per-value semantics."""
        if broadcast is self._warmed_broadcast:
            return
        with self.counters.timed_setup("warmup"), self.tracer.span(
            "warmup", "setup"
        ):
            warmup(broadcast)
        self._warmed_broadcast = broadcast

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------

    def merged_profile(self):
        """Merge the per-task cProfile captures into one
        :class:`pstats.Stats` (``None`` if profiling was off or no task
        ran).  Requires ``Engine(profile=True)``."""
        from repro.obs.profiling import merge_profile_blobs

        return merge_profile_blobs(self.profile_blobs)

    def dump_profile(self, path: str) -> bool:
        """Write the merged profile as a standard pstats dump file.
        Returns False (and writes nothing) when no profile was captured."""
        return dump_merged_profile(self.profile_blobs, path) is not None

    def _record(
        self,
        phase: str,
        task_id: int,
        task: Any,
        elapsed: float,
        item_counter: Callable[[Any], int] | None,
        worker: int | str | None,
    ) -> None:
        items = item_counter(task) if item_counter is not None else 0
        self.counters.record_task(
            phase, TaskStats(task_id, elapsed, items, worker=worker)
        )
