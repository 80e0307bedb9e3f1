"""Per-task and per-phase counters — the Spark-counter equivalent.

The paper's efficiency metrics all come "from the Spark counter"
(Sec 7.1.5): elapsed time per job, per-task times for load imbalance
(Fig 13), numbers of processed points for duplication (Fig 14), and the
phase breakdown (Figs 12 and 21).  :class:`Counters` collects exactly
those measurements from the engine.

Two accounting rules keep the figures honest:

* **Setup vs. compute.**  Engine overhead — worker-pool startup,
  broadcast shipping, and per-worker warm-up — is recorded under a
  dedicated setup bucket (:attr:`Counters.setup_seconds`), *not* under
  any algorithm phase.  :meth:`Counters.breakdown` and
  :meth:`Counters.total_seconds` cover phases only, so Fig 12/21
  fractions measure clustering work; :meth:`Counters.grand_total_seconds`
  adds the setup bucket back for end-to-end wall time.
* **Per-fit snapshots.**  A long-lived engine accumulates counters over
  its whole lifetime.  :meth:`Counters.mark` and :meth:`Counters.since`
  carve out the delta belonging to a single run so repeated ``fit()``
  calls report independent timings.
* **Fault events.**  Recovery events of the fault-tolerant executor —
  retries, task timeouts, pool re-spawns, speculative duplicates — are
  *counts*, kept in :attr:`Counters.fault_events`.  Like the setup
  bucket they never enter :meth:`Counters.breakdown` or
  :meth:`Counters.total_seconds`: a chaos run reports the same phase
  fractions as a calm one, plus an event ledger on the side.

These are run records, not metrics: per-task rows with worker ids and
:meth:`Counters.mark` / :meth:`Counters.since` deltas.  Live metrics of
the serving plane and the tracer's optional attempt histograms live in
:class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["TaskStats", "Counters", "CountersMark", "DRIVER_WORKER"]

#: Worker label used for tasks executed inline on the driver (serial
#: mode, or degenerate single-task phases in process mode).
DRIVER_WORKER = "driver"


@dataclass(frozen=True)
class TaskStats:
    """Measurements for one executed task.

    Attributes
    ----------
    task_id:
        Index of the task within its phase.
    wall_time_s:
        Wall-clock seconds the task body took.
    items:
        Number of data items (points, cells, edges...) the task
        processed; used for the duplication metric.
    worker:
        Identity of the executor that ran the task — a worker PID in
        process mode, :data:`DRIVER_WORKER` when run inline.  Lets load
        imbalance be compared across engine modes (Fig 13).
    """

    task_id: int
    wall_time_s: float
    items: int = 0
    worker: int | str | None = None


@dataclass(frozen=True)
class CountersMark:
    """An opaque snapshot of a :class:`Counters`' progress (see
    :meth:`Counters.mark` / :meth:`Counters.since`)."""

    task_counts: dict[str, int]
    phase_seconds: dict[str, float]
    setup_seconds: dict[str, float]
    fault_events: dict[str, int] = field(default_factory=dict)
    broadcast_bytes: dict[str, int] = field(default_factory=dict)


@dataclass
class Counters:
    """Accumulates task stats and phase timings for one algorithm run."""

    phase_tasks: dict[str, list[TaskStats]] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Engine overhead by category (``"pool_startup"``,
    #: ``"broadcast_ship"``, ``"warmup"``) — the ``engine.setup`` bucket,
    #: excluded from :meth:`breakdown` and :meth:`total_seconds`.
    setup_seconds: dict[str, float] = field(default_factory=dict)
    #: Fault-recovery event counts by kind (``"retries"``,
    #: ``"timeouts"``, ``"respawns"``, ``"speculations"``) — the
    #: ``engine.retries``/``engine.timeouts``/``engine.respawns``
    #: buckets.  Counts, not seconds; excluded from every timing view.
    fault_events: dict[str, int] = field(default_factory=dict)
    #: Broadcast payload bytes by channel (``"pickle"``, ``"shm"``, plus
    #: ``"shm_segment"`` for the shared-memory segment the ``shm``
    #: channel maps instead of copying).  Serialized-bytes accounting of
    #: the engine's broadcast fan-outs; no timing semantics.
    broadcast_bytes: dict[str, int] = field(default_factory=dict)

    def record_task(self, phase: str, stats: TaskStats) -> None:
        """Append one task's stats under ``phase``."""
        self.phase_tasks.setdefault(phase, []).append(stats)

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` of elapsed time under ``phase``."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def add_setup_time(self, category: str, seconds: float) -> None:
        """Accumulate engine-setup ``seconds`` under ``category``."""
        self.setup_seconds[category] = (
            self.setup_seconds.get(category, 0.0) + seconds
        )

    def add_fault_event(self, kind: str, count: int = 1) -> None:
        """Count ``count`` fault-recovery events of ``kind``."""
        self.fault_events[kind] = self.fault_events.get(kind, 0) + count

    def add_broadcast_bytes(self, channel: str, nbytes: int) -> None:
        """Account ``nbytes`` of broadcast payload under ``channel``."""
        self.broadcast_bytes[channel] = self.broadcast_bytes.get(channel, 0) + nbytes

    def broadcast_total_bytes(self) -> int:
        """Total broadcast bytes across every channel."""
        return sum(self.broadcast_bytes.values())

    def fault_event_count(self, kind: str) -> int:
        """Number of fault-recovery events recorded under ``kind``."""
        return self.fault_events.get(kind, 0)

    def fault_total(self) -> int:
        """Total fault-recovery events of every kind."""
        return sum(self.fault_events.values())

    @contextmanager
    def timed_phase(self, phase: str):
        """Context manager timing a whole phase's wall-clock duration."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_time(phase, time.perf_counter() - start)

    @contextmanager
    def timed_setup(self, category: str):
        """Context manager timing one engine-setup step."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_setup_time(category, time.perf_counter() - start)

    def total_seconds(self) -> float:
        """Sum of all phase durations (setup bucket excluded)."""
        return sum(self.phase_seconds.values())

    def setup_total(self) -> float:
        """Total engine-setup seconds (the ``engine.setup`` bucket)."""
        return sum(self.setup_seconds.values())

    def grand_total_seconds(self) -> float:
        """Phases plus setup: end-to-end engine wall time."""
        return self.total_seconds() + self.setup_total()

    def task_times(self, phase: str) -> list[float]:
        """Per-task wall times recorded under ``phase``."""
        return [t.wall_time_s for t in self.phase_tasks.get(phase, [])]

    def load_imbalance(self, phase: str) -> float:
        """Slowest-task / fastest-task ratio for ``phase`` (Fig 13).

        Returns 1.0 when the phase ran fewer than two tasks.  A tiny
        epsilon guards against zero-duration fast tasks on coarse clocks.
        """
        times = self.task_times(phase)
        if len(times) < 2:
            return 1.0
        fastest = max(min(times), 1e-9)
        return max(times) / fastest

    def worker_times(self, phase: str) -> dict[int | str, float]:
        """Total busy seconds per worker for ``phase``.

        Tasks recorded without a worker identity are attributed to
        :data:`DRIVER_WORKER`.
        """
        totals: dict[int | str, float] = {}
        for stats in self.phase_tasks.get(phase, []):
            worker = stats.worker if stats.worker is not None else DRIVER_WORKER
            totals[worker] = totals.get(worker, 0.0) + stats.wall_time_s
        return totals

    def worker_imbalance(self, phase: str) -> float:
        """Busiest-worker / idlest-worker ratio for ``phase``.

        The per-*worker* companion to :meth:`load_imbalance`: with a
        persistent pool the same metric is meaningful in both serial
        mode (one driver "worker", ratio 1.0) and process mode.
        """
        totals = list(self.worker_times(phase).values())
        if len(totals) < 2:
            return 1.0
        idlest = max(min(totals), 1e-9)
        return max(totals) / idlest

    def items_processed(self, phase: str) -> int:
        """Total items processed across tasks of ``phase`` (Fig 14)."""
        return sum(t.items for t in self.phase_tasks.get(phase, []))

    def breakdown(self) -> dict[str, float]:
        """Phase → fraction of total elapsed time (Figs 12 and 21).

        Fractions are over phase time only; the ``engine.setup`` bucket
        is deliberately excluded (see the module docstring).
        """
        total = self.total_seconds()
        if total <= 0:
            return {phase: 0.0 for phase in self.phase_seconds}
        return {phase: sec / total for phase, sec in self.phase_seconds.items()}

    # ------------------------------------------------------------------
    # Per-run snapshots
    # ------------------------------------------------------------------

    def mark(self) -> CountersMark:
        """Snapshot current progress; pass to :meth:`since` later."""
        return CountersMark(
            task_counts={p: len(ts) for p, ts in self.phase_tasks.items()},
            phase_seconds=dict(self.phase_seconds),
            setup_seconds=dict(self.setup_seconds),
            fault_events=dict(self.fault_events),
            broadcast_bytes=dict(self.broadcast_bytes),
        )

    def since(self, mark: CountersMark) -> Counters:
        """A new :class:`Counters` holding only what happened after
        ``mark`` was taken.

        This is how one ``fit()`` on a shared, long-lived engine reports
        its own timings: accumulation continues in ``self``, while the
        returned delta belongs to the single run.
        """
        delta = Counters()
        for phase, tasks in self.phase_tasks.items():
            for stats in tasks[mark.task_counts.get(phase, 0):]:
                delta.record_task(phase, stats)
        for phase, seconds in self.phase_seconds.items():
            diff = seconds - mark.phase_seconds.get(phase, 0.0)
            if diff > 0.0:
                delta.add_phase_time(phase, diff)
        for category, seconds in self.setup_seconds.items():
            diff = seconds - mark.setup_seconds.get(category, 0.0)
            if diff > 0.0:
                delta.add_setup_time(category, diff)
        for kind, count in self.fault_events.items():
            diff = count - mark.fault_events.get(kind, 0)
            if diff > 0:
                delta.add_fault_event(kind, diff)
        for channel, nbytes in self.broadcast_bytes.items():
            diff = nbytes - mark.broadcast_bytes.get(channel, 0)
            if diff > 0:
                delta.add_broadcast_bytes(channel, diff)
        return delta
