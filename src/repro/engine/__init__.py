"""Execution-engine substrate: the repo's stand-in for Apache Spark.

The paper runs on Spark over 12 Azure nodes.  Here the same MapReduce
shape — partitioned tasks, a broadcast variable, per-task counters — is
provided by a small engine with two executors:

* ``serial``: runs tasks in-process, deterministically, recording each
  task's wall time.  This is the default for tests and for experiments
  whose *measurements* (load imbalance, duplication, phase breakdown)
  only need accurate per-task timings.
* ``process``: a persistent :mod:`multiprocessing` pool for actual
  parallel speed.  One pool lives for the engine's lifetime (use the
  engine as a context manager or call ``close()``); broadcast values
  are shipped to each worker once per distinct value under an epoch
  tag, and a warm-up hook lets phases pre-build per-worker state so
  task timings measure compute, not setup.  Engine overhead (pool
  startup, broadcast shipping, warm-up) is accounted in a dedicated
  ``engine.setup`` counter bucket, excluded from phase breakdowns.

* ``remote``: a multi-node distributed substrate.  The driver speaks a
  length-prefixed TCP frame protocol (:mod:`repro.engine.remote`) to
  per-machine node agents (``python -m repro.node``), each fronting its
  own local persistent process pool.  Broadcasts ship **once per node
  per epoch** over the wire; each agent re-hoists the value through its
  local shm channel so workers attach node-locally, zero-copy.  Under
  a :class:`~repro.engine.faults.FaultPolicy` the same recovery loop
  that absorbs worker death absorbs *node* death (missed heartbeats or
  a dropped connection): only the dead node's in-flight attempts are
  rescheduled on survivors, and a reconnecting node is re-equipped with
  the current broadcast before receiving work again.

Every ``map_tasks`` call, in every mode, runs one driver-side dispatch
loop.  A :class:`~repro.engine.faults.FaultPolicy` sets what it may
recover: per-task retries with exponential backoff, task/phase
timeouts, automatic pool re-spawn after a worker crash (broadcasts
re-shipped under a fresh epoch), and straggler speculation — the safety
net Spark gives the paper for free.  Without a policy a failing task
re-raises its own exception and a lost worker or node fails the phase.
A seeded :class:`~repro.engine.faults.FaultInjector` on the policy turns
any executor into a chaos harness for testing that recovery machinery.

For scalability experiments (Figs 15 and 20) the measured per-task
durations are replayed through :func:`repro.engine.simulate.makespan`
to compute the elapsed time a ``w``-worker cluster would achieve, which
reproduces the speed-up *shape* without 48 physical cores.  A recorded
span trace converts directly into such a replay via
:meth:`repro.engine.simulate.PhaseSchedule.from_trace`.

Observability is opt-in via :mod:`repro.obs`: pass a
:class:`~repro.obs.spans.Tracer` to the engine to record the full
phase → task → attempt span timeline (with fault events), and
``profile=True`` for merged per-task cProfile capture.  The legacy
:class:`~repro.engine.counters.Counters` is now a compatibility shim
over :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from repro.engine.counters import DRIVER_WORKER, Counters, CountersMark, TaskStats
from repro.engine.executors import Engine
from repro.engine.faults import (
    FAULT_RESPAWNS,
    FAULT_RETRIES,
    FAULT_SPECULATIONS,
    FAULT_TIMEOUTS,
    EngineClosedError,
    FaultInjector,
    FaultPolicy,
    InjectedFault,
    PhaseTimeoutError,
    StaleBroadcastError,
    TaskFailedError,
)
from repro.engine.simulate import PhaseSchedule, makespan, speedup_curve

from repro.engine.remote import (
    NodeDeathError,
    RemoteCluster,
    RemoteTaskLostError,
    loopback_nodes,
)

# Imported after executors: shm depends on repro.core, whose orchestrator
# imports repro.engine.executors back — this ordering keeps the cycle
# resolvable from either entry point.
from repro.engine.shm import SHM_NAME_PREFIX, ShmSegmentHandle

__all__ = [
    "Engine",
    "Counters",
    "CountersMark",
    "TaskStats",
    "DRIVER_WORKER",
    "FaultPolicy",
    "FaultInjector",
    "EngineClosedError",
    "StaleBroadcastError",
    "InjectedFault",
    "TaskFailedError",
    "PhaseTimeoutError",
    "FAULT_RETRIES",
    "FAULT_TIMEOUTS",
    "FAULT_RESPAWNS",
    "FAULT_SPECULATIONS",
    "RemoteCluster",
    "NodeDeathError",
    "RemoteTaskLostError",
    "loopback_nodes",
    "makespan",
    "speedup_curve",
    "PhaseSchedule",
    "ShmSegmentHandle",
    "SHM_NAME_PREFIX",
]
