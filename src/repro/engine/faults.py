"""Fault-tolerance policy and chaos-style fault injection.

Spark gives the paper's implementation task retries, timeouts, and
straggler re-execution for free; this module supplies the same safety
net for the repo's executors.  Two pieces:

* :class:`FaultPolicy` — the knobs of the driver-side dispatch loop
  every :meth:`repro.engine.executors.Engine.map_tasks` call runs: a
  per-task retry budget with exponential backoff, per-task and
  per-phase timeouts, automatic pool re-spawn after a worker crash
  (re-shipping broadcasts under a fresh epoch), and straggler
  detection with speculative re-execution.  An engine without a policy
  runs the same loop with all of them off.
* :class:`FaultInjector` — a seeded chaos source that wraps task
  execution in *any* executor mode.  Per task attempt it deterministically
  decides whether to delay, crash the worker (process mode; inline runs
  raise instead), or raise an :class:`InjectedFault`.  Determinism per
  ``(phase, task_id, attempt)`` means a crashed first attempt does not
  doom the retry: the retry draws its own, independent decision — and a
  re-run of the same chaos experiment replays the exact same faults.

Every recovery event is surfaced in the engine's counters under
dedicated fault buckets (``engine.retries``, ``engine.timeouts``,
``engine.respawns``, ``engine.speculations``) which — like the
``engine.setup`` bucket — never appear in phase breakdowns, so chaos
experiments do not pollute Fig 12/13 reproductions.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

__all__ = [
    "FaultPolicy",
    "FaultInjector",
    "FaultDecision",
    "NodeFaultDecision",
    "EngineClosedError",
    "StaleBroadcastError",
    "InjectedFault",
    "TaskFailedError",
    "PhaseTimeoutError",
    "FAULT_RETRIES",
    "FAULT_TIMEOUTS",
    "FAULT_RESPAWNS",
    "FAULT_SPECULATIONS",
]

#: Counter-bucket names for fault events (see
#: :meth:`repro.engine.counters.Counters.add_fault_event`).
FAULT_RETRIES = "retries"
FAULT_TIMEOUTS = "timeouts"
FAULT_RESPAWNS = "respawns"
FAULT_SPECULATIONS = "speculations"

#: Exit code used by injected worker crashes, so a post-mortem can tell
#: chaos kills from genuine segfaults.
CRASH_EXIT_CODE = 117


class EngineClosedError(RuntimeError):
    """Raised when ``map_tasks`` is called on a closed engine."""


class StaleBroadcastError(RuntimeError):
    """A worker's cached broadcast epoch does not match the task's.

    Reaching the driver, this means a worker was replaced behind the
    pool's back (its cache is cold) — the recovery loop answers with a
    full pool re-spawn plus a broadcast re-ship under a fresh epoch.
    """


class InjectedFault(RuntimeError):
    """A fault raised (or simulated) by a :class:`FaultInjector`."""


class TaskFailedError(RuntimeError):
    """A task exhausted its retry budget; chains the last failure."""


class PhaseTimeoutError(TimeoutError):
    """A whole phase exceeded :attr:`FaultPolicy.phase_timeout_s`."""


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one ``(phase, task_id, attempt)``."""

    delay: bool = False
    crash: bool = False
    exception: bool = False

    @property
    def any(self) -> bool:
        return self.delay or self.crash or self.exception


@dataclass(frozen=True)
class NodeFaultDecision:
    """What the injector decided for one ``(phase, node_id)``.

    Node faults are a coarser chaos axis than task faults: they strike a
    whole machine (its agent process, its connection, or its pacing)
    rather than one task attempt.  The remote node agent evaluates its
    decision once per phase, on task receipt, so a crash lands genuinely
    mid-phase — after the node has accepted work — not before the phase
    starts.
    """

    crash: bool = False
    delay: bool = False
    drop: bool = False

    @property
    def any(self) -> bool:
        return self.crash or self.delay or self.drop


@dataclass(frozen=True)
class FaultInjector:
    """Seeded chaos source: crash / delay / exception per task attempt.

    Parameters
    ----------
    crash_prob:
        Probability that an attempt kills its worker process with
        ``os._exit`` (process mode).  Inline execution (serial mode,
        single-task phases) cannot kill the driver, so a crash decision
        degrades to an :class:`InjectedFault` there.
    delay_prob / delay_s:
        Probability that an attempt sleeps ``delay_s`` seconds before
        running — the straggler generator.
    exception_prob:
        Probability that an attempt raises :class:`InjectedFault`.
    node_crash_prob:
        Probability that a remote node agent kills itself
        (``os._exit``) upon receiving its second task of a phase —
        mid-phase node death, the scenario the remote executor's
        recovery loop must absorb.  Ignored by local executors.
    node_delay_prob / node_delay_s:
        Probability that a node sleeps ``node_delay_s`` before
        dispatching its first task of a phase — a slow-machine model.
    node_drop_prob:
        Probability that a node drops its driver connection (once per
        phase, on the second task): the driver sees a dead node, the
        agent survives and rejoins on reconnect.
    seed:
        Root seed.  Decisions are a pure function of
        ``(seed, phase, task_id, attempt)`` — and, for node faults, of
        ``(seed, phase, node_id)`` — independent of execution order,
        worker scheduling, and ``PYTHONHASHSEED`` — so chaos runs are
        reproducible and retries are never deterministically doomed.
    """

    crash_prob: float = 0.0
    delay_prob: float = 0.0
    exception_prob: float = 0.0
    delay_s: float = 0.1
    node_crash_prob: float = 0.0
    node_delay_prob: float = 0.0
    node_drop_prob: float = 0.0
    node_delay_s: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "crash_prob", "delay_prob", "exception_prob",
            "node_crash_prob", "node_delay_prob", "node_drop_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.node_delay_s < 0:
            raise ValueError("node_delay_s must be >= 0")

    def decide(self, phase: str, task_id: int, attempt: int) -> FaultDecision:
        """The (deterministic) fault decision for one task attempt."""
        # Seeding random.Random with a string hashes it with SHA-512,
        # which is stable across processes and hash randomization.
        rng = random.Random(f"{self.seed}|{phase}|{task_id}|{attempt}")
        return FaultDecision(
            delay=rng.random() < self.delay_prob,
            crash=rng.random() < self.crash_prob,
            exception=rng.random() < self.exception_prob,
        )

    def apply(
        self, phase: str, task_id: int, attempt: int, *, allow_crash: bool
    ) -> None:
        """Execute this attempt's decision (sleep, exit, or raise)."""
        decision = self.decide(phase, task_id, attempt)
        if decision.delay:
            time.sleep(self.delay_s)
        if decision.crash:
            if allow_crash:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFault(
                f"injected crash (inline degrade): {phase} task {task_id} "
                f"attempt {attempt}"
            )
        if decision.exception:
            raise InjectedFault(
                f"injected exception: {phase} task {task_id} attempt {attempt}"
            )

    def decide_node(self, phase: str, node_id: int) -> NodeFaultDecision:
        """The (deterministic) node-level fault decision for one phase.

        Same SHA-stable string-seeding scheme as :meth:`decide`, under a
        distinct ``node`` namespace so adding node chaos never perturbs
        the task-level decision stream of an existing seed.
        """
        rng = random.Random(f"{self.seed}|node|{phase}|{node_id}")
        return NodeFaultDecision(
            crash=rng.random() < self.node_crash_prob,
            delay=rng.random() < self.node_delay_prob,
            drop=rng.random() < self.node_drop_prob,
        )


@dataclass(frozen=True)
class FaultPolicy:
    """Recovery behavior of a fault-tolerant :class:`~repro.engine.Engine`.

    Every ``map_tasks`` call runs the same driver-side dispatch loop;
    the policy passed to the engine (or to
    :class:`~repro.core.rp_dbscan.RPDBSCAN`) sets how much it may
    recover.  Without one the loop runs with no retries, re-spawns,
    speculation, or timeouts: a failing task re-raises its own
    exception, and a lost worker or node fails the phase with a
    :class:`TaskFailedError` naming the loss.

    Parameters
    ----------
    max_retries:
        Re-submissions allowed per task after its first attempt fails or
        times out.  Exhausting the budget raises :class:`TaskFailedError`.
        Re-submissions forced by a pool re-spawn do not consume budget —
        they are the pool's fault, not the task's.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential-backoff schedule: retry ``k`` (1-based) waits
        ``min(backoff_base_s * backoff_factor**(k-1), backoff_max_s)``.
    task_timeout_s:
        Wall-clock budget per task attempt (``None`` disables).  A
        timed-out attempt is abandoned (its worker may still be busy)
        and the task is retried on another worker.  Enforced only in
        process mode — inline execution cannot be preempted.
    phase_timeout_s:
        Wall-clock budget for a whole ``map_tasks`` call (``None``
        disables); exceeding it raises :class:`PhaseTimeoutError`.
        Pool re-spawn time (accounted as engine setup) does not count
        against the phase budget.
    speculative:
        Enable straggler detection: once at least half the phase's tasks
        (and ``speculation_min_done``) have finished, a task whose
        attempt has been running longer than ``straggler_factor`` times
        the median completed-task duration (and at least
        ``straggler_min_wait_s``) gets one speculative duplicate; first
        completion wins, the loser is ignored — Spark's
        ``spark.speculation``.  Only attempts on a node that has already
        completed an attempt of the phase are duplicated: a node's first
        attempts pay one-time start-up costs.
    max_respawns:
        Pool re-spawns allowed per ``map_tasks`` call before giving up.
    injector:
        Optional :class:`FaultInjector` wrapped around every task
        attempt, in any executor mode, for chaos testing.
    poll_interval_s:
        Longest the loop sleeps while no attempt completes (a completion
        wakes it at once).  It paces the watch for dead workers, task
        timeouts, and stragglers.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    task_timeout_s: float | None = None
    phase_timeout_s: float | None = None
    speculative: bool = True
    straggler_factor: float = 4.0
    straggler_min_wait_s: float = 0.25
    speculation_min_done: int = 2
    max_respawns: int = 3
    injector: FaultInjector | None = None
    poll_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        for name in ("task_timeout_s", "phase_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def backoff(self, retry_number: int) -> float:
        """Seconds to wait before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (retry_number - 1)
        return min(delay, self.backoff_max_s)
