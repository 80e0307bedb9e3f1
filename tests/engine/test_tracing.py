"""Integration tests: the span tracer wired through the engine and fit().

The acceptance criterion for the observability subsystem is pinned
here: a chaos run records a trace from which the full retry/respawn
history can be reconstructed, and every trace the engine emits is
well-formed (`validate_trace`) — the same check CI runs against the
chaos job's trace artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PHASES, RPDBSCAN
from repro.engine import (
    FAULT_RESPAWNS,
    FAULT_RETRIES,
    Engine,
    FaultInjector,
    FaultPolicy,
)
from repro.obs import (
    EVENT_RESPAWN,
    EVENT_RETRY,
    NULL_TRACER,
    Tracer,
    validate_trace,
)

# Picklable task functions (process mode requires module-level defs).


def square(x):
    return x * x


def _exception_only_injector(phase, n_tasks):
    for seed in range(10_000):
        inj = FaultInjector(exception_prob=0.2, seed=seed)
        hit = [inj.decide(phase, t, 0).exception for t in range(n_tasks)]
        clean = all(
            not inj.decide(phase, t, a).any
            for t in range(n_tasks)
            for a in (1, 2, 3)
        )
        if any(hit) and clean:
            return inj
    pytest.fail("no suitable exception-chaos seed found")


class TestSerialTracing:
    def test_map_tasks_records_phase_task_attempt(self):
        tracer = Tracer()
        engine = Engine("serial", tracer=tracer)
        engine.map_tasks(square, [1, 2, 3], phase="p")
        validate_trace(tracer.spans)
        phases = tracer.find(kind="phase")
        assert [s.name for s in phases] == ["p"]
        tasks = tracer.find(kind="task")
        attempts = tracer.find(kind="attempt")
        assert len(tasks) == len(attempts) == 3
        for task, attempt in zip(tasks, attempts):
            assert task.parent_id == phases[0].span_id
            assert attempt.parent_id == task.span_id
            assert attempt.annotations["winner"] is True
            assert attempt.annotations["compute_s"] >= 0

    def test_attempt_durations_match_counters(self):
        tracer = Tracer()
        engine = Engine("serial", tracer=tracer)
        engine.map_tasks(square, [1, 2, 3], phase="p")
        recorded = sorted(
            s.annotations["compute_s"] for s in tracer.find(kind="attempt")
        )
        counted = sorted(engine.counters.task_times("p"))
        assert recorded == pytest.approx(counted)

    def test_default_engine_traces_nothing(self):
        engine = Engine("serial")
        engine.map_tasks(square, [1, 2], phase="p")
        assert engine.tracer is NULL_TRACER
        assert NULL_TRACER.spans == []


class TestProcessTracing:
    def test_attempts_attributed_to_worker_pids(self):
        tracer = Tracer()
        with Engine("process", num_workers=2, tracer=tracer) as engine:
            engine.map_tasks(square, list(range(8)), phase="p")
        validate_trace(tracer.spans)
        workers = {s.worker for s in tracer.find(kind="attempt")}
        assert workers and all(isinstance(w, int) for w in workers)
        setup_names = {s.name for s in tracer.find(kind="setup")}
        assert "pool_startup" in setup_names

    def test_worker_windows_on_driver_clock(self):
        tracer = Tracer()
        with Engine("process", num_workers=2, tracer=tracer) as engine:
            with tracer.span("p", "phase", phase="p") as outer:
                pass
            engine.map_tasks(square, list(range(8)), phase="p")
        # perf_counter is system-wide on Linux: worker-measured attempt
        # windows must land after the driver span recorded just before.
        for attempt in tracer.find(kind="attempt"):
            assert attempt.start_s >= outer.start_s


class TestChaosTraceReconstruction:
    def test_retry_history_reconstructable(self):
        n = 6
        inj = _exception_only_injector("p", n)
        policy = FaultPolicy(max_retries=5, backoff_base_s=0.001, injector=inj)
        tracer = Tracer()
        engine = Engine("serial", fault_policy=policy, tracer=tracer)
        out = engine.map_tasks(square, list(range(n)), phase="p")
        assert out == [x * x for x in range(n)]
        validate_trace(tracer.spans)

        retries = engine.counters.fault_event_count(FAULT_RETRIES)
        assert retries >= 1
        # Event spans reconstruct the ledger one-to-one.
        assert len(tracer.events(EVENT_RETRY)) == retries
        # Each faulted task shows an error attempt then a clean one.
        failed = [s for s in tracer.find(kind="attempt") if s.status == "error"]
        assert len(failed) == retries
        for error_attempt in failed:
            later_ok = [
                s
                for s in tracer.find(kind="attempt")
                if s.task_id == error_attempt.task_id
                and s.attempt > error_attempt.attempt
                and s.status == "ok"
            ]
            assert later_ok, "faulted task never shows a recovering attempt"
            assert "error" in error_attempt.annotations

    def test_crash_history_reconstructable(self, two_blobs):
        # The full acceptance run: chaos fit in process mode; the trace
        # must reconstruct respawns (events + lost attempts) and stay
        # label-identical to a calm run.
        calm = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=6, seed=0).fit(
            two_blobs
        )
        policy = FaultPolicy(
            max_retries=8,
            backoff_base_s=0.01,
            backoff_max_s=0.1,
            max_respawns=20,
            speculative=False,
            injector=FaultInjector(crash_prob=0.06, seed=1),
        )
        tracer = Tracer()
        with Engine(
            "process", num_workers=2, fault_policy=policy, tracer=tracer
        ) as engine:
            chaos = RPDBSCAN(
                eps=0.3, min_pts=10, num_partitions=6, seed=0, engine=engine
            ).fit(two_blobs)

        np.testing.assert_array_equal(chaos.labels, calm.labels)
        validate_trace(tracer.spans)

        respawns = chaos.fault_events.get(FAULT_RESPAWNS, 0)
        assert respawns >= 1
        respawn_events = tracer.events(EVENT_RESPAWN)
        assert len(respawn_events) == respawns
        for event in respawn_events:
            assert event.wall_start_s > 0  # ledger timestamp material
            assert event.annotations.get("reason")
        # A crash strands its in-flight attempt: recorded as lost.
        lost = [s for s in tracer.find(kind="attempt") if s.status == "lost"]
        assert lost
        # Every task of every phase still converged to a winner.
        winners = {
            (s.phase, s.task_id)
            for s in tracer.find(kind="attempt")
            if s.status == "ok"
        }
        tasks = {
            (s.phase, s.task_id) for s in tracer.find(kind="task")
        }
        assert tasks <= winners


class TestFitTraceWellFormed:
    """The CI smoke check: any traced fit yields a valid span tree."""

    def test_fit_span_tree(self, two_blobs):
        tracer = Tracer()
        engine = Engine("serial", tracer=tracer)
        RPDBSCAN(
            eps=0.3, min_pts=10, num_partitions=4, seed=0, engine=engine
        ).fit(two_blobs)
        validate_trace(tracer.spans)

        fits = tracer.find(kind="fit")
        assert len(fits) == 1
        root = fits[0]
        assert root.parent_id is None
        # Every phase/driver span hangs off the fit root and names a
        # known phase.
        for span in tracer.spans:
            if span.kind in ("phase", "driver"):
                assert span.parent_id == root.span_id
                assert span.phase in PHASES
        # The three mapped phases appear as phase spans.
        assert {s.name for s in tracer.find(kind="phase")} == {
            "I-2 dictionary",
            "II cell graph",
            "III-2 labeling",
        }

    def test_phase2_span_carries_stage_seconds(self, two_blobs):
        tracer = Tracer()
        engine = Engine("serial", tracer=tracer)
        RPDBSCAN(
            eps=0.3, min_pts=10, num_partitions=4, seed=0, engine=engine
        ).fit(two_blobs)
        (phase,) = tracer.find(kind="phase", name="II cell graph")
        stages = phase.annotations["stages"]
        assert [n["stage"] for n in stages] == [
            "candidates", "classify", "distance", "assembly"
        ]
        for notes in stages:
            assert 0.0 <= notes["max_s"] <= notes["sum_s"]
        # The stages are parts of the tasks, never more than them.
        attempts = [
            s for s in tracer.find(kind="attempt") if s.phase == "II cell graph"
        ]
        assert len(attempts) == 4
        assert sum(n["sum_s"] for n in stages) <= sum(
            s.duration_s for s in attempts
        )

    def test_empty_fit_trace(self):
        tracer = Tracer()
        engine = Engine("serial", tracer=tracer)
        RPDBSCAN(eps=0.5, min_pts=5, engine=engine).fit(np.empty((0, 2)))
        validate_trace(tracer.spans)
        assert [s.kind for s in tracer.spans] == ["fit"]


class TestProfileCapture:
    def test_serial_profile_merged(self, tmp_path):
        engine = Engine("serial", profile=True)
        engine.map_tasks(square, [1, 2, 3], phase="p")
        stats = engine.merged_profile()
        assert stats is not None
        path = tmp_path / "prof.pstats"
        assert engine.dump_profile(path)
        assert path.exists()

    def test_process_profile_shipped_from_workers(self, tmp_path):
        with Engine("process", num_workers=2, profile=True) as engine:
            engine.map_tasks(square, list(range(6)), phase="p")
        assert len(engine.profile_blobs) == 6
        assert engine.merged_profile() is not None

    def test_profile_off_by_default(self):
        engine = Engine("serial")
        engine.map_tasks(square, [1, 2], phase="p")
        assert engine.merged_profile() is None
        assert not engine.dump_profile("/nonexistent/never-written")
