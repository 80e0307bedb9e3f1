"""Chaos and observability tests for the engine-scheduled merge plane.

Engine-mode Phase III-1 dispatches every tournament round through
``Engine.map_tasks``, which puts the merge matches inside the same
recovery loop as Phases I/II — so a worker crash, an injected delay past
the task timeout, or a plain exception *mid-tournament* must recover
with labels bit-identical to a fault-free serial run.  Round spans are
the measured (not modeled) record of the tournament, so the merge-round
ledger is asserted here too.

Every injector is found by deterministic seed search (the
``test_faults`` convention): the target fault is pinned at round-1
match 0, and the whole fit's fault window is verified clean elsewhere —
no test relies on luck at run time.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.core import PHASE_MERGE, RPDBSCAN
from repro.core.merging import resolve_merge_mode
from repro.engine import (
    FAULT_RESPAWNS,
    FAULT_RETRIES,
    FAULT_TIMEOUTS,
    Engine,
    FaultInjector,
    FaultPolicy,
)
from repro.engine.shm import SHM_NAME_PREFIX
from repro.obs import Tracer, merge_ledger_rows, validate_trace

K = 8  # 8 partitions -> rounds of 4, 2, 1 matches


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """No test here may leak a /dev/shm segment (or inherit one)."""
    pattern = f"/dev/shm/{SHM_NAME_PREFIX}*"
    assert glob.glob(pattern) == []
    yield
    assert glob.glob(pattern) == []


@pytest.fixture(scope="module")
def two_blobs():
    rng = np.random.default_rng(0)
    return np.concatenate(
        [rng.normal([0, 0], 0.15, (250, 2)), rng.normal([3, 3], 0.15, (250, 2))]
    )


@pytest.fixture(scope="module")
def serial_reference(two_blobs):
    return RPDBSCAN(eps=0.3, min_pts=10, num_partitions=K, seed=0).fit(
        two_blobs
    )


def _fit_window(k: int) -> list[tuple[str, int]]:
    """Every (phase, task count) a ``k``-partition engine-mode fit maps.

    Merge rounds halve: round r of an initially-k-graph tournament runs
    ``k >> r`` matches (plus byes, which are not tasks).
    """
    window = [
        ("I-2 dictionary", k),
        ("II cell graph", k),
        ("III-2 labeling", k),
    ]
    matches, round_index = k // 2, 1
    remaining = k - matches
    while matches:
        window.append((f"{PHASE_MERGE} round {round_index}", matches))
        round_index += 1
        matches, remaining = remaining // 2, remaining - remaining // 2
    return window


def _round1_injector(kind: str, k: int = K) -> FaultInjector:
    """An injector whose **only** fault in the fit's executed window is
    one ``kind`` fault at (merge round 1, match 0, attempt 0)."""
    target = f"{PHASE_MERGE} round 1"
    prob = {
        "crash": {"crash_prob": 0.008},
        "delay": {"delay_prob": 0.008, "delay_s": 1.0},
        "exception": {"exception_prob": 0.008},
    }[kind]
    window = _fit_window(k)
    for seed in range(100_000):
        inj = FaultInjector(seed=seed, **prob)
        if not getattr(inj.decide(target, 0, 0), kind):
            continue
        clean = all(
            not inj.decide(phase, task, attempt).any
            for phase, n_tasks in window
            for task in range(n_tasks)
            for attempt in range(4)
            if (phase, task, attempt) != (target, 0, 0)
        )
        if clean:
            return inj
    pytest.fail(f"no single-{kind} chaos seed found for the fit window")


def _chaos_fit(two_blobs, policy, *, k=K):
    tracer = Tracer()
    with Engine(
        "process", num_workers=4, fault_policy=policy, tracer=tracer
    ) as engine:
        result = RPDBSCAN(
            eps=0.3,
            min_pts=10,
            num_partitions=k,
            seed=0,
            engine=engine,
            merge_mode="engine",
        ).fit(two_blobs)
    return result, tracer


class TestMergeRoundChaos:
    def test_worker_crash_mid_tournament(self, two_blobs, serial_reference):
        policy = FaultPolicy(
            max_retries=4,
            backoff_base_s=0.01,
            max_respawns=4,
            speculative=False,
            injector=_round1_injector("crash"),
        )
        result, tracer = _chaos_fit(two_blobs, policy)
        np.testing.assert_array_equal(result.labels, serial_reference.labels)
        assert result.n_clusters == serial_reference.n_clusters
        assert result.fault_events.get(FAULT_RESPAWNS, 0) >= 1
        validate_trace(tracer.spans)

    def test_exception_mid_tournament(self, two_blobs, serial_reference):
        policy = FaultPolicy(
            max_retries=4,
            backoff_base_s=0.001,
            speculative=False,
            injector=_round1_injector("exception"),
        )
        result, tracer = _chaos_fit(two_blobs, policy)
        np.testing.assert_array_equal(result.labels, serial_reference.labels)
        assert result.fault_events.get(FAULT_RETRIES, 0) >= 1
        validate_trace(tracer.spans)

    def test_delay_past_task_timeout_mid_tournament(
        self, two_blobs, serial_reference
    ):
        policy = FaultPolicy(
            max_retries=4,
            backoff_base_s=0.01,
            task_timeout_s=0.4,
            speculative=False,
            injector=_round1_injector("delay"),
        )
        result, tracer = _chaos_fit(two_blobs, policy)
        np.testing.assert_array_equal(result.labels, serial_reference.labels)
        assert result.fault_events.get(FAULT_TIMEOUTS, 0) >= 1
        validate_trace(tracer.spans)

    def test_bye_rounds_under_chaos(self, two_blobs):
        # k=5: rounds of 2, 1, 1 matches with a bye in every round.  The
        # carried-over blob must survive a round-1 exception unharmed.
        serial = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=5, seed=0).fit(
            two_blobs
        )
        policy = FaultPolicy(
            max_retries=4,
            backoff_base_s=0.001,
            speculative=False,
            injector=_round1_injector("exception", k=5),
        )
        result, _ = _chaos_fit(two_blobs, policy, k=5)
        np.testing.assert_array_equal(result.labels, serial.labels)
        assert result.merge_stats.num_rounds == 3

    def test_single_partition_never_reaches_the_pool(self, two_blobs):
        # k=1: no matches, no rounds, nothing to crash.
        serial = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=1, seed=0).fit(
            two_blobs
        )
        policy = FaultPolicy(max_retries=2, speculative=False)
        result, tracer = _chaos_fit(two_blobs, policy, k=1)
        np.testing.assert_array_equal(result.labels, serial.labels)
        assert result.merge_stats.num_rounds == 0
        assert merge_ledger_rows(tracer.spans) == []


class TestMergeLedger:
    def test_round_spans_and_counters(self, two_blobs, serial_reference):
        result, tracer = _chaos_fit(
            two_blobs, FaultPolicy(max_retries=2, speculative=False)
        )
        np.testing.assert_array_equal(result.labels, serial_reference.labels)
        stats = result.merge_stats
        assert stats.mode == "engine"
        assert stats.span_is_measured
        assert stats.num_rounds == 3

        # One annotated round span per round, in round order, matching
        # the MergeStats accounting.
        rows = merge_ledger_rows(tracer.spans)
        assert [row[0] for row in rows] == [1, 2, 3]
        assert [row[1] for row in rows] == [4, 2, 1]  # matches per round
        assert [row[2] for row in rows] == stats.edges_per_round[:-1]
        assert [row[3] for row in rows] == stats.edges_per_round[1:]
        assert [row[4] for row in rows] == stats.resolved_per_round
        assert [row[5] for row in rows] == stats.removed_per_round

        # Measured walls: every round recorded a positive wall time and
        # shipped serialized bytes through the pool.
        assert len(stats.round_wall_seconds) == 3
        assert all(wall > 0 for wall in stats.round_wall_seconds)
        assert all(b > 0 for b in stats.bytes_shipped_per_round)
        assert stats.measured_span_seconds() == pytest.approx(
            sum(stats.round_wall_seconds)
        )

        # The counters mirror one ledger row per round.
        assert len(result.counters.merge_rounds) == 3
        assert [r["resolved"] for r in result.counters.merge_rounds] == (
            stats.resolved_per_round
        )
        validate_trace(tracer.spans)

    def test_driver_mode_records_no_round_spans(self, two_blobs):
        tracer = Tracer()
        with Engine("process", num_workers=2, tracer=tracer) as engine:
            result = RPDBSCAN(
                eps=0.3,
                min_pts=10,
                num_partitions=4,
                seed=0,
                engine=engine,
                merge_mode="driver",
            ).fit(two_blobs)
        assert result.merge_stats.mode == "driver"
        assert not result.merge_stats.span_is_measured
        assert merge_ledger_rows(tracer.spans) == []
        # Driver mode still keeps its per-round accounting in MergeStats.
        assert len(result.merge_stats.round_wall_seconds) == 2
        validate_trace(tracer.spans)


class TestAutoMode:
    def test_auto_resolution_rules(self, two_blobs):
        from repro.core.construction import build_cell_subgraph  # noqa: F401

        class _Fake:
            def __init__(self, num_edges):
                self.num_edges = num_edges

        big = [_Fake(10_000) for _ in range(4)]
        small = [_Fake(10) for _ in range(4)]
        with Engine("process", num_workers=2) as engine:
            assert resolve_merge_mode("auto", big, engine) == "engine"
            assert resolve_merge_mode("auto", small, engine) == "driver"
            assert resolve_merge_mode("auto", big[:2], engine) == "driver"
        serial = Engine("serial")
        assert resolve_merge_mode("auto", big, serial) == "driver"
        assert resolve_merge_mode("auto", big, None) == "driver"
        with pytest.raises(ValueError, match="engine"):
            resolve_merge_mode("engine", big, None)
        with pytest.raises(ValueError, match="merge_mode"):
            resolve_merge_mode("bogus", big, serial)
