"""Unit tests for repro.engine.executors."""

import operator
import os
import threading

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.engine import TaskFailedError, executors
from repro.engine.executors import Engine

from ..shm_guard import own_segments


def square(x):
    return x * x


def add_broadcast(x, b):
    return x + b


def touch_items(task):
    return len(task)


def worker_pid(x):
    return os.getpid()


def read_worker_state(x, b):
    """Expose the worker's broadcast-cache state for the epoch tests."""
    return (
        os.getpid(),
        executors._WORKER_INSTALLS,
        executors._WORKER_EPOCH,
        b,
    )


def read_broadcast_flag(x, b):
    return b["warmed"]


def ignore_broadcast(x, b):
    return x


def set_warmed(b):
    b["warmed"] = True


class TestSerialEngine:
    def test_results_in_task_order(self):
        engine = Engine("serial")
        assert engine.map_tasks(square, [1, 2, 3]) == [1, 4, 9]

    def test_broadcast_passed(self):
        engine = Engine("serial")
        assert engine.map_tasks(add_broadcast, [1, 2], broadcast=10) == [11, 12]

    def test_task_stats_recorded(self):
        engine = Engine("serial")
        engine.map_tasks(square, [1, 2, 3], phase="p")
        stats = engine.counters.phase_tasks["p"]
        assert [s.task_id for s in stats] == [0, 1, 2]
        assert all(s.wall_time_s >= 0 for s in stats)

    def test_item_counter(self):
        engine = Engine("serial")
        engine.map_tasks(touch_items, [[1, 2], [3]], phase="p", item_counter=len)
        assert engine.counters.items_processed("p") == 3

    def test_phase_time_recorded(self):
        engine = Engine("serial")
        engine.map_tasks(square, [1], phase="ph")
        assert "ph" in engine.counters.phase_seconds

    def test_empty_task_list(self):
        engine = Engine("serial")
        assert engine.map_tasks(square, []) == []


class TestProcessEngine:
    def test_results_match_serial(self):
        tasks = list(range(8))
        serial = Engine("serial").map_tasks(square, tasks)
        parallel = Engine("process", num_workers=2).map_tasks(square, tasks)
        assert serial == parallel

    def test_broadcast_shipped_once_per_worker(self):
        engine = Engine("process", num_workers=2)
        big = np.arange(1000)
        out = engine.map_tasks(add_broadcast, [1, 2, 3, 4], broadcast=big)
        for i, result in enumerate(out):
            np.testing.assert_array_equal(result, big + i + 1)

    def test_single_task_runs_inline(self):
        # One task short-circuits to the serial path (no pool overhead).
        engine = Engine("process", num_workers=4)
        assert engine.map_tasks(square, [3]) == [9]
        assert engine.pools_created == 0


class TestPersistentPool:
    def test_one_pool_per_engine_lifetime(self):
        with Engine("process", num_workers=2) as engine:
            pids = set()
            for phase in ("a", "b", "c"):
                pids |= set(engine.map_tasks(worker_pid, list(range(6)), phase=phase))
            assert engine.pools_created == 1
            # Every phase is served by the same pool of <= 2 workers: no
            # new processes appear between phases.
            assert len(pids) <= 2
            assert os.getpid() not in pids

    def test_close_is_final_and_fails_tasks_cleanly(self):
        from repro.engine import EngineClosedError

        engine = Engine("process", num_workers=2)
        engine.map_tasks(square, [1, 2, 3])
        engine.close()
        assert engine.closed
        with pytest.raises(EngineClosedError):
            engine.map_tasks(square, [1, 2, 3])
        # The refusal must not have resurrected the pool.
        assert engine.pools_created == 1
        assert engine._pool is None

    def test_double_close_is_idempotent(self):
        engine = Engine("process", num_workers=2)
        engine.map_tasks(square, [1, 2, 3])
        engine.close()
        engine.close()  # second close (or __exit__ after close) is a no-op
        assert engine.closed

    def test_del_after_close_is_safe(self):
        engine = Engine("process", num_workers=2)
        engine.map_tasks(square, [1, 2])
        engine.close()
        engine.__del__()  # simulate GC after explicit close

    def test_close_without_pool_is_noop(self):
        Engine("process").close()
        Engine("serial").close()

    def test_close_after_failed_map_does_not_hang(self):
        # A crashed phase used to leave the pool in a state where
        # close() could block on stuck workers; terminate-based close
        # must return promptly and keep the engine consistent.
        engine = Engine("process", num_workers=2)
        with pytest.raises(RuntimeError):
            engine.map_tasks(boom, [1, 2, 3])
        engine.close()
        assert engine._pool is None

    def test_context_manager_closes(self):
        with Engine("process", num_workers=2) as engine:
            engine.map_tasks(square, [1, 2, 3])
        assert engine._pool is None

    def test_worker_attribution_recorded(self):
        with Engine("process", num_workers=2) as engine:
            engine.map_tasks(square, list(range(6)), phase="p")
            stats = engine.counters.phase_tasks["p"]
            workers = {s.worker for s in stats}
            assert all(isinstance(w, int) for w in workers)
            assert engine.counters.worker_imbalance("p") >= 1.0

    def test_pool_startup_in_setup_bucket_not_phase(self):
        with Engine("process", num_workers=2) as engine:
            engine.map_tasks(square, list(range(4)), phase="only-phase")
            assert "pool_startup" in engine.counters.setup_seconds
            assert set(engine.counters.phase_seconds) == {"only-phase"}
            assert "pool_startup" not in engine.counters.breakdown()


class TestBroadcastEpochs:
    def test_distinct_broadcast_shipped_once_per_worker(self):
        with Engine("process", num_workers=2) as engine:
            b1 = {"value": 1}
            out1 = engine.map_tasks(read_worker_state, [0, 1, 2, 3], broadcast=b1)
            out2 = engine.map_tasks(read_worker_state, [0, 1, 2, 3], broadcast=b1)
            assert engine.broadcast_ships == 1
            # Every worker installed the broadcast exactly once and every
            # task of both calls saw epoch 1.
            for pid, installs, epoch, seen in out1 + out2:
                assert installs == 1
                assert epoch == 1
                assert seen == {"value": 1}

    def test_new_broadcast_bumps_epoch_and_invalidates_cache(self):
        with Engine("process", num_workers=2) as engine:
            out1 = engine.map_tasks(read_worker_state, [0, 1, 2], broadcast={"v": 1})
            out2 = engine.map_tasks(read_worker_state, [0, 1, 2], broadcast={"v": 2})
            assert engine.broadcast_ships == 2
            assert engine.broadcast_epoch == 2
            assert all(epoch == 1 and seen == {"v": 1} for _, _, epoch, seen in out1)
            assert all(epoch == 2 and seen == {"v": 2} for _, _, epoch, seen in out2)
            # Each worker re-installed once per distinct broadcast.
            assert all(installs <= 2 for _, installs, _, _ in out2)

    def test_broadcast_ship_recorded_as_setup(self):
        with Engine("process", num_workers=2) as engine:
            engine.map_tasks(add_broadcast, [1, 2, 3], broadcast=10, phase="p")
            assert "broadcast_ship" in engine.counters.setup_seconds
            assert engine.counters.setup_total() > 0.0

    def test_fresh_engine_has_cold_caches(self):
        # Pool caches die with the engine: the same broadcast object
        # ships again on a new engine (per-engine epochs, no leakage).
        b = {"v": 7}
        with Engine("process", num_workers=2) as first:
            first.map_tasks(read_worker_state, [0, 1, 2], broadcast=b)
            assert first.broadcast_ships == 1
        with Engine("process", num_workers=2) as second:
            out = second.map_tasks(read_worker_state, [0, 1, 2], broadcast=b)
            assert second.broadcast_ships == 1
            assert all(seen == {"v": 7} for _, _, _, seen in out)


class TestWarmup:
    def test_process_warmup_runs_in_each_worker_before_tasks(self):
        with Engine("process", num_workers=2) as engine:
            flag = {"warmed": False}
            out = engine.map_tasks(
                read_broadcast_flag, [0, 1, 2, 3], broadcast=flag, warmup=set_warmed
            )
            # Workers mutate their own unpickled copy during install, so
            # every task observes the warmed state; the driver's original
            # is untouched.
            assert out == [True, True, True, True]
            assert flag["warmed"] is False
            assert "warmup" in engine.counters.setup_seconds

    def test_serial_warmup_runs_once_per_broadcast(self):
        engine = Engine("serial")
        calls = []
        b1, b2 = {"v": 1}, {"v": 2}
        engine.map_tasks(ignore_broadcast, [1], broadcast=b1, warmup=calls.append)
        engine.map_tasks(ignore_broadcast, [2], broadcast=b1, warmup=calls.append)
        engine.map_tasks(ignore_broadcast, [3], broadcast=b2, warmup=calls.append)
        assert calls == [b1, b2]
        assert "warmup" in engine.counters.setup_seconds

    def test_warmup_excluded_from_phase_time(self):
        import time as _time

        engine = Engine("serial")
        engine.map_tasks(
            add_broadcast,
            [1, 2],
            broadcast=0,
            phase="p",
            warmup=lambda b: _time.sleep(0.05),
        )
        assert engine.counters.setup_seconds["warmup"] >= 0.05
        assert engine.counters.phase_seconds["p"] < 0.05


class TestSpawnSafety:
    def test_spawn_start_method(self):
        with Engine("process", num_workers=2, start_method="spawn") as engine:
            out = engine.map_tasks(operator.add, [1, 2, 3, 4], broadcast=10)
            assert out == [11, 12, 13, 14]
            out = engine.map_tasks(operator.mul, [1, 2, 3, 4], broadcast=10)
            assert out == [10, 20, 30, 40]
            assert engine.broadcast_ships == 1


class TestValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            Engine("threads")

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            Engine("serial", num_workers=0)


def boom(x):
    raise RuntimeError(f"task {x} failed")


class TestErrorPropagation:
    def test_serial_task_error_propagates(self):
        engine = Engine("serial")
        with pytest.raises(RuntimeError, match="task 1 failed"):
            engine.map_tasks(boom, [1])

    def test_phase_time_still_recorded_on_error(self):
        engine = Engine("serial")
        with pytest.raises(RuntimeError):
            engine.map_tasks(boom, [1], phase="doomed")
        assert "doomed" in engine.counters.phase_seconds

    def test_process_task_error_propagates_and_pool_survives(self):
        with Engine("process", num_workers=2) as engine:
            with pytest.raises(RuntimeError, match="failed"):
                engine.map_tasks(boom, [1, 2, 3])
            # The persistent pool outlives a failed phase.
            assert engine.map_tasks(square, [2, 3]) == [4, 9]
            assert engine.pools_created == 1


def run_bounded(call, timeout_s: float = 60.0):
    """Return ``call()``'s result (or raise its exception), failing the
    test if it has not returned within ``timeout_s``.

    The call runs on a daemon thread, so a dispatch that waits forever
    fails the test instead of hanging the suite.
    """
    outcome: dict = {}

    def target():
        try:
            outcome["result"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        pytest.fail(f"call still running after {timeout_s}s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def exit_on_one(x, flat):
    """Task 1 kills the pool worker running it."""
    if x == 1:
        os._exit(3)
    return x + flat.num_cells


@pytest.fixture(scope="module")
def small_flat():
    rng = np.random.default_rng(5)
    return FlatCellDictionary.from_points(
        rng.uniform(0, 4, (500, 2)), CellGeometry(eps=0.5, dim=2, rho=0.05)
    )


class TestProcessLossWithoutPolicy:
    """Without a fault policy a lost worker fails its phase: the death
    watch sees it and the loop raises, where waiting for the lost
    result would never return."""

    def test_worker_death_fails_the_phase_naming_the_loss(self, small_flat):
        with Engine("process", num_workers=2) as engine:
            with pytest.raises(TaskFailedError, match="worker process died"):
                run_bounded(
                    lambda: engine.map_tasks(
                        exit_on_one, [0, 1, 2, 3], broadcast=small_flat
                    )
                )
            assert engine.counters.fault_total() == 0

    def test_next_map_succeeds_and_close_leaves_no_segment(self, small_flat):
        engine = Engine("process", num_workers=2, broadcast_channel="shm")
        with pytest.raises(TaskFailedError):
            run_bounded(
                lambda: engine.map_tasks(
                    exit_on_one, [0, 1, 2, 3], broadcast=small_flat
                )
            )
        out = run_bounded(
            lambda: engine.map_tasks(exit_on_one, [0, 2, 3], broadcast=small_flat)
        )
        assert out == [x + small_flat.num_cells for x in (0, 2, 3)]
        assert engine.pools_created == 2
        assert own_segments() != []
        engine.close()
        assert own_segments() == []
