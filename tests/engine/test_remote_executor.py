"""The remote executor over real loopback node agents.

Spawns genuine ``python -m repro.node`` subprocesses on 127.0.0.1 and
drives them through ``Engine("remote", nodes=...)``:

* **bit-identity** — a remote fit over 2 nodes produces labels
  identical to the serial engine's, across node broadcast channel ×
  Phase II kernel × broadcast form (the whole flat dictionary or its
  budgeted shards), with and without a fault policy;
* **one ship per node per epoch** — the engine's broadcast counters
  and each node's ledger row prove a broadcast value crossed the wire
  exactly once per node, however many ``map_tasks`` calls reuse it;
* **observability** — node ledger in the result, ``n<k>:<pid>`` worker
  labels, node-annotated attempt spans, and the node column/ledger in
  the rendered run report;
* **teardown ordering** — a mid-phase ``close()`` from another thread
  neither hangs nor leaks ``/dev/shm`` segments (process and remote);
* **failures without a policy** — a task's own exception reaches the
  caller, and a node death fails the phase naming the node.
"""

from __future__ import annotations

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import RPDBSCAN
from repro.engine import (
    Engine,
    EngineClosedError,
    FaultPolicy,
    TaskFailedError,
    loopback_nodes,
)
from repro.engine.shm import SHM_NAME_PREFIX
from repro.kernels import HAVE_NUMBA
from repro.obs.report import render_run_report
from repro.obs.spans import Tracer

from .test_executors import boom, run_bounded

KERNELS = ["numpy"] + (["numba"] if HAVE_NUMBA else [])

FIT_PARAMS = dict(eps=0.3, min_pts=10, num_partitions=6, seed=0)
#: Broadcast forms: the whole flat dictionary, or its sharded form under
#: a leaf budget (per-node shard segments).
BROADCASTS = {"flat": {}, "sharded": {"broadcast_budget": 1 << 17}}


def live_segments() -> list[str]:
    return sorted(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*"))


def square(x):
    return x * x


def add_broadcast(x, b):
    return x + b


def sleep_then_square(task):
    sleep_s, value = task
    if sleep_s:
        time.sleep(sleep_s)
    return value * value


@pytest.fixture(scope="module", params=["pickle", "shm"])
def nodes(request):
    """Two loopback agents, 2 workers each, per broadcast channel."""
    with loopback_nodes(
        num_nodes=2, workers=2, broadcast_channel=request.param
    ) as addrs:
        yield addrs


# ----------------------------------------------------------------------
# map_tasks semantics over the wire
# ----------------------------------------------------------------------


class TestRemoteMapTasks:
    def test_plain_map(self, nodes):
        with Engine("remote", nodes=nodes) as engine:
            assert engine.map_tasks(square, list(range(20))) == [
                x * x for x in range(20)
            ]
            assert engine.num_workers == 4  # 2 nodes x 2 workers

    def test_map_with_broadcast(self, nodes):
        with Engine("remote", nodes=nodes) as engine:
            assert engine.map_tasks(
                add_broadcast, list(range(10)), broadcast=100
            ) == [100 + x for x in range(10)]

    def test_map_through_recovery_loop(self, nodes):
        policy = FaultPolicy(max_retries=2, backoff_base_s=0.01)
        with Engine("remote", nodes=nodes, fault_policy=policy) as engine:
            assert engine.map_tasks(
                add_broadcast, list(range(12)), broadcast=7
            ) == [7 + x for x in range(12)]

    def test_one_ship_per_node_per_epoch(self, nodes):
        with Engine("remote", nodes=nodes) as engine:
            value = list(range(100))
            for _ in range(3):  # same value: one fan-out total
                engine.map_tasks(
                    lambda_free_sum, list(range(8)), broadcast=value
                )
            assert engine.broadcast_ships == 1
            ledger = engine.node_ledger()
            assert [row["ships"] for row in ledger] == [1, 1]

            engine.map_tasks(
                lambda_free_sum, list(range(8)), broadcast=list(range(50))
            )
            assert engine.broadcast_ships == 2
            ledger = engine.node_ledger()
            assert [row["ships"] for row in ledger] == [2, 2]
            assert all(row["bytes_shipped"] > 0 for row in ledger)

    def test_node_ledger_shape(self, nodes):
        with Engine("remote", nodes=nodes) as engine:
            engine.map_tasks(square, list(range(8)))
            ledger = engine.node_ledger()
            assert len(ledger) == 2
            for row, addr in zip(ledger, nodes):
                assert row["addr"] == addr
                assert row["workers"] == 2
                assert row["alive"] is True
                assert row["deaths"] == 0
            # Every task landed on some node.
            assert sum(row["tasks"] for row in ledger) == 8

    def test_worker_labels_carry_the_node(self, nodes):
        tracer = Tracer()
        with Engine("remote", nodes=nodes, tracer=tracer) as engine:
            with tracer.span("map", "phase", phase="map"):
                engine.map_tasks(square, list(range(12)))
        workers = {
            s.worker for s in tracer.spans if s.kind == "attempt"
        }
        assert workers
        for worker in workers:
            node, _, pid = str(worker).partition(":")
            assert node in ("n0", "n1")
            assert pid.isdigit()

    def test_num_workers_is_rejected_in_remote_mode(self, nodes):
        with pytest.raises(ValueError, match="per-node"):
            Engine("remote", num_workers=4, nodes=nodes)

    def test_remote_mode_needs_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            Engine("remote")

    def test_node_ledger_is_none_off_remote(self):
        with Engine("serial") as engine:
            assert engine.node_ledger() is None


def lambda_free_sum(x, b):
    return x + len(b)


def kill_own_node(x):
    """Task 1 SIGKILLs the node agent running it (its worker's parent)."""
    if x == 1:
        os.kill(os.getppid(), signal.SIGKILL)
    return x


class TestRemoteFailuresWithoutPolicy:
    def test_task_error_reaches_the_caller(self, nodes):
        with Engine("remote", nodes=nodes) as engine:
            with pytest.raises(RuntimeError, match="task 2 failed"):
                run_bounded(lambda: engine.map_tasks(boom, [2, 2, 2]))
            assert engine.counters.fault_total() == 0

    def test_node_death_fails_the_phase_naming_the_node(self):
        # Own harness: this test kills one of its agents.
        with loopback_nodes(num_nodes=2, workers=2) as addrs:
            with Engine("remote", nodes=addrs) as engine:
                with pytest.raises(TaskFailedError, match=r"node n[01] \("):
                    run_bounded(
                        lambda: engine.map_tasks(kill_own_node, [0, 1, 2, 3])
                    )
                assert engine.counters.fault_total() == 0


# ----------------------------------------------------------------------
# Full fits: bit-identity with the serial engine
# ----------------------------------------------------------------------


class TestRemoteFitIdentity:
    @pytest.mark.parametrize("form", BROADCASTS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fit_matches_serial(self, nodes, two_blobs, form, kernel):
        serial = RPDBSCAN(**FIT_PARAMS, kernel=kernel).fit(two_blobs)
        with Engine("remote", nodes=nodes) as engine:
            remote = RPDBSCAN(
                **FIT_PARAMS, **BROADCASTS[form], kernel=kernel, engine=engine
            ).fit(two_blobs)
        np.testing.assert_array_equal(remote.labels, serial.labels)
        assert remote.n_clusters == serial.n_clusters
        assert remote.node_ledger is not None
        assert len(remote.node_ledger) == 2

    def test_fit_through_recovery_loop_matches_serial(self, nodes, two_blobs):
        serial = RPDBSCAN(**FIT_PARAMS).fit(two_blobs)
        policy = FaultPolicy(max_retries=2, backoff_base_s=0.01)
        with Engine("remote", nodes=nodes, fault_policy=policy) as engine:
            remote = RPDBSCAN(**FIT_PARAMS, engine=engine).fit(two_blobs)
        np.testing.assert_array_equal(remote.labels, serial.labels)
        assert remote.fault_events == {}

    def test_fit_report_shows_nodes(self, nodes, two_blobs):
        tracer = Tracer()
        with Engine("remote", nodes=nodes, tracer=tracer) as engine:
            RPDBSCAN(**FIT_PARAMS, engine=engine).fit(two_blobs)
        report = render_run_report(tracer.spans)
        assert "per-worker utilization" in report
        assert "node broadcast ledger" in report
        assert "n0" in report and "n1" in report

    def test_serial_result_has_no_node_ledger(self, two_blobs):
        assert RPDBSCAN(**FIT_PARAMS).fit(two_blobs).node_ledger is None


# ----------------------------------------------------------------------
# close() teardown ordering (the mid-phase close regression)
# ----------------------------------------------------------------------


class TestCloseMidPhase:
    def _close_mid_map(self, engine):
        """Run a slow map in a thread, close the engine under it."""
        tasks = [(0.3, v) for v in range(16)]
        errors: list[BaseException] = []

        def run():
            try:
                engine.map_tasks(
                    sleep_then_square, tasks, broadcast=np.arange(4096)
                )
            except BaseException as exc:  # noqa: BLE001 - recorded, asserted on
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.6)  # well inside the phase
        engine.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "map_tasks hung across close()"
        assert errors, "mid-phase close must surface an error to the mapper"

    @pytest.mark.parametrize("fault_policy", [None, FaultPolicy(max_retries=1)])
    def test_process_close_mid_phase_leaks_nothing(self, fault_policy):
        # Live node agents (module fixture) legitimately hold their own
        # installed segments — only *new* segments count as a leak.
        baseline = live_segments()
        engine = Engine(
            "process",
            num_workers=2,
            broadcast_channel="shm",
            fault_policy=fault_policy,
        )
        self._close_mid_map(engine)
        assert live_segments() == baseline
        with pytest.raises(EngineClosedError):
            engine.map_tasks(square, [1, 2, 3])  # closed engines refuse work

    def test_remote_close_mid_phase_does_not_hang(self):
        # Own harness: closing the engine shuts its agents down, so the
        # shared module fixture must not be sacrificed here.
        with loopback_nodes(num_nodes=2, workers=2) as addrs:
            engine = Engine("remote", nodes=addrs)
            self._close_mid_map(engine)
            assert engine.node_ledger() is None  # cluster released

    def test_close_is_idempotent(self):
        engine = Engine("process", num_workers=2)
        engine.map_tasks(square, [1, 2, 3])
        engine.close()
        engine.close()
