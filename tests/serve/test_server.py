"""End-to-end predict server: TCP round trips, batching, ingest swap,
admission control, stats, shutdown — all over the real socket path."""

import glob
import logging
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.prediction import ClusterModel
from repro.core.serialization import (
    deserialize_cluster_state,
    save_cluster_state,
    serialize_cluster_state,
)
from repro.engine.shm import SHM_NAME_PREFIX
from repro.engine.remote.protocol import (
    HEADER_SIZE,
    MSG_INGEST_ACK,
    MSG_STATS_ACK,
    decode_header,
    encode_frame,
)
from repro.obs.report import render_serving_report, serving_ledger_rows
from repro.serve import (
    RequestRejected,
    ServeClient,
    ServeConfig,
    running_server,
)
from repro.serve.wire import WireFormatError

from ..shm_guard import own_segments


class TestPredictPath:
    def test_served_labels_bit_identical_to_offline(
        self, fitted_state, query_points
    ):
        offline = ClusterModel.from_state(fitted_state).predict(query_points)
        with running_server(fitted_state) as server:
            with ServeClient(server.host, server.port) as client:
                labels = client.predict(query_points)
                assert client.last_epoch == 1
                np.testing.assert_array_equal(labels, offline)
        assert own_segments() == []

    def test_non_finite_request_refused_alone(self, fitted_state, query_points):
        # One client sends a NaN point while others are in flight; only
        # that request is answered with MSG_ERROR, the rest get labels.
        offline = ClusterModel.from_state(fitted_state).predict(query_points)
        config = ServeConfig(workers=1, max_batch=4096)
        bad = query_points[:2].copy()
        bad[1, 0] = np.nan
        outcomes: dict[str, object] = {}

        def good_client(host, port, key):
            with ServeClient(host, port) as client:
                outcomes[key] = client.predict(query_points)

        def bad_client(host, port):
            with ServeClient(host, port) as client:
                try:
                    client.predict(bad)
                except RequestRejected as exc:
                    outcomes["bad"] = exc
                # The connection stays usable after the refusal.
                outcomes["after"] = client.predict(query_points)

        with running_server(fitted_state, config) as server:
            args = (server.host, server.port)
            threads = [
                threading.Thread(target=good_client, args=(*args, f"good{i}"))
                for i in range(3)
            ] + [threading.Thread(target=bad_client, args=args)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            with ServeClient(server.host, server.port) as client:
                stats = client.stats()
        assert isinstance(outcomes.get("bad"), RequestRejected)
        assert "NaN/inf" in str(outcomes["bad"])
        for key in ("good0", "good1", "good2", "after"):
            np.testing.assert_array_equal(outcomes[key], offline)
        assert stats["snapshot"]["serve.errors"] >= 1
        assert own_segments() == []

    def test_many_clients_fuse_into_batches(self, fitted_state, query_points):
        offline = ClusterModel.from_state(fitted_state).predict(query_points)
        # One worker: a depth of two batches, well under eight clients,
        # so requests must gather behind the batches in flight.
        config = ServeConfig(workers=1, max_batch=4096)
        n_clients, per_client = 8, 5
        failures: list[Exception] = []

        def client_loop(host, port):
            try:
                with ServeClient(host, port) as client:
                    for _ in range(per_client):
                        labels = client.predict(query_points)
                        np.testing.assert_array_equal(labels, offline)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        with running_server(fitted_state, config) as server:
            threads = [
                threading.Thread(
                    target=client_loop, args=(server.host, server.port)
                )
                for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            with ServeClient(server.host, server.port) as client:
                stats = client.stats()
        assert failures == []
        total = n_clients * per_client
        assert stats["snapshot"]["serve.requests"] == total
        assert (
            stats["snapshot"]["serve.points"]
            == total * query_points.shape[0]
        )
        # Micro-batching must have fused at least some requests: fewer
        # dispatches than requests.
        assert 0 < stats["batches_dispatched"] < total

    def test_wrong_dim_is_rejected_but_connection_survives(
        self, fitted_state, query_points
    ):
        with running_server(fitted_state) as server:
            with ServeClient(server.host, server.port) as client:
                with pytest.raises(RequestRejected, match="dim 5"):
                    client.predict(np.zeros((3, 5)))
                labels = client.predict(query_points)
                assert labels.shape == (query_points.shape[0],)
                stats = client.stats()
        assert stats["snapshot"]["serve.errors"] == 1


class TestAdmissionControl:
    def test_overload_rejects_instead_of_queueing(
        self, fitted_state, query_points
    ):
        config = ServeConfig(max_pending=0)  # degenerate: reject everything
        with running_server(fitted_state, config) as server:
            with ServeClient(server.host, server.port) as client:
                with pytest.raises(RequestRejected, match="overloaded"):
                    client.predict(query_points)
                # Rejection is per-request: the connection still serves
                # control traffic.
                stats = client.stats()
        assert stats["snapshot"]["serve.rejected"] == 1
        assert "serve.requests" not in stats["snapshot"]


class TestIngestSwap:
    def test_ingest_swaps_model_under_new_epoch(self, mutable_state):
        rng = np.random.default_rng(11)
        new_blob = rng.normal(8.0, 0.05, size=(80, 2))
        probe = np.array([[8.0, 8.0]])
        with running_server(mutable_state) as server:
            with ServeClient(server.host, server.port) as client:
                # Before ingest the new region is noise under epoch 1.
                assert client.predict(probe).tolist() == [-1]
                assert client.last_epoch == 1
                ack = client.ingest(new_blob)
                assert ack["epoch"] == 2
                assert ack["num_new_points"] == 80
                assert ack["n_clusters"] == 3
                # After the swap the same probe joins the new cluster,
                # and the reply carries the new epoch.
                assert client.predict(probe).tolist() != [-1]
                assert client.last_epoch == 2
                stats = client.stats()
        assert stats["epoch"] == 2
        assert stats["snapshot"]["serve.ingests"] == 1
        assert own_segments() == []

    def test_served_labels_match_offline_after_swap(self, mutable_state):
        rng = np.random.default_rng(13)
        new_blob = rng.normal(-6.0, 0.05, size=(60, 2))
        queries = np.concatenate(
            [rng.normal(-6.0, 0.05, size=(20, 2)), rng.normal(0, 0.1, (20, 2))]
        )
        reference = deserialize_cluster_state(
            serialize_cluster_state(mutable_state)
        )
        with running_server(mutable_state) as server:
            with ServeClient(server.host, server.port) as client:
                client.ingest(new_blob)
                served = client.predict(queries)
        # The refit process ingested into its own copy; an offline
        # ingest of the same block must agree bit for bit.
        reference.ingest(new_blob)
        offline = ClusterModel.from_state(reference).predict(queries)
        np.testing.assert_array_equal(served, offline)

    def test_served_ingest_leaves_the_callers_state_unchanged(
        self, mutable_state
    ):
        before = serialize_cluster_state(mutable_state)
        rng = np.random.default_rng(17)
        with running_server(mutable_state) as server:
            refit = server._refit._process
            with ServeClient(server.host, server.port) as client:
                ack = client.ingest(rng.normal(8.0, 0.05, size=(50, 2)))
                stats = client.stats()
        assert ack["epoch"] == 2
        assert stats["num_points"] == mutable_state.num_points + 50
        assert serialize_cluster_state(mutable_state) == before
        # Teardown joined the refit process, which exited on its own
        # when its pipe closed (a terminated one reads -SIGTERM).
        assert refit.exitcode == 0

    def test_lost_refit_process_refuses_ingests_and_keeps_serving(
        self, mutable_state, query_points
    ):
        offline = ClusterModel.from_state(mutable_state).predict(query_points)
        blob = np.random.default_rng(19).normal(8.0, 0.05, size=(40, 2))
        with running_server(mutable_state) as server:
            refit_pid = server._refit.pid
            os.kill(refit_pid, signal.SIGKILL)
            with ServeClient(server.host, server.port) as client:
                for _ in range(2):  # the first ingest finds the loss
                    with pytest.raises(
                        RequestRejected,
                        match=f"refit process {refit_pid} lost",
                    ):
                        client.ingest(blob)
                labels = client.predict(query_points)
                assert client.last_epoch == 1
                stats = client.stats()
        np.testing.assert_array_equal(labels, offline)
        assert stats["epoch"] == 1
        assert stats["snapshot"]["serve.errors"] == 2
        assert own_segments() == []

    def test_refused_refit_leaves_the_model_and_the_next_ingest_lands(
        self, mutable_state
    ):
        rng = np.random.default_rng(23)
        huge = np.full((3, 2), 1e300)  # finite, past the int64 cell grid
        with running_server(mutable_state) as server:
            with ServeClient(server.host, server.port) as client:
                with pytest.raises(RequestRejected, match="int64 grid"):
                    client.ingest(huge)
                client.predict(np.array([[0.0, 0.0]]))
                assert client.last_epoch == 1
                ack = client.ingest(rng.normal(8.0, 0.05, size=(80, 2)))
                assert ack["epoch"] == 2
                assert ack["num_new_points"] == 80
                assert client.predict(np.array([[8.0, 8.0]])).tolist() != [-1]
                assert client.last_epoch == 2
                stats = client.stats()
        assert stats["num_points"] == mutable_state.num_points + 80
        assert stats["snapshot"]["serve.ingests"] == 1


    def test_empty_ingest_is_rejected_without_a_swap(self, mutable_state):
        with running_server(mutable_state) as server:
            with ServeClient(server.host, server.port) as client:
                with pytest.raises(RequestRejected, match="empty point block"):
                    client.ingest(np.empty((0, 2)))
                # The connection survives; the resident model is the same.
                client.predict(np.array([[0.0, 0.0]]))
                assert client.last_epoch == 1
                stats = client.stats()
        assert stats["epoch"] == 1
        assert stats["snapshot"].get("serve.ingests", 0) == 0
        assert stats["snapshot"]["serve.errors"] == 1


class TestStatsAndReport:
    def test_stats_snapshot_renders_as_serving_ledger(
        self, fitted_state, query_points
    ):
        with running_server(fitted_state) as server:
            with ServeClient(server.host, server.port) as client:
                for _ in range(3):
                    client.predict(query_points)
                stats = client.stats()
        snapshot = stats["snapshot"]
        rows = serving_ledger_rows(snapshot)
        labels = [row[0] for row in rows]
        assert "requests answered" in labels
        assert "latency p99" in labels
        assert "model install (setup)" in labels
        report = render_serving_report(snapshot)
        assert "serving ledger" in report
        # Latency histogram observed one sample per request.
        assert snapshot["serve.latency_seconds"]["total"] == 3
        assert snapshot["serve.queue_depth_peak"] >= 1
        # Warm-up ran at install time, before the socket opened.
        assert snapshot["setup_seconds.serve_warmup"] >= 0.0

    def test_idle_server_reports_an_empty_queue(
        self, fitted_state, query_points
    ):
        def burst(host, port):
            with ServeClient(host, port) as client:
                for _ in range(5):
                    client.predict(query_points)

        with running_server(fitted_state) as server:
            threads = [
                threading.Thread(target=burst, args=(server.host, server.port))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            with ServeClient(server.host, server.port) as client:
                snapshot = client.stats()["snapshot"]
        assert snapshot["serve.requests"] == 20
        assert snapshot["serve.queue_depth"] == 0
        assert snapshot["serve.queue_depth_peak"] >= 1

    def test_empty_snapshot_renders_placeholder(self):
        assert "no serving traffic" in render_serving_report({})


class TestShutdown:
    def test_client_shutdown_stops_the_server(self, fitted_state):
        with running_server(fitted_state) as server:
            with ServeClient(server.host, server.port) as client:
                client.shutdown()
            server._stopped  # context manager exit must not double-stop
        assert own_segments() == []

    def test_idle_connection_closes_cleanly(self, fitted_state, caplog):
        # A client still connected at shutdown: its handler must return
        # before the loop exits, not be cancelled there (which asyncio
        # logs as "Exception in callback ... CancelledError").
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            with running_server(fitted_state) as server:
                idle = ServeClient(server.host, server.port)
                with ServeClient(server.host, server.port) as client:
                    assert client.stats()["connections"] == 2
                    client.shutdown()
            try:
                with pytest.raises(ConnectionError):
                    idle.predict(np.array([[0.0, 0.0]]))
            finally:
                idle.close()
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == []
        assert own_segments() == []


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            found.append(int(entry))
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie awaiting its reaper does not."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
class TestKilledServer:
    def test_children_exit_after_the_server_is_sigkilled(
        self, fitted_state, tmp_path
    ):
        # SIGKILL gives the server no chance to stop its children: each
        # must notice on its own, through its pipe reading EOF.
        model = tmp_path / "model.rpst"
        save_cluster_state(fitted_state, model)
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--model", str(model),
             "--workers", "2"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            ready = proc.stdout.readline()
            watchdog.cancel()
            assert "READY" in ready, ready
            children = _children(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=10.0)
            proc.stdout.close()
        # The refit process and both predictor workers, at least.
        assert len(children) >= 3
        deadline = time.monotonic() + 10.0
        survivors = [pid for pid in children if _running(pid)]
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        # The killed server never unlinked its model's segment.
        for path in glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}{proc.pid:x}_*"):
            os.unlink(path)
        assert survivors == []


class _Exploit:
    """Unpickling this runs code: it writes ``marker``."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (exec, (f"open({self.marker!r}, 'w').close()",))


class TestControlPayloads:
    @pytest.mark.parametrize(
        "call, reply_type",
        [("stats", MSG_STATS_ACK), ("ingest", MSG_INGEST_ACK)],
    )
    def test_client_never_unpickles_a_reply(self, tmp_path, call, reply_type):
        # A fake server answers with a pickle whose load would run exec.
        marker = tmp_path / "exploited"
        payload = pickle.dumps(_Exploit(marker))
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                header = conn.recv(HEADER_SIZE, socket.MSG_WAITALL)
                _, length = decode_header(header)
                if length:
                    conn.recv(length, socket.MSG_WAITALL)
                conn.sendall(encode_frame(reply_type, payload))

        thread = threading.Thread(target=fake_server)
        thread.start()
        try:
            with ServeClient("127.0.0.1", port, timeout_s=10.0) as client:
                with pytest.raises(WireFormatError):
                    if call == "stats":
                        client.stats()
                    else:
                        client.ingest(np.zeros((1, 2)))
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert not thread.is_alive()
        assert not marker.exists()
