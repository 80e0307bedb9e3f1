"""End-to-end predict server: TCP round trips, batching, ingest swap,
admission control, stats, shutdown — all over the real socket path."""

import threading

import numpy as np
import pytest

from repro.core.prediction import ClusterModel
from repro.obs.report import render_serving_report, serving_ledger_rows
from repro.serve import (
    RequestRejected,
    ServeClient,
    ServeConfig,
    running_server,
)

from .conftest import live_segments


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
        assert live_segments() == []

    def test_non_finite_request_refused_alone(self, fitted_state, query_points):
        # One client sends a NaN point while others are in flight; only
        # that request is answered with MSG_ERROR, the rest get labels.
        offline = ClusterModel.from_state(fitted_state).predict(query_points)
        config = ServeConfig(workers=1, batch_window_s=0.02, max_batch=4096)
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
        assert live_segments() == []

    def test_many_clients_fuse_into_batches(self, fitted_state, query_points):
        offline = ClusterModel.from_state(fitted_state).predict(query_points)
        config = ServeConfig(workers=2, batch_window_s=0.005, max_batch=4096)
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
        assert live_segments() == []

    def test_served_labels_match_offline_after_swap(self, mutable_state):
        rng = np.random.default_rng(13)
        new_blob = rng.normal(-6.0, 0.05, size=(60, 2))
        queries = np.concatenate(
            [rng.normal(-6.0, 0.05, size=(20, 2)), rng.normal(0, 0.1, (20, 2))]
        )
        with running_server(mutable_state) as server:
            with ServeClient(server.host, server.port) as client:
                client.ingest(new_blob)
                served = client.predict(queries)
            # The server's state was refitted in place; offline predict
            # of that same state must agree bit for bit.
            offline = ClusterModel.from_state(mutable_state).predict(queries)
        np.testing.assert_array_equal(served, offline)


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

    def test_empty_snapshot_renders_placeholder(self):
        assert "no serving traffic" in render_serving_report({})


class TestShutdown:
    def test_client_shutdown_stops_the_server(self, fitted_state):
        with running_server(fitted_state) as server:
            with ServeClient(server.host, server.port) as client:
                client.shutdown()
            server._stopped  # context manager exit must not double-stop
        assert live_segments() == []
