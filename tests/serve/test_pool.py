"""PredictorPool: shm installs, epoch swaps, worker death, teardown."""

import numpy as np
import pytest

from repro.core.prediction import ClusterModel
from repro.serve.pool import PredictorPool, ServePoolError

from ..shm_guard import own_segments


def _model(fitted_state, **kwargs):
    return ClusterModel.from_state(fitted_state, **kwargs)


class TestInstall:
    def test_install_reports_shm_segment_and_warmup(self, fitted_state):
        with PredictorPool(num_workers=2) as pool:
            stats = pool.install(_model(fitted_state))
            assert stats.epoch == 1
            # The model payload is a FlatCellDictionary, so the install
            # must ride the zero-copy segment, not the pickle fallback.
            assert stats.segment_bytes > 0
            # The pickled shell excludes the hoisted columns.
            assert 0 < stats.payload_bytes < stats.segment_bytes
            assert stats.warmup_seconds >= 0.0
            assert len(stats.workers) == 2
            assert len({pid for pid, _, _ in stats.workers}) == 2
            assert len(own_segments()) == 1
        assert own_segments() == []

    def test_predict_before_install_raises(self):
        with PredictorPool(num_workers=1) as pool:
            with pytest.raises(ServePoolError, match="no model"):
                pool.submit_predict(np.zeros((1, 2)))

    def test_reinstall_bumps_epoch_and_replaces_segment(self, fitted_state):
        with PredictorPool(num_workers=1) as pool:
            assert pool.install(_model(fitted_state)).epoch == 1
            first_segment = own_segments()
            assert pool.install(_model(fitted_state)).epoch == 2
            second_segment = own_segments()
            # Old epoch's segment is unlinked once all workers acked.
            assert len(second_segment) == 1
            assert second_segment != first_segment
        assert own_segments() == []


class TestPredict:
    def test_pool_labels_match_offline_predict(
        self, fitted_state, query_points
    ):
        offline = _model(fitted_state).predict(query_points)
        with PredictorPool(num_workers=2) as pool:
            pool.install(_model(fitted_state))
            for _ in range(4):  # hit both workers round-robin
                epoch, labels = pool.predict(query_points)
                assert epoch == 1
                np.testing.assert_array_equal(labels, offline)

    def test_predict_error_is_per_job_not_fatal(
        self, fitted_state, query_points
    ):
        with PredictorPool(num_workers=1) as pool:
            pool.install(_model(fitted_state))
            with pytest.raises(ServePoolError, match="points must be"):
                pool.predict(np.zeros((2, 9)))  # wrong dim
            # Same worker still answers the next job.
            _, labels = pool.predict(query_points)
            assert labels.shape == (query_points.shape[0],)

    def test_closed_pool_refuses_work(self, fitted_state):
        pool = PredictorPool(num_workers=1)
        pool.install(_model(fitted_state))
        pool.close()
        with pytest.raises(ServePoolError, match="closed"):
            pool.submit_predict(np.zeros((1, 2)))


class TestWorkerDeath:
    def test_dead_worker_respawns_with_current_model(
        self, fitted_state, query_points
    ):
        offline = _model(fitted_state).predict(query_points)
        with PredictorPool(num_workers=1) as pool:
            pool.install(_model(fitted_state))
            worker = pool._workers[0]
            old_pid = worker.pid
            worker._process.terminate()
            worker._process.join(timeout=5.0)
            # The in-flight job fails; the pool heals itself.
            with pytest.raises(ServePoolError, match="lost"):
                pool.predict(query_points)
            assert pool.respawns == 1
            assert worker.pid != old_pid
            epoch, labels = pool.predict(query_points)
            assert epoch == 1
            np.testing.assert_array_equal(labels, offline)
        assert own_segments() == []
