"""Concurrent readers of one shm-resident model (satellite of the
serving plane): the same segment must serve bit-identical labels to
many threads and many processes at once, and leak nothing."""

import threading
from multiprocessing import get_context

import numpy as np

from repro.core.prediction import ClusterModel
from repro.engine.shm import (
    attach_segment,
    create_segment,
    destroy_segment,
    export_broadcast,
    import_broadcast,
)

from ..shm_guard import own_segments


def _read_labels_from_segment(blob, handle, points, conn):
    """Child-process body: attach read-only, predict, ship labels back."""
    shm = attach_segment(handle)
    try:
        model = import_broadcast(blob, handle, shm)
        conn.send(model.predict(points))
    finally:
        shm.close()
        conn.close()


class TestConcurrentShmReaders:
    def test_threaded_readers_are_bit_identical(
        self, fitted_state, query_points
    ):
        model = ClusterModel.from_state(fitted_state)
        offline = model.predict(query_points)
        blob, flats = export_broadcast(model)
        assert flats, "a ClusterModel must hoist its table into shm"
        handle, shm = create_segment(flats)
        try:
            attached = import_broadcast(blob, handle, shm)
            results = [None] * 8

            def reader(i):
                results[i] = attached.predict(query_points)

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            for labels in results:
                assert labels is not None
                np.testing.assert_array_equal(labels, offline)
        finally:
            destroy_segment(shm)
        assert own_segments() == []

    def test_multiprocess_readers_share_one_segment(
        self, fitted_state, query_points
    ):
        model = ClusterModel.from_state(fitted_state)
        offline = model.predict(query_points)
        blob, flats = export_broadcast(model)
        handle, shm = create_segment(flats)
        ctx = get_context("fork")
        try:
            assert len(own_segments()) == 1
            pipes, procs = [], []
            for _ in range(3):
                parent, child = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_read_labels_from_segment,
                    args=(blob, handle, query_points, child),
                )
                proc.start()
                child.close()
                pipes.append(parent)
                procs.append(proc)
            for parent in pipes:
                np.testing.assert_array_equal(parent.recv(), offline)
            for proc in procs:
                proc.join(timeout=30.0)
                assert proc.exitcode == 0
            # All readers attached the one existing segment: nothing new
            # was created in /dev/shm.
            assert len(own_segments()) == 1
        finally:
            destroy_segment(shm)
        assert own_segments() == []

    def test_mixed_readers_while_driver_predicts(
        self, fitted_state, query_points
    ):
        """Driver thread, local threads, and a child process all read the
        same resident model concurrently."""
        model = ClusterModel.from_state(fitted_state)
        offline = model.predict(query_points)
        blob, flats = export_broadcast(model)
        handle, shm = create_segment(flats)
        ctx = get_context("fork")
        try:
            attached = import_broadcast(blob, handle, shm)
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_read_labels_from_segment,
                args=(blob, handle, query_points, child),
            )
            proc.start()
            child.close()
            thread_out = []
            thread = threading.Thread(
                target=lambda: thread_out.append(
                    attached.predict(query_points)
                )
            )
            thread.start()
            driver_labels = attached.predict(query_points)
            thread.join(timeout=30.0)
            np.testing.assert_array_equal(driver_labels, offline)
            np.testing.assert_array_equal(thread_out[0], offline)
            np.testing.assert_array_equal(parent.recv(), offline)
            proc.join(timeout=30.0)
        finally:
            destroy_segment(shm)
        assert own_segments() == []
