"""MicroBatcher semantics: depth dispatch, fusion, scatter-back, failure."""

import asyncio

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher


class RecordingDispatch:
    """A dispatch stub that records fused batches and answers row sums."""

    def __init__(self, *, epoch: int = 1, delay_s: float = 0.0):
        self.batches: list[np.ndarray] = []
        self.epoch = epoch
        self.delay_s = delay_s

    async def __call__(self, fused):
        self.batches.append(np.array(fused))
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        return self.epoch, fused.sum(axis=1).astype(np.int64)


class GatedDispatch(RecordingDispatch):
    """A dispatch stub whose batches block until the test opens the gate.

    Records how many batches were in flight at once, so a test can hold
    the depth saturated and then release it.
    """

    def __init__(self, *, fail: bool = False):
        super().__init__()
        self.gate: asyncio.Event | None = None
        self.fail = fail
        self.in_flight = 0
        self.max_in_flight = 0

    async def __call__(self, fused):
        if self.gate is None:
            self.gate = asyncio.Event()
        self.batches.append(np.array(fused))
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            await self.gate.wait()
        finally:
            self.in_flight -= 1
        if self.fail:
            raise RuntimeError("kernel exploded")
        return self.epoch, fused.sum(axis=1).astype(np.int64)

    def release(self) -> None:
        self.gate.set()


async def _settle():
    """Let every ready task run until it blocks again."""
    for _ in range(5):
        await asyncio.sleep(0)


def _run(body):
    """Run one test body; a policy that strands a request fails the test
    instead of hanging it."""
    return asyncio.run(asyncio.wait_for(body, 10.0))


def _block(values):
    """One (m, 1) request block from a list of scalars."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


class TestFusionAndScatter:
    def test_lone_request_dispatches_without_a_timer(self):
        dispatch = RecordingDispatch()

        async def go():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("the batcher armed a timer")

            loop.call_later = loop.call_at = no_timer
            try:
                batcher = MicroBatcher(dispatch, depth=2, max_batch=1024)
                return await batcher.submit(_block([7]))
            finally:
                del loop.call_later, loop.call_at

        epoch, labels = _run(go())
        assert epoch == 1
        np.testing.assert_array_equal(labels, [7])
        assert len(dispatch.batches) == 1

    def test_concurrent_requests_fuse_into_one_dispatch(self):
        # Depth 1 held by a blocked batch: the requests behind it fuse
        # into one batch the moment it completes.
        dispatch = GatedDispatch()

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=1024)
            first = asyncio.ensure_future(batcher.submit(_block([9])))
            await _settle()
            rest = [
                asyncio.ensure_future(batcher.submit(_block(values)))
                for values in ([1, 2], [3], [4, 5, 6])
            ]
            await _settle()
            assert len(dispatch.batches) == 1  # only the first went out
            assert batcher.accumulating_points == 6
            dispatch.release()
            return await first, await asyncio.gather(*rest)

        first, results = _run(go())
        assert len(dispatch.batches) == 2
        assert dispatch.batches[1].shape == (6, 1)
        np.testing.assert_array_equal(first[1], [9])
        # Scatter-back is positional: each request gets exactly its rows.
        np.testing.assert_array_equal(results[0][1], [1, 2])
        np.testing.assert_array_equal(results[1][1], [3])
        np.testing.assert_array_equal(results[2][1], [4, 5, 6])
        assert all(epoch == 1 for epoch, _ in results)

    def test_sequential_requests_each_dispatch_alone(self):
        dispatch = RecordingDispatch()

        async def go():
            batcher = MicroBatcher(dispatch, depth=2, max_batch=1024)
            for v in ([1], [2], [3]):
                await batcher.submit(_block(v))

        _run(go())
        assert len(dispatch.batches) == 3

    def test_labels_bit_identical_through_fusion(self):
        """Fused dispatch must answer exactly what per-request would."""
        dispatch = GatedDispatch()
        rng = np.random.default_rng(5)
        blocks = [rng.normal(size=(m, 3)) for m in (1, 4, 2, 7)]

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=4096)
            tasks = [asyncio.ensure_future(batcher.submit(b)) for b in blocks]
            await _settle()
            dispatch.release()
            return await asyncio.gather(*tasks)

        results = _run(go())
        assert [b.shape[0] for b in dispatch.batches] == [1, 13]
        for block, (_, labels) in zip(blocks, results):
            np.testing.assert_array_equal(
                labels, block.sum(axis=1).astype(np.int64)
            )


class TestFlushPolicy:
    def test_in_flight_batches_never_exceed_the_depth(self):
        dispatch = RecordingDispatch()
        busy = {"now": 0, "max": 0}

        async def slow(fused):
            busy["now"] += 1
            busy["max"] = max(busy["max"], busy["now"])
            try:
                await asyncio.sleep(0.002)
                return await dispatch(fused)
            finally:
                busy["now"] -= 1

        async def client(batcher, seed):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                await batcher.submit(_block([seed]))
                await asyncio.sleep(float(rng.uniform(0, 0.002)))

        async def go():
            batcher = MicroBatcher(slow, depth=3, max_batch=4096)
            await asyncio.gather(*(client(batcher, s) for s in range(12)))
            return batcher

        batcher = _run(go())
        assert busy["max"] == 3
        # Twelve clients on three slots: requests had to fuse.
        assert batcher.batches_dispatched < 12 * 20

    def test_max_batch_flushes_without_waiting(self):
        # The depth is saturated, yet the size cap flushes at once.
        dispatch = GatedDispatch()

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=4)
            tasks = [asyncio.ensure_future(batcher.submit(_block([0])))]
            await _settle()
            tasks += [
                asyncio.ensure_future(batcher.submit(_block(values)))
                for values in ([1, 2], [3, 4])
            ]
            await _settle()
            sizes = [b.shape[0] for b in dispatch.batches]
            dispatch.release()
            await asyncio.gather(*tasks)
            return sizes

        assert _run(go()) == [1, 4]
        assert dispatch.max_in_flight == 2

    def test_max_batch_one_is_request_at_a_time(self):
        dispatch = GatedDispatch()

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=1)
            tasks = [
                asyncio.ensure_future(batcher.submit(_block([v])))
                for v in (1, 2, 3)
            ]
            await _settle()
            dispatch.release()
            await asyncio.gather(*tasks)

        _run(go())
        assert [b.shape[0] for b in dispatch.batches] == [1, 1, 1]

    def test_oversized_single_request_dispatches_unsplit(self):
        dispatch = RecordingDispatch()

        async def go():
            batcher = MicroBatcher(dispatch, depth=2, max_batch=4)
            _, labels = await batcher.submit(_block(range(32)))
            return labels

        labels = _run(go())
        assert labels.shape == (32,)
        assert len(dispatch.batches) == 1

    def test_on_batch_hook_sees_request_and_point_counts(self):
        seen = []
        dispatch = GatedDispatch()

        async def go():
            batcher = MicroBatcher(
                dispatch,
                depth=1,
                max_batch=1024,
                on_batch=lambda reqs, pts: seen.append((reqs, pts)),
            )
            tasks = [
                asyncio.ensure_future(batcher.submit(_block(values)))
                for values in ([0], [1, 2], [3])
            ]
            await _settle()
            dispatch.release()
            await asyncio.gather(*tasks)

        _run(go())
        assert seen == [(1, 1), (2, 3)]

    def test_invalid_parameters_rejected(self):
        dispatch = RecordingDispatch()
        with pytest.raises(ValueError):
            MicroBatcher(dispatch, depth=0)
        with pytest.raises(ValueError):
            MicroBatcher(dispatch, max_batch=0)

    def test_empty_request_rejected(self):
        async def go():
            batcher = MicroBatcher(RecordingDispatch())
            await batcher.submit(np.empty((0, 2)))

        with pytest.raises(ValueError):
            _run(go())


class TestFailureAndAccounting:
    def test_dispatch_failure_fails_every_request_of_the_batch(self):
        dispatch = GatedDispatch(fail=True)

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=1024)
            tasks = [
                asyncio.ensure_future(batcher.submit(_block([v])))
                for v in (1, 2, 3)
            ]
            await _settle()
            dispatch.release()
            return await asyncio.gather(*tasks, return_exceptions=True)

        results = _run(go())
        assert [b.shape[0] for b in dispatch.batches] == [1, 2]
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_failed_dispatch_frees_its_slot(self):
        calls = []

        async def fail_first(fused):
            calls.append(fused.shape[0])
            if len(calls) == 1:
                raise RuntimeError("kernel exploded")
            return 1, fused.sum(axis=1).astype(np.int64)

        async def go():
            batcher = MicroBatcher(fail_first, depth=1, max_batch=1024)
            with pytest.raises(RuntimeError):
                await batcher.submit(_block([1]))
            later = [
                await asyncio.wait_for(batcher.submit(_block([v])), 5.0)
                for v in (2, 3)
            ]
            return later, batcher.pending_requests

        later, pending = _run(go())
        assert [labels.tolist() for _, labels in later] == [[2], [3]]
        assert calls == [1, 1, 1]
        assert pending == 0

    def test_pending_requests_tracks_in_flight_work(self):
        dispatch = RecordingDispatch(delay_s=0.02)

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=1024)
            tasks = [
                asyncio.ensure_future(batcher.submit(_block([i])))
                for i in range(3)
            ]
            await asyncio.sleep(0.005)
            mid_flight = batcher.pending_requests
            await asyncio.gather(*tasks)
            return mid_flight, batcher.pending_requests

        mid_flight, after = _run(go())
        assert mid_flight == 3
        assert after == 0

    def test_drain_completes_everything(self):
        dispatch = GatedDispatch()

        async def go():
            batcher = MicroBatcher(dispatch, depth=1, max_batch=1024)
            tasks = [
                asyncio.ensure_future(batcher.submit(_block([i])))
                for i in range(4)
            ]
            await _settle()  # one batch in flight, three gathered
            drain = asyncio.ensure_future(batcher.drain())
            await _settle()
            assert not drain.done()  # the gate still holds the batch
            dispatch.release()
            await asyncio.wait_for(drain, 5.0)
            # Every batch task is done: each request holds its answer.
            assert batcher.accumulating_points == 0
            results = await asyncio.gather(*tasks)
            return results, batcher.batches_dispatched

        results, batches = _run(go())
        assert [labels.tolist() for _, labels in results] == [[0], [1], [2], [3]]
        assert batches == 2
