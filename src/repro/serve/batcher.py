"""Asyncio micro-batching: many small requests, one columnar dispatch.

The inference-serving lever the ROADMAP's item 4b names: per-request
overhead (frame decode, future wiring, a worker pipe round trip) is
fixed, so answering each request alone caps throughput at
``1 / overhead`` no matter how fast the kernel is.  The
:class:`MicroBatcher` instead lets requests that arrive while the
predictor workers are busy gather, and dispatches them as **one** fused
``(sum(m_i), d)`` batch; the per-request cost of everything downstream
of the gather is divided by the batch size.  Scatter-back is
positional: request ``i`` contributed rows ``[o_i, o_i + m_i)`` of the
fused batch and gets exactly those label rows back.

Dispatch policy (in-flight depth, no timer):

* a request dispatches **at once** while fewer than ``depth`` batches
  are in flight — an idle server never holds a request back;
* otherwise it joins the accumulator, and the next batch completion
  flushes the whole accumulator as one fused batch — batches grow
  exactly as large as the load makes them;
* reaching ``max_batch`` fused points flushes at once, whatever the
  depth — a burst never builds an unboundedly large batch;
* ``max_batch == 1`` degenerates to request-at-a-time dispatch (the
  baseline the serving bench measures against).

The server sets ``depth`` to :data:`BATCHES_PER_WORKER` per predictor
worker: one batch computing while the next waits in the worker's FIFO,
so a worker never idles between batches and nothing queues behind more
than one batch.

Backpressure is the caller's: the batcher exposes ``pending_requests``
(submitted, not yet answered) and the server refuses new work above its
admission bound instead of queueing unbounded latency.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

import numpy as np

__all__ = ["BATCHES_PER_WORKER", "MicroBatcher"]

#: ``dispatch`` signature: fused ``(m, d)`` points -> (epoch, labels).
DispatchFn = Callable[[np.ndarray], Awaitable[tuple[int, np.ndarray]]]

#: Batches in flight per predictor worker: one computing, one queued.
BATCHES_PER_WORKER = 2


class MicroBatcher:
    """Gather concurrent predict requests into fused dispatches.

    Parameters
    ----------
    dispatch:
        Async callable answering one fused batch with
        ``(epoch, labels)``; typically a wrapper around
        :meth:`repro.serve.pool.PredictorPool.submit_predict`.
    depth:
        Batches in flight below which a request dispatches at once;
        beyond it, requests gather until a batch completes.
    max_batch:
        Fused-point cap; reaching it flushes at once, whatever the
        depth.  A single request larger than the cap still dispatches
        (alone) — the batcher never splits one request.
    on_batch:
        Optional hook ``(n_requests, n_points)`` per dispatch, for the
        batch-size distribution metrics.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        *,
        depth: int = BATCHES_PER_WORKER,
        max_batch: int = 256,
        on_batch: Callable[[int, int], None] | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._dispatch = dispatch
        self.depth = int(depth)
        self.max_batch = int(max_batch)
        self._on_batch = on_batch
        self._items: list[tuple[np.ndarray, asyncio.Future]] = []
        self._pending_points = 0
        self._pending_requests = 0
        #: Dispatched batches not yet answered (held, so none is lost).
        self._tasks: set[asyncio.Task] = set()
        self.batches_dispatched = 0

    @property
    def pending_requests(self) -> int:
        """Requests submitted and not yet answered (admission signal)."""
        return self._pending_requests

    @property
    def accumulating_points(self) -> int:
        """Points gathered and not yet dispatched."""
        return self._pending_points

    async def submit(self, points: np.ndarray) -> tuple[int, np.ndarray]:
        """Queue one request; resolves to ``(epoch, labels)`` for it."""
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (m, d) block")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._items.append((points, future))
        self._pending_points += points.shape[0]
        self._pending_requests += 1
        try:
            if (
                len(self._tasks) < self.depth
                or self._pending_points >= self.max_batch
            ):
                self._flush()
            return await future
        finally:
            self._pending_requests -= 1

    def _flush(self) -> None:
        """Move the accumulator into one dispatched batch task."""
        if not self._items:
            return
        items, self._items = self._items, []
        self._pending_points = 0
        self.batches_dispatched += 1
        if self._on_batch is not None:
            # A metrics hook must never wedge a batch: _flush also runs
            # as a batch task ends, where an escaping exception would
            # leave every gathered future unresolved.
            try:
                self._on_batch(
                    len(items), sum(points.shape[0] for points, _ in items)
                )
            except Exception:
                pass
        task = asyncio.get_running_loop().create_task(self._run_batch(items))
        self._tasks.add(task)

    async def _run_batch(
        self, items: list[tuple[np.ndarray, asyncio.Future]]
    ) -> None:
        blocks = [points for points, _ in items]
        fused = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        try:
            epoch, labels = await self._dispatch(fused)
        except Exception as exc:
            for _, future in items:
                if not future.done():
                    future.set_exception(exc)
        else:
            offset = 0
            for points, future in items:
                m = points.shape[0]
                if not future.done():
                    future.set_result((epoch, labels[offset : offset + m]))
                offset += m
        finally:
            # This batch's slot is free: what gathered meanwhile goes
            # out now, as one batch.
            self._tasks.discard(asyncio.current_task())
            if len(self._tasks) < self.depth:
                self._flush()

    async def drain(self) -> None:
        """Wait until every in-flight batch, and every request gathered
        behind them, is answered (requests gather only while a batch is
        in flight, and its completion dispatches them)."""
        while self._tasks:
            await asyncio.wait(set(self._tasks))
