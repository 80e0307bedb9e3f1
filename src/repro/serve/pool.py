"""Predictor worker pool: N processes serving one shm-resident model.

The serving plane's compute substrate.  The driver exports the
:class:`~repro.core.prediction.ClusterModel` through the engine's
shared-memory broadcast path (:func:`repro.engine.shm.export_broadcast`
hoists the model's payload — a ``FlatCellDictionary`` — into one
segment) and every predictor worker attaches zero-copy: regardless of
the worker count, the core-point table exists once in physical memory.

Each worker is one process plus one driver-side proxy thread that owns
the worker's pipe.  Jobs (predict batches, model installs) flow through
a per-worker FIFO queue, which is what makes a model swap **atomic
under an epoch tag** without locking the hot path:

* the driver tags every batch with the epoch current at dispatch;
* an ``install`` is just another job, so per worker it strictly orders
  against batches — every batch enqueued before the install is answered
  by the old model, everything after by the new one;
* once *all* workers acked the install, no batch can ever touch the old
  epoch again (FIFO acks prove their queues drained past it), so the
  driver unlinks the old segment exactly then.

Worker death is absorbed, not fatal: the proxy respawns the process,
re-installs the current epoch, and only the in-flight job fails (the
server surfaces it as a per-request error).

Server death is final for every child: each forked child first closes
the server-side pipe ends it inherited (:func:`close_inherited_ends`),
so its own pipe reads EOF and it exits once the server is gone — also
when the server was killed without a chance to stop them.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any

import numpy as np

from repro.engine.shm import (
    attach_segment,
    create_segment,
    destroy_segment,
    export_broadcast,
    import_broadcast,
)

__all__ = ["PredictorPool", "InstallStats", "ServePoolError"]

#: Server-side ends of the pipes to this process's serving children
#: (predictor workers, the refit process).  A forked child inherits a
#: copy of every one, which would keep each pipe open after the server
#: dies.  Process-wide, as the descriptors a fork copies are: a child
#: forked for one server also holds the ends of any other server in the
#: process.
_SERVER_ENDS: set[Any] = set()


def server_pipe(ctx) -> tuple[Any, Any]:
    """A duplex pipe to a serving child: ``(server_end, child_end)``."""
    server_end, child_end = ctx.Pipe(duplex=True)
    _SERVER_ENDS.add(server_end)
    return server_end, child_end


def close_server_end(conn) -> None:
    """Close a server end made by :func:`server_pipe`."""
    _SERVER_ENDS.discard(conn)
    conn.close()


def close_inherited_ends() -> None:
    """Close, in a just-forked serving child, every server-side end the
    fork copied; only the server then holds them."""
    for conn in list(_SERVER_ENDS):
        conn.close()
    _SERVER_ENDS.clear()


class ServePoolError(RuntimeError):
    """The pool cannot serve (worker lost mid-job, pool closed)."""


@dataclass
class InstallStats:
    """The ledger of one model install fan-out."""

    #: Epoch tag the installed model serves under.
    epoch: int
    #: Wall seconds of the whole fan-out (export + segment + acks).
    seconds: float
    #: Slowest worker-side segment attach + model rebuild.
    attach_seconds: float
    #: Slowest worker-side JIT/candidate-table warm-up.
    warmup_seconds: float
    #: Bytes of the shared segment backing the model (0 = pickle path).
    segment_bytes: int
    #: Pickled shell size (everything not hoisted into the segment).
    payload_bytes: int
    #: Per-worker ``(pid, attach_seconds, warmup_seconds)`` rows.
    workers: list[tuple[int, float, float]] = field(default_factory=list)


def _worker_main(conn) -> None:
    """Predictor worker loop: install models, answer predict batches."""
    close_inherited_ends()
    model = None
    attachment = None
    epoch = -1
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        try:
            if kind == "install":
                _, new_epoch, channel, blob, handle = msg
                start = time.perf_counter()
                if channel == "shm":
                    shm = attach_segment(handle)
                    new_model = import_broadcast(blob, handle, shm)
                else:
                    import pickle

                    shm = None
                    new_model = pickle.loads(blob)
                attach_s = time.perf_counter() - start
                warm_s = new_model.warmup()
                previous = attachment
                model, attachment, epoch = new_model, shm, new_epoch
                if previous is not None:
                    try:
                        previous.close()
                    except Exception:
                        pass
                conn.send(("installed", epoch, os.getpid(), attach_s, warm_s))
            elif kind == "predict":
                _, batch_epoch, points = msg
                if model is None:
                    raise ServePoolError("no model installed")
                labels = model.predict(points)
                conn.send(("labels", epoch, labels))
            else:
                raise ServePoolError(f"unknown job kind {kind!r}")
        except Exception as exc:  # answer, don't die: one bad batch
            try:  # must not take the worker (or its queue) with it
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (OSError, BrokenPipeError):
                break
    try:
        conn.close()
    except Exception:
        pass


@dataclass
class _Job:
    message: tuple
    future: Future


class _WorkerProxy:
    """Driver-side thread owning one worker process and its pipe."""

    def __init__(self, pool: "PredictorPool", index: int) -> None:
        self._pool = pool
        self.index = index
        self.jobs: queue.Queue[_Job | None] = queue.Queue()
        self.pid: int | None = None
        self.respawns = 0
        self._spawn()
        self._thread = threading.Thread(
            target=self._loop, name=f"serve-worker-{index}", daemon=True
        )
        self._thread.start()

    def _spawn(self) -> None:
        ctx = self._pool._ctx
        self._conn, child = server_pipe(ctx)
        self._process = ctx.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        self._process.start()
        child.close()
        self.pid = self._process.pid

    def _roundtrip(self, message: tuple):
        self._conn.send(message)
        return self._conn.recv()

    def _respawn(self) -> None:
        """Replace a dead worker and re-equip it with the current model."""
        self.respawns += 1
        try:
            close_server_end(self._conn)
        except Exception:
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5.0)
        self._spawn()
        install = self._pool._current_install
        if install is not None:
            reply = self._roundtrip(install)
            if reply[0] != "installed":
                raise ServePoolError(
                    f"respawned worker refused the model: {reply}"
                )

    def _loop(self) -> None:
        while True:
            job = self.jobs.get()
            if job is None:
                try:
                    self._conn.send(("stop",))
                except Exception:
                    pass
                self._process.join(timeout=5.0)
                if self._process.is_alive():
                    self._process.terminate()
                    self._process.join(timeout=5.0)
                close_server_end(self._conn)
                return
            try:
                reply = self._roundtrip(job.message)
            except (EOFError, OSError, BrokenPipeError):
                # The worker died under this job: fail the job, heal the
                # worker so the next one lands on a live process.
                try:
                    self._respawn()
                    failure: Exception = ServePoolError(
                        f"predictor worker {self.index} lost mid-job "
                        "(respawned)"
                    )
                except Exception as exc:
                    failure = ServePoolError(
                        f"predictor worker {self.index} lost and respawn "
                        f"failed: {exc}"
                    )
                job.future.set_exception(failure)
                continue
            if reply[0] == "error":
                job.future.set_exception(ServePoolError(reply[1]))
            elif reply[0] == "installed":
                job.future.set_result(reply[1:])
            else:  # ("labels", epoch, labels)
                job.future.set_result((reply[1], reply[2]))


class PredictorPool:
    """N predictor processes sharing one shm-resident model.

    Parameters
    ----------
    num_workers:
        Predictor process count (>= 1).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` on POSIX
        (fast, and the workers only ever run this module's loop).
    """

    def __init__(
        self, num_workers: int = 1, *, start_method: str | None = None
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if start_method is None:
            start_method = "fork" if os.name == "posix" else "spawn"
        self._ctx = get_context(start_method)
        self.num_workers = int(num_workers)
        self._workers: list[_WorkerProxy] = []
        self._rr = itertools.count()
        self._epoch = 0
        self._segment = None
        self._current_install: tuple | None = None
        self._closed = False
        self._lock = threading.Lock()
        self._workers = [
            _WorkerProxy(self, i) for i in range(self.num_workers)
        ]

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epoch tag of the resident model (0 = nothing installed)."""
        return self._epoch

    @property
    def respawns(self) -> int:
        """Total worker respawns absorbed so far."""
        return sum(w.respawns for w in self._workers)

    def install(self, model) -> InstallStats:
        """Hoist ``model`` into shared memory and swap it in everywhere.

        Blocks until every worker acked the new epoch; the previous
        epoch's segment is unlinked exactly then (per-worker FIFO
        guarantees no in-flight batch still references it).
        """
        if self._closed:
            raise ServePoolError("pool is closed")
        start = time.perf_counter()
        blob, flats = export_broadcast(model)
        with self._lock:
            epoch = self._epoch + 1
            if flats:
                handle, shm = create_segment(flats)
                channel, segment_bytes = "shm", shm.size
            else:
                handle, shm = None, None
                channel, segment_bytes = "pickle", 0
            message = ("install", epoch, channel, blob, handle)
            futures = [self._submit(w, message) for w in self._workers]
            rows = []
            try:
                for future in futures:
                    _, pid, attach_s, warm_s = future.result(timeout=120.0)
                    rows.append((pid, attach_s, warm_s))
            except Exception:
                if shm is not None:
                    destroy_segment(shm)
                raise
            previous = self._segment
            self._segment = shm
            self._current_install = message
            self._epoch = epoch
        if previous is not None:
            destroy_segment(previous)
        return InstallStats(
            epoch=epoch,
            seconds=time.perf_counter() - start,
            attach_seconds=max((r[1] for r in rows), default=0.0),
            warmup_seconds=max((r[2] for r in rows), default=0.0),
            segment_bytes=segment_bytes,
            payload_bytes=len(blob),
            workers=rows,
        )

    # ------------------------------------------------------------------
    # Predict dispatch
    # ------------------------------------------------------------------

    def _submit(self, worker: _WorkerProxy, message: tuple) -> Future:
        future: Future = Future()
        worker.jobs.put(_Job(message, future))
        return future

    def submit_predict(self, points: np.ndarray) -> Future:
        """Queue one fused batch; resolves to ``(epoch, labels)``."""
        if self._closed:
            raise ServePoolError("pool is closed")
        if self._current_install is None:
            raise ServePoolError("no model installed")
        worker = self._workers[next(self._rr) % len(self._workers)]
        return self._submit(worker, ("predict", self._epoch, points))

    def predict(self, points: np.ndarray) -> tuple[int, np.ndarray]:
        """Blocking convenience wrapper around :meth:`submit_predict`."""
        return self.submit_predict(points).result()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker and unlink the resident segment."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.jobs.put(None)
        for worker in self._workers:
            worker._thread.join(timeout=10.0)
        if self._segment is not None:
            destroy_segment(self._segment)
            self._segment = None

    def __enter__(self) -> "PredictorPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
