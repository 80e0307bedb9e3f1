"""Serving plane: high-throughput online prediction over a resident model.

The deployment answer to "the fit is done — now answer queries": an
asyncio TCP front end (:class:`~repro.serve.server.PredictServer`)
holding one :class:`~repro.core.prediction.ClusterModel` resident in
shared memory, micro-batching concurrent requests
(:class:`~repro.serve.batcher.MicroBatcher`) into fused columnar
dispatches against a pool of predictor processes
(:class:`~repro.serve.pool.PredictorPool`) that attach the model
zero-copy.  ``ingest`` refits in a process of its own and swaps the
resident model atomically under an epoch tag while predicts keep
flowing.

Entry points: ``python -m repro.serve`` / ``rp-dbscan serve`` for the
daemon, :class:`~repro.serve.client.ServeClient` for callers, and
:func:`~repro.serve.server.running_server` for in-process harnesses.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.client import RequestRejected, ServeClient, ServeProtocolError
from repro.serve.pool import InstallStats, PredictorPool, ServePoolError
from repro.serve.server import PredictServer, ServeConfig, running_server

__all__ = [
    "MicroBatcher",
    "PredictorPool",
    "InstallStats",
    "ServePoolError",
    "PredictServer",
    "ServeConfig",
    "running_server",
    "ServeClient",
    "RequestRejected",
    "ServeProtocolError",
]
