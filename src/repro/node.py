"""``python -m repro.node`` — run one node agent of the distributed
substrate.

Quick start (one agent per machine, then point the driver at them)::

    # on each worker machine
    python -m repro.node --listen 0.0.0.0:7071 --workers 8

    # on the driver
    rp-dbscan cluster points.npy --engine remote \
        --nodes hostA:7071,hostB:7071 ...

The agent prints ``rp-dbscan node listening on HOST:PORT ...`` once the
socket is bound (with the resolved port when ``--listen host:0`` asked
for an ephemeral one — the loopback test harness keys on this line) and
serves until SIGTERM/SIGINT or a driver SHUTDOWN frame.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from repro.engine.remote.agent import NodeAgent
from repro.engine.remote.cluster import parse_node_addr


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.node",
        description="RP-DBSCAN node agent: local process pool + TCP frontend",
    )
    parser.add_argument(
        "--listen", required=True, metavar="HOST:PORT",
        help="bind address; PORT 0 picks an ephemeral port",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="local pool size (default: CPU count)",
    )
    parser.add_argument(
        "--broadcast", choices=("auto", "pickle", "shm"), default="auto",
        help="node-local broadcast channel for the worker fan-out",
    )
    parser.add_argument(
        "--start-method", choices=("fork", "spawn"), default=None,
        help="multiprocessing start method of the local pool",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        help="seconds between heartbeat frames to the driver",
    )
    return parser


async def _serve(agent: NodeAgent) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, agent.request_stop)

    def announce(ready_agent: NodeAgent) -> None:
        print(
            f"rp-dbscan node listening on "
            f"{ready_agent.host}:{ready_agent.bound_port} "
            f"workers={ready_agent.workers} pid={os.getpid()}",
            flush=True,
        )

    await agent.serve(ready=announce)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    host, port = parse_node_addr(args.listen)
    agent = NodeAgent(
        host,
        port,
        workers=args.workers,
        broadcast_channel=args.broadcast,
        start_method=args.start_method,
        heartbeat_interval_s=args.heartbeat_interval,
    )
    asyncio.run(_serve(agent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
