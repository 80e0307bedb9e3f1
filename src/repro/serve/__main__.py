"""``python -m repro.serve`` — run a predict server as a daemon.

Loads an RPST model file (``rp-dbscan fit --save-model`` /
:func:`repro.core.serialization.save_cluster_state`), hoists it into
shared memory, and serves predict/ingest/stats traffic until
``MSG_SHUTDOWN`` or SIGINT/SIGTERM.  Prints one machine-readable ready
line to stdout once the socket is bound::

    RPDBSCAN-SERVE READY host=127.0.0.1 port=40123 epoch=1 workers=2

so wrappers (the load bench, CI) can wait for it and parse the resolved
port when started with ``--port 0``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.core.serialization import load_cluster_state
from repro.kernels import KernelUnavailableError
from repro.obs.report import render_serving_report
from repro.serve.server import PredictServer, ServeConfig

__all__ = ["main", "build_parser", "add_serve_arguments", "run_from_args"]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serving options (shared with ``rp-dbscan serve``)."""
    parser.add_argument(
        "--model", required=True, help="RPST model file (cluster --save-model)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an OS-assigned port"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="predictor worker processes attaching the shm model",
    )
    parser.add_argument(
        "--max-batch", type=int, default=256,
        help="fused-point cap per dispatch (1 = no batching)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=1024,
        help="admission bound: reject beyond this many in-flight requests",
    )
    parser.add_argument(
        "--kernel", default="auto", choices=("auto", "numpy", "numba"),
        help="distance backend for the resident model",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the serving ledger on shutdown",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve cluster-membership predictions from a saved "
        "RPST model over TCP with micro-batching.",
    )
    add_serve_arguments(parser)
    return parser


async def _run(args: argparse.Namespace) -> PredictServer:
    state = load_cluster_state(args.model)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
        max_pending=args.max_queue,
        kernel=args.kernel,
    )
    server = PredictServer(state, config)
    await server.start()
    print(
        f"RPDBSCAN-SERVE READY host={server.host} port={server.port} "
        f"epoch={server.epoch} workers={config.workers}",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(
                sig, lambda: loop.create_task(server.stop())
            )
    await server.serve_until_stopped()
    return server


def run_from_args(args: argparse.Namespace) -> int:
    """Run a server to completion from parsed serving options."""
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        server = asyncio.run(_run(args))
    except (ValueError, OSError, KernelUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        print(render_serving_report(server.registry.snapshot()))
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
