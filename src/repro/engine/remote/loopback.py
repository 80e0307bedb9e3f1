"""Loopback harness: N real node agents on 127.0.0.1.

Spawns each agent as a genuine subprocess (``python -m repro.node``) on
an ephemeral port, parses the "listening" line for the bound address,
and yields the ``host:port`` list ready to hand to
``Engine("remote", nodes=...)``.  Real processes — not
threads — so node death, reconnects, and per-node shm segments behave
exactly as they would across machines, just without the network.

Teardown is defensive about chaos: killed agents (``node_crash``) skip
their own cleanup, so the harness terminates whatever still runs and
unlinks any ``/dev/shm`` segments left behind by agent pids — the
loopback stand-in for a crashed machine taking its shm with it.  Each
agent runs in its own session (process group), and teardown signals the
whole group: a SIGKILLed or wedged agent cannot orphan its forked pool
workers.
"""

from __future__ import annotations

import contextlib
import glob
import os
import signal
import subprocess
import sys
import time
from collections.abc import Iterator

__all__ = ["loopback_nodes"]

_LISTEN_PREFIX = "rp-dbscan node listening on "


def _src_root() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _cleanup_agent_segments(pids: list[int]) -> None:
    from repro.engine.shm import SHM_NAME_PREFIX

    for pid in pids:
        pattern = f"/dev/shm/{SHM_NAME_PREFIX}{pid:x}_*"
        for path in glob.glob(pattern):
            with contextlib.suppress(OSError):
                os.unlink(path)


@contextlib.contextmanager
def loopback_nodes(
    num_nodes: int = 2,
    workers: int = 2,
    *,
    broadcast_channel: str = "auto",
    heartbeat_interval_s: float = 0.2,
    startup_timeout_s: float = 30.0,
) -> Iterator[list[str]]:
    """Run ``num_nodes`` agents on 127.0.0.1; yields their addresses."""
    env = dict(os.environ)
    src = _src_root()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    procs: list[subprocess.Popen] = []
    addrs: list[str] = []
    try:
        for _ in range(num_nodes):
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.node",
                    "--listen", "127.0.0.1:0",
                    "--workers", str(workers),
                    "--broadcast", broadcast_channel,
                    "--heartbeat-interval", str(heartbeat_interval_s),
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                start_new_session=True,
            )
            procs.append(proc)
        deadline = time.monotonic() + startup_timeout_s
        for proc in procs:
            line = proc.stdout.readline()
            if not line.startswith(_LISTEN_PREFIX):
                raise RuntimeError(
                    f"node agent failed to start (pid {proc.pid}): {line!r}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("node agents took too long to start")
            addrs.append(line[len(_LISTEN_PREFIX):].split()[0])
        yield addrs
    finally:
        for proc in procs:
            if proc.poll() is None:
                with contextlib.suppress(OSError):
                    proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(OSError):
                    proc.kill()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=5.0)
            if proc.stdout is not None:
                proc.stdout.close()
            # The agent is its own session leader: sweep the whole group
            # so pool workers forked by a SIGKILLed agent don't linger.
            with contextlib.suppress(OSError, ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        _cleanup_agent_segments([proc.pid for proc in procs])
