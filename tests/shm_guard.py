"""Leak guard for the shared-memory segments a test process creates.

Segment names carry the creating process's pid in hex
(``rpdbscan_<pid>_<token>``, see :mod:`repro.engine.shm`).  Keying the
guard on this process's pid lets a suite assert that *it* leaked
nothing while another process on the machine (a predict server, a
benchmark run) holds segments of its own.
"""

import glob
import os

from repro.engine.shm import SHM_NAME_PREFIX


def own_segments() -> list[str]:
    """Paths of the live segments this process created."""
    return sorted(glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}{os.getpid():x}_*"))
