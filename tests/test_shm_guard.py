"""The shared-memory leak guard counts this process's segments only."""

import os
import secrets
from multiprocessing import shared_memory

import numpy as np

from repro.engine.shm import SHM_NAME_PREFIX, destroy_segment, pack_arrays

from .shm_guard import own_segments


def test_sees_a_segment_this_process_leaks():
    _, segment = pack_arrays([np.arange(4)])
    try:
        assert own_segments() == [f"/dev/shm/{segment.name}"]
    finally:
        destroy_segment(segment)
    assert own_segments() == []


def test_ignores_a_segment_named_for_another_process():
    name = f"{SHM_NAME_PREFIX}{os.getpid() + 1:x}_{secrets.token_hex(8)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=8)
    try:
        assert own_segments() == []
    finally:
        segment.close()
        segment.unlink()
