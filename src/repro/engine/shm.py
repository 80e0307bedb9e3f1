"""Zero-copy broadcast of columnar dictionaries via shared memory.

The flat cell dictionary is six contiguous numpy arrays; pickling it
copies every byte into the pipe of every worker.  This module instead
packs those arrays once into one ``multiprocessing.shared_memory``
segment and pickles only a small :class:`ShmSegmentHandle` descriptor —
workers attach the segment and rebuild read-only array views over it,
so the dictionary crosses the process boundary exactly once regardless
of the worker count.

The mechanism is transparent to the broadcast *value*: a custom pickler
(:func:`export_broadcast`) walks the object graph and swaps every
:class:`~repro.core.dictionary.FlatCellDictionary` it meets — no matter
how deeply nested inside ``QueryContext``/tuples —
for a persistent-id reference into the segment; the worker-side
unpickler (:func:`import_broadcast`) resolves those references to the
attached views.  A broadcast containing no flat dictionary exports to a
plain pickle stream (loadable with ``pickle.loads``), which is how the
engine's ``auto`` channel decides between ``shm`` and ``pickle``.

Segment lifecycle is owned by the driver: it creates and ultimately
unlinks every segment (:func:`destroy_segment`); workers only ever map
and unmap (:func:`attach_segment`).  Segment names carry the
:data:`SHM_NAME_PREFIX` so tests can scan ``/dev/shm`` for leaks.

Besides the monolithic flat-dictionary segment, the module packs
*sharded* dictionaries (:mod:`repro.core.sharding`) into a
multi-segment layout: one root segment (always attached) plus one
segment per leaf shard, attached and evicted on demand by the worker's
:class:`SegmentShardStore` under the broadcast budget — the partial
broadcast data plane.
"""

from __future__ import annotations

import io
import os
import pickle
import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Sequence

import numpy as np

from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.core.sharding import PartialFlatDictionary, ShardedFlatDictionary

__all__ = [
    "ARRAY_FIELDS",
    "ROOT_ARRAY_FIELDS",
    "SHARD_ARRAY_FIELDS",
    "SHM_NAME_PREFIX",
    "ShmSegmentHandle",
    "ShmArraysHandle",
    "ShardedDictionaryHandle",
    "ShardedAttachment",
    "SegmentShardStore",
    "build_partial_dictionary",
    "export_broadcast",
    "export_broadcast_parts",
    "create_segment",
    "create_sharded_segments",
    "attach_segment",
    "attach_arrays",
    "import_broadcast",
    "import_broadcast_parts",
    "destroy_segment",
]

#: The columnar arrays shipped per flat dictionary, in segment order.
ARRAY_FIELDS = (
    "cell_ids",
    "cell_counts",
    "offsets",
    "sub_coords",
    "sub_counts",
    "sub_centers",
)

#: Root arrays of a sharded dictionary, in root-segment order — matches
#: the positional signature of
#: :class:`~repro.core.sharding.PartialFlatDictionary`.
ROOT_ARRAY_FIELDS = (
    "cell_ids",
    "cell_counts",
    "offsets",
    "shard_owner",
    "local_starts",
    "shard_box_lo",
    "shard_box_hi",
)

#: Leaf arrays of one shard, in shard-segment order.
SHARD_ARRAY_FIELDS = ("sub_centers", "sub_counts")

#: Prefix of every segment name this module creates (leak scans key on it).
SHM_NAME_PREFIX = "rpdbscan_"

#: Byte alignment of each array inside the segment.
_ALIGN = 64

_PID_TAG = "rpdbscan-flat"
_PID_TAG_SHARDED = "rpdbscan-sharded"


@dataclass(frozen=True)
class ShmSegmentHandle:
    """Driver→worker descriptor of one shared-memory broadcast segment.

    Attributes
    ----------
    name:
        The OS-level segment name (``/dev/shm/<name>`` on Linux).
    size:
        Segment size in bytes.
    flats:
        Per flat dictionary: its geometry plus, for each of
        :data:`ARRAY_FIELDS`, the ``(offset, dtype, shape)`` of the
        array inside the segment.
    """

    name: str
    size: int
    flats: tuple[tuple[CellGeometry, tuple[tuple[int, str, tuple[int, ...]], ...]], ...]


@dataclass(frozen=True)
class ShmArraysHandle:
    """Descriptor of one segment holding a fixed sequence of arrays.

    Attributes
    ----------
    name:
        The OS-level segment name.
    size:
        Segment size in bytes.
    fields:
        ``(offset, dtype, shape)`` per array, in pack order.
    """

    name: str
    size: int
    fields: tuple[tuple[int, str, tuple[int, ...]], ...]

    @property
    def payload_bytes(self) -> int:
        """Unaligned sum of the packed arrays' sizes."""
        total = 0
        for _, dtype, shape in self.fields:
            total += int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
        return total


@dataclass(frozen=True)
class ShardedDictionaryHandle:
    """Driver→worker descriptor of one sharded dictionary broadcast.

    The root segment is attached eagerly on install; shard segments are
    attached lazily by the worker's :class:`SegmentShardStore` under
    ``budget_bytes``.
    """

    geometry: CellGeometry
    budget_bytes: int | None
    root: ShmArraysHandle
    shards: tuple[ShmArraysHandle, ...]

    @property
    def shard_payload_bytes(self) -> int:
        """Total leaf bytes across all shard segments."""
        return sum(shard.payload_bytes for shard in self.shards)


class _ExportPickler(pickle.Pickler):
    """Pickler hoisting flat and sharded dictionaries out of the stream."""

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.flats: list[FlatCellDictionary] = []
        self.sharded: list[ShardedFlatDictionary] = []
        self._seen: dict[int, tuple[str, int]] = {}

    def persistent_id(self, obj: Any):  # noqa: D102 (pickle hook)
        known = self._seen.get(id(obj))
        if known is not None:
            return known
        if isinstance(obj, FlatCellDictionary):
            pid = (_PID_TAG, len(self.flats))
            self.flats.append(obj)
        elif isinstance(obj, ShardedFlatDictionary):
            pid = (_PID_TAG_SHARDED, len(self.sharded))
            self.sharded.append(obj)
        else:
            return None
        self._seen[id(obj)] = pid
        return pid


class _ImportUnpickler(pickle.Unpickler):
    """Unpickler resolving hoisted-dictionary references to attachments."""

    def __init__(
        self,
        file: io.BytesIO,
        flats: list[FlatCellDictionary],
        partials: list[PartialFlatDictionary] | None = None,
    ) -> None:
        super().__init__(file)
        self._flats = flats
        self._partials = partials or []

    def persistent_load(self, pid: Any) -> Any:  # noqa: D102 (pickle hook)
        tag, index = pid
        if tag == _PID_TAG:
            return self._flats[index]
        if tag == _PID_TAG_SHARDED and index < len(self._partials):
            return self._partials[index]
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def export_broadcast_parts(
    value: Any,
) -> tuple[bytes, list[FlatCellDictionary], list[ShardedFlatDictionary]]:
    """Pickle ``value`` with every dictionary pulled out by reference.

    Returns ``(blob, flats, sharded)``.  With both lists empty, ``blob``
    is an ordinary pickle stream (no persistent ids), loadable by
    ``pickle.loads`` — the caller can ship it over the plain channel.
    """
    buffer = io.BytesIO()
    pickler = _ExportPickler(buffer)
    pickler.dump(value)
    return buffer.getvalue(), pickler.flats, pickler.sharded


def export_broadcast(value: Any) -> tuple[bytes, list[FlatCellDictionary]]:
    """:func:`export_broadcast_parts` for values without sharded payloads."""
    blob, flats, sharded = export_broadcast_parts(value)
    if sharded:
        raise ValueError(
            "broadcast contains a sharded dictionary; use export_broadcast_parts"
        )
    return blob, flats


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def create_segment(
    flats: list[FlatCellDictionary],
) -> tuple[ShmSegmentHandle, shared_memory.SharedMemory]:
    """Pack the arrays of ``flats`` into one new shared-memory segment.

    The caller (the engine driver) owns the returned segment and must
    eventually :func:`destroy_segment` it; the handle is what gets
    pickled to workers.
    """
    layouts = []
    offset = 0
    for flat in flats:
        fields = []
        for name in ARRAY_FIELDS:
            array = getattr(flat, name)
            offset = _aligned(offset)
            fields.append((offset, array.dtype.str, array.shape))
            offset += array.nbytes
        layouts.append((flat.geometry, tuple(fields)))
    name = f"{SHM_NAME_PREFIX}{os.getpid():x}_{secrets.token_hex(8)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
    for flat, (_, fields) in zip(flats, layouts, strict=True):
        for field_name, (field_offset, dtype, shape) in zip(
            ARRAY_FIELDS, fields, strict=True
        ):
            array = getattr(flat, field_name)
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=field_offset
            )
            view[...] = array
    handle = ShmSegmentHandle(name=shm.name, size=shm.size, flats=tuple(layouts))
    return handle, shm


#: Serializes installs/removals of the resource-tracker patch below.
_TRACKER_PATCH_LOCK = threading.Lock()
_tracker_patch_depth = 0
_tracker_original = None


@contextmanager
def _suppressed_tracker_registration():
    """Temporarily suppress shared-memory resource-tracker registration.

    Reentrant and thread-safe: the patch is installed by the first
    entering thread and removed only when the last one leaves, so
    concurrent attaches (exactly what the shard LRU cache does) can
    never restore the original out of order — the bug this guards
    against would either leak the suppression permanently or drop a
    legitimate registration racing the window.
    """
    global _tracker_patch_depth, _tracker_original
    from multiprocessing import resource_tracker

    with _TRACKER_PATCH_LOCK:
        if _tracker_patch_depth == 0:
            original = resource_tracker.register
            _tracker_original = original

            def _skip_shared_memory(name: str, rtype: str) -> None:
                if rtype != "shared_memory":
                    original(name, rtype)

            resource_tracker.register = _skip_shared_memory
        _tracker_patch_depth += 1
    try:
        yield
    finally:
        with _TRACKER_PATCH_LOCK:
            _tracker_patch_depth -= 1
            if _tracker_patch_depth == 0:
                resource_tracker.register = _tracker_original
                _tracker_original = None


def _attach_raw(name: str) -> shared_memory.SharedMemory:
    """Attach-only map of an existing segment; never unlinks.

    Python 3.13 grew ``SharedMemory(track=False)`` for exactly this
    attach-only case; on older interpreters the resource tracker would
    otherwise adopt the segment and unlink it when the *worker* exits,
    racing the driver and spamming leak warnings (bpo-39959) — so the
    fallback suppresses (rather than undoes) the registration: with
    forked workers the tracker process is shared with the driver, and an
    unregister message from a worker would evict the *driver's* claim,
    making its later unlink-time unregister a tracker-side KeyError.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    with _suppressed_tracker_registration():
        return shared_memory.SharedMemory(name=name)


def attach_segment(handle: ShmSegmentHandle) -> shared_memory.SharedMemory:
    """Worker-side attach of a flat-dictionary segment."""
    return _attach_raw(handle.name)


def pack_arrays(
    arrays: Sequence[np.ndarray],
) -> tuple[ShmArraysHandle, shared_memory.SharedMemory]:
    """Pack an array sequence into one new shared-memory segment.

    The caller owns the returned segment (:func:`destroy_segment`); the
    handle is what crosses the process boundary.
    """
    fields = []
    offset = 0
    for array in arrays:
        offset = _aligned(offset)
        fields.append((offset, array.dtype.str, array.shape))
        offset += array.nbytes
    name = f"{SHM_NAME_PREFIX}{os.getpid():x}_{secrets.token_hex(8)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(offset, 1))
    for array, (field_offset, dtype, shape) in zip(arrays, fields, strict=True):
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=field_offset
        )
        view[...] = array
    handle = ShmArraysHandle(name=shm.name, size=shm.size, fields=tuple(fields))
    return handle, shm


def attach_arrays(
    handle: ShmArraysHandle,
) -> tuple[list[np.ndarray], shared_memory.SharedMemory]:
    """Worker-side attach returning read-only views of the packed arrays."""
    shm = _attach_raw(handle.name)
    views = []
    for offset, dtype, shape in handle.fields:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views.append(view)
    return views, shm


def import_broadcast(
    blob: bytes, handle: ShmSegmentHandle, shm: shared_memory.SharedMemory
) -> Any:
    """Rebuild the broadcast value around zero-copy views of ``shm``.

    The reconstructed flat dictionaries alias the segment's memory with
    ``writeable=False`` views — the broadcast contract is read-only, and
    a stray write would otherwise silently corrupt every sibling worker.
    """
    flats = []
    for geometry, fields in handle.flats:
        arrays = []
        for offset, dtype, shape in fields:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            view.flags.writeable = False
            arrays.append(view)
        flats.append(FlatCellDictionary(geometry, *arrays, validate=False))
    return _ImportUnpickler(io.BytesIO(blob), flats).load()


def create_sharded_segments(
    sharded: ShardedFlatDictionary,
) -> tuple[ShardedDictionaryHandle, list[shared_memory.SharedMemory]]:
    """Pack a sharded dictionary into a root segment + one per shard.

    All-or-nothing: if any segment creation fails partway, every
    already-created segment is destroyed before the error propagates —
    the driver can never leak half a broadcast.
    """
    created: list[shared_memory.SharedMemory] = []
    try:
        root_arrays = sharded.export_root_arrays()
        root_handle, root_shm = pack_arrays(
            [root_arrays[name] for name in ROOT_ARRAY_FIELDS]
        )
        created.append(root_shm)
        shard_handles = []
        for centers, counts in sharded.export_shard_blocks():
            shard_handle, shard_shm = pack_arrays([centers, counts])
            created.append(shard_shm)
            shard_handles.append(shard_handle)
    except BaseException:
        for shm in created:
            destroy_segment(shm)
        raise
    handle = ShardedDictionaryHandle(
        geometry=sharded.geometry,
        budget_bytes=sharded.budget_bytes,
        root=root_handle,
        shards=tuple(shard_handles),
    )
    return handle, created


class SegmentShardStore:
    """Worker-side :class:`~repro.core.sharding.ShardStore` over per-shard
    segments: attach on :meth:`load`, unmap on :meth:`release`.

    The owning :class:`PartialFlatDictionary` drives the LRU policy;
    this store only maps and unmaps — it never unlinks.
    """

    def __init__(self, handles: Sequence[ShmArraysHandle]) -> None:
        self._handles = tuple(handles)
        self._shms: dict[int, shared_memory.SharedMemory] = {}

    @property
    def num_shards(self) -> int:
        return len(self._handles)

    def nbytes(self, index: int) -> int:
        return self._handles[index].payload_bytes

    def load(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        views, shm = attach_arrays(self._handles[index])
        self._shms[index] = shm
        centers, counts = views
        return centers, counts

    def release(self, index: int) -> None:
        shm = self._shms.pop(index, None)
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass


@dataclass
class ShardedAttachment:
    """A worker's live attachment to one sharded-dictionary broadcast."""

    partial: PartialFlatDictionary
    root_shm: shared_memory.SharedMemory
    store: SegmentShardStore

    def close(self) -> None:
        """Release shard attachments, then unmap the root segment."""
        self.partial.close()
        try:
            self.root_shm.close()
        except Exception:
            pass


def build_partial_dictionary(handle: ShardedDictionaryHandle) -> ShardedAttachment:
    """Worker-side reconstruction of one sharded dictionary broadcast."""
    views, root_shm = attach_arrays(handle.root)
    store = SegmentShardStore(handle.shards)
    partial = PartialFlatDictionary(
        handle.geometry, *views, store, budget_bytes=handle.budget_bytes
    )
    return ShardedAttachment(partial=partial, root_shm=root_shm, store=store)


def import_broadcast_parts(
    blob: bytes,
    flat_handle: ShmSegmentHandle | None,
    flat_shm: shared_memory.SharedMemory | None,
    sharded_handles: Sequence[ShardedDictionaryHandle],
) -> tuple[Any, list[ShardedAttachment]]:
    """Rebuild a broadcast that may carry flat and/or sharded payloads.

    Returns the value plus the sharded attachments the caller must close
    when the broadcast epoch ends (the flat segment stays the caller's
    responsibility, as with :func:`import_broadcast`).
    """
    flats = []
    if flat_handle is not None and flat_shm is not None:
        for geometry, fields in flat_handle.flats:
            arrays = []
            for offset, dtype, shape in fields:
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=flat_shm.buf, offset=offset
                )
                view.flags.writeable = False
                arrays.append(view)
            flats.append(FlatCellDictionary(geometry, *arrays, validate=False))
    attachments = [build_partial_dictionary(handle) for handle in sharded_handles]
    partials = [attachment.partial for attachment in attachments]
    value = _ImportUnpickler(io.BytesIO(blob), flats, partials).load()
    return value, attachments


def destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Driver-side unmap + unlink; safe to call on a half-dead segment."""
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass
