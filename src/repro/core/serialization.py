"""Bit-packed serialization of the two-level cell dictionary.

Implements the paper's encoding (Lemma 4.3) as actual bytes, not just a
size formula: per cell, the exact position as ``d`` float32 values and
the density as an int32; per sub-cell, the *local* position packed into
``d * (h-1)`` bits (the ordering of the sub-cell inside its cell) and
the density as an int32.  A small fixed header records the geometry so
the stream is self-describing.

This is what a Spark implementation would broadcast; round-tripping it
in tests proves the compact summary really carries everything Phase II
needs, and comparing ``len(bytes)`` against
:class:`~repro.core.dictionary.DictionarySizeModel` validates the
paper's size accounting against reality (the delta is the header plus
byte-alignment padding of the bit-packed positions).
"""

from __future__ import annotations

import io
import struct

import numpy as np

from repro.core.cell_graph import FlatCellGraph
from repro.core.cells import CellGeometry, CellId
from repro.core.dictionary import CellDictionary, CellSummary, FlatCellDictionary

__all__ = [
    "serialize_dictionary",
    "deserialize_dictionary",
    "deserialize_flat_dictionary",
    "serialize_cluster_state",
    "deserialize_cluster_state",
    "save_cluster_state",
    "load_cluster_state",
    "HEADER_BYTES",
]

_MAGIC = b"RPD1"
# magic, eps, rho, dim, num_cells
_HEADER = struct.Struct("<4sddii")

#: Size of the fixed stream header in bytes.
HEADER_BYTES = _HEADER.size


def _pack_local_coords(coords: np.ndarray, bits_per_axis: int) -> bytes:
    """Pack ``(k, d)`` local sub-cell coordinates into a byte string,
    ``bits_per_axis`` bits per coordinate, row-major, LSB-first (bit
    position ``p`` lands in byte ``p >> 3``, bit ``p & 7``)."""
    if coords.size == 0:
        return b""
    flat = coords.astype(np.uint16).reshape(-1)
    bits = (flat[:, None] >> np.arange(bits_per_axis, dtype=np.uint16)) & 1
    bits = bits.reshape(-1).astype(np.uint8)
    pad = (-bits.size) % 8
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack_local_coords(
    data: bytes, count: int, dim: int, bits_per_axis: int
) -> np.ndarray:
    """Inverse of :func:`_pack_local_coords` for ``count`` sub-cells."""
    if count == 0:
        return np.zeros((0, dim), dtype=np.uint16)
    raw = np.frombuffer(data, dtype=np.uint8)
    total_bits = count * dim * bits_per_axis
    bits = np.unpackbits(raw, bitorder="little", count=total_bits)
    weights = np.int64(1) << np.arange(bits_per_axis, dtype=np.int64)
    values = bits.reshape(-1, bits_per_axis).astype(np.int64) @ weights
    return values.astype(np.uint16).reshape(count, dim)


def serialize_dictionary(
    dictionary: CellDictionary | FlatCellDictionary,
) -> bytes:
    """Encode ``dictionary`` into the paper's compact byte layout.

    The flat dictionary and the reference :class:`CellDictionary`
    produce byte-identical streams: cells are written in lexicographic
    order, which is the columnar layout's native row order, so the flat
    encoder just walks CSR slices.
    """
    geometry = dictionary.geometry
    dim = geometry.dim
    bits_per_axis = geometry.h - 1
    parts = [
        _HEADER.pack(_MAGIC, geometry.eps, geometry.rho, dim, dictionary.num_cells)
    ]
    if isinstance(dictionary, FlatCellDictionary):
        origins = (dictionary.cell_ids.astype(np.float64) * geometry.side).astype(
            np.float32
        )
        offsets = dictionary.offsets
        for row in range(dictionary.num_cells):
            start, stop = int(offsets[row]), int(offsets[row + 1])
            parts.append(origins[row].tobytes())
            parts.append(
                struct.pack("<ii", int(dictionary.cell_counts[row]), stop - start)
            )
            parts.append(dictionary.sub_counts[start:stop].astype(np.int32).tobytes())
            if bits_per_axis:
                parts.append(
                    _pack_local_coords(
                        dictionary.sub_coords[start:stop], bits_per_axis
                    )
                )
        return b"".join(parts)
    for cell_id in sorted(dictionary.cells):
        summary = dictionary.cells[cell_id]
        # Root entry: exact cell position (d float32) + density (int32).
        origin = (np.asarray(cell_id, dtype=np.float64) * geometry.side).astype(
            np.float32
        )
        parts.append(origin.tobytes())
        parts.append(struct.pack("<ii", summary.count, summary.num_subcells))
        # Leaf entries: densities (int32 each) + bit-packed positions.
        parts.append(summary.sub_counts.astype(np.int32).tobytes())
        if bits_per_axis:
            parts.append(_pack_local_coords(summary.sub_coords, bits_per_axis))
    return b"".join(parts)


def deserialize_dictionary(data: bytes) -> CellDictionary:
    """Decode a byte stream produced by :func:`serialize_dictionary` into
    the reference :class:`CellDictionary` (the pipeline decodes with
    :func:`deserialize_flat_dictionary`)."""
    magic, eps, rho, dim, num_cells = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError("not an RP-DBSCAN dictionary stream")
    geometry = CellGeometry(eps, dim, rho)
    bits_per_axis = geometry.h - 1
    side = geometry.side
    offset = _HEADER.size
    cells: dict[CellId, CellSummary] = {}
    for _ in range(num_cells):
        origin = np.frombuffer(data, dtype=np.float32, count=dim, offset=offset)
        offset += 4 * dim
        count, num_subcells = struct.unpack_from("<ii", data, offset)
        offset += 8
        sub_counts = np.frombuffer(
            data, dtype=np.int32, count=num_subcells, offset=offset
        ).astype(np.int64)
        offset += 4 * num_subcells
        if bits_per_axis:
            packed_bytes = (num_subcells * dim * bits_per_axis + 7) // 8
            sub_coords = _unpack_local_coords(
                data[offset : offset + packed_bytes], num_subcells, dim, bits_per_axis
            )
            offset += packed_bytes
        else:
            sub_coords = np.zeros((num_subcells, dim), dtype=np.uint16)
        # float32 origins carry rounding; snap to the nearest cell index.
        cell_id = tuple(
            int(v) for v in np.rint(origin.astype(np.float64) / side)
        )
        cells[cell_id] = CellSummary(
            count=count, sub_coords=sub_coords, sub_counts=sub_counts
        )
    return CellDictionary(geometry, cells)


def deserialize_flat_dictionary(data: bytes) -> FlatCellDictionary:
    """Decode a dictionary stream directly into the columnar layout.

    The stream stores cells in lexicographic order — exactly the flat
    layout's row order — so decoding is a single forward walk appending
    to the columnar arrays, no dict materialization.
    """
    magic, eps, rho, dim, num_cells = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError("not an RP-DBSCAN dictionary stream")
    geometry = CellGeometry(eps, dim, rho)
    bits_per_axis = geometry.h - 1
    side = geometry.side
    offset = _HEADER.size
    cell_ids = np.empty((num_cells, dim), dtype=np.int64)
    cell_counts = np.empty(num_cells, dtype=np.int64)
    sizes = np.empty(num_cells, dtype=np.int64)
    coord_blocks: list[np.ndarray] = []
    count_blocks: list[np.ndarray] = []
    for row in range(num_cells):
        origin = np.frombuffer(data, dtype=np.float32, count=dim, offset=offset)
        offset += 4 * dim
        count, num_subcells = struct.unpack_from("<ii", data, offset)
        offset += 8
        count_blocks.append(
            np.frombuffer(
                data, dtype=np.int32, count=num_subcells, offset=offset
            ).astype(np.int64)
        )
        offset += 4 * num_subcells
        if bits_per_axis:
            packed_bytes = (num_subcells * dim * bits_per_axis + 7) // 8
            coord_blocks.append(
                _unpack_local_coords(
                    data[offset : offset + packed_bytes],
                    num_subcells,
                    dim,
                    bits_per_axis,
                )
            )
            offset += packed_bytes
        else:
            coord_blocks.append(np.zeros((num_subcells, dim), dtype=np.uint16))
        # float32 origins carry rounding; snap to the nearest cell index.
        cell_ids[row] = np.rint(origin.astype(np.float64) / side).astype(np.int64)
        cell_counts[row] = count
        sizes[row] = num_subcells
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    if num_cells:
        sub_coords = np.concatenate(coord_blocks)
        sub_counts = np.concatenate(count_blocks)
    else:
        sub_coords = np.empty((0, dim), dtype=np.uint16)
        sub_counts = np.empty(0, dtype=np.int64)
    return FlatCellDictionary(
        geometry,
        cell_ids,
        cell_counts,
        offsets,
        sub_coords,
        sub_counts,
        validate=False,
    )


# ----------------------------------------------------------------------
# Model-plane state (`RPST`): the persistent ClusterState
# ----------------------------------------------------------------------

_STATE_MAGIC = b"RPST"
#: Version 2 added the per-point neighbor counts (the last array);
#: version 3 dropped the merge-mode string after the candidate strategy;
#: version 4 dropped the graph's pending-edge list (always empty) and
#: union-find parents (never read).
_STATE_VERSION = 4
# magic, version, eps, rho, dim, min_pts, num_tasks
_STATE_HEADER = struct.Struct("<4sHddiii")


def _write_str(out: io.BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    out.write(struct.pack("<H", len(raw)))
    out.write(raw)


def _read_str(data: bytes, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    return data[offset : offset + length].decode("utf-8"), offset + length


def _write_array(out: io.BytesIO, array: np.ndarray) -> None:
    """Deterministic raw-array framing: dtype string, shape, C-order
    little-endian bytes.  No pickle, no archive container, no
    timestamps — identical arrays always produce identical bytes, which
    is what makes a saved state byte-stable across processes."""
    contiguous = np.ascontiguousarray(array)
    dtype = contiguous.dtype.newbyteorder("<")
    _write_str(out, dtype.str)
    out.write(struct.pack("<B", contiguous.ndim))
    for extent in contiguous.shape:
        out.write(struct.pack("<q", extent))
    out.write(contiguous.astype(dtype, copy=False).tobytes())


def _read_array(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    dtype_str, offset = _read_str(data, offset)
    dtype = np.dtype(dtype_str)
    (ndim,) = struct.unpack_from("<B", data, offset)
    offset += 1
    shape = []
    for _ in range(ndim):
        (extent,) = struct.unpack_from("<q", data, offset)
        shape.append(extent)
        offset += 8
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    nbytes = count * dtype.itemsize
    array = (
        np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        .reshape(shape)
        .copy()
    )
    return array, offset + nbytes


def serialize_cluster_state(state) -> bytes:
    """Encode a :class:`~repro.core.cluster_state.ClusterState` as the
    magic-dispatched ``RPST`` stream.

    The stream is **byte-stable**: serializing the same state twice (or
    a loaded copy of it) yields identical bytes, so model artifacts can
    be content-addressed and diffed.  Layout: fixed header (geometry +
    fit parameters), two length-prefixed config strings, then every
    state array in a fixed order through the raw deterministic framing
    of :func:`_write_array` — dictionary columns, graph columns
    (statuses and the reduced edge list; an ingest rebuilds the
    union-find forest from the edges), cell labels, and the per-point
    arrays (points, cell rows, labels, core flags, neighbor counts).
    """
    geometry = state.geometry
    out = io.BytesIO()
    out.write(
        _STATE_HEADER.pack(
            _STATE_MAGIC,
            _STATE_VERSION,
            geometry.eps,
            geometry.rho,
            geometry.dim,
            state.min_pts,
            state.num_tasks,
        )
    )
    _write_str(out, state.kernel)
    _write_str(out, state.candidate_strategy)
    dictionary = state.dictionary
    graph = state.graph
    for array in (
        dictionary.cell_ids,
        dictionary.cell_counts,
        dictionary.offsets,
        dictionary.sub_coords,
        dictionary.sub_counts,
        graph.status,
        graph.src,
        graph.dst,
        graph.etype,
        state.cell_labels,
        state.points,
        state.point_cell_rows,
        state.labels,
        state.core_mask,
        state.counts,
    ):
        _write_array(out, array)
    return out.getvalue()


def deserialize_cluster_state(data: bytes):
    """Inverse of :func:`serialize_cluster_state` (validates on load)."""
    from repro.core.cluster_state import ClusterState

    magic, version, eps, rho, dim, min_pts, num_tasks = (
        _STATE_HEADER.unpack_from(data, 0)
    )
    if magic != _STATE_MAGIC:
        raise ValueError("not an RP-DBSCAN model-state stream")
    if version != _STATE_VERSION:
        raise ValueError(
            f"unsupported RPST version {version}; this build reads version "
            f"{_STATE_VERSION} only (refit and save the model again)"
        )
    offset = _STATE_HEADER.size
    kernel, offset = _read_str(data, offset)
    candidate_strategy, offset = _read_str(data, offset)
    arrays = []
    for _ in range(15):
        array, offset = _read_array(data, offset)
        arrays.append(array)
    (
        cell_ids, cell_counts, offsets, sub_coords, sub_counts,
        status, src, dst, etype,
        cell_labels, points, point_cell_rows, labels, core_mask, counts,
    ) = arrays
    geometry = CellGeometry(eps, dim, rho)
    dictionary = FlatCellDictionary(
        geometry, cell_ids, cell_counts, offsets, sub_coords, sub_counts,
        validate=False,
    )
    graph = FlatCellGraph.from_arrays(status, src, dst, etype)
    state = ClusterState(
        geometry=geometry,
        min_pts=min_pts,
        dictionary=dictionary,
        graph=graph,
        cell_labels=cell_labels,
        points=points,
        point_cell_rows=point_cell_rows,
        labels=labels,
        core_mask=core_mask,
        counts=counts,
        kernel=kernel,
        candidate_strategy=candidate_strategy,
        num_tasks=num_tasks,
    )
    state.validate()
    return state


def save_cluster_state(state, path) -> None:
    """Write ``state`` to ``path`` as an ``RPST`` stream."""
    with open(path, "wb") as handle:
        handle.write(serialize_cluster_state(state))


def load_cluster_state(path):
    """Load a :class:`~repro.core.cluster_state.ClusterState` from an
    ``RPST`` file written by :func:`save_cluster_state`."""
    with open(path, "rb") as handle:
        return deserialize_cluster_state(handle.read())
