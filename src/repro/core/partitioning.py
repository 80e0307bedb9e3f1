"""Pseudo random partitioning (paper Section 4.1, Algorithm 2 part 1).

Points are first bucketed into cells; then whole *cells* are randomly
distributed to ``k`` partitions.  Because the cell is tiny relative to
the data space, this behaves like true random partitioning for load
balance while keeping each cell's points together — the property that
makes cell-level merging possible.

Two assignment methods are provided:

* ``"random_key"`` — each cell independently draws a uniform partition
  key, exactly as Algorithm 2 line 7 ("Pick a random key from 1..k").
* ``"shuffle"`` — cells are randomly shuffled and dealt round-robin,
  which equalizes cell counts exactly; useful as an ablation.

A cell is named by its *row*: its rank in the lexicographically sorted
table of non-empty cells, which is its row in the merged Phase I-2
dictionary and its vertex in every cell graph.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.cells import CellGeometry
from repro.core.dictionary import csr_gather_indices
from repro.data.streaming import PointSource

__all__ = [
    "Partition",
    "LazyPartition",
    "pseudo_random_partition",
]


@dataclass
class Partition:
    """One pseudo random partition: whole cells and their points, as CSR.

    Attributes
    ----------
    pid:
        Partition index in ``[0, k)``.
    points:
        ``(m, d)`` float64 array of the partition's points, stored
        contiguously grouped by cell.
    global_indices:
        ``(m,)`` int64 row indices of ``points`` in the original data
        set, used to write labels back in Phase III-2.
    rows:
        ``(G,)`` int64 ascending dictionary rows of the partition's
        cells.
    offsets:
        ``(G + 1,)`` int64 CSR bounds: cell ``rows[g]`` owns local rows
        ``offsets[g]:offsets[g + 1]``, in ascending global index.
    """

    pid: int
    points: np.ndarray
    global_indices: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray

    @property
    def num_points(self) -> int:
        """Number of points in this partition."""
        return self.points.shape[0]

    @property
    def num_cells(self) -> int:
        """Number of cells in this partition."""
        return int(self.rows.size)

    def point_rows(self) -> np.ndarray:
        """``(m,)`` int64 dictionary row of each local point's cell."""
        return np.repeat(self.rows, np.diff(self.offsets))

    def take(self, local: np.ndarray) -> np.ndarray:
        """The points at local rows ``local``, in that order.

        On a :class:`LazyPartition` this reads just those rows from the
        backing source instead of materializing the whole partition —
        the driver-side access path of Phase III-2.
        """
        return self.points[local]

    def release(self) -> None:
        """Drop any materialized point block (no-op for eager layouts)."""


class LazyPartition(Partition):
    """A partition whose point block materializes on demand.

    Pickling ships only the partition's *indices* plus the source
    descriptor, so a worker task pays for exactly its own rows —
    the out-of-core half of ROADMAP item 1.  The block is cached after
    first access (a Phase II task touches every cell of its partition);
    :meth:`release` drops the cache between phases.
    """

    def __init__(
        self,
        pid: int,
        global_indices: np.ndarray,
        rows: np.ndarray,
        offsets: np.ndarray,
        source: PointSource,
    ) -> None:
        self.pid = pid
        self.global_indices = global_indices
        self.rows = rows
        self.offsets = offsets
        self.source = source
        self._points: np.ndarray | None = None

    @property
    def points(self) -> np.ndarray:  # type: ignore[override]
        """The ``(m, d)`` point block, materialized from the source."""
        if self._points is None:
            self._points = self.source.take(self.global_indices)
        return self._points

    @property
    def num_points(self) -> int:
        """Number of points (known without materializing)."""
        return int(self.global_indices.shape[0])

    def take(self, local: np.ndarray) -> np.ndarray:
        if self._points is not None:
            return self._points[local]
        return self.source.take(self.global_indices[local])

    def release(self) -> None:
        self._points = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_points"] = None  # never ship a materialized block
        return state


def _group_by_cell(
    chunks: Iterable[tuple[int, np.ndarray]], geometry: CellGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """``(cell_sizes, order)``: the points grouped by cell in one sort.

    Each chunk is lexsorted by cell id into a table of its distinct
    cells; the chunk tables are then merged with one stable sort, so
    ``order`` lists the points cell by cell in lexicographic cell order
    and in ascending index within a cell, and ``cell_sizes[r]`` counts
    the points of the cell of rank ``r``.  Only the tables (per cell)
    and the ``order`` (8 bytes per point) outlive a chunk, so an eager
    array (one chunk) and a streamed source group identically.
    """
    tables, sizes, orders = [], [], []
    for chunk_start, chunk in chunks:
        if chunk.shape[0] == 0:
            continue
        ids = geometry.cell_ids(chunk)
        order = np.lexsort(ids.T[::-1])
        sorted_ids = ids[order]
        first = np.ones(order.size, dtype=bool)
        np.any(sorted_ids[1:] != sorted_ids[:-1], axis=1, out=first[1:])
        starts = np.flatnonzero(first)
        tables.append(sorted_ids[starts])
        sizes.append(np.diff(starts, append=order.size))
        orders.append(order + chunk_start)
    if not tables:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    ids = np.concatenate(tables)
    run_sizes = np.concatenate(sizes)
    # A stable sort keeps one cell's chunk runs in chunk order, hence
    # ascending point index within the merged cell.
    run_order = np.lexsort(ids.T[::-1])
    ids = ids[run_order]
    run_starts = (np.cumsum(run_sizes) - run_sizes)[run_order]
    run_sizes = run_sizes[run_order]
    order = np.concatenate(orders)[csr_gather_indices(run_starts, run_sizes)]
    first = np.ones(run_order.size, dtype=bool)
    np.any(ids[1:] != ids[:-1], axis=1, out=first[1:])
    return np.add.reduceat(run_sizes, np.flatnonzero(first)), order


def pseudo_random_partition(
    points: np.ndarray | PointSource,
    geometry: CellGeometry,
    num_partitions: int,
    *,
    seed: int | None = 0,
    method: str = "random_key",
) -> list[Partition]:
    """Split ``points`` into ``num_partitions`` cell-level random splits.

    Parameters
    ----------
    points:
        ``(n, d)`` data set, or a :class:`PointSource` (the partitions
        then materialize their points on demand).
    geometry:
        Cell geometry fixing the grid.
    num_partitions:
        Number of splits ``k``; partitions may be empty when there are
        fewer non-empty cells than ``k`` (only possible on tiny inputs).
    seed:
        Seed for the partition-key RNG (``None`` for nondeterministic).
    method:
        ``"random_key"`` (paper's Algorithm 2) or ``"shuffle"``.

    Returns
    -------
    list[Partition]
        Exactly ``num_partitions`` partitions whose points are pairwise
        disjoint and jointly cover the input.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if isinstance(points, PointSource):
        source, pts, dim = points, None, points.dim
        chunks = source.iter_chunks()
    else:
        source = None
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        dim = pts.shape[1]
        chunks = [(0, pts)]
    if dim != geometry.dim:
        raise ValueError(
            f"points have dim {dim} but geometry has dim {geometry.dim}"
        )
    if method not in ("random_key", "shuffle"):
        raise ValueError(f"unknown partitioning method {method!r}")
    cell_sizes, order = _group_by_cell(chunks, geometry)
    # Keys are drawn per cell in lexicographic cell order.
    num_cells = cell_sizes.size
    rng = np.random.default_rng(seed)
    if method == "random_key":
        keys = rng.integers(0, num_partitions, size=num_cells)
    else:
        shuffled = rng.permutation(num_cells)
        keys = np.empty(num_cells, dtype=np.int64)
        keys[shuffled] = np.arange(num_cells) % num_partitions
    cell_starts = np.cumsum(cell_sizes) - cell_sizes

    partitions: list[Partition] = []
    for pid in range(num_partitions):
        rows = np.flatnonzero(keys == pid)
        sizes = cell_sizes[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        indices = order[csr_gather_indices(cell_starts[rows], sizes)]
        if source is not None:
            partitions.append(
                LazyPartition(pid, indices, rows, offsets, source)
            )
        else:
            partitions.append(
                Partition(pid, pts[indices], indices, rows, offsets)
            )
    return partitions
