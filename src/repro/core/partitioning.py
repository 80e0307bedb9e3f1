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

For the naive-random-split baselines (Sec 2.2.1) and ablations,
:func:`true_random_partition` splits the *points* instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.data.streaming import PointSource
from repro.spatial.grid import cell_ids_for_points, group_points_by_cell

__all__ = [
    "Partition",
    "LazyPartition",
    "pseudo_random_partition",
    "true_random_partition",
]


@dataclass
class Partition:
    """One pseudo random partition: a bag of whole cells and their points.

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
    cell_slices:
        Mapping from cell id to the ``(start, stop)`` row range of that
        cell's points within ``points``.
    """

    pid: int
    points: np.ndarray
    global_indices: np.ndarray
    cell_slices: dict[CellId, tuple[int, int]]

    @property
    def num_points(self) -> int:
        """Number of points in this partition."""
        return self.points.shape[0]

    @property
    def num_cells(self) -> int:
        """Number of cells in this partition."""
        return len(self.cell_slices)

    def cell_table(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cell_ids, offsets)``: the ``(G, d)`` int64 cell ids in
        :attr:`cell_slices` order and their ``(G + 1,)`` CSR point
        bounds — the layout a per-partition sweep takes.  Cells own
        consecutive row ranges in that order (as every constructor
        here lays them out)."""
        bounds = np.array(list(self.cell_slices.values()), dtype=np.int64)
        ids = np.array(list(self.cell_slices), dtype=np.int64).reshape(-1, dim)
        offsets = np.zeros(ids.shape[0] + 1, dtype=np.int64)
        if ids.shape[0]:
            offsets[1:] = bounds[:, 1]
            if not np.array_equal(bounds[:, 0], offsets[:-1]):
                raise ValueError("cell slices must be consecutive row ranges")
        return ids, offsets

    def cell_points(self, cell_id: CellId) -> np.ndarray:
        """The ``(n_c, d)`` points of one cell."""
        start, stop = self.cell_slices[cell_id]
        return self.points[start:stop]

    def cell_global_indices(self, cell_id: CellId) -> np.ndarray:
        """Global data-set indices of one cell's points."""
        start, stop = self.cell_slices[cell_id]
        return self.global_indices[start:stop]

    def gather_rows(self, start: int, stop: int, mask: np.ndarray | None = None) -> np.ndarray:
        """The points of local rows ``start:stop`` (optionally masked).

        On a :class:`LazyPartition` this reads just those rows from the
        backing source instead of materializing the whole partition —
        the driver-side access path of Phase III-2.
        """
        block = self.points[start:stop]
        return block if mask is None else block[mask]

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
        cell_slices: dict[CellId, tuple[int, int]],
        source: PointSource,
    ) -> None:
        self.pid = pid
        self.global_indices = global_indices
        self.cell_slices = cell_slices
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

    def gather_rows(self, start: int, stop: int, mask: np.ndarray | None = None) -> np.ndarray:
        if self._points is not None:
            block = self._points[start:stop]
            return block if mask is None else block[mask]
        indices = self.global_indices[start:stop]
        if mask is not None:
            indices = indices[mask]
        return self.source.take(indices)

    def release(self) -> None:
        self._points = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_points"] = None  # never ship a materialized block
        return state


def _group_source_by_cell(
    source: PointSource, side: float
) -> dict[CellId, np.ndarray]:
    """Streaming twin of :func:`group_points_by_cell`.

    Buckets a :class:`PointSource` chunk by chunk while reproducing the
    eager grouping *exactly*: cells come out in lexicographic id order
    (chunk groups are merged through a final key sort) and each cell's
    indices ascend (chunks arrive in order; within a chunk the stable
    lexsort keeps equal keys in row order).  Both properties feed the
    partition-key RNG, so eager and streamed runs draw identical keys.
    """
    buckets: dict[CellId, list[np.ndarray]] = {}
    for chunk_start, chunk in source.iter_chunks():
        ids = cell_ids_for_points(chunk, side)
        order = np.lexsort(ids.T[::-1])
        sorted_ids = ids[order]
        change = np.any(sorted_ids[1:] != sorted_ids[:-1], axis=1)
        boundaries = np.concatenate(
            ([0], np.nonzero(change)[0] + 1, [ids.shape[0]])
        )
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            key = tuple(int(v) for v in sorted_ids[start])
            buckets.setdefault(key, []).append(order[start:stop] + chunk_start)
    return {
        key: (
            np.concatenate(buckets[key])
            if len(buckets[key]) > 1
            else buckets[key][0]
        )
        for key in sorted(buckets)
    }


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
        ``(n, d)`` data set.
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
    source: PointSource | None = None
    if isinstance(points, PointSource):
        source = points
        if source.dim != geometry.dim:
            raise ValueError(
                f"points have dim {source.dim} but geometry has dim {geometry.dim}"
            )
        pts = None
        groups = _group_source_by_cell(source, geometry.side)
    else:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        if pts.shape[1] != geometry.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]} but geometry has dim {geometry.dim}"
            )
        groups = group_points_by_cell(pts, geometry.side)
    cell_ids = list(groups.keys())
    rng = np.random.default_rng(seed)
    if method == "random_key":
        keys = rng.integers(0, num_partitions, size=len(cell_ids))
    elif method == "shuffle":
        order = rng.permutation(len(cell_ids))
        keys = np.empty(len(cell_ids), dtype=np.int64)
        keys[order] = np.arange(len(cell_ids)) % num_partitions
    else:
        raise ValueError(f"unknown partitioning method {method!r}")

    per_partition_cells: list[list[CellId]] = [[] for _ in range(num_partitions)]
    for cell_id, key in zip(cell_ids, keys):
        per_partition_cells[int(key)].append(cell_id)

    partitions: list[Partition] = []
    for pid, cells in enumerate(per_partition_cells):
        index_chunks = [groups[cell_id] for cell_id in cells]
        if index_chunks:
            indices = np.concatenate(index_chunks)
        else:
            indices = np.empty(0, dtype=np.int64)
        slices: dict[CellId, tuple[int, int]] = {}
        cursor = 0
        for cell_id, chunk in zip(cells, index_chunks):
            slices[cell_id] = (cursor, cursor + chunk.shape[0])
            cursor += chunk.shape[0]
        if source is not None:
            partitions.append(
                LazyPartition(
                    pid=pid,
                    global_indices=indices,
                    cell_slices=slices,
                    source=source,
                )
            )
        else:
            partitions.append(
                Partition(
                    pid=pid,
                    points=pts[indices],
                    global_indices=indices,
                    cell_slices=slices,
                )
            )
    return partitions


def true_random_partition(
    points: np.ndarray,
    geometry: CellGeometry,
    num_partitions: int,
    *,
    seed: int | None = 0,
) -> list[Partition]:
    """Point-level random split (the naive strategy of Sec 2.2.1).

    Points are shuffled and dealt round-robin, so a cell's points can be
    scattered over many partitions.  Partitions are still organized by
    cell internally so the same Phase II code can run on them — which is
    exactly how the ablation quantifies the accuracy loss of naive
    random split without a global dictionary.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be (n, d)")
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(pts.shape[0])
    partitions: list[Partition] = []
    for pid in range(num_partitions):
        indices = order[pid::num_partitions]
        sub = pts[indices]
        groups = group_points_by_cell(sub, geometry.side)
        local_order_chunks = list(groups.values())
        if local_order_chunks:
            local_order = np.concatenate(local_order_chunks)
        else:
            local_order = np.empty(0, dtype=np.int64)
        slices: dict[CellId, tuple[int, int]] = {}
        cursor = 0
        for cell_id, chunk in groups.items():
            slices[cell_id] = (cursor, cursor + chunk.shape[0])
            cursor += chunk.shape[0]
        partitions.append(
            Partition(
                pid=pid,
                points=sub[local_order],
                global_indices=indices[local_order],
                cell_slices=slices,
            )
        )
    return partitions
