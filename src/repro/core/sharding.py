"""Budgeted partial broadcast of the cell dictionary (Sec 4.2.2, Lemma 5.10).

The paper keeps the two-level cell dictionary as disjoint
*sub-dictionaries* (Definition 4.4) precisely so a worker never has to
hold the whole structure.  This module turns that idea into a physical
data plane:

* :class:`ShardedFlatDictionary` (driver side) splits a defragmented
  :class:`~repro.core.dictionary.FlatCellDictionary` into a small,
  always-resident **root** (cell ids, densities, CSR offsets, shard
  ownership) plus one leaf **shard** per
  :class:`~repro.core.defragmentation.FlatSubDictionary` — the sub-cell
  centers and densities, which are the Lemma 4.3 bulk of the payload.
* :class:`PartialFlatDictionary` (both sides) answers the full flat
  query surface while keeping at most ``budget_bytes`` of leaf shards
  resident, loading shards through a pluggable :class:`ShardStore` and
  evicting least-recently-used ones.
* :meth:`ShardedFlatDictionary.reachable_shards` is the driver-side
  Lemma 5.10 skip test: a shard whose cell-box bounding rectangle lies
  farther than ``eps`` from every cell of a partition can never be
  consulted by that partition's region queries, so the worker need not
  be allowed to attach it.

A note on the skip geometry: the paper's Definition 5.9 MBR spans
*sub-cell centers*, which is sound for skipping whole sub-dictionaries
inside a point query.  Residency, however, is driven by the batched
query's gather: it loads the leaves of every candidate whose *cell box*
is within ``eps`` of a query point, even if all of that candidate's
sub-cell centers turn out farther away.  The shard rectangles here
therefore span the owned **cell boxes** — a superset of the center MBR —
so "skipped" provably implies "never gathered".

Every access path returns bit-identical values to the monolithic flat
dictionary; the budget changes residency, never results.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Iterable, Protocol

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.core.defragmentation import FlatDefragmentedDictionary
from repro.core.dictionary import (
    csr_gather_indices,
    lex_keys,
    segment_distinct_counts,
)

__all__ = [
    "ShardStore",
    "InMemoryShardStore",
    "PartialFlatDictionary",
    "ShardedFlatDictionary",
    "live_residency_stats",
]

#: Slack factor matching the candidate-cell finder's box-distance test,
#: so the reachability superset holds even at floating-point boundaries.
_REACH_SLACK = 1.0 + 1e-12

#: Live partial dictionaries in this process, for residency telemetry.
_LIVE: "weakref.WeakSet[PartialFlatDictionary]" = weakref.WeakSet()


class ShardStore(Protocol):
    """Loads leaf shards on demand for a :class:`PartialFlatDictionary`.

    A shard is the pair ``(sub_centers, sub_counts)`` of one
    sub-dictionary, concatenated over its cells in ascending dense-row
    order.  Implementations: :class:`InMemoryShardStore` (driver /
    serial engine) and the shared-memory segment store in
    :mod:`repro.engine.shm` (workers).
    """

    @property
    def num_shards(self) -> int: ...

    def nbytes(self, index: int) -> int:
        """Resident size of shard ``index`` in bytes."""
        ...

    def load(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Materialize shard ``index`` as ``(centers (k, d), counts (k,))``."""
        ...

    def release(self, index: int) -> None:
        """Drop any per-shard resources held for ``index`` (eviction)."""
        ...


class InMemoryShardStore:
    """A :class:`ShardStore` over already-materialized shard arrays."""

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]]) -> None:
        self._blocks = blocks

    @property
    def num_shards(self) -> int:
        return len(self._blocks)

    def nbytes(self, index: int) -> int:
        centers, counts = self._blocks[index]
        return int(centers.nbytes + counts.nbytes)

    def load(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self._blocks[index]

    def release(self, index: int) -> None:
        pass


class PartialFlatDictionary:
    """The flat dictionary's query surface over a bounded shard cache.

    Root arrays (always resident, shipped to every worker):

    ``cell_ids (C, d)``, ``cell_counts (C,)``, ``offsets (C + 1,)`` —
    exactly the flat dictionary's root; plus ``shard_owner (C,)`` (which
    shard holds each cell's leaves), ``local_starts (C,)`` (where the
    cell's leaf block starts inside its shard), and the per-shard
    cell-box rectangles ``shard_box_lo/hi (S, d)``.

    Leaf shards are attached through ``store`` on first touch and
    evicted least-recently-used so that resident leaf bytes never exceed
    ``budget_bytes`` (``None`` = unbounded).  :meth:`restrict` narrows
    the attachable set to a partition's Lemma 5.10 reachable shards —
    violations raise, which doubles as a live proof that the driver-side
    skip test is a true superset of demand.
    """

    def __init__(
        self,
        geometry: CellGeometry,
        cell_ids: np.ndarray,
        cell_counts: np.ndarray,
        offsets: np.ndarray,
        shard_owner: np.ndarray,
        local_starts: np.ndarray,
        shard_box_lo: np.ndarray,
        shard_box_hi: np.ndarray,
        store: ShardStore,
        *,
        budget_bytes: int | None = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1")
        self.geometry = geometry
        self.cell_ids = cell_ids
        self.cell_counts = cell_counts
        self.offsets = offsets
        self.shard_owner = shard_owner
        self.local_starts = local_starts
        self.shard_box_lo = shard_box_lo
        self.shard_box_hi = shard_box_hi
        self.store = store
        self.budget_bytes = budget_bytes
        self._keys = lex_keys(cell_ids) if cell_ids.shape[0] else None
        self._resident: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._allowed: frozenset[int] | None = None
        # Residency ledger.
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.shard_attaches = 0
        self.shard_evictions = 0
        # Residency oracle (Lemma 5.10 accounting, mirrors the
        # defragmented wrappers' consulted counters).
        self.queries = 0
        self.shards_consulted = 0
        _LIVE.add(self)

    # ------------------------------------------------------------------
    # Introspection (same surface as FlatCellDictionary)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.cell_ids.shape[0]

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return self.cell_ids.shape[0]

    @property
    def num_subcells(self) -> int:
        """Number of non-empty sub-cells across all cells."""
        return int(self.offsets[-1]) if self.offsets.shape[0] else 0

    @property
    def num_points(self) -> int:
        """Total density — must equal the data set size."""
        return int(self.cell_counts.sum())

    @property
    def num_shards(self) -> int:
        """Number of leaf shards."""
        return self.store.num_shards

    # ------------------------------------------------------------------
    # Lookup (identical semantics to FlatCellDictionary)
    # ------------------------------------------------------------------

    def find_rows(self, query_ids: np.ndarray) -> np.ndarray:
        """Vectorized binary search: dense row per query id, ``-1`` when
        the cell is not in the dictionary.  ``query_ids`` is ``(m, d)``."""
        query = np.ascontiguousarray(query_ids, dtype=np.int64)
        if query.ndim != 2:
            raise ValueError("query_ids must be (m, d)")
        if query.shape[0] == 0 or self.num_cells == 0:
            return np.full(query.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(self._keys, lex_keys(query))
        pos_clipped = np.minimum(pos, self.num_cells - 1)
        hit = np.all(self.cell_ids[pos_clipped] == query, axis=1) & (
            pos < self.num_cells
        )
        return np.where(hit, pos_clipped, -1)

    def row_of(self, cell_id: CellId) -> int:
        """Dense row of ``cell_id``; raises ``KeyError`` when absent."""
        row = int(self.find_rows(np.asarray(cell_id, dtype=np.int64)[None, :])[0])
        if row < 0:
            raise KeyError(cell_id)
        return row

    # ------------------------------------------------------------------
    # Shard residency
    # ------------------------------------------------------------------

    def restrict(self, shard_indices: Iterable[int] | None) -> None:
        """Limit attachable shards to ``shard_indices`` (``None`` lifts).

        The engine sets this per task from the driver's reachability
        hint; an attach outside the set raises ``RuntimeError``.
        """
        self._allowed = (
            None if shard_indices is None else frozenset(int(s) for s in shard_indices)
        )

    def _shard(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Resident block of shard ``index``, attaching under the budget."""
        block = self._resident.get(index)
        if block is not None:
            self._resident.move_to_end(index)
            return block
        if self._allowed is not None and index not in self._allowed:
            raise RuntimeError(
                f"shard {index} is outside the task's reachable set — the "
                "driver-side Lemma 5.10 skip test missed a demanded shard"
            )
        nbytes = self.store.nbytes(index)
        if self.budget_bytes is not None:
            while self._resident and self.resident_bytes + nbytes > self.budget_bytes:
                evicted, _ = self._resident.popitem(last=False)
                self.resident_bytes -= self.store.nbytes(evicted)
                self.store.release(evicted)
                self.shard_evictions += 1
            if nbytes > self.budget_bytes:
                raise RuntimeError(
                    f"shard {index} ({nbytes} B) exceeds the broadcast budget "
                    f"({self.budget_bytes} B); lower the defragment capacity"
                )
        block = self.store.load(index)
        self._resident[index] = block
        self.resident_bytes += nbytes
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        self.shard_attaches += 1
        return block

    def close(self) -> None:
        """Release every resident shard (worker epoch teardown)."""
        for index in list(self._resident):
            self.store.release(index)
        self._resident.clear()
        self.resident_bytes = 0

    # ------------------------------------------------------------------
    # Residency oracle
    # ------------------------------------------------------------------

    def record_rows_consulted(self, rows: np.ndarray) -> int:
        """Count the distinct shards one candidate-row set could demand.

        The residency oracle for a single query: how many shards *would*
        have to be resident for its worst case (the region-query engine
        records whole sweeps through :meth:`record_rows_consulted_batch`).
        """
        rows = np.asarray(rows, dtype=np.int64)
        bounds = np.array([0, rows.size], dtype=np.int64)
        return int(self.record_rows_consulted_batch(rows, bounds)[0])

    def record_rows_consulted_batch(
        self, rows: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """:meth:`record_rows_consulted` for many queries at once: query
        ``g``'s candidate rows are ``rows[offsets[g]:offsets[g + 1]]``.
        Returns each query's distinct shard count."""
        touched = segment_distinct_counts(
            self.shard_owner[np.asarray(rows, dtype=np.int64)], offsets
        )
        self.queries += touched.size
        self.shards_consulted += int(touched.sum())
        return touched

    def average_consulted(self) -> float:
        """Mean shards consulted per query (1.0 is ideal)."""
        if self.queries == 0:
            return 0.0
        return self.shards_consulted / self.queries

    def residency_stats(self) -> dict[str, int | float]:
        """Snapshot of the shard-cache ledger."""
        return {
            "num_shards": int(self.num_shards),
            "budget_bytes": int(self.budget_bytes) if self.budget_bytes else 0,
            "resident_bytes": int(self.resident_bytes),
            "peak_resident_bytes": int(self.peak_resident_bytes),
            "shard_attaches": int(self.shard_attaches),
            "shard_evictions": int(self.shard_evictions),
            "queries": int(self.queries),
            "shards_consulted": int(self.shards_consulted),
        }

    # ------------------------------------------------------------------
    # Query support (bit-identical to FlatCellDictionary)
    # ------------------------------------------------------------------

    def gather_subcells(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated sub-cell blocks of the given dense rows.

        Identical contract (and bit-identical output) to
        :meth:`FlatCellDictionary.gather_subcells`: blocks come back in
        the *requested* row order even when the rows span shards, via
        scatter through per-shard CSR gathers.
        """
        rows = np.asarray(rows, dtype=np.int64)
        sizes = self.offsets[rows + 1] - self.offsets[rows]
        total = int(sizes.sum())
        dim = self.cell_ids.shape[1]
        centers = np.empty((total, dim), dtype=np.float64)
        densities = np.empty(total, dtype=np.float64)
        if total == 0:
            return centers, densities, sizes
        owners = self.shard_owner[rows]
        first = int(owners[0])
        if (owners == first).all():
            # Single-owner fast path (the common case for local queries):
            # one CSR gather straight out of the shard block, no scatter.
            shard_centers, shard_counts = self._shard(first)
            src = csr_gather_indices(self.local_starts[rows], sizes)
            return (
                shard_centers[src],
                shard_counts[src].astype(np.float64),
                sizes,
            )
        out_starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        for shard in np.unique(owners):
            shard_centers, shard_counts = self._shard(int(shard))
            sel = owners == shard
            src = csr_gather_indices(self.local_starts[rows[sel]], sizes[sel])
            dst = csr_gather_indices(out_starts[sel], sizes[sel])
            centers[dst] = shard_centers[src]
            densities[dst] = shard_counts[src]
        return centers, densities, sizes

    def sub_cell_centers(self, cell_id: CellId) -> np.ndarray:
        """``(k, d)`` sub-cell centers of one cell (attaches its shard)."""
        row = self.row_of(cell_id)
        size = int(self.offsets[row + 1] - self.offsets[row])
        shard_centers, _ = self._shard(int(self.shard_owner[row]))
        start = int(self.local_starts[row])
        return shard_centers[start : start + size]

    def densities(self, cell_id: CellId) -> np.ndarray:
        """Per-sub-cell densities of ``cell_id`` as float64 (for matmul)."""
        row = self.row_of(cell_id)
        size = int(self.offsets[row + 1] - self.offsets[row])
        _, shard_counts = self._shard(int(self.shard_owner[row]))
        start = int(self.local_starts[row])
        return shard_counts[start : start + size].astype(np.float64)

    # ------------------------------------------------------------------
    # Reachability (driver-side Lemma 5.10)
    # ------------------------------------------------------------------

    def reachable_shards(self, cell_rows: np.ndarray) -> np.ndarray:
        """Shards whose cell-box rectangle is within ``eps`` of at least
        one of the given cells' boxes — a superset of every shard any
        region query issued from those cells can gather.

        Uses the same box-distance slack as the candidate-cell finder,
        so the superset holds exactly where candidates do.
        """
        cell_rows = np.asarray(cell_rows, dtype=np.int64)
        if cell_rows.size == 0 or self.num_shards == 0:
            return np.empty(0, dtype=np.int64)
        side = self.geometry.side
        eps = self.geometry.eps
        lo = self.cell_ids[cell_rows].astype(np.float64) * side  # (m, d)
        hi = lo + side
        gap = np.maximum(
            np.maximum(
                self.shard_box_lo[None, :, :] - hi[:, None, :],
                lo[:, None, :] - self.shard_box_hi[None, :, :],
            ),
            0.0,
        )
        dist2 = np.einsum("msd,msd->ms", gap, gap)  # (m, S)
        reach = (dist2 <= (eps * _REACH_SLACK) ** 2).any(axis=0)
        return np.nonzero(reach)[0].astype(np.int64)


class ShardedFlatDictionary(PartialFlatDictionary):
    """Driver-side sharded view of a defragmented flat dictionary.

    Owns the materialized shard blocks (so the serial engine queries it
    directly, with the same budget accounting workers apply) and knows
    how to export them for segment packing
    (:meth:`export_shard_blocks`).
    """

    @classmethod
    def from_defragmented(
        cls,
        defrag: FlatDefragmentedDictionary,
        *,
        budget_bytes: int | None = None,
    ) -> "ShardedFlatDictionary":
        """Shard a defragmented flat dictionary into root + leaf blocks.

        Raises ``ValueError`` when a single shard exceeds the budget —
        the LRU cache can never satisfy such a budget, so it is rejected
        up front with actionable guidance.
        """
        flat = defrag.dictionary
        geometry = flat.geometry
        side = geometry.side
        num_cells = flat.num_cells
        dim = geometry.dim
        owner = np.full(num_cells, -1, dtype=np.int64)
        local_starts = np.zeros(num_cells, dtype=np.int64)
        num_shards = len(defrag.sub_dicts)
        box_lo = np.empty((num_shards, dim), dtype=np.float64)
        box_hi = np.empty((num_shards, dim), dtype=np.float64)
        blocks: list[tuple[np.ndarray, np.ndarray]] = []
        sizes_all = np.diff(flat.offsets)
        for index, sub in enumerate(defrag.sub_dicts):
            rows = sub.rows
            owner[rows] = index
            sizes = sizes_all[rows]
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            local_starts[rows] = starts
            gather = csr_gather_indices(flat.offsets[rows], sizes)
            centers = np.ascontiguousarray(flat.sub_centers[gather])
            counts = np.ascontiguousarray(flat.sub_counts[gather])
            blocks.append((centers, counts))
            ids = flat.cell_ids[rows].astype(np.float64)
            box_lo[index] = ids.min(axis=0) * side
            box_hi[index] = (ids.max(axis=0) + 1.0) * side
            if budget_bytes is not None:
                nbytes = centers.nbytes + counts.nbytes
                if nbytes > budget_bytes:
                    raise ValueError(
                        f"shard {index} needs {nbytes} B but the broadcast "
                        f"budget is {budget_bytes} B; raise --broadcast-budget "
                        "or lower the defragment capacity so shards shrink"
                    )
        return cls(
            geometry,
            flat.cell_ids,
            flat.cell_counts,
            flat.offsets,
            owner,
            local_starts,
            box_lo,
            box_hi,
            InMemoryShardStore(blocks),
            budget_bytes=budget_bytes,
        )

    def export_shard_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The materialized ``(centers, counts)`` block of every shard,
        for packing into per-shard shared-memory segments."""
        store = self.store
        if not isinstance(store, InMemoryShardStore):
            raise TypeError("only an in-memory-backed sharded dictionary exports")
        return [store.load(index) for index in range(store.num_shards)]

    def export_root_arrays(self) -> dict[str, np.ndarray]:
        """The always-resident root arrays, for the root segment."""
        return {
            "cell_ids": self.cell_ids,
            "cell_counts": self.cell_counts,
            "offsets": self.offsets,
            "shard_owner": self.shard_owner,
            "local_starts": self.local_starts,
            "shard_box_lo": self.shard_box_lo,
            "shard_box_hi": self.shard_box_hi,
        }


def live_residency_stats() -> dict[str, int | float]:
    """Aggregate residency ledger over this process's live partials.

    Workers report this through the engine's stat collection; counters
    are summed, byte gauges are summed over *live* dictionaries (one per
    broadcast epoch in steady state).
    """
    totals = {
        "num_shards": 0,
        "budget_bytes": 0,
        "resident_bytes": 0,
        "peak_resident_bytes": 0,
        "shard_attaches": 0,
        "shard_evictions": 0,
        "queries": 0,
        "shards_consulted": 0,
    }
    for partial in list(_LIVE):
        stats = partial.residency_stats()
        totals["num_shards"] = max(totals["num_shards"], stats["num_shards"])
        totals["budget_bytes"] = max(totals["budget_bytes"], stats["budget_bytes"])
        totals["resident_bytes"] += stats["resident_bytes"]
        totals["peak_resident_bytes"] = max(
            totals["peak_resident_bytes"], stats["peak_resident_bytes"]
        )
        totals["shard_attaches"] += stats["shard_attaches"]
        totals["shard_evictions"] += stats["shard_evictions"]
        totals["queries"] += stats["queries"]
        totals["shards_consulted"] += stats["shards_consulted"]
    return totals
