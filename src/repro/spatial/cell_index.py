"""Candidate-cell search shared by all cell-based algorithms.

Given the non-empty cells of a grid, a :class:`NeighborCellFinder`
answers: *which non-empty cells can contain a point within ``eps`` of
some point of cell C?*  Those are exactly the cells whose box lies
within ``eps`` of C's box.

The finder consumes the cells as a lexicographically sorted ``(C, d)``
int64 array — the same dense row order the flat cell dictionary and the
cell graph use — so every answer is deterministic and can be returned
either as cell-id tuples (:meth:`candidates`) or directly as dense row
indices (:meth:`candidate_rows`), no hashing involved.

Two strategies (Lemma 5.6's "R*-tree or kd-tree" vs. direct probing):

* ``"enumerate"`` — precompute the integer offsets that satisfy the box
  condition and binary-search the sorted id array; ideal in low
  dimensions.
* ``"kdtree"`` — query a kd-tree over non-empty cell centers, then
  filter by the exact box-to-box distance; required when the offset
  table would be exponential in ``d``.

``"auto"`` picks enumerate while the offset table stays small.
"""

from __future__ import annotations

import numpy as np

from repro.spatial.distance import sum_of_squares
from repro.spatial.grid import MAX_ENUMERATED_OFFSETS, neighbor_cell_offsets
from repro.spatial.kdtree import KDTree

__all__ = ["NeighborCellFinder"]

CellId = tuple[int, ...]

#: Pair budget of one kd-tree batch chunk (``(query, hit)`` pairs), and
#: the query count of the first chunk before a hit rate is known.  The
#: tree bounds its own traversal pairs (:mod:`repro.spatial.kdtree`).
_TREE_PAIR_BUDGET = 1 << 16
_TREE_CHUNK_QUERIES = 64


def _normalize_ids(
    cell_ids: np.ndarray | list[CellId] | set[CellId],
) -> np.ndarray:
    """Coerce any accepted cell collection to a sorted ``(C, d)`` array.

    Arrays already in lexicographic order pass through without a copy;
    legacy list/set inputs are sorted (and deduplicated) on the way in.
    """
    if isinstance(cell_ids, np.ndarray):
        ids = np.ascontiguousarray(cell_ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError("cell_ids array must be (C, d)")
        if not _rows_strictly_sorted(ids):
            ids = np.unique(ids, axis=0)
        return ids
    rows = sorted(set(map(tuple, cell_ids)))
    if not rows:
        return np.empty((0, 1), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def _lex_keys(ids: np.ndarray) -> np.ndarray:
    """View ``(m, d)`` int64 rows as a (m,) structured array whose
    comparison order is lexicographic — the key for ``searchsorted``."""
    return ids.view([("", ids.dtype)] * ids.shape[1]).reshape(ids.shape[0])


def _rows_strictly_sorted(ids: np.ndarray) -> bool:
    """``True`` when the rows of ``ids`` are strictly increasing in
    lexicographic order (sorted, no duplicates)."""
    if ids.shape[0] <= 1:
        return True
    a, b = ids[:-1], ids[1:]
    neq = a != b
    if not neq.any(axis=1).all():
        return False  # adjacent duplicate rows
    first = neq.argmax(axis=1)
    rows = np.arange(a.shape[0])
    return bool(np.all(a[rows, first] < b[rows, first]))


class NeighborCellFinder:
    """Finds non-empty cells within ``eps`` (box distance) of a query cell.

    Parameters
    ----------
    cell_ids:
        The non-empty cells: a lexicographically sorted ``(C, d)`` int64
        array (preferred — zero copy), or a list/set of int tuples.
    side:
        Cell side length.
    eps:
        Reachability radius; with the paper's geometry this equals
        ``side * sqrt(d)`` but any positive radius is accepted.
    strategy:
        ``"auto"``, ``"enumerate"``, or ``"kdtree"``.
    """

    def __init__(
        self,
        cell_ids: np.ndarray | list[CellId] | set[CellId],
        side: float,
        eps: float,
        *,
        strategy: str = "auto",
    ) -> None:
        if side <= 0 or eps <= 0:
            raise ValueError("side and eps must be positive")
        self._ids = _normalize_ids(cell_ids)
        self._keys = _lex_keys(self._ids)
        self.side = float(side)
        self.eps = float(eps)
        self.dim = self._ids.shape[1]
        if strategy == "auto":
            strategy = (
                "enumerate"
                if (2 * self.reach + 1) ** self.dim <= MAX_ENUMERATED_OFFSETS
                else "kdtree"
            )
        if strategy not in ("enumerate", "kdtree"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self._offsets: np.ndarray | None = None
        self._tree: KDTree | None = None
        self._packed: np.ndarray | None = None
        self._offset_keys: np.ndarray | None = None
        self._pack_lo: np.ndarray | None = None
        self._pack_ext: np.ndarray | None = None
        self._pack_strides: np.ndarray | None = None
        if strategy == "enumerate":
            self._offsets = self._build_offsets()
            self._build_packed_keys()
        else:
            self._build_tree()

    @property
    def cell_ids(self) -> np.ndarray:
        """The sorted ``(C, d)`` id array rows index into."""
        return self._ids

    @property
    def reach(self) -> int:
        """Largest per-axis cell offset between a cell and any of its
        candidates: a box gap within ``eps`` on one axis spans at most
        ``1 + ceil(eps / side)`` cells, under either strategy."""
        return 1 + int(np.ceil(self.eps / self.side))

    def _build_offsets(self) -> np.ndarray:
        offsets = neighbor_cell_offsets(self.dim, radius_cells=self.reach)
        gap = np.maximum(np.abs(offsets) - 1, 0).astype(np.float64) * self.side
        keep = np.einsum("ij,ij->i", gap, gap) <= self.eps**2 * (1 + 1e-12)
        kept = offsets[keep]
        # Lexicographic offset order makes per-query probe rows come out
        # already ascending — the batch path then needs no sort.
        return kept[np.lexsort(kept.T[::-1])]

    def _build_packed_keys(self) -> None:
        """Scalar int64 keys for the batch path: row-major raveling of
        the (bounded) id box preserves lexicographic order, and scalar
        ``searchsorted`` is an order of magnitude faster than the
        structured-dtype one.  Skipped (``_packed is None``) when the id
        extent could overflow the packing."""
        if self._ids.shape[0] == 0:
            return
        lo = self._ids.min(axis=0)
        ext = self._ids.max(axis=0) - lo + 1
        if int(np.prod(ext.astype(object))) >= 1 << 60:
            return
        strides = np.ones(self.dim, dtype=np.int64)
        for axis in range(self.dim - 2, -1, -1):
            strides[axis] = strides[axis + 1] * ext[axis + 1]
        self._pack_lo = lo
        self._pack_ext = ext
        self._pack_strides = strides
        self._packed = ((self._ids - lo) * strides).sum(axis=1)
        assert self._offsets is not None
        self._offset_keys = (self._offsets * strides).sum(axis=1)

    def _build_tree(self) -> None:
        centers = (self._ids.astype(np.float64) + 0.5) * self.side
        self._tree = KDTree(centers)
        # Axis-major ids for the box-gap filter's per-axis gathers.
        self._ids_t = self._ids.T.copy()

    def candidate_rows(self, cell_id: CellId) -> np.ndarray:
        """Ascending dense rows (into :attr:`cell_ids`) of the non-empty
        cells whose box is within ``eps`` of ``cell_id``'s box, including
        ``cell_id`` itself if non-empty.

        Because the backing ids are lexicographically sorted, ascending
        row order *is* lexicographic cell-id order — the deterministic
        candidate ordering every consumer relies on.
        """
        base = np.asarray(cell_id, dtype=np.int64)
        if self._ids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self.strategy == "enumerate":
            assert self._offsets is not None
            probes = base + self._offsets
            pos = np.searchsorted(self._keys, _lex_keys(probes))
            clipped = np.minimum(pos, self._ids.shape[0] - 1)
            hit = np.all(self._ids[clipped] == probes, axis=1) & (
                pos < self._ids.shape[0]
            )
            return np.sort(clipped[hit])
        assert self._tree is not None
        center = (base.astype(np.float64) + 0.5) * self.side
        hits = self._tree.query_ball(center, self._tree_radius())
        if hits.size == 0:
            return np.empty(0, dtype=np.int64)
        owner = np.zeros(hits.size, dtype=np.int64)
        return np.sort(hits[self._box_gap_within(hits, base[None, :], owner)])

    def _tree_radius(self) -> float:
        """Center-distance superset radius of the kd-tree strategy:
        box-box distance <= eps implies center distance <= eps + diagonal."""
        diagonal = self.side * float(np.sqrt(self.dim))
        return self.eps + diagonal * (1 + 1e-12)

    def _box_gap_within(
        self, hits: np.ndarray, bases: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Exact box-to-box test of hit rows against their query cells
        ``bases[owner]``.  Gaps are summed one axis at a time, left to
        right, so no temporary is ``(hits, d)`` and the scalar and batch
        paths share one summation order."""
        bases_t = bases.T.copy()
        gaps = (
            np.maximum(np.abs(self._ids_t[k][hits] - bases_t[k][owner]) - 1, 0).astype(
                np.float64
            )
            * self.side
            for k in range(self.dim)
        )
        return sum_of_squares(gaps, hits.size) <= (self.eps * (1 + 1e-12)) ** 2

    def candidate_rows_batch(
        self, query_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`candidate_rows` for many query cells in one sweep.

        Returns CSR ``(rows, offsets)``: query ``g``'s candidates are
        ``rows[offsets[g]:offsets[g + 1]]``, ascending — identical to
        ``candidate_rows(query_ids[g])``.  On the enumerate strategy the
        whole batch costs one probe build and one ``searchsorted``
        (chunked to bound the probe matrix); on the kd-tree strategy it
        is one batched tree traversal per chunk followed by one
        vectorized box-gap filter.  This is the candidate step of every
        batched sweep: Phase II, batch predict and ingest's dirty marking.
        """
        queries = np.ascontiguousarray(query_ids, dtype=np.int64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"query_ids must be (G, {self.dim})")
        n_queries = queries.shape[0]
        if self._ids.shape[0] == 0 or n_queries == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.zeros(n_queries + 1, dtype=np.int64),
            )
        if self.strategy != "enumerate":
            return self._tree_rows_batch(queries)
        assert self._offsets is not None
        n_offsets = self._offsets.shape[0]
        n_cells = self._ids.shape[0]
        chunk = max(1, (1 << 19) // max(1, n_offsets))
        row_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []
        for begin in range(0, n_queries, chunk):
            batch = queries[begin : begin + chunk]
            if self._packed is not None:
                # Probe keys decompose as key(base) + key(offset), and
                # an in-range probe's key is exact (no collisions), so
                # the whole chunk needs no (g, K, d) probe tensor: per-
                # axis range masks plus one scalar searchsorted.
                rel_base = batch - self._pack_lo
                ok = np.ones((batch.shape[0], n_offsets), dtype=bool)
                for axis in range(self.dim):
                    span = (
                        rel_base[:, axis, None]
                        + self._offsets[None, :, axis]
                    )
                    ok &= (span >= 0) & (span < self._pack_ext[axis])
                probe_keys = (
                    rel_base @ self._pack_strides
                )[:, None] + self._offset_keys[None, :]
                inside = np.nonzero(ok.ravel())[0]
                keys = probe_keys.ravel()[inside]
                pos_in = np.searchsorted(self._packed, keys)
                clip_in = np.minimum(pos_in, n_cells - 1)
                hit = np.zeros(ok.size, dtype=bool)
                hit[inside] = (pos_in < n_cells) & (
                    self._packed[clip_in] == keys
                )
                clipped = np.zeros(ok.size, dtype=np.int64)
                clipped[inside] = clip_in
            else:
                probes = (
                    batch[:, None, :] + self._offsets[None, :, :]
                ).reshape(-1, self.dim)
                pos = np.searchsorted(self._keys, _lex_keys(probes))
                clipped = np.minimum(pos, n_cells - 1)
                hit = np.all(self._ids[clipped] == probes, axis=1) & (
                    pos < n_cells
                )
            per_query = hit.reshape(batch.shape[0], n_offsets)
            counts = per_query.sum(axis=1).astype(np.int64)
            # The offset table is lexicographically sorted, so each
            # query's probes — and therefore its hit rows — are already
            # ascending, matching the scalar path's np.sort.
            row_parts.append(clipped[hit])
            count_parts.append(counts)
        rows = np.concatenate(row_parts)
        offsets = np.concatenate(
            [[0], np.cumsum(np.concatenate(count_parts))]
        ).astype(np.int64)
        return rows, offsets

    def _tree_rows_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """kd-tree branch of :meth:`candidate_rows_batch`."""
        assert self._tree is not None
        n_queries = queries.shape[0]
        radius = self._tree_radius()
        # Chunked so the (query, hit) pair arrays stay bounded; a chunk
        # is sized from the previous one's hits per query.
        chunk = _TREE_CHUNK_QUERIES
        row_parts: list[np.ndarray] = []
        count_parts: list[np.ndarray] = []
        begin = 0
        while begin < n_queries:
            batch = queries[begin : begin + chunk]
            centers = (batch.astype(np.float64) + 0.5) * self.side
            hits, hit_offsets = self._tree.query_ball_batch(centers, radius)
            sizes = np.diff(hit_offsets)
            owner = np.repeat(np.arange(batch.shape[0], dtype=np.int64), sizes)
            keep = self._box_gap_within(hits, batch, owner)
            # Hits ascend within each query and the filter keeps order.
            row_parts.append(hits[keep])
            count_parts.append(np.bincount(owner[keep], minlength=batch.shape[0]))
            begin += batch.shape[0]
            per_query = max(1, int(hits.size) // max(1, batch.shape[0]))
            chunk = max(1, _TREE_PAIR_BUDGET // per_query)
        rows = np.concatenate(row_parts).astype(np.int64)
        offsets = np.zeros(n_queries + 1, dtype=np.int64)
        np.cumsum(np.concatenate(count_parts), out=offsets[1:])
        return rows, offsets

    def candidates(self, cell_id: CellId) -> list[CellId]:
        """Lexicographically sorted candidate cells as tuples.

        ``cell_id`` need not be non-empty; queries from arbitrary cells
        are supported.
        """
        rows = self.candidate_rows(cell_id)
        return [tuple(row) for row in self._ids[rows].tolist()]
