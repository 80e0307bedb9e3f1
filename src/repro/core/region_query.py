"""(eps, rho)-region queries against the two-level cell dictionary.

Definition 5.1: a sub-cell is an *(eps, rho)-neighbor* of a point ``p``
when the sub-cell's center is within ``eps`` of ``p``.  The query runs
entirely against the broadcast dictionary, so a worker can measure the
density around any of its points without talking to other workers.

Processing follows Example 5.5: candidate cells near the query are found
first (offset enumeration in low dimensions, kd-tree over non-empty cell
centers in high dimensions — Lemma 5.6); a candidate *fully contained*
in the query ball contributes all of its sub-cells at once, a *partially
contained* candidate contributes the sub-cells whose centers pass the
distance test, and candidates outside the ball are dropped.

Queries are answered one partition at a time:
:meth:`RegionQueryEngine.query_partition` takes a block of points
grouped by cell and answers every group in one sweep — one batched
candidate search over all the groups' cells, one vectorized box
classification of every (point, candidate) pair, one gather of the
sub-cells of the partially contained candidates, and one dense
distance block per cell over them.  Its cost follows the distance
work, not the number of cells.
:meth:`~RegionQueryEngine.query_cell_batch` is the sweep's one-group
case.

Query contract: a group's points are tested against the candidate cells
of the group's cell id — the non-empty cells whose box lies within
``eps`` of that cell's box.  For a point inside that cell this candidate
set holds every sub-cell center within ``eps`` of it, so its count is
its full (eps, rho)-neighbor density (Phase II's case).  A point outside
the group's cell may be queried too; it gets the density of its
neighbor sub-cells among those candidates only.

The distance work is done by one of two interchangeable backends behind
the ``kernel`` switch: the vectorized ``numpy`` path below, or the
compiled :mod:`repro.kernels` loop (``numba``; ``python`` runs the same
loop uncompiled).  Candidate search and candidate-box classification
are shared by every backend — the kernel seam starts *after* the
candidate set is fixed, which is what keeps it strategy-agnostic (a
sampled or kNN-graph region-query strategy plugs in above the seam, the
kernels below it).  All backends are bit-identical; see
:mod:`repro.kernels.phase2` for the floating-point contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.core.defragmentation import (
    DefragmentedDictionary,
    FlatDefragmentedDictionary,
)
from repro.core.dictionary import (
    CellDictionary,
    FlatCellDictionary,
    csr_gather_indices,
)
from repro.core.sharding import PartialFlatDictionary
from repro.kernels import get_impl, resolve_kernel
from repro.kernels import warmup as warmup_kernels
from repro.spatial.cell_index import NeighborCellFinder
from repro.spatial.distance import seq_squared_distances

__all__ = ["CellBatchQueryResult", "PartitionQueryResult", "RegionQueryEngine"]

#: Most (point, candidate) or (point, sub-cell) pairs one step of the
#: sweep holds at once; bounds the sweep's pair arrays.
PAIR_BUDGET = 1 << 16


def _partial_slots(
    pair_slot: np.ndarray, partial: np.ndarray, n_slots: int
) -> np.ndarray:
    """Ascending step-local candidate slots partially contained for at
    least one point of a sweep step (``n_slots`` is the step's)."""
    used = np.zeros(n_slots, dtype=bool)
    used[pair_slot[partial]] = True
    return np.flatnonzero(used)


@dataclass
class CellBatchQueryResult:
    """Answers for all points of one cell.

    Attributes
    ----------
    candidate_ids:
        The non-empty cells that could hold (eps, rho)-neighbors, in
        lexicographic order.
    counts:
        ``(n,)`` float64: for each query point, the sum of densities of
        its (eps, rho)-neighbor sub-cells — the approximate
        ``|N_eps(p)|`` used for core marking (Algorithm 3 line 8).
    touch:
        ``(n, len(candidate_ids))`` bool: ``touch[i, j]`` is ``True``
        when point ``i`` has at least one neighbor sub-cell inside
        candidate cell ``j`` — the reachability used for edge building
        (Algorithm 3 line 13).
    candidate_rows:
        ``(len(candidate_ids),)`` int64: the candidates' dense rows in
        the dictionary's sorted cell order — directly usable as cell
        graph vertex ids, no per-tuple ``index_map`` lookups.
    """

    candidate_ids: list[CellId]
    counts: np.ndarray
    touch: np.ndarray
    candidate_rows: np.ndarray | None = None


@dataclass
class PartitionQueryResult:
    """Answers for a block of points grouped by cell (one sweep).

    Group ``g`` owns candidate *slots* ``cand_offsets[g]:cand_offsets[g
    + 1]``; slot ``s`` is dictionary row ``cand_rows[s]``, ascending
    within a group.

    Attributes
    ----------
    counts:
        ``(n,)`` float64 neighbor densities, aligned with the points.
    cand_rows, cand_offsets:
        CSR candidate rows per group.
    touched:
        ``(K,)`` bool per slot: a point of the slot's group whose count
        reaches the sweep's ``min_count`` has a neighbor sub-cell in the
        slot's cell.  With ``min_count = minPts`` this is Algorithm 3
        line 13's reachability from the group's core points.
    """

    counts: np.ndarray
    cand_rows: np.ndarray
    cand_offsets: np.ndarray
    touched: np.ndarray


class RegionQueryEngine:
    """Executes (eps, rho)-region queries over a cell dictionary.

    Parameters
    ----------
    dictionary:
        A :class:`CellDictionary` or :class:`FlatCellDictionary`, their
        defragmented wrappers (enables sub-dictionary-skipping
        accounting), or a :class:`PartialFlatDictionary` (budgeted shard
        residency); results are identical in every case.
    strategy:
        Candidate-cell search: ``"enumerate"`` (integer offsets),
        ``"kdtree"`` (tree over non-empty cell centers), or ``"auto"``
        (enumerate while the offset table stays small).
    kernel:
        Distance backend: ``"numpy"`` (vectorized reference, default),
        ``"numba"`` (compiled :mod:`repro.kernels` loop; raises
        :class:`~repro.kernels.KernelUnavailableError` when numba is
        absent), ``"python"`` (the kernel source uncompiled — the
        conformance suite's reference), or ``"auto"`` (numba when
        importable, else numpy).  Results are bit-identical across
        backends.
    """

    def __init__(
        self,
        dictionary: (
            CellDictionary
            | FlatCellDictionary
            | DefragmentedDictionary
            | FlatDefragmentedDictionary
            | PartialFlatDictionary
        ),
        *,
        strategy: str = "auto",
        kernel: str = "numpy",
    ) -> None:
        # A defragmented wrapper, or a partial dictionary (its residency
        # oracle), records which pieces each query consults.
        if isinstance(dictionary, (DefragmentedDictionary, FlatDefragmentedDictionary)):
            self._recorder = dictionary
            inner = dictionary.dictionary
        else:
            inner = dictionary
            self._recorder = inner if isinstance(inner, PartialFlatDictionary) else None
        self._dict = inner
        self.kernel = resolve_kernel(kernel)
        self._impl = get_impl(self.kernel) if self.kernel != "numpy" else None
        self.geometry: CellGeometry = inner.geometry
        flat = isinstance(inner, (FlatCellDictionary, PartialFlatDictionary))
        # The finder consumes the lexicographically sorted id array, so
        # its rows are the dictionary's dense indices and every candidate
        # list comes back in a deterministic (lexicographic) order.
        ids = inner.cell_ids if flat else inner.cell_ids_array()
        self._finder = NeighborCellFinder(
            ids,
            self.geometry.side,
            self.geometry.eps,
            strategy=strategy,
        )
        self.strategy = self._finder.strategy
        # Per-row root densities and sub-cell block sizes, for every
        # layout; the lists follow the sorted (dense row) order.
        if flat:
            self._cell_counts = np.asarray(inner.cell_counts, dtype=np.float64)
            self._sub_sizes = np.diff(np.asarray(inner.offsets, dtype=np.int64))
        else:
            summaries = [inner.cells[tuple(row)] for row in ids.tolist()]
            self._cell_counts = np.array(
                [s.count for s in summaries], dtype=np.float64
            )
            self._sub_sizes = np.array(
                [s.num_subcells for s in summaries], dtype=np.int64
            )
        # Monolithic CSR arrays (the flat layout, incl. its defragmented
        # wrapper) are the sub-cell pool itself: a sweep indexes them by
        # offset and never copies a block.  The sharded and dict layouts
        # gather the blocks a sweep step needs into a pool instead.
        if isinstance(inner, FlatCellDictionary):
            self._csr_pool = (
                inner.sub_centers,
                np.asarray(inner.sub_counts, dtype=np.float64),
                np.asarray(inner.offsets, dtype=np.int64),
            )
        else:
            self._csr_pool = None

    # ------------------------------------------------------------------
    # Candidate cells
    # ------------------------------------------------------------------

    def candidate_cells(self, cell_id: CellId) -> list[CellId]:
        """Non-empty cells whose box lies within ``eps`` of ``cell_id``'s
        box — a superset of every point-level candidate set for points in
        that cell.  Lexicographically ordered."""
        return self._finder.candidates(cell_id)

    # ------------------------------------------------------------------
    # Kernel warm-up
    # ------------------------------------------------------------------

    def warmup_kernel(self) -> float:
        """Compile the numba kernel for this engine's dimensionality.

        Invoked from the Phase II warm-up hook during broadcast
        installation, so JIT compilation is charged to the
        ``engine.setup`` bucket and never to a phase timing.  Returns
        the seconds spent compiling (0.0 for non-numba backends or when
        the signature is already warm).
        """
        if self.kernel != "numba":
            return 0.0
        return warmup_kernels(self.geometry.dim)

    # ------------------------------------------------------------------
    # The sweep (Phase II hot path)
    # ------------------------------------------------------------------

    def query_partition(
        self,
        cell_ids: np.ndarray,
        points: np.ndarray,
        point_offsets: np.ndarray,
        min_count: float,
    ) -> PartitionQueryResult:
        """Run the (eps, rho)-region query for every point of a block.

        ``cell_ids`` is ``(G, d)`` int64; group ``g``'s points are
        ``points[point_offsets[g]:point_offsets[g + 1]]`` and are tested
        against the candidates of ``cell_ids[g]`` (see the module
        docstring for the contract).  Counts align with ``points``; a
        candidate slot is :attr:`~PartitionQueryResult.touched` when a
        point of its group with a count of at least ``min_count``
        reaches it.  Touch is folded into those flags one step at a
        time, so no per-pair array outlives its step.
        """
        cells = np.ascontiguousarray(cell_ids, dtype=np.int64).reshape(
            -1, self.geometry.dim
        )
        pts = self._query_points(points)
        bounds = np.asarray(point_offsets, dtype=np.int64)
        if (
            bounds.shape != (cells.shape[0] + 1,)
            or bounds[0] != 0
            or bounds[-1] != pts.shape[0]
            or np.any(np.diff(bounds) < 0)
        ):
            raise ValueError("point_offsets must be (G + 1,) CSR bounds over points")
        cand_rows, cand_offsets = self._candidates(cells)
        counts = np.zeros(pts.shape[0], dtype=np.float64)
        touched = np.zeros(cand_rows.size, dtype=bool)
        for pair_point, pair_slot, touch in self._sweep(
            pts, bounds, cand_rows, cand_offsets, counts
        ):
            reach = touch & (counts[pair_point] >= min_count)
            touched[pair_slot[reach]] = True
        return PartitionQueryResult(counts, cand_rows, cand_offsets, touched)

    def _query_points(self, points: np.ndarray) -> np.ndarray:
        """``points`` as a C-contiguous float64 ``(n, d)`` block."""
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.geometry.dim:
            raise ValueError(f"points must be (n, {self.geometry.dim})")
        return pts

    def _candidates(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR candidate rows of ``cells``, recorded as consulted."""
        cand_rows, cand_offsets = self._finder.candidate_rows_batch(cells)
        if self._recorder is not None:
            self._recorder.record_rows_consulted_batch(cand_rows, cand_offsets)
        return cand_rows, cand_offsets

    def _sweep(self, pts, bounds, cand_rows, cand_offsets, counts):
        """Answer every point into ``counts``, one step at a time.

        Yields each step's ``(pair_point, pair_slot, touch)``, one entry
        per (point, candidate) pair, point-major.  A step holds whole
        points and at most ``PAIR_BUDGET`` pairs (a point with more
        candidates than that is a step by itself), so a point's count is
        final when its step is yielded.
        """
        n = pts.shape[0]
        point_pair = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.repeat(np.diff(cand_offsets), np.diff(bounds)), out=point_pair[1:]
        )
        begin = 0
        while begin < n and point_pair[begin] < point_pair[n]:
            stop = int(
                np.searchsorted(point_pair, point_pair[begin] + PAIR_BUDGET, "right")
            ) - 1
            stop = min(n, max(stop, begin + 1))
            yield self._sweep_step(
                pts, bounds, cand_rows, cand_offsets, point_pair, begin, stop, counts
            )
            begin = stop

    def _sweep_step(
        self, pts, bounds, cand_rows, cand_offsets, point_pair, begin, stop, counts
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classify and answer the pairs of points ``begin:stop``.

        The step's candidate slots are one contiguous range of
        ``cand_rows``; the step works on slot indices local to it, so
        its scratch is sized to the step, not to the partition."""
        group = np.searchsorted(bounds, np.arange(begin, stop), "right") - 1
        step_slot = cand_offsets[group]
        step_m = cand_offsets[group + 1] - step_slot
        slot_base = int(step_slot[0])
        rows = cand_rows[slot_base : int(step_slot[-1] + step_m[-1])]
        step_slot -= slot_base
        step_pair = point_pair[begin:stop] - point_pair[begin]
        n_pairs = int(point_pair[stop] - point_pair[begin])
        # Step-local point and slot of every pair.
        pair_pt = np.repeat(np.arange(stop - begin, dtype=np.int64), step_m)
        pair_slot = step_slot[pair_pt] + (
            np.arange(n_pairs, dtype=np.int64) - step_pair[pair_pt]
        )
        step_pts = pts[begin:stop]
        near, full = self._classify_pairs(step_pts, pair_pt, rows, pair_slot)
        slot_counts = self._cell_counts[rows]
        step_counts = counts[begin:stop]
        touch = np.zeros(n_pairs, dtype=bool)
        if self._impl is not None:
            self._step_kernel(
                step_pts, step_pair, step_slot, step_m, pair_slot,
                rows, near, full, slot_counts, step_counts, touch,
            )
        else:
            # Fully-contained candidates (Example 5.5 case 1): every
            # sub-cell center is a neighbor, so the root density counts
            # wholesale.
            full_pairs = np.flatnonzero(full)
            step_counts += np.bincount(
                pair_pt[full_pairs],
                weights=slot_counts[pair_slot[full_pairs]],
                minlength=stop - begin,
            )
            touch[full_pairs] = True
            # Partially-contained candidates (case 2): test their
            # sub-cell centers.
            partial = near & ~full
            if partial.any():
                self._partial_dense(
                    step_pts, step_pair, step_m, step_slot, pair_slot,
                    partial, rows, step_counts, touch,
                )
        return begin + pair_pt, slot_base + pair_slot, touch

    def _classify_pairs(
        self,
        pts: np.ndarray,
        pair_pt: np.ndarray,
        rows: np.ndarray,
        pair_row: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(near, full)`` per (point, candidate) pair: is the point's
        minimum / maximum distance to the box of candidate
        ``rows[pair_row]`` within ``eps``?  Shared by every backend;
        summed one axis at a time so no temporary is ``(pairs, d)``."""
        side = self.geometry.side
        eps2 = self.geometry.eps * self.geometry.eps
        min_d2 = np.zeros(pair_pt.size, dtype=np.float64)
        max_d2 = np.zeros(pair_pt.size, dtype=np.float64)
        for k in range(self.geometry.dim):
            lo = self._finder.cell_ids[rows, k].astype(np.float64) * side
            diff_lo = lo[pair_row] - pts[pair_pt, k]
            diff_hi = -diff_lo - side  # pts - (lo + side)
            gap = np.maximum(np.maximum(diff_lo, diff_hi), 0.0)
            min_d2 += gap * gap
            corner = np.maximum(np.abs(diff_lo), np.abs(diff_hi))
            max_d2 += corner * corner
        return min_d2 <= eps2, max_d2 <= eps2

    def _subcell_pool(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(centers, densities, starts)``: a pool holding the sub-cell
        blocks of ``rows`` and each row's block start in it.

        On the monolithic CSR layouts the pool is the dictionary itself;
        otherwise the distinct rows are gathered once (sharded layouts
        attach only the shards those rows live in)."""
        if self._csr_pool is not None:
            centers, densities, offsets = self._csr_pool
            return centers, densities, offsets[rows]
        distinct, inverse = np.unique(rows, return_inverse=True)
        if isinstance(self._dict, PartialFlatDictionary):
            centers, densities, sizes = self._dict.gather_subcells(distinct)
        else:
            cell_ids = self._finder.cell_ids[distinct].tolist()
            blocks = [self._dict.sub_cell_centers(tuple(c)) for c in cell_ids]
            centers = np.concatenate(blocks)
            densities = np.concatenate(
                [self._dict.densities(tuple(c)) for c in cell_ids]
            )
            sizes = self._sub_sizes[distinct]
        starts = np.zeros(distinct.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        return centers, densities, starts[inverse.reshape(-1)]

    def _partial_dense(
        self, step_pts, step_pair, step_m, step_slot, pair_slot, partial,
        slot_rows, step_counts, step_touch,
    ) -> None:
        """The vectorized reference backend (``kernel="numpy"``) for the
        partially contained pairs of one step: one pool gather for the
        step, then one dense ``(points, sub-cells)`` block per cell."""
        eps2 = self.geometry.eps * self.geometry.eps
        part_slots = _partial_slots(pair_slot, partial, slot_rows.size)
        rows = slot_rows[part_slots]
        sizes = self._sub_sizes[rows]
        centers, densities, starts = self._subcell_pool(rows)
        sub = csr_gather_indices(starts, sizes)
        block_centers = centers[sub]
        block_densities = densities[sub]
        block_slot = np.repeat(part_slots, sizes)
        ends = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=ends[1:])
        # Runs of points sharing a cell (a cell may straddle two steps);
        # a cell without candidates shares its first slot with the next
        # cell, so a run also ends where the candidate count changes.
        n = step_slot.size
        change = np.flatnonzero(
            (step_slot[1:] != step_slot[:-1]) | (step_m[1:] != step_m[:-1])
        ) + 1
        run_lo = np.concatenate(([0], change))
        run_hi = np.concatenate((change, [n]))
        run_slot = step_slot[run_lo]
        first = np.searchsorted(part_slots, run_slot)
        last = np.searchsorted(part_slots, run_slot + step_m[run_lo])
        for lo, hi, a, b, s0 in zip(
            run_lo.tolist(), run_hi.tolist(), first.tolist(), last.tolist(),
            run_slot.tolist(),
        ):
            if a == b:
                continue
            m = int(step_m[lo])
            c0, c1 = int(ends[a]), int(ends[b])
            cols = part_slots[a:b] - s0
            sub_cols = block_slot[c0:c1] - s0
            seg_starts = ends[a:b] - c0
            # Rows per dense block, so a block holds at most PAIR_BUDGET
            # (point, sub-cell) pairs.
            rows_per_block = max(1, PAIR_BUDGET // (c1 - c0))
            for r0 in range(lo, hi, rows_per_block):
                r1 = min(hi, r0 + rows_per_block)
                q0 = int(step_pair[r0])
                q1 = q0 + (r1 - r0) * m
                within = (
                    seq_squared_distances(step_pts[r0:r1], block_centers[c0:c1])
                    <= eps2
                )
                within &= partial[q0:q1].reshape(r1 - r0, m)[:, sub_cols]
                step_counts[r0:r1] += within @ block_densities[c0:c1]
                hits = np.logical_or.reduceat(within, seg_starts, axis=1)
                step_touch[q0:q1].reshape(r1 - r0, m)[:, cols] |= hits

    def _step_kernel(
        self, step_pts, step_pair, step_slot, step_m, pair_slot,
        slot_rows, near, full, slot_counts, step_counts, step_touch,
    ) -> None:
        """The compiled backend (``kernel="numba"``; ``"python"`` runs
        the same source uncompiled).  Bit-identical to the numpy path:
        the within decision shares the sequential per-dimension
        accumulation and density sums are exact integer arithmetic in
        float64 (see :mod:`repro.kernels.phase2`)."""
        n_slots = slot_rows.size
        seg_start = np.zeros(n_slots, dtype=np.int64)
        seg_size = np.zeros(n_slots, dtype=np.int64)
        partial_slots = _partial_slots(pair_slot, near & ~full, n_slots)
        if partial_slots.size:
            rows = slot_rows[partial_slots]
            centers, densities, starts = self._subcell_pool(rows)
            seg_start[partial_slots] = starts
            seg_size[partial_slots] = self._sub_sizes[rows]
        else:
            centers = np.empty((0, self.geometry.dim), dtype=np.float64)
            densities = np.empty(0, dtype=np.float64)
        self._impl(
            step_pts,
            step_pair,
            step_slot,
            step_m,
            near,
            full,
            slot_counts,
            seg_start,
            seg_size,
            centers,
            densities,
            self.geometry.eps * self.geometry.eps,
            step_counts,
            step_touch,
        )

    # ------------------------------------------------------------------
    # One-cell and single-point queries (tests, exploration)
    # ------------------------------------------------------------------

    def query_cell_batch(self, cell_id: CellId, points: np.ndarray) -> CellBatchQueryResult:
        """The sweep's one-group case: every point of ``points`` queried
        against the candidates of ``cell_id`` (see the module docstring
        for the contract); the result aligns with the row order of
        ``points`` and keeps every point's touch row."""
        pts = self._query_points(points)
        n = pts.shape[0]
        rows, offsets = self._candidates(
            np.asarray(cell_id, dtype=np.int64).reshape(1, self.geometry.dim)
        )
        counts = np.zeros(n, dtype=np.float64)
        # Steps come in pair order, so their touch arrays concatenate
        # into the row-major (n, m) matrix.
        steps = [
            touch
            for _, _, touch in self._sweep(
                pts, np.array([0, n], dtype=np.int64), rows, offsets, counts
            )
        ]
        touch = np.concatenate(steps) if steps else np.zeros(0, dtype=bool)
        return CellBatchQueryResult(
            candidate_ids=[tuple(row) for row in self._finder.cell_ids[rows].tolist()],
            counts=counts,
            touch=touch.reshape(n, rows.size),
            candidate_rows=rows,
        )

    def query_point(self, point: np.ndarray) -> tuple[float, list[CellId]]:
        """Approximate neighbor count and touched cells for one point.

        Returns ``(count, cells)`` where ``count`` is the density sum of
        the point's (eps, rho)-neighbor sub-cells and ``cells`` are the
        cells contributing at least one neighbor sub-cell.
        """
        p = np.asarray(point, dtype=np.float64)
        cell_id = self.geometry.grid.cell_id_of(p)
        result = self.query_cell_batch(cell_id, p[None, :])
        touched = [
            cid for j, cid in enumerate(result.candidate_ids) if result.touch[0, j]
        ]
        return float(result.counts[0]), touched

    def neighbor_subcells(self, point: np.ndarray) -> list[tuple[CellId, np.ndarray]]:
        """The (eps, rho)-neighbor sub-cells of ``point`` (Def 5.1).

        Returns ``(cell_id, mask)`` pairs where ``mask`` flags the
        cell's sub-cells whose centers are within ``eps``.  This is the
        literal ``NSC`` set of Algorithm 3; the sweep is the optimized
        equivalent.
        """
        p = np.asarray(point, dtype=np.float64)
        eps = self.geometry.eps
        cell_id = self.geometry.grid.cell_id_of(p)
        out: list[tuple[CellId, np.ndarray]] = []
        for candidate in self.candidate_cells(cell_id):
            centers = self._dict.sub_cell_centers(candidate)
            diff = centers - p
            mask = np.einsum("ij,ij->i", diff, diff) <= eps * eps
            if mask.any():
                out.append((candidate, mask))
        return out
