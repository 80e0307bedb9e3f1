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

The full/partial split tests a box per candidate.  The split is sound
for any box that bounds the candidate's sub-cell centers, so the engine
uses the tightest one: the bounding box of the centers themselves,
computed once per engine.  Rounding is monotone, so the box's nearest
and farthest corner distances, accumulated in the distance test's own
order, bracket the computed distance of every center inside it; a
"full" or "outside" verdict is therefore exact, not just likely.  A
candidate holding one sub-cell has a degenerate box: its corner
distances *are* its center's distance, so it is never partial.  A
sharded dictionary does not hold the centers of absent shards and keeps
the grid cell box, which bounds them as well; it builds the boxes a
sweep step needs from its resident cell ids, so a sharded worker holds
no box table beyond its root.

Queries are answered one partition at a time:
:meth:`RegionQueryEngine.query_partition` takes a block of points
grouped by cell and answers every group in one sweep — one batched
candidate search over all the groups' cells, one vectorized box
classification of every (point, candidate) pair, and one segmented
distance pass (:func:`segmented_d2`) over exactly the (point, sub-cell)
elements of the partially contained pairs.  Its cost follows the
distance work, not the number of cells.  The same pass answers Phase
III-2's border checks and predict's open queries.
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

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.core.defragmentation import FlatDefragmentedDictionary
from repro.core.dictionary import FlatCellDictionary, csr_gather_indices
from repro.core.sharding import PartialFlatDictionary
from repro.kernels import get_impl, resolve_kernel
from repro.kernels import warmup as warmup_kernels
from repro.spatial.cell_index import NeighborCellFinder

__all__ = [
    "CellBatchQueryResult",
    "PartitionQueryResult",
    "RegionQueryEngine",
    "box_d2_bounds",
    "budget_runs",
    "center_boxes",
    "segment_reduce",
    "segmented_d2",
]

#: Most (point, candidate) or (point, sub-cell) pairs one step of the
#: sweep holds at once; bounds the sweep's pair arrays.
PAIR_BUDGET = 1 << 16


class _Scratch:
    """Four pair-sized float64 buffers a sweep reuses from step to step.

    They grow to the largest request and are handed out as prefix
    views, so the per-pair temporaries of box classification and the
    distance pass are mapped once per engine, not once per step (the
    allocator would otherwise unmap and fault them in again).  The two
    share them: a step's box bounds are spent before its distances
    start.  The views are valid until the next request."""

    def __init__(self) -> None:
        self._buffer = np.empty((4, 0), dtype=np.float64)

    def __call__(self, size: int) -> np.ndarray:
        if self._buffer.shape[1] < size:
            self._buffer = np.empty((4, size), dtype=np.float64)
        return self._buffer[:, :size]


def budget_runs(ends: np.ndarray):
    """``(begin, stop)`` runs of items holding at most ``PAIR_BUDGET``
    pairs, where items ``begin:stop`` own pairs ``ends[begin]:ends[stop]``
    (``ends`` is ``(n + 1,)``, non-decreasing).  An item with more pairs
    than that is a run alone; items after the last pair get no run.

    The one chunker of the sweep, the distance pass and predict.  It
    reads ``PAIR_BUDGET`` at call time."""
    budget = PAIR_BUDGET
    n = ends.size - 1
    begin = 0
    while begin < n and ends[begin] < ends[n]:
        stop = int(np.searchsorted(ends, ends[begin] + budget, "right")) - 1
        stop = min(n, max(stop, begin + 1))
        yield begin, stop
        begin = stop


def segmented_d2(pts, pair_point, seg_start, seg_size, pool, scratch=None):
    """Squared distances from each pair's query point to its pool segment.

    Pair ``j`` measures ``pts[pair_point[j]]`` against the pool rows
    ``seg_start[j]:seg_start[j] + seg_size[j]``; ``pool`` is axis-major,
    one 1-D coordinate array per axis (``(d, M)``).  Yields ``(j0, j1,
    bounds, rows, d2)`` per chunk of whole pairs ``j0:j1`` holding at
    most ``PAIR_BUDGET`` (pair, pool row) elements — a longer segment is
    a chunk alone: ``rows`` and ``d2`` are the chunk's flat pool rows and
    squared distances, pair ``j``'s at ``bounds[j - j0]:bounds[j - j0 +
    1]``.  An empty segment has no element; a chunk without any is not
    yielded.  ``rows`` and ``d2`` are scratch the next chunk reuses (the
    buffers of ``scratch`` when given, e.g. an engine's, else the
    call's own).

    Each distance accumulates ``diff_0^2 + diff_1^2 + ...`` one axis at
    a time, as :func:`~repro.spatial.distance.seq_squared_distances`
    does, so every within-``eps`` decision is bit-identical to it.
    Every per-element value is one gather into scratch — the pair's
    query coordinate by the element's pair, the pool coordinate by its
    row — and the arithmetic runs in place.
    """
    if scratch is None:
        scratch = _Scratch()
    ends = np.zeros(seg_size.size + 1, dtype=np.int64)
    np.cumsum(seg_size, out=ends[1:])
    for j0, j1 in budget_runs(ends):
        size = int(ends[j1] - ends[j0])
        if size == 0:
            continue
        sizes = seg_size[j0:j1]
        bounds = ends[j0 : j1 + 1] - ends[j0]
        pair = np.repeat(np.arange(j1 - j0, dtype=np.int64), sizes)
        coord, gathered, d2, row_bits = scratch(size)
        rows = csr_gather_indices(
            seg_start[j0:j1], sizes, out=row_bits.view(np.int64)
        )
        owner = pair_point[j0:j1]
        for k, axis in enumerate(pool):
            np.take(pts.T[k][owner], pair, out=coord, mode="clip")
            np.take(axis, rows, out=gathered, mode="clip")
            coord -= gathered
            # 0 + t is t for a square, so the first axis starts the sum.
            if k == 0:
                np.multiply(coord, coord, out=d2)
            else:
                coord *= coord
                d2 += coord
        yield j0, j1, bounds, rows, d2


def segment_reduce(ufunc, values, bounds, out) -> None:
    """``out[j] = ufunc.reduce(values[bounds[j]:bounds[j + 1]])`` for
    every non-empty segment ``j``; an empty one keeps ``out[j]``.

    ``ufunc.reduceat`` alone would give an empty segment the next
    element, not the reduction's identity."""
    live = np.flatnonzero(bounds[1:] > bounds[:-1])
    if live.size == out.size:
        out[:] = ufunc.reduceat(values, bounds[:-1])
    elif live.size:
        out[live] = ufunc.reduceat(values, bounds[live])


def center_boxes(
    centers: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, each ``(d, C)`` (axis-major): the bounding box of
    every CSR block ``centers[offsets[c]:offsets[c + 1]]``.  Every block
    must be non-empty."""
    starts = np.asarray(offsets, dtype=np.int64)[:-1]
    return tuple(
        np.ascontiguousarray(bound.reduceat(centers, starts, axis=0).T)
        for bound in (np.minimum, np.maximum)
    )


def box_d2_bounds(
    pts: np.ndarray,
    pair_counts: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
    pair_box: np.ndarray,
    scratch: _Scratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(min_d2, max_d2)`` per (point, box) pair: the squared distances
    from the pair's point to the nearest and the farthest point of box
    ``pair_box`` (columns of the axis-major ``box_lo``/``box_hi``).
    Pairs are point-major: point ``i`` of ``pts`` owns the next
    ``pair_counts[i]`` of them.

    Summed one axis at a time, in the distance test's order, into a
    fixed few pair-sized arrays.  Rounding is monotone, so the computed
    squared distance of every point inside the box lies between the two
    bounds: ``min_d2 > eps2`` proves none of them is within ``eps`` and
    ``max_d2 <= eps2`` proves all of them are.  Negation is exact, so
    with ``a = x - lo`` and ``b = hi - x`` the gap is ``max(-a, -b, 0)``
    and the far corner ``max(a, b)`` — each axis's terms to the bit.
    With ``scratch`` (an engine's) the arrays, the returned two
    included, are its buffers.
    """
    if scratch is None:
        scratch = _Scratch()
    min_d2, max_d2, below, above = scratch(pair_box.size)
    min_d2[:] = 0.0
    max_d2[:] = 0.0
    for k in range(pts.shape[1]):
        coord = np.repeat(pts[:, k], pair_counts)
        np.take(box_lo[k], pair_box, out=below, mode="clip")
        np.subtract(coord, below, out=below)
        np.take(box_hi[k], pair_box, out=above, mode="clip")
        np.subtract(above, coord, out=above)
        # -gap: the shortfall past the nearer face, 0 inside the box.
        np.minimum(below, above, out=coord)
        np.minimum(coord, 0.0, out=coord)
        coord *= coord
        min_d2 += coord
        np.maximum(below, above, out=below)
        below *= below
        max_d2 += below
    return min_d2, max_d2


def _stage_seconds() -> dict[str, float]:
    """A zeroed ledger of the sweep's stage wall seconds."""
    return dict.fromkeys(("candidates", "classify", "distance"), 0.0)


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
        graph vertex ids.
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
    seconds:
        Wall seconds of the sweep's stages: ``candidates`` (candidate
        search), ``classify`` (box classification) and ``distance``
        (the partial pass, or the kernel call).
    """

    counts: np.ndarray
    cand_rows: np.ndarray
    cand_offsets: np.ndarray
    touched: np.ndarray
    seconds: dict[str, float] = field(default_factory=dict)


class RegionQueryEngine:
    """Executes (eps, rho)-region queries over a cell dictionary.

    Parameters
    ----------
    dictionary:
        A :class:`FlatCellDictionary`, its defragmented wrapper (enables
        sub-dictionary-skipping accounting), or a
        :class:`PartialFlatDictionary` (budgeted shard residency);
        results are identical in every case.
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
            FlatCellDictionary | FlatDefragmentedDictionary | PartialFlatDictionary
        ),
        *,
        strategy: str = "auto",
        kernel: str = "numpy",
    ) -> None:
        # A defragmented wrapper, or a partial dictionary (its residency
        # oracle), records which pieces each query consults.
        if isinstance(dictionary, FlatDefragmentedDictionary):
            self._recorder = dictionary
            inner = dictionary.dictionary
        else:
            inner = dictionary
            self._recorder = inner if isinstance(inner, PartialFlatDictionary) else None
        self._dict = inner
        self.kernel = resolve_kernel(kernel)
        self._impl = get_impl(self.kernel) if self.kernel != "numpy" else None
        self.geometry: CellGeometry = inner.geometry
        # The finder consumes the lexicographically sorted id array, so
        # its rows are the dictionary's dense indices and every candidate
        # list comes back in a deterministic (lexicographic) order.
        self._finder = NeighborCellFinder(
            inner.cell_ids,
            self.geometry.side,
            self.geometry.eps,
            strategy=strategy,
        )
        self.strategy = self._finder.strategy
        self._scratch = _Scratch()
        # Per-row root densities and sub-cell block sizes.
        self._cell_counts = np.asarray(inner.cell_counts, dtype=np.float64)
        offsets = np.asarray(inner.offsets, dtype=np.int64)
        self._sub_sizes = np.diff(offsets)
        # Monolithic CSR arrays (incl. the defragmented wrapper's) are
        # the sub-cell pool itself: a sweep indexes them by offset and
        # never copies a block.  A sharded dictionary gathers the blocks
        # a sweep step needs into a pool instead.
        if isinstance(inner, FlatCellDictionary):
            centers = inner.sub_centers
            self._csr_pool = (
                centers,
                np.asarray(inner.sub_counts, dtype=np.float64),
                offsets,
            )
            # The distance pass gathers one axis at a time: an
            # axis-major copy keeps each gather contiguous.
            self._center_axes = np.ascontiguousarray(centers.T)
            # Candidate boxes (axis-major): the bounds of each cell's
            # sub-cell centers.  Every cell owns at least one sub-cell.
            self._boxes = center_boxes(centers, offsets)
        else:
            self._csr_pool = None
            self._center_axes = None
            # Grid boxes, built per sweep step from the resident cell
            # ids: no table beyond the root, outside the shard budget.
            self._boxes = None

    # ------------------------------------------------------------------
    # Candidate cells
    # ------------------------------------------------------------------

    def candidate_cells(self, cell_id: CellId) -> list[CellId]:
        """Non-empty cells whose box lies within ``eps`` of ``cell_id``'s
        box — a superset of every point-level candidate set for points in
        that cell.  Lexicographically ordered."""
        return self._finder.candidates(cell_id)

    def candidate_rows_batch(
        self, cell_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR candidate rows of many cells, ascending per cell (see
        :meth:`~repro.spatial.cell_index.NeighborCellFinder.candidate_rows_batch`)."""
        return self._finder.candidate_rows_batch(cell_ids)

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
        seeds: np.ndarray | None = None,
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

        ``seeds`` (``(n,)``, optional) starts each point's count from
        a density already known, e.g. its count against the points of an
        earlier dictionary when this one holds only newer points.  The
        returned counts are then seed + density here, and touch is
        folded against that total.
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
        seconds = _stage_seconds()
        clock = time.perf_counter()
        cand_rows, cand_offsets = self._candidates(cells)
        seconds["candidates"] = time.perf_counter() - clock
        if seeds is None:
            counts = np.zeros(pts.shape[0], dtype=np.float64)
        else:
            counts = np.array(seeds, dtype=np.float64)
            if counts.shape != (pts.shape[0],):
                raise ValueError("seeds must be (n,), one per point")
        touched = np.zeros(cand_rows.size, dtype=bool)
        for pair_point, pair_slot, touch in self._sweep(
            pts, bounds, cand_rows, cand_offsets, counts, seconds
        ):
            reach = touch & (counts[pair_point] >= min_count)
            touched[pair_slot[reach]] = True
        return PartitionQueryResult(
            counts, cand_rows, cand_offsets, touched, seconds
        )

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

    def _sweep(self, pts, bounds, cand_rows, cand_offsets, counts, seconds):
        """Add every point's density into ``counts``, one step at a time.

        Yields each step's ``(pair_point, pair_slot, touch)``, one entry
        per (point, candidate) pair, point-major.  A step holds whole
        points and at most ``PAIR_BUDGET`` pairs (a point with more
        candidates than that is a step by itself), so a point's count is
        final when its step is yielded.  Stage wall seconds add into
        ``seconds``.
        """
        point_pair = np.zeros(pts.shape[0] + 1, dtype=np.int64)
        np.cumsum(
            np.repeat(np.diff(cand_offsets), np.diff(bounds)), out=point_pair[1:]
        )
        for begin, stop in budget_runs(point_pair):
            yield self._sweep_step(
                pts, bounds, cand_rows, cand_offsets, point_pair, begin, stop,
                counts, seconds,
            )

    def _sweep_step(
        self, pts, bounds, cand_rows, cand_offsets, point_pair, begin, stop,
        counts, seconds,
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
        clock = time.perf_counter()
        near, full = self._classify_pairs(step_pts, step_m, rows, pair_slot)
        slot_counts = self._cell_counts[rows]
        step_counts = counts[begin:stop]
        touch = np.zeros(n_pairs, dtype=bool)
        partial = near & ~full
        classified = time.perf_counter()
        seconds["classify"] += classified - clock
        seg_start, seg_size, centers, densities = self._slot_pool(
            rows, pair_slot, partial
        )
        if self._impl is not None:
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
                touch,
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
            # sub-cell centers, one (pair, sub-cell) element each.
            part = np.flatnonzero(partial)
            if part.size:
                slots = pair_slot[part]
                self._partial_pass(
                    step_pts, pair_pt[part], seg_start[slots], seg_size[slots],
                    centers, densities, step_counts, part, touch,
                )
        seconds["distance"] += time.perf_counter() - classified
        return begin + pair_pt, slot_base + pair_slot, touch

    def _classify_pairs(
        self,
        pts: np.ndarray,
        pair_counts: np.ndarray,
        rows: np.ndarray,
        pair_row: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(near, full)`` per (point, candidate) pair: is the point's
        minimum / maximum distance to the box of candidate
        ``rows[pair_row]`` within ``eps``?  Point ``i`` owns the next
        ``pair_counts[i]`` pairs.  Shared by every backend, and exact
        (:func:`box_d2_bounds`)."""
        eps2 = self.geometry.eps * self.geometry.eps
        if self._boxes is not None:
            # Each pair reads its candidate's column of the engine table.
            lo, hi = self._boxes
            pair_box = rows[pair_row]
        else:
            side = self.geometry.side
            lo = self._finder.cell_ids[rows].T.astype(np.float64) * side
            hi = lo + side
            pair_box = pair_row
        min_d2, max_d2 = box_d2_bounds(
            pts, pair_counts, lo, hi, pair_box, self._scratch
        )
        return min_d2 <= eps2, max_d2 <= eps2

    def _subcell_pool(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(centers, densities, starts)``: a pool holding the sub-cell
        blocks of ``rows`` and each row's block start in it.

        On a monolithic dictionary the pool is the dictionary itself; a
        sharded one gathers the distinct rows once, attaching only the
        shards those rows live in."""
        if self._csr_pool is not None:
            centers, densities, offsets = self._csr_pool
            return centers, densities, offsets[rows]
        distinct, inverse = np.unique(rows, return_inverse=True)
        centers, densities, sizes = self._dict.gather_subcells(distinct)
        starts = np.zeros(distinct.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        return centers, densities, starts[inverse.reshape(-1)]

    def _slot_pool(self, slot_rows, pair_slot, partial):
        """``(seg_start, seg_size, centers, densities)``: the sub-cell
        pool of one step and, per step slot, its candidate's segment in
        it — set for the slots some partial pair reads, empty elsewhere.
        Every backend's distance work reads this one prep."""
        n_slots = slot_rows.size
        seg_start = np.zeros(n_slots, dtype=np.int64)
        seg_size = np.zeros(n_slots, dtype=np.int64)
        slots = _partial_slots(pair_slot, partial, n_slots)
        if slots.size == 0:
            return (
                seg_start,
                seg_size,
                np.empty((0, self.geometry.dim), dtype=np.float64),
                np.empty(0, dtype=np.float64),
            )
        rows = slot_rows[slots]
        centers, densities, starts = self._subcell_pool(rows)
        seg_start[slots] = starts
        seg_size[slots] = self._sub_sizes[rows]
        return seg_start, seg_size, centers, densities

    def _partial_pass(
        self, step_pts, pair_pt, seg_start, seg_size, centers, densities,
        step_counts, pairs, step_touch,
    ) -> None:
        """The vectorized reference backend (``kernel="numpy"``) for the
        partially contained pairs of one step (step pairs ``pairs``;
        pair ``j`` is point ``pair_pt[j]`` against its candidate's pool
        segment): a point's count gains the densities of the sub-cells
        within ``eps``, and a pair touches when any of them is — the
        :mod:`repro.kernels.phase2` loop, vectorized over pairs."""
        eps2 = self.geometry.eps * self.geometry.eps
        axes = (
            self._center_axes
            if self._center_axes is not None
            else np.ascontiguousarray(centers.T)
        )
        sums = np.zeros(pairs.size, dtype=np.float64)
        hits = np.zeros(pairs.size, dtype=bool)
        for j0, j1, bounds, rows, d2 in segmented_d2(
            step_pts, pair_pt, seg_start, seg_size, axes, self._scratch
        ):
            within = d2 <= eps2
            # The chunk's distances are spent: their scratch takes the
            # densities of the rows within eps.
            np.take(densities, rows, out=d2, mode="clip")
            d2 *= within
            segment_reduce(np.add, d2, bounds, sums[j0:j1])
            segment_reduce(np.logical_or, within, bounds, hits[j0:j1])
        step_counts += np.bincount(pair_pt, weights=sums, minlength=step_counts.size)
        step_touch[pairs] = hits

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
                pts, np.array([0, n], dtype=np.int64), rows, offsets, counts,
                _stage_seconds(),
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
