"""Assigning new points to an existing clustering (library extension).

Not part of the paper, but the natural deployment step after it: once a
data set has been clustered, classify *new* points against the result
without re-running DBSCAN.  The rule is DBSCAN's own border rule: a new
point joins the cluster of the nearest core point within ``eps``,
otherwise it is noise.

The model is a **thin cell-level view** over the fitted clustering: the
core points are grouped by cell into the same columnar layout the fit
itself broadcasts — a :class:`~repro.core.dictionary.FlatCellDictionary`
whose lex-sorted cell ids give binary-search lookup, whose CSR offsets
give per-cell center-block gathers, and whose ``sub_centers``/
``sub_counts`` columns carry the actual core points and their cluster
labels.  Because the payload *is* a flat dictionary, a model broadcast
through the engine rides the existing shared-memory channel unchanged:
the export pickler hoists the table into one segment and every worker
serves zero-copy views of it.

**Settle before measuring.**  Phase III-2 labels a core cell as a
whole, so every core point of a fitted cell carries its cell's cluster
label, and most queries are decided by cell boxes alone.  Next to the
table the model keeps, per cell, the bounding box of its core points
(:func:`~repro.core.region_query.center_boxes`, which builds Phase
II's candidate boxes over sub-cell centers) and the lowest and highest
label among them.  Every (query, candidate cell) pair gets the squared
distances to the nearest and farthest point of that box from
:func:`~repro.core.region_query.box_d2_bounds`, Phase II's own
classification: the candidate is *near* when the first is within
``eps``, *full* when the second is.  A query then resolves one of
three ways:

* no near candidate: no core point is within ``eps``; it is noise;
* every near candidate has one label ``L`` (lowest == highest) and at
  least one of them is full: some core is within ``eps`` and every
  core within ``eps`` is labelled ``L``, so the answer is ``L``;
* otherwise the query is *open*, and only open queries measure
  distances: to the core points of their near candidates, in candidate
  order.

A cell whose core points carry two labels (the legacy constructor
accepts any labelling) never settles a query.  Both verdicts are exact,
not just likely: the box bounds accumulate per axis in the distance
test's order, and rounding is monotone, so the computed squared
distance of every core inside a box lies between them.  A query whose
cell lies beyond the model's cells by more than the candidate reach has
no candidate at all; it is answered ``-1`` before its cell coordinates
are cast to int64, which a far coordinate would overflow.

Distance decisions are **bit-consistent with Phase II**: squared
distances accumulate sequentially per dimension (the numpy backend
runs Phase II's segmented distance pass,
:func:`~repro.core.region_query.segmented_d2`, which applies the exact
accumulation order of
:func:`~repro.spatial.distance.seq_squared_distances`; the
``python``/``numba`` backends run the equivalent scalar loop of
:mod:`repro.kernels.predict` over the same CSR segments), so a query
point at distance exactly ``eps`` of a core point gets the same in/out
decision the fit made — ``predict`` on the fitted points returns their
fitted labels on every non-border core point.  Ties (two cores
equidistant from a query) break deterministically to the first
candidate in gathered order: candidate cells ascend lexicographically,
fitted order within each cell.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary, csr_gather_indices
from repro.core.region_query import (
    box_d2_bounds,
    budget_runs,
    center_boxes,
    segment_reduce,
    segmented_d2,
)
from repro.kernels import resolve_kernel
from repro.spatial.cell_index import NeighborCellFinder

__all__ = ["ClusterModel"]


def _nearest_core_numpy(
    pts, seg_ptr, seg_start, seg_size, centers, labels, eps2, out
) -> None:
    """The ``numpy`` backend of :mod:`repro.kernels.predict`'s
    ``nearest_core``, with its signature and result: ``out[i]`` is the
    label of query ``i``'s nearest core within ``eps`` among segments
    ``seg_ptr[i]:seg_ptr[i + 1]``, the first in segment order on ties,
    else ``-1``.

    The segmented distance pass gives each segment its first minimum
    within ``eps``; a query then takes the first of its segments' minima
    that equals the smallest.  Every query must own at least one
    segment."""
    n_segs = seg_size.size
    best = np.full(n_segs, np.inf)
    pick = np.zeros(n_segs, dtype=np.int64)
    pair_point = np.repeat(np.arange(pts.shape[0], dtype=np.int64), np.diff(seg_ptr))
    for j0, j1, bounds, rows, d2 in segmented_d2(
        pts, pair_point, seg_start, seg_size, centers.T
    ):
        d2[d2 > eps2] = np.inf
        segment_reduce(np.minimum, d2, bounds, best[j0:j1])
        # First minimum in segment order: rows ascend within a segment.
        first = np.where(
            d2 == np.repeat(best[j0:j1], np.diff(bounds)), rows, np.iinfo(np.int64).max
        )
        segment_reduce(np.minimum, first, bounds, pick[j0:j1])
    nearest = np.minimum.reduceat(best, seg_ptr[:-1])
    seg = np.where(
        best == np.repeat(nearest, np.diff(seg_ptr)), np.arange(n_segs), n_segs
    )
    first_seg = np.minimum.reduceat(seg, seg_ptr[:-1])
    out[:] = np.where(np.isfinite(nearest), labels[pick[first_seg]], -1)


class ClusterModel:
    """A frozen clustering usable to classify new points.

    Parameters
    ----------
    points:
        The points the clustering was fitted on, ``(n, d)``.
    labels:
        Their cluster labels (``-1`` = noise).
    core_mask:
        Which fitted points are core.
    eps:
        The DBSCAN radius used for the fit.
    kernel:
        Distance backend for :meth:`predict`: ``"numpy"`` (vectorized,
        default via ``"auto"`` without numba), ``"numba"``, or the
        testing-only ``"python"``.  All backends are bit-identical.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RPDBSCAN
    >>> from repro.core.prediction import ClusterModel
    >>> rng = np.random.default_rng(0)
    >>> pts = np.concatenate([rng.normal(0, .1, (200, 2)),
    ...                       rng.normal(3, .1, (200, 2))])
    >>> fit = RPDBSCAN(eps=0.3, min_pts=10).fit(pts)
    >>> model = ClusterModel.from_state(fit.state)
    >>> model.predict(np.array([[0.05, 0.0], [10.0, 10.0]])).tolist()
    [0, -1]
    """

    def __init__(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        core_mask: np.ndarray,
        eps: float,
        *,
        kernel: str = "auto",
    ) -> None:
        points = np.asarray(points, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        core_mask = np.asarray(core_mask, dtype=bool)
        if points.ndim != 2:
            raise ValueError("points must be (n, d)")
        if points.shape[1] == 0:
            raise ValueError(
                "points must have at least one coordinate axis; got shape "
                f"{points.shape} (d = 0)"
            )
        if labels.shape != (points.shape[0],) or core_mask.shape != labels.shape:
            raise ValueError("labels/core_mask must align with points")
        if eps <= 0:
            raise ValueError("eps must be positive")
        if np.any((labels < 0) & core_mask):
            raise ValueError("a core point cannot be noise")
        geometry = CellGeometry(float(eps), points.shape[1])
        self._init_table(
            geometry, points[core_mask], labels[core_mask], kernel
        )

    def _init_table(
        self,
        geometry: CellGeometry,
        core_points: np.ndarray,
        core_labels: np.ndarray,
        kernel: str,
    ) -> None:
        self.eps = geometry.eps
        self._geometry = geometry
        self.kernel = resolve_kernel(kernel)
        m, d = core_points.shape
        if m:
            cell_ids = geometry.cell_ids(core_points)
            # Lexicographic by cell, stable within a cell (fitted order):
            # lexsort's last key is primary, so feed axes in reverse.
            order = np.lexsort(cell_ids.T[::-1])
            cell_ids = cell_ids[order]
            boundary = np.empty(m, dtype=bool)
            boundary[0] = True
            np.any(cell_ids[1:] != cell_ids[:-1], axis=1, out=boundary[1:])
            starts = np.nonzero(boundary)[0]
            offsets = np.concatenate([starts, [m]]).astype(np.int64)
            table = FlatCellDictionary(
                geometry,
                cell_ids[starts],
                np.diff(offsets),
                offsets,
                np.zeros((m, d), dtype=np.uint16),
                core_labels[order],
                np.ascontiguousarray(core_points[order]),
                validate=False,
            )
        else:
            table = FlatCellDictionary._empty(geometry)
        self._table = table
        self._finder = NeighborCellFinder(
            table.cell_ids, geometry.side, self.eps
        )
        # Per cell: the bounds of its core points (axis-major) and the
        # lowest and highest label among them.
        starts = table.offsets[:-1]
        self._boxes = center_boxes(table.sub_centers, table.offsets)
        self._label_lo = np.minimum.reduceat(table.sub_counts, starts)
        self._label_hi = np.maximum.reduceat(table.sub_counts, starts)
        # The float cell coordinates a query can have a candidate from:
        # the model's cell range widened by the candidate reach, and by
        # one ulp so the float bounds never cut into it.
        if m:
            reach = self._finder.reach
            ids = table.cell_ids
            self._cell_range = (
                np.nextafter((ids.min(axis=0) - reach).astype(np.float64), -np.inf),
                np.nextafter((ids.max(axis=0) + reach).astype(np.float64), np.inf),
            )

    @classmethod
    def from_state(cls, state, *, kernel: str | None = None) -> "ClusterModel":
        """Build the serving view of a fitted
        :class:`~repro.core.cluster_state.ClusterState` (the model
        reuses the state's resolved kernel unless overridden)."""
        if state.geometry.dim == 0:
            raise ValueError("state must have at least one coordinate axis")
        model = cls.__new__(cls)
        model._init_table(
            CellGeometry(state.eps, state.geometry.dim),
            state.points[state.core_mask],
            state.labels[state.core_mask],
            state.kernel if kernel is None else kernel,
        )
        return model

    @property
    def n_core_points(self) -> int:
        """Number of core points retained by the model."""
        return int(self._table.sub_centers.shape[0])

    @property
    def num_cells(self) -> int:
        """Number of non-empty core cells in the model's table."""
        return int(self._table.num_cells)

    def warmup(self) -> float:
        """Pay every one-time cost of :meth:`predict` up front.

        JIT-compiles the kernel backend for this model's own arrays (a
        model attached from shared memory holds read-only ones, which
        numba compiles separately) and pushes one core point through
        the full batched sweep.  Returns wall seconds — the number
        callers bill to the setup bucket, mirroring ``_phase2_warmup``,
        so the first real request never pays compile cost inside its
        latency budget.
        """
        start = time.perf_counter()
        table = self._table
        dim = self._geometry.dim
        if self.kernel != "numpy":
            none = np.zeros(0, dtype=np.int64)
            self._nearest_impl()(
                np.zeros((0, dim)), np.zeros(1, dtype=np.int64), none, none,
                table.sub_centers, table.sub_counts, self.eps * self.eps, none,
            )
        probe = table.sub_centers[:1]
        self.predict(probe if probe.size else np.zeros((1, dim), dtype=np.float64))
        return time.perf_counter() - start

    def _nearest_impl(self):
        """The nearest-core callable of this model's kernel backend."""
        if self.kernel == "numpy":
            return _nearest_core_numpy
        from repro.kernels.predict import get_impl

        return get_impl(self.kernel)

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Labels for ``points``: nearest core's cluster within ``eps``,
        else ``-1``.  Raises ``ValueError`` on NaN/inf coordinates: such
        a query has no cell, so it has no answer (not even noise)."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self._geometry.dim:
            raise ValueError(f"points must be (m, {self._geometry.dim})")
        if not np.isfinite(pts).all():
            bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
            raise ValueError(
                f"query points contain NaN/inf coordinates in {bad} row(s)"
            )
        out = np.full(pts.shape[0], -1, dtype=np.int64)
        if self._table.num_cells == 0 or pts.shape[0] == 0:
            return out
        # Queries with no candidate cell stay -1; they leave before the
        # int64 cast, which a far coordinate would overflow.
        with np.errstate(over="ignore"):
            scaled = np.floor(pts / self._geometry.side)
        lo, hi = self._cell_range
        live = np.flatnonzero(((scaled >= lo) & (scaled <= hi)).all(axis=1))
        if live.size == 0:
            return out
        cells = scaled[live].astype(np.int64)
        # Group queries by cell so each candidate search happens once,
        # in one batched sweep over the distinct query cells.
        order = np.lexsort(cells.T[::-1])
        cells = cells[order]
        boundary = np.empty(order.size, dtype=bool)
        boundary[0] = True
        np.any(cells[1:] != cells[:-1], axis=1, out=boundary[1:])
        cand_rows, cand_offsets = self._finder.candidate_rows_batch(
            cells[boundary]
        )
        group = np.cumsum(boundary) - 1
        n_cand = np.diff(cand_offsets)[group]
        keep = np.flatnonzero(n_cand)
        query = live[order[keep]]
        slot = cand_offsets[group[keep]]
        n_cand = n_cand[keep]
        ends = np.zeros(n_cand.size + 1, dtype=np.int64)
        np.cumsum(n_cand, out=ends[1:])
        for begin, stop in budget_runs(ends):
            out[query[begin:stop]] = self._resolve(
                pts[query[begin:stop]],
                cand_rows,
                slot[begin:stop],
                n_cand[begin:stop],
            )
        return out

    def _resolve(
        self,
        pts: np.ndarray,
        cand_rows: np.ndarray,
        slot: np.ndarray,
        n_cand: np.ndarray,
    ) -> np.ndarray:
        """Labels of one step's queries: query ``i``'s candidates are
        ``cand_rows[slot[i]:slot[i] + n_cand[i]]`` (each has at least
        one).  Boxes settle or dismiss it; an open query goes to the
        distance pass over its near candidates."""
        eps2 = self.eps * self.eps
        labels = np.full(pts.shape[0], -1, dtype=np.int64)
        # Query-major (query, candidate) pairs, in candidate order.
        pair_q = np.repeat(np.arange(pts.shape[0], dtype=np.int64), n_cand)
        pair_row = cand_rows[csr_gather_indices(slot, n_cand)]
        min_d2, max_d2 = box_d2_bounds(pts, n_cand, *self._boxes, pair_row)
        near = np.flatnonzero(min_d2 <= eps2)
        if near.size == 0:
            return labels
        # Each query's near pairs form one run; a query without any is
        # noise and keeps -1.
        near_q = pair_q[near]
        near_row = pair_row[near]
        run_start = np.flatnonzero(np.diff(near_q, prepend=-1))
        run_q = near_q[run_start]
        lo = np.minimum.reduceat(self._label_lo[near_row], run_start)
        hi = np.maximum.reduceat(self._label_hi[near_row], run_start)
        full = np.logical_or.reduceat(max_d2[near] <= eps2, run_start)
        settled = (lo == hi) & full
        labels[run_q[settled]] = lo[settled]
        if settled.all():
            return labels
        # Open queries: their near candidates' core blocks, read in
        # place as CSR segments.
        run_len = np.diff(run_start, append=near.size)
        is_open = ~settled
        open_q = run_q[is_open]
        seg_ptr = np.zeros(open_q.size + 1, dtype=np.int64)
        np.cumsum(run_len[is_open], out=seg_ptr[1:])
        seg_rows = near_row[np.repeat(is_open, run_len)]
        offsets = self._table.offsets
        seg_start = offsets[seg_rows]
        found = np.empty(open_q.size, dtype=np.int64)
        self._nearest_impl()(
            pts[open_q],
            seg_ptr,
            seg_start,
            offsets[seg_rows + 1] - seg_start,
            self._table.sub_centers,
            self._table.sub_counts,
            eps2,
            found,
        )
        labels[open_q] = found
        return labels
