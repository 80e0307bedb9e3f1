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

Distance decisions are **bit-consistent with Phase II**: squared
distances accumulate sequentially per dimension (the fused segmented
sweep of the numpy backend applies the exact accumulation order of
:func:`~repro.spatial.distance.seq_squared_distances`; the
``python``/``numba`` backends run the equivalent scalar loop of
:mod:`repro.kernels.predict`), so a query point at distance exactly
``eps`` of a core point gets the same in/out decision the fit made —
``predict`` on the fitted points returns their fitted labels on every
non-border core point.  Ties (two cores equidistant from a query) break
deterministically to the first candidate in gathered order: candidate
cells ascend lexicographically, fitted order within each cell.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary, csr_gather_indices
from repro.kernels import resolve_kernel
from repro.spatial.cell_index import NeighborCellFinder

__all__ = ["ClusterModel"]


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

        JIT-compiles the kernel backend for this model's dimensionality
        (the per-dim compile :func:`repro.kernels.predict.warmup` does)
        and pushes one probe point through the full batched sweep so
        lazily built candidate tables are hot.  Returns wall seconds —
        the number callers bill to the setup bucket, mirroring
        ``_phase2_warmup``, so the first real request never pays compile
        cost inside its latency budget.
        """
        start = time.perf_counter()
        if self.kernel == "numba":
            from repro.kernels.predict import warmup as kernel_warmup

            kernel_warmup(self._geometry.dim)
        probe = np.zeros((1, self._geometry.dim), dtype=np.float64)
        self.predict(probe)
        return time.perf_counter() - start

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
        table = self._table
        if table.num_cells == 0 or pts.shape[0] == 0:
            return out
        eps2 = self.eps * self.eps
        centers = table.sub_centers
        labels = table.sub_counts
        offsets = table.offsets
        sizes = np.diff(offsets)
        impl = None
        if self.kernel != "numpy":
            from repro.kernels.predict import get_impl

            impl = get_impl(self.kernel)
        # Group queries by cell so each candidate gather happens once.
        query_cells = self._geometry.cell_ids(pts)
        order = np.lexsort(query_cells.T[::-1])
        sorted_cells = query_cells[order]
        boundary = np.empty(pts.shape[0], dtype=bool)
        boundary[0] = True
        np.any(
            sorted_cells[1:] != sorted_cells[:-1], axis=1, out=boundary[1:]
        )
        group_starts = np.nonzero(boundary)[0]
        group_stops = np.concatenate([group_starts[1:], [pts.shape[0]]])
        # One batched candidate sweep over the distinct query cells —
        # per-group binary searches are what makes naive dense predict
        # scale with the query count instead of the group count.
        cand_rows, cand_offsets = self._finder.candidate_rows_batch(
            sorted_cells[group_starts]
        )
        # Gather every group's candidate centers into one pool; group
        # ``g`` owns pool rows ``block_lo[g]:block_hi[g]`` in candidate
        # order (cells ascend lexicographically, fitted order within).
        cand_sizes = sizes[cand_rows]
        block_bounds = np.concatenate(
            [[0], np.cumsum(cand_sizes)]
        ).astype(np.int64)
        block_lo = block_bounds[cand_offsets[:-1]]
        block_hi = block_bounds[cand_offsets[1:]]
        pool = csr_gather_indices(offsets[cand_rows], cand_sizes)
        pool_centers = centers[pool]
        pool_labels = labels[pool]
        if impl is not None:
            for g, (start, stop) in enumerate(
                zip(group_starts.tolist(), group_stops.tolist())
            ):
                lo, hi = int(block_lo[g]), int(block_hi[g])
                if lo == hi:
                    continue
                rows = order[start:stop]
                chunk = np.empty(rows.shape[0], dtype=np.int64)
                impl(
                    pts[rows],
                    pool_centers[lo:hi],
                    pool_labels[lo:hi],
                    eps2,
                    chunk,
                )
                out[rows] = chunk
            return out
        # Vectorized reference, fused across groups: per-pair sequential
        # squared distances (bit-identical to the scalar kernels) and a
        # segmented first-minimum tie-break via reduceat — no per-group
        # python loop.
        group_counts = group_stops - group_starts
        group_ids = np.repeat(
            np.arange(group_starts.size, dtype=np.int64), group_counts
        )
        per_query_block = (block_hi - block_lo)[group_ids]
        live = np.nonzero(per_query_block > 0)[0]
        if live.size == 0:
            return out
        pts_sorted = pts[order]
        budget = 1 << 21  # pairs per fused chunk (bounds peak memory)
        cum_pairs = np.cumsum(per_query_block[live])
        start_q = 0
        while start_q < live.size:
            base = int(cum_pairs[start_q - 1]) if start_q else 0
            stop_q = int(np.searchsorted(cum_pairs, base + budget))
            stop_q = max(stop_q, start_q + 1)
            qs = live[start_q:stop_q]
            seg_sizes = per_query_block[qs]
            total = int(seg_sizes.sum())
            seg_starts = np.concatenate(
                [[0], np.cumsum(seg_sizes[:-1])]
            ).astype(np.int64)
            pair_query = np.repeat(
                np.arange(qs.size, dtype=np.int64), seg_sizes
            )
            pair_center = (
                block_lo[group_ids[qs]][pair_query]
                + np.arange(total, dtype=np.int64)
                - seg_starts[pair_query]
            )
            qpts = pts_sorted[qs]
            d2 = np.zeros(total, dtype=np.float64)
            for k in range(self._geometry.dim):
                diff = qpts[:, k][pair_query] - pool_centers[pair_center, k]
                d2 += diff * diff
            masked = np.where(d2 <= eps2, d2, np.inf)
            best = np.minimum.reduceat(masked, seg_starts)
            # First minimum in candidate order: pair_center ascends
            # within a segment, so the smallest selected center is the
            # first one.
            selected = np.where(
                masked == best[pair_query], pair_center, np.iinfo(np.int64).max
            )
            first = np.minimum.reduceat(selected, seg_starts)
            hit = np.isfinite(best)
            out[order[qs[hit]]] = pool_labels[first[hit]]
            start_q = stop_q
        return out
