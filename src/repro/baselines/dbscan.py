"""The original DBSCAN algorithm (Ester et al., 1996), exact.

Used exactly as the paper uses its R-package DBSCAN: "only for
retrieving the correct clustering to validate the approximation accuracy
of RP-DBSCAN" (Sec 7.1.1) — so the implementation prioritizes being
demonstrably exact while staying fast enough for 10^5-point inputs.

It is grid-accelerated: points are bucketed into cells with diagonal
``eps`` and region queries only touch the bounded set of neighboring
cells, but every density count and every reachability decision uses
exact point-to-point distances.  The clustering itself follows the
standard three steps:

1. mark core points (``|N_eps(p)| >= minPts``, self included);
2. connect core points within ``eps`` of each other (union-find; all
   core points of one cell are mutually reachable since the cell
   diagonal is ``eps``, so they are chained in O(cell size));
3. attach each non-core point within ``eps`` of a core point to that
   core point's cluster (border points), everything else is noise.

This produces exactly the clusters of Definition 2.4 (border-point ties
broken deterministically toward the nearest core point).
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.base import BaselineResult, relabel_dense
from repro.graph.union_find import UnionFind
from repro.spatial.cell_index import NeighborCellFinder
from repro.spatial.distance import seq_squared_distances
from repro.spatial.grid import GridSpec, group_points_by_cell

__all__ = ["ExactDBSCAN"]


class ExactDBSCAN:
    """Exact, single-machine DBSCAN.

    Parameters
    ----------
    eps:
        Neighborhood radius.
    min_pts:
        Minimum neighborhood size (the point itself counts, as in
        ``|N_eps(p)| >= minPts`` with ``p in N_eps(p)``).
    candidate_strategy:
        Passed to :class:`NeighborCellFinder` (``"auto"`` by default).
    """

    def __init__(self, eps: float, min_pts: int, *, candidate_strategy: str = "auto") -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.candidate_strategy = candidate_strategy

    def fit(self, points: np.ndarray) -> BaselineResult:
        """Cluster ``points``; returns exact DBSCAN labels."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        n, dim = pts.shape
        start = time.perf_counter()
        if n == 0:
            return BaselineResult(
                labels=np.empty(0, dtype=np.int64),
                core_mask=np.empty(0, dtype=bool),
                n_clusters=0,
            )
        grid = GridSpec(self.eps, dim)
        groups = group_points_by_cell(pts, grid.side)
        finder = NeighborCellFinder(
            set(groups), grid.side, self.eps, strategy=self.candidate_strategy
        )

        core_mask = self._mark_core(pts, groups, finder)
        labels = self._cluster(pts, groups, finder, core_mask)
        labels, n_clusters = relabel_dense(labels)
        elapsed = time.perf_counter() - start
        return BaselineResult(
            labels=labels,
            core_mask=core_mask,
            n_clusters=n_clusters,
            phase_seconds={"total": elapsed},
        )

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        return self.fit(points).labels

    # ------------------------------------------------------------------

    def _mark_core(
        self,
        pts: np.ndarray,
        groups: dict[tuple[int, ...], np.ndarray],
        finder: NeighborCellFinder,
    ) -> np.ndarray:
        """Exact neighbor counting per cell, vectorized per cell pair."""
        eps2 = self.eps * self.eps
        core_mask = np.zeros(pts.shape[0], dtype=bool)
        for cell_id, indices in groups.items():
            cell_pts = pts[indices]
            neighbor_indices = [groups[c] for c in finder.candidates(cell_id)]
            candidates = np.concatenate(neighbor_indices)
            d2 = seq_squared_distances(cell_pts, pts[candidates])
            counts = (d2 <= eps2).sum(axis=1)
            core_mask[indices] = counts >= self.min_pts
        return core_mask

    def _cluster(
        self,
        pts: np.ndarray,
        groups: dict[tuple[int, ...], np.ndarray],
        finder: NeighborCellFinder,
        core_mask: np.ndarray,
    ) -> np.ndarray:
        eps2 = self.eps * self.eps
        uf = UnionFind()
        core_by_cell: dict[tuple[int, ...], np.ndarray] = {}
        for cell_id, indices in groups.items():
            core_here = indices[core_mask[indices]]
            if core_here.size:
                core_by_cell[cell_id] = core_here
                # All core points of one cell are pairwise within eps
                # (cell diagonal = eps): chain them.
                first = int(core_here[0])
                uf.add(first)
                for idx in core_here[1:]:
                    uf.union(first, int(idx))

        # Connect core points across neighboring cells.  One union per
        # (core point, neighbor cell) suffices because the neighbor
        # cell's core points are already chained.
        cell_list = sorted(core_by_cell)
        for cell_id in cell_list:
            mine = core_by_cell[cell_id]
            for other in finder.candidates(cell_id):
                if other <= cell_id or other not in core_by_cell:
                    continue
                theirs = core_by_cell[other]
                hits = seq_squared_distances(pts[mine], pts[theirs]) <= eps2
                rows = np.nonzero(hits.any(axis=1))[0]
                for row in rows:
                    col = int(np.argmax(hits[row]))
                    uf.union(int(mine[row]), int(theirs[col]))

        component = uf.component_labels()
        labels = np.full(pts.shape[0], -1, dtype=np.int64)
        for indices in core_by_cell.values():
            for idx in indices:
                labels[int(idx)] = component[int(idx)]

        # Border points: nearest core neighbor within eps wins.
        for cell_id, indices in groups.items():
            border = indices[~core_mask[indices]]
            if border.size == 0:
                continue
            neighbor_core = [
                core_by_cell[c]
                for c in finder.candidates(cell_id)
                if c in core_by_cell
            ]
            if not neighbor_core:
                continue
            core_candidates = np.concatenate(neighbor_core)
            d2 = seq_squared_distances(pts[border], pts[core_candidates])
            d2[d2 > eps2] = np.inf
            nearest = np.argmin(d2, axis=1)
            reachable = np.isfinite(d2[np.arange(border.size), nearest])
            for row in np.nonzero(reachable)[0]:
                owner = int(core_candidates[nearest[row]])
                labels[int(border[row])] = component[owner]
        return labels
