"""Single-machine rho-approximate DBSCAN (Gan & Tao, SIGMOD 2015).

The approximation the paper folds into its region-split baselines
("for fair comparison ... we implemented rho-approximate DBSCAN in
ESP-DBSCAN, RBP-DBSCAN, and CBP-DBSCAN", Sec 7.1.2): density counts use
a cell/sub-cell summary instead of exact point distances, with the same
sandwich guarantee (Theorem 5.3) RP-DBSCAN inherits.

The implementation composes the repository's core primitives — the
two-level cell dictionary, the (eps, rho)-region query, cell-graph
construction, and point labeling — over a *single* partition holding
every cell.  That makes the identity explicit: RP-DBSCAN with ``k = 1``
partitions *is* rho-approximate DBSCAN plus partitioning bookkeeping.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.base import BaselineResult
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.labeling import build_labeling_context, label_partition
from repro.core.merging import progressive_merge
from repro.core.partitioning import pseudo_random_partition

__all__ = ["RhoDBSCAN"]


class RhoDBSCAN:
    """rho-approximate DBSCAN on a single machine.

    Parameters
    ----------
    eps:
        Neighborhood radius.
    min_pts:
        Minimum (approximate) neighborhood size for a core point.
    rho:
        Approximation parameter; the clustering converges to exact
        DBSCAN as ``rho -> 0`` (Theorem 5.4).
    """

    def __init__(self, eps: float, min_pts: int, rho: float = 0.01) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.rho = float(rho)

    def fit(self, points: np.ndarray) -> BaselineResult:
        """Cluster ``points`` with approximate region queries."""
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
        geometry = CellGeometry(self.eps, dim, self.rho)
        [partition] = pseudo_random_partition(pts, geometry, 1, seed=0)
        dictionary = FlatCellDictionary.from_points(pts, geometry)
        context = QueryContext(dictionary)
        subgraph = build_cell_subgraph(partition, context, self.min_pts)
        graph, _ = progressive_merge([subgraph.graph])
        labeling_context = build_labeling_context(
            graph, [partition], {0: subgraph.core_mask}, self.eps
        )
        global_indices, local_labels = label_partition(partition, labeling_context)
        labels = np.full(n, -1, dtype=np.int64)
        labels[global_indices] = local_labels
        core_mask = np.zeros(n, dtype=bool)
        core_mask[partition.global_indices] = subgraph.core_mask
        elapsed = time.perf_counter() - start
        return BaselineResult(
            labels=labels,
            core_mask=core_mask,
            n_clusters=labeling_context.n_clusters,
            phase_seconds={"total": elapsed},
        )

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        return self.fit(points).labels
