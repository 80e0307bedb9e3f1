"""Naive random split DBSCAN (paper Sec 2.2.1: SDBC / S-DBSCAN family).

The strawman RP-DBSCAN improves upon: split the *points* (not cells)
randomly into ``k`` disjoint subsets, run local DBSCAN per subset with a
proportionally scaled ``minPts`` (each subset sees roughly ``1/k`` of
every neighborhood), then merge local clusters whose core points come
within ``eps`` of each other, judged on sampled cluster representatives.

This "succeeded to improve efficiency but lost accuracy": without a
global summary, region queries see only the split's own points, so
densities — and therefore core decisions and cluster shapes — are
approximate.  The ablation bench quantifies that accuracy loss against
RP-DBSCAN, whose two-level cell dictionary restores exact-density
queries under random splitting.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.base import BaselineResult, relabel_dense
from repro.baselines.dbscan import ExactDBSCAN
from repro.graph.union_find import UnionFind
from repro.spatial.distance import seq_squared_distances

__all__ = ["NaiveRandomDBSCAN"]


class NaiveRandomDBSCAN:
    """Point-level random split DBSCAN with representative-based merging.

    Parameters
    ----------
    eps, min_pts:
        DBSCAN parameters (of the *global* problem; each split runs with
        ``max(1, round(min_pts / k))``).
    num_splits:
        Number of random subsets ``k``.
    representatives_per_cluster:
        Core points sampled per local cluster for the merge test.
    seed:
        RNG seed for the split and sampling.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        num_splits: int = 8,
        *,
        representatives_per_cluster: int = 64,
        seed: int | None = 0,
    ) -> None:
        if num_splits < 1:
            raise ValueError("num_splits must be >= 1")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.num_splits = int(num_splits)
        self.representatives_per_cluster = int(representatives_per_cluster)
        self.seed = seed

    def fit(self, points: np.ndarray) -> BaselineResult:
        """Cluster ``points`` with the naive random-split strategy."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        n = pts.shape[0]
        if n == 0:
            return BaselineResult(
                labels=np.empty(0, dtype=np.int64),
                core_mask=np.empty(0, dtype=bool),
                n_clusters=0,
            )
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        local_min_pts = max(1, round(self.min_pts / self.num_splits))
        clusterer = ExactDBSCAN(self.eps, local_min_pts)

        split_indices: list[np.ndarray] = []
        split_results: list[BaselineResult] = []
        task_seconds: list[float] = []
        t0 = time.perf_counter()
        for split_id in range(self.num_splits):
            indices = order[split_id :: self.num_splits]
            start = time.perf_counter()
            split_results.append(clusterer.fit(pts[indices]))
            task_seconds.append(time.perf_counter() - start)
            split_indices.append(indices)
        t_local = time.perf_counter() - t0

        # Merge via sampled core representatives.
        t1 = time.perf_counter()
        uf = UnionFind()
        reps: list[tuple[tuple[int, int], np.ndarray]] = []
        for split_id, (indices, local) in enumerate(zip(split_indices, split_results)):
            for label in np.unique(local.labels[local.labels >= 0]):
                key = (split_id, int(label))
                uf.add(key)
                members = (local.labels == label) & local.core_mask
                rows = np.nonzero(members)[0]
                if rows.size > self.representatives_per_cluster:
                    rows = rng.choice(
                        rows, self.representatives_per_cluster, replace=False
                    )
                reps.append((key, pts[indices[rows]]))
        eps2 = self.eps * self.eps
        for i in range(len(reps)):
            key_i, pts_i = reps[i]
            if pts_i.shape[0] == 0:
                continue
            for j in range(i + 1, len(reps)):
                key_j, pts_j = reps[j]
                if key_i[0] == key_j[0] or pts_j.shape[0] == 0:
                    continue
                if uf.connected(key_i, key_j):
                    continue
                if (seq_squared_distances(pts_i, pts_j) <= eps2).any():
                    uf.union(key_i, key_j)
        component = uf.component_labels()
        labels = np.full(n, -1, dtype=np.int64)
        core_mask = np.zeros(n, dtype=bool)
        for split_id, (indices, local) in enumerate(zip(split_indices, split_results)):
            assigned = local.labels >= 0
            rows = np.nonzero(assigned)[0]
            for row in rows:
                labels[int(indices[row])] = component[(split_id, int(local.labels[row]))]
            core_mask[indices[local.core_mask]] = True
        labels, n_clusters = relabel_dense(labels)
        t_merge = time.perf_counter() - t1
        return BaselineResult(
            labels=labels,
            core_mask=core_mask,
            n_clusters=n_clusters,
            split_task_seconds=task_seconds,
            split_point_counts=[int(idx.shape[0]) for idx in split_indices],
            phase_seconds={"local": t_local, "merge": t_merge},
        )

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        return self.fit(points).labels
