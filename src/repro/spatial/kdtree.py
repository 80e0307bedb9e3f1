"""A small kd-tree for radius queries over cell centers.

The paper (Lemma 5.6) assumes candidate cells of an ``(eps, rho)``-region
query are found "with R*-tree or kd-tree" in ``O(log |cell|)``.  For low
dimensions we enumerate integer offsets instead (cheaper), but offset
enumeration is exponential in ``d``; this kd-tree is the high-dimensional
fallback, built once over the centers of the *non-empty* cells.

The implementation is a classic median-split kd-tree.  Ball queries run
on an array form of it, many centers at once: the tree is walked over
blocks of (node, center) pairs, so a batch of queries costs one numpy
pass per block instead of one python step per node and query.  Every
step of a walk holds at most ``_PAIR_BUDGET`` pairs, so its memory does
not grow with the batch.  It is deliberately simple: the number of
non-empty cells is small compared to the number of points.
"""

from __future__ import annotations

import numpy as np

from repro.spatial.distance import sum_of_squares

__all__ = ["KDTree"]

_LEAF_SIZE = 32
#: Most (node, center) pairs one traversal step of a ball query tests,
#: and most (center, point) pairs one leaf-scan step expands.
_PAIR_BUDGET = 1 << 15
#: Depth of the node frontier (at most 2**depth nodes) ball queries
#: start from.
_ENTRY_DEPTH = 8


def _box_gaps(lo_t, hi_t, node, c_t, owner):
    """Per axis, the gap from each center ``c_t[:, owner]`` to box
    ``[lo_t, hi_t][:, node]`` (all arrays stored axis-major)."""
    for k in range(lo_t.shape[0]):
        q = c_t[k][owner]
        yield np.maximum(np.maximum(lo_t[k][node] - q, q - hi_t[k][node]), 0.0)


class KDTree:
    """kd-tree over an ``(n, d)`` array supporting ball queries.

    Parameters
    ----------
    points:
        The points to index.  A copy is not made; do not mutate.
    leaf_size:
        Maximum number of points stored in a leaf node.
    """

    def __init__(self, points: np.ndarray, leaf_size: int = _LEAF_SIZE) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("KDTree expects a 2-d (n, d) array")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self._points = pts
        self._leaf_size = int(leaf_size)
        self._n, self._dim = pts.shape
        # Array form of the tree: per-node box corners and children
        # (-1 on leaves); leaf ``i`` owns ``size[i]`` indices of
        # ``leaf_order`` from ``leaf_start[i]``.  Node 0 is the root.
        lo: list[np.ndarray] = []
        hi: list[np.ndarray] = []
        left: list[int] = []
        right: list[int] = []
        size: list[int] = []
        leaves: list[np.ndarray] = []
        if self._n:
            self._build(
                np.arange(self._n, dtype=np.int64), lo, hi, left, right, size, leaves
            )
        # Box corners are kept axis-major, ``(d, nodes)``, and so is a
        # copy of the points: ball queries gather one axis at a time,
        # and a 1-d gather is about twice as fast as a column gather
        # from a row-major array.
        self._lo_t = np.array(lo, dtype=np.float64).reshape(-1, self._dim).T.copy()
        self._hi_t = np.array(hi, dtype=np.float64).reshape(-1, self._dim).T.copy()
        self._points_t = pts.T.copy()
        self._children = np.column_stack((left, right)).astype(np.int64)
        self._is_leaf = self._children[:, 0] < 0
        # Ball queries start from the tree's frontier after a few levels
        # (small trees: all leaves) instead of the root: those levels
        # would prune little and cost a python step each.
        entry = np.zeros(min(1, len(lo)), dtype=np.int64)
        for _ in range(_ENTRY_DEPTH):
            inner = ~self._is_leaf[entry]
            if not inner.any():
                break
            entry = np.concatenate(
                [entry[~inner], self._children[entry[inner]].ravel()]
            )
        self._entry = entry
        self._leaf_size_of = np.array(size, dtype=np.int64)
        # Leaves were appended in node-id order, so their blocks follow
        # one another in that order.
        self._leaf_start = np.cumsum(self._leaf_size_of) - self._leaf_size_of
        self._leaf_order = (
            np.concatenate(leaves) if leaves else np.empty(0, dtype=np.int64)
        )

    def __len__(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed points."""
        return self._dim

    def _build(self, indices, lo, hi, left, right, size, leaves) -> int:
        """Append the subtree over ``indices`` to the node lists; return
        its root's node id."""
        node = len(lo)
        subset = self._points[indices]
        lo.append(subset.min(axis=0))
        hi.append(subset.max(axis=0))
        left.append(-1)
        right.append(-1)
        size.append(0)
        spread = hi[node] - lo[node]
        axis = int(np.argmax(spread))
        # A leaf when small enough, or when all points are identical
        # along every axis.
        if indices.shape[0] <= self._leaf_size or spread[axis] == 0.0:
            size[node] = indices.shape[0]
            leaves.append(indices)
            return node
        values = subset[:, axis]
        median = float(np.median(values))
        left_mask = values <= median
        # Guard against degenerate splits when many values equal the median.
        if left_mask.all() or not left_mask.any():
            order = np.argsort(values, kind="stable")
            half = indices.shape[0] // 2
            left_mask = np.zeros(indices.shape[0], dtype=bool)
            left_mask[order[:half]] = True
        children = (lo, hi, left, right, size, leaves)
        left[node] = self._build(indices[left_mask], *children)
        right[node] = self._build(indices[~left_mask], *children)
        return node

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center``.

        Returns an int64 array (ascending).  Distance is Euclidean and
        the boundary is inclusive.  The one-center case of
        :meth:`query_ball_batch`.
        """
        c = np.asarray(center, dtype=np.float64)
        if c.shape != (self._dim,):
            raise ValueError(f"center must have shape ({self._dim},)")
        hits, _ = self.query_ball_batch(c[None, :], radius)
        return hits

    def query_ball_batch(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indices within ``radius`` of each of many centers, one traversal.

        Returns CSR ``(indices, offsets)``: center ``g``'s hits are
        ``indices[offsets[g]:offsets[g + 1]]``, ascending.  The tree is
        walked over blocks of (node, center) pairs, from a frontier a
        few levels down, so the cost follows the tree depth and the
        pairs touched, not centers x nodes python steps.  Squared
        distances are summed one axis at a time, left to right, for
        boxes and points alike — so a box's distance never rounds above
        that of a point inside it, and a center's hits do not depend on
        the other centers in the batch.
        """
        c = np.asarray(centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != self._dim:
            raise ValueError(f"centers must have shape (m, {self._dim})")
        m = c.shape[0]
        if self._n == 0 or m == 0:
            return np.empty(0, dtype=np.int64), np.zeros(m + 1, dtype=np.int64)
        r2 = float(radius) ** 2
        c_t = c.T.copy()
        hit_owner: list[np.ndarray] = []
        hit_index: list[np.ndarray] = []
        # Centers go in chunks whose entry pairs fit the budget.  Each
        # chunk is walked depth first over blocks of at most
        # _PAIR_BUDGET pairs, so the pending blocks hold at most two
        # per tree level.
        chunk = max(1, _PAIR_BUDGET // self._entry.size)
        for first in range(0, m, chunk):
            owners = np.arange(first, min(m, first + chunk), dtype=np.int64)
            pending = [
                (np.tile(self._entry, owners.size), np.repeat(owners, self._entry.size))
            ]
            while pending:
                node, owner = pending.pop()
                d2 = sum_of_squares(
                    _box_gaps(self._lo_t, self._hi_t, node, c_t, owner), node.size
                )
                keep = d2 <= r2
                node, owner = node[keep], owner[keep]
                leaf = self._is_leaf[node]
                self._scan_leaves(node[leaf], owner[leaf], c_t, r2, hit_owner, hit_index)
                node = self._children[node[~leaf]].ravel()
                owner = np.repeat(owner[~leaf], 2)
                for b in range(0, node.size, _PAIR_BUDGET):
                    pending.append(
                        (node[b : b + _PAIR_BUDGET], owner[b : b + _PAIR_BUDGET])
                    )
        all_owner = np.concatenate(hit_owner + [np.empty(0, dtype=np.int64)])
        all_index = np.concatenate(hit_index + [np.empty(0, dtype=np.int64)])
        order = np.lexsort((all_index, all_owner))
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_owner, minlength=m), out=offsets[1:])
        return all_index[order], offsets

    def _scan_leaves(self, leaves, owner, c_t, r2, hit_owner, hit_index) -> None:
        """Append the points of each ``leaves[i]`` within ``r2`` (squared)
        of center ``c_t[:, owner[i]]``, in steps of at most ``_PAIR_BUDGET``
        (center, point) pairs (a bigger leaf is a step by itself)."""
        sizes = self._leaf_size_of[leaves]
        ends = np.cumsum(sizes)
        begin = 0
        while begin < leaves.size:
            base = int(ends[begin - 1]) if begin else 0
            stop = int(np.searchsorted(ends, base + _PAIR_BUDGET, "right"))
            stop = max(stop, begin + 1)
            step_sizes = sizes[begin:stop]
            step_ends = ends[begin:stop] - base
            shift = np.repeat(
                step_ends - step_sizes - self._leaf_start[leaves[begin:stop]],
                step_sizes,
            )
            index = self._leaf_order[np.arange(int(step_ends[-1])) - shift]
            step_owner = np.repeat(owner[begin:stop], step_sizes)
            d2 = sum_of_squares(
                (self._points_t[k][index] - c_t[k][step_owner] for k in range(self._dim)),
                index.size,
            )
            ok = d2 <= r2
            hit_owner.append(step_owner[ok])
            hit_index.append(index[ok])
            begin = stop

    def query_nearest(self, center: np.ndarray) -> tuple[int, float]:
        """Index of and distance to the nearest indexed point.

        Raises :class:`ValueError` on an empty tree.
        """
        if self._n == 0:
            raise ValueError("query_nearest on an empty KDTree")
        c = np.asarray(center, dtype=np.float64)
        best_idx = -1
        best_sq = np.inf
        stack = [0]
        while stack:
            node = stack.pop()
            delta = np.maximum(
                np.maximum(self._lo_t[:, node] - c, c - self._hi_t[:, node]), 0.0
            )
            if float(np.dot(delta, delta)) >= best_sq:
                continue
            if self._is_leaf[node]:
                first = self._leaf_start[node]
                indices = self._leaf_order[first : first + self._leaf_size_of[node]]
                diff = self._points[indices] - c
                sq = np.einsum("ij,ij->i", diff, diff)
                local = int(np.argmin(sq))
                if sq[local] < best_sq:
                    best_sq = float(sq[local])
                    best_idx = int(indices[local])
                continue
            stack.extend(self._children[node].tolist())
        return best_idx, float(np.sqrt(best_sq))
