"""Phase III-2: point labeling (Algorithm 4 part 2, Lemma 3.5).

Once the global cell graph exists, cluster membership is translated from
the cell level to the point level:

* Every spanning tree over **full** edges is one cluster of core cells;
  all points of a core cell inherit its tree's cluster id (Figure 10b —
  all points of a core cell are within ``eps`` of one of its core
  points because the cell diagonal is ``eps``).
* A **non-core** cell's points join the cluster of a predecessor core
  cell ``C1`` (a partial edge ``C1 ~> C2``) only if they lie within
  ``eps`` of an actual core point of ``C1`` — an *exact* distance check
  against real points, which is why border handling loses no accuracy.
* Everything else is noise (label ``-1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cell_graph import V_CORE, EdgeType, FlatCellGraph
from repro.core.dictionary import csr_gather_indices
from repro.core.partitioning import Partition
from repro.core.region_query import segment_reduce, segmented_d2
from repro.graph.spanning_forest import connected_components_arrays

__all__ = [
    "LabelingContext",
    "build_labeling_context",
    "core_cell_labels",
    "label_partition",
    "partial_predecessors",
    "NOISE",
]

#: Label assigned to noise/outlier points.
NOISE = -1


@dataclass
class LabelingContext:
    """Broadcast payload for Phase III-2, as arrays keyed by cell row.

    Cells are addressed by their dense dictionary *row*, matching the
    vertices of the global cell graph and each partition's ``rows``.

    Attributes
    ----------
    eps:
        DBSCAN radius for the exact border checks.
    cell_labels:
        ``(C,)`` int64 cluster id per cell row (dense ints from 0);
        ``-1`` for non-core cells.
    predecessor_offsets / predecessors:
        int32 CSR keyed by destination row: the predecessor core cells
        of non-core cell ``r`` (via partial edges) are
        ``predecessors[predecessor_offsets[r]:predecessor_offsets[r + 1]]``,
        ascending for deterministic tie-breaking.
    core_point_offsets / core_points:
        CSR keyed by row (int32 offsets): the actual core points of
        every partial-edge source cell, gathered across partitions by
        the driver.
    """

    eps: float
    cell_labels: np.ndarray
    predecessor_offsets: np.ndarray
    predecessors: np.ndarray
    core_point_offsets: np.ndarray
    core_points: np.ndarray

    @property
    def n_clusters(self) -> int:
        """Number of distinct clusters."""
        return int(self.cell_labels.max(initial=NOISE)) + 1

    @classmethod
    def assemble(
        cls,
        graph: FlatCellGraph,
        eps: float,
        predecessors: tuple[np.ndarray, np.ndarray],
        point_rows: np.ndarray,
        points: np.ndarray,
    ) -> "LabelingContext":
        """The broadcast for ``graph``: its canonical cell labels, the
        CSR ``predecessors`` of :func:`partial_predecessors`, and the
        core ``points`` of the sources (``points[i]`` lies in cell
        ``point_rows[i]``; a cell's points keep their order)."""
        order = np.argsort(point_rows, kind="stable")
        return cls(
            eps=eps,
            cell_labels=core_cell_labels(graph),
            predecessor_offsets=predecessors[0],
            predecessors=predecessors[1],
            core_point_offsets=_int32_offsets(
                np.bincount(point_rows, minlength=graph.n_slots)
            ),
            core_points=points[order],
        )


def _int32_offsets(sizes: np.ndarray) -> np.ndarray:
    """int32 CSR offsets of ``sizes``; raises when the total does not
    fit, rather than wrapping."""
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if offsets[-1] > np.iinfo(np.int32).max:
        raise ValueError(
            f"{int(offsets[-1])} labeling CSR entries overflow int32 offsets"
        )
    return offsets.astype(np.int32)


def core_cell_labels(graph: FlatCellGraph) -> np.ndarray:
    """Canonical cluster id per cell row of ``graph``; ``-1`` off core.

    One spanning tree over **full** edges is one cluster (Lemma 3.5).
    Clusters are numbered in the order of their smallest member's
    decimal string (so row 10 precedes row 9) — the canonical order of
    :meth:`~repro.graph.union_find.UnionFind.component_labels`, which
    the cluster ids have always followed.  The labels are thus a pure
    function of the graph's core set and full-edge connectivity — *not*
    of edge order, merge history, or how the graph was produced.  The
    from-scratch fit and the incremental ingest splice both route
    through this helper; identical connectivity therefore yields
    bit-identical cluster numbering, which is what makes an incremental
    refit indistinguishable from a full one.
    """
    core = np.flatnonzero(graph.status == V_CORE)
    compact = np.zeros(graph.n_slots, dtype=np.int64)
    compact[core] = np.arange(core.size)
    full = graph.etype == int(EdgeType.FULL)
    component = connected_components_arrays(
        core.size, compact[graph.src[full]], compact[graph.dst[full]]
    )
    # Rank components by where they first appear in decimal-string order.
    _, first = np.unique(
        component[np.argsort(core.astype(str), kind="stable")],
        return_index=True,
    )
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    labels = np.full(graph.n_slots, NOISE, dtype=np.int64)
    labels[core] = rank[component]
    return labels


def partial_predecessors(
    graph: FlatCellGraph, cells: np.ndarray | None = None
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The predecessor CSR of the labeling broadcast, and its sources.

    Returns ``((offsets, sources), needed)``: for every partial-edge
    destination (only those among ``cells`` when given), its partial-edge
    sources in ascending row order — the deterministic tie-break of
    :func:`label_partition` — keyed by destination row; and a boolean
    mask over rows of those sources, the cells whose core points the
    broadcast must carry.
    """
    partial = np.flatnonzero(graph.etype == int(EdgeType.PARTIAL))
    if cells is not None:
        wanted = np.zeros(graph.n_slots, dtype=bool)
        wanted[cells] = True
        partial = partial[wanted[graph.dst[partial]]]
    src = graph.src[partial].astype(np.int32)
    dst = graph.dst[partial]
    offsets = _int32_offsets(np.bincount(dst, minlength=graph.n_slots))
    needed = np.zeros(graph.n_slots, dtype=bool)
    needed[src] = True
    return (offsets, src[np.lexsort((src, dst))]), needed


def build_labeling_context(
    graph: FlatCellGraph,
    partitions: list[Partition],
    core_masks: dict[int, np.ndarray],
    eps: float,
) -> LabelingContext:
    """Driver-side assembly of the labeling broadcast.

    Parameters
    ----------
    graph:
        The global cell graph (Definition 6.1), vertexed by cell row.
    partitions:
        All pseudo random partitions (to gather core points of
        partial-edge source cells).
    core_masks:
        Per-partition boolean core masks from Phase II, keyed by pid.
    eps:
        DBSCAN radius.
    """
    predecessors, needed = partial_predecessors(graph)
    rows, blocks = [], []
    for partition in partitions:
        point_rows = partition.point_rows()
        local = np.flatnonzero(needed[point_rows] & core_masks[partition.pid])
        rows.append(point_rows[local])
        # take() reads just these rows from an out-of-core partition
        # instead of materializing the whole point block.
        blocks.append(partition.take(local))
    return LabelingContext.assemble(
        graph, eps, predecessors, np.concatenate(rows), np.concatenate(blocks)
    )


def label_partition(
    partition: Partition, context: LabelingContext
) -> tuple[np.ndarray, np.ndarray]:
    """Label one partition's points (Algorithm 4, ``Point_Labeling``).

    Returns ``(global_indices, labels)``; the driver scatters ``labels``
    into the full label array at ``global_indices``.
    """
    rows, offsets = partition.rows, partition.offsets
    sizes = np.diff(offsets)
    cell_labels = context.cell_labels[rows]
    # Core cell: every point joins the cell's spanning tree; the others
    # start as noise.
    labels = np.repeat(cell_labels, sizes)
    pred_offsets = context.predecessor_offsets
    n_preds = pred_offsets[rows + 1] - pred_offsets[rows]
    border = np.flatnonzero((cell_labels == NOISE) & (n_preds > 0))
    if border.size == 0:
        return partition.global_indices, labels
    # Only non-core cells with core predecessors ever need their points
    # here; take() keeps an out-of-core partition from materializing
    # wholesale just to label its (mostly core) cells.
    local = csr_gather_indices(offsets[border], sizes[border])
    pts = partition.take(local)
    # One (border point, predecessor) pair per predecessor of the
    # point's cell, point-major, predecessors ascending; each pair
    # checks the predecessor's core points, a CSR segment of the pool.
    point_pairs = np.repeat(n_preds[border], sizes[border])
    pair_point = np.repeat(np.arange(local.size, dtype=np.int64), point_pairs)
    pair_pred = context.predecessors[
        csr_gather_indices(
            np.repeat(pred_offsets[rows[border]], sizes[border]), point_pairs
        )
    ]
    core_offsets = context.core_point_offsets
    seg_start = core_offsets[pair_pred]
    reached = np.zeros(pair_pred.size, dtype=bool)
    eps2 = context.eps * context.eps
    for j0, j1, bounds, _, d2 in segmented_d2(
        pts, pair_point, seg_start, core_offsets[pair_pred + 1] - seg_start,
        context.core_points.T,
    ):
        segment_reduce(np.logical_or, d2 <= eps2, bounds, reached[j0:j1])
    # A point joins its first predecessor in ascending row order with a
    # core point within eps; every point owns at least one pair.
    pair_starts = np.zeros(local.size, dtype=np.int64)
    np.cumsum(point_pairs[:-1], out=pair_starts[1:])
    first = np.minimum.reduceat(
        np.where(reached, np.arange(reached.size), reached.size), pair_starts
    )
    found = first < reached.size
    labels[local[found]] = context.cell_labels[pair_pred[first[found]]]
    return partition.global_indices, labels
