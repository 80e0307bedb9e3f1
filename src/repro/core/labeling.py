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

from repro.core.cell_graph import EdgeType, FlatCellGraph
from repro.core.dictionary import FlatCellDictionary, index_rows
from repro.core.partitioning import Partition
from repro.core.sharding import PartialFlatDictionary
from repro.graph.spanning_forest import connected_components
from repro.spatial.distance import pairwise_distances

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
    """Broadcast payload for Phase III-2.

    Cells are addressed by their dense dictionary *row*, matching the
    vertices of the global cell graph.

    Attributes
    ----------
    eps:
        DBSCAN radius for the exact border checks.
    dictionary:
        The broadcast dictionary shared with Phase II; it maps each
        partition's cell ids to their rows.
    cell_labels:
        Cluster id for every core cell index (dense ints from 0).
    predecessors:
        For each non-core cell index, its predecessor core cell indices
        via partial edges, sorted for deterministic tie-breaking.
    predecessor_core_points:
        The actual core points of every cell that appears as a partial-
        edge source, gathered across partitions by the driver.
    """

    eps: float
    dictionary: FlatCellDictionary | PartialFlatDictionary
    cell_labels: dict[int, int]
    predecessors: dict[int, list[int]]
    predecessor_core_points: dict[int, np.ndarray]

    @property
    def n_clusters(self) -> int:
        """Number of distinct clusters."""
        if not self.cell_labels:
            return 0
        return len(set(self.cell_labels.values()))

    def cell_label_array(self, num_cells: int) -> np.ndarray:
        """``(num_cells,)`` int64 cluster id per cell row, ``-1`` for
        non-core cells — the model plane's ``cell_labels`` column."""
        out = np.full(num_cells, NOISE, dtype=np.int64)
        count = len(self.cell_labels)
        if count:
            out[np.fromiter(self.cell_labels, dtype=np.int64, count=count)] = (
                np.fromiter(self.cell_labels.values(), dtype=np.int64, count=count)
            )
        return out


def core_cell_labels(graph: FlatCellGraph) -> dict[int, int]:
    """Canonical cluster id for every core cell of ``graph``.

    One spanning tree over **full** edges is one cluster (Lemma 3.5);
    :func:`~repro.graph.spanning_forest.connected_components` numbers the
    components canonically (by their smallest member), so the mapping is
    a pure function of the graph's core set and full-edge connectivity —
    *not* of edge order, merge history, or how the graph was produced.
    The from-scratch fit and the incremental ingest splice both route
    through this helper; identical connectivity therefore yields
    bit-identical cluster numbering, which is what makes an incremental
    refit indistinguishable from a full one.
    """
    return connected_components(
        sorted(graph.core), graph.edges_of_type(EdgeType.FULL)
    )


def partial_predecessors(
    graph: FlatCellGraph, cells: np.ndarray | None = None
) -> tuple[dict[int, list[int]], np.ndarray]:
    """The predecessor map of the labeling broadcast, and its sources.

    Maps every partial-edge destination (only those among ``cells``
    when given) to its partial-edge sources in ascending row order —
    the deterministic tie-break of :func:`label_partition`.  Also
    returns the ascending distinct sources: the cells whose core points
    the broadcast must carry.
    """
    partial = np.flatnonzero(graph.etype == int(EdgeType.PARTIAL))
    if cells is not None:
        wanted = np.zeros(graph.n_slots, dtype=bool)
        wanted[cells] = True
        partial = partial[wanted[graph.dst[partial]]]
    src, dst = graph.src[partial], graph.dst[partial]
    order = np.lexsort((src, dst))
    predecessors: dict[int, list[int]] = {}
    for s, d in zip(src[order].tolist(), dst[order].tolist()):
        predecessors.setdefault(d, []).append(s)
    return predecessors, np.unique(src).astype(np.int64)


def build_labeling_context(
    graph: FlatCellGraph,
    partitions: list[Partition],
    core_masks: dict[int, np.ndarray],
    eps: float,
    dictionary: FlatCellDictionary | PartialFlatDictionary,
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
    dictionary:
        The dictionary whose rows are the graph's vertices.
    """
    cell_labels = core_cell_labels(graph)
    predecessors, needed = partial_predecessors(graph)

    predecessor_core_points: dict[int, np.ndarray] = {}
    for partition in partitions:
        if not partition.cell_slices:
            continue
        mask = core_masks[partition.pid]
        rows, bounds = _partition_rows(partition, dictionary)
        for g in np.flatnonzero(np.isin(rows, needed)).tolist():
            start, stop = int(bounds[g]), int(bounds[g + 1])
            # gather_rows reads just these rows from an out-of-core
            # partition instead of materializing the whole point block.
            core_points = partition.gather_rows(start, stop, mask[start:stop])
            predecessor_core_points[int(rows[g])] = core_points
    return LabelingContext(
        eps=eps,
        dictionary=dictionary,
        cell_labels=cell_labels,
        predecessors=predecessors,
        predecessor_core_points=predecessor_core_points,
    )


def _partition_rows(
    partition: Partition, dictionary: FlatCellDictionary | PartialFlatDictionary
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, bounds)``: the dense row of every cell of ``partition``
    (one lookup for the partition) and the cells' CSR point bounds."""
    first = next(iter(partition.cell_slices))
    cell_ids, bounds = partition.cell_table(len(first))
    return index_rows(dictionary, cell_ids), bounds


def label_partition(
    partition: Partition, context: LabelingContext
) -> tuple[np.ndarray, np.ndarray]:
    """Label one partition's points (Algorithm 4, ``Point_Labeling``).

    Returns ``(global_indices, labels)``; the driver scatters ``labels``
    into the full label array at ``global_indices``.
    """
    labels = np.full(partition.num_points, NOISE, dtype=np.int64)
    if not partition.cell_slices:
        return partition.global_indices, labels
    eps = context.eps
    rows, bounds = _partition_rows(partition, context.dictionary)
    for g, row in enumerate(rows.tolist()):
        start, stop = int(bounds[g]), int(bounds[g + 1])
        cluster = context.cell_labels.get(row)
        if cluster is not None:
            # Core cell: every point joins the cell's spanning tree.
            labels[start:stop] = cluster
            continue
        preds = context.predecessors.get(row)
        if not preds:
            continue  # Non-core cell with no core predecessor: noise.
        # Only non-core cells with core predecessors ever need their
        # points here; gather_rows keeps an out-of-core partition from
        # materializing wholesale just to label its (mostly core) cells.
        pts = partition.gather_rows(start, stop)
        assigned = np.zeros(pts.shape[0], dtype=bool)
        for pred in preds:
            if assigned.all():
                break
            core_points = context.predecessor_core_points.get(pred)
            if core_points is None or core_points.shape[0] == 0:
                continue
            pending = ~assigned
            dist = pairwise_distances(pts[pending], core_points)
            reachable = (dist <= eps).any(axis=1)
            if not reachable.any():
                continue
            rows = np.nonzero(pending)[0][reachable]
            labels[start + rows] = context.cell_labels[pred]
            assigned[rows] = True
    return partition.global_indices, labels
