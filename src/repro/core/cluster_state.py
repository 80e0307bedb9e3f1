"""The persistent model plane: :class:`ClusterState` + incremental refit.

A fit used to be a one-shot pipeline: the flat dictionary, the global
cell graph, and the union-find component labels were all discarded once
the per-point label array existed.  This module makes that intermediate
world a first-class, serializable product — the **model plane** —
so it can be

* **served**: :class:`~repro.core.prediction.ClusterModel` is a thin
  view over the state answering batch label queries;
* **persisted**: ``core/serialization.py`` round-trips the state through
  the magic-dispatched ``RPST`` stream (byte-stable);
* **refit incrementally**: :meth:`ClusterState.ingest` appends points
  and, through the engine, sweeps only what they can reach: the old
  points near them against a dictionary of the new points alone, and
  the new points plus the old points they promote to core against the
  union.  It splices the found edges into the old graph and relabels
  only the non-core cells whose labels can change.

Bit-identity contract
---------------------
``state.ingest(new)`` leaves the state **bit-identical** (dictionary
arrays, vertex statuses, cell labels, per-point labels, core flags and
neighbor counts) to a from-scratch ``fit`` on the concatenated points.
Five facts carry the proof:

1. *Partition invariance.*  Pseudo random partitioning assigns whole
   cells, so a Phase II batch is always "one cell's points in ascending
   global-index order against the global dictionary" — which partition
   the cell landed in never reaches the arithmetic.  The ingest path may
   therefore regroup cells into fresh partitions without reproducing
   the fit's RNG.
2. *Counts are additive.*  A point's count is the density sum of the
   sub-cells whose centers lie within eps of it (Def 5.1).  A sub-cell's
   center depends only on its grid position, and its union density is
   its old density plus its density among the new points.  So a point's
   union count is its stored count plus its count against a dictionary
   of the new points alone (the *delta*).  Every term is an integer
   below 2**53, so the float64 sum is exact in any order, and a delta
   sweep seeded with the stored count returns the from-scratch count
   bit for bit.  Only a point within eps of a new sub-cell center has a
   nonzero delta; its cell's box lies within eps of that sub-cell's
   (touched) cell, so it is a candidate of a touched cell — the *dirty*
   set, by symmetry of the box-gap relation.  Points of other cells
   keep their counts and core flags verbatim.
3. *Touches only grow.*  The cells a point touches (holds a neighbor
   sub-cell in) after the ingest are the cells it touched before plus
   the touched cells its delta reaches, and core status only promotes.
   The union's edges — one per (cell of a core point, cell it touches),
   Algorithm 3 lines 13-16 — are therefore the old edges (old core
   points, old touches), plus the delta touches of points that are core
   now, plus every touch of a point that was not core before: new
   points, and old points the delta promoted.  Only those are swept
   against the union dictionary.  The old graph is stored reduced, but
   reduction drops only full edges its forest already joins and keeps
   every partial edge, so its full-edge connectivity and partial edges
   (the parts labeling reads) are those of the unreduced graph.
4. *Canonical renumbering.*  Cluster ids are a pure function of the
   core set and full-edge connectivity
   (:func:`~repro.core.labeling.core_cell_labels`, shared with the fit
   path), so identical connectivity yields identical cell labels.  An
   old cluster's core cells stay core and connected, so each old id
   maps to exactly one new id.
5. *Which labels can change.*  A point of a core cell takes its cell's
   id.  A point of a non-core cell ``D`` takes the id of ``D``'s first
   predecessor (ascending row; inserted cells never reorder old rows)
   holding a core point within eps, else noise (Lemma 3.5).  Beyond the
   id map, that can change only when ``D``'s points, its predecessor
   set, or a predecessor's core points change.  New points and delta
   touches land in touched cells; every other new predecessor edge
   starts at a cell whose core points changed, and that cell's partial
   edges name every ``D`` it reaches.  Phase III-2 relabels exactly
   those non-core cells; every other label maps through the id map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.cell_graph import V_CORE, V_NONCORE, EdgeType, FlatCellGraph
from repro.core.cells import CellGeometry
from repro.core.construction import (
    QueryContext,
    SubgraphResult,
    assemble_subgraph,
    touched_edges,
)
from repro.core.dictionary import FlatCellDictionary
from repro.core.labeling import (
    NOISE,
    LabelingContext,
    label_partition,
    partial_predecessors,
)
from repro.core.merging import progressive_merge
from repro.core.partitioning import Partition

__all__ = [
    "ClusterState",
    "IngestReport",
    "PHASE_INGEST_GRAPH",
    "PHASE_INGEST_MERGE",
    "PHASE_INGEST_LABEL",
]

#: Counter/span buckets of the incremental-refit pipeline.  Distinct
#: from the fit-phase names so a shared engine's fit breakdown (Fig 12)
#: is never polluted by refit work.
PHASE_INGEST_GRAPH = "ingest II dirty cells"
PHASE_INGEST_MERGE = "ingest III-1 merging"
PHASE_INGEST_LABEL = "ingest III-2 relabel"


@dataclass
class IngestReport:
    """The dirty-cell ledger of one :meth:`ClusterState.ingest` call."""

    #: Points appended by this ingest.
    num_new_points: int
    #: Cells in the union dictionary after the ingest.
    cells_total: int
    #: Cells whose points the delta sweep visited (the eps-neighborhood
    #: of every touched cell).
    cells_dirty: int
    #: Cells that did not exist before this ingest.
    cells_new: int
    #: Edges the delta sweep found, before deduplication against the
    #: retained edges and splice reduction: the delta touches of core
    #: points plus every touch of a new or newly core point.
    edges_recomputed: int
    #: Edges of the previous graph, all retained (ingest only adds).
    edges_retained: int
    #: Wall seconds of the driver-side splice (status merge, edge
    #: re-typing, reduction).
    splice_seconds: float
    #: Wall seconds of the whole ingest call.
    total_seconds: float
    #: Cluster count after the ingest.
    n_clusters: int


@dataclass
class ClusterState:
    """Everything a fitted clustering *is*, in columnar form.

    Attributes
    ----------
    geometry:
        Cell geometry (eps, dim, rho) shared by every component.
    min_pts:
        Core threshold the state was fitted with.
    dictionary:
        The flat two-level cell dictionary of all fitted points.
    graph:
        The global cell graph (Definition 6.1) over the dictionary's
        dense rows: int8 vertex statuses (core/noncore) and the reduced
        FULL/PARTIAL edge list, union-find forest included.
    cell_labels:
        ``(C,)`` int64 canonical cluster id per cell row; ``-1`` for
        non-core cells.
    points:
        ``(n, d)`` float64 fitted points, in ingestion order.
    point_cell_rows:
        ``(n,)`` int64 dictionary row of each point's cell.
    labels:
        ``(n,)`` int64 per-point cluster labels (``-1`` noise).
    core_mask:
        ``(n,)`` bool per-point core flags.
    counts:
        ``(n,)`` float64 per-point neighbor densities (Algorithm 3 line
        8); ``core_mask`` is ``counts >= min_pts``.  Ingest adds the new
        points' share to them instead of recounting.
    kernel:
        Resolved Phase II backend (``"numpy"``/``"numba"``/``"python"``)
        used for queries — ingest reuses it so recomputed answers stay
        bit-identical.
    candidate_strategy:
        Candidate-cell search strategy, likewise reused.
    num_tasks:
        Task fan-out for ingest's engine-mapped phases.
    """

    geometry: CellGeometry
    min_pts: int
    dictionary: FlatCellDictionary
    graph: FlatCellGraph
    cell_labels: np.ndarray
    points: np.ndarray
    point_cell_rows: np.ndarray
    labels: np.ndarray
    core_mask: np.ndarray
    counts: np.ndarray
    kernel: str = "numpy"
    candidate_strategy: str = "auto"
    num_tasks: int = 8

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def eps(self) -> float:
        """The DBSCAN radius."""
        return self.geometry.eps

    @property
    def num_points(self) -> int:
        """Number of fitted points."""
        return int(self.points.shape[0])

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return int(self.dictionary.num_cells)

    @property
    def n_clusters(self) -> int:
        """Number of clusters."""
        mask = self.cell_labels >= 0
        if not mask.any():
            return 0
        return int(np.unique(self.cell_labels[mask]).size)

    @classmethod
    def empty(
        cls,
        geometry: CellGeometry,
        min_pts: int,
        *,
        kernel: str = "numpy",
        candidate_strategy: str = "auto",
        num_tasks: int = 8,
    ) -> "ClusterState":
        """The state of a fit on zero points (everything empty)."""
        d = geometry.dim
        return cls(
            geometry=geometry,
            min_pts=int(min_pts),
            dictionary=FlatCellDictionary._empty(geometry),
            graph=FlatCellGraph(0),
            cell_labels=np.empty(0, dtype=np.int64),
            points=np.empty((0, d), dtype=np.float64),
            point_cell_rows=np.empty(0, dtype=np.int64),
            labels=np.empty(0, dtype=np.int64),
            core_mask=np.empty(0, dtype=bool),
            counts=np.empty(0, dtype=np.float64),
            kernel=kernel,
            candidate_strategy=candidate_strategy,
            num_tasks=num_tasks,
        )

    def validate(self) -> None:
        """Cheap structural invariants (tests and load-time checks)."""
        n = self.points.shape[0]
        C = self.dictionary.num_cells
        if self.graph.n_slots != C:
            raise ValueError("graph universe must match the dictionary")
        if self.cell_labels.shape != (C,):
            raise ValueError("cell_labels must be (C,)")
        for name in ("point_cell_rows", "labels", "core_mask", "counts"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must be (n,)")
        if not np.array_equal(self.counts >= self.min_pts, self.core_mask):
            raise ValueError("core_mask must be counts >= min_pts")
        if n and (
            self.point_cell_rows.min() < 0 or self.point_cell_rows.max() >= C
        ):
            raise ValueError("point_cell_rows outside the dictionary")
        if int(self.dictionary.cell_counts.sum()) != n:
            raise ValueError("dictionary counts disagree with points")

    # ------------------------------------------------------------------
    # Incremental refit
    # ------------------------------------------------------------------

    def ingest(
        self,
        new_points: np.ndarray,
        *,
        engine=None,
        num_tasks: int | None = None,
    ) -> IngestReport:
        """Append ``new_points`` and refit only what they can affect.

        The state is updated in place; the result is bit-identical to a
        from-scratch fit on ``concatenate([self.points, new_points])``
        (see the module docstring for why).  Engine-mapped phases ride
        the given engine's recovery loop, so worker crashes, delays, and
        chaos injection mid-refit recover to the same answer.

        Parameters
        ----------
        new_points:
            ``(m, d)`` points to append.
        engine:
            An :class:`~repro.engine.executors.Engine` for the delta
            Phase II / III work; a fresh serial engine when ``None``.
        num_tasks:
            Fan-out for the mapped phases (default: the state's).
        """
        # Local import: the engine package imports core modules.
        from repro.engine.executors import Engine

        pts = np.asarray(new_points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(
                f"points must be a 2-d array of shape (n, d), got shape "
                f"{pts.shape}"
            )
        if pts.shape[1] != self.geometry.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]} but the state has dim "
                f"{self.geometry.dim}"
            )
        if pts.size and not np.isfinite(pts).all():
            bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
            raise ValueError(
                f"points contain NaN/inf coordinates in {bad} row(s); the "
                "cell grid requires finite coordinates"
            )
        if pts.size:
            self.geometry.check_range(pts.min(), pts.max())
        if pts.shape[0] == 0:
            return IngestReport(
                num_new_points=0,
                cells_total=self.num_cells,
                cells_dirty=0,
                cells_new=0,
                edges_recomputed=0,
                edges_retained=self.graph.num_edges,
                splice_seconds=0.0,
                total_seconds=0.0,
                n_clusters=self.n_clusters,
            )
        engine = engine if engine is not None else Engine("serial")
        tasks = int(num_tasks) if num_tasks is not None else self.num_tasks
        start_total = time.perf_counter()
        with engine.tracer.span("ingest", "driver"):
            report = self._ingest_traced(pts, engine, tasks)
        report.total_seconds = time.perf_counter() - start_total
        spans = engine.tracer.find(kind="driver", name="ingest")
        if spans:
            spans[-1].annotations.update(
                num_new_points=report.num_new_points,
                cells_total=report.cells_total,
                cells_dirty=report.cells_dirty,
                cells_new=report.cells_new,
                edges_recomputed=report.edges_recomputed,
                edges_retained=report.edges_retained,
                splice_seconds=report.splice_seconds,
            )
        return report

    def _ingest_traced(self, pts, engine, num_tasks) -> IngestReport:
        geometry = self.geometry
        old_dict = self.dictionary
        n1 = self.points.shape[0]
        n2 = pts.shape[0]
        n = n1 + n2

        # ---- Dictionaries: the union (bit-identical to from_points on
        # it) and the delta of the new points alone ------------------
        new_dict = old_dict.add_points(pts)
        delta_dict = FlatCellDictionary.from_points(pts, geometry)
        C_new = new_dict.num_cells
        cells_new = C_new - old_dict.num_cells
        rowmap_old = new_dict.find_rows(old_dict.cell_ids)
        point_cell_rows = np.concatenate(
            [
                rowmap_old[self.point_cell_rows],
                new_dict.find_rows(geometry.cell_ids(pts)),
            ]
        )
        points_all = np.concatenate([self.points, pts])
        # The touched cells are the delta's cells (ascending rows).
        touched = new_dict.find_rows(delta_dict.cell_ids)
        context = _DeltaContext(
            union=QueryContext(
                new_dict, strategy=self.candidate_strategy, kernel=self.kernel
            ),
            delta=QueryContext(
                delta_dict, strategy=self.candidate_strategy, kernel=self.kernel
            ),
            delta_rows=touched,
            num_old=n1,
            min_pts=self.min_pts,
        )

        # ---- Dirty marking: eps-neighborhood of every touched cell ----
        dirty_rows, _ = context.union.engine.candidate_rows_batch(
            new_dict.cell_ids[touched]
        )
        dirty = np.unique(dirty_rows)

        # ---- Phase II delta sweep, dirty cells only (engine) ---------
        counts = np.concatenate([self.counts, np.zeros(n2)])
        core_mask = np.concatenate([self.core_mask, np.zeros(n2, dtype=bool)])
        partitions = _partitions_over_cells(
            points_all, point_cell_rows, dirty, num_tasks
        )
        results = engine.map_tasks(
            _delta_phase2_worker,
            [(p, counts[p.global_indices]) for p in partitions],
            broadcast=context,
            phase=PHASE_INGEST_GRAPH,
            item_counter=lambda t: t[0].num_points,
            warmup=_delta_warmup,
        )
        for partition, result in zip(partitions, results, strict=True):
            counts[partition.global_indices] = result.counts
            core_mask[partition.global_indices] = result.core_mask
        newly_core = core_mask.copy()
        newly_core[:n1] &= ~self.core_mask

        # ---- Phase III-1 on the delta subgraphs ----------------------
        delta_graphs = [r.graph for r in results]
        edges_recomputed = sum(g.num_edges for g in delta_graphs)
        delta_graph, _ = progressive_merge(
            delta_graphs, engine=engine, phase=PHASE_INGEST_MERGE
        )

        # ---- Splice: old graph + delta edges --------------------------
        splice_start = time.perf_counter()
        status = np.zeros(C_new, dtype=np.int8)
        status[rowmap_old] = self.graph.status
        # Clean cells keep their determined status; an undetermined
        # delta vertex never beats it.
        np.maximum(status, delta_graph.status, out=status)
        edges_retained = self.graph.num_edges
        src = np.concatenate([rowmap_old[self.graph.src], delta_graph.src])
        dst = np.concatenate([rowmap_old[self.graph.dst], delta_graph.dst])
        _, first = np.unique(src * C_new + dst, return_index=True)
        src, dst = src[first], dst[first]
        # Every destination is a real cell, so its final status is core
        # or noncore — one vectorized re-type replaces Section 6.1.3's
        # detection for the whole union, promoting old PARTIAL edges
        # whose destination just became core.
        etype = np.where(
            status[dst] == V_CORE, int(EdgeType.FULL), int(EdgeType.PARTIAL)
        ).astype(np.int8)
        spliced = FlatCellGraph.from_arrays(status, src, dst, etype)
        spliced.reduce_all_full_edges()
        splice_seconds = time.perf_counter() - splice_start

        # ---- Phase III-2: map old labels, relabel what can change -----
        relabel = _cells_to_relabel(
            spliced, touched, point_cell_rows[newly_core]
        )
        labeling_context = _relabel_context(
            spliced, relabel, points_all, point_cell_rows, core_mask,
            geometry.eps,
        )
        cell_labels = labeling_context.cell_labels
        labels = np.full(n, NOISE, dtype=np.int64)
        if n1:
            # Old cluster -> new cluster: an old cluster's core cells
            # stay core and connected, so any one of them names it.
            old_core = np.flatnonzero(self.cell_labels >= 0)
            id_map = np.full(int(self.cell_labels.max(initial=-1)) + 1, NOISE)
            id_map[self.cell_labels[old_core]] = cell_labels[
                rowmap_old[old_core]
            ]
            clustered = np.flatnonzero(self.labels >= 0)
            labels[clustered] = id_map[self.labels[clustered]]
        in_core = status[point_cell_rows] == V_CORE
        labels[in_core] = cell_labels[point_cell_rows[in_core]]
        label_chunks = engine.map_tasks(
            label_partition,
            _partitions_over_cells(
                points_all, point_cell_rows, relabel, num_tasks
            ),
            broadcast=labeling_context,
            phase=PHASE_INGEST_LABEL,
            item_counter=lambda p: p.num_points,
        )
        for global_indices, chunk_labels in label_chunks:
            labels[global_indices] = chunk_labels

        # ---- Commit ---------------------------------------------------
        self.dictionary = new_dict
        self.graph = spliced
        self.cell_labels = cell_labels
        self.points = points_all
        self.point_cell_rows = point_cell_rows
        self.labels = labels
        self.core_mask = core_mask
        self.counts = counts
        return IngestReport(
            num_new_points=n2,
            cells_total=C_new,
            cells_dirty=int(dirty.size),
            cells_new=int(cells_new),
            edges_recomputed=edges_recomputed,
            edges_retained=edges_retained,
            splice_seconds=splice_seconds,
            total_seconds=0.0,
            n_clusters=self.n_clusters,
        )


# ----------------------------------------------------------------------
# Phase II: the delta sweep
# ----------------------------------------------------------------------


@dataclass
class _DeltaContext:
    """Broadcast of the ingest's Phase II.

    ``union`` queries the union dictionary, ``delta`` the new points'
    dictionary; ``delta_rows`` maps each delta row to its union row.
    Points with a global index below ``num_old`` are old: their stored
    counts arrive with the task as seeds.
    """

    union: QueryContext
    delta: QueryContext
    delta_rows: np.ndarray
    num_old: int
    min_pts: int


def _delta_warmup(context: _DeltaContext) -> None:
    """Warm-up hook: build both region-query engines per worker."""
    context.delta.engine.warmup_kernel()
    context.union.engine.warmup_kernel()


def _delta_phase2_worker(task, context: _DeltaContext) -> SubgraphResult:
    """One ingest Phase II task: ``(partition, seeds)`` over dirty cells.

    Old points are swept against the delta dictionary, seeded with
    their stored counts; new points and old points that just reached
    ``min_pts`` are swept against the union.  Edges are both sweeps'
    touches, deduplicated; vertex statuses cover the owned cells.
    """
    partition, seeds = task
    min_pts = float(context.min_pts)
    union = context.union
    rows, bounds = partition.rows, partition.offsets
    cell_ids = union.dictionary.cell_ids[rows]
    old = partition.global_indices < context.num_old
    counts = np.empty(partition.num_points, dtype=np.float64)
    old_counts, d_src, d_dst = _sweep_subset(
        context.delta.engine, cell_ids, rows, partition.points, bounds, old,
        min_pts, seeds[old], context.delta_rows,
    )
    counts[old] = old_counts
    full = ~old
    full[old] = (seeds[old] < min_pts) & (old_counts >= min_pts)
    full_counts, f_src, f_dst = _sweep_subset(
        union.engine, cell_ids, rows, partition.points, bounds, full, min_pts,
    )
    counts[~old] = full_counts[~old[full]]
    core_mask = counts >= min_pts
    core_rows = rows[np.add.reduceat(core_mask, bounds[:-1]) > 0]
    n_slots = union.dictionary.num_cells
    keys = np.unique(
        np.concatenate([d_src * n_slots + d_dst, f_src * n_slots + f_dst])
    )
    return SubgraphResult(
        pid=partition.pid,
        graph=assemble_subgraph(
            n_slots, rows, core_rows, keys // n_slots, keys % n_slots
        ),
        core_mask=core_mask,
        counts=counts,
        num_queries=int(np.count_nonzero(old) + np.count_nonzero(full)),
    )


def _sweep_subset(
    engine, cell_ids, rows, points, bounds, mask, min_count, seeds=None,
    dst_rows=None,
):
    """Sweep the ``mask``-ed points of a cell-grouped block.

    Groups left without points are skipped (no candidate search).
    Returns the masked points' counts and the ``(src, dst)`` edges of
    their touches, both in ``rows``' dictionary: ``dst_rows`` maps
    ``engine``'s rows to it when they differ (see :func:`touched_edges`).
    """
    before = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=before[1:])
    sizes = np.diff(before[bounds])
    keep = sizes > 0
    offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(sizes[keep], out=offsets[1:])
    result = engine.query_partition(
        cell_ids[keep], points[mask], offsets, min_count, seeds
    )
    src, dst = touched_edges(rows[keep], result, dst_rows)
    return result.counts, src, dst


# ----------------------------------------------------------------------
# Phase III-2: the partial relabel
# ----------------------------------------------------------------------


def _cells_to_relabel(
    graph: FlatCellGraph, touched: np.ndarray, core_changed_rows: np.ndarray
) -> np.ndarray:
    """Ascending rows of the non-core cells whose labels can change: the
    touched cells and every partial-edge destination of a cell whose
    core points changed (module docstring, fact 5)."""
    mark = np.zeros(graph.n_slots, dtype=bool)
    mark[touched] = True
    changed = np.zeros(graph.n_slots, dtype=bool)
    changed[core_changed_rows] = True
    partial = graph.etype == int(EdgeType.PARTIAL)
    mark[graph.dst[partial & changed[graph.src]]] = True
    return np.flatnonzero(mark & (graph.status == V_NONCORE))


def _relabel_context(
    graph: FlatCellGraph,
    cells: np.ndarray,
    points: np.ndarray,
    point_cell_rows: np.ndarray,
    core_mask: np.ndarray,
    eps: float,
) -> LabelingContext:
    """The labeling broadcast for the non-core ``cells`` only: every
    core cell's canonical id, the cells' sorted predecessors, and those
    predecessors' core points, ascending global index within a cell.
    The fit gathers the same core points from its partitions; here they
    are resident."""
    predecessors, needed = partial_predecessors(graph, cells)
    pick = np.flatnonzero(core_mask & needed[point_cell_rows])
    return LabelingContext.assemble(
        graph, eps, predecessors, point_cell_rows[pick], points[pick]
    )


def _partitions_over_cells(
    points: np.ndarray,
    point_cell_rows: np.ndarray,
    cell_rows: np.ndarray,
    num_tasks: int,
) -> list[Partition]:
    """Fresh whole-cell partitions over a subset of dictionary rows.

    Each returned partition holds whole cells, every cell's points in
    ascending global-index order — exactly the per-cell batch
    composition pseudo random partitioning produces, which is what keeps
    recomputed Phase II answers bit-identical regardless of how cells
    are regrouped here (partition invariance).
    """
    selected = np.flatnonzero(np.isin(point_cell_rows, cell_rows))
    if selected.size == 0:
        return []
    # Stable sort by cell row: grouped by cell, ascending global index
    # within each cell.
    order = selected[np.argsort(point_cell_rows[selected], kind="stable")]
    cells, starts = np.unique(point_cell_rows[order], return_index=True)
    bounds = np.append(starts, order.size)
    groups = [
        g for g in np.array_split(np.arange(cells.size), max(1, num_tasks))
        if g.size
    ]
    partitions: list[Partition] = []
    for pid, group in enumerate(groups):
        cell_bounds = bounds[group[0] : group[-1] + 2]
        sel = order[cell_bounds[0] : cell_bounds[-1]]
        partitions.append(
            Partition(
                pid, points[sel], sel, cells[group], cell_bounds - cell_bounds[0]
            )
        )
    return partitions
