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
* **refit incrementally**: :meth:`ClusterState.ingest` appends points,
  dirty-marks the eps-neighborhood of every touched cell, re-runs
  Phases II/III *only on the dirty subgraph* through the engine, and
  splices the result back under canonical component renumbering.

Bit-identity contract
---------------------
``state.ingest(new)`` leaves the state **bit-identical** (dictionary
arrays, vertex statuses, cell labels, per-point labels and core flags)
to a from-scratch ``fit`` on the concatenated points.  Three facts carry
the proof:

1. *Partition invariance.*  Pseudo random partitioning assigns whole
   cells, so a Phase II batch is always "one cell's points in ascending
   global-index order against the global dictionary" — which partition
   the cell landed in never reaches the arithmetic.  The ingest path may
   therefore regroup dirty cells into fresh partitions without
   reproducing the fit's RNG.
2. *Monotonicity.*  Ingest only adds points: densities grow, core
   status only promotes, per-cell touch sets only grow.  A **clean**
   cell (no dirty cell among its candidates) sees exactly the candidate
   contents it saw before, so its counts, core flags, and out-edges are
   already the union's — they are retained verbatim.  Dirty cells are
   recomputed against the union dictionary, so they are exact too.
3. *Canonical renumbering.*  Cluster ids are a pure function of the
   core set and full-edge connectivity
   (:func:`~repro.core.labeling.core_cell_labels`, shared with the fit
   path), and Phase III-2 labels each cell from state-level data only —
   so identical connectivity yields identical labels.

The dirty rule itself is sound because the candidate relation (box-to-
box gap <= eps) is symmetric: if a touched cell could influence ``c``,
then ``c`` is in the touched cell's candidate set, hence dirty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.cell_graph import EdgeType, FlatCellGraph, V_CORE
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext
from repro.core.dictionary import FlatCellDictionary
from repro.core.labeling import (
    NOISE,
    build_labeling_context,
    core_cell_labels,
)
from repro.core.merging import progressive_merge
from repro.core.partitioning import Partition
from repro.spatial.cell_index import NeighborCellFinder

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
    #: Cells whose Phase II answers were recomputed (the eps-
    #: neighborhood of every touched cell).
    cells_dirty: int
    #: Cells that did not exist before this ingest.
    cells_new: int
    #: Edges produced by the dirty re-run (before splice reduction).
    edges_recomputed: int
    #: Clean-source edges retained verbatim from the previous graph.
    edges_retained: int
    #: Wall seconds of the driver-side splice (status merge, edge
    #: re-typing, reduction, canonical renumbering).
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
    kernel:
        Resolved Phase II backend (``"numpy"``/``"numba"``/``"python"``)
        used for queries — ingest reuses it so recomputed answers stay
        bit-identical.
    candidate_strategy:
        Candidate-cell search strategy, likewise reused.
    merge_mode:
        Phase III-1 scheduling for ingest's dirty-subgraph tournament.
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
    kernel: str = "numpy"
    candidate_strategy: str = "auto"
    merge_mode: str = "auto"
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
        merge_mode: str = "auto",
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
            kernel=kernel,
            candidate_strategy=candidate_strategy,
            merge_mode=merge_mode,
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
        for name in ("point_cell_rows", "labels"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must be (n,)")
        if self.core_mask.shape != (n,):
            raise ValueError("core_mask must be (n,)")
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
        merge_mode: str | None = None,
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
            An :class:`~repro.engine.executors.Engine` for the dirty
            Phase II / III work; a fresh serial engine when ``None``.
        num_tasks:
            Fan-out for the mapped phases (default: the state's).
        merge_mode:
            Tournament scheduling for the dirty-subgraph merge
            (default: the state's).
        """
        # Local imports: rp_dbscan imports this module for state
        # assembly, so the shared phase workers must resolve lazily.
        from repro.core.rp_dbscan import (
            _phase2_warmup,
            _phase2_worker,
            _phase3_worker,
        )
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
        mode = merge_mode if merge_mode is not None else self.merge_mode
        start_total = time.perf_counter()
        with engine.tracer.span("ingest", "driver"):
            report = self._ingest_traced(
                pts, engine, tasks, mode,
                _phase2_worker, _phase2_warmup, _phase3_worker,
            )
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

    def _ingest_traced(
        self, pts, engine, num_tasks, merge_mode, phase2, warmup, phase3
    ) -> IngestReport:
        geometry = self.geometry
        old_dict = self.dictionary
        n1 = self.points.shape[0]
        n2 = pts.shape[0]
        n = n1 + n2

        # ---- Dictionary union (bit-identical to from_points on it) ----
        new_dict = old_dict.add_points(pts)
        C_new = new_dict.num_cells
        cells_new = C_new - old_dict.num_cells
        new_point_rows = new_dict.find_rows(geometry.cell_ids(pts))
        rowmap_old = new_dict.find_rows(old_dict.cell_ids)
        point_cell_rows = np.concatenate(
            [
                rowmap_old[self.point_cell_rows]
                if n1
                else np.empty(0, dtype=np.int64),
                new_point_rows,
            ]
        )
        points_all = np.concatenate([self.points, pts])

        # ---- Dirty marking: eps-neighborhood of every touched cell ----
        # candidate_rows is computed on the union dictionary; symmetry
        # of the box-gap relation makes this a sound invalidation set.
        touched = np.unique(new_point_rows)
        finder = NeighborCellFinder(
            new_dict.cell_ids,
            geometry.side,
            geometry.eps,
            strategy=self.candidate_strategy,
        )
        dirty_rows, _ = finder.candidate_rows_batch(new_dict.cell_ids[touched])
        dirty = np.unique(dirty_rows)

        # ---- Phase II, dirty cells only (through the engine) ----------
        dirty_partitions = _partitions_over_cells(
            points_all, point_cell_rows, new_dict, dirty, num_tasks
        )
        context = QueryContext(
            new_dict, strategy=self.candidate_strategy, kernel=self.kernel
        )
        subgraph_results = engine.map_tasks(
            phase2,
            [(p, None) for p in dirty_partitions],
            broadcast=(context, self.min_pts, "flat"),
            phase=PHASE_INGEST_GRAPH,
            item_counter=lambda t: t[0].num_points,
            warmup=warmup,
        )

        # ---- Phase III-1 on the dirty subgraphs -----------------------
        dirty_graphs = [r.graph for r in subgraph_results]
        edges_recomputed = sum(g.num_edges for g in dirty_graphs)
        dirty_graph, _ = progressive_merge(
            dirty_graphs,
            merge_mode=merge_mode,
            engine=engine,
            phase=PHASE_INGEST_MERGE,
        )

        # ---- Splice: retained clean world + recomputed dirty world ----
        splice_start = time.perf_counter()
        status = np.zeros(C_new, dtype=np.int8)
        if n1:
            remapped = self.graph.remap_vertices(rowmap_old, C_new)
            status[rowmap_old] = self.graph.status
            # A clean source's edge set is already the union's; a dirty
            # source's edges were recomputed above and supersede its
            # old ones.
            clean = ~np.isin(remapped.src, dirty)
            keep_src = remapped.src[clean]
            keep_dst = remapped.dst[clean]
        else:
            keep_src = np.empty(0, dtype=np.int32)
            keep_dst = np.empty(0, dtype=np.int32)
        np.maximum(status, dirty_graph.status, out=status)
        edges_retained = int(keep_src.size)
        src = np.concatenate([keep_src, dirty_graph.src]).astype(np.int32)
        dst = np.concatenate([keep_dst, dirty_graph.dst]).astype(np.int32)
        # Every destination is a real (owned-somewhere) cell, so its
        # final status is core or noncore — one vectorized re-type
        # replaces Section 6.1.3's detection for the whole union,
        # promoting stale clean->dirty PARTIAL edges whose destination
        # just became core.
        etype = np.where(
            status[dst] == V_CORE, int(EdgeType.FULL), int(EdgeType.PARTIAL)
        ).astype(np.int8)
        spliced = FlatCellGraph.from_arrays(status, src, dst, etype)
        spliced.reduce_all_full_edges()
        labels_by_cell = core_cell_labels(spliced)
        cell_labels = np.full(C_new, -1, dtype=np.int64)
        if labels_by_cell:
            cell_labels[np.fromiter(labels_by_cell.keys(), dtype=np.int64)] = (
                np.fromiter(labels_by_cell.values(), dtype=np.int64)
            )
        splice_seconds = time.perf_counter() - splice_start

        # ---- Per-point core flags: clean retained, dirty recomputed ---
        core_mask = np.concatenate([self.core_mask, np.zeros(n2, dtype=bool)])
        for partition, result in zip(
            dirty_partitions, subgraph_results, strict=True
        ):
            core_mask[partition.global_indices] = result.core_mask

        # ---- Phase III-2: relabel everything under the new numbering --
        union_partitions = _partitions_over_cells(
            points_all,
            point_cell_rows,
            new_dict,
            np.arange(C_new, dtype=np.int64),
            num_tasks,
        )
        core_masks = {
            p.pid: core_mask[p.global_indices] for p in union_partitions
        }
        labeling_context = build_labeling_context(
            spliced,
            union_partitions,
            core_masks,
            geometry.eps,
            new_dict.index_map,
        )
        labels = np.full(n, NOISE, dtype=np.int64)
        label_chunks = engine.map_tasks(
            phase3,
            union_partitions,
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


def _partitions_over_cells(
    points: np.ndarray,
    point_cell_rows: np.ndarray,
    dictionary: FlatCellDictionary,
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
    selected = np.nonzero(np.isin(point_cell_rows, cell_rows))[0]
    if selected.size == 0:
        return []
    # Stable sort by cell row: grouped by cell, ascending global index
    # within each cell.
    order = selected[np.argsort(point_cell_rows[selected], kind="stable")]
    sorted_rows = point_cell_rows[order]
    cells, starts, counts = np.unique(
        sorted_rows, return_index=True, return_counts=True
    )
    groups = [
        g for g in np.array_split(np.arange(cells.size), max(1, num_tasks))
        if g.size
    ]
    partitions: list[Partition] = []
    for pid, group in enumerate(groups):
        lo = int(starts[group[0]])
        hi = int(starts[group[-1]] + counts[group[-1]])
        sel = order[lo:hi]
        # Bulk conversion to python ints: one tolist per partition, not
        # one small array per cell.
        slices: dict[tuple, tuple[int, int]] = {
            tuple(cell_id): (start - lo, start + count - lo)
            for cell_id, start, count in zip(
                dictionary.cell_ids[cells[group]].tolist(),
                starts[group].tolist(),
                counts[group].tolist(),
                strict=True,
            )
        }
        partitions.append(
            Partition(
                pid=pid,
                points=np.ascontiguousarray(points[sel]),
                global_indices=sel.astype(np.int64),
                cell_slices=slices,
            )
        )
    return partitions
